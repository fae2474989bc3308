"""Command-line front end: build complexes, run profiles, bounds, and probes.

Every subcommand is a thin adapter over the library modules; no numerical
logic lives here.  Output is deterministic: dict keys are emitted in fixed
order and floats are formatted to 12 significant digits.

Exit codes: 0 success, 1 failed internal assertion or integrity check,
2 invalid input, 141 stdout closed by its reader (the status of a process
killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from typing import NoReturn, Sequence

from . import bounds as bounds_mod
from . import complexes as cx
from . import extremal, hodge, operators, spectral
from .errors import InputError, IntegrityError


def _fnum(x: float) -> float:
    """Round to 12 significant digits for portable, byte-stable output."""
    return float(f"{float(x):.12g}")


# ---------------------------------------------------------------------------
# constructor expressions: expr := name(arg,...), with the argument kinds
# _GRAMMAR gives for name; whitespace may surround every token

INT, EXPR, PATH = "an integer", "an expression", "a path"

# name -> (argument kinds, constructor); each constructor looks its function up
# when called, so a rebound module attribute (bench/tracing.py) is honoured
_GRAMMAR = {
    "skeleton": ((INT, INT), lambda m, k: cx.skeleton(m, k)),
    "simplex": ((INT,), lambda m: cx.full_simplex(m)),
    "Z": ((INT, INT, INT), lambda d, t, r: extremal.build_z(d, t, r)),
    "join": ((EXPR, EXPR), lambda X, Y: cx.join(X, Y)),
    "clique": ((PATH,), lambda path: cx.load_edge_file(path)),
    "file": ((PATH,), lambda path: cx.load_facet_file(path)),
}
# a join nested this deep has over depth factors, so 2**(depth+1) faces, past the cap
_MAX_DEPTH = cx.MAX_FACES.bit_length() - 1
_SPACE = re.compile(r"\s*")
_NAME = re.compile(r"\w+")
_INT = re.compile(r"[+-]?\d+")


def parse_constructor(text: str) -> cx.SimplicialComplex:
    """The complex a constructor expression builds.

    A name is ``\\w+``, an integer ``[+-]?\\d+``, and a path runs to the
    ``)`` that closes its constructor, parentheses inside it balanced.
    """
    pos = 0

    def fail(msg: str) -> NoReturn:
        raise InputError(f"parse error at position {pos}: {msg}")

    def skip() -> None:
        nonlocal pos
        pos = _SPACE.match(text, pos).end()

    def expect(ch: str) -> None:
        nonlocal pos
        skip()
        if not text.startswith(ch, pos):
            fail(f"expected {ch!r}")
        pos += 1

    def token(pattern: re.Pattern, what: str) -> str:
        nonlocal pos
        skip()
        m = pattern.match(text, pos) or fail(f"expected {what}")
        pos = m.end()
        return m.group()

    def path() -> str:
        nonlocal pos
        start, depth = pos, 0
        while pos < len(text) and (text[pos] != ")" or depth):
            depth += (text[pos] == "(") - (text[pos] == ")")
            pos += 1
        return text[start:pos].strip()

    def expr(depth: int) -> cx.SimplicialComplex:
        skip()
        if depth == _MAX_DEPTH:
            fail(f"joins nested {depth} deep would have over {cx.MAX_FACES} faces")
        name = token(_NAME, "a constructor name")
        expect("(")
        if name not in _GRAMMAR:
            fail(f"unknown constructor {name!r}")
        kinds, build = _GRAMMAR[name]
        args = []
        for i, kind in enumerate(kinds):
            if i:
                expect(",")
            if kind == EXPR:
                args.append(expr(depth + 1))
            elif kind == PATH:
                args.append(path())
            else:
                digits = token(_INT, INT)
                try:
                    args.append(int(digits))
                except ValueError:  # past the digit limit of int()
                    fail(f"an integer of {len(digits)} digits is out of range")
        expect(")")
        return build(*args)

    out = expr(0)
    skip()
    if pos != len(text):
        fail("unexpected trailing input")
    return out


# ---------------------------------------------------------------------------
# output helpers


def _emit(obj: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(obj) + "\n")
    else:
        out.write("  ".join(f"{key}={value}" for key, value in obj.items()) + "\n")


def _k_list(X: cx.SimplicialComplex, kflag: str) -> list[int]:
    if kflag == "all":
        return list(range(-1, X.dim + 1))
    try:
        k = int(kflag)
    except ValueError:
        raise InputError(f"--k must be an integer or 'all', got {kflag!r}") from None
    if not -1 <= k <= X.dim:
        raise InputError(f"k={k} is undefined (no k-faces; complex has dimension {X.dim})")
    return [k]


def _one_k(X: cx.SimplicialComplex, kflag: str, what: str) -> int:
    if kflag == "all":
        raise InputError(f"{what} needs a specific --k")
    return _k_list(X, kflag)[0]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_build(args, out) -> int:
    X = parse_constructor(args.expr)
    _emit(
        {
            "n": X.n,
            "dim": X.dim,
            "f_vector": list(X.f_vector()),
            "facets": [list(f) for f in cx.facets(X)],
        },
        args.format,
        out,
    )
    return 0


def _cmd_spectrum(args, out) -> int:
    X = parse_constructor(args.expr)
    rows = [
        {
            "k": k,
            "gap": _fnum(spectral.spectral_gap(X, k)),
            "betti": spectral.betti(X, k),
            "spectrum": [_fnum(v) for v in hodge.spectrum(X, k).values],
        }
        for k in _k_list(X, args.k)
    ]
    _emit({"n": X.n, "dim": X.dim, "profile": rows}, args.format, out)
    return 0


def _cmd_gap(args, out) -> int:
    X = parse_constructor(args.expr)
    for k in _k_list(X, args.k):
        _emit({"k": k, "gap": _fnum(spectral.spectral_gap(X, k))}, args.format, out)
    return 0


def _cmd_betti(args, out) -> int:
    X = parse_constructor(args.expr)
    for k in _k_list(X, args.k):
        _emit({"k": k, "betti": spectral.betti(X, k)}, args.format, out)
    return 0


def _cmd_missing(args, out) -> int:
    X = parse_constructor(args.expr)
    report = hodge.missing_faces(X)
    _emit(
        {"n": X.n, "h": report.h, "missing": [list(f) for f in report.missing]},
        args.format,
        out,
    )
    return 0


def _cmd_bound(args, out) -> int:
    X = parse_constructor(args.expr)
    for k in _k_list(X, args.k):
        obj = dataclasses.asdict(bounds_mod.spectral_gap_bound(X, k))
        obj["mu"] = _fnum(obj["mu"])
        obj["slack"] = _fnum(obj["slack"])
        _emit(obj, args.format, out)
    return 0


def _cmd_verify_z(args, out) -> int:
    report = extremal.verify_z_family(args.d, args.t, args.r)
    rows = [
        {
            "k": row.k,
            "mu_predicted": row.mu_predicted,
            "mu_eigen": _fnum(row.mu_eigen),
            "mu_join": _fnum(row.mu_join),
            "delta_predicted": row.delta_predicted,
            "delta_actual": row.delta_actual,
            "bound_identity": row.bound_identity,
        }
        for row in report.rows
    ]
    _emit(
        {"d": report.d, "t": report.t, "r": report.r, "ok": report.ok, "rows": rows},
        args.format,
        out,
    )
    return 0 if report.ok else 1


def _cmd_equality(args, out) -> int:
    X = parse_constructor(args.expr)
    k = _one_k(X, args.k, "equality check")
    verdict = extremal.equality_case_check(X, k)
    _emit(
        {
            "k": verdict.k,
            "holds": verdict.holds,
            "mu": _fnum(verdict.mu),
            "target": verdict.target,
            "witness": None
            if verdict.witness is None
            else {str(a): b for a, b in sorted(verdict.witness.items())},
        },
        args.format,
        out,
    )
    return 0


def _cmd_probe(args, out) -> int:
    if args.seed is not None and args.mode != "random":
        raise InputError("--seed applies to --mode random only")
    seed = 0 if args.seed is None else args.seed
    report = extremal.probe_equality_cases(args.d, args.n, args.mode, args.budget, seed)
    for hit in report.hits:
        _emit(
            {
                "n": hit.n,
                "d": hit.d,
                "k": hit.k,
                "mu": _fnum(hit.mu),
                "target": hit.target,
                "isomorphic_to_canonical": hit.isomorphic_to_canonical,
                "facets": [list(f) for f in hit.facets],
            },
            args.format,
            out,
        )
    _emit(
        {
            "examined": report.examined,
            "complete": report.complete,
            "hits": len(report.hits),
            "counterexamples": len(report.counterexamples),
        },
        args.format,
        out,
    )
    return 0


def _cmd_dump_matrix(args, out) -> int:
    X = parse_constructor(args.expr)
    k = _one_k(X, args.k, "dump-matrix")
    if args.operator == "laplacian":
        M = operators.laplacian(X, k)
    else:
        M = operators.coboundary_matrix(X, k)
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            reason = getattr(exc, "strerror", None) or exc
            raise InputError(f"cannot write {args.out!r}: {reason}") from None
        with fh:
            M.dump(fh)
    else:
        M.dump(out)
    return 0


# ---------------------------------------------------------------------------


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lapgap",
        description="Spectral gaps, Betti numbers, and degree bounds of simplicial complexes.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, expr=True, k=True, fmt=True):
        if expr:
            p.add_argument("expr", help="constructor expression, e.g. 'Z(2,2,1)' or 'file(x.txt)'")
        if k:
            p.add_argument("--k", default="all", help="dimension, integer or 'all'")
        if fmt:
            p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("build", help="construct a complex and print its summary")
    common(p, k=False)

    p = sub.add_parser("spectrum", help="per-dimension gaps, Betti numbers and spectra")
    common(p)

    p = sub.add_parser("gap", help="smallest Laplacian eigenvalue per dimension")
    common(p)

    p = sub.add_parser("betti", help="reduced Betti numbers (dual-route verified)")
    common(p)

    p = sub.add_parser("missing", help="minimal non-faces and their maximal dimension")
    common(p, k=False)

    p = sub.add_parser("bound", help="degree lower bound report per dimension")
    common(p)

    p = sub.add_parser("verify-z", help="verify the tight family against its closed forms")
    p.add_argument("d", type=int)
    p.add_argument("t", type=int)
    p.add_argument("r", type=int)
    common(p, expr=False, k=False)

    p = sub.add_parser("equality", help="test the d=1 gap equality and certify the witness")
    common(p)

    p = sub.add_parser("probe", help="search for gap equality cases at d >= 2")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p, expr=False, k=False)

    p = sub.add_parser("dump-matrix", help="write an operator matrix as text triples")
    common(p, fmt=False)
    p.add_argument("--operator", choices=("laplacian", "coboundary"), default="laplacian")
    p.add_argument("--out", metavar="PATH", default=None)

    return top


_HANDLERS = {
    "build": _cmd_build,
    "spectrum": _cmd_spectrum,
    "gap": _cmd_gap,
    "betti": _cmd_betti,
    "missing": _cmd_missing,
    "bound": _cmd_bound,
    "verify-z": _cmd_verify_z,
    "equality": _cmd_equality,
    "probe": _cmd_probe,
    "dump-matrix": _cmd_dump_matrix,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_argparser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
