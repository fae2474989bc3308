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
import json
import os
import sys
from typing import Sequence

from . import bounds as bounds_mod
from . import complexes as cx
from . import extremal, hodge, operators, spectral
from .errors import InputError, IntegrityError


def _fnum(x: float) -> float:
    """Round to 12 significant digits for portable, byte-stable output."""
    return float(f"{float(x):.12g}")


# ---------------------------------------------------------------------------
# constructor expressions


class _ExprParser:
    """Recursive-descent parser for the constructor grammar.

    expr := skeleton(m,k) | simplex(m) | Z(d,t,r) | join(expr,expr)
          | clique(path) | file(path)
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, msg: str) -> None:
        raise InputError(f"parse error at position {self.pos}: {msg}")

    def _ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _expect(self, ch: str) -> None:
        self._ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def _ident(self) -> str:
        self._ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            self.fail("expected a constructor name")
        return self.text[start : self.pos]

    def _int(self) -> int:
        self._ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.fail("expected an integer")
        return int(self.text[start : self.pos])

    def _path(self) -> str:
        self._ws()
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            self.pos += 1
        return self.text[start : self.pos].strip()

    def parse(self) -> cx.SimplicialComplex:
        out = self.expr()
        self._ws()
        if self.pos != len(self.text):
            self.fail("unexpected trailing input")
        return out

    def expr(self) -> cx.SimplicialComplex:
        name = self._ident()
        self._expect("(")
        if name == "skeleton":
            m = self._int()
            self._expect(",")
            k = self._int()
            self._expect(")")
            return cx.skeleton(m, k)
        if name == "simplex":
            m = self._int()
            self._expect(")")
            return cx.full_simplex(m)
        if name == "Z":
            d = self._int()
            self._expect(",")
            t = self._int()
            self._expect(",")
            r = self._int()
            self._expect(")")
            return extremal.build_z(d, t, r)
        if name == "join":
            left = self.expr()
            self._expect(",")
            right = self.expr()
            self._expect(")")
            return cx.join(left, right)
        if name == "clique":
            path = self._path()
            self._expect(")")
            return cx.load_edge_file(path)
        if name == "file":
            path = self._path()
            self._expect(")")
            return cx.load_facet_file(path)
        self.fail(f"unknown constructor {name!r}")
        raise AssertionError  # unreachable


def parse_constructor(expr: str) -> cx.SimplicialComplex:
    return _ExprParser(expr).parse()


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
        obj = bounds_mod.spectral_gap_bound(X, k).to_json_dict()
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
    report = extremal.probe_equality_cases(args.d, args.n, args.mode, args.budget, args.seed)
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
        with open(args.out, "w", encoding="utf-8") as fh:
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
    p.add_argument("--seed", type=int, default=0)
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
