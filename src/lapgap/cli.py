"""Command-line front end: build complexes, run profiles, bounds, and probes.

Every subcommand is a thin adapter over the library modules; no numerical
logic lives here.  Each is declared once, as a row of ``_COMMANDS``: its
help, its arguments and its handler; the argument parser is built from the
table.  Every report is printed by one rule, ``_plain``: a dataclass as its
fields in declaration order, floats at 12 significant digits, tuples as
lists and dict keys as strings; a line is JSON or ``key=value`` pairs.

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
from typing import Callable, NamedTuple, NoReturn, Sequence

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
# printing: every report by one rule


def _plain(x):
    """x as JSON data: a dataclass as its fields in declaration order, floats
    through _fnum, tuples as lists and dict keys as strings."""
    if dataclasses.is_dataclass(x):
        x = {field.name: getattr(x, field.name) for field in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(key): _plain(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(value) for value in x]
    return _fnum(x) if isinstance(x, float) else x


def _emit(report, fmt: str, out) -> None:
    """One line: a report dataclass or dict, as JSON or as key=value pairs."""
    obj = _plain(report)
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
# subcommand handlers: each takes the parsed arguments and stdout, prints,
# and returns the exit code; library functions are looked up when called


def _per_k(row):
    """The handler that prints ``row(X, k)`` for each k of --k."""

    def handler(args, out) -> int:
        X = parse_constructor(args.expr)
        for k in _k_list(X, args.k):
            _emit(row(X, k), args.format, out)
        return 0

    return handler


def _cmd_build(args, out) -> int:
    X = parse_constructor(args.expr)
    _emit({"n": X.n, "dim": X.dim, "f_vector": X.f_vector(), "facets": cx.facets(X)},
          args.format, out)
    return 0


def _cmd_spectrum(args, out) -> int:
    X = parse_constructor(args.expr)
    rows = [{"k": k, "gap": spectral.spectral_gap(X, k), "betti": spectral.betti(X, k),
             "spectrum": hodge.spectrum(X, k).values} for k in _k_list(X, args.k)]
    _emit({"n": X.n, "dim": X.dim, "profile": rows}, args.format, out)
    return 0


def _cmd_missing(args, out) -> int:
    X = parse_constructor(args.expr)
    report = hodge.missing_faces(X)
    _emit({"n": X.n, "h": report.h, "missing": report.missing}, args.format, out)
    return 0


# the fields of extremal.ZVerifyRow that verify-z prints, in order
_Z_ROW_FIELDS = ("k", "mu_predicted", "mu_eigen", "mu_join", "delta_predicted", "delta_actual",
                 "bound_identity")


def _cmd_verify_z(args, out) -> int:
    report = extremal.verify_z_family(args.d, args.t, args.r)
    rows = [{name: getattr(row, name) for name in _Z_ROW_FIELDS} for row in report.rows]
    _emit({"d": report.d, "t": report.t, "r": report.r, "ok": report.ok, "rows": rows},
          args.format, out)
    return 0 if report.ok else 1


def _cmd_equality(args, out) -> int:
    X = parse_constructor(args.expr)
    _emit(extremal.equality_case_check(X, _one_k(X, args.k, "equality check")), args.format, out)
    return 0


def _cmd_probe(args, out) -> int:
    report = extremal.probe_equality_cases(args.d, args.n, args.mode, args.budget, args.seed)
    for hit in report.hits:
        _emit(hit, args.format, out)
    _emit({"examined": report.examined, "complete": report.complete, "hits": len(report.hits),
           "counterexamples": len(report.counterexamples)}, args.format, out)
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
# the subcommands, each declared once: its help, its arguments as
# (name or flag, add_argument keywords) in the order --help lists them, and
# its handler


class _Command(NamedTuple):
    help: str
    arguments: tuple[tuple[str, dict], ...]
    run: Callable


EXPR_ARG = ("expr", {"help": "constructor expression, e.g. 'Z(2,2,1)' or 'file(x.txt)'"})
K_ARG = ("--k", {"default": "all", "help": "dimension, integer or 'all'"})
FORMAT_ARG = ("--format", {"choices": ("json", "text"), "default": "json"})
EXPR_K_FORMAT = (EXPR_ARG, K_ARG, FORMAT_ARG)

_COMMANDS = {
    "build": _Command("construct a complex and print its summary", (EXPR_ARG, FORMAT_ARG),
                      _cmd_build),
    "spectrum": _Command("per-dimension gaps, Betti numbers and spectra", EXPR_K_FORMAT,
                         _cmd_spectrum),
    "gap": _Command("smallest Laplacian eigenvalue per dimension", EXPR_K_FORMAT,
                    _per_k(lambda X, k: {"k": k, "gap": spectral.spectral_gap(X, k)})),
    "betti": _Command("reduced Betti numbers (dual-route verified)", EXPR_K_FORMAT,
                      _per_k(lambda X, k: {"k": k, "betti": spectral.betti(X, k)})),
    "missing": _Command("minimal non-faces and their maximal dimension", (EXPR_ARG, FORMAT_ARG),
                        _cmd_missing),
    "bound": _Command("degree lower bound report per dimension", EXPR_K_FORMAT,
                      _per_k(lambda X, k: bounds_mod.spectral_gap_bound(X, k))),
    "verify-z": _Command(
        "verify the tight family against its closed forms",
        (("d", {"type": int}), ("t", {"type": int}), ("r", {"type": int}), FORMAT_ARG),
        _cmd_verify_z,
    ),
    "equality": _Command("test the d=1 gap equality and certify the witness", EXPR_K_FORMAT,
                         _cmd_equality),
    "probe": _Command(
        "search for gap equality cases at d >= 2",
        (
            ("--d", {"type": int, "required": True}),
            ("--n", {"type": int, "required": True}),
            ("--mode", {"choices": ("exhaustive", "random"), "default": "exhaustive"}),
            ("--budget", {"type": int, "default": None}),
            ("--seed", {"type": int, "default": None}),
            FORMAT_ARG,
        ),
        _cmd_probe,
    ),
    "dump-matrix": _Command(
        "write an operator matrix as text triples",
        (
            EXPR_ARG,
            K_ARG,
            ("--operator", {"choices": ("laplacian", "coboundary"), "default": "laplacian"}),
            ("--out", {"metavar": "PATH", "default": None}),
        ),
        _cmd_dump_matrix,
    ),
}


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lapgap",
        description="Spectral gaps, Betti numbers, and degree bounds of simplicial complexes.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, keywords in command.arguments:
            p.add_argument(flag, **keywords)
    return top


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_argparser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command].run(args, sys.stdout)
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
