"""Spans around calls into lapgap's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function in every lapgap module
namespace that holds it, so calls between modules (``spectral`` calling
``operators.laplacian``) and within a module are both seen.  ``uninstall``
puts the originals back.  Nothing inside ``src/`` changes.

After a traced op the harness replays the stages of every composite call
it saw (``spectral_gap_bound``, ``betti``, ``spectral_profile``) once
each, untraced, to get the redundancy ratios, and re-runs ``isomorphic``
on every probe hit against the canonical complex.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

import lapgap
from lapgap import bounds, cli, complexes, extremal, operators, spectral

import harness

MODULES = (lapgap, complexes, operators, spectral, bounds, extremal, cli)

# the lru-cached original, kept so callers can clear it while it is wrapped
GRAPHS = extremal.graphs_up_to_isomorphism

CONSTRUCTORS = (
    (complexes, "from_facets"),
    (complexes, "clique_complex"),
    (complexes, "skeleton"),
    (complexes, "full_simplex"),
    (complexes, "join"),
    (complexes, "from_missing_faces"),
    (complexes, "load_facet_file"),
    (complexes, "load_edge_file"),
    (extremal, "build_z"),
)

# subcommands whose in-process busy time a traced run reports
CLI_SUBCOMMANDS = ("build", "spectrum", "gap", "betti", "missing", "bound", "verify-z",
                   "equality", "probe")

COMPOSITES = ("bounds.spectral_gap_bound", "spectral.betti", "spectral.spectral_profile")


def _laplacian_counts(args, kwargs, result) -> dict:
    X, k = args[0], args[1]
    m = result.mat.shape[0]
    up_rows = len(X.faces(k + 1))
    down_cols = len(X.faces(k - 1)) if k >= 0 else 0
    item = result.mat.dtype.itemsize
    return {
        "dim": m,
        # up.T @ up and down @ down.T, from shapes; not measured
        "macs": m * m * (up_rows + down_cols),
        "bytes": item * (up_rows * m + m * down_cols + m * m),
    }


def _keep_args(args, kwargs, result) -> dict:
    return {"args": args, "kwargs": kwargs}


TARGETS: tuple[tuple[object, str, str, Callable | None], ...] = (
    *((mod, fn, "complexes.construct", None) for mod, fn in CONSTRUCTORS),
    (complexes, "missing_faces", "complexes.missing_faces",
     lambda a, k, r: {"found": len(r.missing)}),
    (complexes, "min_degree", "complexes.min_degree", None),
    (operators, "coboundary_matrix", "operators.coboundary_matrix",
     lambda a, k, r: {"entries": int(r.mat.size)}),
    (operators, "laplacian", "operators.laplacian", _laplacian_counts),
    (spectral, "eigenvalues", "spectral.eigenvalues", lambda a, k, r: {"dim": r.size}),
    (spectral, "rank_mod_p", "spectral.rank_mod_p",
     lambda a, k, r: {"entries": int(getattr(a[0], "size", 0))}),
    (spectral, "spectral_gap", "spectral.spectral_gap", None),
    (spectral, "betti", "spectral.betti", _keep_args),
    (spectral, "spectral_profile", "spectral.spectral_profile", _keep_args),
    (bounds, "gershgorin_lower_bound", "bounds.gershgorin_lower_bound", None),
    (bounds, "gershgorin_from_degrees", "bounds.gershgorin_from_degrees", None),
    (bounds, "spectral_gap_bound", "bounds.spectral_gap_bound", _keep_args),
    (bounds, "bound_profile", "bounds.bound_profile", None),
    (extremal, "graphs_up_to_isomorphism", "extremal.graphs_up_to_isomorphism",
     lambda a, k, r: {"n": a[0], "classes": len(r)}),
    (extremal, "probe_equality_cases", "extremal.probe_equality_cases",
     lambda a, k, r: {"report": r}),
)


class Tracer:
    """Spans kept in memory: (sid, name, start, end, parent, op, attrs).

    An open span is a list; ``end`` stores it as a tuple, which the garbage
    collector stops tracking, so a long trace does not slow later
    collections.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.enabled = False
        self.op: int | None = None
        self._slots: list[tuple[object, str, object, object]] | None = None

    # -- recording -------------------------------------------------------

    def begin(self, name: str, attrs: dict | None = None) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), name, 0.0, 0.0, parent, self.op, attrs]
        self.spans.append(span)
        self.stack.append(span)
        span[2] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()
        self.spans[span[0]] = tuple(span)

    def call(self, name: str, fn, counter, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()
        if counter is not None:  # counted after the span's end, so not timed
            span[6] = counter(args, kwargs, result)
        self.spans[span[0]] = tuple(span)
        return result

    # -- wrapping ----------------------------------------------------------

    def slots(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding of a
        traced function; found once, while nothing is installed."""
        if self._slots is None:
            self._slots = []
            for home, fname, span_name, counter in TARGETS:
                orig = getattr(home, fname)
                wrapper = functools.wraps(orig)(
                    functools.partial(self._wrapped, span_name, orig, counter)
                )
                for mod in MODULES:
                    for attr, val in vars(mod).items():
                        if val is orig:
                            self._slots.append((mod, attr, orig, wrapper))
        return self._slots

    def _wrapped(self, name, fn, counter, *args, **kwargs):
        return self.call(name, fn, counter, args, kwargs)

    def install(self) -> None:
        for mod, attr, _orig, wrapper in self.slots():
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _wrapper in self.slots():
            setattr(mod, attr, orig)


def plain(spans) -> list[tuple]:
    """(sid, name, start, end, parent) tuples for the pure helpers."""
    return [(s[0], s[1], s[2], s[3], s[4]) for s in spans]


# ---------------------------------------------------------------------------
# stage replays, run untraced after a traced op


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def stages_spectral_gap_bound(X, k, d=None, d_convention=None) -> float:
    """Minimal stages of one bound report, each run once."""
    total = 0.0
    if d is None:
        total += _timed(complexes.missing_faces, X)[1]
    total += _timed(complexes.min_degree, X, k)[1]
    if k >= 0:
        L, t = _timed(operators.laplacian, X, k)
        total += t
        total += _timed(spectral.eigenvalues, L)[1]
        total += _timed(bounds.gershgorin_lower_bound, L)[1]
        total += _timed(bounds.gershgorin_from_degrees, X, k)[1]
    return total


def stages_betti(X, k, zero_tol=None) -> float:
    """One Laplacian, one eigensolve, one field rank per coboundary."""
    L, total = _timed(operators.laplacian, X, k)
    total += _timed(spectral.eigenvalues, L)[1]
    for j in (k, k - 1) if k >= 0 else (k,):
        mat = operators.coboundary_matrix(X, j).mat  # already paid inside laplacian
        total += _timed(spectral.rank_mod_p, mat)[1]
    return total


def stages_spectral_profile(X, zero_tol=None) -> float:
    """Per dimension one Laplacian and one eigensolve; one rank per coboundary."""
    total = 0.0
    for k in range(-1, X.dim + 1):
        L, t = _timed(operators.laplacian, X, k)
        total += t + _timed(spectral.eigenvalues, L)[1]
        mat = operators.coboundary_matrix(X, k).mat
        total += _timed(spectral.rank_mod_p, mat)[1]
    return total


STAGES = {
    "bounds.spectral_gap_bound": stages_spectral_gap_bound,
    "spectral.betti": stages_betti,
    "spectral.spectral_profile": stages_spectral_profile,
}


def canonical_complex(n: int, k: int, d: int):
    """Join of n-k-1 copies of the (d-1)-skeleton of a d-simplex with a full
    simplex on (d+1)(k+1) - d*n vertices, from public constructors."""
    m = n - k - 1
    r = (d + 1) * (k + 1) - d * n
    parts = [complexes.skeleton(d, d - 1) for _ in range(m)]
    if r >= 1:
        parts.append(complexes.full_simplex(r - 1))
    out = parts[0]
    for p in parts[1:]:
        out = complexes.join(out, p)
    return out


class Probes:
    """Post-op measurements of a traced run, with their bases."""

    def __init__(self) -> None:
        self.composite_s: dict[str, float] = defaultdict(float)
        self.stages_s: dict[str, float] = defaultdict(float)
        self.iso_s = 0.0
        self.iso_calls = 0

    def after_op(self, spans: list[list]) -> str | None:
        """Replay composites and re-run isomorphism checks seen in one op's
        spans.  Returns an error when a re-run disagrees with the op."""
        error = None
        for s in spans:
            attrs = s[6]
            if not attrs:
                continue
            if s[1] in STAGES and "args" in attrs:
                self.composite_s[s[1]] += s[3] - s[2]
                self.stages_s[s[1]] += STAGES[s[1]](*attrs["args"], **attrs["kwargs"])
                attrs.clear()
            elif s[1] == "extremal.probe_equality_cases":
                report = attrs.pop("report")
                for hit in report.hits:
                    X = complexes.from_facets(hit.n, hit.facets)
                    canon = canonical_complex(hit.n, hit.k, hit.d)
                    t0 = time.perf_counter()
                    iso = extremal.isomorphic(X, canon)
                    self.iso_s += time.perf_counter() - t0
                    self.iso_calls += 1
                    if (iso is not None) != hit.isomorphic_to_canonical:
                        error = f"isomorphic() re-run disagrees on hit k={hit.k} {hit.facets}"
                attrs["examined"] = report.examined
                attrs["hits"] = len(report.hits)
        return error


def graph_counts(spans) -> tuple[int, int]:
    """(classes kept, candidates tried) over every recursion level computed.

    A level m was computed, not read from the cache, exactly when its span
    has a child span for level m-1; it then tried classes(m-1) * 2^(m-1)
    candidate graphs.
    """
    by_id = {s[0]: s for s in spans}
    classes = tried = 0
    for s in spans:
        if s[1] != "extremal.graphs_up_to_isomorphism" or s[4] is None:
            continue
        parent = by_id[s[4]]
        if parent[1] != s[1] or not parent[6] or not s[6]:
            continue
        m = parent[6]["n"]
        classes += parent[6]["classes"]
        tried += s[6]["classes"] * 2 ** (m - 1)
    return classes, tried


def layer_metrics(tracer: Tracer, probes: Probes, rotations: int) -> dict[str, float]:
    """Per-layer figures per traced rotation, from the traced ops' spans."""
    spans = [s for s in tracer.spans if s[5] is not None]
    busy = harness.busy_by_name(plain(spans))
    counts: dict[str, float] = defaultdict(float)
    maxima: dict[str, int] = defaultdict(int)
    for s in spans:
        attrs = s[6] or {}
        name = s[1]
        for key in ("found", "entries", "macs", "bytes", "examined", "hits"):
            if key in attrs:
                counts[f"{name}.{key}"] += attrs[key]
        if "dim" in attrs:
            maxima[name] = max(maxima[name], attrs["dim"])
    classes, tried = graph_counts(spans)
    r = max(rotations, 1)
    out: dict[str, float] = {}

    def b(name):
        return busy.get(name, (0.0, 0))

    for name in (
        "complexes.construct", "complexes.missing_faces", "complexes.min_degree",
        "operators.coboundary_matrix", "operators.laplacian", "spectral.eigenvalues",
        "spectral.rank_mod_p", "spectral.spectral_gap", "spectral.betti",
        "bounds.gershgorin_lower_bound", "bounds.gershgorin_from_degrees",
        "bounds.spectral_gap_bound", "bounds.bound_profile",
        "extremal.graphs_up_to_isomorphism", "extremal.probe_equality_cases",
        "cli.main",
    ):
        out[f"{name}.busy_s"] = b(name)[0] / r
    for name in (
        "complexes.construct", "complexes.missing_faces", "operators.coboundary_matrix",
        "operators.laplacian", "spectral.eigenvalues", "spectral.rank_mod_p",
    ):
        out[f"{name}.calls"] = b(name)[1] / r
    out["complexes.missing_faces.found"] = counts["complexes.missing_faces.found"] / r
    out["operators.coboundary_matrix.entries"] = counts["operators.coboundary_matrix.entries"] / r
    out["operators.laplacian.max_dim"] = maxima["operators.laplacian"]
    out["operators.laplacian.macs_computed"] = counts["operators.laplacian.macs"] / r
    out["operators.laplacian.bytes_computed"] = counts["operators.laplacian.bytes"] / r
    out["spectral.eigenvalues.max_dim"] = maxima["spectral.eigenvalues"]
    out["spectral.rank_mod_p.entries"] = counts["spectral.rank_mod_p.entries"] / r
    for name in COMPOSITES:
        out[f"{name}.redundancy"] = harness.redundancy(
            probes.composite_s[name], probes.stages_s[name]
        )
    out["extremal.graphs_up_to_isomorphism.classes"] = classes / r
    out["extremal.graphs_up_to_isomorphism.tried"] = tried / r
    out["extremal.graphs_up_to_isomorphism.useful_ratio"] = classes / tried if tried else 0.0
    examined = counts["extremal.probe_equality_cases.examined"]
    hits = counts["extremal.probe_equality_cases.hits"]
    out["extremal.probe_equality_cases.examined"] = examined / r
    out["extremal.probe_equality_cases.hits"] = hits / r
    out["extremal.probe_equality_cases.hit_ratio"] = hits / examined if examined else 0.0
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.{sub}.busy_s"] = 0.0
    for s in harness.outermost(plain(spans)):
        if s[1] == "cli.main":
            out[f"cli.main.{tracer.spans[s[0]][6]['sub']}.busy_s"] += (s[3] - s[2]) / r
    out["extremal.isomorphic.busy_s"] = probes.iso_s / r
    out["extremal.isomorphic.calls"] = probes.iso_calls / r
    return out
