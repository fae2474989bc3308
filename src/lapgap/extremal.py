"""Tight families for the spectral gap bound, equality checks, and probes.

``build_z(d, t, r)`` constructs the join of t copies of the codimension-one
skeleton of a d-simplex with a full (r-1)-simplex; its gaps and minimal
degrees have closed forms that make the degree bound an equality at every
dimension.  ``equality_case_check`` tests the d = 1 uniqueness statement,
and ``probe_equality_cases`` searches for equality cases at d >= 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

import numpy as np

from . import hodge
from .complexes import (
    Simplex,
    SimplicialComplex,
    facets,
    from_facets,
    from_missing_faces,
    full_simplex,
    join,
    min_degree,
    skeleton,
)
from .errors import InputError, IntegrityError, SizeLimitError
from .operators import coboundary_matrix
from .spectral import join_spectrum, skeleton_spectrum, spectral_gap

ISO_VERTEX_CAP = 14
PROBE_EXHAUSTIVE_CAP = 9
HIT_CONFIRM_TOL = 1e-10


@dataclass(frozen=True)
class ZParams:
    """Parameters of the tight family; n = (d+1)t + r, dim = dt + r - 1."""

    d: int
    t: int
    r: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.t < 1 or self.r < 1:
            raise InputError(
                f"unsupported parameters d={self.d}, t={self.t}, r={self.r}; all must be >= 1"
            )

    @property
    def n(self) -> int:
        return (self.d + 1) * self.t + self.r

    @property
    def dim(self) -> int:
        return self.d * self.t + self.r - 1

    @property
    def total_faces(self) -> int:
        return (2 ** (self.d + 1) - 1) ** self.t * 2**self.r


def _skeleton_power_join(d: int, m: int, r: int) -> SimplicialComplex:
    """(codim-1 skeleton of a d-simplex)^join m, joined with a full (r-1)-simplex.

    Either factor count may be zero, but not both.
    """
    if m < 0 or r < 0 or (m == 0 and r == 0):
        raise InputError(f"invalid join shape m={m}, r={r}")
    parts: list[SimplicialComplex] = [skeleton(d, d - 1) for _ in range(m)]
    if r >= 1:
        parts.append(full_simplex(r - 1))
    out = parts[0]
    for p in parts[1:]:
        out = join(out, p)
    return out


def build_z(d: int, t: int, r: int) -> SimplicialComplex:
    """The tight-family complex; every missing face has dimension exactly d."""
    params = ZParams(d, t, r)
    return _skeleton_power_join(params.d, params.t, params.r)


@dataclass(frozen=True)
class ZProfileRow:
    k: int
    mu: int
    delta: int


def predicted_z_profile(d: int, t: int, r: int) -> tuple[ZProfileRow, ...]:
    """Closed-form gap and minimal degree of the tight family, per dimension."""
    params = ZParams(d, t, r)
    n = params.n
    rows = []
    for k in range(-1, params.dim + 1):
        if k <= d * t - 1:
            m = (k + 1) // d
            mu = (d + 1) * (t - m) + r
            delta = n - (k + 1) - m
        else:
            mu = r
            delta = n - (k + 1) - t
        rows.append(ZProfileRow(k=k, mu=mu, delta=delta))
    return tuple(rows)


@dataclass(frozen=True)
class ZVerifyRow:
    k: int
    mu_predicted: int
    delta_predicted: int
    mu_eigen: float
    mu_join: float
    delta_actual: int
    bound_identity: bool  # (d+1)(delta+k+1) - d n == mu, exactly


@dataclass(frozen=True)
class ZVerifyReport:
    d: int
    t: int
    r: int
    rows: tuple[ZVerifyRow, ...]
    tol: float

    @property
    def ok(self) -> bool:
        return all(
            abs(row.mu_eigen - row.mu_predicted) <= self.tol
            and abs(row.mu_join - row.mu_predicted) <= self.tol
            and row.delta_actual == row.delta_predicted
            and row.bound_identity
            for row in self.rows
        )


def verify_z_family(
    d: int, t: int, r: int, tol: float = 1e-8, face_cap: int = 5000
) -> ZVerifyReport:
    """Check the closed forms against eigensolved and join-composed spectra.

    The eigensolver route and the join route are computed independently of
    the closed forms and of each other.
    """
    params = ZParams(d, t, r)
    if params.total_faces > face_cap:
        raise SizeLimitError(
            f"Z({d},{t},{r}) has {params.total_faces} faces (dimension {params.dim}), "
            f"over the cap {face_cap}"
        )
    Z = build_z(d, t, r)
    skel_table = {i: skeleton_spectrum(d + 1, d - 1, i) for i in range(-1, d)}
    simp_table = {i: skeleton_spectrum(r, r - 1, i) for i in range(-1, r)}
    tables = [skel_table] * t + [simp_table]
    n = params.n
    rows = []
    for pred in predicted_z_profile(d, t, r):
        k = pred.k
        rows.append(
            ZVerifyRow(
                k=k,
                mu_predicted=pred.mu,
                delta_predicted=pred.delta,
                mu_eigen=spectral_gap(Z, k),
                mu_join=join_spectrum(tables, k).min(),
                delta_actual=min_degree(Z, k),
                bound_identity=(d + 1) * (pred.delta + k + 1) - d * n == pred.mu,
            )
        )
    return ZVerifyReport(d=d, t=t, r=r, rows=tuple(rows), tol=tol)


def canonical_equality_complex(n: int, k: int) -> SimplicialComplex:
    """The unique clique complex with gap 2(k+1) - n at dimension k.

    Join of n-k-1 two-point complexes with a full simplex on 2(k+1)-n
    vertices; either part may be empty, but not both.
    """
    m = n - k - 1
    r = 2 * (k + 1) - n
    if m < 0 or r < 0 or n < 1:
        raise InputError(f"no canonical complex for n={n}, k={k} (needs 2(k+1) >= n >= k+1)")
    return _skeleton_power_join(1, m, r)


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of testing the gap equality mu_k = 2(k+1) - n on a clique complex."""

    k: int
    holds: bool
    mu: float
    target: int
    witness: dict[int, int] | None


def equality_case_check(X: SimplicialComplex, k: int, tol: float = 1e-7) -> EqualityVerdict:
    """Test the equality and, when it holds, certify the canonical form.

    Raises IntegrityError if the equality holds but no isomorphism to the
    canonical complex exists; that would falsify the characterization.
    """
    report = hodge.missing_faces(X)
    if report.h is not None and (
        report.h > 1 or any(len(f) != 2 for f in report.missing)
    ):
        raise InputError(
            "equality characterization applies to clique complexes on their full vertex set"
        )
    n = X.num_vertices
    target = 2 * (k + 1) - n
    mu = spectral_gap(X, k)
    if abs(mu - target) > tol:
        return EqualityVerdict(k=k, holds=False, mu=mu, target=target, witness=None)
    canonical = canonical_equality_complex(n, k)
    witness = isomorphic(X, canonical)
    if witness is None:
        raise IntegrityError(
            f"gap equality mu_{k} = {target} holds but the complex is not isomorphic "
            "to the canonical complex"
        )
    return EqualityVerdict(k=k, holds=True, mu=mu, target=target, witness=witness)


# ---------------------------------------------------------------------------
# isomorphism search


def _vertex_face_profile(X: SimplicialComplex) -> dict[int, tuple[int, ...]]:
    prof = {v: [0] * (X.dim + 1) for v in X.vertices()}
    for k in range(0, X.dim + 1):
        for f in X.faces(k):
            for v in f:
                prof[v][k] += 1
    return {v: tuple(p) for v, p in prof.items()}


def isomorphic(X: SimplicialComplex, Y: SimplicialComplex) -> dict[int, int] | None:
    """Vertex bijection carrying X's faces onto Y's faces, or None.

    Backtracking over support vertices, ordered most-constrained first and
    pruned by per-vertex face-count profiles.
    """
    vx, vy = X.vertices(), Y.vertices()
    if max(len(vx), len(vy)) > ISO_VERTEX_CAP:
        raise SizeLimitError(f"isomorphism search capped at {ISO_VERTEX_CAP} vertices")
    if len(vx) != len(vy) or X.dim != Y.dim:
        return None
    if any(len(X.faces(k)) != len(Y.faces(k)) for k in range(X.dim + 1)):
        return None
    prof_x = _vertex_face_profile(X)
    prof_y = _vertex_face_profile(Y)
    if sorted(prof_x.values()) != sorted(prof_y.values()):
        return None

    faces_at_x = {v: [f for f in X.all_faces() if v in f] for v in vx}
    faces_at_y = {v: [f for f in Y.all_faces() if v in f] for v in vy}
    candidates = {
        u: [v for v in vy if prof_y[v] == prof_x[u]] for u in vx
    }
    order = sorted(vx, key=lambda u: len(candidates[u]))

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(u: int, v: int) -> bool:
        dom = set(mapping) | {u}
        img = set(used) | {v}
        count_x = 0
        trial = dict(mapping)
        trial[u] = v
        for f in faces_at_x[u]:
            if not dom.issuperset(f):
                continue
            count_x += 1
            if tuple(sorted(trial[w] for w in f)) not in Y:
                return False
        count_y = sum(1 for g in faces_at_y[v] if img.issuperset(g))
        return count_x == count_y

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for v in candidates[u]:
            if v in used or not consistent(u, v):
                continue
            mapping[u] = v
            used.add(v)
            if extend(i + 1):
                return True
            del mapping[u]
            used.discard(v)
        return False

    return dict(mapping) if extend(0) else None


# ---------------------------------------------------------------------------
# graph enumeration up to isomorphism (supports the equality searches)


def _graph_invariant(n: int, edges: tuple[tuple[int, int], ...]):
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    deg = {v: len(adj[v]) for v in range(n)}
    profile = sorted(
        (deg[v], tuple(sorted(deg[u] for u in adj[v]))) for v in range(n)
    )
    triangles = sum(
        1 for t in combinations(range(n), 3)
        if t[1] in adj[t[0]] and t[2] in adj[t[0]] and t[2] in adj[t[1]]
    )
    return (n, len(edges), triangles, tuple(profile))


def _graph_complex(n: int, edges: tuple[tuple[int, int], ...]) -> SimplicialComplex:
    return from_facets(n, edges)


@lru_cache(maxsize=None)
def graphs_up_to_isomorphism(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All graphs on n labeled vertices, one representative per isomorphism class."""
    if n < 1:
        raise InputError("need n >= 1")
    if n > 8:
        raise SizeLimitError("graph enumeration capped at 8 vertices")
    if n == 1:
        return ((),)
    out: list[tuple[tuple[int, int], ...]] = []
    buckets: dict[object, list[tuple[tuple[tuple[int, int], ...], SimplicialComplex]]] = {}
    new = n - 1
    for parent in graphs_up_to_isomorphism(n - 1):
        for mask in range(1 << new):
            edges = parent + tuple(
                (v, new) for v in range(new) if (mask >> v) & 1
            )
            key = _graph_invariant(n, edges)
            bucket = buckets.setdefault(key, [])
            C = _graph_complex(n, edges)
            if any(isomorphic(C, other) is not None for _, other in bucket):
                continue
            bucket.append((edges, C))
            out.append(edges)
    return tuple(out)


# ---------------------------------------------------------------------------
# equality-case probe for d >= 2


@dataclass(frozen=True)
class ProbeHit:
    """One (complex, dimension) pair achieving the target gap equality."""

    n: int
    d: int
    k: int
    mu: float
    target: int
    isomorphic_to_canonical: bool
    facets: tuple[Simplex, ...]


@dataclass(frozen=True)
class ProbeReport:
    d: int
    n: int
    mode: str
    budget: int | None
    seed: int
    examined: int
    complete: bool
    hits: tuple[ProbeHit, ...]

    @property
    def counterexamples(self) -> tuple[ProbeHit, ...]:
        return tuple(h for h in self.hits if not h.isomorphic_to_canonical)


def _canonical_for(n: int, k: int, d: int) -> SimplicialComplex:
    m = n - k - 1
    r = (d + 1) * (k + 1) - d * n
    return _skeleton_power_join(d, m, r)


def _candidate_targets(n: int, d: int) -> list[tuple[int, int]]:
    # targets below 0 can never equal a PSD spectrum; dim <= n-2 when a
    # missing face exists
    out = []
    for k in range(0, n - 1):
        target = (d + 1) * (k + 1) - d * n
        if target >= 0:
            out.append((k, target))
    return out


def _verify_hit(
    X: SimplicialComplex, d: int, k: int, target: int, tol: float
) -> ProbeHit | None:
    if k > X.dim:
        return None
    mu = spectral_gap(X, k)
    err = abs(mu - target)
    if err > tol:
        return None
    if err > HIT_CONFIRM_TOL:
        raise IntegrityError(
            f"ambiguous near-equality at k={k}: |mu - {target}| = {err:.3e} "
            f"is inside tol={tol} but fails the confirmation tolerance {HIT_CONFIRM_TOL}"
        )
    canonical = _canonical_for(X.num_vertices, k, d)
    iso = isomorphic(X, canonical) is not None
    return ProbeHit(
        n=X.num_vertices,
        d=d,
        k=k,
        mu=mu,
        target=target,
        isomorphic_to_canonical=iso,
        facets=facets(X),
    )


def _cliques_by_size(n: int, eset: set[tuple[int, int]], max_size: int) -> dict[int, list[tuple[int, ...]]]:
    out: dict[int, list[tuple[int, ...]]] = {}
    for c in range(3, max_size + 1):
        out[c] = [
            s for s in combinations(range(n), c)
            if all(p in eset for p in combinations(s, 2))
        ]
    return out


def _enumerate_layered(
    n: int, d: int, eset: set[tuple[int, int]]
) -> Iterator[list[tuple[int, ...]]]:
    """Missing-face selections of cardinalities 3..d+2, top layer nonempty.

    Yields the flat list of missing faces of dimension >= 2; together with
    the non-edges they form the full minimal-non-face antichain of a complex
    with maximal missing dimension d.
    """
    cliques = _cliques_by_size(n, eset, d + 1)

    def rec(c: int, chosen: list[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
        eligible = [
            s for s in cliques[c]
            if not any(set(m) <= set(s) for m in chosen)
        ]
        last = c == d + 1
        for mask in range(1 << len(eligible)):
            layer = [eligible[i] for i in range(len(eligible)) if (mask >> i) & 1]
            if last:
                if layer:
                    yield chosen + layer
            else:
                yield from rec(c + 1, chosen + layer)

    yield from rec(3, [])


def _probe_general(
    n: int, d: int, budget: int | None, tol: float
) -> tuple[list[ProbeHit], int, bool]:
    targets = _candidate_targets(n, d)
    hits: list[ProbeHit] = []
    examined = 0
    for edges in graphs_up_to_isomorphism(n):
        eset = {tuple(sorted(e)) for e in edges}
        nonedges = [p for p in combinations(range(n), 2) if p not in eset]
        for extra in _enumerate_layered(n, d, eset):
            if budget is not None and examined >= budget:
                return hits, examined, False
            examined += 1
            X = from_missing_faces(n, list(nonedges) + extra)
            for k, target in targets:
                hit = _verify_hit(X, d, k, target, tol)
                if hit is not None:
                    hits.append(hit)
    return hits, examined, True


def _probe_fast_d2(
    n: int, budget: int | None, tol: float
) -> tuple[list[ProbeHit], int, bool]:
    """Exhaustive d=2 search, batched over the missing-triangle subsets.

    The batch computes candidate gaps from masked ambient coboundary blocks
    and acts only as a filter; every candidate is re-verified from a freshly
    built complex at the confirmation tolerance.
    """
    d = 2
    targets = _candidate_targets(n, d)
    all_pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    subs = {c: list(combinations(range(n), c)) for c in range(0, n + 1)}
    full = full_simplex(n - 1)
    cob = {k: coboundary_matrix(full, k).mat.astype(np.float64) for k in range(-1, n - 1)}

    cards = sorted({c for k, _ in targets for c in (k, k + 1, k + 2)})
    chunk_size = 2048
    screen_tol = 1e-5

    hits: list[ProbeHit] = []
    examined = 0
    complete = True

    for edges in graphs_up_to_isomorphism(n):
        eset = {tuple(sorted(e)) for e in edges}
        tris = [t for t in triples if all(p in eset for p in combinations(t, 2))]
        if not tris:
            continue
        ntr = len(tris)

        clique_ok: dict[int, np.ndarray] = {}
        tri_bits: dict[int, np.ndarray] = {}
        for c in cards:
            if c > n:
                clique_ok[c] = np.zeros(0, dtype=bool)
                tri_bits[c] = np.zeros(0, dtype=np.uint64)
                continue
            ok = []
            bits = []
            for s in subs[c]:
                sset = set(s)
                ok.append(all(p in eset for p in combinations(s, 2)))
                bits.append(
                    sum(1 << ti for ti, t in enumerate(tris) if set(t) <= sset)
                )
            clique_ok[c] = np.array(ok, dtype=bool)
            tri_bits[c] = np.array(bits, dtype=np.uint64)

        candidates: list[tuple[int, int, int]] = []  # (T, k, target)
        t_val = 1
        top = 1 << ntr
        while t_val < top:
            if budget is not None and examined >= budget:
                complete = False
                break
            count = min(chunk_size, top - t_val)
            if budget is not None:
                count = min(count, budget - examined)
            T = np.arange(t_val, t_val + count, dtype=np.uint64)
            t_val += count
            examined += count

            live: dict[int, np.ndarray] = {}
            for c in cards:
                if c == 0:
                    live[c] = np.ones((count, 1), dtype=bool)
                else:
                    live[c] = clique_ok[c][None, :] & (
                        (T[:, None] & tri_bits[c][None, :]) == 0
                    )
            for k, target in targets:
                c = k + 1
                rows_live = live[c]
                nlive = rows_live.sum(axis=1)
                sel = np.nonzero(nlive > 0)[0]
                if sel.size == 0:
                    continue
                rmask = rows_live[sel].astype(np.float64)
                down = cob[k - 1][None, :, :] * rmask[:, :, None]
                down = down * live[c - 1][sel].astype(np.float64)[:, None, :]
                L = down @ down.transpose(0, 2, 1)
                if cob[k].shape[0]:
                    up = cob[k][None, :, :] * live[c + 1][sel].astype(np.float64)[:, :, None]
                    up = up * rmask[:, None, :]
                    L = L + up.transpose(0, 2, 1) @ up
                w = np.linalg.eigvalsh(L)
                ndead = (rmask.shape[1] - nlive[sel]).astype(int)
                mu = w[np.arange(sel.size), ndead]
                for pos in np.nonzero(np.abs(mu - target) < screen_tol)[0]:
                    candidates.append((int(T[sel[pos]]), k, target))

        nonedges = [p for p in all_pairs if p not in eset]
        for T_int, k, target in candidates:
            extra = [tris[ti] for ti in range(ntr) if (T_int >> ti) & 1]
            X = from_missing_faces(n, list(nonedges) + extra)
            hit = _verify_hit(X, d, k, target, tol)
            if hit is not None:
                hits.append(hit)
        if not complete:
            break
    return hits, examined, complete


def _probe_random(
    n: int, d: int, budget: int, seed: int, tol: float
) -> tuple[list[ProbeHit], int]:
    rng = random.Random(seed)
    targets = _candidate_targets(n, d)
    hits: list[ProbeHit] = []
    examined = 0
    for _ in range(budget):
        examined += 1
        p = rng.uniform(0.3, 0.95)
        eset = {e for e in combinations(range(n), 2) if rng.random() < p}
        cliques = _cliques_by_size(n, eset, d + 1)
        chosen: list[tuple[int, ...]] = []
        ok = True
        for c in range(3, d + 2):
            eligible = [
                s for s in cliques[c] if not any(set(m) <= set(s) for m in chosen)
            ]
            if c == d + 1:
                if not eligible:
                    ok = False
                    break
                q = rng.uniform(0.1, 0.9)
                layer = [s for s in eligible if rng.random() < q]
                if not layer:
                    layer = [eligible[rng.randrange(len(eligible))]]
            else:
                q = rng.uniform(0.0, 0.5)
                layer = [s for s in eligible if rng.random() < q]
            chosen.extend(layer)
        if not ok:
            continue
        nonedges = [e for e in combinations(range(n), 2) if e not in eset]
        X = from_missing_faces(n, nonedges + chosen)
        for k, target in targets:
            hit = _verify_hit(X, d, k, target, tol)
            if hit is not None:
                hits.append(hit)
    return hits, examined


def probe_equality_cases(
    d: int,
    n: int,
    mode: str = "exhaustive",
    budget: int | None = None,
    seed: int = 0,
    tol: float = 1e-7,
) -> ProbeReport:
    """Search complexes with maximal missing-face dimension d for gap equalities.

    Every complex X on n vertices with h(X) = d is tested at each dimension
    where the target (d+1)(k+1) - d*n is attainable; hits are re-verified at
    a tightened tolerance and checked for isomorphism with the canonical
    join form.  Exhaustive mode covers every isomorphism class; random mode
    samples ``budget`` complexes deterministically from ``seed``.
    """
    if d < 2:
        raise InputError("probe needs d >= 2; the d=1 case is equality_case_check")
    if n < d + 1:
        raise InputError(f"no complex on n={n} vertices has a missing face of dimension {d}")
    if mode == "exhaustive":
        if n > PROBE_EXHAUSTIVE_CAP:
            raise SizeLimitError(f"exhaustive probe capped at n={PROBE_EXHAUSTIVE_CAP}")
        if d == 2 and n <= 7:
            hits, examined, complete = _probe_fast_d2(n, budget, tol)
        else:
            hits, examined, complete = _probe_general(n, d, budget, tol)
    elif mode == "random":
        hits, examined = _probe_random(n, d, budget if budget is not None else 1000, seed, tol)
        complete = True
    else:
        raise InputError(f"unknown probe mode {mode!r}")
    return ProbeReport(
        d=d,
        n=n,
        mode=mode,
        budget=budget,
        seed=seed,
        examined=examined,
        complete=complete,
        hits=tuple(hits),
    )
