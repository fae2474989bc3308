"""Tight families for the spectral gap bound, equality checks, and probes.

``build_z(d, t, r)`` constructs the join of t copies of the codimension-one
skeleton of a d-simplex with a full (r-1)-simplex; its gaps and minimal
degrees have closed forms that make the degree bound an equality at every
dimension.  ``equality_case_check`` tests the d = 1 uniqueness statement,
and ``probe_equality_cases`` searches for equality cases at d >= 2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, Sequence

import numpy as np

from . import hodge, spectral
from .complexes import (
    Simplex,
    SimplicialComplex,
    facets,
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
GRAPH_CODE_CHUNK = 1 << 19  # entries of one candidates-by-permutations code block
PROBE_SELECTION_BITS = 22  # without a budget, K_n may offer at most 2**22 selections
HIT_CONFIRM_TOL = 1e-10
D2_SCREEN_CHUNK = 2048  # triangle sets per batch; a graph's hits come batch by batch, then by k


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


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be a finite number >= 0, got {tol}")


def verify_z_family(
    d: int, t: int, r: int, tol: float = 1e-8, face_cap: int = 5000
) -> ZVerifyReport:
    """Check the closed forms against eigensolved and join-composed spectra.

    The eigensolver route and the join route are computed independently of
    the closed forms and of each other.
    """
    params = ZParams(d, t, r)
    _check_tol(tol)
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
    _check_tol(tol)
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


@lru_cache(maxsize=None)
def graphs_up_to_isomorphism(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All graphs on n labeled vertices, one representative per isomorphism class.

    The graphs on n vertices are the classes on n-1 vertices, each extended
    by every neighbourhood of the new vertex n-1 in mask order; the first
    candidate of each class is kept.  A class is named by its canonical
    code, the least edge bitmask over all n! relabelings (McKay,
    "Isomorph-free exhaustive generation", 1998).  The codes come from
    float64 products of the candidates' edge bits with a (pairs x n!) table
    of powers of two, in blocks of GRAPH_CODE_CHUNK entries; they are exact
    because n <= 8 needs at most 28 bits.
    """
    if n < 1:
        raise InputError("need n >= 1")
    if n > 8:
        raise SizeLimitError("graph enumeration capped at 8 vertices")
    if n == 1:
        return ((),)
    new = n - 1
    parents = graphs_up_to_isomorphism(new)
    pairs = np.array(list(combinations(range(n), 2)))
    bit = np.zeros((n, n), dtype=np.intp)
    bit[pairs[:, 0], pairs[:, 1]] = bit[pairs[:, 1], pairs[:, 0]] = np.arange(len(pairs))

    parent_bits = np.zeros((len(parents), len(pairs)))
    for row, edges in zip(parent_bits, parents):
        row[[bit[u, w] for u, w in edges]] = 1.0
    masks = np.arange(1 << new)
    new_bits = np.zeros((len(masks), len(pairs)))
    new_bits[:, bit[new, :new]] = (masks[:, None] >> np.arange(new)) & 1
    candidates = (parent_bits[:, None, :] + new_bits[None, :, :]).reshape(-1, len(pairs))

    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    table = np.ldexp(1.0, bit[perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]]).T
    step = max(1, GRAPH_CODE_CHUNK // len(perms))
    codes = np.concatenate([
        (candidates[i : i + step] @ table).min(axis=1)
        for i in range(0, len(candidates), step)
    ])
    _, first = np.unique(codes, return_index=True)
    out = []
    for i in np.sort(first):
        p, mask = divmod(int(i), len(masks))
        out.append(parents[p] + tuple((v, new) for v in range(new) if (mask >> v) & 1))
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


class _D2Tables:
    """The exact integer screen of the d=2 probe on n vertices.

    Columns are the vertex sets of the cardinalities the targets read: k+1
    (the k-faces) and k+2.  A complex is a 0/1 row of live columns, its
    faces.  ``weights`` turns a row into the degree row values
    (k+2)*deg + 2(k+1) - facet sum of every k-face, target by target, in
    one product: deg counts the live (k+1)-faces above, and the facet sum
    counts, through |delta_{k-1}| |delta_{k-1}|^T, the live k-faces that
    share a facet.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.targets = _candidate_targets(n, 2)
        full = full_simplex(n - 1)
        cards = sorted({c for k, _ in self.targets for c in (k + 1, k + 2)})
        self.faces: list[Simplex] = []
        self.cols: dict[int, slice] = {}
        for c in cards:
            self.cols[c] = slice(len(self.faces), len(self.faces) + len(full.faces(c - 1)))
            self.faces += full.faces(c - 1)
        self.cob = {
            j: coboundary_matrix(full, j).mat for k, _ in self.targets for j in (k - 1, k)
        }
        blocks = []
        for k, _ in self.targets:
            down = np.abs(self.cob[k - 1])
            block = np.zeros((len(self.faces), down.shape[0]))
            block[self.cols[k + 2]] = (k + 2) * np.abs(self.cob[k])
            block[self.cols[k + 1]] = -(down @ down.T)
            blocks.append(block)
        self.weights = np.hstack(blocks)
        self.offsets = np.concatenate(
            [np.full(b.shape[1], 2 * (k + 1)) for b, (k, _) in zip(blocks, self.targets)]
        )
        self.k_faces = np.concatenate(
            [np.arange(len(self.faces))[self.cols[k + 1]] for k, _ in self.targets]
        )
        self.starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
        self._singular: dict[tuple[int, bytes], bool] = {}

    def min_rows(self, live: np.ndarray) -> np.ndarray:
        """(complexes, targets): the least degree row value over the k-faces
        of each complex, which is ``bounds.gershgorin_from_degrees``; inf
        where the complex has no k-face."""
        rows = live.astype(np.float64) @ self.weights + self.offsets
        rows[~live[:, self.k_faces]] = np.inf
        return np.minimum.reduceat(rows, self.starts, axis=1)

    def singular(self, live: np.ndarray, k: int, target: int) -> bool:
        """Whether L_k - target*I of the complex with live columns ``live`` is
        singular over the prime field; full rank mod p proves it
        nonsingular over Q.  The matrix depends only on the live k- and
        (k+1)-faces, so each such pair is decided once."""
        key = (k, live[self.cols[k + 1].start : self.cols[k + 2].stop].tobytes())
        if key not in self._singular:
            faces = live[self.cols[k + 1]]
            down = self.cob[k - 1][faces]
            up = self.cob[k][live[self.cols[k + 2]]][:, faces]
            shifted = down @ down.T + up.T @ up - target * np.eye(len(down), dtype=np.int64)
            self._singular[key] = spectral.rank_mod_p(shifted) < len(shifted)
        return self._singular[key]


class _D2Graph:
    """The complexes of one graph in the d=2 probe.

    The value T, 1 <= T < 2**len(tris), names the complex whose missing
    faces are the graph's non-edges and each triangle tris[i] with bit i of
    T set.  Its faces are the cliques of the graph that hold no missing
    triangle.
    """

    def __init__(self, tables: _D2Tables, edges: Sequence[tuple[int, int]]) -> None:
        self.eset = {tuple(sorted(e)) for e in edges}
        self.tris = [
            t for t in combinations(range(tables.n), 3)
            if all(p in self.eset for p in combinations(t, 2))
        ]
        self.clique = np.array(
            [all(p in self.eset for p in combinations(f, 2)) for f in tables.faces]
        )
        self.tri_bits = np.array(
            [sum(1 << i for i, t in enumerate(self.tris) if set(t) <= set(f)) for f in tables.faces],
            dtype=np.uint64,
        )

    def live(self, T: np.ndarray) -> np.ndarray:
        """(len(T), columns): which columns are faces of each complex."""
        return self.clique & ((T[:, None] & self.tri_bits) == 0)

    def missing_triangles(self, T: int) -> list[Simplex]:
        return [t for i, t in enumerate(self.tris) if (T >> i) & 1]


def _probe_fast_d2(
    n: int, budget: int | None, tol: float
) -> tuple[list[ProbeHit], int, bool]:
    """Exhaustive d=2 search over the missing-triangle sets of every graph.

    By the paper's bound, target <= degree row bound == Gershgorin <= mu_k.
    The screen computes the row bound exactly, D2_SCREEN_CHUNK triangle
    sets at a time.  A row bound above the target rules the pair out; one
    below it contradicts the bound and raises IntegrityError.  At equality
    L_k - target*I is diagonally dominant, hence PSD, so mu_k == target
    exactly when it is singular, and a full rank mod p rules the pair out.
    Every pair left is re-verified by ``_verify_hit`` from a freshly built
    complex, batch by batch, then by k, then by T.
    """
    tables = _D2Tables(n)
    all_pairs = list(combinations(range(n), 2))
    hits: list[ProbeHit] = []
    examined = 0
    complete = True

    for edges in graphs_up_to_isomorphism(n):
        graph = _D2Graph(tables, edges)
        if not graph.tris:
            continue
        found: list[tuple[int, int, int]] = []  # (T, k, target)
        t_val = 1
        top = 1 << len(graph.tris)
        while t_val < top:
            if budget is not None and examined >= budget:
                complete = False
                break
            count = min(D2_SCREEN_CHUNK, top - t_val)
            if budget is not None:
                count = min(count, budget - examined)
            T = np.arange(t_val, t_val + count, dtype=np.uint64)
            t_val += count
            examined += count

            live = graph.live(T)
            low = tables.min_rows(live)
            for j, (k, target) in enumerate(tables.targets):
                below = np.flatnonzero(low[:, j] < target)
                if below.size:
                    i = below[0]
                    raise IntegrityError(
                        f"degree row bound {low[i, j]:.0f} < target {target} at k={k} on the "
                        f"graph {list(edges)} with missing triangles "
                        f"{graph.missing_triangles(int(T[i]))}: the bound is violated"
                    )
                for i in np.flatnonzero(low[:, j] == target):
                    if tables.singular(live[i], k, target):
                        found.append((int(T[i]), k, target))

        nonedges = [p for p in all_pairs if p not in graph.eset]
        for T_int, k, target in found:
            X = from_missing_faces(n, nonedges + graph.missing_triangles(T_int))
            hit = _verify_hit(X, 2, k, target, tol)
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
    join form.  Exhaustive mode covers every isomorphism class of graph
    and every selection of missing faces above it; at d = 2 an exact
    integer screen (degree row bound, then a rank mod p) picks the pairs
    to verify.  Without a ``budget`` it refuses, before enumerating, when
    K_n alone offers more than 2**PROBE_SELECTION_BITS selections.  Random
    mode samples ``budget`` complexes deterministically from ``seed``.
    """
    if d < 2:
        raise InputError("probe needs d >= 2; the d=1 case is equality_case_check")
    if n < d + 1:
        raise InputError(f"no complex on n={n} vertices has a missing face of dimension {d}")
    _check_tol(tol)
    if budget is not None and budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    if mode == "exhaustive":
        bits = sum(math.comb(n, c) for c in range(3, d + 2))
        if budget is None and bits > PROBE_SELECTION_BITS:
            raise SizeLimitError(
                f"an exhaustive probe at d={d}, n={n} walks up to 2^{bits} missing-face "
                f"selections on K_{n} alone, over 2^{PROBE_SELECTION_BITS}; "
                "bound it with a budget (--budget)"
            )
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
