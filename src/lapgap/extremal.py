"""Tight families for the spectral gap bound, equality checks, and probes.

``build_z(d, t, r)`` (a constructor of :mod:`lapgap.complexes`, re-exported
here with ``ZParams``) constructs the join of t copies of the codimension-one
skeleton of a d-simplex with a full (r-1)-simplex; its gaps and minimal
degrees have closed forms that make the degree bound an equality at every
dimension.  ``equality_case_check`` tests the d = 1 uniqueness statement,
and ``probe_equality_cases`` searches for equality cases at d >= 2, exhaustively
or by sampling.  Every equality mu_k == target is decided in integers: a
degree or Gershgorin row bound, then ``spectral.balanced_kernel``.  The
exhaustive probe screens each distinct family of live k- and (k+1)-faces
once, since L_k depends on nothing else, and lists the complexes of a
family only when the screen keeps it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import hodge, spectral
from .bounds import BOUND_TOL, gershgorin_lower_bound
from .complexes import (
    MAX_FACES,
    Simplex,
    SimplicialComplex,
    ZParams,
    _skeleton_power_join,
    build_z,
    check_face_count,
    facets,
    from_missing_faces,
    min_degree,
)
from .errors import InputError, IntegrityError, SizeLimitError
from .spectral import join_spectrum, skeleton_spectrum, spectral_gap

ISO_VERTEX_CAP = 14
GRAPH_CODE_CHUNK = 1 << 19  # entries of one candidates-by-permutations code block
PROBE_SELECTION_BITS = 22  # without a budget, K_n may offer at most 2**22 selections
# families per screen batch; a range lists its hits in blocks of this many
# selections, by k within a block
D2_SCREEN_CHUNK = 2048
_T_BITS = 63  # top-layer cliques one selection range picks from; ``hi`` picks the rest
Z_FACE_CAP = 5000  # verify_z_family refuses a Z(d,t,r) with more faces


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
    mu_exact: bool  # mu_k(Z) == mu_predicted, decided by _at_target


@dataclass(frozen=True)
class ZVerifyReport:
    d: int
    t: int
    r: int
    rows: tuple[ZVerifyRow, ...]

    @property
    def ok(self) -> bool:
        return all(
            row.mu_exact
            and row.mu_join == row.mu_predicted
            and row.delta_actual == row.delta_predicted
            and row.bound_identity
            for row in self.rows
        )


def verify_z_family(d: int, t: int, r: int) -> ZVerifyReport:
    """Check the closed forms against Z's own Laplacians and join-composed spectra.

    Each row's mu_k == mu_predicted is decided exactly by ``_at_target``
    (row bound, then a balanced kernel), which raises IntegrityError when
    the eigensolved gap is more than BOUND_TOL off a target that holds.  The
    join route sums small integer floats exactly, so it is compared with
    ``==``.  Both routes are independent of the closed forms and of each
    other.  A Z with more than Z_FACE_CAP faces is refused, by its dimension
    alone when 2**(dim+1), a lower bound on the count, is past the cap.
    """
    params = ZParams(d, t, r)
    check_face_count(params.dim, lambda: params.total_faces, f"Z({d},{t},{r})", Z_FACE_CAP)
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
                mu_exact=_at_target(Z, k, pred.mu),
            )
        )
    return ZVerifyReport(d=d, t=t, r=r, rows=tuple(rows))


def canonical_equality_complex(n: int, k: int) -> SimplicialComplex:
    """The unique clique complex with gap 2(k+1) - n at dimension k.

    Join of n-k-1 two-point complexes with a full simplex on 2(k+1)-n
    vertices; either part may be empty, but not both.
    """
    if n < 1 or not k + 1 <= n <= 2 * (k + 1):
        raise InputError(f"no canonical complex for n={n}, k={k} (needs 2(k+1) >= n >= k+1)")
    return _canonical_for(n, k, 1)


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of testing the gap equality mu_k = 2(k+1) - n on a clique complex."""

    k: int
    holds: bool
    mu: float
    target: int
    witness: dict[int, int] | None


def _at_target(X: SimplicialComplex, k: int, target: int) -> bool:
    """Whether mu_k(X) == target, decided in integers on X's own L_k: mu_k
    >= row bound, and at equality L_k - target*I is weakly diagonally
    dominant, singular exactly when it has a balanced kernel.  A row bound
    below the target, or an eigensolved mu_k off a target that holds,
    raises IntegrityError."""
    L = hodge.laplacian(X, k).mat
    row = gershgorin_lower_bound(L)
    if row < target:
        raise IntegrityError(f"row bound {row} < target {target} at k={k}: the bound is violated")
    if row > target or not spectral.balanced_kernel(L - target * np.eye(len(L), dtype=np.int64)):
        return False
    mu = spectral_gap(X, k)
    if abs(mu - target) > BOUND_TOL:
        raise IntegrityError(
            f"eigensolved mu_{k} = {mu!r} is off the target {target} that the exact test holds"
        )
    return True


def equality_case_check(X: SimplicialComplex, k: int) -> EqualityVerdict:
    """Decide the equality exactly and, when it holds, certify the canonical form.

    On a clique complex mu_k >= row bound >= 2(k+1) - n, so ``_at_target``
    decides every k.  Raises IntegrityError if the equality holds but no
    isomorphism to the canonical complex exists; that would falsify the
    characterization.
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
    if not _at_target(X, k, target):
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
    """Vertex bijection carrying X's faces onto Y's faces, in X's vertex
    order, or None.

    Backtracking over support vertices, ordered most-constrained first and
    pruned by per-vertex face-count profiles.  The faces of X that the i-th
    vertex completes must map onto faces of Y, as many as the image vertex
    completes among the mapped ones; images and faces of Y are tested as
    vertex bitmasks, and ``img`` holds the vertices of Y mapped so far.
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

    faces_y = {_mask(g) for g in Y.all_faces()}
    faces_at_y = {v: [m for m in faces_y if (m >> v) & 1] for v in vy}
    candidates = {
        u: [v for v in vy if prof_y[v] == prof_x[u]] for u in vx
    }
    order = sorted(vx, key=lambda u: len(candidates[u]))
    # the faces of X that order[i] completes: inside order[:i+1], holding order[i]
    position = {u: i for i, u in enumerate(order)}
    completed: list[list[Simplex]] = [[] for _ in order]
    for f in X.all_faces():
        if f:
            completed[max(map(position.__getitem__, f))].append(f)

    image: dict[int, int] = {}  # u -> 1 << (its image)

    def consistent(i: int, v: int, img: int) -> bool:
        outside = ~img
        return len(completed[i]) == sum(1 for g in faces_at_y[v] if not g & outside) and all(
            sum(map(image.__getitem__, f)) in faces_y for f in completed[i])

    def extend(i: int, img: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for v in candidates[u]:
            if (img >> v) & 1:
                continue
            image[u] = 1 << v
            if consistent(i, v, img | 1 << v) and extend(i + 1, img | 1 << v):
                return True
            del image[u]
        return False

    if not extend(0, 0):
        return None
    return {u: image[u].bit_length() - 1 for u in sorted(image)}


def _mask(face: Iterable[int]) -> int:
    return sum(map((1).__lshift__, face))


# ---------------------------------------------------------------------------
# graph enumeration up to isomorphism (supports the equality searches)


@lru_cache(maxsize=None)
def graphs_up_to_isomorphism(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All graphs on n labeled vertices, one representative per isomorphism class.

    The classes of ``_graph_classes(n)``, in its order.
    """
    return tuple(_graph_classes(n))


def _graph_classes(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The graph classes on n vertices, lazily, one representative each.

    The graphs on n vertices are the classes on n-1 vertices, each extended
    by every neighbourhood of the new vertex n-1 in mask order; the first
    candidate of each class is kept.  A class is named by its canonical
    code, the least edge bitmask over all n! relabelings (McKay,
    "Isomorph-free exhaustive generation", 1998).  The codes come from
    float64 products of the candidates' edge bits with a (pairs x n!) table
    of powers of two, in blocks of GRAPH_CODE_CHUNK entries; they are exact
    because n <= 8 needs at most 28 bits.  A caller that stops early pays
    only for the blocks it reached.
    """
    if n < 1:
        raise InputError("need n >= 1")
    if n > 8:
        raise SizeLimitError("graph enumeration capped at 8 vertices")
    if n == 1:
        yield ()
        return
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

    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    table = np.ldexp(1.0, bit[perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]]).T
    step = max(1, GRAPH_CODE_CHUNK // len(perms))
    seen: set[float] = set()
    for start in range(0, len(parents) * len(masks), step):
        p, mask = np.divmod(np.arange(start, min(start + step, len(parents) * len(masks))), len(masks))
        codes = ((parent_bits[p] + new_bits[mask]) @ table).min(axis=1)
        for i, m, code in zip(p.tolist(), mask.tolist(), codes.tolist()):
            if code not in seen:
                seen.add(code)
                yield parents[i] + tuple((v, new) for v in range(new) if (m >> v) & 1)


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
    seed: int | None  # None in exhaustive mode
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


def _verify_hit(X: SimplicialComplex, d: int, k: int, target: int,
                canonical: dict[int, SimplicialComplex]) -> ProbeHit:
    """Decide a pair the screen kept again, on the freshly built complex's
    own L_k, an assembly independent of the screen's ``_incidence``; a
    disagreement raises IntegrityError.  ``canonical`` holds the canonical
    complexes of this probe built so far, by k."""
    if k > X.dim or not _at_target(X, k, target):
        raise IntegrityError(
            f"the screen holds mu_{k} = {target} on the complex with facets {facets(X)}, "
            "but its Laplacian does not"
        )
    if k not in canonical:
        canonical[k] = _canonical_for(X.num_vertices, k, d)
    iso = isomorphic(X, canonical[k]) is not None
    return ProbeHit(n=X.num_vertices, d=d, k=k, mu=spectral_gap(X, k), target=target,
                    isomorphic_to_canonical=iso, facets=facets(X))


def _cliques(n: int, edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """The graph's cliques of every cardinality 1..n as vertex bitmasks, in
    the order of ``itertools.combinations``: a (c+1)-clique is a c-clique
    grown by a larger vertex adjacent to all of it.  Past MAX_FACES cliques,
    the cap of ``clique_complex``, raises SizeLimitError.  The count is
    checked after each chunk of c-cliques is grown: a clique grows into
    fewer than n, so a chunk of (MAX_FACES - held) // n + 1 of them leaves
    at most MAX_FACES + n held.  Below n = 9 (at most 511 cliques) each
    cardinality is one chunk."""
    adj = [0] * n
    for u, w in edges:
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    out = {1: [1 << v for v in range(n)]}
    held = n
    for c in range(2, n + 1):
        parents, out[c] = out[c - 1], []
        start = 0
        while start < len(parents):
            stop = start + (MAX_FACES - held) // n + 1
            grown = [s | 1 << v for s in parents[start:stop]
                     for v in range(s.bit_length(), n) if adj[v] & s == s]
            out[c] += grown
            held += len(grown)
            start = stop
            if held > MAX_FACES:
                raise SizeLimitError(
                    f"the graph on {n} vertices has over {MAX_FACES} cliques, the size cap"
                )
    return out


def _vertices(mask: int) -> Simplex:
    return tuple(v for v in range(mask.bit_length()) if (mask >> v) & 1)


def _missing(nonedges: list[Simplex], masks: list[int]) -> list[Simplex]:
    """The missing faces ``nonedges`` and the vertex sets of the bitmasks
    ``masks``.  Built only for a complex the probe confirms or reports, so
    the screen handles bitmasks alone."""
    return nonedges + [_vertices(m) for m in masks]


def _incidence(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Signed incidence of the vertex-set bitmasks ``rows`` over ``cols``,
    one vertex smaller: (-1)**j where a column is its row without the row's
    j-th vertex, the signs of ``operators.coboundary_matrix``."""
    r, c = rows[:, None], cols[None, :]
    j = np.bitwise_count(r & ((r ^ c) - 1))
    return np.where((r & c) == c, np.where(j & 1, -1, 1), 0)


def _closed_component(slack: np.ndarray, ends: np.ndarray, links: np.ndarray) -> np.ndarray:
    """(graphs,): whether each graph of a stack, with rows of ``slack``
    (graphs, rows) joined where ``links`` (graphs, pairs) holds across the
    pair ``ends[:, e]``, has a component whose rows all have slack 0.  On
    the off-diagonal support of a symmetric, weakly diagonally dominant
    integer matrix, every vector of ``spectral.balanced_kernel`` lives on
    such a component (Taussky 1949; Zaslavsky, "Signed graphs", 1982), so a
    matrix without one is nonsingular.  The rows reached from a row with
    slack grow by one step of the links at a time until they stop."""
    i, j = ends
    to_i, to_j = np.eye(slack.shape[1], dtype=np.float32)[[i, j]]
    reached = slack > 0
    while True:
        step = ((reached[:, j] & links).astype(np.float32) @ to_i
                + (reached[:, i] & links).astype(np.float32) @ to_j)
        grown = reached | (step > 0)
        if np.array_equal(grown, reached):
            return ~reached.all(axis=1)
        reached = grown


class _Screen:
    """The exact integer screen of the probe over the complexes of a graph.

    By the paper's bound, target <= degree row bound == Gershgorin <= mu_k
    for every complex whose missing faces have dimension <= d.  Columns are
    the graph's cliques of the cardinalities the targets read: k+1 (the
    k-faces) and k+2, so the tables grow with the complexes, not with
    C(n, k+1), at any n a random probe takes; targets with no k-face on the
    graph are dropped.  A random draw has a screen of its own; the
    exhaustive probe builds one on K_n for all its graphs.  A complex is a
    0/1 row of live columns, its faces; as a Python int, bit c for column c,
    it is a family.  ``weights`` turns a row into
    the degree row values (k+2)*deg + 2(k+1) - facet sum of every k-face,
    target by target, in one product: deg counts the live (k+1)-faces
    above, and the facet sum counts, through |delta_{k-1}| |delta_{k-1}|^T,
    the live k-faces that share a facet.  A pair at its row bound is then
    decided by ``_closed_component`` and ``singular``.
    """

    def __init__(self, n: int, d: int, cliques: dict[int, list[int]]) -> None:
        self.targets = [(k, t) for k, t in _candidate_targets(n, d) if cliques[k + 1]]
        cards = sorted({c for k, _ in self.targets for c in (k + 1, k + 2)})
        faces: list[int] = []
        self.cols: dict[int, slice] = {}
        for c in cards:
            self.cols[c] = slice(len(faces), len(faces) + len(cliques[c]))
            faces += cliques[c]
        self.faces = np.array(faces, dtype=np.int64)
        self._covers: dict[int, int] = {}
        self._pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if not self.targets:
            return
        self.cob = {
            j: _incidence(np.array(cliques[j + 2], dtype=np.int64),
                          np.array(cliques[j + 1], dtype=np.int64))
            for k, _ in self.targets for j in (k - 1, k)
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

    def inside(self, sets: list[int]) -> np.ndarray:
        """(columns, sets): whether each column contains each vertex set."""
        m = np.array(sets, dtype=np.int64)
        return (self.faces[:, None] & m) == m

    def covers(self, sets: list[int]) -> int:
        """The columns containing any of the vertex sets, as a family."""
        out = 0
        for s in sets:
            if s not in self._covers:
                self._covers[s] = sum(1 << c for c, f in enumerate(self.faces.tolist())
                                      if f & s == s)
            out |= self._covers[s]
        return out

    def unpack(self, families: list[int]) -> np.ndarray:
        """(families, columns): the live columns of each family.  K_n on
        n <= 8 vertices has at most 37 columns, so a family fits a uint64."""
        bits = np.array(families, dtype=np.uint64)[:, None] >> np.arange(
            len(self.faces), dtype=np.uint64)
        return (bits & np.uint64(1)).astype(bool)

    def min_rows(self, live: np.ndarray) -> np.ndarray:
        """(complexes, targets): the least degree row value over the k-faces
        of each complex, which is ``bounds.gershgorin_from_degrees``; inf
        where the complex has no k-face."""
        rows = live.astype(np.float64) @ self.weights + self.offsets
        rows[~live[:, self.k_faces]] = np.inf
        return np.minimum.reduceat(rows, self.starts, axis=1)

    def closed(self, live: np.ndarray, j: int) -> np.ndarray:
        """(complexes,): ``_closed_component`` on L_k - target*I of each
        complex of ``live`` at target j, every k-face column a row: its
        slack is its degree row value minus the target (1 where the complex
        lacks the k-face), and two k-faces sharing a facet are linked when
        both are live and their union is not, as L_k's entry is then +-1."""
        k, target = self.targets[j]
        if k not in self._pairs:
            down = np.abs(self.cob[k - 1])
            ends = np.array(np.nonzero(np.triu(down @ down.T, 1)))
            rows = self.faces[self.cols[k + 1]]
            ups = {f: c for c, f in enumerate(self.faces[self.cols[k + 2]].tolist())}
            # a union that is no clique is never live: it reads the extra column
            union = [ups.get(f, len(ups)) for f in (rows[ends[0]] | rows[ends[1]]).tolist()]
            self._pairs[k] = ends, np.array(union, dtype=np.intp)
        ends, union = self._pairs[k]
        x = live[:, self.cols[k + 1]]
        y = np.hstack([live[:, self.cols[k + 2]], np.zeros((len(live), 1), dtype=bool)])
        block = slice(self.starts[j], self.starts[j] + x.shape[1])
        rows = live.astype(np.float64) @ self.weights[:, block] + self.offsets[block]
        links = x[:, ends[0]] & x[:, ends[1]] & ~y[:, union]
        return _closed_component(np.where(x, rows - target, 1), ends, links)

    def singular(self, live: np.ndarray, k: int, target: int) -> bool:
        """Whether L_k - target*I of the complex with live columns ``live``,
        weakly diagonally dominant at the screen's equality, is singular:
        whether it has a balanced kernel."""
        faces, up = live[self.cols[k + 1]], live[self.cols[k + 2]]
        down = self.cob[k - 1][faces]
        up = self.cob[k][up][:, faces]
        shifted = down @ down.T + up.T @ up - target * np.eye(len(down), dtype=np.int64)
        return bool(spectral.balanced_kernel(shifted))

    def equalities(self, live: np.ndarray, missing: Callable[[int], list[Simplex]]):
        """(row, k, target) for each complex of ``live`` and target left by
        the screen, by k, then by row.  A row bound above the target rules
        the pair out; one below it contradicts the bound and raises
        IntegrityError.  At equality L_k - target*I is weakly diagonally
        dominant, hence PSD, so mu_k == target exactly when it is singular,
        which needs a closed component of rows without slack."""
        if not self.targets:
            return []
        low = self.min_rows(live)
        out = []
        for j, (k, target) in enumerate(self.targets):
            below = np.flatnonzero(low[:, j] < target)
            if below.size:
                i = int(below[0])
                raise IntegrityError(
                    f"degree row bound {low[i, j]:.0f} < target {target} at k={k} on the "
                    f"complex with missing faces {missing(i)}: the bound is violated"
                )
            at = np.flatnonzero(low[:, j] == target)
            if at.size:
                at = at[self.closed(live[at], j)]
            out += [(i, k, target) for i in at.tolist() if self.singular(live[i], k, target)]
        return out


def _prefixes(cliques: dict[int, list[int]], d: int) -> Iterator[tuple[list[int], int]]:
    """The lower layers of the layered walk: missing faces of cardinalities
    3..d, each layer a subset of the cliques that hold no face chosen below
    it, in increasing mask order, layer 3 outermost.  Yields (chosen, alive),
    where ``alive`` is the bitmask of the (d+1)-cliques holding no chosen
    face; a subset that leaves none alive is cut, since every layer above it
    would be empty."""
    tops = cliques[d + 1]

    def layer(c: int, chosen: list[int], alive: int) -> Iterator[tuple[list[int], int]]:
        if c > d:
            yield chosen, alive
            return
        eligible = [s for s in cliques[c] if all(m & s != m for m in chosen)]
        kills = [sum(1 << j for j, q in enumerate(tops) if q & s == s) for s in eligible]

        def pick(i: int, alive: int, taken: list[int]) -> Iterator[tuple[list[int], int]]:
            # bits i-1..0 of the mask, highest first and 0 before 1
            if i == 0:
                yield from layer(c + 1, chosen + taken, alive)
                return
            yield from pick(i - 1, alive, taken)
            if alive & ~kills[i - 1]:
                yield from pick(i - 1, alive & ~kills[i - 1], [eligible[i - 1]] + taken)

        yield from pick(len(eligible), alive, [])

    yield from layer(3, [], (1 << len(tops)) - 1)


@dataclass
class _Range:
    """The complexes of one graph, one prefix and one ``hi``: a top layer T,
    start <= T < stop, whose bit j picks low[j].  ``base`` is the family
    left by the non-edges and the faces ``extra`` chosen below the top
    layer, and kills[j] the columns of ``base`` that hold low[j], so the
    complex T has the family base & ~(kills of T's bits)."""

    screen: _Screen
    nonedges: list[Simplex]
    extra: list[int]
    low: list[int]
    base: int
    kills: list[int]
    start: int
    stop: int

    def missing(self, T: int) -> list[Simplex]:
        picked = [q for j, q in enumerate(self.low) if (T >> j) & 1]
        return _missing(self.nonedges, self.extra + picked)

    def families(self) -> set[int]:
        """The distinct families of the range.  [0, stop) is cut into
        aligned blocks, one per bit of ``stop``, each T with its lowest m
        bits free: a block's families are those of the first m tops, built
        by doubling over the tops with deduplication, cut by the kills of
        the block's fixed bits.  The empty top layer T = 0 has the family
        ``base``, which a range from 1 keeps only if a single top kills
        nothing."""
        layers, out, fixed = [{self.base}], set(), 0
        for m in reversed(range(self.stop.bit_length())):
            if not (self.stop >> m) & 1:
                continue
            while len(layers) <= m:
                kill = self.kills[len(layers) - 1]
                layers.append(layers[-1] | {f & ~kill for f in layers[-1]})
            out |= {f & ~fixed for f in layers[m]} if fixed else layers[m]
            if m < len(self.kills):
                fixed |= self.kills[m]
        if self.start and not any(1 << j < self.stop and not kill
                                  for j, kill in enumerate(self.kills)):
            out.discard(self.base)
        return out

    def selections(self, family: int) -> Iterator[int]:
        """The T of the range whose complex has ``family``, ascending: a
        walk from the highest bit down, cut where the range is left or the
        tops still open can no longer kill what the family lacks."""
        dead = self.base & ~family
        fit = [kill & ~dead == 0 for kill in self.kills]
        below = [0]
        for kill, ok in zip(self.kills, fit):
            below.append(below[-1] | (kill if ok else 0))

        def walk(i: int, T: int, killed: int) -> Iterator[int]:
            if T >= self.stop or T + (1 << i) <= self.start or (killed | below[i]) != dead:
                return
            if i == 0:
                yield T
                return
            yield from walk(i - 1, T, killed)
            if fit[i - 1]:
                yield from walk(i - 1, T | 1 << (i - 1), killed | self.kills[i - 1])

        return walk(len(self.kills), 0, 0)


def _layered_walk(n: int, d: int, graphs: Iterable[Sequence[tuple[int, int]]]) -> Iterator[_Range]:
    """Every complex on n vertices with maximal missing-face dimension d, as
    ranges over one screen on K_n, built once the first graph is drawn.

    A complex is a graph class, faces of cardinalities 3..d from
    ``_prefixes`` and a nonempty top layer of (d+1)-cliques holding none of
    them.  A column is live when it holds no non-edge and no chosen face.
    Tops past the first _T_BITS are picked by ``hi`` outside the range, so
    each ``hi`` opens a range of its own.
    """
    screen = None
    for edges in graphs:
        cliques = _cliques(n, edges)
        if not cliques[d + 1]:
            continue
        if screen is None:
            screen = _Screen(n, d, _cliques(n, combinations(range(n), 2)))
        nonedges = sorted(set(combinations(range(n), 2)).difference(edges))
        graph = ((1 << len(screen.faces)) - 1) & ~screen.covers([_mask(e) for e in nonedges])
        for chosen, alive in _prefixes(cliques, d):
            tops = [q for j, q in enumerate(cliques[d + 1]) if (alive >> j) & 1]
            low, high = tops[:_T_BITS], tops[_T_BITS:]
            for hi in range(1 << len(high)):
                extra = chosen + [q for i, q in enumerate(high) if (hi >> i) & 1]
                base = graph & ~screen.covers(extra)
                kills = [screen.covers([q]) & base for q in low]
                yield _Range(screen, nonedges, extra, low, base, kills,
                             start=0 if hi else 1, stop=1 << len(low))


def _exhaustive(n: int, d: int, graphs: Iterable[Sequence[tuple[int, int]]],
                budget: int | None) -> tuple[list[ProbeHit], int, bool]:
    """Screen each distinct family of the walk once, in batches of at most
    D2_SCREEN_CHUNK families, then confirm with ``_verify_hit`` every
    complex of a family the screen kept, in the order range, block of
    D2_SCREEN_CHUNK selections, k, complex.  ``budget`` caps
    the complexes examined; the report is incomplete when a further one was
    left."""
    held: dict[int, list[tuple[int, int]]] = {}  # family -> the (k, target) it holds
    canonical: dict[int, SimplicialComplex] = {}
    hits: list[ProbeHit] = []
    examined = 0
    for r in _layered_walk(n, d, graphs):
        cut = False
        if budget is not None:
            if examined >= budget:
                return hits, examined, False
            cut = r.stop - r.start > budget - examined
            r.stop = min(r.stop, r.start + budget - examined)
        examined += r.stop - r.start
        families = r.families()
        new = [f for f in families if f not in held]
        held.update((f, []) for f in new)
        for s in range(0, len(new), D2_SCREEN_CHUNK):
            batch = new[s:s + D2_SCREEN_CHUNK]
            for i, k, target in r.screen.equalities(
                    r.screen.unpack(batch), lambda i: r.missing(next(r.selections(batch[i])))):
                held[batch[i]].append((k, target))
        found = sorted(((T - r.start) // D2_SCREEN_CHUNK, k, T, target)
                       for f in families if held[f] for T in r.selections(f)
                       for k, target in held[f])
        hits += [_verify_hit(from_missing_faces(n, r.missing(T)), d, k, target, canonical)
                 for _, k, T, target in found]
        if cut:
            return hits, examined, False
    return hits, examined, True


def _sampled(n: int, d: int, budget: int, seed: int) -> Iterator[tuple | None]:
    """``budget`` complexes drawn deterministically from ``seed``, each with
    a screen of its own: a graph, then missing faces of cardinalities
    3..d+1, layer by layer, from the cliques holding no face drawn below.
    A draw with no (d+1)-clique left for its top layer is None, counted and
    not screened."""
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    for _ in range(budget):
        p = rng.uniform(0.3, 0.95)
        edges = [e for e in pairs if rng.random() < p]
        cliques = _cliques(n, edges)
        chosen: list[int] = []
        for c in range(3, d + 2):
            eligible = [s for s in cliques[c] if all(m & s != m for m in chosen)]
            if c == d + 1:
                if not eligible:
                    yield None
                    break
                q = rng.uniform(0.1, 0.9)
                layer = [s for s in eligible if rng.random() < q]
                if not layer:
                    layer = [eligible[rng.randrange(len(eligible))]]
            else:
                q = rng.uniform(0.0, 0.5)
                layer = [s for s in eligible if rng.random() < q]
            chosen.extend(layer)
        else:
            screen = _Screen(n, d, cliques)
            yield screen, ~screen.inside(chosen).any(axis=1)[None, :], partial(
                _missing, sorted(set(pairs).difference(edges)), chosen)


def _probe(n: int, d: int, draws: Iterator[tuple | None]) -> tuple[list[ProbeHit], int]:
    """Screen each draw and confirm every pair left with ``_verify_hit`` on
    a freshly built complex, draw by draw, then by k."""
    hits: list[ProbeHit] = []
    canonical: dict[int, SimplicialComplex] = {}
    examined = 0
    for draw in draws:
        examined += 1
        if draw is None:
            continue
        screen, live, missing = draw
        for _, k, target in screen.equalities(live, lambda i: missing()):
            hits.append(_verify_hit(from_missing_faces(n, missing()), d, k, target, canonical))
    return hits, examined


def probe_equality_cases(
    d: int,
    n: int,
    mode: str = "exhaustive",
    budget: int | None = None,
    seed: int | None = None,
) -> ProbeReport:
    """Search complexes with maximal missing-face dimension d for gap equalities.

    Every complex X on n vertices with h(X) = d is tested at each dimension
    where the target (d+1)(k+1) - d*n is attainable.  In both modes one
    exact integer screen (degree row bound, then a balanced kernel) decides
    each pair; every equality is decided again, exactly, on a freshly built
    complex and checked for isomorphism with the canonical join form.
    Exhaustive mode covers every isomorphism class of graph and every
    selection of missing faces above it, screening each distinct family of
    live k- and (k+1)-faces once, since L_k depends on nothing else; without
    a ``budget`` it refuses, before enumerating, when K_n alone offers more
    than 2**PROBE_SELECTION_BITS selections.  Random mode samples ``budget``
    complexes deterministically from ``seed`` (0 when None); a seed in
    exhaustive mode, which would ignore it, is refused.
    """
    if seed is not None and mode != "random":
        raise InputError("--seed applies to --mode random only")
    if d < 2:
        raise InputError("probe needs d >= 2; the d=1 case is equality_case_check")
    if n < d + 1:
        raise InputError(f"no complex on n={n} vertices has a missing face of dimension {d}")
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
        hits, examined, complete = _exhaustive(n, d, _graph_classes(n), budget)
    elif mode == "random":
        seed = 0 if seed is None else seed
        hits, examined = _probe(n, d, _sampled(n, d, budget if budget is not None else 1000, seed))
        complete = True
    else:
        raise InputError(f"unknown probe mode {mode!r}")
    return ProbeReport(d=d, n=n, mode=mode, budget=budget, seed=seed, examined=examined,
                       complete=complete, hits=tuple(hits))
