"""Tight families for the spectral gap bound, equality checks, and probes.

``build_z(d, t, r)`` constructs the join of t copies of the codimension-one
skeleton of a d-simplex with a full (r-1)-simplex; its gaps and minimal
degrees have closed forms that make the degree bound an equality at every
dimension.  ``equality_case_check`` tests the d = 1 uniqueness statement,
and ``probe_equality_cases`` searches for equality cases at d >= 2, exhaustively
or by sampling.  Every equality mu_k == target is decided in integers: a
degree or Gershgorin row bound, then ``spectral.balanced_kernel``.
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
    check_face_count,
    facets,
    from_missing_faces,
    full_simplex,
    join,
    min_degree,
    skeleton,
)
from .errors import InputError, IntegrityError, SizeLimitError
from .spectral import join_spectrum, skeleton_spectrum, spectral_gap

ISO_VERTEX_CAP = 14
GRAPH_CODE_CHUNK = 1 << 19  # entries of one candidates-by-permutations code block
PROBE_SELECTION_BITS = 22  # without a budget, K_n may offer at most 2**22 selections
D2_SCREEN_CHUNK = 2048  # complexes per screen batch; hits come batch by batch, then by k
_T_BITS = 63  # top-layer cliques a uint64 batch value T picks from
Z_FACE_CAP = 5000  # verify_z_family refuses a Z(d,t,r) with more faces


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
    check_face_count(params.dim, lambda: params.total_faces, f"Z({d},{t},{r})")
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


def _verify_hit(X: SimplicialComplex, d: int, k: int, target: int) -> ProbeHit:
    """Decide a pair the screen kept again, on the freshly built complex's
    own L_k, an assembly independent of the screen's ``_incidence``; a
    disagreement raises IntegrityError."""
    if k > X.dim or not _at_target(X, k, target):
        raise IntegrityError(
            f"the screen holds mu_{k} = {target} on the complex with facets {facets(X)}, "
            "but its Laplacian does not"
        )
    iso = isomorphic(X, _canonical_for(X.num_vertices, k, d)) is not None
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


def _selection(fixed: list[Simplex], low: list[int], T: np.ndarray, i: int) -> list[Simplex]:
    """The missing faces of complex i of a batch: ``fixed``, and the sets in
    ``low`` that the bits of T[i] pick."""
    return fixed + [_vertices(q) for j, q in enumerate(low) if (int(T[i]) >> j) & 1]


def _incidence(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Signed incidence of the vertex-set bitmasks ``rows`` over ``cols``,
    one vertex smaller: (-1)**j where a column is its row without the row's
    j-th vertex, the signs of ``operators.coboundary_matrix``."""
    r, c = rows[:, None], cols[None, :]
    j = np.bitwise_count(r & ((r ^ c) - 1))
    return np.where((r & c) == c, np.where(j & 1, -1, 1), 0)


class _Screen:
    """The exact integer screen of the probe over the complexes of one graph.

    By the paper's bound, target <= degree row bound == Gershgorin <= mu_k
    for every complex whose missing faces have dimension <= d.  Columns are
    the graph's cliques of the cardinalities the targets read: k+1 (the
    k-faces) and k+2, so the tables grow with the complexes, not with
    C(n, k+1), at any n a random probe takes; targets with no k-face on the
    graph are dropped.  A complex is a 0/1 row of live columns, its faces.
    ``weights`` turns a row into the degree row values (k+2)*deg + 2(k+1) -
    facet sum of every k-face, target by target, in one product: deg counts
    the live (k+1)-faces above, and the facet sum counts, through
    |delta_{k-1}| |delta_{k-1}|^T, the live k-faces that share a facet.
    A pair at its row bound is then decided by ``singular``.
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

    def min_rows(self, live: np.ndarray) -> np.ndarray:
        """(complexes, targets): the least degree row value over the k-faces
        of each complex, which is ``bounds.gershgorin_from_degrees``; inf
        where the complex has no k-face."""
        rows = live.astype(np.float64) @ self.weights + self.offsets
        rows[~live[:, self.k_faces]] = np.inf
        return np.minimum.reduceat(rows, self.starts, axis=1)

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
        dominant, hence PSD, so mu_k == target exactly when it is singular."""
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
            out += [
                (i, k, target) for i in np.flatnonzero(low[:, j] == target).tolist()
                if self.singular(live[i], k, target)
            ]
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


def _layered_walk(n: int, d: int, graphs: Iterable[Sequence[tuple[int, int]]]) -> Iterator[tuple]:
    """Every complex on n vertices with maximal missing-face dimension d, in
    batches of at most D2_SCREEN_CHUNK.

    A complex is a graph class, faces of cardinalities 3..d from
    ``_prefixes`` and a nonempty top layer of (d+1)-cliques holding none of
    them.  The top layer is the value T, 1 <= T < 2**len(tops), whose bit i
    picks tops[i]; a column is live when it holds no chosen face, a test on
    bitmasks.  Tops past the first _T_BITS are picked by the Python int
    ``hi`` outside the batches, so T fits in uint64.
    """
    for edges in graphs:
        cliques = _cliques(n, edges)
        if not cliques[d + 1]:
            continue
        screen = _Screen(n, d, cliques)
        nonedges = sorted(set(combinations(range(n), 2)).difference(edges))
        for chosen, alive in _prefixes(cliques, d):
            tops = [q for j, q in enumerate(cliques[d + 1]) if (alive >> j) & 1]
            low, high = tops[:_T_BITS], tops[_T_BITS:]
            bits = (screen.inside(low) << np.arange(len(low), dtype=np.uint64)).sum(1, np.uint64)
            for hi in range(1 << len(high)):
                extra = chosen + [q for i, q in enumerate(high) if (hi >> i) & 1]
                base = ~screen.inside(extra).any(axis=1)
                fixed = nonedges + [_vertices(m) for m in extra]
                t, top = (0 if hi else 1), 1 << len(low)
                while t < top:
                    count = min(D2_SCREEN_CHUNK, top - t)
                    T = np.arange(count, dtype=np.uint64) + np.uint64(t)
                    live = base & ((T[:, None] & bits) == 0)
                    yield count, screen, live, partial(_selection, fixed, low, T)
                    t += count


def _sampled(n: int, d: int, budget: int, seed: int) -> Iterator[tuple]:
    """``budget`` complexes drawn deterministically from ``seed``, one batch
    each: a graph, then missing faces of cardinalities 3..d+1, layer by
    layer, from the cliques holding no face drawn below.  A draw with no
    (d+1)-clique left for its top layer is counted and not screened."""
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
                    yield 1, None, None, None
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
            faces = sorted(set(pairs).difference(edges)) + [_vertices(m) for m in chosen]
            yield 1, screen, ~screen.inside(chosen).any(axis=1)[None, :], partial(
                _selection, faces, [], [0])


def _probe(
    n: int, d: int, batches: Iterator[tuple], budget: int | None
) -> tuple[list[ProbeHit], int, bool]:
    """Screen each batch and confirm every pair left with ``_verify_hit`` on
    a freshly built complex, batch by batch, then by k, then by complex.
    ``budget`` caps the complexes examined; the report is incomplete when a
    further one was left."""
    hits: list[ProbeHit] = []
    examined = 0
    for count, screen, live, missing in batches:
        if budget is not None:
            if examined >= budget:
                return hits, examined, False
            count = min(count, budget - examined)
        examined += count
        if screen is None:
            continue
        for i, k, target in screen.equalities(live[:count], missing):
            hits.append(_verify_hit(from_missing_faces(n, missing(i)), d, k, target))
    return hits, examined, True


def probe_equality_cases(
    d: int,
    n: int,
    mode: str = "exhaustive",
    budget: int | None = None,
    seed: int = 0,
) -> ProbeReport:
    """Search complexes with maximal missing-face dimension d for gap equalities.

    Every complex X on n vertices with h(X) = d is tested at each dimension
    where the target (d+1)(k+1) - d*n is attainable.  In both modes one
    exact integer screen (degree row bound, then a balanced kernel) decides
    each pair; every equality is decided again, exactly, on a freshly built
    complex and checked for isomorphism with the canonical join form.
    Exhaustive mode covers every isomorphism class of graph and every
    selection of missing faces above it; without a ``budget`` it refuses,
    before enumerating, when K_n alone offers more than
    2**PROBE_SELECTION_BITS selections.  Random mode samples ``budget``
    complexes deterministically from ``seed``.
    """
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
        batches, cap = _layered_walk(n, d, _graph_classes(n)), budget
    elif mode == "random":
        batches, cap = _sampled(n, d, budget if budget is not None else 1000, seed), None
    else:
        raise InputError(f"unknown probe mode {mode!r}")
    hits, examined, complete = _probe(n, d, batches, cap)
    return ProbeReport(d=d, n=n, mode=mode, budget=budget, seed=seed, examined=examined,
                       complete=complete, hits=tuple(hits))
