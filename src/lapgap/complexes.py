"""Finite simplicial complexes on labeled vertices and their set-level queries.

Faces are canonical tuples of strictly increasing vertex ids.  The empty
face ``()`` has dimension -1 and belongs to every complex.  Complexes are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, InputError, SizeLimitError

Simplex = tuple[int, ...]

MAX_FACES = 100_000  # the constructors refuse a complex predicted to have more


def check_face_count(dim: int, count: Callable[[], int], what: str) -> None:
    """Refuse a complex of dimension dim with count() faces past MAX_FACES before it
    is built; count() is not called once 2**(dim+1), a lower bound, is past it."""
    if dim >= MAX_FACES.bit_length() or count() > MAX_FACES:
        raise SizeLimitError(f"{what} would have over {MAX_FACES} faces, the constructor cap")


def simplex(vertices: Iterable[int]) -> Simplex:
    """Canonical face (sorted tuple) from a collection of distinct vertex ids."""
    vs = sorted(int(v) for v in vertices)
    if vs and vs[0] < 0:
        raise InputError(f"negative vertex id in {vs}")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise InputError(f"duplicate vertex id {a} in face {vs}")
    return tuple(vs)


class SimplicialComplex:
    """Immutable downward-closed family of faces with vertex ids in {0..n-1}.

    ``n`` is the ambient id range.  Complexes built by the public
    constructors contain every singleton ``{v}``; subcomplexes produced by
    :func:`link` and :func:`induced` may omit some of them while keeping the
    ambient ids of the parent complex.

    ``_hodge`` holds the complex's Hodge context, one dict created on first
    use and freed with the complex.  Each memoized
    function of :mod:`lapgap.hodge` (missing faces, facet tables, degree
    vectors, Laplacians, spectra, ranks) keeps its value there under
    ``(name, *k)``, computed once.  Two threads that fill the same entry at
    once both compute it and one result wins; the results are equal, so the
    race is benign.  The context takes no part in equality or hashing.
    """

    __slots__ = ("n", "_by_dim", "_faces", "_dim", "_hodge")

    def __init__(self, n: int, faces: Iterable[Sequence[int]]):
        if n < 1:
            raise InputError(f"vertex count must be >= 1, got {n}")
        face_set = {simplex(f) for f in faces}
        face_set.add(())
        by_dim: dict[int, list[Simplex]] = {}
        for f in face_set:
            if f and f[-1] >= n:
                raise InputError(f"face {f} references vertex >= n={n}")
            by_dim.setdefault(len(f) - 1, []).append(f)
        # downward closure: checking codimension-1 subsets suffices by induction
        for f in face_set:
            for i in range(len(f)):
                if f[:i] + f[i + 1 :] not in face_set:
                    raise InputError(
                        f"not downward closed: {f} present, {f[:i] + f[i + 1:]} missing"
                    )
        self.n = n
        self._faces = frozenset(face_set)
        self._dim = max(by_dim)
        self._by_dim = {k: tuple(sorted(v)) for k, v in by_dim.items()}
        self._hodge = None

    @property
    def dim(self) -> int:
        return self._dim

    def faces(self, k: int) -> tuple[Simplex, ...]:
        """All k-dimensional faces in lexicographic order; empty outside [-1, dim]."""
        return self._by_dim.get(k, ())

    def __contains__(self, face: Sequence[int]) -> bool:
        return tuple(face) in self._faces

    def all_faces(self) -> Iterator[Simplex]:
        for k in range(-1, self._dim + 1):
            yield from self._by_dim.get(k, ())

    def vertices(self) -> tuple[int, ...]:
        """Ids that actually occur as 0-faces."""
        return tuple(f[0] for f in self.faces(0))

    @property
    def num_vertices(self) -> int:
        return len(self.faces(0))

    @property
    def num_faces(self) -> int:
        return len(self._faces)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts for k = -1 .. dim."""
        return tuple(len(self.faces(k)) for k in range(-1, self._dim + 1))

    def has_full_vertex_set(self) -> bool:
        return self.num_vertices == self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.n == other.n and self._faces == other._faces

    def __hash__(self) -> int:
        return hash((self.n, self._faces))

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, dim={self._dim}, faces={len(self._faces)})"


def from_facets(n: int, facets: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Downward closure of the given facets plus all singletons and the empty face."""
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    what = f"a complex on {n} vertices"
    check_face_count(0, lambda: n + 1, what)
    closure: set[Simplex] = {()}
    closure.update((v,) for v in range(n))
    for facet in facets:
        s = simplex(facet)
        if s and s[-1] >= n:
            raise InputError(f"facet {s} references vertex >= n={n}")
        check_face_count(len(s) - 1, lambda: 2 ** len(s), f"a facet on {len(s)} vertices")
        for r in range(len(s) + 1):
            closure.update(combinations(s, r))
        check_face_count(0, lambda: len(closure), what)
    return SimplicialComplex(n, closure)


def clique_complex(n: int, edges: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Complex whose faces are the cliques of the graph (n, edges)."""
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    what = f"a complex on {n} vertices"
    check_face_count(0, lambda: n + 1, what)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for e in edges:
        u, w = (int(x) for x in e)
        if u == w:
            raise InputError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= w < n):
            raise InputError(f"edge ({u},{w}) references vertex >= n={n}")
        adj[u].add(w)
        adj[w].add(u)
    faces: set[Simplex] = {()}
    level: list[Simplex] = [(v,) for v in range(n)]
    while level:
        faces.update(level)
        nxt = []
        for c in level:
            check_face_count(0, lambda: len(faces) + len(nxt), what)
            common = set(range(c[-1] + 1, n))
            for v in c:
                common &= adj[v]
            for v in sorted(common):
                nxt.append(c + (v,))
        level = nxt
    return SimplicialComplex(n, faces)


def skeleton(m: int, k: int) -> SimplicialComplex:
    """k-dimensional skeleton of the full simplex on m+1 vertices, k >= 0."""
    if not 0 <= k <= m:
        raise InputError(f"skeleton dimension k={k} must satisfy 0 <= k <= m={m}")
    check_face_count(k, lambda: sum(comb(m + 1, i) for i in range(k + 2)), f"skeleton({m},{k})")
    faces = [
        c for size in range(k + 2) for c in combinations(range(m + 1), size)
    ]
    return SimplicialComplex(m + 1, faces)


def full_simplex(m: int) -> SimplicialComplex:
    """The complete complex on m+1 vertices."""
    return skeleton(m, m)


def join(X: SimplicialComplex, Y: SimplicialComplex) -> SimplicialComplex:
    """Join of X and Y; Y's vertex ids are shifted by X.n to stay disjoint."""
    check_face_count(X.dim + Y.dim + 1, lambda: X.num_faces * Y.num_faces, f"join of {X} and {Y}")
    shift = X.n
    faces = []
    y_faces = [tuple(v + shift for v in t) for t in Y.all_faces()]
    for s in X.all_faces():
        for t in y_faces:
            faces.append(s + t)
    return SimplicialComplex(X.n + Y.n, faces)


def link(X: SimplicialComplex, sigma: Sequence[int]) -> SimplicialComplex:
    """Link of sigma in X, on the same ambient id range."""
    s = simplex(sigma)
    if s not in X:
        raise InputError(f"{s} is not a face of the complex")
    sset = set(s)
    faces = []
    for t in X.all_faces():
        if sset.intersection(t):
            continue
        if tuple(sorted(s + t)) in X:
            faces.append(t)
    return SimplicialComplex(X.n, faces)


def induced(X: SimplicialComplex, U: Iterable[int]) -> SimplicialComplex:
    """Subcomplex of all faces contained in U, on the same ambient id range."""
    uset = {int(v) for v in U}
    for v in uset:
        if not 0 <= v < X.n:
            raise InputError(f"vertex {v} outside ambient range 0..{X.n - 1}")
    faces = [t for t in X.all_faces() if uset.issuperset(t)]
    return SimplicialComplex(X.n, faces)


def degree(X: SimplicialComplex, sigma: Sequence[int]) -> int:
    """Number of cofaces of sigma of one dimension higher.

    Probes every vertex; the reference route that the degree vectors of
    :mod:`lapgap.hodge` are checked against.
    """
    s = simplex(sigma)
    if s not in X:
        raise InputError(f"{s} is not a face of the complex")
    sset = set(s)
    count = 0
    for v in X.vertices():
        if v in sset:
            continue
        if tuple(sorted(s + (v,))) in X:
            count += 1
    return count


def min_degree(X: SimplicialComplex, k: int) -> int:
    """Minimum degree over the k-faces; for k = -1 this is the vertex count."""
    from .hodge import degrees  # hodge builds on this module

    if not X.faces(k):
        raise DomainError(f"no faces of dimension {k}")
    return int(degrees(X, k).min())


@dataclass(frozen=True)
class MissingFaceReport:
    """Minimal non-faces of a complex and their maximal dimension.

    ``h`` is None exactly when the complex is complete (no missing face).
    """

    missing: tuple[Simplex, ...]
    h: int | None

    @property
    def is_complete(self) -> bool:
        return self.h is None


def missing_faces(X: SimplicialComplex) -> MissingFaceReport:
    """All minimal non-faces among subsets of {0..n-1}, ordered by (size, lex).

    Every proper subset of a minimal non-face sigma is a face, so sigma is
    tau + (v,) for the face tau = sigma without its largest vertex v.  The
    search therefore extends each face tau by each larger id v and keeps the
    candidate when it is not a face but its other facets are: the work grows
    with the number of faces times n, not with 2^n.  The search stops with
    :class:`SizeLimitError` once it has found more than MAX_FACES.  Ids of
    the ambient range that are not vertices (as in subcomplexes from
    :func:`link` and :func:`induced`) come out as missing singletons.
    """
    faces = X._faces
    out: list[Simplex] = []
    for tau in X.all_faces():
        for v in range(tau[-1] + 1 if tau else 0, X.n):
            c = tau + (v,)
            if c not in faces and all(c[:i] + c[i + 1 :] in faces for i in range(len(tau))):
                out.append(c)
                if len(out) > MAX_FACES:
                    raise SizeLimitError(f"over {MAX_FACES} minimal non-faces, the search cap")
    out.sort(key=lambda f: (len(f), f))
    h = max((len(f) - 1 for f in out), default=None)
    return MissingFaceReport(tuple(out), h)


def from_missing_faces(n: int, missing: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Complex of all subsets of {0..n-1} that contain no given missing face.

    Inverse of :func:`missing_faces` when ``missing`` is an antichain; any
    other family (duplicates, a face and its superset) gives the complex of
    the subsets that avoid all of it, and an entry ``()`` leaves only the
    empty face.  The faces are grown upward from ``()``: a face c takes a
    vertex v > max(c) unless a given face with largest vertex v lies inside
    c + (v,), since any given face inside it that misses v would lie in c.
    The work grows with the size of the result, not with 2^n.
    """
    mins = [simplex(f) for f in missing]
    for f in mins:
        if f and f[-1] >= n:
            raise InputError(f"missing face {f} references vertex >= n={n}")
    if () in mins:
        return SimplicialComplex(n, ())
    what = f"a complex on {n} vertices"
    check_face_count(0, lambda: n + 1, what)
    # bitmasks of the given faces, by their largest vertex
    by_top: list[list[int]] = [[] for _ in range(n)]
    for f in mins:
        by_top[f[-1]].append(sum(1 << v for v in f))
    faces: list[Simplex] = [()]
    level: list[tuple[Simplex, int]] = [((), 0)]
    while level:
        nxt = []
        for c, mask in level:
            check_face_count(0, lambda: len(faces) + len(nxt), what)
            for v in range(c[-1] + 1 if c else 0, n):
                grown = mask | 1 << v
                if all(m & ~grown for m in by_top[v]):
                    nxt.append((c + (v,), grown))
        faces.extend(c for c, _ in nxt)
        level = nxt
    return SimplicialComplex(n, faces)


def facets(X: SimplicialComplex) -> tuple[Simplex, ...]:
    """Maximal faces, ordered by (dimension, lexicographic)."""
    from .hodge import degrees  # hodge builds on this module

    out = tuple(
        f for k in range(X.dim + 1) for f, deg in zip(X.faces(k), degrees(X, k)) if deg == 0
    )
    return out or ((),)


def relabel(X: SimplicialComplex, perm: Sequence[int]) -> SimplicialComplex:
    """Apply a permutation of {0..n-1} to all vertex ids."""
    if sorted(perm) != list(range(X.n)):
        raise InputError("relabeling must be a permutation of 0..n-1")
    faces = [tuple(sorted(perm[v] for v in f)) for f in X.all_faces()]
    return SimplicialComplex(X.n, faces)


def compactify(X: SimplicialComplex) -> tuple[SimplicialComplex, dict[int, int]]:
    """Relabel the support vertices onto {0..m-1}, dropping unused ambient ids.

    Returns the compacted complex and the old-id -> new-id mapping.
    """
    support = X.vertices()
    if not support:
        raise DomainError("complex has no vertices")
    mapping = {v: i for i, v in enumerate(support)}
    faces = [tuple(mapping[v] for v in f) for f in X.all_faces()]
    return SimplicialComplex(len(support), faces), mapping


# ---------------------------------------------------------------------------
# facet file format: UTF-8 text, '#' comments, blank lines ignored,
# first data line 'n <count>', each further data line one facet as
# space-separated vertex ids.

def parse_facet_text(text: str) -> tuple[int, list[Simplex]]:
    n = None
    out: list[Simplex] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise InputError(f"line {lineno}: expected header 'n <count>', got {raw!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n < 1:
                raise InputError(f"line {lineno}: vertex count must be >= 1")
            continue
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        out.append(simplex(ids))
    if n is None:
        raise InputError("missing 'n <count>' header line")
    return n, out


def load_facet_file(path: str) -> SimplicialComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read facet file {path}: {exc}") from exc
    n, fs = parse_facet_text(text)
    return from_facets(n, fs)


def load_edge_file(path: str) -> SimplicialComplex:
    """Clique complex of a graph given in facet-file syntax with 2-id lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read edge file {path}: {exc}") from exc
    n, lines = parse_facet_text(text)
    for e in lines:
        if len(e) != 2:
            raise InputError(f"edge file line {e} does not have exactly 2 vertex ids")
    return clique_complex(n, lines)


def format_facets(X: SimplicialComplex) -> str:
    """Facet-file representation of a complex (round-trips through load)."""
    lines = [f"n {X.n}"]
    for f in facets(X):
        if f:
            lines.append(" ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"
