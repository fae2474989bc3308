"""Finite simplicial complexes on labeled vertices and their set-level queries.

Faces are canonical tuples of strictly increasing vertex ids.  The empty
face ``()`` has dimension -1 and belongs to every complex.  Complexes are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, InputError, SizeLimitError

Simplex = tuple[int, ...]

MAX_FACES = 100_000  # the constructors refuse a complex predicted to have more
# a facet or edge file is read up to this many bytes: room for MAX_FACES lines
# of the longest facet a complex within the cap can have, 16 ids (2**17 faces
# are past the cap) of at most 5 digits (ids are below n < MAX_FACES), each
# with its separator, under 100 bytes
MAX_FILE_BYTES = 100 * MAX_FACES


def check_face_count(
    dim: int, count: Callable[[], int], what: str, cap: int | None = None
) -> None:
    """Refuse a complex of dimension dim with count() faces past cap (MAX_FACES by
    default) before it is built; count() is not called once 2**(dim+1) is past it."""
    cap = MAX_FACES if cap is None else cap
    if dim >= cap.bit_length() or count() > cap:
        raise SizeLimitError(f"{what} would have over {cap} faces, the size cap")


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")


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

    ``SimplicialComplex(n, faces)`` puts every face through :func:`simplex`;
    the constructors of this module hand over faces they built canonical,
    grouped by dimension, and skip that step.  Either way the ids are checked
    against ``n`` and the family is checked downward closed, dimension by
    dimension: the position in ``faces(k-1)`` of each facet of each k-face is
    looked up, and a facet that is missing raises :class:`InputError`.  The
    positions found are the facet tables, kept in ``_tables`` (read-only
    intp arrays, ``_tables[k + 1]`` of shape ``(|X(k)|, k+1)`` for
    -1 <= k <= dim + 1), which :func:`lapgap.hodge.facet_index` returns.

    ``_hodge`` holds the complex's Hodge context, one dict created on first
    use and freed with the complex.  Each memoized
    function of :mod:`lapgap.hodge` (missing faces, degree vectors,
    Laplacians, spectra, rank pivots) keeps its value there under
    ``(name, *k)``, computed once.  Two threads that fill the same entry at
    once both compute it and one result wins; the results are equal, so the
    race is benign.  Neither takes part in equality or hashing.
    """

    __slots__ = ("n", "_by_dim", "_faces", "_dim", "_tables", "_hodge")

    def __init__(self, n: int, faces: Iterable[Sequence[int]]):
        _check_vertex_count(n)
        by_dim: dict[int, list[Simplex]] = {}
        for f in {simplex(f) for f in faces}:
            by_dim.setdefault(len(f) - 1, []).append(f)
        self._fill(n, by_dim)

    @classmethod
    def _canonical(cls, n: int, by_dim: dict[int, list[Simplex]]) -> SimplicialComplex:
        """The complex of faces already canonical and distinct, by dimension
        (the empty face may be left out); ids and closure are still checked."""
        _check_vertex_count(n)
        X = cls.__new__(cls)
        X._fill(n, by_dim)
        return X

    def _fill(self, n: int, by_dim: dict[int, list[Simplex]]) -> None:
        by_dim[-1] = [()]
        dim = max(k for k, fs in by_dim.items() if fs)
        faces = {k: tuple(sorted(by_dim.get(k, ()))) for k in range(-1, dim + 1)}
        for k in range(dim + 1):
            top = max(map(itemgetter(-1), faces[k]), default=-1)
            if top >= n:
                f = next(f for f in faces[k] if f[-1] == top)
                raise InputError(f"face {f} references vertex >= n={n}")
            if faces[k] and faces[k][0][0] < 0:
                raise InputError(f"negative vertex id in {list(faces[k][0])}")
        # downward closure, one dimension at a time: by induction it suffices
        # that every facet of a k-face is a (k-1)-face, and the position of
        # that facet is the entry of the facet table; combinations(f, k)
        # drops the last vertex first, so the columns come out reversed
        tables = [np.zeros((1, 0), dtype=np.intp)]
        for k in range(dim + 1):
            below = faces[k - 1]
            position = dict(zip(below, range(len(below))))
            try:
                flat = list(map(position.__getitem__,
                                chain.from_iterable(map(combinations, faces[k], repeat(k)))))
            except KeyError:
                f, j = next((f, j) for f in faces[k] for j in range(k + 1)
                            if f[:j] + f[j + 1 :] not in position)
                raise InputError(
                    f"not downward closed: {f} present, {f[:j] + f[j + 1:]} missing"
                ) from None
            table = np.array(flat, dtype=np.intp).reshape(len(faces[k]), k + 1)
            tables.append(table[:, ::-1])
        tables.append(np.zeros((0, dim + 2), dtype=np.intp))
        for t in tables:
            t.flags.writeable = False
        self.n = n
        self._dim = dim
        self._by_dim = faces
        self._faces = frozenset(chain.from_iterable(faces.values()))
        self._tables = tuple(tables)
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
    _check_vertex_count(n)
    what = f"a complex on {n} vertices"
    check_face_count(0, lambda: n + 1, what)
    closure: dict[int, set[Simplex]] = {0: {(v,) for v in range(n)}}  # by dimension
    for facet in facets:
        s = simplex(facet)
        if s and s[-1] >= n:
            raise InputError(f"facet {s} references vertex >= n={n}")
        check_face_count(len(s) - 1, lambda: 2 ** len(s), f"a facet on {len(s)} vertices")
        for r in range(2, len(s) + 1):
            closure.setdefault(r - 1, set()).update(combinations(s, r))
        check_face_count(0, lambda: 1 + sum(map(len, closure.values())), what)
    return SimplicialComplex._canonical(n, {k: list(fs) for k, fs in closure.items()})


def clique_complex(n: int, edges: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Complex whose faces are the cliques of the graph (n, edges)."""
    _check_vertex_count(n)
    what = f"a complex on {n} vertices"
    check_face_count(0, lambda: n + 1, what)
    upper: list[set[int]] = [set() for _ in range(n)]  # the larger neighbours
    for e in edges:
        try:
            u, w = (int(x) for x in e)
        except (TypeError, ValueError):
            raise InputError(f"edge {e!r} is not a pair of vertex ids") from None
        if u == w:
            raise InputError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= w < n):
            raise InputError(f"edge ({u},{w}) references vertex >= n={n}")
        upper[min(u, w)].add(max(u, w))
    # depth first; a clique c waits with the common larger neighbours of
    # c[:-1], and narrows them by upper[c[-1]] only when it is taken, so what
    # waits is at most the faces already counted; each clique is reached
    # once, from the clique of its smaller vertices, so no set is needed
    everyone = set(range(n))
    stack = [((v,), everyone) for v in range(n)]
    faces: dict[int, list[Simplex]] = {0: [c for c, _ in stack]}  # by dimension
    count = 1 + n
    while stack:
        c, pool = stack.pop()
        common = pool & upper[c[-1]]
        if common:
            grown = [c + (v,) for v in common]
            faces.setdefault(len(c), []).extend(grown)
            stack.extend((d, common) for d in grown)
            count += len(grown)
        check_face_count(0, lambda: count, what)
    return SimplicialComplex._canonical(n, faces)


def skeleton(m: int, k: int) -> SimplicialComplex:
    """k-dimensional skeleton of the full simplex on m+1 vertices, k >= 0."""
    if not 0 <= k <= m:
        raise InputError(f"skeleton dimension k={k} must satisfy 0 <= k <= m={m}")
    check_face_count(k, lambda: sum(comb(m + 1, i) for i in range(k + 2)), f"skeleton({m},{k})")
    faces = {size - 1: list(combinations(range(m + 1), size)) for size in range(1, k + 2)}
    return SimplicialComplex._canonical(m + 1, faces)


def full_simplex(m: int) -> SimplicialComplex:
    """The complete complex on m+1 vertices."""
    return skeleton(m, m)


def join(X: SimplicialComplex, Y: SimplicialComplex) -> SimplicialComplex:
    """Join of X and Y; Y's vertex ids are shifted by X.n to stay disjoint."""
    check_face_count(X.dim + Y.dim + 1, lambda: X.num_faces * Y.num_faces, f"join of {X} and {Y}")
    shift = X.n
    y_faces = {j: [tuple(v + shift for v in t) for t in Y.faces(j)] for j in range(-1, Y.dim + 1)}
    faces: dict[int, list[Simplex]] = {}
    for i in range(-1, X.dim + 1):
        for j, ts in y_faces.items():
            faces.setdefault(i + j + 1, []).extend(s + t for s in X.faces(i) for t in ts)
    return SimplicialComplex._canonical(X.n + Y.n, faces)


def link(X: SimplicialComplex, sigma: Sequence[int]) -> SimplicialComplex:
    """Link of sigma in X, on the same ambient id range."""
    s = simplex(sigma)
    if s not in X:
        raise InputError(f"{s} is not a face of the complex")
    sset = set(s)
    faces = {
        k: [t for t in X.faces(k) if not sset.intersection(t) and tuple(sorted(s + t)) in X]
        for k in range(X.dim + 1)
    }
    return SimplicialComplex._canonical(X.n, faces)


def induced(X: SimplicialComplex, U: Iterable[int]) -> SimplicialComplex:
    """Subcomplex of all faces contained in U, on the same ambient id range."""
    uset = {int(v) for v in U}
    for v in uset:
        if not 0 <= v < X.n:
            raise InputError(f"vertex {v} outside ambient range 0..{X.n - 1}")
    faces = {k: [t for t in X.faces(k) if uset.issuperset(t)] for k in range(X.dim + 1)}
    return SimplicialComplex._canonical(X.n, faces)


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

    Ids that are not vertices (as in subcomplexes from :func:`link` and
    :func:`induced`) are missing singletons, and vertex pairs with no edge
    missing edges.  A larger one is tau + (v,) for a face tau, with v a
    common larger neighbour of tau's vertices.  The search walks the faces
    depth first and narrows those neighbours when it takes a face, so its
    work grows with the vertex pairs and the faces' common neighbours, not
    with 2^n, and it holds at most one neighbour set per level of the walk.
    It stops with :class:`SizeLimitError` once it has found more than
    MAX_FACES.
    """
    faces = X._faces
    out: list[Simplex] = [(v,) for v in range(X.n) if (v,) not in faces]
    upper: dict[int, set[int]] = {}  # the larger neighbours of each vertex
    for u, w in X.faces(1):
        upper.setdefault(u, set()).add(w)

    def check_found() -> None:
        if len(out) > MAX_FACES:
            raise SizeLimitError(f"over {MAX_FACES} minimal non-faces, the search cap")

    vertices = X.vertices()
    for i, u in enumerate(vertices):
        nbrs = upper.get(u, ())
        out.extend((u, v) for v in vertices[i + 1 :] if v not in nbrs)
        check_found()
    # a face tau waits with the common larger neighbours of tau[:-1]
    everyone = set(vertices)
    stack = [((u,), everyone) for u in upper]
    while stack:
        tau, pool = stack.pop()
        common = pool & upper.get(tau[-1], set())
        for v in common:
            c = tau + (v,)
            if c in faces:
                stack.append((c, common))
            elif all(c[:i] + c[i + 1 :] in faces for i in range(len(tau))):
                out.append(c)
        check_found()
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
        return SimplicialComplex._canonical(n, {})
    what = f"a complex on {n} vertices"
    check_face_count(0, lambda: n + 1, what)
    # bitmasks of the given faces, by their largest vertex
    by_top: list[list[int]] = [[] for _ in range(n)]
    for f in mins:
        by_top[f[-1]].append(sum(1 << v for v in f))
    faces: dict[int, list[Simplex]] = {}  # by dimension
    count = 1
    level: list[tuple[Simplex, int]] = [((), 0)]
    while level:
        nxt = []
        for c, mask in level:
            check_face_count(0, lambda: count + len(nxt), what)
            for v in range(c[-1] + 1 if c else 0, n):
                grown = mask | 1 << v
                if all(m & ~grown for m in by_top[v]):
                    nxt.append((c + (v,), grown))
        faces[len(level[0][0])] = [c for c, _ in nxt]
        count += len(nxt)
        level = nxt
    return SimplicialComplex._canonical(n, faces)


def facets(X: SimplicialComplex) -> tuple[Simplex, ...]:
    """Maximal faces, ordered by (dimension, lexicographic)."""
    from .hodge import degrees  # hodge builds on this module

    out = tuple(
        f for k in range(X.dim + 1) for f, deg in zip(X.faces(k), degrees(X, k)) if deg == 0
    )
    return out or ((),)


def relabel(X: SimplicialComplex, perm: Sequence[int]) -> SimplicialComplex:
    """Apply a permutation of {0..n-1} to all vertex ids."""
    perm = [int(v) for v in perm]
    if sorted(perm) != list(range(X.n)):
        raise InputError("relabeling must be a permutation of 0..n-1")
    faces = {
        k: [tuple(sorted(perm[v] for v in f)) for f in X.faces(k)] for k in range(X.dim + 1)
    }
    return SimplicialComplex._canonical(X.n, faces)


def compactify(X: SimplicialComplex) -> tuple[SimplicialComplex, dict[int, int]]:
    """Relabel the support vertices onto {0..m-1}, dropping unused ambient ids.

    Returns the compacted complex and the old-id -> new-id mapping.
    """
    support = X.vertices()
    if not support:
        raise DomainError("complex has no vertices")
    mapping = {v: i for i, v in enumerate(support)}
    # the mapping keeps the order of ids, so it keeps faces canonical
    faces = {k: [tuple(mapping[v] for v in f) for f in X.faces(k)] for k in range(X.dim + 1)}
    return SimplicialComplex._canonical(len(support), faces), mapping


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


def _read_facet_text(path: str, what: str) -> tuple[int, list[Simplex]]:
    """parse_facet_text of a file; a missing or unreadable file, a path with a
    NUL, a file over MAX_FILE_BYTES and text that is not UTF-8 raise
    InputError.  The read stops one byte past the cap, so an endless file
    (``/dev/zero``) is refused; a pipe that sends nothing still blocks."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
        text = data.decode("utf-8")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc
    if len(data) > MAX_FILE_BYTES:
        raise InputError(f"{what} {path!r} is over {MAX_FILE_BYTES} bytes, the size cap")
    return parse_facet_text(text)


def load_facet_file(path: str) -> SimplicialComplex:
    return from_facets(*_read_facet_text(path, "facet file"))


def load_edge_file(path: str) -> SimplicialComplex:
    """Clique complex of a graph given in facet-file syntax with 2-id lines."""
    n, lines = _read_facet_text(path, "edge file")
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
