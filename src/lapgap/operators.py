"""Coboundary matrices and reduced Laplacian assembly on the complex's face tuples.

Every matrix returned is an exact int64 matrix whose rows and columns are
indexed by the lex-ordered tuples ``X.faces(k)`` themselves; a face's
position is found by bisection.  :func:`laplacian` fills the stacked
coboundaries in float32 from the complex's facet tables
(:func:`lapgap.hodge.facet_index`) and composes them by BLAS, exact here:
entries of 0 and +-1 make every product an integer, and every partial sum
is at most the stacked row count, which the ``MAX_DENSE_BASIS`` caps on
|X(k+1)| and |X(k-1)| hold to 10,000, below the 2**24 up to which float32
holds every integer.  The product is checked integral before the cast to
int64, or :class:`~lapgap.errors.IntegrityError` is raised.  The dense
coboundary is built only on request (``dump-matrix``, the tests); the
ranks reduce the facet tables.  Faces are oriented by their sorted vertex
order, so the boundary operator is the plain matrix transpose of the
coboundary.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Iterator, Sequence

import numpy as np

from .complexes import Simplex, SimplicialComplex, degree, simplex
from .errors import InputError, IntegrityError, SizeLimitError

MAX_DENSE_BASIS = 5000


def _position(faces: tuple[Simplex, ...], sigma: Sequence[int], side: str) -> int:
    """Index of sigma in the lex-ordered ``faces``, found by bisection."""
    s = simplex(sigma)
    i = bisect_left(faces, s)
    if i == len(faces) or faces[i] != s:
        raise InputError(f"{s} is not a {side} face of this matrix")
    return i


@dataclass(frozen=True)
class OperatorMatrix:
    """Integer matrix whose rows and columns are indexed by ``X.faces(k)`` tuples."""

    rows: tuple[Simplex, ...]
    cols: tuple[Simplex, ...]
    mat: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    def entry(self, sigma: Sequence[int], tau: Sequence[int]) -> int:
        i, j = _position(self.rows, sigma, "row"), _position(self.cols, tau, "column")
        return int(self.mat[i, j])

    def dump(self, stream: IO[str]) -> None:
        """Plain-text dump: 'rows cols' then 'i j value' per nonzero, row-major
        (the order of ``np.nonzero``)."""
        r, c = self.mat.shape
        i, j = np.nonzero(self.mat)
        stream.write(f"{r} {c}\n")
        # line by line: one write larger than a pipe returned without error
        # after its reader had closed, so the CLI exited 0 and not 141
        stream.writelines(
            f"{a} {b} {v}\n" for a, b, v in zip(i.tolist(), j.tolist(), self.mat[i, j].tolist())
        )

    def dumps(self) -> str:
        import io

        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()


def _check_cap(X: SimplicialComplex, *dims: int) -> None:
    for k in dims:
        count = len(X.faces(k))
        if count > MAX_DENSE_BASIS:
            raise SizeLimitError(
                f"basis of dimension {k} has {count} elements, over the dense cap {MAX_DENSE_BASIS}"
            )


def _facet_signs(k: int) -> np.ndarray:
    """(-1)**j, j = 0..k: the coboundary entries of a k-face's facet-table row."""
    return np.where(np.arange(k + 1) % 2, -1, 1)


def sign(sigma: Sequence[int], tau: Sequence[int]) -> int:
    """Parity (+1/-1) of the permutation sending sigma to (sigma \\ tau, tau).

    Both faces are taken in canonical sorted order; for a codimension-1
    face tau = sigma minus its i-th vertex this equals (-1)**i.
    """
    s = simplex(sigma)
    t = simplex(tau)
    pos = {v: i for i, v in enumerate(s)}
    try:
        tpos = [pos[v] for v in t]
    except KeyError:
        raise InputError(f"{t} is not a subset of {s}") from None
    tset = set(tpos)
    inversions = 0
    for p in range(len(s)):
        if p in tset:
            continue
        inversions += sum(1 for q in tpos if q < p)
    return -1 if inversions & 1 else 1


def coboundary_matrix(X: SimplicialComplex, k: int) -> OperatorMatrix:
    """Signed incidence matrix from k-faces (columns) to (k+1)-faces (rows):
    row i holds (-1)**j in the column of the i-th (k+1)-face with its j-th
    vertex dropped, filled in one assignment from the facet-index table."""
    if not -1 <= k <= X.dim:
        raise InputError(f"k={k} outside -1..{X.dim}")
    _check_cap(X, k + 1, k)
    rows, cols = X.faces(k + 1), X.faces(k)
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    mat[np.arange(len(rows))[:, None], hodge.facet_index(X, k + 1)] = _facet_signs(k + 1)
    return OperatorMatrix(rows, cols, mat)


def laplacian(X: SimplicialComplex, k: int) -> OperatorMatrix:
    """Reduced k-Laplacian delta_k^T delta_k + delta_{k-1} delta_{k-1}^T, composed as the
    float32 Gram product C^T C of C = [delta_k ; delta_{k-1}^T] filled from the facet
    tables, then checked integral and cast to int64 (see the module docstring)."""
    if not -1 <= k <= X.dim:
        raise InputError(f"k={k} outside -1..{X.dim}")
    _check_cap(X, k + 1, k, k - 1)
    basis, up, down = X.faces(k), hodge.facet_index(X, k + 1), hodge.facet_index(X, k)
    # the result first: freeing the float32 work then leaves no heap hole below it
    mat = np.empty((len(basis), len(basis)), dtype=np.int64)
    stacked = np.zeros((len(up) + len(X.faces(k - 1)), len(basis)), dtype=np.float32)
    stacked[np.arange(len(up))[:, None], up] = _facet_signs(k + 1)
    stacked[len(up) + down, np.arange(len(basis))[:, None]] = _facet_signs(k)
    gram = stacked.T @ stacked
    np.copyto(mat, gram, casting="unsafe")
    if not np.array_equal(mat, gram):
        raise IntegrityError(f"k={k}: the float32 Laplacian product is not integral")
    return OperatorMatrix(basis, basis, mat)


def _signed_pairs(X: SimplicialComplex, k: int) -> Iterator[tuple[int, int, int, int]]:
    """The off-diagonal nonzeros of L_k as ``(i, j, sign_i, sign_j)``, i < j.

    Two k-faces at positions i, j of ``X.faces(k)`` give one exactly when they
    meet in a (k-1)-face rho and their union is not a face; the entry is
    sign(s_i, rho) * sign(s_j, rho).  The cofaces of each rho are found by
    probing vertices, not read from the facet tables, so the signed graph
    this walk yields does not depend on :mod:`lapgap.hodge`.  Each pair
    meets in one rho and comes out once.
    """
    faces, verts = X.faces(k), X.vertices()
    for rho in X.faces(k - 1):
        rset = set(rho)
        cof = sorted(
            (bisect_left(faces, eta), eta)
            for eta in (tuple(sorted(rho + (v,))) for v in verts if v not in rset)
            if eta in X
        )
        for (i, s), (j, t) in combinations(cof, 2):
            if tuple(sorted(set(s) | set(t))) not in X:
                yield i, j, sign(s, rho), sign(t, rho)


def laplacian_entry(X: SimplicialComplex, sigma: Sequence[int], tau: Sequence[int]) -> int:
    """Single Laplacian entry from degrees and orientation signs alone."""
    s = simplex(sigma)
    t = simplex(tau)
    if len(s) != len(t):
        raise InputError(f"faces {s} and {t} have different dimensions")
    if s not in X or t not in X:
        raise InputError("both faces must belong to the complex")
    k = len(s) - 1
    if s == t:
        return degree(X, s) + k + 1
    inter = tuple(sorted(set(s) & set(t)))
    if len(inter) != k:
        return 0
    union = tuple(sorted(set(s) | set(t)))
    if union in X:
        return 0
    return sign(s, inter) * sign(t, inter)


def laplacian_entrywise(X: SimplicialComplex, k: int) -> OperatorMatrix:
    """Reduced k-Laplacian assembled entry by entry from the closed form.

    Independent of :func:`laplacian`; the two are cross-checked in tests.
    """
    if not 0 <= k <= X.dim:
        raise InputError(f"k={k} outside 0..{X.dim}")
    _check_cap(X, k)
    basis = X.faces(k)
    mat = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for i, s in enumerate(basis):
        mat[i, i] = degree(X, s) + k + 1
    for i, j, si, sj in _signed_pairs(X, k):
        mat[i, j] = mat[j, i] = si * sj
    return OperatorMatrix(basis, basis, mat)


@dataclass(frozen=True)
class BochnerSplit:
    """Decomposition L_k = D + K with K = H @ H.T the signed-graph Laplacian.

    ``edges`` lists the index pairs (into the row basis) carrying the
    signed graph on the k-faces; ``H`` is its incidence matrix.
    """

    D: OperatorMatrix
    K: OperatorMatrix
    H: np.ndarray
    edges: tuple[tuple[int, int], ...]

    @property
    def basis(self) -> tuple[Simplex, ...]:
        return self.D.rows


def bochner_split(X: SimplicialComplex, k: int) -> BochnerSplit:
    """Split the k-Laplacian into a degree diagonal plus a signed-graph Laplacian."""
    if not 0 <= k <= X.dim:
        raise InputError(f"k={k} outside 0..{X.dim}; the split needs k >= 0")
    _check_cap(X, k)
    basis = X.faces(k)
    pairs = list(_signed_pairs(X, k))
    H = np.zeros((len(basis), len(pairs)), dtype=np.int64)
    for e, (i, j, si, sj) in enumerate(pairs):
        H[i, e] = si
        H[j, e] = sj
    K = H @ H.T

    diag = 2 * (k + 1) + (k + 2) * hodge.degrees(X, k) - hodge.facet_degree_sums(X, k)
    D = np.diag(diag)

    return BochnerSplit(
        D=OperatorMatrix(basis, basis, D),
        K=OperatorMatrix(basis, basis, K),
        H=H,
        edges=tuple((i, j) for i, j, _, _ in pairs),
    )


def offdiag_abs_row_sum(
    X: SimplicialComplex, k: int, sigma: Sequence[int]
) -> tuple[int, int]:
    """Off-diagonal absolute row sum of L_k at sigma, twice.

    Returns ``(direct, from_degrees)``: the sum read off the assembled
    matrix, and the same quantity predicted from face degrees,
    sum(deg(tau) over facets tau of sigma) - (k+1)(deg(sigma)+1).
    The two must agree for every face.
    """
    if k < 0:
        raise InputError("row sums need k >= 0")
    s = simplex(sigma)
    if s not in X or len(s) != k + 1:
        raise InputError(f"{s} is not a {k}-face of the complex")
    L = hodge.laplacian(X, k)
    i = bisect_left(L.rows, s)
    direct = int(np.abs(L.mat[i]).sum() - abs(L.mat[i, i]))
    from_degrees = int(hodge.facet_degree_sums(X, k)[i] - (k + 1) * (hodge.degrees(X, k)[i] + 1))
    return direct, from_degrees


# last: hodge imports this module and spectral, and spectral imports names
# from this module, so they must all be defined before hodge loads
from . import hodge  # noqa: E402
