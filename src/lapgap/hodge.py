"""One lazily filled Hodge context per complex.

A complex is immutable, so its missing faces, facet tables, degree
vectors, Laplacians, spectra and coboundary ranks can each be computed
once and kept with it.  Each of those is a fill body under ``_memo``,
which keeps ``fill(X, *k)`` in the complex's ``_hodge`` dict under the key
``(fill.__name__, *k)`` and makes a cached array read-only.  The context
dies with the complex; no cache exists at module level.  No fill returns
None, so a missing or None entry means "not filled yet".

The primitives stay pure: the fills call ``complexes.missing_faces``,
``operators.laplacian``, ``operators.coboundary_matrix``,
``spectral.eigenvalues`` and ``spectral.rank_mod_p`` through their
modules, so a wrapper installed on those module attributes sees every
search, assembly, eigensolve and rank.  ``operators.laplacian`` fills its
stacked coboundaries from the facet tables, so the dense ``delta_k`` is
built once per complex and k, for its rank, which reduces its nonzeros as
sparse rows and costs about as much as its fill-in, not its shape.
"""

from __future__ import annotations

import functools

import numpy as np

from . import complexes, operators, spectral
from .complexes import MissingFaceReport, SimplicialComplex


class HodgeContext(dict):
    """The filled entries of one complex, keyed by (fill name, *k)."""

    __slots__ = ()


def _memo(fill):
    """Keep fill(X, *k) in X's context under (fill.__name__, *k), filled once;
    an ndarray, or the ``.mat`` of an OperatorMatrix, is made read-only first."""
    name = fill.__name__

    @functools.wraps(fill)
    def get(X, *k):
        ctx = X._hodge
        if ctx is None:
            ctx = X._hodge = HodgeContext()
        key = (name, *k)
        value = ctx.get(key)
        if value is None:
            value = fill(X, *k)
            arr = value.mat if isinstance(value, operators.OperatorMatrix) else value
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
            ctx[key] = value
        return value

    return get


@_memo
def missing_faces(X: SimplicialComplex) -> MissingFaceReport:
    """The minimal non-faces of X, searched once per complex."""
    return complexes.missing_faces(X)


@_memo
def facet_index(X: SimplicialComplex, k: int) -> np.ndarray:
    """(|X(k)|, k+1) table: entry [i, j] is the position in ``X.faces(k-1)``
    of the i-th k-face with its j-th vertex dropped, -1 <= k <= dim + 1 (empty at the ends).

    This is the sparse form of the coboundary ``delta_{k-1}``: row i has
    the entry (-1)**j in column [i, j] and zeros elsewhere.
    """
    position = {f: i for i, f in enumerate(X.faces(k - 1))}
    faces = X.faces(k)
    return np.array(
        [position[f[:j] + f[j + 1 :]] for f in faces for j in range(k + 1)], dtype=np.intp
    ).reshape(len(faces), k + 1)


@_memo
def degrees(X: SimplicialComplex, k: int) -> np.ndarray:
    """deg(sigma) for every k-face sigma, in ``X.faces(k)`` order, -1 <= k <= dim.

    Each (k+1)-face adds one to the degree of each of its facets, so the
    vector is the count of nonzeros per column of ``delta_k``.
    """
    return np.bincount(facet_index(X, k + 1).ravel(), minlength=len(X.faces(k)))


@_memo
def facet_degree_sums(X: SimplicialComplex, k: int) -> np.ndarray:
    """Sum of deg(tau) over the facets tau of each k-face, 0 <= k <= dim:
    the product |delta_{k-1}| @ deg_{k-1}, read through the facet table."""
    return degrees(X, k - 1)[facet_index(X, k)].sum(axis=1)


@_memo
def laplacian(X: SimplicialComplex, k: int) -> operators.OperatorMatrix:
    """The reduced k-Laplacian, assembled once per complex."""
    return operators.laplacian(X, k)


@_memo
def spectrum(X: SimplicialComplex, k: int) -> spectral.Spectrum:
    """Spectrum of L_k, solved once per complex.  At k = -1 it is the
    vertex count, exactly, without the eigensolver."""
    if k == -1:
        return spectral.Spectrum((float(X.num_vertices),))
    return spectral.eigenvalues(laplacian(X, k))


@_memo
def coboundary_rank(X: SimplicialComplex, k: int) -> int:
    """Rank of ``delta_k`` over the prime field by sparse row reduction
    (``spectral.rank_mod_p``), computed once per complex."""
    return spectral.rank_mod_p(operators.coboundary_matrix(X, k).mat)
