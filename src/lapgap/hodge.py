"""One lazily filled Hodge context per complex.

A complex is immutable, so its missing faces, degree vectors, Laplacians,
spectra and coboundary ranks can each be computed once and kept with it.
Each of those is a fill body under ``_memo``, which keeps ``fill(X, *k)``
in the complex's ``_hodge`` dict under the key ``(fill.__name__, *k)`` and
makes a cached array read-only.  The context dies with the complex; no
cache exists at module level.  No fill returns None, so a missing or None
entry means "not filled yet".  The facet tables are not filled here: the
closure check of :class:`~lapgap.complexes.SimplicialComplex` finds them
as lists of positions, and :func:`facet_index` turns each into its array
on first use and stores that back in the complex.

The fills call ``complexes.missing_faces``, ``operators.laplacian``,
``spectral.eigenvalues`` and ``spectral.rank_mod_p`` through their
modules, so a wrapper installed on those module attributes sees every
search, assembly, eigensolve and rank.  ``operators`` imports this
module only after its own definitions, so this module, ``operators`` and
``spectral`` import cold in any order.  ``operators.laplacian`` and
``operators.coboundary_matrix`` fill their matrices from
:func:`facet_index`.  The ranks never build a dense coboundary: each
reduces the signed rows of a facet table, and clearing leaves out the rows
that the reduction one dimension up shows to be dependent, so a rank costs
about its fill-in.
"""

from __future__ import annotations

import functools

import numpy as np

from . import complexes, operators, spectral
from .complexes import MissingFaceReport, SimplicialComplex
from .errors import InputError


def _memo(fill):
    """Keep fill(X, *k) in X's context under (fill.__name__, *k), filled once;
    an ndarray, or the ``.mat`` of an OperatorMatrix, is made read-only first."""
    name = fill.__name__

    @functools.wraps(fill)
    def get(X, *k):
        ctx = X._hodge
        if ctx is None:
            ctx = X._hodge = {}
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


def facet_index(X: SimplicialComplex, k: int) -> np.ndarray:
    """(|X(k)|, k+1) table: entry [i, j] is the position in ``X.faces(k-1)``
    of the i-th k-face with its j-th vertex dropped, -1 <= k <= dim + 1 (empty at the ends).

    This is the sparse form of the coboundary ``delta_{k-1}``: row i has
    the entry (-1)**j in column [i, j] and zeros elsewhere.  The closure
    check found the positions with the complex, as one flat list whose rows
    run from the last vertex dropped to the first; the first call turns it
    into this read-only array and keeps that in its place.
    """
    if not -1 <= k <= X.dim + 1:
        raise InputError(f"k={k} outside -1..{X.dim + 1}")
    table = X._tables[k + 1]
    if isinstance(table, list):
        table = np.array(table, dtype=np.intp).reshape(len(X.faces(k)), k + 1)[:, ::-1]
        table.flags.writeable = False
        X._tables[k + 1] = table
    return table


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
def coboundary_pivots(X: SimplicialComplex, k: int) -> frozenset[int]:
    """Pivot columns of ``delta_k`` over the prime field: the largest column
    of each row that the reduction of ``spectral.rank_mod_p`` keeps.

    The rows are those of ``facet_index(X, k+1)``, as ``{column: +-1}``
    dicts, so no dense matrix is built.  Clearing (Chen & Kerber 2011):
    a (k+1)-face that is a pivot column of ``delta_{k+1}`` is the largest
    column of a combination c of ``delta_{k+1}``'s rows, and
    ``c @ delta_k = 0`` writes its row of ``delta_k`` through rows of
    smaller faces (by induction, through rows that are kept), so that row
    is left out.  Hence the reductions run from the top dimension down,
    and only these sets are kept.
    """
    if not -1 <= k <= X.dim:
        raise InputError(f"k={k} outside -1..{X.dim}")
    table = facet_index(X, k + 1)
    if not len(table):
        return frozenset()
    cleared = coboundary_pivots(X, k + 1)
    signs = (1, -1) * (k + 2)  # (-1)**j; zip stops at the row's end
    rows = [dict(zip(r, signs)) for i, r in enumerate(table.tolist()) if i not in cleared]
    spectral.rank_mod_p(rows)
    return frozenset(max(row) for row in rows if row)


def coboundary_rank(X: SimplicialComplex, k: int) -> int:
    """Rank of ``delta_k`` over the prime field, -1 <= k <= dim."""
    return len(coboundary_pivots(X, k))
