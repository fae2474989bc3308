"""One lazily filled Hodge context per complex.

A complex is immutable, so its missing faces, facet tables, degree
vectors, Laplacians, spectra and coboundary ranks can each be computed
once and kept with it.
The context lives in the complex's ``_hodge`` slot and dies with it; no
cache exists at module level.  Every entry is filled on first use.

The primitives stay pure: the context calls ``complexes.missing_faces``,
``operators.laplacian``, ``operators.coboundary_matrix``,
``spectral.eigenvalues`` and ``spectral.rank_mod_p`` through their
modules, so a wrapper installed on those module attributes sees every
search, assembly, eigensolve and rank.  ``operators.laplacian`` fills its
stacked coboundaries from the facet tables, so the dense ``delta_k`` is
built once per complex and k, for its rank, which reduces its nonzeros as
sparse rows and costs about as much as its fill-in, not its shape.
Cached arrays are read-only.
"""

from __future__ import annotations

import numpy as np

from . import complexes, operators, spectral
from .complexes import MissingFaceReport, SimplicialComplex


class HodgeContext:
    """The missing-face report and per-dimension caches, keyed by k, of one complex."""

    __slots__ = (
        "missing", "facet_index", "degrees", "facet_degree_sums", "laplacians", "spectra", "ranks"
    )

    def __init__(self) -> None:
        self.missing: MissingFaceReport | None = None
        self.facet_index: dict[int, np.ndarray] = {}
        self.degrees: dict[int, np.ndarray] = {}
        self.facet_degree_sums: dict[int, np.ndarray] = {}
        self.laplacians: dict[int, operators.OperatorMatrix] = {}
        self.spectra: dict[int, spectral.Spectrum] = {}
        self.ranks: dict[int, int] = {}


def context(X: SimplicialComplex) -> HodgeContext:
    """The context held by X, created on first use."""
    ctx = X._hodge
    if ctx is None:
        ctx = X._hodge = HodgeContext()
    return ctx


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def missing_faces(X: SimplicialComplex) -> MissingFaceReport:
    """The minimal non-faces of X, searched once per complex."""
    ctx = context(X)
    if ctx.missing is None:
        ctx.missing = complexes.missing_faces(X)
    return ctx.missing


def facet_index(X: SimplicialComplex, k: int) -> np.ndarray:
    """(|X(k)|, k+1) table: entry [i, j] is the position in ``X.faces(k-1)``
    of the i-th k-face with its j-th vertex dropped, -1 <= k <= dim + 1 (empty at the ends).

    This is the sparse form of the coboundary ``delta_{k-1}``: row i has
    the entry (-1)**j in column [i, j] and zeros elsewhere.
    """
    cache = context(X).facet_index
    table = cache.get(k)
    if table is None:
        position = {f: i for i, f in enumerate(X.faces(k - 1))}
        faces = X.faces(k)
        table = np.array(
            [position[f[:j] + f[j + 1 :]] for f in faces for j in range(k + 1)], dtype=np.intp
        ).reshape(len(faces), k + 1)
        cache[k] = table = _frozen(table)
    return table


def degrees(X: SimplicialComplex, k: int) -> np.ndarray:
    """deg(sigma) for every k-face sigma, in ``X.faces(k)`` order, -1 <= k <= dim.

    Each (k+1)-face adds one to the degree of each of its facets, so the
    vector is the count of nonzeros per column of ``delta_k``.
    """
    cache = context(X).degrees
    deg = cache.get(k)
    if deg is None:
        deg = np.bincount(facet_index(X, k + 1).ravel(), minlength=len(X.faces(k)))
        cache[k] = deg = _frozen(deg)
    return deg


def facet_degree_sums(X: SimplicialComplex, k: int) -> np.ndarray:
    """Sum of deg(tau) over the facets tau of each k-face, 0 <= k <= dim:
    the product |delta_{k-1}| @ deg_{k-1}, read through the facet table."""
    cache = context(X).facet_degree_sums
    sums = cache.get(k)
    if sums is None:
        sums = degrees(X, k - 1)[facet_index(X, k)].sum(axis=1)
        cache[k] = sums = _frozen(sums)
    return sums


def laplacian(X: SimplicialComplex, k: int) -> operators.OperatorMatrix:
    """The reduced k-Laplacian, assembled once per complex."""
    cache = context(X).laplacians
    L = cache.get(k)
    if L is None:
        L = operators.laplacian(X, k)
        _frozen(L.mat)
        cache[k] = L
    return L


def spectrum(X: SimplicialComplex, k: int) -> spectral.Spectrum:
    """Spectrum of L_k, solved once per complex.  At k = -1 it is the
    vertex count, exactly, without the eigensolver."""
    cache = context(X).spectra
    spec = cache.get(k)
    if spec is None:
        if k == -1:
            spec = spectral.Spectrum((float(X.num_vertices),))
        else:
            spec = spectral.eigenvalues(laplacian(X, k))
        cache[k] = spec
    return spec


def coboundary_rank(X: SimplicialComplex, k: int) -> int:
    """Rank of ``delta_k`` over the prime field by sparse row reduction
    (``spectral.rank_mod_p``), computed once per complex."""
    cache = context(X).ranks
    rank = cache.get(k)
    if rank is None:
        rank = cache[k] = spectral.rank_mod_p(operators.coboundary_matrix(X, k).mat)
    return rank
