"""Degree-based lower bounds on spectral gaps and their supporting identities.

The central chain, verified per dimension and surfaced as a
:class:`BoundReport`, is

    (d+1)(delta_k + k + 1) - d*n  <=  row bound from degrees
                                  ==  Gershgorin bound of L_k
                                  <=  mu_k,

where d is the maximal dimension of a missing face.  The middle equality is
exact in integer arithmetic; violations raise
:class:`~lapgap.errors.IntegrityError`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import hodge
from .complexes import Simplex, SimplicialComplex, min_degree, simplex
from .errors import DomainError, InputError, IntegrityError
from .operators import OperatorMatrix
from .spectral import betti, spectral_gap

BOUND_TOL = 1e-7
EIG_SLACK = 1e-9


def gershgorin_lower_bound(M: OperatorMatrix | np.ndarray) -> int | float:
    """min over rows of (diagonal - off-diagonal absolute sum).

    Every eigenvalue of a symmetric real matrix is at least this value.
    Integer matrices give an exact integer result.
    """
    arr = M.mat if isinstance(M, OperatorMatrix) else np.asarray(M)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError("empty matrix has no Gershgorin bound")
    diag = np.diagonal(arr)
    radii = np.abs(arr).sum(axis=1) - np.abs(diag)
    best = (diag - radii).min()
    if np.issubdtype(arr.dtype, np.integer):
        return int(best)
    return float(best)


def gershgorin_from_degrees(X: SimplicialComplex, k: int) -> int:
    """The same row minimum expressed through face degrees alone.

    Row value at a k-face sigma: (k+2)*deg(sigma) + 2(k+1) - sum of facet
    degrees.  Must equal :func:`gershgorin_lower_bound` of L_k exactly.
    """
    if k < 0:
        raise InputError("degree row bound needs k >= 0")
    if not X.faces(k):
        raise DomainError(f"no faces of dimension {k}")
    rows = (k + 2) * hodge.degrees(X, k) + 2 * (k + 1) - hodge.facet_degree_sums(X, k)
    return int(rows.min())


def effective_missing_dim(X: SimplicialComplex) -> tuple[int, bool]:
    """(d, used_convention): maximal missing-face dimension, or 0 for a
    complete complex (flagged, since no missing face exists there)."""
    h = hodge.missing_faces(X).h
    if h is None:
        return 0, True
    return h, False


@dataclass(frozen=True)
class DegreeSumRecord:
    """Both sides of the facet-degree inequality and its exact companion identity.

    For a k-face sigma in a complex whose missing faces have dimension at
    most d, with n vertices:

      inequality:  sum(deg(tau)) - (k-d+1)*deg(sigma) <= d*n - (d-1)*(k+1)
      identity:    sum(deg(tau)) == (k+1)*(deg(sigma)+1)
                     + sum over v outside sigma and outside its link of
                       #{facets tau of sigma with tau + v a face}
    """

    sigma: Simplex
    k: int
    d: int
    inequality_lhs: int
    inequality_rhs: int
    identity_lhs: int
    identity_rhs: int

    @property
    def inequality_holds(self) -> bool:
        return self.inequality_lhs <= self.inequality_rhs

    @property
    def identity_holds(self) -> bool:
        return self.identity_lhs == self.identity_rhs

    @property
    def inequality_tight(self) -> bool:
        return self.inequality_lhs == self.inequality_rhs


def degree_sum_check(X: SimplicialComplex, sigma, d: int | None = None) -> DegreeSumRecord:
    """Evaluate the degree-sum inequality and identity at one face.

    ``d`` defaults to the recomputed maximal missing-face dimension; passing
    a larger value probes the inequality away from its stated hypothesis.
    """
    s = simplex(sigma)
    if s not in X:
        raise InputError(f"{s} is not a face of the complex")
    k = len(s) - 1
    if k < 0:
        raise InputError("degree sums need k >= 0")
    if d is None:
        d, _ = effective_missing_dim(X)
    n = X.num_vertices
    i = bisect_left(X.faces(k), s)
    deg_s = int(hodge.degrees(X, k)[i])
    facet_deg = int(hodge.facet_degree_sums(X, k)[i])

    overlap = 0
    sset = set(s)
    for v in X.vertices():
        if v in sset or tuple(sorted(s + (v,))) in X:
            continue
        overlap += sum(
            1
            for i in range(len(s))
            if tuple(sorted(s[:i] + s[i + 1 :] + (v,))) in X
        )

    return DegreeSumRecord(
        sigma=s,
        k=k,
        d=d,
        inequality_lhs=facet_deg - (k - d + 1) * deg_s,
        inequality_rhs=d * n - (d - 1) * (k + 1),
        identity_lhs=facet_deg,
        identity_rhs=(k + 1) * (deg_s + 1) + overlap,
    )


@dataclass(frozen=True)
class BoundReport:
    """Per-dimension record of the spectral gap against its lower bounds."""

    k: int
    delta: int
    mu: float
    bound: int
    gershgorin: int
    row_bound: int
    d: int
    d_convention: bool
    slack: float
    tight: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "delta": self.delta,
            "mu": self.mu,
            "bound": self.bound,
            "gershgorin": self.gershgorin,
            "row_bound": self.row_bound,
            "d": self.d,
            "d_convention": self.d_convention,
            "slack": self.slack,
            "tight": self.tight,
        }


def spectral_gap_bound(X: SimplicialComplex, k: int) -> BoundReport:
    """Evaluate and verify the full bound chain at dimension k.

    d and ``d_convention`` are X's own, from ``effective_missing_dim`` (the
    missing-face search runs once per complex).  Asserts, raising
    IntegrityError otherwise: the degree row bound equals the Gershgorin
    bound exactly; the main bound does not exceed it; and mu_k respects
    both within floating tolerance.
    """
    if not -1 <= k <= X.dim:
        raise DomainError(f"bound undefined for k={k} (no k-faces)")
    d, d_convention = effective_missing_dim(X)
    n = X.num_vertices
    delta = min_degree(X, k)
    mu = spectral_gap(X, k)
    bound = (d + 1) * (delta + k + 1) - d * n

    if k >= 0:
        gersh = gershgorin_lower_bound(hodge.laplacian(X, k))
        row = gershgorin_from_degrees(X, k)
        if gersh != row:
            raise IntegrityError(
                f"k={k}: Gershgorin bound {gersh} differs from degree row bound {row}"
            )
    else:
        gersh = row = n

    if bound > row:
        raise IntegrityError(f"k={k}: bound {bound} exceeds row bound {row}")
    if mu < gersh - EIG_SLACK:
        raise IntegrityError(f"k={k}: mu={mu} below Gershgorin bound {gersh}")
    if mu < bound - BOUND_TOL:
        raise IntegrityError(f"k={k}: mu={mu} violates lower bound {bound}")

    slack = mu - bound
    return BoundReport(
        k=k,
        delta=delta,
        mu=mu,
        bound=bound,
        gershgorin=int(gersh),
        row_bound=int(row),
        d=d,
        d_convention=d_convention,
        slack=slack,
        tight=abs(slack) <= BOUND_TOL,
    )


def bound_profile(X: SimplicialComplex) -> tuple[BoundReport, ...]:
    """Bound reports for every dimension -1..dim, sharing X's one missing-face search."""
    return tuple(spectral_gap_bound(X, k) for k in range(-1, X.dim + 1))


@dataclass(frozen=True)
class VanishingReport:
    """Smallest dimension past which cohomology provably vanishes."""

    k_min: int
    verified: bool
    d: int
    d_convention: bool


def vanishing_threshold(X: SimplicialComplex) -> VanishingReport:
    """Smallest k with (d+1)(k+1) > d*n, plus a Betti check up to dim X."""
    d, conv = effective_missing_dim(X)
    n = X.num_vertices
    k_min = (d * n) // (d + 1)
    # smallest integer k with k > d*n/(d+1) - 1
    if not (d + 1) * (k_min + 1) > d * n >= (d + 1) * k_min:
        raise IntegrityError(f"k_min={k_min} is not the vanishing threshold for d={d}, n={n}")
    verified = all(betti(X, k) == 0 for k in range(k_min, X.dim + 1))
    return VanishingReport(k_min=k_min, verified=verified, d=d, d_convention=conv)
