"""Eigenvalues, spectral gaps, Betti numbers, and join-spectrum composition.

Betti numbers are computed twice, by counting near-zero eigenvalues and by
exact rank over a large prime field; a disagreement raises
:class:`~lapgap.errors.IntegrityError` instead of being resolved silently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import hodge
from .complexes import SimplicialComplex
from .errors import DomainError, InputError, IntegrityError
from .operators import OperatorMatrix, laplacian  # noqa: F401  spectral.laplacian stays importable

DEFAULT_GROUP_TOL = 1e-8
ZERO_EIG_TOL = 1e-7
PSD_TOL = 1e-9
RANK_PRIME = 2**31 - 1


@dataclass(frozen=True)
class Spectrum:
    """Sorted real eigenvalue multiset."""

    values: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.values)

    def min(self) -> float:
        if not self.values:
            raise DomainError("empty spectrum has no minimum")
        return self.values[0]

    def groups(self) -> tuple[tuple[float, int], ...]:
        """(value, multiplicity) pairs, grouping runs within DEFAULT_GROUP_TOL."""
        out: list[tuple[float, int]] = []
        for v in self.values:
            if out and abs(v - out[-1][0]) <= DEFAULT_GROUP_TOL:
                out[-1] = (out[-1][0], out[-1][1] + 1)
            else:
                out.append((v, 1))
        return tuple(out)

    def count_below(self, threshold: float) -> int:
        return int(sum(1 for v in self.values if v < threshold))


def spectrum_of(values: Iterable[float]) -> Spectrum:
    return Spectrum(tuple(sorted(float(v) for v in values)))


def multiset_close(a: Iterable[float], b: Iterable[float], tol: float = 1e-8) -> bool:
    """Whether two real multisets agree elementwise after sorting."""
    xs = sorted(float(v) for v in a)
    ys = sorted(float(v) for v in b)
    return len(xs) == len(ys) and all(abs(x - y) <= tol for x, y in zip(xs, ys))


def eigenvalues(M: OperatorMatrix | np.ndarray) -> Spectrum:
    """Full ascending spectrum of a symmetric matrix; ``groups()`` of the
    result merges values within DEFAULT_GROUP_TOL."""
    arr = M.mat if isinstance(M, OperatorMatrix) else np.asarray(M)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size:
        if arr.dtype.kind in "biu":
            symmetric = np.array_equal(arr, arr.T)  # exact; the only temporary is a boolean mask
        else:
            scale = max(1.0, float(np.abs(arr).max()))
            symmetric = float(np.abs(arr - arr.T).max()) <= 1e-12 * scale
        if not symmetric:
            raise InputError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(arr.astype(np.float64)) if arr.size else np.zeros(0)
    return Spectrum(tuple(float(v) for v in vals))


def spectral_gap(X: SimplicialComplex, k: int) -> float:
    """Smallest eigenvalue of the reduced k-Laplacian.

    For k = -1 the value is the vertex count, returned exactly without
    invoking the eigensolver.
    """
    if not -1 <= k <= X.dim:
        raise DomainError(f"spectral gap undefined for k={k} (no k-faces)")
    mu = hodge.spectrum(X, k).min()
    if mu < -PSD_TOL:
        raise IntegrityError(f"Laplacian has eigenvalue {mu} < -{PSD_TOL}; not PSD")
    return mu


def skeleton_spectrum(n: int, k: int, i: int) -> Spectrum:
    """Closed-form spectrum of the i-Laplacian of the k-skeleton on n vertices.

    For i < k the spectrum is n with multiplicity C(n, i+1); for i = k it is
    0 with multiplicity C(n-1, k+1) together with n with multiplicity C(n-1, k).
    """
    if not -1 <= i <= k <= n - 1:
        raise InputError(f"need -1 <= i <= k <= n-1, got n={n}, k={k}, i={i}")
    if i < k:
        vals = [float(n)] * comb(n, i + 1)
    else:
        # at k = -1 the second multiplicity C(n-1, k) is zero by convention
        zeros = comb(n - 1, k + 1)
        tops = comb(n - 1, k) if k >= 0 else 0
        vals = [0.0] * zeros + [float(n)] * tops
    return Spectrum(tuple(sorted(vals)))


def rank_mod_p(mat: np.ndarray | list[dict[int, int]], p: int = RANK_PRIME) -> int:
    """Exact rank of an integer matrix over the field with p elements.

    ``mat`` is a 2-D integer array, or its rows as a list of
    ``{column: value}`` dicts whose values are nonzero mod p; such rows are
    reduced in place.  Sparse row reduction, the reduction of persistent
    homology (Edelsbrunner, Letscher & Zomorodian 2002; Zomorodian &
    Carlsson 2005): each row is reduced by the stored pivot row of its
    largest column until that column is new, when it is normalized and
    stored as that column's pivot.  The rank is the number of pivots, and
    on return each given row is empty or the pivot row of its largest
    column.  Entries are reduced mod p as Python integers, so any integer
    or boolean dtype is exact.

    Cost follows fill-in, not shape.  A coboundary in lex order has k+2
    nonzeros per row, and reducing by the largest column keeps its rows
    short: ``delta_4`` of ``skeleton(12,5)`` (1716 x 1287) took 0.03 s on a
    2-core Xeon, against 0.34 s when reducing by the smallest column.  A
    dense n x n input fills every row and costs O(n^3) Python steps: a
    random 120 x 120 took 0.3 s, against 0.009 s for a dense numpy
    elimination.  Nothing in lapgap ranks a dense matrix.
    """
    if isinstance(mat, list) and (not mat or isinstance(mat[0], dict)):
        rows = mat
    else:
        a = np.asarray(mat)
        if a.ndim != 2 or a.dtype.kind not in "biu":
            raise InputError(f"expected a 2-D integer matrix, got {a.dtype} {a.shape}")
        rows = [{} for _ in range(a.shape[0])]
        r, c = np.nonzero(a)
        for i, j, v in zip(r.tolist(), c.tolist(), a[r, c].tolist()):
            v %= p
            if v:
                rows[i][j] = v
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        get = row.get
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                if inv != 1:
                    for j, v in row.items():
                        row[j] = v * inv % p
                pivots[lead] = row
                break
            f = row[lead]
            for j, v in pivot.items():
                w = (get(j, 0) - f * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
    return len(pivots)


def balanced_kernel(M: np.ndarray) -> list[np.ndarray]:
    """A ±1 kernel basis of a symmetric, weakly diagonally dominant integer matrix.

    With slack s_i = M_ii - sum_{j != i} |M_ij| >= 0,
    x^T M x = sum s_i x_i^2 + sum_{i<j} |M_ij| (x_i + sgn(M_ij) x_j)^2, so
    Mx = 0 exactly when x vanishes on every row with slack and
    x_j = -sgn(M_ij) x_i across every off-diagonal nonzero.  Hence one
    vector per component of the off-diagonal support that has no slack row
    and no sign-flipping cycle (Taussky 1949; Zaslavsky, "Signed graphs",
    1982).  Each vector is checked by M @ x == 0 in int64.
    """
    arr = np.asarray(M)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.dtype.kind not in "iu":
        raise InputError(f"expected a square integer matrix, got {arr.dtype} {arr.shape}")
    rows = arr.tolist()
    if rows != [list(col) for col in zip(*rows)]:
        raise InputError("matrix is not symmetric")
    slack = [row[i] - (sum(map(abs, row)) - abs(row[i])) for i, row in enumerate(rows)]
    if any(s < 0 for s in slack):
        raise InputError(f"row {slack.index(min(slack))} has negative slack {min(slack)}")
    sign = [0] * len(rows)
    out = []
    for root in range(len(rows)):
        if sign[root]:
            continue
        sign[root] = 1
        comp, stack, ok = [root], [root], True
        while stack:
            i = stack.pop()
            ok = ok and not slack[i]
            for j, a in enumerate(rows[i]):
                if a and j != i:
                    s = -sign[i] if a > 0 else sign[i]
                    if not sign[j]:
                        sign[j] = s
                        comp.append(j)
                        stack.append(j)
                    elif sign[j] != s:
                        ok = False
        if ok:
            x = np.zeros(len(rows), dtype=np.int64)
            x[comp] = [sign[j] for j in comp]
            out.append(x)
    if out and (arr.astype(np.int64) @ np.array(out).T).any():
        raise IntegrityError("a balanced kernel vector is not in the kernel")
    return out


def betti(X: SimplicialComplex, k: int) -> int:
    """Reduced Betti number via the Laplacian kernel, cross-checked exactly.

    The eigenvalue count below ZERO_EIG_TOL must match the prime-field rank
    computation |X(k)| - rank(up coboundary) - rank(down coboundary).
    """
    if not -1 <= k <= X.dim:
        raise DomainError(f"betti undefined for k={k} (no k-faces)")
    numeric = hodge.spectrum(X, k).count_below(ZERO_EIG_TOL)
    rank_down = hodge.coboundary_rank(X, k - 1) if k >= 0 else 0
    exact = len(X.faces(k)) - hodge.coboundary_rank(X, k) - rank_down
    if numeric != exact:
        raise IntegrityError(
            f"betti mismatch at k={k}: kernel count {numeric} vs field rank {exact}"
        )
    return exact


def spectrum_table(X: SimplicialComplex) -> dict[int, Spectrum]:
    """Spectra of all Laplacians, keyed by dimension -1..dim."""
    return {k: hodge.spectrum(X, k) for k in range(-1, X.dim + 1)}


def join_spectrum(
    factor_tables: Sequence[Mapping[int, Spectrum]], k: int
) -> Spectrum:
    """Spectrum of a join composed from its factors' per-dimension spectra.

    Takes the multiset union, over all dimension splits i_1 + ... + i_m =
    k - m + 1 with -1 <= i_j <= dim(factor j), of the sumsets of the factor
    spectra.
    """
    m = len(factor_tables)
    if m == 0:
        raise InputError("need at least one factor")
    dims = []
    for t in factor_tables:
        ks = sorted(t.keys())
        if not ks or ks[0] != -1 or ks != list(range(-1, ks[-1] + 1)):
            raise InputError("each factor table must cover dimensions -1..dim")
        if not all(isinstance(v, Spectrum) for v in t.values()):
            raise InputError("each factor table must map dimensions to Spectrum values")
        dims.append(ks[-1])

    target = k - m + 1
    out: list[float] = []

    def rec(j: int, remaining: int, sums: list[float]) -> None:
        if j == m:
            if remaining == 0:
                out.extend(sums)
            return
        rest_min = -(m - j - 1)
        rest_max = sum(dims[j + 1 :])
        lo = max(-1, remaining - rest_max)
        hi = min(dims[j], remaining - rest_min)
        for i in range(lo, hi + 1):
            vs = factor_tables[j][i].values
            rec(j + 1, remaining - i, [s + v for s in sums for v in vs])

    rec(0, target, [0.0])
    if not out:
        warnings.warn(f"k={k} outside the joint dimension range; empty spectrum")
    return spectrum_of(out)


@dataclass(frozen=True)
class ProfileRow:
    k: int
    gap: float
    betti: int
    spectrum: Spectrum


@dataclass(frozen=True)
class SpectralProfile:
    """Per-dimension gaps, Betti numbers and spectra of one complex."""

    n: int
    dim: int
    rows: tuple[ProfileRow, ...]


def spectral_profile(X: SimplicialComplex) -> SpectralProfile:
    rows = []
    for k in range(-1, X.dim + 1):
        rows.append(ProfileRow(k=k, gap=spectral_gap(X, k), betti=betti(X, k),
                               spectrum=hodge.spectrum(X, k)))
    return SpectralProfile(n=X.n, dim=X.dim, rows=tuple(rows))
