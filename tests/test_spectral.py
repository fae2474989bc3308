"""Eigenvalues, gaps, skeleton spectra, Betti numbers, and join composition."""

from __future__ import annotations

import inspect
import math
import random
import warnings
from itertools import combinations
from math import comb

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import lapgap as lg
from lapgap import hodge, spectral
from lapgap.errors import DomainError, InputError, IntegrityError

from conftest import dominant_matrices, random_complex

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def c5():
    return lg.clique_complex(5, C5_EDGES)


# circulant analysis of the five-cycle: graph Laplacian eigenvalues
# 2 - 2cos(2 pi j / 5) shifted by the all-ones rank-one part
C5_SPECTRUM = sorted(
    [5.0] + [2 - 2 * math.cos(2 * math.pi * j / 5) for j in (1, 2, 3, 4)]
)
MU0_C5 = 2 - 2 * math.cos(2 * math.pi / 5)  # 1.3819660112501051...


# --- eigenvalues -----------------------------------------------------------------


def test_eigenvalues_rank_one():
    spec = lg.eigenvalues(np.array([[1, 1], [1, 1]]))
    assert lg.multiset_close(spec.values, [0.0, 2.0])


def test_eigenvalues_five_cycle_circulant():
    spec = lg.eigenvalues(lg.laplacian(c5(), 0))
    assert lg.multiset_close(spec.values, C5_SPECTRUM, 1e-9)


def test_eigenvalues_rejects_asymmetric_and_nonsquare():
    with pytest.raises(InputError):
        lg.eigenvalues(np.array([[0, 1], [0, 0]]))
    with pytest.raises(InputError):
        lg.eigenvalues(np.zeros((2, 3)))


def test_spectrum_grouping():
    spec = lg.spectrum_of([0.0, 1e-12, 2.0, 2.0 + 1e-10, 5.0])
    assert [m for _, m in spec.groups()] == [2, 2, 1]


# --- spectral gap -----------------------------------------------------------------


def test_gap_minus_one_is_vertex_count(small_corpus):
    for X in small_corpus[:20]:
        assert lg.spectral_gap(X, -1) == float(X.num_vertices)


def test_gap_five_cycle():
    assert abs(lg.spectral_gap(c5(), 0) - MU0_C5) < 1e-9


def test_gap_z121_profile():
    Z = lg.build_z(1, 2, 1)
    assert [round(lg.spectral_gap(Z, k), 6) for k in range(-1, 3)] == [5, 3, 1, 1]


def test_gap_above_dim_is_domain_error():
    with pytest.raises(DomainError):
        lg.spectral_gap(c5(), 2)


# --- skeleton spectra ---------------------------------------------------------------


def test_skeleton_spectrum_frozen_cases():
    assert lg.skeleton_spectrum(4, 1, 1).values == (0.0, 0.0, 0.0, 4.0, 4.0, 4.0)
    assert lg.skeleton_spectrum(4, 1, 0).values == (4.0, 4.0, 4.0, 4.0)
    assert lg.skeleton_spectrum(3, 2, -1).values == (3.0,)
    with pytest.raises(InputError):
        lg.skeleton_spectrum(4, 1, 2)


def test_skeleton_spectrum_matches_eigensolver():
    for n in range(2, 7):
        for k in range(-1, n):
            # skeleton() refuses k = -1; the (-1)-skeleton is the complex induced on no vertex
            X = lg.skeleton(n - 1, k) if k >= 0 else lg.induced(lg.full_simplex(n - 1), ())
            for i in range(-1, k + 1):
                closed = lg.skeleton_spectrum(n, k, i)
                solved = lg.eigenvalues(lg.laplacian(X, i))
                assert lg.multiset_close(closed.values, solved.values, 1e-8)


# --- betti -----------------------------------------------------------------------


def test_betti_examples():
    assert lg.betti(lg.skeleton(2, 1), 1) == 1
    assert lg.betti(lg.skeleton(1, 0), 0) == 1
    for k in range(-1, 4):
        assert lg.betti(lg.full_simplex(3), k) == 0


def test_betti_skeleton_closed_form():
    for n in range(2, 7):
        for k in range(0, n - 1):
            assert lg.betti(lg.skeleton(n - 1, k), k) == comb(n - 1, k + 1)


def test_betti_domain_error():
    with pytest.raises(DomainError):
        lg.betti(c5(), 3)


def test_hodge_and_cohomology_vanishing_equivalence(small_corpus):
    for X in small_corpus[:25]:
        for k in range(-1, X.dim + 1):
            b = lg.betti(X, k)  # raises IntegrityError on dual-route mismatch
            mu = lg.spectral_gap(X, k)
            assert (b == 0) == (mu > 1e-7)


RANK_PRIME = lg.spectral.RANK_PRIME


def rank_mod_p_rowwise(mat, p=RANK_PRIME):
    """Oracle: elimination over whole rows, the pivot found by a row loop."""
    a = np.asarray(mat, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        below = np.nonzero(a[r + 1 :, c])[0]
        if below.size:
            idx = below + r + 1
            a[idx] = (a[idx] - np.outer(a[idx, c], a[r])) % p
        r += 1
        if r == rows:
            break
    return r


# Oracle: the dense elimination that rank_mod_p ran before the sparse
# reduction, copied verbatim under another name.
def rank_mod_p_trailing(mat: np.ndarray, p: int = RANK_PRIME) -> int:
    """Exact rank of an integer matrix over the field with p elements.

    Gaussian elimination on the trailing submatrix: once column c holds
    its pivot, rows from the pivot row down are zero left of c, so each
    step touches only ``a[r:, c:]``.  Entries stay below p < 2**31, so
    every product fits in int64.
    """
    a = np.asarray(mat, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nonzero = np.flatnonzero(a[r:, c]) + r
        if not nonzero.size:
            continue
        piv = nonzero[0]
        if piv != r:
            a[[r, piv], c:] = a[[piv, r], c:]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        # the swap moved the old row r, zero in column c, to row piv: the
        # other nonzeros are the rows left to clear
        idx = nonzero[1:]
        if idx.size:
            a[idx, c:] = (a[idx, c:] - np.outer(a[idx, c], a[r, c:])) % p
        r += 1
        if r == rows:
            break
    return r


def test_rank_mod_p_matches_rowwise_oracle(small_corpus):
    for X in small_corpus:
        for k in range(-1, X.dim):
            mat = lg.coboundary_matrix(X, k).mat
            assert lg.rank_mod_p(mat) == rank_mod_p_rowwise(mat)
    rng = np.random.default_rng(3)
    for _ in range(40):
        rows, cols, inner = (int(v) for v in rng.integers(1, 14, size=3))
        # a product through `inner` columns has rank at most `inner`
        M = rng.integers(-3, 4, size=(rows, inner)) @ rng.integers(-3, 4, size=(inner, cols))
        M[:, rng.integers(0, cols)] = 0
        rank = lg.rank_mod_p(M)
        assert rank == rank_mod_p_rowwise(M) == np.linalg.matrix_rank(M.astype(float))
        assert rank <= min(rows, cols, inner)


def test_rank_mod_p_matches_float_rank():
    rng = random.Random(1)
    for _ in range(25):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        M = np.array([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
        assert lg.rank_mod_p(M) == np.linalg.matrix_rank(M.astype(float))
    for shape in ((3, 4), (0, 0), (0, 5), (5, 0)):
        assert lg.rank_mod_p(np.zeros(shape, dtype=int)) == 0
    assert lg.rank_mod_p(np.eye(4, dtype=int)) == 4


ENTRIES = st.sampled_from([-3, -2, -1, 1, 2, 3, RANK_PRIME, -RANK_PRIME, 2 * RANK_PRIME,
                           RANK_PRIME + 1, 1 - RANK_PRIME])


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 15 x 15, empty shapes included: dense, or a few
    nonzeros; entries negative or multiples of p among them; some rows
    multiples of others, so ranks fall short of the shape."""
    rows, cols = draw(st.integers(0, 15)), draw(st.integers(0, 15))
    M = np.zeros((rows, cols), dtype=np.int64)
    if not rows * cols:
        return M
    if draw(st.booleans()):
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), ENTRIES)
        for i, j, v in draw(st.lists(cells, max_size=2 * max(rows, cols))):
            M[i, j] = v
    else:
        M[:] = np.reshape(draw(st.lists(st.one_of(st.just(0), ENTRIES), min_size=rows * cols,
                                        max_size=rows * cols)), (rows, cols))
    copies = st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1), st.integers(-2, 2))
    for dst, src, f in draw(st.lists(copies, max_size=rows)):
        M[dst] = f * M[src]
    return M


@settings(max_examples=300, deadline=None)
@given(M=integer_matrices())
def test_rank_mod_p_matches_both_oracles(M):
    rank = lg.rank_mod_p(M)
    assert rank == rank_mod_p_trailing(M) == rank_mod_p_rowwise(M)
    assert rank <= min(M.shape)


def test_rank_mod_p_takes_every_integer_dtype():
    assert lg.rank_mod_p(np.eye(3, dtype=bool)) == 3
    assert lg.rank_mod_p(np.array([[-1, 1], [1, -1]], dtype=np.int8)) == 1
    big = np.array([[2**64 - 1, 0], [0, RANK_PRIME]], dtype=np.uint64)
    assert lg.rank_mod_p(big) == 1  # 2**64 - 1 is no multiple of p; p is


def test_rank_mod_p_refuses_floats_and_other_shapes():
    with pytest.raises(InputError):
        lg.rank_mod_p(np.array([[0.5, 0.0], [0.0, 0.7]]))
    with pytest.raises(InputError):
        lg.rank_mod_p(np.array([1, 2, 3]))
    with pytest.raises(InputError):
        lg.rank_mod_p(np.zeros((2, 2, 2), dtype=np.int64))


def test_skeleton_coboundary_ranks_are_binomials():
    # the full simplex on m+1 vertices is acyclic, so rank delta_k = C(m, k+1)
    # for every k below the skeleton's top dimension
    for m, top in ((3, 2), (5, 3), (6, 6), (8, 4), (12, 5)):
        X = lg.skeleton(m, top)
        for k in range(-1, top):
            assert lg.rank_mod_p(lg.coboundary_matrix(X, k).mat) == comb(m, k + 1)
    assert hodge.coboundary_rank(lg.skeleton(12, 5), 4) == 792


def test_large_coboundary_ranks_match_the_oracle():
    join = lg.join(lg.skeleton(5, 3), lg.skeleton(5, 3))
    for X, ks in ((lg.build_z(2, 4, 1), (5, 6)), (join, (4, 5))):
        for k in ks:
            mat = lg.coboundary_matrix(X, k).mat
            assert lg.rank_mod_p(mat) == rank_mod_p_trailing(mat)


def fresh(X):
    """An equal complex with an empty context, so no rank is cached yet."""
    return lg.SimplicialComplex(X.n, X.all_faces())


def assert_cleared_ranks_are_dense_ranks(X, ks):
    for k in ks:
        mat = lg.coboundary_matrix(X, k).mat
        assert hodge.coboundary_rank(X, k) == lg.rank_mod_p(mat) == rank_mod_p_trailing(mat)


def test_cleared_ranks_match_the_dense_ranks_in_either_order(small_corpus):
    # clearing reads the pivots one dimension up; asking for k from the
    # bottom fills them on the way, asking from the top reuses them
    for X in small_corpus:
        ks = range(-1, X.dim + 1)
        assert_cleared_ranks_are_dense_ranks(fresh(X), ks)
        assert_cleared_ranks_are_dense_ranks(fresh(X), reversed(ks))
        for k in ks:
            mat = lg.coboundary_matrix(X, k).mat
            assert hodge.coboundary_rank(X, k) == rank_mod_p_rowwise(mat)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), descending=st.booleans())
def test_cleared_ranks_match_the_dense_ranks_on_random_complexes(seed, n, descending):
    X = random_complex(random.Random(seed), n)
    ks = range(-1, X.dim + 1)
    assert_cleared_ranks_are_dense_ranks(X, reversed(ks) if descending else ks)


def test_clearing_reduces_only_the_rows_left_over(monkeypatch):
    # skeleton(12,5): delta_4 has rank C(12,5) = 792, so of the 1287 rows of
    # delta_3 only 1287 - 792 = 495 are reduced; no dense matrix is built
    reduced = {}
    rank_mod_p = lg.spectral.rank_mod_p

    def counting(rows, *args):
        reduced[len(rows[0]) - 2 if rows else None] = len(rows)
        return rank_mod_p(rows, *args)

    def refuse(X, k):
        raise AssertionError("a rank built a dense coboundary")

    monkeypatch.setattr(lg.spectral, "rank_mod_p", counting)
    monkeypatch.setattr(lg.operators, "coboundary_matrix", refuse)
    X = lg.skeleton(12, 5)
    assert hodge.coboundary_rank(X, 3) == comb(12, 4)
    assert reduced == {4: 1716, 3: 1287 - 792}
    assert [hodge.coboundary_rank(X, k) for k in range(-1, 6)] == [1, 12, 66, 220, 495, 792, 0]


def test_rank_mod_p_reduces_sparse_rows_in_place():
    M = np.array([[1, -1, 0], [0, 1, -1], [1, 0, -1], [0, 0, 2]])
    rows = [{j: int(v) for j, v in enumerate(r) if v} for r in M]
    assert lg.rank_mod_p(rows) == lg.rank_mod_p(M) == 3
    leads = [max(row) for row in rows if row]
    assert len(leads) == len(set(leads)) == 3
    assert all(row[max(row)] == 1 for row in rows if row)  # normalized pivots
    assert lg.rank_mod_p([]) == 0


# --- balanced kernels ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(M=dominant_matrices())
def test_balanced_kernel_is_the_kernel(M):
    kernel = lg.spectral.balanced_kernel(M)
    assert len(kernel) == len(M) - sympy.Matrix(M.tolist()).rank()
    for x in kernel:
        assert set(x.tolist()) <= {-1, 0, 1} and x.any()
        assert not (M @ x).any()


def test_balanced_kernel_counts_the_gershgorin_multiplicity(small_corpus):
    # at t the Gershgorin bound, L_k - tI is weakly dominant: its balanced
    # kernel is the multiplicity of t in the spectrum
    pairs = 0
    for X in small_corpus:
        for k in range(X.dim + 1):
            L = lg.laplacian(X, k).mat
            t = lg.gershgorin_lower_bound(L)
            count = sum(abs(v - t) <= lg.spectral.ZERO_EIG_TOL for v in lg.eigenvalues(L).values)
            assert len(lg.spectral.balanced_kernel(L - t * np.eye(len(L), dtype=np.int64))) == count
            pairs += count > 0
    assert pairs > 20


def test_balanced_kernel_flips_with_one_sign():
    # the 5-cycle's graph Laplacian is balanced; negating one edge makes
    # its one cycle flip sign, and the kernel goes
    L = lg.laplacian(c5(), 0).mat - 1  # the reduced L_0 is the graph Laplacian + J
    (x,) = lg.spectral.balanced_kernel(L)
    assert x.tolist() == [1] * 5
    L[0, 1] = L[1, 0] = 1
    assert lg.spectral.balanced_kernel(L) == []
    assert sympy.Matrix(L.tolist()).rank() == 5


def test_balanced_kernel_refuses_negative_slack():
    with pytest.raises(InputError, match="slack"):
        lg.spectral.balanced_kernel(np.array([[1, -2], [-2, 1]]))
    with pytest.raises(InputError):
        lg.spectral.balanced_kernel(np.array([[1, -1], [0, 1]]))


# --- join spectra ------------------------------------------------------------------


def test_join_spectrum_two_point_pairs():
    S0 = lg.skeleton(1, 0)
    table = lg.spectrum_table(S0)
    composed = lg.join_spectrum([table, table], 0)
    assert lg.multiset_close(composed.values, [2.0, 2.0, 4.0, 4.0])
    direct = lg.eigenvalues(lg.laplacian(lg.join(S0, S0), 0))
    assert lg.multiset_close(composed.values, direct.values, 1e-8)


def test_join_spectrum_matches_direct(small_corpus):
    rng = random.Random(13)
    for _ in range(10):
        X = random_complex(rng, rng.randint(2, 4))
        Y = random_complex(rng, rng.randint(2, 4))
        J = lg.join(X, Y)
        tables = [lg.spectrum_table(X), lg.spectrum_table(Y)]
        for k in range(-1, J.dim + 1):
            composed = lg.join_spectrum(tables, k)
            direct = lg.eigenvalues(lg.laplacian(J, k))
            assert lg.multiset_close(composed.values, direct.values, 1e-8)


def test_join_with_simplex_shifts_gap():
    # joining a full simplex on r vertices adds its constant spectrum r
    rng = random.Random(21)
    for r in (1, 2):
        X = random_complex(rng, 4)
        J = lg.join(X, lg.full_simplex(r - 1))
        for k in range(-1, J.dim + 1):
            window = [
                lg.spectral_gap(X, i)
                for i in range(max(-1, k - r), min(k, X.dim) + 1)
            ]
            assert abs(lg.spectral_gap(J, k) - (r + min(window))) < 1e-8


def test_join_spectrum_out_of_range_warns():
    table = lg.spectrum_table(lg.skeleton(1, 0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = lg.join_spectrum([table, table], 5)
    assert spec.size == 0
    assert caught


def test_join_spectrum_table_validation():
    with pytest.raises(InputError):
        lg.join_spectrum([], 0)
    with pytest.raises(InputError):
        lg.join_spectrum([{0: [1.0]}], 0)  # table must start at -1
    with pytest.raises(InputError, match="Spectrum"):
        lg.join_spectrum([{-1: [1.0], 0: [1.0]}], 0)  # floats are not a Spectrum


# --- trace and profile ----------------------------------------------------------------


def test_trace_identity(small_corpus):
    for X in small_corpus[:25]:
        for k in range(0, X.dim + 1):
            L = lg.laplacian(X, k)
            expected = sum(lg.degree(X, s) + k + 1 for s in X.faces(k))
            assert int(np.trace(L.mat)) == expected
            eigsum = sum(lg.eigenvalues(L).values)
            assert abs(eigsum - expected) <= 1e-6 * max(1, expected)


def test_spectral_profile_shape():
    prof = lg.spectral_profile(c5())
    assert prof.n == 5 and prof.dim == 1
    assert [row.k for row in prof.rows] == [-1, 0, 1]
    assert prof.rows[0].gap == 5.0
    assert prof.rows[2].betti == 1  # the cycle
    assert prof.rows[1].spectrum.size == 5


# --- each check fires ------------------------------------------------------------------
# A fault goes in through a module attribute the check calls, on a freshly
# built complex: the Hodge context keeps its values per complex.


def test_negative_eigenvalue_raises(monkeypatch):
    eigenvalues = spectral.eigenvalues
    monkeypatch.setattr(spectral, "eigenvalues",
                        lambda M: lg.Spectrum((-1e-6,) + eigenvalues(M).values[1:]))
    with pytest.raises(IntegrityError, match="eigenvalue -1e-06 < -1e-09; not PSD"):
        lg.spectral_gap(c5(), 0)


def test_kernel_count_off_the_field_rank_raises(monkeypatch):
    eigenvalues = spectral.eigenvalues

    def one_zero_moved(M):
        vals = list(eigenvalues(M).values)
        assert abs(vals[0]) < spectral.ZERO_EIG_TOL < vals[1]  # the cycle's one zero
        return lg.spectrum_of([1.0] + vals[1:])

    monkeypatch.setattr(spectral, "eigenvalues", one_zero_moved)
    with pytest.raises(IntegrityError, match="betti mismatch at k=1: kernel count 0 vs field rank 1"):
        lg.betti(c5(), 1)


def test_balanced_kernel_checks_its_vectors():
    # a copy with the sign rule flipped builds (1, -1), which M does not annihilate
    M = np.array([[1, -1], [-1, 1]])
    assert [x.tolist() for x in spectral.balanced_kernel(M)] == [[1, 1]]
    source = inspect.getsource(spectral.balanced_kernel)
    rule = "s = -sign[i] if a > 0 else sign[i]"
    assert source.count(rule) == 1
    namespace = dict(vars(spectral))
    flipped = source.replace(rule, "s = sign[i] if a > 0 else -sign[i]")
    exec(compile(flipped, spectral.__file__, "exec"), namespace)
    with pytest.raises(IntegrityError, match="a balanced kernel vector is not in the kernel"):
        namespace["balanced_kernel"](M)
