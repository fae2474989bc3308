"""Signs, coboundaries, Laplacian assembly routes, and the Bochner split."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapgap as lg
from lapgap import hodge
from lapgap.errors import InputError, SizeLimitError

from conftest import random_complex

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def c5():
    return lg.clique_complex(5, C5_EDGES)


# frozen 5x5 Laplacian of the five-cycle at dimension 0: diagonal 3,
# off-diagonal +1 exactly at the non-adjacent vertex pairs
C5_L0 = np.array(
    [
        [3, 0, 1, 1, 0],
        [0, 3, 0, 1, 1],
        [1, 0, 3, 0, 1],
        [1, 1, 0, 3, 0],
        [0, 1, 1, 0, 3],
    ]
)


# --- sign ----------------------------------------------------------------------


def test_sign_examples():
    assert lg.sign((0, 1, 2), (1, 2)) == 1
    assert lg.sign((0, 1, 2), (0, 2)) == -1
    assert lg.sign((0, 1, 2), ()) == 1
    assert lg.sign((0, 1, 2, 3), (0, 1, 2, 3)) == 1


def test_sign_codimension_one_rule():
    s = (2, 5, 7, 11)
    for i in range(len(s)):
        tau = s[:i] + s[i + 1 :]
        assert lg.sign(s, tau) == (-1) ** i


def test_sign_rejects_non_subset():
    with pytest.raises(InputError):
        lg.sign((0, 1, 2), (3,))


def _oracle_sign(sigma, tau):
    # build the reordered word (sigma \ tau, tau) and count inversions of the
    # position sequence it induces on sigma
    rest = [v for v in sigma if v not in tau]
    word = rest + list(tau)
    perm = [sigma.index(v) for v in word]
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sign_matches_inversion_count(data):
    sigma = tuple(sorted(data.draw(st.sets(st.integers(0, 11), min_size=1, max_size=7))))
    tau = tuple(sorted(data.draw(st.sets(st.sampled_from(sigma), max_size=len(sigma)))))
    assert lg.sign(sigma, tau) == _oracle_sign(sigma, tau)


# --- coboundary -----------------------------------------------------------------


def test_coboundary_minus_one_is_all_ones():
    for X in (c5(), lg.full_simplex(3)):
        M = lg.coboundary_matrix(X, -1)
        assert M.mat.shape == (X.num_vertices, 1)
        assert np.all(M.mat == 1)


def test_coboundary_triangle_boundary():
    X = lg.skeleton(2, 1)
    M = lg.coboundary_matrix(X, 0)
    # rows (0,1),(0,2),(1,2) against columns (0,),(1,),(2,)
    expect = np.array([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    assert np.array_equal(M.mat, expect)
    assert M.entry((0, 1), (1,)) == 1
    assert M.entry((0, 1), (0,)) == -1


def test_coboundary_matches_per_entry_signs(small_corpus):
    for X in small_corpus:
        for k in range(-1, X.dim + 1):
            M = lg.coboundary_matrix(X, k)
            expect = np.zeros(M.shape, dtype=np.int64)
            for i, s in enumerate(M.rows):
                for tau in combinations(s, len(s) - 1):
                    expect[i, M.cols.index(tau)] = lg.sign(s, tau)
            assert M.mat.dtype == np.int64 and np.array_equal(M.mat, expect)


def test_coboundary_out_of_range():
    with pytest.raises(InputError):
        lg.coboundary_matrix(c5(), 2)


def test_coboundary_squares_to_zero(small_corpus):
    for X in small_corpus[:30]:
        for k in range(-1, X.dim):
            up = lg.coboundary_matrix(X, k + 1).mat
            lo = lg.coboundary_matrix(X, k).mat
            assert not (up @ lo).any()


def test_transpose_is_adjoint():
    rng = random.Random(5)
    X = c5()
    d0 = lg.coboundary_matrix(X, 0).mat
    for _ in range(10):
        phi = np.array([rng.randint(-5, 5) for _ in range(d0.shape[1])])
        psi = np.array([rng.randint(-5, 5) for _ in range(d0.shape[0])])
        assert (d0 @ phi) @ psi == phi @ (d0.T @ psi)


# --- laplacian: both assembly routes ---------------------------------------------


def test_laplacian_minus_one():
    assert lg.laplacian(c5(), -1).mat.tolist() == [[5]]
    assert lg.laplacian(lg.full_simplex(0), -1).mat.tolist() == [[1]]


def test_laplacian_two_points():
    S0 = lg.skeleton(1, 0)
    assert lg.laplacian(S0, 0).mat.tolist() == [[1, 1], [1, 1]]


def test_laplacian_five_cycle_frozen():
    assert np.array_equal(lg.laplacian(c5(), 0).mat, C5_L0)


def test_laplacian_routes_agree(small_corpus):
    for X in small_corpus[:30]:
        for k in range(0, X.dim + 1):
            a = lg.laplacian(X, k).mat
            b = lg.laplacian_entrywise(X, k).mat
            assert np.array_equal(a, b)


def test_laplacian_entry_examples():
    assert lg.laplacian_entry(lg.full_simplex(3), (0, 1), (0, 1)) == 4
    X = c5()
    assert lg.laplacian_entry(X, (0,), (2,)) == 1
    assert lg.laplacian_entry(X, (0,), (1,)) == 0
    with pytest.raises(InputError):
        lg.laplacian_entry(X, (0,), (1, 2))


def test_laplacian_symmetric_and_psd(small_corpus):
    for X in small_corpus[:20]:
        for k in range(-1, X.dim + 1):
            L = lg.laplacian(X, k).mat
            assert np.array_equal(L, L.T)
            assert lg.eigenvalues(L).min() >= -1e-9


# --- Bochner split ----------------------------------------------------------------


def test_bochner_five_cycle():
    X = c5()
    split = lg.bochner_split(X, 1)
    assert np.all(np.diagonal(split.D.mat) == 0)
    assert len(split.edges) == 5
    L1 = lg.laplacian(X, 1).mat
    assert np.array_equal(split.K.mat, L1)


def test_bochner_rejects_minus_one():
    with pytest.raises(InputError):
        lg.bochner_split(c5(), -1)


def test_bochner_exact_over_corpus(small_corpus):
    for X in small_corpus[:25]:
        for k in range(0, X.dim + 1):
            split = lg.bochner_split(X, k)
            L = lg.laplacian(X, k).mat
            assert np.array_equal(split.D.mat + split.K.mat, L)
            assert np.array_equal(split.H @ split.H.T, split.K.mat)
            assert lg.eigenvalues(split.K.mat).min() >= -1e-9


def test_bochner_diagonal_consistency(small_corpus):
    # D(s,s) plus the signed-graph degree recovers deg(s)+k+1
    for X in small_corpus[:15]:
        for k in range(0, X.dim + 1):
            split = lg.bochner_split(X, k)
            deg_g = np.zeros(len(split.basis), dtype=int)
            for i, j in split.edges:
                deg_g[i] += 1
                deg_g[j] += 1
            for idx, s in enumerate(split.basis):
                assert split.D.mat[idx, idx] + deg_g[idx] == lg.degree(X, s) + k + 1


# --- off-diagonal row sums ----------------------------------------------------------


def test_offdiag_row_sum_examples():
    direct, formula = lg.offdiag_abs_row_sum(c5(), 1, (0, 1))
    assert direct == formula == 2
    X = lg.full_simplex(3)
    for s in X.faces(1):
        direct, formula = lg.offdiag_abs_row_sum(X, 1, s)
        assert direct == formula == 0


def test_offdiag_row_sum_corpus(small_corpus):
    for X in small_corpus[:15]:
        for k in range(0, X.dim + 1):
            for s in X.faces(k):
                direct, formula = lg.offdiag_abs_row_sum(X, k, s)
                assert direct == formula


def test_offdiag_row_sum_rejects_bad_input():
    with pytest.raises(InputError):
        lg.offdiag_abs_row_sum(c5(), 1, (0, 2))


# --- basis order and caps -------------------------------------------------------------


def test_spectrum_invariant_under_relabeling():
    rng = random.Random(9)
    for _ in range(8):
        X = random_complex(rng, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        Y = lg.relabel(X, perm)
        for k in range(0, X.dim + 1):
            a = lg.eigenvalues(lg.laplacian(X, k)).values
            b = lg.eigenvalues(lg.laplacian(Y, k)).values
            assert lg.multiset_close(a, b, 1e-8)


def test_dense_cap_refuses_large_bases(monkeypatch):
    def refuse(X, k):
        raise AssertionError("facet table read before the cap was checked")

    monkeypatch.setattr(hodge, "facet_index", refuse)
    X = lg.skeleton(14, 7)  # C(15,8) = 6435 faces in the top dimension
    with pytest.raises(SizeLimitError):
        lg.laplacian(X, 7)
    # |X_4| = 3003 and |X_3| = 1365 fit; only |X_5| = C(15,6) = 5005 is over
    with pytest.raises(SizeLimitError, match="dimension 5 has 5005"):
        lg.laplacian(lg.skeleton(14, 5), 4)


def test_matrix_dump_format():
    S0 = lg.skeleton(1, 0)
    text = lg.laplacian(S0, 0).dumps()
    assert text == "2 2\n0 0 1\n0 1 1\n1 0 1\n1 1 1\n"


def test_entry_outside_the_bases_names_the_face():
    delta = lg.coboundary_matrix(lg.skeleton(2, 1), 0)
    assert delta.entry((0, 1), (1,)) == 1
    with pytest.raises(InputError, match=r"\(0, 1, 2\)"):
        delta.entry((0, 1, 2), (0,))
    with pytest.raises(InputError, match=r"\(0, 1\)"):
        delta.entry((0, 1), (0, 1))
    top = lg.coboundary_matrix(lg.skeleton(2, 1), 1)  # no 2-faces: an empty row basis
    assert top.rows == () and top.shape == (0, 3)
    with pytest.raises(InputError, match=r"\(0, 1, 2\)"):
        top.entry((0, 1, 2), (0, 1))


def test_operators_index_by_the_complex_face_tuples(small_corpus):
    for X in small_corpus:
        for k in range(-1, X.dim + 1):
            L, delta = lg.laplacian(X, k), lg.coboundary_matrix(X, k)
            assert L.rows is X.faces(k) and L.cols is X.faces(k)
            assert delta.rows is X.faces(k + 1) and delta.cols is X.faces(k)
            if k >= 0:
                assert lg.laplacian_entrywise(X, k).rows is X.faces(k)
                assert lg.bochner_split(X, k).basis is X.faces(k)


def test_entrywise_route_does_not_read_the_facet_tables(small_corpus, monkeypatch):
    expect = {
        (i, k): lg.laplacian(X, k).mat
        for i, X in enumerate(small_corpus[:30])
        for k in range(0, X.dim + 1)
    }

    def refuse(X, k):
        raise AssertionError("the entrywise route read a facet table")

    monkeypatch.setattr(hodge, "facet_index", refuse)
    for i, X in enumerate(small_corpus[:30]):
        X = lg.SimplicialComplex(X.n, X.all_faces())  # no cached context
        for k in range(0, X.dim + 1):
            assert np.array_equal(lg.laplacian_entrywise(X, k).mat, expect[i, k])


def _dump_by_entries(mat):
    """Every entry in row-major order, nonzeros written as 'i j value'."""
    lines = [f"{mat.shape[0]} {mat.shape[1]}\n"]
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            if mat[i, j]:
                lines.append(f"{i} {j} {int(mat[i, j])}\n")
    return "".join(lines)


def test_dump_matches_an_entrywise_walk(small_corpus):
    for X in small_corpus[:20]:
        for k in range(-1, X.dim + 1):
            for M in (lg.laplacian(X, k), lg.coboundary_matrix(X, k)):
                assert M.dumps() == _dump_by_entries(M.mat)
