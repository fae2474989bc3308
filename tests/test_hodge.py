"""The per-complex Hodge context against the independent reference routes."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import lapgap as lg
from lapgap import complexes, hodge, operators, spectral
from lapgap.errors import IntegrityError


def fresh(X: lg.SimplicialComplex) -> lg.SimplicialComplex:
    """An equal complex with an empty context."""
    return lg.SimplicialComplex(X.n, X.all_faces())


def test_context_laplacian_matches_both_routes(small_corpus):
    for X in small_corpus:
        for k in range(-1, X.dim + 1):
            L = hodge.laplacian(X, k).mat
            up = lg.coboundary_matrix(X, k).mat
            composed = up.T @ up
            if k >= 0:
                down = lg.coboundary_matrix(X, k - 1).mat
                composed = composed + down @ down.T
                assert np.array_equal(L, lg.laplacian_entrywise(X, k).mat)
            assert composed.dtype == np.int64 and L.dtype == np.int64
            assert np.array_equal(L, composed)


def test_context_degrees_match_degree(small_corpus):
    for X in small_corpus:
        for k in range(-1, X.dim + 1):
            faces = X.faces(k)
            assert hodge.degrees(X, k).tolist() == [lg.degree(X, s) for s in faces]
            if k >= 0:
                sums = [sum(lg.degree(X, s[:i] + s[i + 1 :]) for i in range(k + 1)) for s in faces]
                assert hodge.facet_degree_sums(X, k).tolist() == sums


def test_profiles_assemble_and_solve_each_laplacian_once(small_corpus, monkeypatch):
    assembled: Counter = Counter()
    solved: Counter = Counter()
    densified: Counter = Counter()
    laplacian, eigenvalues = operators.laplacian, spectral.eigenvalues
    coboundary = operators.coboundary_matrix

    def counting_laplacian(X, k):
        assembled[k] += 1
        return laplacian(X, k)

    def counting_eigenvalues(M, *args, **kwargs):
        solved[len(M.rows[0]) - 1] += 1
        return eigenvalues(M, *args, **kwargs)

    def counting_coboundary(X, k):
        densified[k] += 1
        return coboundary(X, k)

    monkeypatch.setattr(operators, "laplacian", counting_laplacian)
    monkeypatch.setattr(spectral, "eigenvalues", counting_eigenvalues)
    monkeypatch.setattr(operators, "coboundary_matrix", counting_coboundary)
    for X in small_corpus:
        X = fresh(X)
        for k in range(-1, X.dim + 1):
            hodge.laplacian(X, k)
        assert not densified  # the Laplacians read the facet tables only
        X = fresh(X)
        assembled.clear()
        solved.clear()
        lg.bound_profile(X)
        lg.spectral_profile(X)
        for calls in (assembled, solved):
            assert set(range(X.dim + 1)) <= set(calls) <= set(range(-1, X.dim + 1))
            assert max(calls.values(), default=1) == 1
        assert not densified  # the ranks reduce the facet tables too


def test_missing_faces_searched_once_per_complex(small_corpus, monkeypatch):
    searched = []
    search = complexes.missing_faces

    def counting_search(X):
        searched.append(X)
        return search(X)

    monkeypatch.setattr(complexes, "missing_faces", counting_search)
    for X in small_corpus[:20]:
        X = fresh(X)
        searched.clear()
        lg.bound_profile(X)
        lg.spectral_gap_bound(X, X.dim)
        lg.vanishing_threshold(X)
        lg.degree_sum_check(X, X.faces(0)[0])
        assert hodge.missing_faces(X) == search(X)
        assert len(searched) == 1


def test_non_integral_product_raises(monkeypatch):
    signs = operators._facet_signs
    monkeypatch.setattr(operators, "_facet_signs", lambda k: signs(k) * 0.5)
    with pytest.raises(IntegrityError, match="k=1: the float32 Laplacian product is not integral"):
        lg.laplacian(lg.skeleton(2, 1), 1)


def test_context_dies_with_its_complex(small_corpus):
    X = fresh(lg.skeleton(3, 1))
    assert X._hodge is None
    lg.spectral_gap(X, 1)
    assert type(X._hodge) is dict
    Y = fresh(X)
    assert Y == X and hash(Y) == hash(X) and Y._hodge is None
    with pytest.raises(ValueError):
        hodge.laplacian(X, 1).mat[0, 0] = 0  # cached arrays are read-only
    for X in small_corpus:
        assert hodge.missing_faces(X) is hodge.missing_faces(X)
        for k in range(-1, X.dim + 1):
            gets = [hodge.facet_index, hodge.degrees, lambda X, k: hodge.laplacian(X, k).mat]
            if k >= 0:
                gets.append(hodge.facet_degree_sums)
            for get in gets:
                arr = get(X, k)
                assert arr is get(X, k) and not arr.flags.writeable
