"""Gershgorin bounds, degree-sum identities, the main bound chain, vanishing."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapgap as lg
from lapgap.errors import DomainError, InputError

from conftest import random_complex

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def c5():
    return lg.clique_complex(5, C5_EDGES)


# --- Gershgorin -------------------------------------------------------------------


def test_gershgorin_examples():
    assert lg.gershgorin_lower_bound(np.eye(3, dtype=int)) == 1
    assert lg.gershgorin_lower_bound(lg.laplacian(c5(), 0)) == 1
    assert lg.gershgorin_lower_bound(np.array([[2, -1], [-1, 2]])) == 1
    spec = lg.eigenvalues(np.array([[2, -1], [-1, 2]]))
    assert abs(spec.min() - 1.0) < 1e-12  # tight here


def test_gershgorin_rejects_nonsquare():
    with pytest.raises(InputError):
        lg.gershgorin_lower_bound(np.zeros((2, 3)))
    with pytest.raises(InputError):
        lg.gershgorin_lower_bound(np.zeros((0, 0)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gershgorin_below_spectrum(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    entries = data.draw(
        st.lists(st.integers(-5, 5), min_size=n * n, max_size=n * n)
    )
    M = np.array(entries).reshape(n, n)
    M = M + M.T  # symmetrize
    bound = lg.gershgorin_lower_bound(M)
    assert lg.eigenvalues(M).min() >= bound - 1e-9


def test_gershgorin_equals_degree_route(small_corpus):
    for X in small_corpus[:30]:
        for k in range(0, X.dim + 1):
            assert lg.gershgorin_lower_bound(lg.laplacian(X, k)) == lg.gershgorin_from_degrees(X, k)


# --- degree sums --------------------------------------------------------------------


def test_degree_sum_five_cycle():
    rec = lg.degree_sum_check(c5(), (0, 1))
    assert rec.d == 1 and rec.k == 1
    assert rec.identity_lhs == 4 and rec.identity_rhs == 4
    assert rec.inequality_lhs == 4 and rec.inequality_rhs == 5
    assert rec.identity_holds and rec.inequality_holds and not rec.inequality_tight


def test_degree_sum_complete_complex():
    X = lg.full_simplex(3)  # n=4, complete, convention d=0
    for k in range(0, 4):
        for s in X.faces(k):
            rec = lg.degree_sum_check(X, s, d=0)
            assert rec.inequality_lhs == rec.inequality_rhs == k + 1
            assert rec.identity_holds


def test_degree_sum_tight_on_z_family():
    for d, t, r in ((1, 2, 1), (2, 2, 1), (2, 1, 2)):
        Z = lg.build_z(d, t, r)
        for k in range(0, d * t):
            recs = [lg.degree_sum_check(Z, s, d=d) for s in Z.faces(k)]
            assert all(r_.inequality_holds and r_.identity_holds for r_ in recs)
            assert any(r_.inequality_tight for r_ in recs)


def test_degree_sum_rejects_bad_input():
    with pytest.raises(InputError):
        lg.degree_sum_check(c5(), (0, 2))
    with pytest.raises(InputError):
        lg.degree_sum_check(c5(), ())


def test_degree_sum_holds_over_corpus(small_corpus):
    for X in small_corpus[:25]:
        d, _ = lg.effective_missing_dim(X)
        for k in range(0, X.dim + 1):
            for s in X.faces(k):
                rec = lg.degree_sum_check(X, s, d=d)
                assert rec.identity_holds
                assert rec.inequality_holds


def degree_sum_by_probe(X, s, d):
    """The record rebuilt from ``degree``, which probes every vertex."""
    k = len(s) - 1
    n = X.num_vertices
    deg_s = lg.degree(X, s)
    facet_deg = sum(lg.degree(X, s[:i] + s[i + 1 :]) for i in range(len(s)))
    overlap = sum(
        tuple(sorted(s[:i] + s[i + 1 :] + (v,))) in X
        for v in X.vertices()
        if v not in s and tuple(sorted(s + (v,))) not in X
        for i in range(len(s))
    )
    return lg.DegreeSumRecord(
        sigma=s, k=k, d=d,
        inequality_lhs=facet_deg - (k - d + 1) * deg_s,
        inequality_rhs=d * n - (d - 1) * (k + 1),
        identity_lhs=facet_deg,
        identity_rhs=(k + 1) * (deg_s + 1) + overlap,
    )


def test_degree_sum_reads_the_degrees_of_the_context(small_corpus):
    for X in small_corpus:
        d, _ = lg.effective_missing_dim(X)
        for k in range(0, X.dim + 1):
            for s in X.faces(k):
                assert lg.degree_sum_check(X, s) == degree_sum_by_probe(X, s, d)


# --- the bound chain ------------------------------------------------------------------


def test_bound_five_cycle():
    rep = lg.spectral_gap_bound(c5(), 0)
    assert rep.bound == 1 and rep.gershgorin == 1 and rep.row_bound == 1
    assert rep.d == 1 and not rep.d_convention
    assert rep.mu > rep.bound and not rep.tight


def test_bound_tight_on_z221():
    Z = lg.build_z(2, 2, 1)
    rep = lg.spectral_gap_bound(Z, 1)
    assert rep.bound == 4 and abs(rep.mu - 4) < 1e-8 and rep.tight


def test_bound_minus_one_always_tight(small_corpus):
    for X in small_corpus[:15]:
        if not X.has_full_vertex_set():
            continue
        rep = lg.spectral_gap_bound(X, -1)
        assert rep.tight and rep.bound == X.num_vertices


def test_bound_complete_complex_convention():
    X = lg.full_simplex(4)
    for rep in lg.bound_profile(X):
        assert rep.d == 0 and rep.d_convention
        assert rep.bound == 5 and rep.tight


def test_bound_profile_sweeps_corpus(small_corpus):
    for X in small_corpus[:30]:
        for rep in lg.bound_profile(X):
            assert rep.mu >= rep.bound - 1e-7
            assert rep.bound <= rep.row_bound == rep.gershgorin
            assert rep.mu >= rep.gershgorin - 1e-9


def test_bound_domain_error():
    with pytest.raises(DomainError):
        lg.spectral_gap_bound(c5(), 5)


# --- settings that only one value ever reached -------------------------------------------

RETIRED = {
    # d=0 on the 5-cycle used to end in "IntegrityError: bound 3 exceeds row bound 1"
    "spectral_gap_bound-d": lambda: lg.spectral_gap_bound(c5(), 0, d=0),
    "spectral_gap_bound-d_convention": lambda: lg.spectral_gap_bound(c5(), 0, d_convention=False),
    "bound_profile-d": lambda: lg.bound_profile(c5(), d=1),
    "verify_z_family-tol": lambda: lg.verify_z_family(1, 1, 1, tol=1e-8),
    "verify_z_family-face_cap": lambda: lg.verify_z_family(1, 1, 1, face_cap=5000),
    "betti-zero_tol": lambda: lg.betti(c5(), 1, zero_tol=1e-7),
    "spectral_profile-zero_tol": lambda: lg.spectral_profile(c5(), zero_tol=1e-7),
    "eigenvalues-tol": lambda: lg.eigenvalues(np.eye(2), tol=1e-8),
    "spectrum_of-tol": lambda: lg.spectrum_of([1.0], tol=1e-8),
    "Spectrum-tol": lambda: lg.Spectrum((1.0,), 1e-8),
}


@pytest.mark.parametrize("name", RETIRED)
def test_retired_setting_is_a_type_error(name):
    with pytest.raises(TypeError):
        RETIRED[name]()


def test_reports_carry_no_tolerance():
    assert not hasattr(lg.spectrum_of([1.0]), "tol")
    assert not hasattr(lg.verify_z_family(1, 1, 1), "tol")


# --- vanishing threshold ---------------------------------------------------------------


def test_vanishing_examples():
    rep = lg.vanishing_threshold(c5())
    assert rep.k_min == 2 and rep.verified and rep.d == 1

    X = lg.from_missing_faces(6, [(0, 1, 2)])  # h = 2 on six vertices
    rep = lg.vanishing_threshold(X)
    assert rep.k_min == 4 and rep.verified

    rep = lg.vanishing_threshold(lg.full_simplex(4))
    assert rep.verified and rep.d_convention


def test_vanishing_over_corpus(small_corpus):
    for X in small_corpus[:25]:
        rep = lg.vanishing_threshold(X)
        assert rep.verified
        for k in range(rep.k_min, X.dim + 1):
            assert lg.betti(X, k) == 0


# --- monotone sanity: adding faces keeps every check healthy ----------------------------


def test_supercomplex_keeps_identities():
    rng = random.Random(17)
    checked = 0
    for _ in range(20):
        X = random_complex(rng, rng.randint(4, 6))
        report = lg.missing_faces(X)
        if not report.missing:
            continue
        extra = report.missing[rng.randrange(len(report.missing))]
        Y = lg.from_facets(X.n, list(lg.facets(X)) + [extra])
        assert X.num_faces < Y.num_faces
        for rep in lg.bound_profile(Y):
            assert rep.mu >= rep.bound - 1e-7
        assert lg.vanishing_threshold(Y).verified
        checked += 1
    assert checked >= 5
