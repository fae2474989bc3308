"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s tests/test_acceptance.py``
to see them inline.
"""

from __future__ import annotations

import functools
import random
import time
from itertools import combinations
from math import comb

import numpy as np
import pytest

import lapgap as lg
from lapgap.errors import SizeLimitError

from conftest import build_corpus, random_complex

CORPUS_SEED = 20260810
CORPUS_SIZE = 1000


def criterion(num: int, desc: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] FAIL: {desc}")
                raise
            print(f"\n[criterion {num}] PASS: {desc}")

        return inner

    return wrap


@pytest.fixture(scope="module")
def corpus():
    out = build_corpus(CORPUS_SIZE, seed=CORPUS_SEED, n_min=3, n_max=8)
    assert len(out) == CORPUS_SIZE
    return out


@pytest.fixture(scope="module")
def corpus_d(corpus):
    """Missing-face dimension (with complete-complex convention) per corpus entry."""
    return [lg.effective_missing_dim(X) for X in corpus]


@criterion(1, "tight-family closed forms reproduced over the parameter grid")
def test_criterion_1_tight_family_grid():
    start = time.time()
    ran = 0
    for d in (1, 2, 3):
        for t in (1, 2, 3):
            for r in (1, 2):
                params = lg.ZParams(d, t, r)
                if params.total_faces > 5000:
                    with pytest.raises(SizeLimitError):
                        lg.verify_z_family(d, t, r)
                    continue
                report = lg.verify_z_family(d, t, r)
                n = params.n
                for row in report.rows:
                    assert row.mu_exact
                    assert abs(row.mu_eigen - row.mu_predicted) <= 1e-8
                    assert abs(row.mu_join - row.mu_predicted) <= 1e-8
                    assert row.delta_actual == row.delta_predicted
                    assert (d + 1) * (row.delta_predicted + row.k + 1) - d * n == row.mu_predicted
                    assert abs(row.mu_eigen - ((d + 1) * (row.delta_actual + row.k + 1) - d * n)) <= 1e-8
                ran += 1
    assert ran == 16  # two grid points exceed the face cap and must refuse
    elapsed = time.time() - start
    assert elapsed < 60, f"grid took {elapsed:.1f}s"


@criterion(2, "skeleton Laplacian spectra match the closed form for all n <= 7")
def test_criterion_2_skeleton_spectra():
    for n in range(2, 8):
        for k in range(-1, n):
            # skeleton() refuses k = -1; the (-1)-skeleton is the complex induced on no vertex
            X = lg.skeleton(n - 1, k) if k >= 0 else lg.induced(lg.full_simplex(n - 1), ())
            for i in range(-1, k + 1):
                solved = lg.eigenvalues(lg.laplacian(X, i))
                closed = lg.skeleton_spectrum(n, k, i)
                assert lg.multiset_close(solved.values, closed.values, 1e-8), (n, k, i)


@criterion(3, "bound sandwich holds on 1000 random complexes, middle equality exact")
def test_criterion_3_bound_sweep(corpus, corpus_d):
    distinct_d = set()
    for X, (d, conv) in zip(corpus, corpus_d):
        distinct_d.add((d, conv))
        n = X.num_vertices
        for k in range(-1, X.dim + 1):
            delta = lg.min_degree(X, k)
            mu = lg.spectral_gap(X, k)
            bound = (d + 1) * (delta + k + 1) - d * n
            assert mu >= bound - 1e-7, (X, k)
            if k >= 0:
                gersh = lg.gershgorin_lower_bound(lg.laplacian(X, k))
                row = lg.gershgorin_from_degrees(X, k)
                assert gersh == row, (X, k)  # exact integer equality
                assert bound <= row
                assert mu >= gersh - 1e-9
    assert len(distinct_d) >= 3, "corpus should mix missing-face dimensions"


@criterion(4, "exact integer identities hold across the corpus")
def test_criterion_4_exact_identities(corpus, corpus_d):
    for X, (d, _) in zip(corpus, corpus_d):
        cob = {k: lg.coboundary_matrix(X, k).mat for k in range(-1, X.dim + 1)}
        for k in range(-1, X.dim):
            assert not (cob[k + 1] @ cob[k]).any(), "coboundary composition"
        for k in range(0, X.dim + 1):
            basis = X.faces(k)
            L = lg.laplacian(X, k).mat
            assert np.array_equal(L, lg.laplacian_entrywise(X, k).mat)

            deg = {s: lg.degree(X, s) for s in basis}
            for i, s in enumerate(basis):
                facet_deg = sum(
                    lg.degree(X, s[:j] + s[j + 1 :]) for j in range(len(s))
                )
                direct = int(np.abs(L[i]).sum() - abs(L[i, i]))
                assert direct == facet_deg - (k + 1) * (deg[s] + 1), "row-sum identity"

                rec = lg.degree_sum_check(X, s, d=d)
                assert rec.identity_holds, "degree-sum identity"
                assert rec.inequality_holds, "degree-sum inequality"

            split = lg.bochner_split(X, k)
            assert np.array_equal(split.D.mat + split.K.mat, L)
            assert np.array_equal(split.H @ split.H.T, split.K.mat)


@criterion(5, "Betti numbers agree across routes; vanishing threshold confirmed")
def test_criterion_5_hodge_and_vanishing(corpus):
    for X in corpus:
        # betti() raises IntegrityError if the kernel count and the exact
        # field rank disagree
        for k in range(-1, X.dim + 1):
            b = lg.betti(X, k)
            mu = lg.spectral_gap(X, k)
            assert (b == 0) == (mu > 1e-7), (X, k)
        report = lg.vanishing_threshold(X)  # raises on a nonzero Betti number from k_min up
        for k in range(report.k_min, X.dim + 1):
            assert lg.betti(X, k) == 0


@criterion(6, "join spectra compose from factor spectra on 200 random pairs")
def test_criterion_6_join_spectra():
    rng = random.Random(CORPUS_SEED + 6)
    pairs = 0
    while pairs < 200:
        X = random_complex(rng, rng.randint(2, 5))
        Y = random_complex(rng, rng.randint(2, 5))
        if X.num_faces * Y.num_faces > 3000:
            continue
        pairs += 1
        J = lg.join(X, Y)
        tables = [lg.spectrum_table(X), lg.spectrum_table(Y)]
        for k in range(-1, J.dim + 1):
            composed = lg.join_spectrum(tables, k)
            direct = lg.eigenvalues(lg.laplacian(J, k))
            assert lg.multiset_close(composed.values, direct.values, 1e-8), (X, Y, k)


@criterion(7, "d=1 equality cases are exactly the canonical complexes (n <= 7)")
def test_criterion_7_equality_characterization():
    # the canonical complex achieves its target gap for every admissible (n, k)
    for n in range(1, 11):
        for k in range(-1, n):
            target = 2 * (k + 1) - n
            if target < 0 or n - k - 1 < 0:
                continue
            X = lg.canonical_equality_complex(n, k)
            assert abs(lg.spectral_gap(X, k) - target) <= 1e-8, (n, k)

    # exhaustively over clique complexes on <= 7 vertices, the exact verdict
    # agrees with the float test on every pair, and every equality case is
    # isomorphic to the canonical complex; zero integrity errors
    hits = pairs = 0
    for n in range(1, 8):
        for edges in lg.graphs_up_to_isomorphism(n):
            X = lg.clique_complex(n, edges)
            for k in range(-1, X.dim + 1):
                target = 2 * (k + 1) - n
                if target < 0:
                    continue
                verdict = lg.equality_case_check(X, k)
                assert verdict.holds == (abs(lg.spectral_gap(X, k) - target) <= 1e-7), (n, k)
                if verdict.holds:
                    assert verdict.witness is not None
                    hits += 1
                pairs += 1
    assert pairs == 635
    assert hits >= 10  # the family is realized many times at this scale


@criterion(8, "exhaustive d=2 probe on n <= 6 completes with no counterexample")
def test_criterion_8_probe():
    expected_hits = {3: 1, 4: 4, 5: 10, 6: 30}
    for n in range(3, 7):
        report = lg.probe_equality_cases(2, n, mode="exhaustive", seed=0)
        assert report.complete
        assert not report.counterexamples, report.counterexamples
        assert len(report.hits) == expected_hits[n]
        assert all(h.isomorphic_to_canonical for h in report.hits)
    # deterministic under a fixed seed: identical reruns, both modes
    assert lg.probe_equality_cases(2, 5, seed=1) == lg.probe_equality_cases(2, 5, seed=1)
    a = lg.probe_equality_cases(2, 6, mode="random", budget=150, seed=5)
    b = lg.probe_equality_cases(2, 6, mode="random", budget=150, seed=5)
    assert a == b
