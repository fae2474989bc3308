"""The tight family, equality characterization, isomorphism, and the probe."""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

import lapgap as lg
from lapgap.complexes import facets
from lapgap.errors import DomainError, InputError, SizeLimitError
from lapgap.extremal import (
    _candidate_targets,
    _D2Graph,
    _D2Tables,
    _probe_fast_d2,
    _probe_general,
    _verify_hit,
)

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


# --- the tight family -----------------------------------------------------------


def test_zparams_validation():
    with pytest.raises(InputError):
        lg.ZParams(1, 0, 1)
    with pytest.raises(InputError):
        lg.ZParams(1, 1, 0)
    with pytest.raises(InputError):
        lg.build_z(0, 2, 1)
    p = lg.ZParams(2, 2, 1)
    assert p.n == 7 and p.dim == 4


def test_build_z_small_cases():
    Z = lg.build_z(1, 2, 1)
    assert Z.n == 5 and Z.dim == 2
    report = lg.missing_faces(Z)
    assert report.missing == ((0, 1), (2, 3)) and report.h == 1

    Z = lg.build_z(2, 1, 1)
    assert Z.n == 4
    assert lg.missing_faces(Z).missing == ((0, 1, 2),)


def test_build_z_missing_face_structure():
    for d in (1, 2, 3):
        for t in (1, 2, 3):
            for r in (1, 2):
                report = lg.missing_faces(lg.build_z(d, t, r))
                assert report.h == d
                assert len(report.missing) == t
                assert all(len(f) == d + 1 for f in report.missing)


def test_predicted_profile_z121():
    rows = lg.predicted_z_profile(1, 2, 1)
    assert [r.mu for r in rows] == [5, 3, 1, 1]
    assert [r.delta for r in rows] == [5, 3, 1, 0]


def test_predicted_profile_z221():
    rows = lg.predicted_z_profile(2, 2, 1)
    assert [r.mu for r in rows] == [7, 7, 4, 4, 1, 1]


def test_predicted_profile_bound_identity():
    for d in (1, 2, 3):
        for t in (1, 2, 3):
            for r in (1, 2):
                n = (d + 1) * t + r
                for row in lg.predicted_z_profile(d, t, r):
                    assert (d + 1) * (row.delta + row.k + 1) - d * n == row.mu


def test_verify_z_family_small_grid():
    for d, t, r in ((1, 2, 1), (2, 2, 1), (3, 1, 2)):
        report = lg.verify_z_family(d, t, r)
        assert report.ok
        for row in report.rows:
            assert abs(row.mu_eigen - row.mu_predicted) <= 1e-8
            assert abs(row.mu_join - row.mu_predicted) <= 1e-8
            assert row.delta_actual == row.delta_predicted


def test_verify_z_family_refuses_over_cap():
    with pytest.raises(SizeLimitError):
        lg.verify_z_family(3, 3, 1)


# --- canonical complexes and the d=1 equality ------------------------------------


def test_canonical_equality_examples():
    X = lg.canonical_equality_complex(5, 2)
    assert X.num_vertices == 5 and X.dim == 2
    assert abs(lg.spectral_gap(X, 2) - 1) < 1e-9

    X = lg.canonical_equality_complex(4, 2)
    assert X.dim == 2
    assert abs(lg.spectral_gap(X, 2) - 2) < 1e-9


def test_canonical_dim_equals_k():
    for n in range(2, 9):
        for k in range(n - 1):
            if 2 * (k + 1) - n < 0:
                continue
            assert lg.canonical_equality_complex(n, k).dim == k


def test_canonical_boundary_shapes():
    # pure pair-join when the target gap is zero; full simplex when k = n-1
    assert lg.canonical_equality_complex(4, 1) == lg.join(lg.skeleton(1, 0), lg.skeleton(1, 0))
    assert lg.canonical_equality_complex(4, 3) == lg.full_simplex(3)


def test_canonical_rejects_bad_parameters():
    with pytest.raises(InputError):
        lg.canonical_equality_complex(6, 1)  # target 2(k+1)-n < 0
    with pytest.raises(InputError):
        lg.canonical_equality_complex(3, 3)  # k > n-1


def test_equality_check_on_canonical():
    X = lg.canonical_equality_complex(5, 2)
    verdict = lg.equality_case_check(X, 2)
    assert verdict.holds and verdict.target == 1
    assert verdict.witness is not None
    # the witness really maps faces onto faces bijectively
    canonical = lg.canonical_equality_complex(5, 2)
    mapped = {tuple(sorted(verdict.witness[v] for v in f)) for f in X.all_faces()}
    assert mapped == set(canonical.all_faces())


def test_equality_check_all_canonical_up_to_ten_vertices():
    for n in range(2, 11):
        for k in range(-1, n):
            if 2 * (k + 1) - n < 0:
                continue
            X = lg.canonical_equality_complex(n, k)
            verdict = lg.equality_case_check(X, k)
            assert verdict.holds and verdict.witness is not None, (n, k)


def test_equality_check_negative_case():
    verdict = lg.equality_case_check(lg.clique_complex(5, C5_EDGES), 0)
    assert not verdict.holds and verdict.target == -3 and verdict.witness is None


def test_equality_check_shuffled_labels():
    rng = random.Random(23)
    X = lg.canonical_equality_complex(6, 3)
    perm = list(range(6))
    rng.shuffle(perm)
    verdict = lg.equality_case_check(lg.relabel(X, perm), 3)
    assert verdict.holds and verdict.witness is not None


def test_equality_check_requires_clique_complex():
    with pytest.raises(InputError):
        lg.equality_case_check(lg.skeleton(2, 1), 1)  # missing face of dimension 2


def test_equality_check_domain():
    with pytest.raises(DomainError):
        lg.equality_case_check(lg.clique_complex(3, []), 4)


# --- isomorphism -----------------------------------------------------------------


def test_isomorphic_self():
    X = lg.clique_complex(5, C5_EDGES)
    iso = lg.isomorphic(X, X)
    assert iso is not None


def test_isomorphic_different_sizes():
    assert lg.isomorphic(lg.skeleton(2, 1), lg.from_facets(4, [(0, 1), (1, 2), (2, 3)])) is None


def test_isomorphic_four_cycles():
    C4 = lg.clique_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    J = lg.join(lg.skeleton(1, 0), lg.skeleton(1, 0))
    mapping = lg.isomorphic(C4, J)
    assert mapping is not None
    assert {tuple(sorted(mapping[v] for v in f)) for f in C4.all_faces()} == set(
        J.all_faces()
    )


def test_isomorphic_distinguishes_regular_graphs():
    # two 2-regular graphs on six vertices with identical degree data
    C6 = lg.from_facets(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = lg.from_facets(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert C6.f_vector() == two_triangles.f_vector()
    assert lg.isomorphic(C6, two_triangles) is None


def test_isomorphic_symmetric(small_corpus):
    rng = random.Random(31)
    for X in small_corpus[:10]:
        if X.num_vertices > 8:
            continue
        fwd = lg.isomorphic(X, X)
        assert fwd is not None
        perm = list(range(X.n))
        rng.shuffle(perm)
        Y = lg.relabel(X, perm)
        assert lg.isomorphic(X, Y) is not None
        assert lg.isomorphic(Y, X) is not None


def test_isomorphic_cap():
    big = lg.full_simplex(14)
    with pytest.raises(SizeLimitError):
        lg.isomorphic(big, big)


# The bucket-and-backtrack enumeration that canonical codes replaced, kept
# as the oracle for class order and representatives.


def _graph_invariant(n, edges):
    adj = {v: set() for v in range(n)}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    deg = {v: len(adj[v]) for v in range(n)}
    profile = sorted((deg[v], tuple(sorted(deg[u] for u in adj[v]))) for v in range(n))
    triangles = sum(
        1 for t in combinations(range(n), 3)
        if t[1] in adj[t[0]] and t[2] in adj[t[0]] and t[2] in adj[t[1]]
    )
    return (n, len(edges), triangles, tuple(profile))


@lru_cache(maxsize=None)
def graphs_by_isomorphism_search(n):
    if n == 1:
        return ((),)
    out = []
    buckets = {}
    new = n - 1
    for parent in graphs_by_isomorphism_search(n - 1):
        for mask in range(1 << new):
            edges = parent + tuple((v, new) for v in range(new) if (mask >> v) & 1)
            bucket = buckets.setdefault(_graph_invariant(n, edges), [])
            C = lg.from_facets(n, edges)
            if any(lg.isomorphic(C, other) is not None for other in bucket):
                continue
            bucket.append(C)
            out.append(edges)
    return tuple(out)


def test_graph_classes_match_the_isomorphism_search():
    for n in range(1, 7):
        assert lg.graphs_up_to_isomorphism(n) == graphs_by_isomorphism_search(n), n
    assert len(lg.graphs_up_to_isomorphism(7)) == 1044
    with pytest.raises(SizeLimitError):
        lg.graphs_up_to_isomorphism(9)


def test_graphs_up_to_isomorphism_counts():
    assert [len(lg.graphs_up_to_isomorphism(n)) for n in range(1, 7)] == [
        1,
        2,
        4,
        11,
        34,
        156,
    ]


# --- the probe --------------------------------------------------------------------


def test_probe_validation():
    with pytest.raises(InputError):
        lg.probe_equality_cases(1, 5)
    with pytest.raises(InputError):
        lg.probe_equality_cases(2, 2)
    with pytest.raises(SizeLimitError):
        lg.probe_equality_cases(2, 12)
    with pytest.raises(InputError):
        lg.probe_equality_cases(2, 5, mode="guess")


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, -math.inf])
def test_bad_tol_is_refused(tol):
    with pytest.raises(InputError):
        lg.probe_equality_cases(2, 5, tol=tol)
    with pytest.raises(InputError):
        lg.equality_case_check(lg.build_z(1, 2, 1), 2, tol=tol)
    with pytest.raises(InputError):
        lg.verify_z_family(2, 2, 1, tol=tol)


def test_negative_budget_is_refused():
    for mode in ("exhaustive", "random"):
        with pytest.raises(InputError):
            lg.probe_equality_cases(2, 5, mode=mode, budget=-3)


def test_exhaustive_cap_counts_selections_before_enumerating(monkeypatch):
    # K_n alone offers 2^(sum of C(n, c), c = 3..d+1) selections: 35 bits here
    def refuse(n):
        raise AssertionError("enumerated before the cap was checked")

    monkeypatch.setattr(lg.extremal, "graphs_up_to_isomorphism", refuse)
    for d, n in ((2, 7), (3, 6), (2, 12)):
        with pytest.raises(SizeLimitError, match="--budget"):
            lg.probe_equality_cases(d, n)
    monkeypatch.undo()
    # 15 and 16 bits: admitted
    assert lg.probe_equality_cases(3, 5).complete
    assert lg.probe_equality_cases(4, 5).complete
    # a budget bounds the walk, so the cap does not apply
    rep = lg.probe_equality_cases(2, 7, budget=500)
    assert rep.examined == 500 and not rep.complete


def test_probe_exhaustive_n4():
    rep = lg.probe_equality_cases(2, 4)
    assert rep.examined == 20 and rep.complete
    assert len(rep.hits) == 4
    assert all(h.k == 2 and h.target == 1 and h.isomorphic_to_canonical for h in rep.hits)
    assert not rep.counterexamples


def test_probe_finds_canonical_complex_itself():
    # the canonical complex appears among the hits in every exhaustive run
    rep = lg.probe_equality_cases(2, 5)
    assert any(
        h.isomorphic_to_canonical and h.k == 3 and h.target == 2 for h in rep.hits
    )


def test_probe_general_path_matches_fast_path():
    hg, eg, cg = _probe_general(4, 2, None, 1e-7)
    hf, ef, cf = _probe_fast_d2(4, None, 1e-7)
    assert eg == ef == 20 and cg and cf
    assert sorted((h.k, h.facets) for h in hg) == sorted((h.k, h.facets) for h in hf)


# The batched float screen that the exact integer screen replaced, kept as
# the oracle for the d=2 probe's hits, count and order.


def _float_screen_probe_d2(n, budget, tol):
    d = 2
    targets = _candidate_targets(n, d)
    all_pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    subs = {c: list(combinations(range(n), c)) for c in range(0, n + 1)}
    full = lg.full_simplex(n - 1)
    cob = {k: lg.coboundary_matrix(full, k).mat.astype(np.float64) for k in range(-1, n - 1)}
    cards = sorted({c for k, _ in targets for c in (k, k + 1, k + 2)})
    chunk_size = 2048
    screen_tol = 1e-5
    hits = []
    examined = 0
    complete = True
    for edges in lg.graphs_up_to_isomorphism(n):
        eset = {tuple(sorted(e)) for e in edges}
        tris = [t for t in triples if all(p in eset for p in combinations(t, 2))]
        if not tris:
            continue
        ntr = len(tris)
        clique_ok = {}
        tri_bits = {}
        for c in cards:
            ok = []
            bits = []
            for s in subs[c]:
                ok.append(all(p in eset for p in combinations(s, 2)))
                bits.append(sum(1 << ti for ti, t in enumerate(tris) if set(t) <= set(s)))
            clique_ok[c] = np.array(ok, dtype=bool)
            tri_bits[c] = np.array(bits, dtype=np.uint64)
        candidates = []
        t_val = 1
        top = 1 << ntr
        while t_val < top:
            if budget is not None and examined >= budget:
                complete = False
                break
            count = min(chunk_size, top - t_val)
            if budget is not None:
                count = min(count, budget - examined)
            T = np.arange(t_val, t_val + count, dtype=np.uint64)
            t_val += count
            examined += count
            live = {}
            for c in cards:
                if c == 0:
                    live[c] = np.ones((count, 1), dtype=bool)
                else:
                    live[c] = clique_ok[c][None, :] & ((T[:, None] & tri_bits[c][None, :]) == 0)
            for k, target in targets:
                c = k + 1
                rows_live = live[c]
                nlive = rows_live.sum(axis=1)
                sel = np.nonzero(nlive > 0)[0]
                if sel.size == 0:
                    continue
                rmask = rows_live[sel].astype(np.float64)
                down = cob[k - 1][None, :, :] * rmask[:, :, None]
                down = down * live[c - 1][sel].astype(np.float64)[:, None, :]
                L = down @ down.transpose(0, 2, 1)
                if cob[k].shape[0]:
                    up = cob[k][None, :, :] * live[c + 1][sel].astype(np.float64)[:, :, None]
                    up = up * rmask[:, None, :]
                    L = L + up.transpose(0, 2, 1) @ up
                w = np.linalg.eigvalsh(L)
                ndead = (rmask.shape[1] - nlive[sel]).astype(int)
                mu = w[np.arange(sel.size), ndead]
                for pos in np.nonzero(np.abs(mu - target) < screen_tol)[0]:
                    candidates.append((int(T[sel[pos]]), k, target))
        nonedges = [p for p in all_pairs if p not in eset]
        for T_int, k, target in candidates:
            extra = [tris[ti] for ti in range(ntr) if (T_int >> ti) & 1]
            X = lg.from_missing_faces(n, list(nonedges) + extra)
            hit = _verify_hit(X, d, k, target, tol)
            if hit is not None:
                hits.append(hit)
        if not complete:
            break
    return hits, examined, complete


@pytest.mark.parametrize("n,budget", [(3, None), (4, None), (5, None), (5, 100),
                                      (6, 3000), (6, 70000), (6, 120000)])
def test_integer_screen_matches_the_float_screen(n, budget):
    # the last budget reaches 20 hits of K_6 across many screen batches, so
    # it checks the order of the hits too
    assert _probe_fast_d2(n, budget, 1e-7) == _float_screen_probe_d2(n, budget, 1e-7)


def _complex(graph, n, T_int):
    nonedges = [p for p in combinations(range(n), 2) if p not in graph.eset]
    return lg.from_missing_faces(n, nonedges + graph.missing_triangles(T_int))


def test_batched_min_row_is_the_degree_row_bound():
    tables = _D2Tables(5)
    for edges in (lg.graphs_up_to_isomorphism(5)[-1], ((0, 1), (0, 2), (1, 2), (1, 3),
                                                       (2, 3), (2, 4), (3, 4), (0, 4))):
        graph = _D2Graph(tables, edges)
        T = np.arange(1, 1 << len(graph.tris), dtype=np.uint64)
        low = tables.min_rows(graph.live(T))
        for T_int in T.tolist():
            X = _complex(graph, 5, T_int)
            for j, (k, _) in enumerate(tables.targets):
                expect = lg.gershgorin_from_degrees(X, k) if X.faces(k) else np.inf
                assert low[T_int - 1, j] == expect, (edges, T_int, k)


def _screen_equalities(n, edges, top=None):
    """(complex, k, target, kept by the rank) for each pair at the screen's equality."""
    tables = _D2Tables(n)
    graph = _D2Graph(tables, edges)
    T = np.arange(1, top or 1 << len(graph.tris), dtype=np.uint64)
    live = graph.live(T)
    low = tables.min_rows(live)
    for j, (k, target) in enumerate(tables.targets):
        for i in np.flatnonzero(low[:, j] == target):
            yield (_complex(graph, n, int(T[i])), k, target,
                   tables.singular(live[i], k, target))


def test_rank_keeps_the_hits_and_drops_only_gaps_above_the_target():
    # n=5: all 10 pairs at equality are hits.  n=6: K_6 minus an edge has
    # 36 pairs at equality and no hit; the first 4095 triangle sets of K_6
    # have 14 hits among 609 pairs
    kept = dropped = 0
    cases = [(5, edges, None) for edges in lg.graphs_up_to_isomorphism(5)]
    cases += [(6, lg.graphs_up_to_isomorphism(6)[-2], None),
              (6, lg.graphs_up_to_isomorphism(6)[-1], 1 << 12)]
    for n, edges, top in cases:
        for X, k, target, singular in _screen_equalities(n, edges, top):
            mu = lg.spectral_gap(X, k)
            if singular:
                kept += 1
                assert abs(mu - target) < 1e-9
            else:
                dropped += 1
                assert mu > target + 1e-6, (facets(X), k)
    assert (kept, dropped) == (24, 631)


def test_probe_general_d3():
    rep = lg.probe_equality_cases(3, 5)
    assert rep.complete and rep.examined == 447
    assert len(rep.hits) == 5
    assert all(h.k == 3 and h.target == 1 and h.isomorphic_to_canonical for h in rep.hits)


def test_probe_budget_cut_marks_incomplete():
    rep = lg.probe_equality_cases(2, 5, budget=100)
    assert rep.examined == 100 and not rep.complete


def test_probe_random_mode_deterministic():
    a = lg.probe_equality_cases(2, 6, mode="random", budget=200, seed=42)
    b = lg.probe_equality_cases(2, 6, mode="random", budget=200, seed=42)
    assert a == b
    assert a.examined == 200 and a.complete
    c = lg.probe_equality_cases(2, 6, mode="random", budget=200, seed=43)
    assert c.examined == 200
