"""The tight family, equality characterization, isomorphism, and the probe."""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

import lapgap as lg
from lapgap.complexes import SimplicialComplex, facets
from lapgap.errors import DomainError, InputError, IntegrityError, SizeLimitError
from lapgap.extremal import (
    ProbeHit,
    _candidate_targets,
    _canonical_for,
    _layered_walk,
    from_missing_faces,
    graphs_up_to_isomorphism,
    isomorphic,
)
from lapgap.spectral import spectral_gap

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
            assert row.mu_exact
            assert abs(row.mu_eigen - row.mu_predicted) <= 1e-8
            assert abs(row.mu_join - row.mu_predicted) <= 1e-8
            assert row.delta_actual == row.delta_predicted


def test_verify_z_family_refuses_over_cap():
    with pytest.raises(SizeLimitError):
        lg.verify_z_family(3, 3, 1)


@pytest.mark.parametrize("shift,raises", [(-1, False), (1, True)])
def test_verify_z_family_decides_each_mu_exactly(monkeypatch, shift, raises):
    # a closed form one below the gap fails its row's exact test; one above
    # exceeds the row bound of a tight Laplacian, which contradicts the bound
    predicted = lg.extremal.predicted_z_profile

    def shifted(d, t, r):
        rows = list(predicted(d, t, r))
        rows[2] = lg.extremal.ZProfileRow(k=rows[2].k, mu=rows[2].mu + shift, delta=rows[2].delta)
        return tuple(rows)

    monkeypatch.setattr(lg.extremal, "predicted_z_profile", shifted)
    if raises:
        with pytest.raises(IntegrityError, match="row bound 4 < target 5 at k=1"):
            lg.verify_z_family(2, 2, 1)
        return
    report = lg.verify_z_family(2, 2, 1)
    assert not report.ok
    assert [row.mu_exact for row in report.rows] == [True, True, False, True, True, True]


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


def test_equality_witness_is_in_vertex_order():
    # the search maps vertex 4 of canonical (5, 2) first; the witness lists it last
    rng = random.Random(23)
    perm = list(range(6))
    rng.shuffle(perm)
    for X, k in [(lg.canonical_equality_complex(5, 2), 2),
                 (lg.relabel(lg.canonical_equality_complex(6, 3), perm), 3)]:
        witness = lg.equality_case_check(X, k).witness
        assert list(witness) == list(range(X.n))


@pytest.mark.parametrize("cap,raises", [(2**6 - 1, False), (2**6 - 2, True)])
def test_cliques_are_capped_as_they_are_built(monkeypatch, cap, raises):
    # K_6 has 2**6 - 1 nonempty cliques
    monkeypatch.setattr(lg.extremal, "MAX_FACES", cap)
    edges = list(combinations(range(6), 2))
    if raises:
        with pytest.raises(SizeLimitError, match=f"over {cap} cliques"):
            lg.extremal._cliques(6, edges)
    else:
        assert sum(map(len, lg.extremal._cliques(6, edges).values())) == cap


def test_equality_without_an_isomorphism_raises(monkeypatch):
    # mu_2 = 2*3 - 5 holds on the canonical complex; no witness contradicts the theorem
    monkeypatch.setattr(lg.extremal, "isomorphic", lambda X, Y: None)
    with pytest.raises(IntegrityError, match="mu_2 = 1 holds but the complex is not isomorphic"):
        lg.equality_case_check(lg.canonical_equality_complex(5, 2), 2)


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
    # verify_z_family decides mu_k exactly and takes no tol at all
    with pytest.raises(TypeError):
        lg.verify_z_family(2, 2, 1, tol=tol)


@pytest.mark.parametrize("noise,hits", [(1e-12, 10), (1e-3, None)])
def test_equality_is_decided_exactly_and_checks_the_eigensolve(monkeypatch, noise, hits):
    # float noise on every eigenvalue moves no verdict; an eigensolve off
    # the exact verdict by more than BOUND_TOL contradicts it
    eigenvalues = lg.spectral.eigenvalues
    monkeypatch.setattr(lg.spectral, "eigenvalues", lambda M: lg.spectral.Spectrum(
        tuple(v + noise for v in eigenvalues(M).values)))
    if hits is None:
        with pytest.raises(IntegrityError, match="exact test"):
            lg.probe_equality_cases(2, 5)
        with pytest.raises(IntegrityError, match="exact test"):
            lg.equality_case_check(lg.build_z(1, 2, 1), 2)
    else:
        assert len(lg.probe_equality_cases(2, 5).hits) == hits
        assert lg.equality_case_check(lg.build_z(1, 2, 1), 2).holds


def test_negative_budget_is_refused():
    for mode in ("exhaustive", "random"):
        with pytest.raises(InputError):
            lg.probe_equality_cases(2, 5, mode=mode, budget=-3)


def test_exhaustive_cap_counts_selections_before_enumerating(monkeypatch):
    # K_n alone offers 2^(sum of C(n, c), c = 3..d+1) selections: 35 bits here
    def refuse(n):
        raise AssertionError("enumerated before the cap was checked")

    monkeypatch.setattr(lg.extremal, "_graph_classes", refuse)
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
    rep = lg.probe_equality_cases(2, 4)
    assert eg == rep.examined == 20 and cg and rep.complete
    assert sorted((h.k, h.facets) for h in hg) == sorted((h.k, h.facets) for h in rep.hits)


# The engines the one screen replaced, kept verbatim as oracles: the
# layered walk that built and eigensolved every selection, and the random
# sampler that eigensolved every sample.  They confirm a pair with the
# float test the exact one replaced, also kept verbatim.

HIT_CONFIRM_TOL = 1e-10


def _verify_hit(
    X: SimplicialComplex, d: int, k: int, target: int, tol: float
) -> ProbeHit | None:
    if k > X.dim:
        return None
    mu = spectral_gap(X, k)
    err = abs(mu - target)
    if err > tol:
        return None
    if err > HIT_CONFIRM_TOL:
        raise IntegrityError(
            f"ambiguous near-equality at k={k}: |mu - {target}| = {err:.3e} "
            f"is inside tol={tol} but fails the confirmation tolerance {HIT_CONFIRM_TOL}"
        )
    canonical = _canonical_for(X.num_vertices, k, d)
    iso = isomorphic(X, canonical) is not None
    return ProbeHit(
        n=X.num_vertices,
        d=d,
        k=k,
        mu=mu,
        target=target,
        isomorphic_to_canonical=iso,
        facets=facets(X),
    )


def _cliques_by_size(n: int, eset: set[tuple[int, int]], max_size: int) -> dict[int, list[tuple[int, ...]]]:
    out: dict[int, list[tuple[int, ...]]] = {}
    for c in range(3, max_size + 1):
        out[c] = [
            s for s in combinations(range(n), c)
            if all(p in eset for p in combinations(s, 2))
        ]
    return out


def _enumerate_layered(
    n: int, d: int, eset: set[tuple[int, int]]
) -> Iterator[list[tuple[int, ...]]]:
    """Missing-face selections of cardinalities 3..d+2, top layer nonempty.

    Yields the flat list of missing faces of dimension >= 2; together with
    the non-edges they form the full minimal-non-face antichain of a complex
    with maximal missing dimension d.
    """
    cliques = _cliques_by_size(n, eset, d + 1)

    def rec(c: int, chosen: list[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
        eligible = [
            s for s in cliques[c]
            if not any(set(m) <= set(s) for m in chosen)
        ]
        last = c == d + 1
        for mask in range(1 << len(eligible)):
            layer = [eligible[i] for i in range(len(eligible)) if (mask >> i) & 1]
            if last:
                if layer:
                    yield chosen + layer
            else:
                yield from rec(c + 1, chosen + layer)

    yield from rec(3, [])


def _probe_general(
    n: int, d: int, budget: int | None, tol: float
) -> tuple[list[ProbeHit], int, bool]:
    targets = _candidate_targets(n, d)
    hits: list[ProbeHit] = []
    examined = 0
    for edges in graphs_up_to_isomorphism(n):
        eset = {tuple(sorted(e)) for e in edges}
        nonedges = [p for p in combinations(range(n), 2) if p not in eset]
        for extra in _enumerate_layered(n, d, eset):
            if budget is not None and examined >= budget:
                return hits, examined, False
            examined += 1
            X = from_missing_faces(n, list(nonedges) + extra)
            for k, target in targets:
                hit = _verify_hit(X, d, k, target, tol)
                if hit is not None:
                    hits.append(hit)
    return hits, examined, True


def _probe_random(
    n: int, d: int, budget: int, seed: int, tol: float
) -> tuple[list[ProbeHit], int]:
    rng = random.Random(seed)
    targets = _candidate_targets(n, d)
    hits: list[ProbeHit] = []
    examined = 0
    for _ in range(budget):
        examined += 1
        p = rng.uniform(0.3, 0.95)
        eset = {e for e in combinations(range(n), 2) if rng.random() < p}
        cliques = _cliques_by_size(n, eset, d + 1)
        chosen: list[tuple[int, ...]] = []
        ok = True
        for c in range(3, d + 2):
            eligible = [
                s for s in cliques[c] if not any(set(m) <= set(s) for m in chosen)
            ]
            if c == d + 1:
                if not eligible:
                    ok = False
                    break
                q = rng.uniform(0.1, 0.9)
                layer = [s for s in eligible if rng.random() < q]
                if not layer:
                    layer = [eligible[rng.randrange(len(eligible))]]
            else:
                q = rng.uniform(0.0, 0.5)
                layer = [s for s in eligible if rng.random() < q]
            chosen.extend(layer)
        if not ok:
            continue
        nonedges = [e for e in combinations(range(n), 2) if e not in eset]
        X = from_missing_faces(n, nonedges + chosen)
        for k, target in targets:
            hit = _verify_hit(X, d, k, target, tol)
            if hit is not None:
                hits.append(hit)
    return hits, examined


def _report(rep):
    return [list(rep.hits), rep.examined, rep.complete]


# (4,6) and (3,7) with a budget of 3000, where the oracle takes seconds, are
# pinned by their stdout digests in tests/test_cli.py instead
@pytest.mark.parametrize("d,n,budget", [(3, 4, 1000), (3, 4, 2000), (3, 5, 1000), (3, 5, 2000),
                                        (3, 6, 1000), (3, 6, 2000), (4, 5, None)])
def test_engine_matches_the_layered_oracle(d, n, budget):
    assert _report(lg.probe_equality_cases(d, n, budget=budget)) == list(
        _probe_general(n, d, budget, 1e-7))


@pytest.mark.parametrize("d,n", [(2, 5), (2, 6), (2, 7), (3, 6), (2, 8)])
def test_random_mode_matches_the_sampling_oracle(d, n):
    for seed in range(3):
        hits, examined = _probe_random(n, d, 100, seed, 1e-7)
        rep = lg.probe_equality_cases(d, n, mode="random", budget=100, seed=seed)
        assert _report(rep) == [hits, examined, True], seed


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
                                      (6, 3000), (6, 70000), (6, 120000)] + [
    (n, budget) for n in (3, 4, 5, 6) for budget in (100, 3000, 120000)
    if (n, budget) not in ((5, 100), (6, 3000), (6, 120000))] + [(7, 5000)])
def test_integer_screen_matches_the_float_screen(n, budget):
    # (6, 120000) reaches 20 hits of K_6 across many screen batches, so it
    # checks the order of the hits too
    assert _report(lg.probe_equality_cases(2, n, budget=budget)) == list(
        _float_screen_probe_d2(n, budget, 1e-7))


def test_batched_min_row_is_the_degree_row_bound():
    # a graph with no 4-clique drops the target k=3: its rows read inf
    cases = [(2, lg.graphs_up_to_isomorphism(5)[-1]),
             (2, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (0, 4))),
             (3, lg.graphs_up_to_isomorphism(5)[-2])]
    for d, edges in cases:
        for count, screen, live, missing in _layered_walk(5, d, [edges]):
            low = screen.min_rows(live) if screen.targets else np.zeros((count, 0))
            for i in range(count):
                X = lg.from_missing_faces(5, missing(i))
                rows = dict(zip([k for k, _ in screen.targets], low[i]))
                for k, _ in _candidate_targets(5, d):
                    expect = lg.gershgorin_from_degrees(X, k) if X.faces(k) else np.inf
                    assert rows.get(k, np.inf) == expect, (edges, missing(i), k)


def _screen_equalities(n, edges, top=None):
    """(complex, k, target, kept by the rank) for each pair at the screen's
    equality among the first ``top`` complexes the walk builds on a graph."""
    for count, screen, live, missing in _layered_walk(n, 2, [edges]):
        count = count if top is None else min(count, top)
        if screen.targets:
            low = screen.min_rows(live[:count])
            for j, (k, target) in enumerate(screen.targets):
                for i in np.flatnonzero(low[:, j] == target):
                    yield (lg.from_missing_faces(n, missing(i)), k, target,
                           screen.singular(live[i], k, target))
        if top is not None:
            top -= count
            if not top:
                return


def test_rank_keeps_the_hits_and_drops_only_gaps_above_the_target():
    # n=5: all 10 pairs at equality are hits.  n=6: K_6 minus an edge has
    # 36 pairs at equality and no hit; the first 4095 triangle sets of K_6
    # have 14 hits among 609 pairs
    kept = dropped = 0
    cases = [(5, edges, None) for edges in lg.graphs_up_to_isomorphism(5)]
    cases += [(6, lg.graphs_up_to_isomorphism(6)[-2], None),
              (6, lg.graphs_up_to_isomorphism(6)[-1], (1 << 12) - 1)]
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


def test_one_screen_serves_every_mode(monkeypatch):
    # a row bound below its target contradicts the paper's bound: with every
    # row value lowered by one, each mode meets such a row and refuses
    min_rows = lg.extremal._Screen.min_rows
    monkeypatch.setattr(lg.extremal._Screen, "min_rows", lambda self, live: min_rows(self, live) - 1)
    for kw in (dict(d=3, n=5), dict(d=2, n=5, mode="random", budget=200),
               dict(d=3, n=5, mode="random", budget=1000)):
        with pytest.raises(IntegrityError, match="degree row bound .* the bound is violated"):
            lg.probe_equality_cases(**kw)


def test_a_screen_the_fresh_laplacian_contradicts_raises(monkeypatch):
    # every pair at the row bound kept (at n=5 each of them holds, at n=6
    # not): the confirm, deciding again on the freshly built complex's own
    # L_k, refuses the ones that do not hold
    monkeypatch.setattr(lg.extremal._Screen, "singular", lambda self, live, k, target: True)
    with pytest.raises(IntegrityError, match="its Laplacian does not"):
        lg.probe_equality_cases(2, 6, mode="random", budget=300, seed=9)


def test_top_layers_wider_than_a_batch_value(monkeypatch):
    # tops past _T_BITS are picked outside the uint64 batch values
    expect = [_report(lg.probe_equality_cases(d, 5)) for d in (2, 3)]
    monkeypatch.setattr(lg.extremal, "_T_BITS", 2)
    assert [_report(lg.probe_equality_cases(d, 5)) for d in (2, 3)] == expect


def test_k8_offers_70_tops_at_d3(monkeypatch):
    K8 = tuple(combinations(range(8), 2))
    monkeypatch.setitem(globals(), "graphs_up_to_isomorphism", lambda n: (K8,))
    walk = lg.extremal._layered_walk(8, 3, [K8])
    assert list(lg.extremal._probe(8, 3, walk, 50)) == list(
        _probe_general(8, 3, 50, 1e-7))


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


def test_probe_seed_is_refused_outside_random_mode():
    # exhaustive mode would ignore a seed, 0 included
    for seed in (9, 0):
        with pytest.raises(InputError, match=r"^--seed applies to --mode random only$"):
            lg.probe_equality_cases(2, 5, seed=seed)
    assert lg.probe_equality_cases(2, 5).seed is None
    unseeded = lg.probe_equality_cases(2, 6, mode="random", budget=100)
    assert unseeded == lg.probe_equality_cases(2, 6, mode="random", budget=100, seed=0)
    assert unseeded.seed == 0
