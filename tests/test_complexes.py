"""Constructors, queries, and the facet file format."""

from __future__ import annotations

import random
import re
import time
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapgap as lg
from lapgap import complexes, hodge
from lapgap.errors import DomainError, InputError, SizeLimitError

from conftest import random_complex

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def c5():
    return lg.clique_complex(5, C5_EDGES)


def brute_missing(X):
    """Oracle: minimal non-faces straight from the definition."""
    out = []
    for size in range(1, X.n + 1):
        for c in combinations(range(X.n), size):
            if c in X:
                continue
            if all(sub in X for sub in combinations(c, size - 1)):
                out.append(c)
    return sorted(out, key=lambda f: (len(f), f))


def brute_from_missing(n, missing):
    """Oracle: every subset of {0..n-1} that contains no given face."""
    msets = [frozenset(f) for f in missing]
    faces = [
        c
        for size in range(n + 1)
        for c in combinations(range(n), size)
        if not any(m <= set(c) for m in msets)
    ]
    return lg.SimplicialComplex(n, faces)


# --- simplex canonicalization -------------------------------------------------


def test_simplex_sorts_vertices():
    assert lg.simplex([2, 0, 1]) == (0, 1, 2)
    assert lg.simplex([]) == ()


def test_simplex_rejects_duplicates_and_negatives():
    with pytest.raises(InputError):
        lg.simplex([1, 1, 2])
    with pytest.raises(InputError):
        lg.simplex([-1, 0])


# --- from_facets ---------------------------------------------------------------


def test_from_facets_triangle_boundary():
    X = lg.from_facets(3, [{0, 1}, {1, 2}, {0, 2}])
    assert X.f_vector() == (1, 3, 3)
    assert (0, 1, 2) not in X


def test_from_facets_full_tetrahedron():
    X = lg.from_facets(4, [{0, 1, 2, 3}])
    assert X.f_vector() == (1, 4, 6, 4, 1)


def test_from_facets_five_cycle():
    X = lg.from_facets(5, C5_EDGES)
    assert X.dim == 1
    assert len(X.faces(1)) == 5


def test_from_facets_errors():
    with pytest.raises(InputError):
        lg.from_facets(3, [{0, 3}])
    with pytest.raises(InputError):
        lg.from_facets(0, [])


def test_isolated_vertices_are_faces():
    X = lg.from_facets(4, [{0, 1}])
    assert X.num_vertices == 4
    assert (3,) in X


# --- clique_complex ------------------------------------------------------------


def test_clique_complex_fills_triangle():
    X = lg.clique_complex(3, [(0, 1), (1, 2), (0, 2)])
    assert X == lg.full_simplex(2)


def test_clique_complex_five_cycle_missing_faces():
    X = c5()
    report = lg.missing_faces(X)
    assert list(report.missing) == brute_missing(X)
    assert report.missing == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))
    assert report.h == 1


def test_clique_complex_empty_graph():
    X = lg.clique_complex(4, [])
    report = lg.missing_faces(X)
    assert len(report.missing) == 6
    assert report.h == 1


def test_clique_complex_rejects_bad_edges():
    with pytest.raises(InputError):
        lg.clique_complex(3, [(1, 1)])
    with pytest.raises(InputError):
        lg.clique_complex(3, [(0, 5)])


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), ("a", 1), 7, (None, 1)])
def test_clique_complex_names_a_malformed_edge(edge):
    with pytest.raises(InputError, match=re.escape(repr(edge))):
        lg.clique_complex(3, [(0, 1), edge])


def test_clique_complex_missing_faces_are_edges(small_corpus):
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        X = lg.clique_complex(n, edges)
        report = lg.missing_faces(X)
        assert all(len(f) == 2 for f in report.missing)


def test_clique_walk_costs_about_what_the_closure_costs():
    # on n isolated vertices both build the same n + 1 faces; a walk that
    # tried every larger id at every vertex took n^2 steps, 50 times as long
    def best(build):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            build()
            times.append(time.perf_counter() - start)
        return min(times)

    n = 10000
    closure = best(lambda: lg.from_facets(n, []))
    walk = best(lambda: lg.clique_complex(n, []))
    assert walk < 10 * closure + 0.05, (walk, closure)


def peak_bytes(build):
    """The most memory build() held at once, refusal included."""
    tracemalloc.start()
    try:
        build()
    except SizeLimitError:
        pass
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def larger_neighbour_sets(n):
    return [set(range(u + 1, n)) for u in range(n)]


def test_clique_walk_is_refused_before_it_holds_more_than_the_graph(monkeypatch):
    # K_300 with the cap at 3000 faces: a walk that built each clique's
    # neighbour set for its children before the cap saw them held about
    # C(299,2) entries per vertex, 9 times what the graph's sets hold
    n = 300
    edges = list(combinations(range(n), 2))
    graph = peak_bytes(lambda: larger_neighbour_sets(n))
    monkeypatch.setattr(complexes, "MAX_FACES", 3000)
    with pytest.raises(SizeLimitError):
        lg.clique_complex(n, edges)
    assert peak_bytes(lambda: lg.clique_complex(n, edges)) < 2 * graph


# --- skeleton ------------------------------------------------------------------


def test_skeleton_examples():
    assert lg.skeleton(2, 1).f_vector() == (1, 3, 3)
    K4 = lg.skeleton(3, 1)
    assert len(K4.faces(1)) == 6 and K4.dim == 1
    report = lg.missing_faces(lg.skeleton(2, 1))
    assert report.missing == ((0, 1, 2),)


def test_skeleton_counts():
    for m in range(1, 6):
        for k in range(0, m + 1):
            X = lg.skeleton(m, k)
            for kk in range(-1, k + 1):
                assert len(X.faces(kk)) == comb(m + 1, kk + 1)
            assert X.dim == k


def test_skeleton_rejects_k_above_m():
    with pytest.raises(InputError):
        lg.skeleton(2, 3)


def test_skeleton_rejects_negative_k():
    # a (-1)-skeleton would have no vertices, so a join with it would drop them
    for m in (-1, 0, 3):
        with pytest.raises(InputError, match="0 <= k"):
            lg.skeleton(m, -1)


def test_constructors_refuse_over_the_face_cap_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("built before the cap was checked")

    X = lg.full_simplex(9)
    monkeypatch.setattr(complexes.SimplicialComplex, "__init__", refuse)
    for build, what in (
        (lambda: lg.skeleton(10**20, 1), "skeleton"),
        (lambda: lg.skeleton(30, 15), "skeleton"),
        (lambda: lg.build_z(1, 40, 1), "Z"),
        (lambda: lg.build_z(1, 10**20, 1), "Z"),
        (lambda: lg.build_z(10**20, 1, 1), "Z"),
        (lambda: lg.join(X, X), "dim=9, faces=1024"),
        (lambda: lg.from_facets(10**11, [(0, 1)]), "on 100000000000 vertices"),
        (lambda: lg.from_facets(40, [range(40)]), "facet on 40 vertices"),
        (lambda: lg.from_facets(30, combinations(range(30), 5)), "on 30 vertices"),
        (lambda: lg.clique_complex(10**11, [(0, 1)]), "on 100000000000 vertices"),
        (lambda: lg.clique_complex(20, combinations(range(20), 2)), "on 20 vertices"),  # K_20
        (lambda: lg.from_missing_faces(10**11, [(0, 1)]), "on 100000000000 vertices"),
        (lambda: lg.from_missing_faces(20, []), "on 20 vertices"),
    ):
        with pytest.raises(SizeLimitError, match=what):
            build()


def test_the_face_cap_admits_exactly_its_count(monkeypatch):
    monkeypatch.setattr(complexes, "MAX_FACES", 8)
    assert lg.skeleton(2, 2).num_faces == 8
    assert lg.join(lg.skeleton(2, 0), lg.skeleton(0, 0)).num_faces == 8
    with pytest.raises(SizeLimitError):
        lg.skeleton(3, 1)  # 1 + 4 + 6 faces
    with pytest.raises(SizeLimitError):
        lg.join(lg.skeleton(2, 1), lg.skeleton(0, 0))  # 7 * 2 faces
    assert lg.from_facets(3, [(0, 1, 2)]).num_faces == 8
    assert lg.clique_complex(3, [(0, 1), (0, 2), (1, 2)]).num_faces == 8
    assert lg.from_missing_faces(3, []).num_faces == 8
    assert lg.from_facets(7, []).num_faces == 8
    for build in (
        lambda: lg.from_facets(8, []),  # 1 + 8 faces
        lambda: lg.from_facets(4, [(0, 1, 2, 3)]),  # a facet of 16 faces
        lambda: lg.from_facets(4, [(0, 1, 2), (3,)]),  # 8 faces, then 9
        lambda: lg.clique_complex(4, [(0, 1), (0, 2), (1, 2)]),  # 1 + 4 + 3 + 1 faces
        lambda: lg.from_missing_faces(4, [(2, 3)]),  # 16 - 4 faces
    ):
        with pytest.raises(SizeLimitError):
            build()


# --- join ----------------------------------------------------------------------


def test_join_two_point_pairs_is_four_cycle():
    S0 = lg.skeleton(1, 0)
    X = lg.join(S0, S0)
    assert X.n == 4
    assert set(X.faces(1)) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert X.dim == 1


def test_join_with_point_is_cone():
    X = lg.skeleton(2, 1)
    cone = lg.join(X, lg.full_simplex(0))
    assert cone.dim == X.dim + 1
    assert cone.n == 4


def test_join_face_count_identity(small_corpus):
    rng = random.Random(3)
    for _ in range(15):
        X = random_complex(rng, rng.randint(1, 4))
        Y = random_complex(rng, rng.randint(1, 4))
        J = lg.join(X, Y)
        for k in range(-1, J.dim + 1):
            expect = sum(
                len(X.faces(i)) * len(Y.faces(k - 1 - i)) for i in range(-1, k + 1)
            )
            assert len(J.faces(k)) == expect


def test_join_z_shape():
    Z = lg.join(lg.join(lg.skeleton(2, 1), lg.skeleton(2, 1)), lg.full_simplex(0))
    assert Z.n == 7
    assert Z.dim == 4


# --- link / induced ------------------------------------------------------------


def test_link_examples():
    L = lg.link(lg.skeleton(2, 1), (0,))
    assert L.faces(0) == ((1,), (2,)) and L.dim == 0

    L = lg.link(lg.full_simplex(3), (0, 1))
    assert L.faces(1) == ((2, 3),)

    L = lg.link(c5(), (0,))
    assert L.faces(0) == ((1,), (4,)) and L.dim == 0


def test_link_requires_membership():
    with pytest.raises(InputError):
        lg.link(c5(), (0, 2))


def test_induced_examples():
    assert set(lg.induced(lg.full_simplex(3), {0, 1, 2}).faces(2)) == {(0, 1, 2)}
    P = lg.induced(c5(), {0, 1, 2})
    assert set(P.faces(1)) == {(0, 1), (1, 2)}
    E = lg.induced(c5(), ())
    assert E.dim == -1 and E.num_vertices == 0


# --- degree / min_degree --------------------------------------------------------


def test_degree_examples():
    assert lg.degree(lg.full_simplex(3), (0, 1)) == 2
    X = c5()
    assert all(lg.degree(X, (v,)) == 2 for v in range(5))
    assert all(lg.degree(X, e) == 0 for e in X.faces(1))


def test_degree_rejects_nonface():
    with pytest.raises(InputError):
        lg.degree(c5(), (0, 2))


def test_degree_z_family_formula():
    # degree of any face of the tight family: n - (k+1) - (number of skeleton
    # parts whose vertex set is hit in all but one position)
    Z = lg.build_z(1, 2, 1)
    parts = [(0, 1), (2, 3)]
    for k in range(0, Z.dim + 1):
        for s in Z.faces(k):
            sset = set(s)
            hits = sum(1 for p in parts if len(sset & set(p)) == 1)
            assert lg.degree(Z, s) == Z.num_vertices - (k + 1) - hits
    assert lg.degree(Z, (4,)) == 4


def test_min_degree():
    X = c5()
    assert lg.min_degree(X, -1) == 5
    assert lg.min_degree(X, 0) == 2
    assert lg.min_degree(X, 1) == 0
    with pytest.raises(DomainError):
        lg.min_degree(X, 2)


def test_degree_counts_link_vertices(small_corpus):
    for X in small_corpus[:25]:
        for k in range(0, X.dim + 1):
            for s in X.faces(k)[:10]:
                assert lg.degree(X, s) == len(lg.link(X, s).faces(0))


# --- missing faces and reconstruction -------------------------------------------


def test_missing_faces_examples():
    assert lg.missing_faces(lg.skeleton(2, 1)).missing == ((0, 1, 2),)
    assert lg.missing_faces(lg.skeleton(2, 1)).h == 2
    full = lg.missing_faces(lg.full_simplex(3))
    assert full.missing == () and full.h is None and full.is_complete


def test_missing_faces_match_brute_force(small_corpus):
    for X in small_corpus[:30]:
        assert list(lg.missing_faces(X).missing) == brute_missing(X)


def test_missing_faces_of_subcomplexes_list_left_out_ids():
    X = c5()
    assert lg.missing_faces(lg.induced(X, [0, 1, 2])).missing == ((3,), (4,), (0, 2))
    # the link of a vertex of C5 is its two neighbours, with no edge between them
    assert lg.missing_faces(lg.link(X, [0])).missing == ((0,), (2,), (3,), (1, 4))
    assert lg.missing_faces(lg.induced(X, ())).missing == tuple((v,) for v in range(5))


def test_missing_face_search_stops_past_the_cap(monkeypatch):
    X = c5()  # built before the cap, which the constructors share, is lowered
    monkeypatch.setattr(complexes, "MAX_FACES", 5)
    assert len(lg.missing_faces(X).missing) == 5  # the five non-edges
    monkeypatch.setattr(complexes, "MAX_FACES", 4)
    with pytest.raises(SizeLimitError, match="minimal non-faces"):
        lg.missing_faces(X)


class CountingFaces(frozenset):
    """A face set that counts its membership tests."""

    tests = 0

    def __contains__(self, face):
        self.tests += 1
        return super().__contains__(face)


def test_missing_face_search_tries_only_common_neighbours():
    # K_{60,60}, its sides the even and the odd ids: no edge has a common
    # neighbour, so past the vertex pairs nothing is tried (faces x n before)
    n = 120
    X = lg.clique_complex(n, [(a, b) for a in range(0, n, 2) for b in range(1, n, 2)])
    X._faces = counting = CountingFaces(X._faces)
    report = lg.missing_faces(X)
    assert report.missing == tuple(e for e in combinations(range(n), 2) if (e[1] - e[0]) % 2 == 0)
    assert counting.tests <= n + 2 * comb(n, 2)


def test_missing_face_search_is_refused_before_it_holds_more_than_the_graph(monkeypatch):
    # the 1-skeleton of the simplex on 121 ids, with the result cap at 1000:
    # every triangle is missing, and a search that built the neighbour sets
    # of all the edges first held 38 times what the graph's sets hold
    X = lg.skeleton(120, 1)
    graph = peak_bytes(lambda: larger_neighbour_sets(121))
    monkeypatch.setattr(complexes, "MAX_FACES", 1000)
    with pytest.raises(SizeLimitError):
        lg.missing_faces(X)
    assert peak_bytes(lambda: lg.missing_faces(X)) < 2 * graph


@st.composite
def complexes_up_to_ten(draw):
    """Facet closures on up to 10 ids, half of them cut down to a link or
    an induced subcomplex that leaves some ids out."""
    n = draw(st.integers(min_value=1, max_value=10))
    vertex_sets = st.sets(st.integers(min_value=0, max_value=n - 1), max_size=min(n, 6))
    X = lg.from_facets(n, draw(st.lists(vertex_sets, max_size=8)))
    cut = draw(st.sampled_from(("none", "link", "induced")))
    if cut == "link":
        X = lg.link(X, draw(st.sampled_from(sorted(X.all_faces()))))
    elif cut == "induced":
        X = lg.induced(X, draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    return X


@settings(max_examples=80, deadline=None)
@given(X=complexes_up_to_ten())
def test_missing_faces_match_brute_force_up_to_ten(X):
    report = lg.missing_faces(X)
    assert list(report.missing) == brute_missing(X)
    assert report.h == max((len(f) - 1 for f in report.missing), default=None)
    assert lg.from_missing_faces(X.n, report.missing) == X


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=9), data=st.data())
def test_from_missing_faces_matches_brute_force(n, data):
    """Any family: antichains, nested faces, duplicates and the empty face."""
    family = data.draw(
        st.lists(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=4), max_size=8)
    )
    family += data.draw(st.lists(st.sampled_from(family), max_size=3)) if family else []
    assert lg.from_missing_faces(n, family) == brute_from_missing(n, family)


def test_from_missing_faces_edge_inputs():
    antichain = [(0, 1), (1, 2, 3)]
    nested = antichain + [(0, 1, 2), (1, 2, 3, 4)]
    doubled = antichain + antichain
    for family in (antichain, nested, doubled):
        assert lg.from_missing_faces(5, family) == brute_from_missing(5, antichain)
    only_empty = lg.from_missing_faces(4, [(1, 2), ()])
    assert only_empty == brute_from_missing(4, [()]) and only_empty.num_faces == 1
    with pytest.raises(InputError):
        lg.from_missing_faces(3, [(1, 3)])


@pytest.mark.parametrize("n", [14, 18])
def test_reconstruction_roundtrip_past_the_old_caps(n):
    rng = random.Random(n)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
    facets = [rng.sample(range(n), rng.randint(2, 6)) for _ in range(3 * n)]
    for X in (lg.clique_complex(n, edges), lg.from_facets(n, facets)):
        report = lg.missing_faces(X)
        assert report.missing and all(f not in X for f in report.missing)
        assert lg.from_missing_faces(n, report.missing) == X


def test_reconstruction_roundtrip(small_corpus):
    for X in small_corpus:
        if X.n > 9:
            continue
        report = lg.missing_faces(X)
        assert lg.from_missing_faces(X.n, report.missing) == X


def test_constructor_rejects_open_families():
    for faces, message in [
        # (0,1,2) requires its three edges
        ([(0, 1, 2), (0,), (1,), (2,)], "not downward closed: (0, 1, 2) present, (1, 2) missing"),
        # closure is checked, not silently repaired
        ([(0, 1), (0,)], "not downward closed: (0, 1) present, (1,) missing"),
        ([(2, 0, 1), (0, 1), (0, 2), (0,), (1,), (2,)],
         "not downward closed: (0, 1, 2) present, (1, 2) missing"),
        ([(0, 3)], "face (0, 3) references vertex >= n=3"),
        ([(0, -1)], "negative vertex id in [-1, 0]"),
        ([(1, 1)], "duplicate vertex id 1 in face [1, 1]"),
    ]:
        with pytest.raises(InputError) as info:
            lg.SimplicialComplex(3, faces)
        assert str(info.value) == message


def constructor_outputs():
    """Every constructor of the module that builds faces itself, on small inputs."""
    X = lg.from_facets(6, [{0, 1, 2, 3}, {2, 4}, {3, 4, 5}, {1, 5}])
    yield X
    yield lg.clique_complex(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
    yield lg.skeleton(5, 3)
    yield lg.join(X, lg.skeleton(2, 1))
    yield lg.link(X, (3,))
    yield lg.induced(X, (1, 2, 3, 5))
    yield lg.relabel(X, [3, 5, 0, 1, 4, 2])
    yield lg.relabel(X, np.array([3, 5, 0, 1, 4, 2]))  # ids come out as ints
    yield lg.compactify(lg.link(X, (4,)))[0]
    yield lg.from_missing_faces(6, [(0, 5), (1, 2, 3), (2, 4, 5)])
    yield lg.from_missing_faces(3, [()])
    yield lg.build_z(2, 2, 1)


def test_constructor_faces_are_canonical_and_build_the_public_complex(small_corpus):
    for X in [*constructor_outputs(), *small_corpus]:
        Y = lg.SimplicialComplex(X.n, X.all_faces())
        assert Y == X and Y.dim == X.dim
        for k in range(-1, X.dim + 2):
            faces = X.faces(k)
            assert all(type(v) is int for f in faces for v in f)
            assert all(len(f) == k + 1 and list(f) == sorted(set(f)) for f in faces)
            assert list(faces) == sorted(faces) and faces == Y.faces(k)
            table = hodge.facet_index(X, k)
            assert table.shape == (len(faces), k + 1) and not table.flags.writeable
            assert np.array_equal(table, hodge.facet_index(Y, k))
            below = X.faces(k - 1)
            assert [[below[i] for i in row] for row in table.tolist()] == [
                [f[:j] + f[j + 1 :] for j in range(k + 1)] for f in faces
            ]


def test_facets():
    X = lg.from_facets(4, [{0, 1, 2}, {2, 3}])
    assert lg.facets(X) == ((2, 3), (0, 1, 2))
    assert lg.facets(lg.induced(X, ())) == ((),)


def test_facets_are_the_faces_of_degree_zero(small_corpus):
    for X in [*constructor_outputs(), *small_corpus]:
        by_degree = tuple(f for k in range(X.dim + 1)
                          for f, deg in zip(X.faces(k), hodge.degrees(X, k)) if deg == 0)
        assert lg.facets(X) == (by_degree or ((),))


# --- relabel / compactify -------------------------------------------------------


def test_relabel_preserves_structure():
    X = c5()
    Y = lg.relabel(X, [2, 3, 4, 0, 1])
    assert Y.f_vector() == X.f_vector()
    assert lg.missing_faces(Y).h == 1


def test_compactify_link():
    L = lg.link(lg.full_simplex(3), (0,))
    C, mapping = lg.compactify(L)
    assert C.n == 3 and C == lg.full_simplex(2)
    assert sorted(mapping) == [1, 2, 3]


# --- property tests --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
def test_from_facets_downward_closed(n, data):
    facet_count = data.draw(st.integers(min_value=0, max_value=6))
    facets = [
        data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        for _ in range(facet_count)
    ]
    X = lg.from_facets(n, facets)
    for f in X.all_faces():
        for i in range(len(f)):
            assert f[:i] + f[i + 1 :] in X
    assert lg.from_missing_faces(n, lg.missing_faces(X).missing) == X


# --- facet file format ------------------------------------------------------------


FACET_TEXT = """\
# toy complex
n 4

0 1 2   # a filled triangle
2 3
"""


def test_parse_facet_text():
    n, facets = lg.complexes.parse_facet_text(FACET_TEXT)
    assert n == 4
    assert facets == [(0, 1, 2), (2, 3)]


def test_facet_file_roundtrip(tmp_path):
    X = lg.from_facets(4, [{0, 1, 2}, {2, 3}])
    path = tmp_path / "complex.txt"
    path.write_text(lg.complexes.format_facets(X), encoding="utf-8")
    assert lg.load_facet_file(str(path)) == X


def test_facet_file_empty_facet_list(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("n 3\n", encoding="utf-8")
    X = lg.load_facet_file(str(path))
    assert X.f_vector() == (1, 3)


def test_facet_text_errors():
    with pytest.raises(InputError):
        lg.complexes.parse_facet_text("0 1 2\n")  # header missing
    with pytest.raises(InputError):
        lg.complexes.parse_facet_text("n x\n")
    with pytest.raises(InputError):
        lg.complexes.parse_facet_text("")
    with pytest.raises(InputError):
        lg.complexes.parse_facet_text("n 3\n0 zero\n")


def test_edge_file_loader(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("n 3\n0 1\n1 2\n0 2\n", encoding="utf-8")
    assert lg.load_edge_file(str(path)) == lg.full_simplex(2)
    bad = tmp_path / "bad.txt"
    bad.write_text("n 3\n0 1 2\n", encoding="utf-8")
    with pytest.raises(InputError):
        lg.load_edge_file(str(bad))


# header variants, ids in and out of range, junk tokens, comments and blanks
FILE_HEADERS = ("n 5", "n 1", "n 0", "n -3", "n", "n 5 5", "N 5", "n x", "n ²", "n ٣",
                "n 99999999999", "n " + "9" * 5000, "n 100000", "# c\nn 4", "")
FILE_IDS = st.integers(-2, 6).map(str) | st.sampled_from(
    (str(10**12), str(2**63), "9" * 5000, "x", "²", "٣", "1.0", "+1", "0x1"))
FILE_LINES = st.lists(FILE_IDS, max_size=5).map(" ".join) | st.sampled_from(("# x", "", " "))
FILE_TEXTS = st.builds(lambda head, body: "\n".join([head, *body]),
                       st.sampled_from(FILE_HEADERS), st.lists(FILE_LINES, max_size=8))
# a junk byte spliced in: not UTF-8 (0xff, a cut 0xc3), or a NUL
FILE_BYTES = st.builds(lambda text, junk, at: text.encode()[:at] + junk + text.encode()[at:],
                       FILE_TEXTS, st.sampled_from((b"", b"\xff", b"\xc3", b"\0")),
                       st.integers(0, 40)) | st.binary(max_size=40)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "x.txt"


@settings(derandomize=True, max_examples=200, deadline=2000)
@given(data=FILE_BYTES)
def test_fuzzed_facet_and_edge_files_load_or_raise_input_error(fuzz_path, data):
    fuzz_path.write_bytes(data)
    for load in (lg.load_facet_file, lg.load_edge_file):
        try:
            X = load(str(fuzz_path))
        except InputError:
            continue
        assert isinstance(X, lg.SimplicialComplex)
