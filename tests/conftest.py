"""Deterministic random-complex builders shared across the test suite."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

import lapgap as lg


def random_complex(rng: random.Random, n: int) -> lg.SimplicialComplex:
    """One random complex on n vertices, drawn from a mix of construction styles.

    The mix produces complexes with varied maximal missing-face dimensions:
    clique complexes (h <= 1), flag-like complexes with knocked-out triangles
    (h = 2), facet closures and joins (arbitrary h), and skeletons.
    """
    style = rng.randrange(5)
    if style == 0:
        facets = []
        for _ in range(rng.randint(1, 2 * n)):
            size = rng.randint(1, min(n, 5))
            facets.append(rng.sample(range(n), size))
        return lg.from_facets(n, facets)
    if style == 1:
        p = rng.uniform(0.2, 0.95)
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        return lg.clique_complex(n, edges)
    if style == 2:
        p = rng.uniform(0.4, 0.95)
        eset = {e for e in combinations(range(n), 2) if rng.random() < p}
        nonedges = [e for e in combinations(range(n), 2) if e not in eset]
        tris = [
            t
            for t in combinations(range(n), 3)
            if all(q in eset for q in combinations(t, 2))
        ]
        gone = [t for t in tris if rng.random() < 0.4]
        return lg.from_missing_faces(n, nonedges + gone)
    if style == 3 and n >= 2:
        n1 = rng.randint(1, n - 1)
        return lg.join(random_complex(rng, n1), random_complex(rng, n - n1))
    return lg.skeleton(n - 1, rng.randint(0, n - 1))


def build_corpus(size: int, seed: int, n_min: int = 3, n_max: int = 8):
    rng = random.Random(seed)
    return [random_complex(rng, rng.randint(n_min, n_max)) for _ in range(size)]


@pytest.fixture(scope="session")
def small_corpus():
    """A quick shared corpus for module-level property sweeps."""
    return build_corpus(60, seed=7, n_min=3, n_max=7)


@st.composite
def dominant_matrices(draw):
    """Symmetric weakly dominant integer matrices: off-diagonal weights
    signed by a hidden switching, most of them balanced, a few flipped, and
    a few rows with slack."""
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(n), 2))
    sign = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=len(pairs),
                            max_size=len(pairs)))
    flips = draw(st.lists(st.sampled_from([1] * 9 + [-1]), min_size=len(pairs),
                          max_size=len(pairs)))
    M = np.zeros((n, n), dtype=np.int64)
    for (i, j), w, f in zip(pairs, weights, flips):
        M[i, j] = M[j, i] = -sign[i] * sign[j] * w * f
    slack = draw(st.lists(st.sampled_from([0] * 5 + [1, 2]), min_size=n, max_size=n))
    M[np.diag_indices(n)] = np.abs(M).sum(axis=1) + slack
    return M
