"""The four workloads: their inputs, one rotation of ops, and the oracles.

Every op builds its complex from generated inputs (constructor calls,
edge lists, facet lists or files), so no result carries over from one op
to the next.  Inputs come from fixed pools whose outputs were recorded as
goldens (``goldens/<workload>.json``).  The seed sets the op order and,
where the checked outputs do not depend on vertex labels, relabels the
vertices of each complex; elsewhere it picks pool entries of like cost.
So every seed runs the same work under other labels and in another order.
Closed forms check the outputs wherever one exists.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

import lapgap as lg
from lapgap import extremal

import harness
from tracing import GRAPHS

POOL_SEED = 20260810  # the acceptance-corpus seed; also the default --seed


@dataclass
class Op:
    """One closed-loop request.  ``run`` is timed; the rest is not."""

    kind: str  # ops of one kind share a shape and a cost
    key: str  # golden key
    run: Callable[[], object]
    summarize: Callable[[object], object]
    oracle: Callable[[object], str | None] | None = None
    argv: tuple[str, ...] | None = None  # CLI ops, replayed in-process when traced


@dataclass
class Context:
    root: Path
    workdir: Path
    seed: int
    env: dict


def _close(a: float, b: float) -> bool:
    return harness.compare(float(a), float(b)) is None


def _first(errors) -> str | None:
    return next((e for e in errors if e), None)


# ---------------------------------------------------------------------------
# cli-mix


def facet_text(i: int) -> str:
    rng = random.Random(f"{POOL_SEED}:facets:{i}")
    n = rng.randint(7, 9)
    lines = [f"n {n}"]
    for _ in range(rng.randint(5, 9)):
        lines.append(" ".join(str(v) for v in sorted(rng.sample(range(n), rng.randint(2, 4)))))
    return "\n".join(lines) + "\n"


def edge_text(i: int) -> str:
    rng = random.Random(f"{POOL_SEED}:edges:{i}")
    n = rng.randint(7, 10)
    p = rng.uniform(0.35, 0.6)
    lines = [f"n {n}"] + [f"{u} {v}" for u, v in combinations(range(n), 2) if rng.random() < p]
    return "\n".join(lines) + "\n"


CLI_POOL = 8


def _json_lines(out) -> list[dict]:
    return [json.loads(line) for line in out[1].decode().splitlines()]


def _cli_summary(out) -> dict:
    rc, stdout, stderr = out
    return {"exit": rc, "stdout": harness.digest(stdout.decode()), "stderr": stderr.decode()}


def _z_rows(d, t, r):
    return {row.k: row for row in extremal.predicted_z_profile(d, t, r)}


def _oracle_build_z(out):
    obj = _json_lines(out)[0]
    params = lg.ZParams(2, 3, 1)
    if (obj["n"], obj["dim"], sum(obj["f_vector"])) != (params.n, params.dim, params.total_faces):
        return f"build Z(2,3,1) gave n={obj['n']} dim={obj['dim']} faces={sum(obj['f_vector'])}"
    return None


def _oracle_spectrum_z(out):
    pred = _z_rows(2, 3, 1)
    rows = _json_lines(out)[0]["profile"]
    return _first(
        None if _close(row["gap"], pred[row["k"]].mu) else f"gap at k={row['k']} is {row['gap']}"
        for row in rows
    )


def _oracle_bound_z(out):
    pred = _z_rows(2, 3, 1)
    return _first(
        None
        if _close(o["mu"], pred[o["k"]].mu) and o["delta"] == pred[o["k"]].delta and o["tight"]
        else f"bound report at k={o['k']} disagrees with the closed form"
        for o in _json_lines(out)
    )


def _oracle_missing_skeleton(out):
    obj = _json_lines(out)[0]
    if obj["h"] != 5 or len(obj["missing"]) != comb(11, 6):
        return f"skeleton(10,4) missing faces: h={obj['h']}, {len(obj['missing'])} faces"
    return None


def _oracle_betti_skeleton(out):
    return _first(
        None
        if o["betti"] == (comb(10, 5) if o["k"] == 4 else 0)
        else f"betti at k={o['k']} is {o['betti']}"
        for o in _json_lines(out)
    )


def _oracle_gap_skeleton(out):
    return _first(
        None
        if _close(o["gap"], lg.skeleton_spectrum(11, 4, o["k"]).min())
        else f"gap at k={o['k']} is {o['gap']}"
        for o in _json_lines(out)
    )


def _oracle_missing_skeleton_8_3(out):
    obj = _json_lines(out)[0]
    if obj["h"] != 4 or len(obj["missing"]) != comb(9, 5):
        return f"skeleton(8,3) missing faces: h={obj['h']}, {len(obj['missing'])} faces"
    return None


def _oracle_betti_skeleton_8_3(out):
    return _first(
        None
        if o["betti"] == (comb(8, 4) if o["k"] == 3 else 0)
        else f"betti at k={o['k']} is {o['betti']}"
        for o in _json_lines(out)
    )


def _oracle_gap_skeleton_8_3(out):
    return _first(
        None
        if _close(o["gap"], lg.skeleton_spectrum(9, 3, o["k"]).min())
        else f"gap at k={o['k']} is {o['gap']}"
        for o in _json_lines(out)
    )


def _oracle_verify_z(out):
    obj = _json_lines(out)[0]
    pred = _z_rows(2, 2, 1)
    if not obj["ok"] or any(r["mu_predicted"] != pred[r["k"]].mu for r in obj["rows"]):
        return "verify-z 2 2 1 is not ok"
    return None


def _oracle_equality(out):
    obj = _json_lines(out)[0]
    if not obj["holds"] or obj["target"] != 1 or not _close(obj["mu"], 1.0):
        return f"equality on Z(1,2,1) at k=2: {obj}"
    return None


def _oracle_probe_cli(out):
    last = _json_lines(out)[-1]
    if not last["complete"] or last["counterexamples"] != 0:
        return f"probe --d 2 --n 5 summary {last}"
    return None


def _oracle_malformed(out):
    rc, stdout, stderr = out
    lines = stderr.decode().splitlines()
    if rc != 2 or stdout or len(lines) != 1 or not lines[0].startswith("input error:"):
        return f"malformed expression: exit {rc}, stdout {stdout!r}, stderr {stderr!r}"
    return None


CLI_FIXED = (
    (("build", "Z(2,3,1)"), _oracle_build_z),
    (("spectrum", "Z(2,3,1)"), _oracle_spectrum_z),
    (("bound", "Z(2,3,1)"), _oracle_bound_z),
    (("missing", "skeleton(10,4)"), _oracle_missing_skeleton),
    (("betti", "skeleton(10,4)"), _oracle_betti_skeleton),
    (("gap", "skeleton(10,4)"), _oracle_gap_skeleton),
    (("missing", "skeleton(8,3)"), _oracle_missing_skeleton_8_3),
    (("betti", "skeleton(8,3)"), _oracle_betti_skeleton_8_3),
    (("gap", "skeleton(8,3)"), _oracle_gap_skeleton_8_3),
    (("verify-z", "2", "2", "1"), _oracle_verify_z),
    (("equality", "Z(1,2,1)", "--k", "2"), _oracle_equality),
    (("probe", "--d", "2", "--n", "5"), _oracle_probe_cli),
    (("build", "skeleton(3,"), _oracle_malformed),
)

# seeded inputs: (subcommand, pool, constructor); a run uses two entries of each pool
CLI_SEEDED = (("bound", "facets", "file"), ("betti", "facets", "file"),
              ("build", "facets", "file"), ("spectrum", "edges", "clique"),
              ("missing", "edges", "clique"), ("gap", "edges", "clique"),
              ("bound", "edges", "clique"))


def _cli_op(ctx: Context, argv, key, kind, oracle=None) -> Op:
    cmd = [sys.executable, "-m", "lapgap.cli", *argv]

    def run():
        p = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True, timeout=120)
        return p.returncode, p.stdout, p.stderr

    return Op(kind, key, run, _cli_summary, oracle, tuple(argv))


def cli_mix(ctx: Context, full: bool = False) -> list[Op]:
    rng = random.Random(f"{ctx.seed}:cli-mix")
    ops = [_cli_op(ctx, argv, " ".join(argv), "cli " + " ".join(argv), oracle)
           for argv, oracle in CLI_FIXED]
    picks = {"facets": rng.sample(range(CLI_POOL), 2), "edges": rng.sample(range(CLI_POOL), 2)}
    texts = {"facets": facet_text, "edges": edge_text}
    for j, (sub, pool, ctor) in enumerate(CLI_SEEDED):
        chosen = range(CLI_POOL) if full else [picks[pool][j % 2]]
        for i in chosen:
            path = ctx.workdir / f"{pool}-{i}.txt"
            path.write_text(texts[pool](i), encoding="utf-8")
            rel = path.relative_to(ctx.root).as_posix()
            ops.append(_cli_op(ctx, (sub, f"{ctor}({rel})"), f"{sub} {ctor}:{pool}-{i}",
                               f"cli {sub} {ctor}(...)"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# hodge-large


def _bound_ints(reports) -> list:
    return [[r.k, r.delta, r.bound, r.gershgorin, r.row_bound, r.d, r.d_convention, r.tight]
            for r in reports]


def _bound_summary(reports) -> dict:
    return {"ints": harness.digest(_bound_ints(reports)), "mu": [r.mu for r in reports]}


def _bound_formula(reports, n: int) -> str | None:
    """The reported bound is (d+1)(delta+k+1) - d*n and tight means |mu - bound| <= tol."""
    for r in reports:
        if r.bound != (r.d + 1) * (r.delta + r.k + 1) - r.d * n:
            return f"k={r.k}: bound {r.bound} does not match its formula"
        if r.tight != (abs(r.mu - r.bound) <= lg.bounds.BOUND_TOL):
            return f"k={r.k}: tight flag disagrees with mu={r.mu}, bound={r.bound}"
    return None


def _expect_bound(mu: float, delta: int, d: int, n: int):
    def oracle(report) -> str | None:
        if not _close(report.mu, mu):
            return f"mu={report.mu}, closed form {mu}"
        if (report.delta, report.d) != (delta, d):
            return f"delta={report.delta}, d={report.d}; closed forms {delta}, {d}"
        return _bound_formula([report], n)

    return oracle


def _expect_betti(value: int):
    return lambda b: None if b == value else f"betti {b}, closed form {value}"


def _join_table():
    """Closed-form spectra of skeleton(5,3): 6 vertices, dimension 3."""
    return {i: lg.skeleton_spectrum(6, 3, i) for i in range(-1, 4)}


def _dense_ops() -> list[Op]:
    skel_mu = lg.skeleton_spectrum(13, 5, 5).min()
    join_spec = lg.join_spectrum([_join_table(), _join_table()], 5)
    join_zero = join_spec.count_below(lg.spectral.ZERO_EIG_TOL)
    return [
        # a k-skeleton's missing faces all have dimension k+1; its top faces have degree 0
        Op("bound skeleton(12,5) k=5", "bound skeleton(12,5) k=5",
           lambda: lg.spectral_gap_bound(lg.skeleton(12, 5), 5), lambda r: _bound_summary([r]),
           _expect_bound(skel_mu, 0, 6, 13)),
        # the closed-form gap mu_6 = 4 is positive, so the kernel is empty
        Op("betti Z(2,4,1) k=6", "betti Z(2,4,1) k=6",
           lambda: lg.betti(lg.build_z(2, 4, 1), 6), lambda b: b, _expect_betti(0)),
        Op("betti join(skeleton(5,3),skeleton(5,3)) k=5", "betti join k=5",
           lambda: lg.betti(lg.join(lg.skeleton(5, 3), lg.skeleton(5, 3)), 5), lambda b: b,
           _expect_betti(join_zero)),
    ]


# Sparse clique complexes: pool size and per-rotation count for each n.
# The n = 18 ops cost alike (0.4-0.8 s, the 2^18 search dominates), and on
# a machine that switches between a fast and a slow speed their times
# split into two groups; an order statistic low among them jumps between
# the groups as the share of slow time moves.  With 12 of the 20 ops at
# n = 18 the median (ranks 10-11) sits at the top of them, in the slow
# group, with the n = 19 ops just above.
SPARSE = {18: (40, 12), 19: (8, 3), 20: (4, 2)}


def sparse_edges(n: int, i: int) -> list[tuple[int, int]]:
    rng = random.Random(f"{POOL_SEED}:sparse:{n}:{i}")
    p = rng.uniform(0.3, 0.6)
    return [e for e in combinations(range(n), 2) if rng.random() < p]


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel_faces(faces, perm: list[int]) -> list[tuple[int, ...]]:
    """The same faces under the vertex map ``v -> perm[v]``, each sorted."""
    return [tuple(sorted(perm[v] for v in face)) for face in faces]


def _sparse_op(n: int, i: int, perm: list[int]) -> Op:
    edges = relabel_faces(sparse_edges(n, i), perm)
    return Op(f"bound_profile clique n={n}", f"sparse n={n} #{i}",
              lambda: lg.bound_profile(lg.clique_complex(n, edges)), _bound_summary,
              lambda reports: _bound_formula(reports, n))


def hodge_large(ctx: Context, full: bool = False) -> list[Op]:
    """The first pool entries of each size, relabeled by the seed: bound
    reports do not depend on labels, and the cost of a graph stays the same."""
    rng = random.Random(f"{ctx.seed}:hodge-large")
    ops = _dense_ops()
    for n, (pool, per_rotation) in SPARSE.items():
        chosen = range(pool) if full else range(per_rotation)
        ops.extend(_sparse_op(n, i, permutation(rng, n)) for i in chosen)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# corpus-profile


def random_recipe(rng: random.Random, n: int):
    """The tests/conftest.py mix as data; draws the same random numbers in
    the same order, so a seed gives the same complexes as build_corpus."""
    style = rng.randrange(5)
    if style == 0:
        facets = []
        for _ in range(rng.randint(1, 2 * n)):
            size = rng.randint(1, min(n, 5))
            facets.append(rng.sample(range(n), size))
        return ("facets", n, facets)
    if style == 1:
        p = rng.uniform(0.2, 0.95)
        return ("clique", n, [e for e in combinations(range(n), 2) if rng.random() < p])
    if style == 2:
        p = rng.uniform(0.4, 0.95)
        eset = {e for e in combinations(range(n), 2) if rng.random() < p}
        nonedges = [e for e in combinations(range(n), 2) if e not in eset]
        tris = [t for t in combinations(range(n), 3)
                if all(q in eset for q in combinations(t, 2))]
        gone = [t for t in tris if rng.random() < 0.4]
        return ("missing", n, nonedges + gone)
    if style == 3 and n >= 2:
        n1 = rng.randint(1, n - 1)
        return ("join", random_recipe(rng, n1), random_recipe(rng, n - n1))
    return ("skeleton", n - 1, rng.randint(0, n - 1))


def build_recipe(recipe) -> lg.SimplicialComplex:
    tag = recipe[0]
    if tag == "facets":
        return lg.from_facets(recipe[1], recipe[2])
    if tag == "clique":
        return lg.clique_complex(recipe[1], recipe[2])
    if tag == "missing":
        return lg.from_missing_faces(recipe[1], recipe[2])
    if tag == "join":
        return lg.join(build_recipe(recipe[1]), build_recipe(recipe[2]))
    return lg.skeleton(recipe[1], recipe[2])


CORPUS_POOL = 2000
CORPUS_SIZE = 1000  # acceptance criteria 3-5 sweep this many complexes
CORPUS_N = (3, 8)


def corpus_pool() -> list:
    rng = random.Random(POOL_SEED)
    return [random_recipe(rng, rng.randint(*CORPUS_N)) for _ in range(CORPUS_POOL)]


def _profile_summary(out) -> dict:
    _X, bp, sp = out
    ints = [_bound_ints(bp)]
    for row in sp.rows:
        # sum of squared eigenvalues is the integer |L_k|_F^2
        ints.append([row.k, row.betti, round(sum(v * v for v in row.spectrum.values))])
    return {"ints": harness.digest(ints), "mu": [r.mu for r in bp]}


def _profile_oracle(out) -> str | None:
    """Exact identities that need no golden: spectrum sizes, traces, the
    Euler characteristic, and agreement of the two gap routes."""
    X, bp, sp = out
    f = {k: len(X.faces(k)) for k in range(-1, X.dim + 2)}
    euler = 0
    for b, row in zip(bp, sp.rows):
        k = row.k
        values = row.spectrum.values
        if len(values) != f[k]:
            return f"k={k}: {len(values)} eigenvalues for {f[k]} faces"
        trace = (k + 2) * f[k + 1] + (k + 1) * f[k]
        if abs(sum(values) - trace) > harness.FLOAT_TOL * (1 + trace):
            return f"k={k}: eigenvalues sum to {sum(values)}, trace is {trace}"
        if not _close(row.gap, b.mu):
            return f"k={k}: spectral_profile gap {row.gap} vs bound report mu {b.mu}"
        euler += (-1) ** (k % 2) * (row.betti - f[k])
    if euler != 0:
        return f"Betti numbers miss the reduced Euler characteristic by {euler}"
    return _bound_formula(bp, X.num_vertices)


def relabel_recipe(recipe, rng: random.Random):
    """The same complex with its vertices relabeled at random; a join
    relabels each side on its own, a skeleton stays as it is."""
    tag = recipe[0]
    if tag == "join":
        return ("join", relabel_recipe(recipe[1], rng), relabel_recipe(recipe[2], rng))
    if tag == "skeleton":
        return recipe
    return (tag, recipe[1], relabel_faces(recipe[2], permutation(rng, recipe[1])))


def _corpus_op(i: int, recipe) -> Op:
    def run():
        X = build_recipe(recipe)
        return X, lg.bound_profile(X), lg.spectral_profile(X)

    return Op("bound_profile+spectral_profile", f"corpus #{i}", run, _profile_summary,
              _profile_oracle)


def corpus_profile(ctx: Context, full: bool = False) -> list[Op]:
    """The acceptance corpus; another seed relabels every complex and
    shuffles the order.  Every checked output is label-free."""
    pool = corpus_pool()
    if full:
        return [_corpus_op(i, pool[i]) for i in range(CORPUS_POOL)]
    if ctx.seed == POOL_SEED:
        return [_corpus_op(i, pool[i]) for i in range(CORPUS_SIZE)]  # exactly, in order
    rng = random.Random(f"{ctx.seed}:corpus-profile")
    ops = [_corpus_op(i, relabel_recipe(pool[i], rng)) for i in range(CORPUS_SIZE)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# probe-d2

RANDOM_BUDGET = 250  # (2,7) random samples this many complexes
PROBE_SEEDS = 40  # pool of seeds for the random engine
# Per rotation: 40 ops.  Sorted by cost they fall into 24 random-engine ops,
# 2 (3,5), 5 (3,6) with a budget of 1000 complexes, 8 (3,6) with a budget
# of 2000, and the (2,6) op.  The machine this was tuned on switches every
# second or so between two speeds about 1.5x apart, so the times of one
# kind of op split into a fast and a slow group, and an order statistic
# near the bottom of a kind jumps between the two as the share of slow
# time moves.  Near the top of a kind it stays in the slow group: the
# median (ranks 20-21 of 40, or 40-41 of 80) sits high among the random
# engine's ops and the p75 tail (rank 30, or 60) high among the cheaper
# (3,6) ones.  About 35/50/15 % of the time goes to the d=2 screen, the
# general engine and the random engine.  Random-engine seeds cost alike,
# so the seed picks them.
REPEATS = {"3,5": 2, "3,6": {1000: 5, 2000: 8}, "2,7": 24}


def _probe_summary(report) -> dict:
    hits = sorted([h.k, h.target, h.isomorphic_to_canonical, [list(f) for f in h.facets]]
                  for h in report.hits)
    return {"complete": report.complete, "hits": len(report.hits),
            "counterexamples": len(report.counterexamples), "hit_set": harness.digest(hits)}


def _probe_oracle(report) -> str | None:
    for h in report.hits:
        if not _close(h.mu, h.target):
            return f"hit at k={h.k} has mu={h.mu}, target {h.target}"
    return None


def _probe_op(kind: str, key: str, **kw) -> Op:
    def run():
        GRAPHS.cache_clear()  # a CLI user pays the cold enumeration on every run
        return lg.probe_equality_cases(**kw)

    return Op(kind, key, run, _probe_summary, _probe_oracle)


def probe_d2(ctx: Context, full: bool = False) -> list[Op]:
    rng = random.Random(f"{ctx.seed}:probe-d2")
    ops = [_probe_op("probe (2,6) exhaustive", "2,6 exhaustive", d=2, n=6)]
    ops += [_probe_op("probe (3,5) exhaustive", "3,5 exhaustive", d=3, n=5)] * (
        1 if full else REPEATS["3,5"])
    for budget, count in REPEATS["3,6"].items():
        ops += [_probe_op(f"probe (3,6) exhaustive budget={budget}",
                          f"3,6 exhaustive budget={budget}", d=3, n=6, budget=budget)] * (
            1 if full else count)
    seeds = range(PROBE_SEEDS) if full else rng.sample(range(PROBE_SEEDS), REPEATS["2,7"])
    ops += [_probe_op("probe (2,7) random budget", f"2,7 random budget={RANDOM_BUDGET} seed={s}",
                      d=2, n=7, mode="random", budget=RANDOM_BUDGET, seed=s) for s in seeds]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Callable[..., list[Op]]
    in_process: bool = True
    # cheap calls made before the worker reports ready, so that lazy set-up
    # (BLAS threads, first-call allocations) lands in setup_s, not in an op
    warmup: Callable[[], object] | None = None


def _warm_kernels():
    lg.spectral_gap_bound(lg.skeleton(7, 3), 3)
    lg.bound_profile(lg.clique_complex(10, sparse_edges(10, 0)))
    lg.spectral_profile(lg.join(lg.skeleton(3, 1), lg.skeleton(2, 1)))


def _warm_probe():
    _warm_kernels()
    GRAPHS.cache_clear()
    lg.probe_equality_cases(d=2, n=4)
    GRAPHS.cache_clear()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-mix",
            "subprocess CLI calls dominated by interpreter start, numpy import and argparse: "
            "startup and --batch changes show here, kernel changes should not",
            cli_mix,
            in_process=False,
        ),
        Workload(
            "hodge-large",
            "1716x1716, 918x918 and 850x850 Laplacians (int64 assembly, eigvalsh, rank_mod_p) "
            "plus the 2^n missing-face search on sparse clique complexes, n=18-20",
            hodge_large,
            warmup=_warm_kernels,
        ),
        Workload(
            "corpus-profile",
            "tiny complexes (n=3..8) where per-face Python work, per-k reassembly and double "
            "eigensolves dominate; per-call overhead shows as a loss here",
            corpus_profile,
            warmup=_warm_kernels,
        ),
        Workload(
            "probe-d2",
            "the only workload in extremal: batched d=2 screen, general engine and random "
            "engine, each op paying a cold graph enumeration",
            probe_d2,
            warmup=_warm_probe,
        ),
    )
}
