"""Unit tests of the benchmark's own logic; not part of the package's tests.

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


# -- tail percentile rule ---------------------------------------------------


def test_tail_needs_ten_samples_beyond_the_median():
    assert harness.tail([1.0] * 19) is None
    samples = [float(i) for i in range(20)]
    assert harness.tail(samples) == (50.0, 9.0)  # 10 samples above 9.0


@pytest.mark.parametrize("n,p", [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
                                 (999, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9)])
def test_tail_takes_the_highest_ladder_step(n, p):
    assert harness.tail(list(range(n)))[0] == p


def test_tail_always_leaves_at_least_ten_beyond():
    for n in range(20, 2500, 7):
        samples = [float(i) for i in range(n)]
        p, value = harness.tail(samples)
        assert sum(1 for s in samples if s > value) >= harness.TAIL_BEYOND
        steps = [q / 10 for q in harness.TAIL_LADDER]
        nxt = [q for q in steps if q > p]
        if nxt:  # the next step up would leave fewer than ten
            assert n * (100 - nxt[0]) / 100 < harness.TAIL_BEYOND


# -- run length -------------------------------------------------------------


@pytest.mark.parametrize("rotation,seconds,expected", [
    (6.8, 20, 3),  # 20.4 s is nearer 20 than 27.2 s or 13.6 s
    (5.5, 20, 4),  # 22 s beats 16.5 s
    (8.0, 20, 2),  # a tie (16 s or 24 s) stops
    (17.0, 20, 1),  # 34 s is further off than 17 s
    (25.0, 20, 1),  # never fewer than one
    (13.0, 20, 2),
])
def test_run_holds_the_rotation_count_nearest_the_seconds(rotation, seconds, expected):
    rotations = 1
    while harness.another_rotation(rotation * rotations, rotations, seconds):
        rotations += 1
    assert rotations == expected


# -- spans: self time, coverage, busy time ----------------------------------

SPANS = [
    # sid, name, start, end, parent
    (0, "op", 0.0, 10.0, None),
    (1, "a", 1.0, 4.0, 0),
    (2, "b", 3.0, 6.0, 0),  # overlaps a: the union covers 1..6
    (3, "c", 2.0, 3.0, 1),
    (4, "d", 9.0, 12.0, 0),  # runs past its parent: clipped to 9..10
]


def test_self_time_subtracts_the_union_of_children():
    selfs = harness.self_times(SPANS)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)


def test_stage_coverage_sums_stage_self_times():
    wall, stages = harness.stage_coverage(SPANS, 0)
    selfs = harness.self_times(SPANS)
    assert wall == 10.0
    assert stages == pytest.approx(sum(selfs[i] for i in (1, 2, 3, 4)))


def test_busy_counts_a_recursive_layer_once():
    spans = [(0, "g", 0.0, 5.0, None), (1, "g", 1.0, 4.0, 0), (2, "h", 2.0, 3.0, 1),
             (3, "g", 6.0, 7.0, None)]
    busy = harness.busy_by_name(spans)
    assert busy["g"] == (pytest.approx(6.0), 2)
    assert busy["h"] == (pytest.approx(1.0), 1)


def test_redundancy_ratio_and_empty_base():
    assert harness.redundancy(3.0, 1.5) == 2.0
    assert harness.redundancy(0.0, 0.0) == 0.0


# -- goldens ----------------------------------------------------------------


def test_compare_exact_ints_bools_and_tolerant_floats():
    assert harness.compare({"a": [1, 2.0, True]}, {"a": [1, 2.0 + 1e-9, True]}) is None
    assert harness.compare([1], [2]) is not None
    assert harness.compare([2.0], [2.001]) is not None
    assert harness.compare(True, 1) is not None
    assert harness.compare({"a": 1}, {"a": 1, "b": 2}) is not None
    assert harness.compare([1, 2], [1]) is not None
    assert harness.check_golden({}, "k", 1) is not None


def test_wrong_output_counts_in_failed_frac():
    import worker
    from workloads import Op

    outputs = {"x": 4, "y": 9, "z": 16, "w": 26}  # w should be 25
    goldens = {k: {"square": v} for k, v in {"x": 4, "y": 9, "z": 16, "w": 25}.items()}
    ops = [Op("square", k, (lambda v=v: v), lambda out: {"square": out})
           for k, v in outputs.items()]
    runner = worker.Runner(ops, goldens, trace=False)
    runner.rotation()
    assert runner.tally.attempted == 4
    assert runner.tally.failed == 1
    assert runner.tally.failed_frac == 0.25
    assert runner.tally.errors[0][1].startswith("$.square")


def test_raising_op_or_unreadable_output_is_a_failure_not_a_crash():
    import worker
    from workloads import Op

    ops = [Op("boom", "boom", lambda: 1 / 0, lambda out: out),
           Op("garbled", "garbled", lambda: b"not json", lambda out: out,
              oracle=lambda out: json.loads(out)["k"])]
    runner = worker.Runner(ops, {}, trace=False)
    runner.rotation()
    assert runner.tally.failed == 2
    assert "ZeroDivisionError" in runner.tally.errors[0][1]
    assert "JSONDecodeError" in runner.tally.errors[1][1]


# -- tracer and the benchmark definition ------------------------------------


def test_tracer_sees_cross_module_calls_and_restores_them():
    import lapgap as lg
    import tracing
    from lapgap import operators, spectral

    orig = operators.laplacian
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectral.laplacian is not orig
        tracer.op, tracer.enabled = 0, True
        lg.spectral_gap(lg.skeleton(4, 2), 1)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert spectral.laplacian is orig and operators.laplacian is orig
    names = {s[1]: s for s in tracer.spans}
    assert names["operators.laplacian"][4] == names["spectral.spectral_gap"][0]
    assert names["operators.laplacian"][6]["dim"] == 10  # C(5,2) edges


def test_graph_enumeration_counts_every_level():
    import tracing

    tracing.GRAPHS.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op, tracer.enabled = 0, True
        tracing.extremal.graphs_up_to_isomorphism(4)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    # classes on 2, 3, 4 vertices: 2, 4, 11; tried: 1*2 + 2*4 + 4*8
    assert tracing.graph_counts(tracer.spans) == (17, 42)


def test_relabeled_inputs_are_the_same_complexes_under_other_labels():
    import random

    import workloads

    rng = random.Random(1)
    for recipe in workloads.corpus_pool()[:200]:
        X = workloads.build_recipe(recipe)
        Y = workloads.build_recipe(workloads.relabel_recipe(recipe, rng))
        assert (X.num_vertices, X.f_vector()) == (Y.num_vertices, Y.f_vector())
    for n in (18, 20):
        edges = workloads.sparse_edges(n, 0)
        moved = workloads.relabel_faces(edges, workloads.permutation(rng, n))
        assert sorted(moved) != sorted(edges)
        assert (workloads.lg.clique_complex(n, edges).f_vector()
                == workloads.lg.clique_complex(n, moved).f_vector())


def test_benchmark_json_matches_the_harness():
    import run
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    layers = set(tracing.layer_metrics(tracing.Tracer(), tracing.Probes(), 1))
    layers |= {"trace_overhead_frac", "trace.uncovered_frac_max", "cli.interpreter_s",
               "cli.import_s"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.units(m["name"]) == m["unit"], m["name"]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
