"""The benchmark's recorded goldens, checked in-process on the current code.

The benchmark checks every op against closed forms, exact identities and
the outputs recorded in ``bench/goldens/``; these tests run a slice of the
same ops with the same checks, so that a change to a reported field fails
here before a benchmark run finds it.  Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import lapgap
from lapgap import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import GRAPHS  # noqa: E402

PROBE_KEYS = {"2,6 exhaustive", "3,5 exhaustive"} | {
    f"2,7 random budget={workloads.RANDOM_BUDGET} seed={s}" for s in range(3)
}


def goldens(name: str) -> dict:
    with open(BENCH / "goldens" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["goldens"]


def context(tmp_path) -> workloads.Context:
    return workloads.Context(ROOT, tmp_path, workloads.POOL_SEED, {})


def check(op, out, recorded: dict) -> str | None:
    error = op.oracle(out) if op.oracle else None
    return error or harness.check_golden(recorded, op.key, op.summarize(out))


def run_and_check(ops, recorded: dict) -> list[str]:
    return [f"{op.key}: {error}" for op in ops if (error := check(op, op.run(), recorded))]


def test_corpus_profile_goldens(tmp_path):
    ops = workloads.corpus_profile(context(tmp_path))
    assert len(ops) == workloads.CORPUS_SIZE
    assert run_and_check(ops, goldens("corpus-profile")) == []


def test_hodge_large_goldens(tmp_path):
    ops = workloads.hodge_large(context(tmp_path))
    assert len(ops) == 20
    assert run_and_check(ops, goldens("hodge-large")) == []


def test_probe_d2_goldens(tmp_path):
    ops = [op for op in workloads.probe_d2(context(tmp_path), full=True) if op.key in PROBE_KEYS]
    assert {op.key for op in ops} == PROBE_KEYS
    assert run_and_check(ops, goldens("probe-d2")) == []


@pytest.mark.parametrize("argv,oracle", workloads.CLI_FIXED,
                         ids=[" ".join(argv) for argv, _ in workloads.CLI_FIXED])
def test_cli_fixed_goldens(argv, oracle):
    """``cli.main(argv)`` with stdout and stderr captured, as a traced
    benchmark run replays each CLI op."""
    GRAPHS.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    result = (rc, out.getvalue().encode(), err.getvalue().encode())
    key = " ".join(argv)
    error = oracle(result) or harness.check_golden(goldens("cli-mix"), key,
                                                   workloads._cli_summary(result))
    assert error is None, f"{key}: {error}"


def test_tracer_wraps_the_probe_and_restores_every_binding():
    """A traced run resolves every traced name, sees the probe and its
    eigensolves, re-runs ``isomorphic`` on the hits without disagreement, and
    puts every original back.  Stage coverage depends on timing and is not
    checked here."""
    for home, fname, _, _ in tracing.TARGETS:
        assert callable(getattr(home, fname, None)), fname
    tracer = tracing.Tracer()
    slots = tracer.slots()
    tracer.op = 0
    tracer.install()
    tracer.enabled = True
    try:
        report = lapgap.probe_equality_cases(2, 5)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    names = {s[1] for s in tracer.spans}
    assert {"extremal.probe_equality_cases", "spectral.eigenvalues"} <= names
    assert tracing.Probes().after_op(tracer.spans) is None
    (probe,) = [s for s in tracer.spans if s[1] == "extremal.probe_equality_cases"]
    assert len(report.hits) == 10 and probe[6] == {"examined": report.examined, "hits": 10}
    assert all(getattr(mod, attr) is orig for mod, attr, orig, _ in slots)
