"""One workload in one fresh process.

Started by ``run.py`` with the checkout as working directory.  It imports
lapgap, generates the workload's inputs and files, prints ``READY`` and
waits for one line on stdin: ``go`` runs the measurement and prints one
JSON line, anything else ends the process (a set-up-only sample).

``--record`` instead runs every pool entry once and rewrites the
workload's goldens; do that only at a commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import lapgap
from lapgap import cli

import harness
import tracing
from workloads import WORKLOADS, Context

BENCH = Path(__file__).resolve().parent
GOLDENS = BENCH / "goldens"

# A traced op fails when the self times of its stages fall short of its
# wall time by more than COVER_TOL of it plus COVER_SLACK_S: the spans
# would be missing a layer.  The slack absorbs collector pauses and timer
# reads, which matter only on ops of a few milliseconds.
COVER_TOL = 0.05
COVER_SLACK_S = 0.00025


def blas_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def cpu_loop_s() -> float:
    """Best of 5 timings of a fixed pure-Python loop: how fast this machine
    ran Python when the run started.  Context for the figures, not a metric."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def thread_count() -> int:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Runner:
    def __init__(self, ops, goldens: dict, trace: bool):
        self.ops = ops
        self.goldens = goldens
        self.tally = harness.Tally()
        self.tracer = tracing.Tracer() if trace else None
        self.probes = tracing.Probes()
        self.next_op = 0
        self.uncovered: list[float] = []

    def check(self, op, out) -> str | None:
        try:
            error = op.oracle(out) if op.oracle else None
            return error or harness.check_golden(self.goldens, op.key, op.summarize(out))
        except Exception as exc:  # output too malformed to check is a wrong output
            return f"check raised {type(exc).__name__}: {exc}"

    def rotation(self) -> float:
        """Every op once, untraced; the summed op wall time."""
        return sum(self.run_op(op, traced=False) for op in self.ops)

    def paired_rotation(self) -> tuple[float, float]:
        """Every op untraced and traced back to back, alternating which goes
        first, so both see the same machine state; (untraced, traced) wall."""
        plain = traced = 0.0
        for i, op in enumerate(self.ops):
            for with_trace in (False, True) if i % 2 == 0 else (True, False):
                dt = self.run_op(op, traced=with_trace)
                if with_trace:
                    traced += dt
                else:
                    plain += dt
        return plain, traced

    def run_op(self, op, traced: bool) -> float:
        """Run one op, check it, record it; the op's wall time."""
        root = None
        if traced:
            tracer = self.tracer
            tracer.op = self.next_op
            self.next_op += 1
            tracer.install()
            try:
                root = tracer.begin("op", {"kind": op.kind})
                stage = tracer.begin("cli.subprocess") if op.argv else None
                tracer.enabled = True
                out, error, dt = self.timed(op)
                tracer.enabled = False
                if stage:
                    tracer.end(stage)
                tracer.end(root)
            finally:
                tracer.enabled = False
                tracer.uninstall()
        else:
            out, error, dt = self.timed(op)
        if error is None:
            error = self.check(op, out)
        if traced:
            error = self.after_traced(op, root) or error
        self.tally.record(op.kind, dt, error)
        return dt

    @staticmethod
    def timed(op):
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        return out, error, time.perf_counter() - t0

    def after_traced(self, op, root) -> str | None:
        """Untraced: the coverage check and the stage replays; then, for a
        CLI op, the traced in-process replay."""
        tracer = self.tracer
        spans = tracer.spans[root[0]:]
        wall, stages = harness.stage_coverage(tracing.plain(spans), root[0])
        self.uncovered.append(1 - stages / wall if wall > 0 else 0.0)
        error = self.probes.after_op(spans)
        if wall - stages > COVER_TOL * wall + COVER_SLACK_S:
            error = error or f"stage self times cover {stages / wall:.1%} of the op"
        if op.argv:
            error = self.replay_cli(op) or error
        return error

    def replay_cli(self, op) -> str | None:
        """In-process ``lapgap.cli.main(argv)`` under the tracer, stdout captured."""
        tracer = self.tracer
        tracing.GRAPHS.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        first = len(tracer.spans)
        tracer.install()
        span = tracer.begin("cli.main", {"sub": op.argv[0]})
        tracer.enabled = True
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        finally:
            tracer.enabled = False
            tracer.end(span)
            tracer.uninstall()
        error = self.probes.after_op(tracer.spans[first:])
        return self.check(op, (rc, out.getvalue().encode(), err.getvalue().encode())) or error


def measure(workload, ops, goldens: dict, seconds: float, trace: bool) -> dict:
    runner = Runner(ops, goldens, trace)
    start = time.perf_counter()
    rotations = 0
    plain_wall = traced_wall = 0.0
    threads = thread_count()
    while True:
        if trace:
            plain, traced = runner.paired_rotation()
            plain_wall += plain
            traced_wall += traced
        else:
            plain_wall += runner.rotation()
        rotations += 1
        threads = max(threads, thread_count())
        if not harness.another_rotation(time.perf_counter() - start, rotations, seconds):
            break
    elapsed = time.perf_counter() - start
    tally = runner.tally
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    out = {
        "why": workload.why,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors[:5],
        "rotations": rotations,
        "ops_per_rotation": len(ops),
        "elapsed_s": elapsed,
        "threads_max": threads,
        "per_kind_median_s": tally.per_kind_median(),
    }
    if not trace:
        durations = tally.durations
        t = harness.tail(durations)
        out["e2e"] = {
            "op_p50_s": statistics.median(durations),
            "op_tail_s": t[1] if t else None,
            "ops_per_s": tally.attempted / sum(durations),
            "ok_frac": 1 - tally.failed_frac,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        out["samples"] = tally.attempted
        out["tail_percentile"] = t[0] if t else None
        out["failed_frac"] = tally.failed_frac
    else:
        tracer = runner.tracer
        layers = tracing.layer_metrics(tracer, runner.probes, rotations)
        layers["trace_overhead_frac"] = traced_wall / plain_wall - 1
        layers["trace.uncovered_frac_max"] = max(runner.uncovered, default=0.0)
        out["layers"] = layers
        out["stage_share"] = stage_shares(tracer)
        out["redundancy_base_s"] = {
            k: {"composite": runner.probes.composite_s[k], "stages": runner.probes.stages_s[k]}
            for k in tracing.COMPOSITES
        }
        out["spans_written"] = write_spans(workload.name, tracer)
    return out


def stage_shares(tracer) -> dict:
    """Per op kind, the three layers with the most self time inside the
    timed op, as shares of the op's stage time."""
    spans = [s for s in tracer.spans if s[5] is not None]
    selfs = harness.self_times(tracing.plain(spans))
    root_of: dict[int, list] = {}
    per_kind: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:  # parents precede their children
        root = s if s[4] is None else root_of[s[4]]
        root_of[s[0]] = root
        if root is not s and root[1] == "op":
            per_kind[root[6]["kind"]][s[1]] += selfs[s[0]]
    out = {}
    for kind, layers in sorted(per_kind.items()):
        total = sum(layers.values()) or 1.0
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
        out[kind] = {name: round(v / total, 4) for name, v in top}
    return out


def write_spans(name: str, tracer) -> str:
    """Spans go to disk only once the run has ended."""
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for sid, span_name, start, end, parent, op, attrs in tracer.spans:
            label = (attrs.get("kind") or attrs.get("sub")) if span_name in ("op", "cli.main") else None
            fh.write(json.dumps([sid, span_name, start, end, parent, op, label]) + "\n")
    return path.relative_to(BENCH.parent).as_posix()


def write_goldens(path: Path, goldens: dict) -> None:
    """One golden per line, so a re-recording diffs line by line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(goldens.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"lapgap": {json.dumps(lapgap.__version__)}, "goldens": {{\n')
        fh.write(",\n".join(lines) + "\n}}\n")


def record(workload, ops) -> int:
    goldens, errors = {}, 0
    for op in ops:
        out = op.run()
        error = op.oracle(out) if op.oracle else None
        if error:
            print(f"{op.key}: {error}", file=sys.stderr)
            errors += 1
        goldens[op.key] = op.summarize(out)
    GOLDENS.mkdir(exist_ok=True)
    write_goldens(GOLDENS / f"{workload.name}.json", goldens)
    print(f"{workload.name}: {len(goldens)} goldens, {errors} oracle failures", file=sys.stderr)
    return 1 if errors else 0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args()
    workload = WORKLOADS[args.workload]
    root = BENCH.parent
    workdir = BENCH / "_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = Context(root, workdir, args.seed, dict(os.environ))
        ops = workload.ops(ctx, full=args.record)
        if args.record:
            return record(workload, ops)
        with open(GOLDENS / f"{workload.name}.json", encoding="utf-8") as fh:
            goldens = json.load(fh)["goldens"]
        if workload.warmup:
            workload.warmup()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        loop_s = cpu_loop_s()
        result = measure(workload, ops, goldens, args.seconds, bool(args.trace))
        result["env"] = {
            "cpu_loop_s": loop_s,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
