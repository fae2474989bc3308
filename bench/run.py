"""lapgap benchmark: one command, four workloads, correctness-checked ops.

    python3 bench/run.py --workload hodge-large [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --steady [--workload W] [--runs 10] [--sets 1]
    python3 bench/run.py --record-goldens [--workload W]

Run from the root of a checkout; the package is imported from ``src/``.
Each run starts the workload's worker (``worker.py``) in a fresh Python
process SETUP_SAMPLES times.  Every start is timed until the worker
reports its inputs ready (``setup_s`` is their median); the last one also
runs the ops as a closed loop with one client: the whole number of
rotations that brings the run nearest to ``--seconds``, at least one.
BLAS and OpenMP threads are capped at ``nproc``.

With ``--trace 0`` the last stdout line is the result with every
end-to-end metric; with ``--trace 1`` it carries the per-layer metrics
instead.  The line before it holds the details: environment, sample
counts, the tail percentile and the failures seen.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-mix", "hodge-large", "corpus-profile", "probe-d2")
DEFAULT_SEED = 20260810
DEFAULT_SECONDS = 20
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
             "ok_frac": "frac", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(metrics, details) of one run."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = worker_env()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    load = os.getloadavg()
    setups: list[float] = []
    result = None
    for i in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready = proc.stdout.readline()
            setups.append(time.perf_counter() - t0)
            if ready.strip() != "READY":
                raise BenchError(f"worker for {name} did not start (got {ready!r})")
            last = i == SETUP_SAMPLES - 1
            out, _ = proc.communicate("go\n" if last else "stop\n",
                                      timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} did not finish within {RUN_LIMIT_S} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker for {name} exited with {proc.returncode}")
        if last:
            result = json.loads(out.strip().splitlines()[-1])
    assert result is not None
    details = {
        "run_wall_s": time.monotonic() - started,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {**result.pop("env"), "nproc": nproc(), "loadavg_start": load,
                "thread_cap": {v: env[v] for v in THREAD_VARS}},
        "setup_samples_s": setups,
    }
    if trace:
        metrics = {**result.pop("layers"), **startup_costs(env)}
    else:
        metrics = {"setup_s": statistics.median(setups), **result.pop("e2e")}
        if metrics["op_tail_s"] is None:
            del metrics["op_tail_s"]  # too few ops for a tail; never quote a thinner one
    details.update(result)
    return metrics, details


def startup_costs(env: dict, samples: int = 3) -> dict:
    """Bare interpreter start, and what ``import lapgap.cli`` adds to it."""
    def median_wall(code: str) -> float:
        walls = []
        for _ in range(samples):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)

    bare = median_wall("pass")
    return {"cli.interpreter_s": bare, "cli.import_s": median_wall("import lapgap.cli") - bare}


def units(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    for suffix, unit in (("_s", "s"), (".max_dim", "rows"), (".bytes_computed", "B"),
                         ("_frac", "frac"), ("_frac_max", "frac"), ("ratio", "frac"),
                         (".redundancy", "x")):
        if metric.endswith(suffix):
            return unit
    return "count"


def single(args) -> int:
    try:
        metrics, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {units(name)}")
    print(json.dumps({"details": details}))
    failed = details["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": details["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }))
    return 0


def steady(args) -> int:
    """Run each workload ``--runs`` times with distinct seeds and judge the
    end-to-end spreads against the bounds in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    verdict = 0
    report = {}
    (BENCH / "_out").mkdir(exist_ok=True)
    for name in names:
        log = open(BENCH / "_out" / f"steady-{name}.jsonl", "w", encoding="utf-8")
        medians = []
        for s in range(args.sets):
            values: dict[str, list[float]] = {}
            for i in range(args.runs):
                seed = args.seed + 1000 * s + i
                metrics, details = run_workload(name, seed, seconds, False)
                if details["failed"]:
                    print(f"{name} seed {seed}: {details['failed']} failed ops", file=sys.stderr)
                    verdict = 1
                for k, v in metrics.items():
                    values.setdefault(k, []).append(v)
                log.write(json.dumps({"metrics": metrics, "details": details}) + "\n")
                print(f"{name} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
                      + f" cpu_loop_s={details['env']['cpu_loop_s']:.4g}"
                      + f" run_wall_s={details['run_wall_s']:.1f}", file=sys.stderr, flush=True)
            rows = {}
            for k, vs in values.items():
                med, q1, q3, rel = harness.spread(vs)
                bound = bounds[k]["bound"]
                flag = "" if rel <= bound / 3 else (" above bound/3" if rel <= bound else " WIDE")
                if k != "setup_s" and rel > bound:
                    verdict = 1
                rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "bound": bound}
                print(f"{name} set {s} {k}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {rel:.3f} / bound {bound}{flag}", flush=True)
            medians.append(rows)
            report[f"{name} set {s}"] = rows
        log.close()
        for k in medians[0]:
            for later in medians[1:]:
                a, b = medians[0][k]["median"], later[k]["median"]
                worse = (b - a) / a if bounds[k]["better"] == "lower" else (a - b) / a
                ok = worse <= bounds[k]["bound"]
                verdict |= 0 if ok else 1
                print(f"{name} {k}: second median worse by {worse:+.3f} "
                      f"(bound {bounds[k]['bound']}){'' if ok else ' DRIFT'}")
    print(json.dumps({"steady": report, "ok": verdict == 0}))
    return verdict


def record(args) -> int:
    env = worker_env()
    status = 0
    for name in [args.workload] if args.workload else WORKLOADS:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed",
               str(DEFAULT_SEED), "--seconds", "0", "--record"]
        status |= subprocess.run(cmd, cwd=ROOT, env=env).returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true", help="judge run-to-run spreads")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--record-goldens", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lapgap" / "__init__.py").is_file():
        print(f"bench: no lapgap sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record_goldens:
        return record(args)
    if args.steady:
        return steady(args)
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = DEFAULT_SECONDS
    return single(args)


if __name__ == "__main__":
    raise SystemExit(main())
