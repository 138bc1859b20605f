"""qschur benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 1

Each repetition runs the workload's whole grid once in a fresh,
single-threaded worker process (bench/worker.py) with cold caches, as a
`qschur verify` invocation would; repetitions run one at a time until
--seconds is used up (at least MIN_REPS of them). The end-to-end metrics are
medians over the repetitions, the call latencies over all repetitions'
calls pooled (bench/PREDICTIONS.md defines each). --trace 1 instead runs
one untraced and one traced repetition and reports the per-layer metrics of
bench/layertrace.py.

Every repetition is checked: each check call must pass, the number of calls
must match bench/expected.json, and a SHA-256 of a few values must match the
recorded digest. The last line of stdout is one JSON object; the exit code
is 1 when the correctness gate fails and 2 when the checkout has no qschur
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_REPS = 3
# A run must end within 180 s: no repetition starts unless it is expected to
# finish by RUN_LIMIT_S, and a worker still running at DEADLINE_S is killed.
RUN_LIMIT_S = 150
DEADLINE_S = 175


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_rep(workload: str, seed: int, trace_path: str | None, timeout: float) -> dict:
    """One repetition in a fresh worker; raises RuntimeError if it dies and
    subprocess.TimeoutExpired (after killing it) if it outlives timeout."""
    # One fixed hash seed for every repetition of every run: some calls'
    # cost depends on it, and a varying one would make medians depend on how
    # many repetitions fit into --seconds.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    spawned = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         str(spawned), trace_path or "-"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def gate(rep: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one repetition.

    The digest comparison counts as one more attempted operation, which
    fails when the values differ from the recorded ones.
    """
    problems = [f"{label}: {msg}" for label, msg in rep["failures"]]
    attempted = rep["calls"] + 1
    failed = len(rep["failures"])
    if rep["digest"] != expected["digest"]:
        failed += 1
        problems.append(f"value digest {rep['digest']} != recorded {expected['digest']}")
    if rep["calls"] != expected["calls"]:
        problems.append(f"{rep['calls']} check calls, expected {expected['calls']}")
    if os.path.realpath(rep["qschur"]) != os.path.realpath(os.path.join(SRC, "qschur")):
        problems.append(f"imported qschur from {rep['qschur']}, not from this checkout")
    return attempted, failed, problems


def end_to_end(reps: list[dict]) -> tuple[dict, str]:
    """The run's end-to-end metrics, and the tail's percentile label."""
    calls = len(reps[0]["latencies_ns"])
    p50, tail, pct = measure.latency_summary([r["latencies_ns"] for r in reps])
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "case_ms_p50": p50 * 1e-6,
        "case_ms_tail": tail * 1e-6,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
    }
    if pct == 100.0:
        return metrics, f"slowest of {calls} calls, median of {len(reps)} repetitions"
    return metrics, f"p{pct:g} of {calls} calls per repetition, {len(reps)} repetitions pooled"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict, spec: dict) -> dict:
    """Run one workload; print its metrics; return its part of the result.

    The metrics returned are those BENCHMARK.json (spec) lists; the text
    output shows every metric computed."""
    started = time.monotonic()

    def spawn(index, path=None):
        # Repetition i draws its inputs from (seed, i): the randomized checks
        # cost more or less with each draw, and a run's median then spans
        # several draws instead of resting on one.
        return run_rep(workload, seed * 1000 + index, path,
                       started + DEADLINE_S - time.monotonic())

    reps = []
    trace_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json.gz")
        reps = [spawn(0), spawn(0, trace_path)]
    else:
        while True:
            reps.append(spawn(len(reps)))
            elapsed = time.monotonic() - started
            per_rep = elapsed / len(reps)
            if elapsed + per_rep > RUN_LIMIT_S:
                break
            if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
                break

    attempted = failed = 0
    problems: list[str] = []
    for rep in reps:
        a, f, p = gate(rep, expected)
        attempted += a
        failed += f
        problems.extend(p)

    print(f"workload {workload}: seed {seed}, {len(reps)} repetitions, "
          f"{time.monotonic() - started:.1f} s")
    if trace:
        untraced, traced = reps
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, tail_label = end_to_end(reps)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        note = f"  ({tail_label})" if name == "case_ms_tail" else ""
        if name not in units:
            note = "  (text only: zero when its layer is not on the workload's path)"
        print(f"  {name:<40} {value:>14.6g} {units.get(name, '')}{note}")
    if trace:
        layers = metrics["trace.glue_s"] + sum(
            v for k, v in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
        print(f"  layer self times + glue = {layers:.6f} s; traced wall_s = {metrics['trace.wall_s']:.6f} s")
        print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} calls and digest checks)")
    for p in problems[:20]:
        print(f"  FAIL {p}")
    reported = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": reported}


def main(argv=None) -> int:
    expected = load_json(os.path.join(HERE, "expected.json"))
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*expected, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qschur", "__init__.py")):
        print(f"error: no qschur sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    print(f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, cpu {cpu_model()}")

    names = list(expected) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         expected[name], spec)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"workload {name}: worker failed: {exc}")
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    metrics = {}
    for name, r in results.items():
        for key, value in r["metrics"].items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
