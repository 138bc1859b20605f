"""One repetition of one workload, in a fresh process.

Usage: worker.py WORKLOAD SEED SPAWNED_NS TRACE_PATH

SPAWNED_NS is the CLOCK_MONOTONIC time at which the parent started this
process, so set-up time covers interpreter start and imports. TRACE_PATH is
"-" for an untraced repetition, else where the span file goes. Prints one
JSON object on stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import grids
import layertrace
import measure
import qschur


def main(argv) -> int:
    workload, seed, spawned_ns, trace_path = argv[0], int(argv[1]), int(argv[2]), argv[3]
    tracer = None
    if trace_path != "-":
        tracer = layertrace.Tracer()
        tracer.install()
        tracer.begin("setup")
    w = grids.build(workload, seed)
    if tracer:
        tracer.end()
        tracer.begin("run")
    t_first = time.monotonic_ns()
    t0 = time.perf_counter_ns()
    latencies, failures = measure.run_calls(w.calls)
    wall_ns = time.perf_counter_ns() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.end()
        tracer.uninstall()

    text = "\n".join(str(v) for v in w.digest_values())
    out = {
        "qschur": os.path.dirname(qschur.__file__),
        "calls": len(w.calls),
        "setup_s": (t_first - spawned_ns) * 1e-9,
        "wall_s": wall_ns * 1e-9,
        "latencies_ns": latencies,
        "failures": failures,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        out["layers"] = layertrace.layer_metrics(tracer)
        tracer.write(trace_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
