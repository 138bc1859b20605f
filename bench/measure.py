"""Timing and summary rules shared by the benchmark's parent and workers.

Nothing here imports qschur, so the parent process stays light.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

# A tail percentile must leave at least this many calls beyond it.
TAIL_BEYOND = 10


def tail_percentile(n: int) -> float:
    """The highest percentile, in steps of 0.1, whose nearest rank leaves at
    least TAIL_BEYOND of n samples beyond it; 100.0 when none does."""
    for tenths in range(999, 0, -1):
        if n - -(-tenths * n // 1000) >= TAIL_BEYOND:
            return tenths / 10
    return 100.0


def nearest_rank(ordered: list, pct: float):
    """The nearest-rank percentile pct of an ascending, non-empty list."""
    rank = -(-round(pct * 10) * len(ordered) // 1000)
    return ordered[max(rank, 1) - 1]


def latency_summary(per_rep: list[list[int]]) -> tuple[float, float, float]:
    """(median, tail, tail percentile) of the call latencies of a run.

    The percentile follows from one repetition's call count. Both values are
    read from the latencies of all repetitions pooled, which is steadier
    than a median of per-repetition values. With too few calls for any
    percentile the tail is the median repetition's slowest call instead, as
    the pooled maximum would be the run's single worst outlier.
    """
    pct = tail_percentile(len(per_rep[0]))
    pooled = sorted(x for lat in per_rep for x in lat)
    if pct == 100.0:
        tail = statistics.median(max(lat) for lat in per_rep)
    else:
        tail = nearest_rank(pooled, pct)
    return statistics.median(pooled), tail, pct


def run_calls(calls) -> tuple[list[int], list[tuple[str, str]]]:
    """Time each (label, thunk) call; return (latencies in ns, failures).

    A call fails when any report it returns does not pass or when it raises;
    a raising call is recorded with its message and the loop goes on.
    """
    latencies = []
    failures = []
    for label, thunk in calls:
        t0 = perf_counter_ns()
        try:
            result = thunk()
        except Exception as exc:  # the run must survive a failing case
            latencies.append(perf_counter_ns() - t0)
            failures.append((label, f"{type(exc).__name__}: {exc}"))
            continue
        latencies.append(perf_counter_ns() - t0)
        reports = result if isinstance(result, list) else [result]
        bad = [r for r in reports if r.status != "pass"]
        if bad:
            failures.append((label, " ".join(filter(None, (bad[0].identity, bad[0].basis, "failed")))))
    return latencies, failures
