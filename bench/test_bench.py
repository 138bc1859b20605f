"""Tests of the benchmark's own helpers: the tail rule, span self times, the
tracer's install/uninstall, and the correctness gate."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import grids  # noqa: E402
import layertrace  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

import qschur  # noqa: E402
from qschur import verify  # noqa: E402
from qschur.errors import TermLimitExceeded  # noqa: E402
from qschur.gf import field_spec  # noqa: E402
from qschur.ppoly import ambient_ring  # noqa: E402
from qschur.schur import SchurContext  # noqa: E402
from qschur.subspaces import internal_quotient, span  # noqa: E402


@pytest.mark.parametrize("n, pct, rank", [
    (339, 97.0, 329),
    (2266, 99.5, 2255),
    (1000, 99.0, 990),
    (11, 9.0, 1),
    (7, 100.0, 7),
    (1, 100.0, 1),
])
def test_tail_percentile_leaves_ten_beyond(n, pct, rank):
    ordered = list(range(1, n + 1))
    assert measure.tail_percentile(n) == pct
    assert measure.nearest_rank(ordered, pct) == rank
    if n > measure.TAIL_BEYOND:
        assert n - rank >= measure.TAIL_BEYOND
        # one step higher would leave fewer than ten beyond
        assert n - measure.nearest_rank(ordered, pct + 0.1) < measure.TAIL_BEYOND


def test_latency_summary_pools_repetitions():
    reps = [list(range(1, 340)), list(range(1001, 1340))]
    p50, tail, pct = measure.latency_summary(reps)
    assert pct == 97.0
    pooled = sorted(reps[0] + reps[1])
    assert p50 == (pooled[338] + pooled[339]) / 2
    assert tail == pooled[-(-970 * 678 // 1000) - 1]
    # too few calls for a percentile: the median repetition's slowest call
    assert measure.latency_summary([[1, 5], [2, 9], [3, 7]]) == (4.0, 7, 100.0)


def test_self_times_subtract_children_and_leaves():
    spans = [
        ["root", 0, 100, -1, 5],
        ["a", 10, 40, 0, 0],
        ["a.child", 15, 25, 1, 0],
        ["b", 50, 90, 0, 10],
    ]
    own = layertrace.self_times(spans)
    assert own == [25, 20, 10, 30]
    assert sum(own) + 5 + 10 == 100


def _space(q, n):
    spec = field_spec(q)
    ring = ambient_ring(spec, n)
    return SchurContext(spec), ring, span(ring, ring.gens())


def _snapshot():
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "qschur" or name.startswith("qschur."))]
    owners += [qschur.Poly, qschur.UniPoly, qschur.SchurContext, qschur.Subspace]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_uninstall_restores_every_original():
    before = _snapshot()
    original_iq = qschur.subspaces.internal_quotient
    original_em = qschur.ppoly.evaluate_morphism
    original_mul = qschur.Poly.__dict__["__mul__"]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        # names imported with `from ... import` are rebound too
        assert verify.internal_quotient is not original_iq
        assert qschur.internal_quotient is not original_iq
        assert qschur.schur.evaluate_morphism is not original_em
        assert qschur.Poly.__dict__["__mul__"] is not original_mul
        assert qschur.Poly.__dict__["__radd__"] is qschur.Poly.__dict__["__add__"]
    finally:
        tracer.uninstall()
    after = _snapshot()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert set(now) == set(attrs), owner
        for name, value in attrs.items():
            assert now[name] is value, (owner, name)


def test_traced_self_times_add_up_to_the_run():
    ctx, ring, V = _space(2, 2)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.begin("setup")
        qschur.gf.field_spec(2)
        tracer.end()
        tracer.begin("run")
        rep = verify.check_vl_recursion(ctx, (2,), (), V)
        rep2 = verify.check_he_inverse(ctx, V, -2, 2)
        tracer.end()
    finally:
        tracer.uninstall()
    assert rep.status == rep2.status == "pass"
    m = layertrace.layer_metrics(tracer)
    layers = sum(m[f"{layer}.self_s"] for layer in layertrace.RUN_LAYERS)
    assert layers + m["trace.glue_s"] == pytest.approx(m["trace.wall_s"], abs=1e-9)
    assert m["verify.check.calls"] == 2
    assert m["verify.check.failed"] == 0
    assert m["gf.field_spec.calls"] == 1
    assert m["ppoly.mul.calls"] > 0 and m["ppoly.mul.term_pairs"] >= m["ppoly.mul.calls"]
    assert m["fmatrix.window_product.calls"] == 1
    assert m["fmatrix.window_product.cells"] == 25
    # V has a bare-variable basis; its quotients by lines do not
    assert 0 < m["ppoly.evaluate_morphism.relabel_share"] < 1


def test_repeat_share_counts_keys_seen_in_the_same_context():
    ctx, ring, V = _space(2, 2)
    other = SchurContext(ctx.spec)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.begin("setup")
        tracer.end()
        tracer.begin("run")
        ctx.schur_S((1,), V)
        ctx.schur_S([1, 0], V)
        other.schur_S((1,), V)
        tracer.end()
    finally:
        tracer.uninstall()
    m = layertrace.layer_metrics(tracer)
    assert m["schur.schur_S.calls"] == 3
    assert m["schur.schur_S.repeat_share"] == pytest.approx(1 / 3)


def test_gate_catches_a_corrupted_summand():
    ctx, ring, V = _space(2, 2)

    def corrupted(lam, mu, W, L):
        return ctx.skew_S(lam, mu, internal_quotient(W, L)) + W.ring.one

    calls = [("vl-recursion", lambda: verify.check_vl_recursion(ctx, (1,), (), V, summand_fn=corrupted))]
    latencies, failures = measure.run_calls(calls)
    assert len(latencies) == 1
    assert len(failures) / len(calls) == 1.0
    assert failures[0][0] == "vl-recursion"


def test_a_raising_call_counts_as_failed_and_the_run_goes_on():
    ctx, ring, V = _space(2, 2)

    def trip():
        raise TermLimitExceeded("product holds 9 terms, over the limit 8")

    calls = [("trip", trip), ("vl", lambda: verify.check_vl_recursion(ctx, (1,), (), V))]
    latencies, failures = measure.run_calls(calls)
    assert len(latencies) == 2
    assert failures == [("trip", "TermLimitExceeded: product holds 9 terms, over the limit 8")]


def test_gate_counts_a_digest_mismatch_as_a_failure():
    rep = {"calls": 5, "failures": [], "digest": "abc",
           "qschur": os.path.join(run.SRC, "qschur")}
    assert run.gate(rep, {"calls": 5, "digest": "abc"}) == (6, 0, [])
    attempted, failed, problems = run.gate(rep, {"calls": 5, "digest": "def"})
    assert (attempted, failed, len(problems)) == (6, 1, 1)
    attempted, failed, problems = run.gate(rep, {"calls": 4, "digest": "abc"})
    assert failed == 0 and problems == ["5 check calls, expected 4"]


def test_workload_grids_match_the_recorded_call_counts():
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    for name, want in expected.items():
        assert len(grids.build(name, 0).calls) == want["calls"], name
