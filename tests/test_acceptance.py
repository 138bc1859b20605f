"""Acceptance gate: one test per criterion, exact equality only.

Each test prints one PASS line after its asserts; run with -v to get the
per-criterion pass/fail listing from pytest itself.
"""

import time

from qschur.gf import field_spec
from qschur.partitions import partitions_up_to_weight, weight
from qschur.ppoly import ambient_ring
from qschur.schur import SchurContext
from qschur.subspaces import (
    enumerate_flags,
    enumerate_lines,
    enumerate_subspaces,
    pi_product,
    span,
)
from qschur.verify import (
    check_coset_product,
    check_division_round_trip,
    check_elementary_lemmas,
    check_factorization,
    check_flag_formula,
    check_full_column,
    check_gl_invariance,
    check_he_inverse,
    check_hook_step,
    check_k_independence,
    check_matrix_lemmas,
    check_pi_flag_product,
    check_pieri,
    check_quotient_tower,
    check_straight_recursion,
    check_vanishing,
    check_vl_recursion,
)

_CTX = {}


def ctx_for(q):
    if q not in _CTX:
        _CTX[q] = SchurContext(field_spec(q))
    return _CTX[q]


def full_span(q, n):
    ring = ambient_ring(field_spec(q), n)
    return span(ring, ring.gens()[:n])


def pair_grid(max_weight, max_len, mu_max_len=None):
    """All (lam, mu) with the given length bounds and |mu| <= |lam|."""
    if mu_max_len is None:
        mu_max_len = max_len
    lams = partitions_up_to_weight(max_weight, max_length=max_len)
    out = []
    for lam in lams:
        for mu in partitions_up_to_weight(weight(lam), max_length=mu_max_len):
            out.append((lam, mu))
    return out


def assert_all_pass(reports):
    bad = [r for r in reports if r.status != "pass"]
    assert not bad, [f"{r.identity} q={r.q} n={r.n} lam={r.lam} mu={r.mu}"
                     for r in bad]


def test_criterion_01_line_recursion_over_skew_grid():
    t0 = time.time()
    reports = []
    for q in (2, 3):
        ctx = ctx_for(q)
        for n in (2, 3):
            V = full_span(q, n)
            for lam, mu in pair_grid(4, n - 1):
                reports.append(check_vl_recursion(ctx, lam, mu, V))
    assert_all_pass(reports)
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: line recursion, {len(reports)} cases, "
          f"{elapsed:.1f}s")


def test_criterion_02_straight_recursion_both_routes():
    t0 = time.time()
    reports = []
    for q in (2, 3):
        ctx = ctx_for(q)
        for n in (2, 3):
            V = full_span(q, n)
            for lam in partitions_up_to_weight(4, max_length=n - 1):
                reports.append(check_straight_recursion(ctx, lam, V))
    assert_all_pass(reports)
    print(f"\nPASS criterion 2: straight recursion, bare basis against dense quotients, "
          f"{len(reports)} cases, {time.time() - t0:.1f}s")


def test_criterion_03_flag_formula():
    t0 = time.time()
    reports = []
    ctx = ctx_for(2)
    for n in (0, 1, 2, 3):
        V = full_span(2, n)
        for lam in partitions_up_to_weight(3, max_length=n):
            reports.append(check_flag_formula(ctx, lam, V))
    ctx3 = ctx_for(3)
    V = full_span(3, 2)
    for lam in partitions_up_to_weight(3, max_length=2):
        reports.append(check_flag_formula(ctx3, lam, V))
    assert_all_pass(reports)
    elapsed = time.time() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 3: flag formula, {len(reports)} cases, "
          f"{elapsed:.1f}s")


def test_criterion_04_strip_expansion_every_line():
    t0 = time.time()
    reports = []
    for q in (2, 3):
        ctx = ctx_for(q)
        for n in (2, 3):
            V = full_span(q, n)
            lines = enumerate_lines(V)
            for lam, mu in pair_grid(4, n - 1):
                for L in lines:
                    reports.append(check_pieri(ctx, lam, mu, V, L.basis[0]))
    assert_all_pass(reports)
    print(f"\nPASS criterion 4: strip expansion on every line, "
          f"{len(reports)} cases, {time.time() - t0:.1f}s")


def test_criterion_05_coproduct():
    from qschur.verify import check_coproduct

    t0 = time.time()
    ctx = ctx_for(2)
    V = full_span(2, 2)
    reports = []
    for U in enumerate_subspaces(V):
        for lam, mu in pair_grid(3, 3):
            reports.append(check_coproduct(ctx, lam, mu, V, U))
    assert_all_pass(reports)
    dims = {U.dim for U in enumerate_subspaces(V)}
    assert dims == {0, 1, 2}
    print(f"\nPASS criterion 5: coproduct, {len(reports)} cases, "
          f"{time.time() - t0:.1f}s")


def test_criterion_06_matrix_calculus():
    t0 = time.time()
    reports = []
    for q in (2, 3):
        ctx = ctx_for(q)
        V = full_span(q, 2)
        reports.append(check_he_inverse(ctx, V, -6, 6))
        for U in enumerate_subspaces(V):
            reports.append(check_factorization(ctx, V, U))
        reports.extend(check_matrix_lemmas(field_spec(q), seed=0, trials=50))
    assert_all_pass(reports)
    windows = [r for r in reports if r.identity == "he-inverse"]
    assert all(r.basis.endswith("[-6,6]") for r in windows)
    trials = [r for r in reports if r.identity == "cauchy-binet"]
    assert len(trials) == 100  # 50 per field
    print(f"\nPASS criterion 6: matrix calculus, {len(reports)} cases, "
          f"{time.time() - t0:.1f}s")


def test_criterion_07_subspace_calculus():
    t0 = time.time()
    reports = []
    for q in (2, 3):
        ctx = ctx_for(q)
        for n in (1, 2, 3):
            V = full_span(q, n)
            subs = enumerate_subspaces(V)
            for U in subs:
                for T in enumerate_subspaces(U):
                    reports.append(check_quotient_tower(V, U, T, q))
                for Up in enumerate_subspaces(U):
                    reports.append(check_coset_product(U, Up, q))
            for flag in enumerate_flags(V):
                reports.append(check_pi_flag_product(flag, q))
            for L in enumerate_lines(V):
                for r in (1, 2, 3):
                    reports.append(check_hook_step(ctx, L, r))
            for lam in partitions_up_to_weight(4, max_length=n):
                if len(lam) == n and (n == 0 or lam[-1] >= 1):
                    reports.append(check_full_column(ctx, lam, V))
    assert_all_pass(reports)
    print(f"\nPASS criterion 7: subspace calculus, {len(reports)} cases, "
          f"{time.time() - t0:.1f}s")


def test_criterion_08_elementary_suite():
    t0 = time.time()
    reports = []
    # power sums over every field up to q = 5, plus the full lemma set on
    # one to three coordinates for q in {2, 3}
    for q, e in ((2, 1), (3, 1), (2, 2), (5, 1)):
        spec = field_spec(q, e)
        reports.extend(check_elementary_lemmas(spec, 1, seed=0, trials=50))
    for q in (2, 3):
        spec = field_spec(q)
        for n in (2, 3):
            reports.extend(check_elementary_lemmas(spec, n, seed=0, trials=50))
    assert_all_pass(reports)
    names = {r.identity for r in reports}
    assert {"power-sum-zero", "line-sum", "pi-of-line", "low-degree-point-sum",
            "vector-power-sum", "perm-witness"} <= names
    print(f"\nPASS criterion 8: elementary lemmas, {len(reports)} cases, "
          f"{time.time() - t0:.1f}s")


def test_criterion_09_worked_constants():
    ctx = ctx_for(2)
    V = full_span(2, 2)
    assert str(ctx.schur_S((1,), V)) == "x^2 + x*y + y^2"
    e2 = ctx.e_r(2, V)
    assert str(e2) == "x^2*y + x*y^2"
    assert e2 == pi_product(V)
    line = full_span(3, 1)
    x = line.ring.gens()[0]
    assert pi_product(line) == -(x ** 2)
    print("\nPASS criterion 9: worked constants")


def test_criterion_10_structural_properties():
    t0 = time.time()
    reports = []
    for q in (2, 3):
        ctx = ctx_for(q)
        spec = field_spec(q)
        for n in (1, 2, 3):
            V = full_span(q, n)
            for lam in partitions_up_to_weight(2, max_length=n):
                reports.append(
                    check_gl_invariance(ctx, lam, V, seed=11, changes=10))
        V = full_span(q, 2)
        U = span(V.ring, [V.ring.gens()[0]])
        for lam, mu in pair_grid(3, 2):
            reports.append(check_k_independence(ctx, lam, mu, V))
            reports.extend(check_vanishing(ctx, lam, mu, V, U))
        reports.append(check_division_round_trip(spec, seed=0, pairs=200))
    assert_all_pass(reports)
    # the round-trip reports really covered 200 pairs each
    assert all(r.basis == "pairs=200" for r in reports
               if r.identity == "division-round-trip")
    print(f"\nPASS criterion 10: structural properties, {len(reports)} cases, "
          f"{time.time() - t0:.1f}s")
