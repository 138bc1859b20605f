"""Sweep driver: case reports, config validation, and a mutation check."""

import json
import random

import pytest

from qschur import verify
from qschur.errors import ConfigInvalid
from qschur.gf import field_spec, parse_field_spec
from qschur.partitions import weight
from qschur.ppoly import ambient_ring
from qschur.schur import SchurContext
from qschur.subspaces import (
    DEFAULT_ENUMERATION_CEILING,
    Subspace,
    enumerate_flags,
    get_enumeration_ceiling,
    span,
)
from qschur.verify import (
    ALL_IDENTITIES,
    GROUPS,
    SweepConfig,
    check_coproduct,
    check_coproduct_truncation,
    check_coset_product,
    check_degree_formula,
    check_division_round_trip,
    check_elementary_lemmas,
    check_factorization,
    check_flag_formula,
    check_full_column,
    check_functoriality,
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
    run_sweep,
)

REPORT_KEYS = {"identity", "q", "n", "lambda", "mu", "basis",
               "status", "lhs", "rhs", "millis"}


def make(q=2, n=2):
    spec = field_spec(q)
    ring = ambient_ring(spec, n)
    V = span(ring, ring.gens())
    return spec, SchurContext(spec), ring, V


def test_case_report_shape():
    spec, ctx, R, V = make()
    rep = check_vl_recursion(ctx, (2,), (), V)
    d = rep.to_dict()
    assert set(d) == REPORT_KEYS
    assert d["status"] == "pass"
    assert d["lhs"] == "" and d["rhs"] == ""  # sides only on failure
    assert d["identity"] == "vl-recursion"
    assert d["lambda"] == [2] and d["mu"] == []
    assert isinstance(d["millis"], int)
    json.dumps(d)


def test_checks_pass_on_small_grid():
    spec, ctx, R, V = make()
    U = span(R, [R.gens()[0]])
    zero = Subspace.zero(R)
    assert check_straight_recursion(ctx, (2,), V).status == "pass"
    assert check_flag_formula(ctx, (2, 1), V).status == "pass"
    assert check_pieri(ctx, (1,), (), V, R.gens()[1]).status == "pass"
    assert check_coproduct(ctx, (2,), (), V, U).status == "pass"
    assert check_he_inverse(ctx, V, -3, 3).status == "pass"
    assert check_factorization(ctx, V, U).status == "pass"
    assert check_quotient_tower(V, U, zero, 2).status == "pass"
    assert check_coset_product(V, U, 2).status == "pass"
    assert check_hook_step(ctx, U, 2).status == "pass"
    assert check_full_column(ctx, (2, 1), V).status == "pass"
    assert check_gl_invariance(ctx, (2,), V, seed=5, changes=4).status == "pass"
    assert check_k_independence(ctx, (2, 1), (1,), V).status == "pass"
    assert check_degree_formula(ctx, (2, 1), V).status == "pass"
    assert check_division_round_trip(spec, seed=1, pairs=25).status == "pass"
    assert check_functoriality(ctx, (2,), 2, R, seed=3).status == "pass"


def test_pi_flag_product_over_all_flags():
    spec, ctx, R, V = make()
    for flag in enumerate_flags(V):
        assert check_pi_flag_product(flag, 2).status == "pass"


def test_vanishing_reports():
    spec, ctx, R, V = make()
    U = span(R, [R.gens()[0]])
    skew_side = check_vanishing(ctx, (1, 1), (2,), V, U)  # mu not inside lam
    assert skew_side and all(r.status == "pass" for r in skew_side)
    tilde_side = check_vanishing(ctx, (2,), (), V, U)  # row diff above dim U
    assert any(r.basis.startswith("tilde:") for r in tilde_side)
    assert all(r.status == "pass" for r in tilde_side)
    # neither law applies here, so there is nothing to report
    assert check_vanishing(ctx, (2, 1), (1,), V, U) == []


def test_elementary_lemmas_pass():
    for q in (2, 3):
        spec = field_spec(q)
        for n in (1, 2, 3):
            reps = check_elementary_lemmas(spec, n, seed=0, trials=5)
            assert reps, (q, n)
            bad = [r for r in reps if r.status != "pass"]
            assert not bad, bad


MATRIX_LEMMAS = ("cauchy-binet", "sign-scaled-det", "zero-block-det")


def test_matrix_lemmas_pass():
    reps = check_matrix_lemmas(field_spec(2), seed=0, trials=10)
    names = {r.identity for r in reps}
    assert names == set(MATRIX_LEMMAS)
    assert all(r.status == "pass" for r in reps)
    for name in MATRIX_LEMMAS:
        bases = [r.basis for r in reps if r.identity == name]
        assert len(bases) == 10, name  # one report per trial
        assert len(set(bases)) == 10, name
        assert all(b.startswith("trial ") for b in bases), name


@pytest.mark.parametrize("identity", MATRIX_LEMMAS)
def test_matrix_lemma_failures_render_both_sides(monkeypatch, identity):
    """Corrupt one side of a lemma: every trial runs, fails on its own and
    prints both sides verbatim."""
    from qschur import fmatrix

    if identity == "cauchy-binet":
        honest_cb = fmatrix.cauchy_binet

        def corrupt(a, b, ii, jj):
            direct, addends = honest_cb(a, b, ii, jj)
            return direct + a.ring.one, addends

        monkeypatch.setattr(fmatrix, "cauchy_binet", corrupt)
    elif identity == "sign-scaled-det":
        honest_ssd = fmatrix.scale_sign_det
        monkeypatch.setattr(fmatrix, "scale_sign_det",
                            lambda c, lam, nu: honest_ssd(c, lam, nu) + c.ring.one)
    else:
        honest_det = fmatrix.det
        monkeypatch.setattr(fmatrix, "det", lambda c: honest_det(c) + c.ring.one)

    reps = [r for r in check_matrix_lemmas(field_spec(3), seed=0, trials=10)
            if r.identity == identity]
    assert len(reps) == 10
    assert all(r.status == "fail" for r in reps)
    for r in reps:
        assert r.lhs and r.rhs and r.lhs != r.rhs, r
    if identity == "zero-block-det":
        assert {(r.lhs, r.rhs) for r in reps} == {("1", "0")}


@pytest.mark.parametrize("identity", ["gl-invariance", "pi-of-line", "division-round-trip",
                                      "he-inverse", "h-factorization", "hook-step",
                                      "quotient-tower", "coset-product", "power-sum-zero",
                                      "vector-power-sum", "perm-witness"])
def test_failures_render_both_sides(monkeypatch, identity):
    """Corrupt one side of a check: the failing case prints both values,
    and they differ."""
    from qschur import fmatrix, partitions, subspaces, verify

    spec, ctx, R, V = make(q=3)
    if identity == "perm-witness":
        # the honest search is remembered first; a corrupted witness is a
        # new function, so the memo cannot hide it
        assert all(r.status == "pass" for r in verify._check_perm_witness(2))
        honest_witness = partitions.perm_witness
        monkeypatch.setattr(partitions, "perm_witness",
                            lambda a, b, s: None if s == (1, 0) else honest_witness(a, b, s))
        reps = [r for r in check_elementary_lemmas(spec, 1, seed=0, trials=2)
                if r.identity == identity]
        assert [(r.n, r.status) for r in reps] == [
            (1, "pass"), (2, "fail"), (3, "pass"), (4, "pass"), (5, "pass"), (6, "pass")]
        assert reps[1].lhs == "perm_witness((3, 2), (3, 2), (1, 0)) = None"
        assert reps[1].rhs == "alpha_i - beta_sigma(i) outside {0, 1}"
        return
    honest_window = fmatrix.window_product

    def corrupt_window(a, b, lo, hi):
        # one more than the true value in the top-left cell
        w = honest_window(a, b, lo, hi)
        rows = [list(row) for row in w.entries]
        rows[0][0] = rows[0][0] + w.ring.one
        return fmatrix.PolyMatrix(w.ring, rows)

    if identity in ("he-inverse", "h-factorization"):
        monkeypatch.setattr(fmatrix, "window_product", corrupt_window)
        if identity == "he-inverse":
            rep = check_he_inverse(ctx, V, -3, 3)
            lo = -3
        else:
            rep = check_factorization(ctx, V, span(R, [R.gens()[0]]))
            lo = -(V.dim + 3)
        assert rep.status == "fail"
        assert rep.lhs and rep.rhs and rep.lhs != rep.rhs, rep
        # only the corrupted cell differs; each side gives its value there
        cell, left = rep.lhs.split(": ")
        cell2, right = rep.rhs.split(": ")
        assert cell == cell2 == f"({lo},{lo})"
        assert R.parse(left) == R.parse(right) + R.one
        return
    if identity == "quotient-tower":
        # the direct quotient gains the constant 1; the corruption sits in
        # internal_quotient itself, so no remembered quotient can hide it.
        # T is a line, so the two-step route never forms V // U (with T = 0,
        # V // T would be V itself and meet the corruption too).
        x, y = R.gens()
        W, U, T = span(R, [x, y, x * y]), span(R, [x, y]), span(R, [x])
        honest_quot = subspaces.internal_quotient

        def corrupt_quot(A, B, ceiling=None):
            Q = honest_quot(A, B, ceiling)
            if A is W and B is U:
                return span(R, list(Q.basis) + [R.one])
            return Q

        honest_quot(W, U)  # W already holds the honest quotient
        monkeypatch.setattr(subspaces, "internal_quotient", corrupt_quot)
        rep = check_quotient_tower(W, U, T, 3)
        assert rep.status == "fail"
        assert rep.lhs and rep.rhs and rep.lhs != rep.rhs, rep
        assert rep.lhs == span(R, list(honest_quot(W, U).basis) + [R.one]).describe()
        assert rep.rhs == honest_quot(W, U).describe()
        return
    if identity == "hook-step":
        honest_pi = subspaces.pi_product
        monkeypatch.setattr(subspaces, "pi_product", lambda U: honest_pi(U) + U.ring.one)
        reps = [check_hook_step(ctx, span(R, [R.gens()[0]]), 2)]
    elif identity == "gl-invariance":
        honest_on_basis = ctx.schur_on_basis
        monkeypatch.setattr(ctx, "schur_on_basis",
                            lambda lam, vectors, ring: honest_on_basis(lam, vectors, ring) + ring.one)
        reps = [check_gl_invariance(ctx, (1,), V, seed=0)]
    elif identity == "coset-product":
        honest_pi = subspaces.pi_product
        monkeypatch.setattr(subspaces, "pi_product", lambda U: honest_pi(U) + U.ring.one)
        reps = [check_coset_product(V, span(R, [R.gens()[0]]), 3)]
    elif identity == "power-sum-zero":
        honest_power_sum = verify.power_sum
        monkeypatch.setattr(verify, "power_sum",
                            lambda spec, i: honest_power_sum(spec, i) + spec.one)
        reps = check_elementary_lemmas(spec, 1, seed=0, trials=2)
    elif identity == "vector-power-sum":
        # leave one nonzero vector out of the sum
        honest_vectors = verify.enumerate_vectors
        monkeypatch.setattr(verify, "enumerate_vectors", lambda W: list(honest_vectors(W))[:-1])
        reps = check_elementary_lemmas(spec, 2, seed=0, trials=2)
    elif identity == "pi-of-line":
        honest_pi = verify.pi_product
        monkeypatch.setattr(verify, "pi_product", lambda U: honest_pi(U) + U.ring.one)
        reps = check_elementary_lemmas(spec, 2, seed=0, trials=2)
    else:
        honest_div = verify.exact_div
        monkeypatch.setattr(verify, "exact_div", lambda a, b: honest_div(a, b) + a.ring.one)
        reps = [check_division_round_trip(spec, seed=0, pairs=5)]
    (rep,) = [r for r in reps if r.identity == identity]
    assert rep.status == "fail"
    assert rep.lhs and rep.rhs and rep.lhs != rep.rhs, rep
    # the sides are values, not fixed words
    R.parse(rep.lhs)
    R.parse(rep.rhs)
    if identity == "power-sum-zero":
        assert (rep.basis, rep.rhs) == ("i=0", "0")
    if identity == "vector-power-sum":
        assert rep.basis == f"{V.describe()} k=1 a=(0,)" and rep.rhs == "0"


def test_perm_witness_search_runs_once_per_process(monkeypatch):
    """The q-independent witness search runs once for a witness function:
    the second field makes no perm_witness call and gets the same cases."""
    from qschur import partitions, verify

    honest_witness = partitions.perm_witness
    calls = 0

    def counted(alpha, beta, sigma):
        nonlocal calls
        calls += 1
        return honest_witness(alpha, beta, sigma)

    monkeypatch.setattr(partitions, "perm_witness", counted)
    first = verify._check_perm_witness(2)
    assert calls == 99_152
    second = verify._check_perm_witness(3)
    assert calls == 99_152

    def strip(reports):
        return [{k: v for k, v in r.to_dict().items() if k not in ("q", "millis")}
                for r in reports]

    assert strip(first) == strip(second)
    assert [r.n for r in first] == [1, 2, 3, 4, 5, 6]
    assert {r.q for r in first} == {2} and {r.q for r in second} == {3}
    assert all(r.status == "pass" for r in first)


def test_mutation_is_caught():
    """A sign error planted in a strip-expansion double must be reported.

    The double mirrors pieri_expand but negates every strip sign. Runs at
    q = 3: over F_2 a flipped sign is invisible.
    """
    from qschur.partitions import q_exponent, vertical_strip_subpartitions

    spec, ctx, R, V = make(q=3)

    def sign_flipped_pieri(la, m, W, L):
        ell = L.basis[0]
        total = W.ring.zero
        for nu in vertical_strip_subpartitions(la):
            e = q_exponent(la, nu, W.dim, spec.q)
            wrong = spec.sign(weight(la) - weight(nu) + 1)
            total = total + (ell**e * ctx.skew_S(nu, m, W)).scale(wrong)
        return total

    rep = check_vl_recursion(ctx, (2,), (), V, summand_fn=sign_flipped_pieri)
    assert rep.status == "fail"
    assert rep.lhs != "" and rep.rhs != ""
    assert rep.lhs != rep.rhs
    # and the honest summand still passes
    assert check_vl_recursion(ctx, (2,), (), V).status == "pass"


def test_sweep_config_defaults_valid():
    cfg = SweepConfig()
    cfg.validate()
    assert cfg.selected() == set(ALL_IDENTITIES)


def test_sweep_config_group_selection():
    cfg = SweepConfig(identities=("matrix-calculus",))
    assert cfg.selected() == set(GROUPS["matrix-calculus"])
    cfg = SweepConfig(identities=("vl-recursion", "pieri"))
    assert cfg.selected() == {"vl-recursion", "pieri"}
    with pytest.raises(ConfigInvalid):
        SweepConfig(identities=("not-a-thing",)).selected()


def test_sweep_config_validation_errors():
    with pytest.raises(ConfigInvalid):
        SweepConfig(fields=("q=banana",)).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(max_dim=9).validate()  # 2^9 over the ceiling
    with pytest.raises(ConfigInvalid):
        SweepConfig(min_dim=3, max_dim=1).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(max_weight=-1).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(trials=-5).validate()


def test_sweep_config_from_dict():
    cfg = SweepConfig.from_dict({"fields": "q=3", "max_dim": 2,
                                 "identities": "pieri", "seed": 7})
    assert cfg.fields == ("q=3",)
    assert cfg.identities == ("pieri",)
    assert cfg.seed == 7
    with pytest.raises(ConfigInvalid):
        SweepConfig.from_dict({"wat": 1})
    with pytest.raises(ConfigInvalid):
        SweepConfig.from_dict({"seed": "soon"})


def small_cfg(**kw):
    base = dict(fields=("q=2",), min_dim=0, max_dim=2, max_weight=3,
                identities=("all",), seed=0, trials=5)
    base.update(kw)
    return SweepConfig(**base)


def test_run_sweep_small_all_pass():
    report = run_sweep(small_cfg())
    agg = report["aggregate"]
    assert agg["failed"] == 0
    assert agg["passed"] == agg["total"] == len(report["cases"])
    assert agg["seed"] == 0
    for case in report["cases"]:
        assert set(case) == REPORT_KEYS
    json.dumps(report)


def test_run_sweep_deterministic_modulo_millis():
    def strip(report):
        return [{k: v for k, v in c.items() if k != "millis"}
                for c in report["cases"]]

    a = run_sweep(small_cfg(identities=("elementary", "matrix-calculus")))
    b = run_sweep(small_cfg(identities=("elementary", "matrix-calculus")))
    assert strip(a) == strip(b)
    assert a["aggregate"] == b["aggregate"]


def test_run_sweep_seed_changes_random_draws():
    a = run_sweep(small_cfg(identities=("cauchy-binet",), seed=0))
    b = run_sweep(small_cfg(identities=("cauchy-binet",), seed=1))
    assert a["aggregate"]["seed"] == 0
    assert b["aggregate"]["seed"] == 1
    assert a["aggregate"]["total"] == b["aggregate"]["total"]
    draws_a = [c["basis"] for c in a["cases"]]
    draws_b = [c["basis"] for c in b["cases"]]
    assert len(draws_a) == 5  # one case per trial
    assert draws_a != draws_b


def test_run_sweep_cases_sorted():
    report = run_sweep(small_cfg(identities=("subspace-calculus",)))
    keys = [(c["identity"], c["q"], c["n"], c["lambda"], c["mu"], c["basis"])
            for c in report["cases"]]
    assert keys == sorted(keys)


def test_run_sweep_identity_filter():
    report = run_sweep(small_cfg(identities=("pieri",)))
    assert report["cases"]
    assert {c["identity"] for c in report["cases"]} == {"pieri"}


def test_run_sweep_scopes_the_config_ceiling(monkeypatch):
    seen = []
    honest = verify.check_quotient_tower

    def spy(V, U, T, q):
        seen.append(get_enumeration_ceiling())
        return honest(V, U, T, q)

    monkeypatch.setattr(verify, "check_quotient_tower", spy)
    report = run_sweep(small_cfg(identities=("quotient-tower",), ceiling=300))
    assert report["aggregate"]["failed"] == 0
    assert seen and set(seen) == {300}
    assert get_enumeration_ceiling() == DEFAULT_ENUMERATION_CEILING

    def broken(V, U, T, q):
        assert get_enumeration_ceiling() == 5
        raise KeyError("boom")

    monkeypatch.setattr(verify, "check_quotient_tower", broken)
    with pytest.raises(KeyError):
        run_sweep(small_cfg(identities=("quotient-tower",), ceiling=5))
    assert get_enumeration_ceiling() == DEFAULT_ENUMERATION_CEILING


def product_random_poly(ring, rng, max_terms=2, max_exp=6, allow_zero=False):
    """The random polynomial built as a sum of scaled products of powers of
    the generators, drawing what _random_poly draws in the same order."""
    spec = ring.spec
    out = ring.zero
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        m = ring.one
        for g in ring.gens():
            m = m * g ** rng.randint(0, max_exp)
        out = out + m.scale(spec.elements[rng.randrange(1, spec.q)])
    return out


@pytest.mark.parametrize("ftext", ["q=2", "q=3", "q=2^2"])
def test_random_poly_matches_the_product_construction(ftext):
    spec = parse_field_spec(ftext)
    shapes = [dict(), dict(max_terms=2, max_exp=3, allow_zero=True),
              dict(max_terms=3, max_exp=spec.q**2, allow_zero=True),
              dict(max_terms=6, max_exp=1)]  # repeated monomials add up or cancel
    for n in (1, 2, 3):
        ring = ambient_ring(spec, n)
        for seed in range(40):
            for shape in shapes:
                a_rng, b_rng = random.Random(seed), random.Random(seed)
                a = verify._random_poly(ring, a_rng, **shape)
                b = product_random_poly(ring, b_rng, **shape)
                assert a == b and hash(a) == hash(b) and str(a) == str(b)
                assert (a.shift, a.width) == (b.shift, b.width)
                assert a_rng.random() == b_rng.random()  # the same draws


def test_coproduct_truncation_case():
    spec, ctx, R, V = make()
    U = span(R, [R.gens()[0]])
    rep = check_coproduct_truncation(ctx, (2,), (), (1, 1), V, U)
    assert rep.status == "pass"
    with pytest.raises(ConfigInvalid):
        check_coproduct_truncation(ctx, (2,), (), (1,), V, U)  # nu inside lam
