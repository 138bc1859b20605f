"""Sweep driver: case reports, config validation, and a mutation check."""

import hashlib
import json
import random
import re
from collections import Counter

import pytest

from qschur import partitions, schur, verify
from qschur.errors import (
    ConfigInvalid,
    HypothesisViolated,
    LengthTooLong,
    NotALine,
    NotFullColumn,
    NotSubspace,
    WindowInvalid,
    ZeroVector,
)
from qschur.gf import field_spec, parse_field_spec
from qschur.partitions import pad_and_add, subpartitions_between, weight
from qschur.ppoly import ambient_ring, get_term_limit, set_term_limit, sum_of_products
from qschur.schur import SchurContext
from qschur.subspaces import (
    DEFAULT_ENUMERATION_CEILING,
    Subspace,
    enumerate_flags,
    enumerate_lines,
    generic_space,
    get_enumeration_ceiling,
    internal_quotient,
    pi_product,
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


def test_check_he_inverse_window():
    spec, ctx, R, V = make()
    assert check_he_inverse(ctx, V, -3, 3).status == "pass"
    with pytest.raises(WindowInvalid):
        check_he_inverse(ctx, V, 2, -2)


@pytest.mark.parametrize("ftext, n", [("q=2", 1), ("q=2", 2), ("q=3", 2), ("q=2^2", 1)])
def test_he_inverse_holds_in_both_orders(monkeypatch, ftext, n):
    """check_he_inverse forms E*H; over a commutative ring one product of
    square matrices is the identity exactly when the other is, and the
    window of a product of upper-triangular arrays is the product of their
    windows, so H*E on the same window is the identity too. E_1 + 1 in
    place of E_1 fails the check."""
    from qschur import fmatrix

    spec = parse_field_spec(ftext)
    ctx = SchurContext(spec)
    R = ambient_ring(spec, n)
    V = span(R, R.gens())
    lo, hi = -(n + 2), n + 2
    H, E = ctx.h_matrix(V), ctx.e_matrix(V)
    assert fmatrix.window_product(E, H, lo, hi).is_identity()
    assert fmatrix.window_product(H, E, lo, hi).is_identity()
    assert check_he_inverse(ctx, V, lo, hi).status == "pass"
    honest = ctx.e_r
    monkeypatch.setattr(ctx, "e_r",
                        lambda r, W: honest(r, W) + R.one if r == 1 else honest(r, W))
    rep = check_he_inverse(ctx, V, lo, hi)
    assert rep.status == "fail"
    assert rep.lhs and rep.rhs and rep.lhs != rep.rhs


def test_check_factorization_small():
    spec, ctx, R, V = make()
    U = span(R, [R.gens()[0]])
    assert check_factorization(ctx, V, U).status == "pass"
    assert check_factorization(ctx, V, Subspace.zero(R)).status == "pass"
    assert check_factorization(ctx, V, V).status == "pass"
    with pytest.raises(NotSubspace):
        check_factorization(ctx, U, V)


def test_check_hook_step():
    spec, ctx, R, V = make()
    x, y = R.gens()
    line = span(R, [x + y])
    for r in (1, 2, 3):
        assert check_hook_step(ctx, line, r).status == "pass"
    with pytest.raises(HypothesisViolated):
        check_hook_step(ctx, line, 0)
    with pytest.raises(NotALine):
        check_hook_step(ctx, V, 1)


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


def test_a_wrong_diagonal_value_shows_in_lifted_cells(monkeypatch):
    """H_3 + 1 in place of H_3: he-inverse fails, and every diagonal that
    uses H_3 differs in every window cell, the lifted rows included, so a
    Frobenius lift of the first row does not hide the corruption."""
    spec, ctx, R, V = make(q=3)
    honest = ctx.h_r
    monkeypatch.setattr(ctx, "h_r",
                        lambda r, W: honest(r, W) + R.one if r == 3 else honest(r, W))
    lo, hi = -3, 3
    rep = check_he_inverse(ctx, V, lo, hi)
    assert rep.status == "fail"
    cells = [tuple(int(k) for k in cell.split(": ")[0].strip("()").split(","))
             for cell in rep.lhs.split("; ")]
    # cell (i, j) of E*H gains +-phi^(j - 3) E_(j - i - 3), nonzero for j - i
    # in 3..3 + dim V
    diagonals = set(range(3, 3 + V.dim + 1))
    assert {j - i for i, j in cells} == diagonals
    for d in diagonals:
        assert [i for i, j in cells if j - i == d] == list(range(lo, hi - d + 1)), d


@pytest.mark.parametrize("identity", ["gl-invariance", "pi-of-line", "division-round-trip",
                                      "he-inverse", "h-factorization", "hook-step",
                                      "quotient-tower", "coset-product", "power-sum-zero",
                                      "vector-power-sum", "perm-witness",
                                      "full-column-reduction"])
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

        def corrupt_quot(A, B):
            Q = honest_quot(A, B)
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
        honest_morphism = verify.evaluate_morphism
        monkeypatch.setattr(verify, "evaluate_morphism",
                            lambda p, images, target_ring=None:
                            honest_morphism(p, images, target_ring) + images[0].ring.one)
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
        honest_coset = subspaces.coset_product
        monkeypatch.setattr(subspaces, "coset_product",
                            lambda U, Uprime: honest_coset(U, Uprime) + U.ring.one)
        reps = check_elementary_lemmas(spec, 2, seed=0, trials=2)
    elif identity == "full-column-reduction":
        # at lambda = (1^n) the sides are the alternant E_n and -+ pi(V)
        honest_pi = subspaces.pi_product
        monkeypatch.setattr(subspaces, "pi_product", lambda U: honest_pi(U) + U.ring.one)
        reps = [check_full_column(ctx, (1,) * V.dim, V)]
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


def test_straight_recursion_catches_a_corrupted_universal_value(monkeypatch):
    """On the generic space the value on V is the alternant quotient itself,
    so adding one to that quotient breaks the line sum."""
    spec, ctx, R, V = make()
    assert V is generic_space(spec, V.dim)
    clean = SchurContext(spec)
    assert check_straight_recursion(clean, (2,), V).status == "pass"
    top = ctx.alternant(pad_and_add((2,), V.dim), V.dim)
    honest = schur.exact_div

    def corrupted(a, b):
        value = honest(a, b)
        return value + value.ring.one if a == top else value

    monkeypatch.setattr(schur, "exact_div", corrupted)
    rep = check_straight_recursion(ctx, (2,), V)
    assert rep.status == "fail"
    assert rep.lhs == str(clean.schur_S((2,), V) + R.one)


def test_straight_recursion_catches_one_corrupted_quotient_value(monkeypatch):
    """Adding one to the value on a single quotient V // L breaks the sum."""
    spec, ctx, R, V = make()
    Q = internal_quotient(V, enumerate_lines(V)[0])
    honest = ctx.schur_S

    def corrupted(lam, W):
        value = honest(lam, W)
        return value + W.ring.one if (lam, W) == ((2,), Q) else value

    monkeypatch.setattr(ctx, "schur_S", corrupted)
    rep = check_straight_recursion(ctx, (2,), V)
    assert rep.status == "fail"
    assert rep.lhs == str(honest((2,), V))


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
        SweepConfig(max_dim=6).validate()  # 3^6 over the ceiling
    with pytest.raises(ConfigInvalid):
        SweepConfig(min_dim=3, max_dim=1).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(max_weight=-1).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(trials=-5).validate()


def test_a_sweep_past_the_ambient_variables_is_refused():
    # 2^9 fits the ceiling, but an ambient ring has at most 8 variables
    cfg = SweepConfig(fields=("q=2",), min_dim=9, max_dim=9, ceiling=1024,
                      identities=("quotient-tower",))
    with pytest.raises(ConfigInvalid, match="^max_dim 9 is over 8, the most variables"):
        cfg.validate()
    with pytest.raises(ConfigInvalid, match="^max_dim 9 is over 8"):
        run_sweep(cfg)


def test_an_empty_identity_list_is_refused():
    with pytest.raises(ConfigInvalid, match="^no identities given$"):
        SweepConfig(identities=()).validate()
    with pytest.raises(ConfigInvalid, match="^no identities given$"):
        SweepConfig.from_dict({"fields": ["q=2"], "identities": []})
    with pytest.raises(ConfigInvalid, match="^no identities given$"):
        run_sweep(SweepConfig(fields=("q=2",), max_dim=1, identities=()))


@pytest.mark.parametrize("fields, named", [
    (("q=2", "q=2"), "q=2"),
    (("q=2^2", "q=2^2:1,1,1"), "q=2^2:1,1,1"),  # one field, two spellings
    (("q=3", "q=2", "q=3"), "q=3"),
])
def test_a_repeated_field_is_refused(fields, named):
    # a sweep would report every case of the field twice
    with pytest.raises(ConfigInvalid, match=f"^field {re.escape(named)} is listed twice$"):
        SweepConfig(fields=fields, max_dim=1).validate()
    with pytest.raises(ConfigInvalid, match="is listed twice$"):
        SweepConfig.from_dict({"fields": list(fields), "max_dim": 1})


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


@pytest.mark.parametrize("key", ["min_dim", "max_dim", "max_weight", "seed", "trials", "ceiling"])
@pytest.mark.parametrize("flag", [True, False])
def test_sweep_config_from_dict_refuses_booleans(key, flag):
    # JSON true and false are not the integers 1 and 0
    with pytest.raises(ConfigInvalid, match=f"^{key} must be an integer$"):
        SweepConfig.from_dict({"fields": ["q=2"], key: flag})
    # a directly built config meets the same rule
    with pytest.raises(ConfigInvalid, match=f"^{key} must be an integer$"):
        SweepConfig(**{key: flag}).validate()


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


def test_run_sweep_with_no_trials_passes():
    # the randomized checks draw nothing; only the matrix lemmas, one case
    # per trial, report no case
    report = run_sweep(small_cfg(max_weight=1, trials=0))
    assert report["aggregate"]["failed"] == 0
    per_trial = {"cauchy-binet", "sign-scaled-det", "zero-block-det"}
    assert {c["identity"] for c in report["cases"]} == set(ALL_IDENTITIES) - per_trial


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


@pytest.mark.parametrize("fields,identities", [
    (("q=5",), ("he-inverse", "h-factorization")),
    (("q=2^2",), ("he-inverse",)),
])
def test_run_sweep_leaves_out_windows_past_the_term_limit(fields, identities):
    # at n = 2 the windows need H_12 (he-inverse) and H_10 (h-factorization)
    # on span(x, y): (q^13 - 1)/(q - 1) and (q^11 - 1)/(q - 1) terms, past
    # the default limit at these q
    report = run_sweep(small_cfg(fields=fields, identities=identities))
    assert report["aggregate"]["failed"] == 0
    assert {c["n"] for c in report["cases"]} == {0, 1}
    assert {c["identity"] for c in report["cases"]} == set(identities)


def test_window_cap_follows_the_term_limit():
    # H_12 on span(x, y) at q=2 has 2^13 - 1 = 8191 terms
    cfg = small_cfg(identities=("he-inverse",))
    saved = get_term_limit()
    try:
        set_term_limit(8190)
        assert {c["n"] for c in run_sweep(cfg)["cases"]} == {0, 1}
        set_term_limit(8191)
        report = run_sweep(cfg)
    finally:
        set_term_limit(saved)
    assert {c["n"] for c in report["cases"]} == {0, 1, 2}
    assert report["aggregate"]["failed"] == 0


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


def test_check_coproduct_total():
    spec, ctx, R, V = make()
    U = span(R, [R.gens()[0]])
    assert check_coproduct(ctx, (2,), (), V, U).status == "pass"
    total = sum_of_products(R, [verify._coproduct_addend(ctx, (2,), (), nu, V, U)
                                for nu in subpartitions_between((), (2,))])
    assert total == ctx.skew_S((2,), (), internal_quotient(V, U))
    with pytest.raises(NotSubspace):
        check_coproduct(ctx, (1,), (), U, V)


def test_a_corrupted_coproduct_addend_fails_both_coproduct_identities(monkeypatch):
    """Both coproduct identities form their addends in one helper, so one
    corruption there shows in each."""
    spec, ctx, R, V = make(q=3)
    U = span(R, [R.gens()[0]])
    honest = verify._coproduct_addend

    def corrupted(*args):
        sign, left, right = honest(*args)
        return sign, left + R.one, right + R.one

    assert check_coproduct(ctx, (2,), (), V, U).status == "pass"
    assert check_coproduct_truncation(ctx, (2,), (), (1, 1), V, U).status == "pass"
    monkeypatch.setattr(verify, "_coproduct_addend", corrupted)
    for rep in (check_coproduct(ctx, (2,), (), V, U),
                check_coproduct_truncation(ctx, (2,), (), (1, 1), V, U)):
        assert rep.status == "fail", rep
        assert rep.lhs and rep.rhs and rep.lhs != rep.rhs, rep


def test_check_pieri_matches_quotient(monkeypatch):
    spec, ctx, R, V = make(q=3)
    lines = enumerate_lines(V)
    for L in lines:
        rep = check_pieri(ctx, (2,), (), V, L.basis[0])
        assert rep.status == "pass"
    # the check forms the expansion itself: a wrong strip exponent shows
    honest = partitions.q_exponent
    monkeypatch.setattr(partitions, "q_exponent", lambda *args: honest(*args) + 1)
    for L in lines:
        rep = check_pieri(ctx, (2,), (), V, L.basis[0])
        assert rep.status == "fail" and rep.lhs != rep.rhs


def test_check_pieri_input_checks():
    spec, ctx, R, V = make()
    x, y = R.gens()
    with pytest.raises(ZeroVector):
        check_pieri(ctx, (1,), (), V, R.zero)
    with pytest.raises(LengthTooLong):
        check_pieri(ctx, (1, 1), (), V, x)
    spec3, ctx3, R3, _ = make(q=2, n=3)
    u, v, w = R3.gens()
    with pytest.raises(NotSubspace):
        check_pieri(ctx3, (1,), (), span(R3, [u, v]), w)


def test_check_full_column_reduction():
    spec, ctx, R, V = make()
    assert check_full_column(ctx, (1, 1), V).status == "pass"
    assert check_full_column(ctx, (2, 1), V).status == "pass"
    spec3, ctx3, R3, V3 = make(q=2, n=3)
    assert check_full_column(ctx3, (2, 1, 1), V3).status == "pass"
    # the right-hand side, stated here once more: (-1)^n pi(V) S_(1)(V)^q
    assert ctx.schur_S((2, 1), V) == pi_product(V) * ctx.schur_S((1,), V) ** 2
    with pytest.raises(NotFullColumn):
        check_full_column(ctx, (2,), V)


def _case_digest(report):
    """(cases per identity, SHA-256 of the sorted cases without millis)."""
    cases = [{k: v for k, v in c.items() if k != "millis"} for c in report["cases"]]
    counts = Counter(c["identity"] for c in cases)
    text = json.dumps(cases, sort_keys=True)
    return counts, hashlib.sha256(text.encode()).hexdigest()


# Coproduct cases for different U share one sort key, so these digests also
# pin the order in which each identity generates its cases.
PINNED_SWEEPS = [
    (dict(fields=("q=2",)),
     {"cauchy-binet": 3, "coproduct": 88, "coproduct-truncation": 2, "coset-product": 16,
      "degree-formula": 7, "division-round-trip": 1, "flag-formula": 8,
      "full-column-reduction": 3, "functoriality": 7, "gl-invariance": 7,
      "h-factorization": 8, "he-inverse": 3, "hook-step": 12, "k-independence": 18,
      "line-sum": 2, "low-degree-point-sum": 2, "perm-witness": 6, "pi-flag-product": 4,
      "pi-of-line": 1, "pieri": 19, "power-sum-zero": 1, "quotient-tower": 16,
      "sign-scaled-det": 3, "straight-recursion": 4, "vanishing": 18,
      "vector-power-sum": 1, "vl-recursion": 7, "zero-block-det": 3},
     "fbf8faa4802151e98aceffdef0adff174dbe4d515f052b93be99ee2488f69cc9"),
    # the extension field puts its modulus in front of every basis
    (dict(fields=("q=2^2",), identities=("vl-recursion", "pieri", "coproduct",
                                         "subspace-calculus", "elementary", "structural")),
     {"coproduct": 110, "coproduct-truncation": 2, "coset-product": 22,
      "degree-formula": 7, "division-round-trip": 1, "full-column-reduction": 3,
      "functoriality": 7, "gl-invariance": 7, "hook-step": 18, "k-independence": 18,
      "line-sum": 2, "low-degree-point-sum": 2, "perm-witness": 6, "pi-flag-product": 6,
      "pi-of-line": 1, "pieri": 31, "power-sum-zero": 1, "quotient-tower": 22,
      "vanishing": 18, "vector-power-sum": 1, "vl-recursion": 7},
     "db7c926f7a79aa729d1b6c8293e8c478caa6ecb6c4aaaf65c0c53ff99594d813"),
    # dimension 3 with min_dim 1: the weight caps at n = 3, the dimension-2
    # stop of the window and coproduct grids, and elementary up to n = 3
    (dict(fields=("q=2",), min_dim=1, max_dim=3, max_weight=2, trials=2),
     {"cauchy-binet": 2, "coproduct": 77, "coproduct-truncation": 2, "coset-product": 81,
      "degree-formula": 11, "division-round-trip": 1, "flag-formula": 11,
      "full-column-reduction": 3, "functoriality": 7, "gl-invariance": 11,
      "h-factorization": 7, "he-inverse": 2, "hook-step": 33, "k-independence": 28,
      "line-sum": 3, "low-degree-point-sum": 3, "perm-witness": 6, "pi-flag-product": 25,
      "pi-of-line": 1, "pieri": 96, "power-sum-zero": 1, "quotient-tower": 81,
      "sign-scaled-det": 2, "straight-recursion": 8, "vanishing": 13,
      "vector-power-sum": 2, "vl-recursion": 18, "zero-block-det": 2},
     "8f8ead1733a6963a968d2e3d7862e2f9524df4c76d8c7d6a3ea517bad67fcb09"),
    # dimension 3 alone: no window, coproduct or functoriality case, while
    # elementary still runs at n = 1..3
    (dict(fields=("q=2", "q=3"), min_dim=3, max_dim=3, max_weight=1, trials=2),
     {"cauchy-binet": 4, "coproduct-truncation": 4, "coset-product": 199,
      "degree-formula": 4, "division-round-trip": 2, "flag-formula": 4, "gl-invariance": 4,
      "hook-step": 60, "k-independence": 6, "line-sum": 6, "low-degree-point-sum": 6,
      "perm-witness": 12, "pi-flag-product": 73, "pi-of-line": 2, "pieri": 60,
      "power-sum-zero": 2, "quotient-tower": 199, "sign-scaled-det": 4,
      "straight-recursion": 4, "vector-power-sum": 4, "vl-recursion": 6, "zero-block-det": 4},
     "dd6e84f0fa04cf173fd467b6a684978596998ecd549ccb8126e2839e6dc486e3"),
    # every dimension 0..3 at both default fields: each space in the ring of
    # its own size, functoriality's family in the widest one
    (dict(fields=("q=2", "q=3"), max_dim=3),
     {"cauchy-binet": 6, "coproduct": 187, "coproduct-truncation": 4, "coset-product": 234,
      "degree-formula": 22, "division-round-trip": 2, "flag-formula": 24,
      "full-column-reduction": 6, "functoriality": 14, "gl-invariance": 22,
      "h-factorization": 17, "he-inverse": 6, "hook-step": 87, "k-independence": 58,
      "line-sum": 6, "low-degree-point-sum": 6, "perm-witness": 12, "pi-flag-product": 82,
      "pi-of-line": 2, "pieri": 264, "power-sum-zero": 2, "quotient-tower": 234,
      "sign-scaled-det": 6, "straight-recursion": 16, "vanishing": 44,
      "vector-power-sum": 4, "vl-recursion": 36, "zero-block-det": 6},
     "1897280c422ee7f963ab4863c59a6d2b9437c994ccf8d01e48682c620b5c6451"),
]


@pytest.mark.parametrize("overrides, counts, digest", PINNED_SWEEPS,
                         ids=["q2-all", "q4-skew-subspace-structural", "q2-dims-1-3",
                              "q2-q3-dim-3", "q2-q3-dims-0-3"])
def test_run_sweep_case_list_is_pinned(overrides, counts, digest):
    cfg = SweepConfig(**dict(dict(min_dim=0, max_dim=2, max_weight=2, trials=3), **overrides))
    report = run_sweep(cfg)
    assert report["aggregate"]["failed"] == 0
    assert _case_digest(report) == (counts, digest)


def test_groups_and_identities_keep_their_order():
    # the CLI help lists the groups in this order
    assert list(GROUPS) == ["vl-recursion", "straight-recursion", "flag-formula", "pieri",
                            "coproduct", "matrix-calculus", "subspace-calculus",
                            "elementary", "structural"]
    assert ALL_IDENTITIES == (
        "vl-recursion", "straight-recursion", "flag-formula", "pieri", "coproduct",
        "he-inverse", "h-factorization", "cauchy-binet", "sign-scaled-det", "zero-block-det",
        "quotient-tower", "coset-product", "pi-flag-product", "hook-step",
        "full-column-reduction", "power-sum-zero", "line-sum", "pi-of-line",
        "low-degree-point-sum", "vector-power-sum", "perm-witness", "gl-invariance",
        "k-independence", "vanishing", "division-round-trip", "degree-formula",
        "functoriality", "coproduct-truncation",
    )


TABLE_CFG = dict(fields=("q=2",), min_dim=0, max_dim=2, max_weight=1, trials=1)


def test_each_swept_space_lives_in_the_ring_of_its_own_size(monkeypatch):
    """Every dimension row gets V = span of all variables of the
    max(n, 1)-variable ambient ring, and a context of that dimension's own;
    per-field rows get (cfg, ctx) alone, with one more context; functoriality
    draws its family in the max(max_dim, 1)-variable ring."""
    from dataclasses import replace

    seen, per_field, functoriality_rings = [], [], []

    def spied(row):
        def cases(cfg, ctx, *rest):
            if row.per_field:
                assert rest == ()
                per_field.append((row.names, ctx.spec.q, ctx))
            else:
                (V,) = rest
                seen.append((row.names, ctx.spec, V, ctx))
            return row.cases(cfg, ctx, *rest)
        return replace(row, cases=cases)

    honest_functoriality = verify.check_functoriality

    def spied_functoriality(ctx, lam, n, ring, seed):
        functoriality_rings.append((ctx.spec, ring))
        return honest_functoriality(ctx, lam, n, ring, seed)

    monkeypatch.setattr(verify, "IDENTITIES", tuple(spied(row) for row in verify.IDENTITIES))
    monkeypatch.setattr(verify, "check_functoriality", spied_functoriality)
    report = run_sweep(SweepConfig(fields=("q=2", "q=3"), min_dim=0, max_dim=3,
                                   max_weight=1, trials=1))
    assert report["aggregate"]["failed"] == 0
    assert {V.dim for _, _, V, _ in seen} == {0, 1, 2, 3}
    for names, spec, V, _ in seen:
        ring = ambient_ring(spec, max(V.dim, 1))
        assert V.ring is ring and V.basis == ring.gens()[:V.dim], (names, V.dim)
        assert V is generic_space(spec, V.dim)
    assert len(per_field) == 2 * sum(row.per_field for row in verify.IDENTITIES)
    contexts = {(spec.q, V.dim): ctx for _, spec, V, ctx in seen}
    assert all(ctx is contexts[spec.q, V.dim] for _, spec, V, ctx in seen)
    field_contexts = {q: ctx for _, q, ctx in per_field}
    assert all(ctx is field_contexts[q] for _, q, ctx in per_field)
    every = list(contexts.values()) + list(field_contexts.values())
    assert len({id(ctx) for ctx in every}) == len(every) == 10
    assert functoriality_rings
    assert all(ring is ambient_ring(spec, 3) for spec, ring in functoriality_rings)


def test_each_table_row_reports_exactly_the_names_it_declares():
    cfg = SweepConfig(**TABLE_CFG)
    ctx = SchurContext(field_spec(2))
    ring = ambient_ring(ctx.spec, 2)
    for row in verify.IDENTITIES:
        if row.per_field:
            reports = list(row.cases(cfg, ctx))
        else:
            reports = [rep for n in range(3) if row.runs_at(n)
                       for rep in row.cases(cfg, ctx, span(ring, ring.gens()[:n]))]
        assert {rep.identity for rep in reports} == set(row.names), row.names
        assert all(rep.status == "pass" for rep in reports), row.names


@pytest.mark.parametrize("name", list(GROUPS) + [n for n in ALL_IDENTITIES if n not in GROUPS])
def test_a_group_or_identity_chosen_alone_reports_exactly_its_members(name):
    # line-sum alone runs the elementary bundle and keeps only line-sum
    report = run_sweep(SweepConfig(**TABLE_CFG, identities=(name,)))
    members = set(GROUPS.get(name, (name,)))
    assert {c["identity"] for c in report["cases"]} == members
