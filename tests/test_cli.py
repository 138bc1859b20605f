"""Command-line behavior: exact text, JSON shape, exit codes, determinism."""

import json

import pytest

from qschur.cli import _ring_size, main
from qschur.gf import parse_field_spec
from qschur.ppoly import ambient_ring, evaluate_morphism, get_term_limit
from qschur.schur import SchurContext
from qschur.subspaces import (
    DEFAULT_ENUMERATION_CEILING,
    generic_space,
    get_enumeration_ceiling,
    span,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_straight_value(capsys):
    code, out, err = run(capsys, "compute", "S", "--lambda", "1",
                         "--field", "q=2", "--basis", "x;y")
    assert code == 0
    assert out == "x^2 + x*y + y^2\n"
    assert err == ""


def test_compute_elementary_is_pi(capsys):
    code, out, _ = run(capsys, "compute", "E", "--r", "2", "--basis", "x;y")
    assert code == 0
    assert out == "x^2*y + x*y^2\n"
    code, out2, _ = run(capsys, "compute", "pi", "--basis", "x;y")
    assert out2 == out


def test_compute_drops_a_dependent_spanning_vector(capsys):
    # a dependent spanning list is no error: span keeps an echelon basis
    assert run(capsys, "compute", "S", "--lambda", "1", "--basis", "x;x") == (0, "x\n", "")
    assert run(capsys, "compute", "S", "--lambda", "1", "--basis", "x") == (0, "x\n", "")


def test_compute_pi_line_q3(capsys):
    code, out, _ = run(capsys, "compute", "pi", "--field", "q=3",
                       "--basis", "x")
    assert code == 0
    assert out == "2*x^2\n"


def test_compute_h_on_line(capsys):
    code, out, _ = run(capsys, "compute", "H", "--r", "3", "--basis", "x")
    assert out == "x^7\n"


def test_compute_a_deep_one_row_value_off_the_generic_line(capsys):
    # span(y) is not the generic line, so H_250 climbs the window recursion
    code, out, err = run(capsys, "compute", "H", "--r", "250", "--field", "q=2",
                         "--basis", "y")
    assert (code, out, err) == (0, f"y^{2**250 - 1}\n", "")


def test_compute_a_deep_one_row_value_meets_the_term_limit(capsys):
    # the limit ends the climb, not the interpreter's recursion depth
    code, out, err = run(capsys, "compute", "S", "--lambda", "250", "--field", "q=2",
                         "--basis", "x+y;z", "--max-terms", "1000")
    assert (code, out) == (3, "")
    assert err.startswith("error: sum of products holds") and "over the limit 1000" in err
    assert err.count("\n") == 1


def test_compute_json_round_trips(capsys):
    code, out, _ = run(capsys, "compute", "S", "--lambda", "2,1",
                       "--field", "q=3", "--basis", "x;y", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"field", "basis", "value", "fractional_exponents"}
    assert payload["field"] == "q=3"
    assert payload["fractional_exponents"] is False
    ring = ambient_ring(parse_field_spec("q=3"), 8)
    assert str(ring.parse(payload["value"])) == payload["value"]


def test_compute_annihilator_fractional_flag(capsys):
    # the flag reads the coefficients of f_V, which keep the basis's roots
    code, out, _ = run(capsys, "compute", "f", "--basis", "x^1/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "t^2 + (x^1/2)*t"
    assert payload["fractional_exponents"] is True


def test_compute_annihilator_integral_flag(capsys):
    code, out, _ = run(capsys, "compute", "f", "--basis", "x;y", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "t^4 + (x^2 + x*y + y^2)*t^2 + (x^2*y + x*y^2)*t"
    assert payload["fractional_exponents"] is False


def test_compute_tilde_fractional_flag(capsys):
    # the second-row twist is phi^(-1), which leaves q-th roots behind
    code, out, _ = run(capsys, "compute", "tilde", "--lambda", "1,1",
                       "--basis", "x;y", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fractional_exponents"] is True
    assert "^3/2" in payload["value"] or "^1/2" in payload["value"]


def test_quotient_text(capsys):
    code, out, _ = run(capsys, "quotient", "--basis", "x;y", "--sub", "x")
    assert code == 0
    assert out == "x*y + y^2\n"


def test_quotient_json(capsys):
    code, out, _ = run(capsys, "quotient", "--basis", "x;y", "--sub", "x",
                       "--format", "json")
    payload = json.loads(out)
    assert payload == {"field": "q=2", "basis": ["x*y + y^2"]}


def test_lines_text(capsys):
    code, out, _ = run(capsys, "lines", "--basis", "x;y")
    assert code == 0
    # enumeration order follows the coordinate sweep and is frozen
    assert out == "y\nx\nx + y\n"


def test_flags_listing(capsys):
    code, out, _ = run(capsys, "flags", "--basis", "x;y")
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 3
    assert all(" > " in r for r in rows)


@pytest.mark.parametrize("argv", [
    ("compute", "S", "--lambda", "fish"),
    ("compute", "S", "--lambda", "2,-1"),
    ("compute", "S", "--lambda", "1,2"),
    ("compute", "skew", "--lambda", "2,1", "--mu", "1,2"),
], ids=["fish", "negative-part", "increasing", "bad-mu"])
def test_exit_code_2_on_bad_partition(capsys, argv):
    code, out, err = run(capsys, *argv, "--basis", "x;y")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# A 5,000-digit number, past the interpreter's default limit of 4,300 digits
# on conversion between int and str.
LONG = "3" * 5000
S1 = ("compute", "S", "--lambda", "1")


@pytest.mark.parametrize("argv, config", [
    pytest.param(S1 + ("--basis", f"x^{LONG}"), None, id="exponent"),
    pytest.param(S1 + ("--basis", f"x^2/{LONG}"), None, id="denominator"),
    pytest.param(S1 + ("--basis", f"{LONG}*x"), None, id="coefficient"),
    pytest.param(S1 + ("--basis", "x", "--field", f"q={LONG}"), None, id="field-size"),
    pytest.param(S1 + ("--basis", "x", "--field", f"q=2^{LONG}"), None, id="field-degree"),
    pytest.param(S1 + ("--basis", "x", "--field", f"q=2^2:1,1,{LONG}"), None, id="modulus"),
    pytest.param(("verify", "--field", f"q={LONG}"), None, id="verify-field"),
    pytest.param(("verify",), f'{{"seed": {LONG}}}', id="config-seed"),
    pytest.param(("verify",), f'{{"max_weight": {LONG}}}', id="config-max-weight"),
])
def test_a_number_past_the_int_string_limit_exits_2(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "long.json"
        cfg.write_text(config)
        argv += ("--config", str(cfg))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "limit" in err


def test_exit_code_2_on_bad_field(capsys):
    code, _, err = run(capsys, "compute", "S", "--lambda", "1",
                       "--field", "q=6", "--basis", "x;y")
    assert code == 2
    assert "error:" in err


def test_exit_code_2_on_reducible_modulus(capsys):
    code, out, err = run(capsys, "compute", "S", "--lambda", "1",
                         "--field", "q=2^2:1,0,1", "--basis", "x")
    assert code == 2
    assert out == ""
    assert err == "error: modulus [1, 0, 1] is reducible over F_2\n"


def test_exit_code_2_on_unknown_flag(capsys):
    code = main(["compute", "S", "--wat", "1"])
    capsys.readouterr()
    assert code == 2


def test_exit_code_3_on_precondition(capsys):
    # quotient by a subspace that is not inside V; z is named only in --sub,
    # and the ring still holds it, so this is no parse error
    code, out, err = run(capsys, "quotient", "--basis", "x;y", "--sub", "z")
    assert code == 3
    assert out == ""
    assert err == "error: quotient denominator z is not contained in x; y\n"


@pytest.mark.parametrize("argv", [
    ("compute", "E", "--r", "1", "--basis", "x;q"),
    ("quotient", "--basis", "x;y", "--sub", "q"),
])
def test_unknown_variable_error_lists_every_ambient_variable(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: unknown variable 'q'; ring variables are x, y, z, w, v, u, s, r\n"


def test_ring_size_reaches_the_last_named_variable():
    assert _ring_size("x;w", None) == 4
    assert _ring_size("x;y", "z") == 3
    assert _ring_size("x^1/2;[1,1]*y") == 2
    assert _ring_size("1", "") == 0
    # a name outside the alphabet keeps all eight, for the parser to report
    assert _ring_size("x;q") == _ring_size("x1") == 8


@pytest.mark.parametrize("basis", ["x;y", "x;w"])
def test_a_value_in_a_ring_of_its_own_size_prints_as_in_all_eight(capsys, basis):
    code, out, err = run(capsys, "compute", "S", "--lambda", "2,1", "--field", "q=3",
                         "--basis", basis)
    assert code == 0 and err == ""
    spec = parse_field_spec("q=3")
    ring = ambient_ring(spec, 8)
    V = span(ring, [ring.parse(b) for b in basis.split(";")])
    assert out == str(SchurContext(spec).schur_S((2, 1), V)) + "\n"


def test_a_value_on_a_bare_space_that_is_not_generic(capsys):
    # span(y, z) of the three-variable ring: the generic value, relabelled
    code, out, err = run(capsys, "compute", "S", "--lambda", "2,1", "--basis", "y;z")
    assert code == 0 and err == ""
    spec = parse_field_spec("q=2")
    ring = ambient_ring(spec, 3)
    G = generic_space(spec, 2)
    want = evaluate_morphism(SchurContext(spec).schur_S((2, 1), G), list(ring.gens()[1:]))
    assert out == str(want) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exponent_too_long_to_print_exits_3(capsys, fmt):
    # H_r on span(x) at q=2 is x^(2^r - 1): 6,021 digits at r=20000
    code, out, err = run(capsys, "compute", "H", "--r", "20000", "--field", "q=2",
                         "--basis", "x", "--format", fmt)
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot print an exponent of about 6021 decimal digits")
    assert err.count("\n") == 1 and "internal error" not in err
    # 4,215 digits still print
    code, out, err = run(capsys, "compute", "H", "--r", "14000", "--field", "q=2",
                         "--basis", "x", "--format", fmt)
    assert code == 0 and err == ""
    text = json.loads(out)["value"] if fmt == "json" else out.rstrip("\n")
    assert text == f"x^{2**14000 - 1}"


def test_verify_text_summary(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "vl-recursion",
                       "--field", "q=2", "--dim", "2", "--max-weight", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].startswith("total ")
    assert "failed 0" in lines[-1]
    assert "seed 0" in lines[-1]
    for line in lines[:-1]:
        assert line.startswith("pass vl-recursion q=2 n=2")


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "pieri",
                       "--field", "q=2", "--dim", "0..2",
                       "--max-weight", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"cases", "aggregate"}
    agg = report["aggregate"]
    assert set(agg) == {"total", "passed", "failed", "seed"}
    assert agg["failed"] == 0
    assert agg["total"] == len(report["cases"])


def test_verify_deterministic_output(capsys):
    argv = ("verify", "--identity", "elementary", "--field", "q=2",
            "--dim", "2", "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)

    def strip(text):
        rep = json.loads(text)
        for c in rep["cases"]:
            c["millis"] = 0
        return rep

    assert strip(out1) == strip(out2)


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"fields": ["q=2"], "max_dim": 2,
                               "max_weight": 2, "identities": ["pieri"]}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert "failed 0" in out.strip().split("\n")[-1]


def test_verify_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"fields": ["q=2"], "max_dim": 2,
                               "max_weight": 2, "identities": ["pieri"]}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg),
                       "--identity", "hook-step", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert {c["identity"] for c in report["cases"]} == {"hook-step"}


def test_verify_config_ceiling_governs_the_sweep(tmp_path, capsys):
    # 16^2 = 256 is over the default ceiling of 243: every enumeration,
    # annihilator and quotient of the sweep must use the config's ceiling
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"fields": ["q=2^4"], "min_dim": 2, "max_dim": 2,
                               "ceiling": 256,
                               "identities": ["quotient-tower", "coset-product"]}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert out.strip().split("\n")[-1] == "total 108 passed 108 failed 0 seed 0"
    assert get_enumeration_ceiling() == DEFAULT_ENUMERATION_CEILING


def test_verify_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    code, _, err = run(capsys, "verify", "--identity", "nope",
                       "--field", "q=2", "--dim", "1")
    assert code == 2


def test_verify_empty_identity_list_exit_2(tmp_path, capsys):
    # an empty list would run no case and pass vacuously, like an empty field list
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"fields": ["q=2"], "max_dim": 1, "identities": []}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: no identities given\n")


def test_verify_config_past_the_ambient_variables_exit_2(tmp_path, capsys):
    # q^9 fits this ceiling, but an ambient ring has at most 8 variables
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"fields": ["q=2"], "min_dim": 9, "max_dim": 9,
                               "ceiling": 1024, "identities": ["quotient-tower"]}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: max_dim 9 is over 8, the most variables an ambient ring has\n"


def test_verify_boolean_config_value_exit_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"fields": ["q=2"], "max_dim": True, "trials": False}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "must be an integer" in err


@pytest.mark.parametrize("fields, named", [("q=2,q=2", "q=2"),
                                           ("q=2^2,q=2^2:1,1,1", "q=2^2:1,1,1")])
def test_verify_repeated_field_exit_2(capsys, fields, named):
    code, out, err = run(capsys, "verify", "--field", fields, "--dim", "1",
                         "--max-weight", "1", "--identity", "vl-recursion")
    assert (code, out, err) == (2, "", f"error: field {named} is listed twice\n")


def test_max_terms_restored_after_run(capsys):
    before = get_term_limit()
    code, _, _ = run(capsys, "compute", "S", "--lambda", "1",
                     "--basis", "x;y", "--max-terms", "50000")
    assert code == 0
    assert get_term_limit() == before


def test_max_terms_bounds_quotients(capsys):
    # H_6 on span(x, y) at q=3 is an exact quotient of 1,093 terms
    before = get_term_limit()
    argv = ("compute", "H", "--r", "6", "--field", "q=3", "--basis", "x;y")
    code, out, err = run(capsys, *argv, "--max-terms", "50")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "over the limit 50" in err and err.count("\n") == 1
    assert get_term_limit() == before
    code, out, _ = run(capsys, *argv, "--max-terms", "1093")
    assert code == 0
    assert out.count(" + ") == 1092


def test_max_terms_bounds_fused_sums_of_products(capsys):
    # on a basis of no bare variables, S_(2,1) is the twisted determinant
    # over one-row values climbed by the window recursion; both are fused
    # sums whose running totals pass 20 terms
    before = get_term_limit()
    argv = ("compute", "S", "--lambda", "2,1", "--field", "q=2", "--basis", "x^2+y;y^2+x")
    code, out, err = run(capsys, *argv, "--max-terms", "20")
    assert code == 3
    assert out == ""
    assert err.startswith("error: sum of products holds") and "over the limit 20" in err
    assert err.count("\n") == 1
    assert get_term_limit() == before
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.count(" + ") == 45


def test_field_list_with_modulus_commas(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "power-sum-zero",
                       "--field", "q=2^2:1,1,1,q=3", "--dim", "1",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    qs = {c["q"] for c in report["cases"]}
    assert qs == {4, 3}


def test_verify_coproduct_truncation_outside_dim_range(capsys):
    # the truncation cases live at dimension 2, outside the 3..3 grid
    code, out, err = run(capsys, "verify", "--dim", "3..3",
                         "--identity", "coproduct-truncation", "--format", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["aggregate"]["total"] == 4
    assert report["aggregate"]["failed"] == 0
    assert {c["n"] for c in report["cases"]} == {2}


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ("compute", "S", "--lambda", "1", "--basis", "x;y"),
    ("verify", "--identity", "hook-step", "--field", "q=2", "--dim", "1"),
])
def test_max_terms_below_one_is_a_usage_error(capsys, argv, value):
    before = get_term_limit()
    code, out, err = run(capsys, *argv, "--max-terms", value)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert get_term_limit() == before


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    import qschur.cli as cli

    def broken(V):
        raise KeyError(2)

    monkeypatch.setattr(cli, "enumerate_lines", broken)
    code, out, err = run(capsys, "lines", "--basis", "x;y")
    assert code == 4
    assert out == ""
    assert err == "error: internal error: KeyError: 2\n"


def test_verify_reports_tell_extension_moduli_apart(capsys):
    # two moduli of F_8: q alone cannot tell their cases apart, basis does
    code, out, _ = run(capsys, "verify", "--field", "q=2^3:1,0,1,1,q=2^3:1,1,0,1",
                       "--identity", "power-sum-zero", "--dim", "1..1",
                       "--format", "json")
    assert code == 0
    cases = json.loads(out)["cases"]
    assert [(c["q"], c["basis"]) for c in cases] == [
        (8, "q=2^3:1,0,1,1"), (8, "q=2^3:1,1,0,1")]
    for c in cases:
        assert set(c) == {"identity", "q", "n", "lambda", "mu", "basis",
                          "status", "lhs", "rhs", "millis"}
    # a nonempty basis keeps its text after the field
    code, out, _ = run(capsys, "verify", "--field", "q=2^2", "--identity",
                       "quotient-tower", "--dim", "1..1", "--format", "json")
    assert [c["basis"] for c in json.loads(out)["cases"]] == [
        "q=2^2:1,1,1 x / 0 / 0", "q=2^2:1,1,1 x / x / 0", "q=2^2:1,1,1 x / x / x"]
    # prime fields keep the bare basis
    code, out, _ = run(capsys, "verify", "--field", "q=2", "--identity",
                       "quotient-tower", "--dim", "1..1", "--format", "json")
    assert [c["basis"] for c in json.loads(out)["cases"]] == [
        "x / 0 / 0", "x / x / 0", "x / x / x"]
