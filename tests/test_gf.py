"""Finite-field layer: specs, element arithmetic, power sums."""

import itertools

import pytest
import sympy

from qschur.errors import InvalidFieldSpec, PolyParseError
from qschur.gf import (
    Q_CEILING,
    FieldSpec,
    field_enumerate,
    field_spec,
    parse_field_spec,
    power_sum,
    wilson_product,
)


def test_prime_field_basics():
    s = field_spec(5)
    assert s.q == 5
    assert s.p == 5 and s.e == 1
    els = field_enumerate(s)
    assert len(els) == 5
    three = s.element(3)
    four = s.element(4)
    assert str(three * four) == "2"
    assert str(three + four) == "2"
    assert (three * three.inverse()).is_one()
    assert s.element(0).is_zero()


def test_spec_interning():
    assert field_spec(3) is field_spec(3)
    assert field_spec(2, 2) is field_spec(2, 2)
    assert parse_field_spec("q=3") is field_spec(3)
    assert parse_field_spec(field_spec(2, 2).to_text()) is field_spec(2, 2)


def test_to_text_round_trip():
    for s in (field_spec(2), field_spec(3), field_spec(5), field_spec(2, 2),
              field_spec(3, 2), field_spec(2, 3)):
        assert parse_field_spec(s.to_text()) is s


def test_f4_multiplication_table():
    # frozen from an independent GF(2)[t]/(t^2+t+1) oracle; elements are
    # coordinate pairs, bit b encodes [b&1, b>>1]
    expected = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    s = field_spec(2, 2)
    els = {}
    for b in range(4):
        els[b] = s.element((b & 1, b >> 1))
    for a in range(4):
        for b in range(4):
            got = els[a] * els[b]
            assert got == els[expected[a][b]], (a, b)
    for a in range(4):
        for b in range(4):
            assert els[a] + els[b] == els[a ^ b]


def test_f4_inverses():
    s = field_spec(2, 2)
    els = [s.element((b & 1, b >> 1)) for b in range(4)]
    # frozen oracle: inv(1)=1, inv(2)=3, inv(3)=2
    assert els[1].inverse() == els[1]
    assert els[2].inverse() == els[3]
    assert els[3].inverse() == els[2]


def test_power_sum_vanishes_below_q_minus_one():
    for s in (field_spec(2), field_spec(3), field_spec(5), field_spec(2, 2),
              field_spec(3, 2)):
        for i in range(1, s.q - 1):
            assert power_sum(s, i).is_zero(), (s.q, i)


def test_power_sum_at_q_minus_one_is_minus_one():
    for s in (field_spec(2), field_spec(3), field_spec(5), field_spec(2, 2)):
        assert power_sum(s, s.q - 1) == -s.one


def test_wilson_product_is_minus_one():
    for s in (field_spec(2), field_spec(3), field_spec(5), field_spec(7),
              field_spec(2, 2), field_spec(3, 2)):
        assert wilson_product(s) == -s.one


def test_frobenius_fixes_the_field():
    s = field_spec(2, 2)
    for c in field_enumerate(s):
        assert c ** s.q == c


def test_builtin_extension_moduli():
    for p, e in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        s = field_spec(p, e)
        assert s.q == p ** e
        assert len(field_enumerate(s)) == s.q


def test_rejects_bad_specs():
    with pytest.raises(InvalidFieldSpec):
        field_spec(4)
    with pytest.raises(InvalidFieldSpec):
        field_spec(2, 7)  # q = 128 over the ceiling
    with pytest.raises(InvalidFieldSpec):
        parse_field_spec("q=6")
    with pytest.raises(PolyParseError):
        parse_field_spec("nonsense")
    with pytest.raises(PolyParseError):
        parse_field_spec("q=3:1,1")  # prime fields carry no modulus
    with pytest.raises(InvalidFieldSpec):
        field_spec(2, 2, modulus=(1, 0, 1))  # t^2+1 is reducible mod 2


@pytest.mark.parametrize("p, e", [
    (p, e) for p in (2, 3, 5, 7) for e in range(2, 7) if p**e <= Q_CEILING
])
def test_every_modulus_is_accepted_exactly_when_irreducible(p, e):
    # sympy's irreducibility test is the oracle; the spec decides from its
    # own multiplication table
    t = sympy.Symbol("t")
    for low in itertools.product(range(p), repeat=e):
        modulus = low + (1,)
        irreducible = sympy.Poly(modulus[::-1], t, modulus=p).is_irreducible
        if irreducible:
            spec = FieldSpec(p, e, modulus)
            assert all(
                spec.mul_table[a][spec.inv_table[a]] == 1 for a in range(1, spec.q)
            ), modulus
        else:
            with pytest.raises(InvalidFieldSpec) as err:
                FieldSpec(p, e, modulus)
            assert str(err.value) == f"modulus {list(modulus)} is reducible over F_{p}"


def test_element_hash_and_eq_cross_spec():
    a = field_spec(3).element(2)
    b = field_spec(3).element(2)
    assert a == b and hash(a) == hash(b)
    assert a != field_spec(5).element(2)
