"""Polynomial core: sparse terms, q-local exponents, Frobenius, division."""

import gc
from fractions import Fraction
from itertools import permutations
from operator import add, sub

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from qschur.errors import (
    FractionalExponent,
    NotDivisible,
    PolyParseError,
    RingMismatch,
    TermLimitExceeded,
)
from qschur.fmatrix import PolyMatrix, det
from qschur.gf import field_spec, parse_field_spec
from qschur.ppoly import (
    Poly,
    PolyRing,
    UniPoly,
    ambient_ring,
    evaluate_morphism,
    _guards,
    _horner_substitution,
    _pack,
    _unpack,
    _width,
    exact_div,
    get_term_limit,
    set_term_limit,
    sum_of_products,
)
from qschur.subspaces import span


def ring2(n=2):
    return ambient_ring(field_spec(2), n)


def ring3(n=2):
    return ambient_ring(field_spec(3), n)


def vectors(p):
    """p's terms keyed by exponent vectors, written over q^p.shift."""
    elems = p.ring.spec.elements
    return {_unpack(k, p.ring.nvars, p.width): elems[c] for k, c in p.terms.items()}


def test_shift_normalization():
    # the shift is minimal: x^(2/2) is x, written over q^0
    R, R3 = ring2(), ring3()
    x, _ = R.gens()
    u, _ = R3.gens()
    assert x.frobenius(1).frobenius(-1) == x
    assert x.frobenius(1).frobenius(-1).shift == 0
    # u^(6/9) normalizes to u^(2/3)
    assert (u**6).frobenius(-2) == (u**2).frobenius(-1)
    assert (vectors((u**6).frobenius(-2)), (u**6).frobenius(-2).shift) == ({(2, 0): R3.spec.one}, 1)
    # exponent 0 / 2^3 is the unit monomial over q^0
    assert R.one.frobenius(-3) == R.one
    assert R.one.frobenius(-3).shift == 0
    e = (x**5).frobenius(-2)
    assert (vectors(e), e.shift) == ({(5, 0): R.spec.one}, 2)
    assert list(e.terms) == [_pack((5, 0), 32)]


def test_mono_ops():
    # packed keys: the product is +, the quotient is - with no guard bit set
    R = ring2()
    a = _pack((3, 0), 32)          # x^3
    b = _pack((1, 2), 32)          # x*y^2
    assert _unpack(a, 2, 32) == (3, 0)
    assert Poly(R, {a: 1}).total_degree() == Fraction(3)
    m = a + b
    assert _unpack(m, 2, 32) == (4, 2)
    assert Poly(R, {m: 1}).total_degree() == Fraction(6)
    guard = _guards(2, 32)
    assert m - b == a and not (m - b) & guard
    assert (b - a) & guard
    x, _ = R.gens()
    fr = (x**3).frobenius(1)
    assert fr.total_degree() == Fraction(6)
    back = fr.frobenius(-1)
    assert back == x**3
    assert (list(back.terms), back.shift) == ([a], 0)


def test_mono_key_graded_lex():
    # graded-lex order is integer order on packed keys
    R = ring2()
    x2 = (2, 0)
    xy = (1, 1)
    y2 = (0, 2)
    y3 = (0, 3)
    keys = sorted((_pack(v, 32) for v in (x2, xy, y2, y3)), reverse=True)
    assert [_unpack(k, 2, 32) for k in keys] == [y3, x2, xy, y2]
    assert R.key((x2, 0)) == (2, x2)
    # keys of monomials written over different shifts compare exactly
    assert R.key(((3, 0), 2)) < R.key(((1, 0), 0)) < R.key(((5, 0), 2))


def test_parse_str_round_trip():
    R = ring2()
    for text in ("x^2 + x*y + y^2", "x^2*y + x*y^2", "x + y", "1", "0", "x^5"):
        assert str(R.parse(text)) == text
    R3 = ring3()
    assert str(R3.parse("2*x^2 + y")) == "2*x^2 + y"
    assert R3.parse("x + 2*y") == R3.gens()[0] - R3.gens()[1]


def test_parse_rejects_garbage():
    R = ring2()
    for text in ("x +", "q^", "x^^2", "x*", "$", "x - y"):
        with pytest.raises(PolyParseError):
            R.parse(text)


def test_from_terms_sums_exponent_vectors():
    R3 = ring3()
    x, y = R3.gens()
    one, two = R3.spec.elements[1], R3.spec.elements[2]
    assert R3.from_terms([]) == R3.zero
    assert R3.from_terms([((0, 0), two)]) == R3.from_coeff(2)
    p = R3.from_terms([((2, 1), one), ((0, 3), two), ((2, 1), one)])
    assert p == 2 * x**2 * y + 2 * y**3 and str(p) == "2*x^2*y + 2*y^3"
    # repeated vectors cancel, zero coefficients vanish
    assert R3.from_terms([((1, 0), one), ((1, 0), two), ((0, 1), R3.spec.zero)]).is_zero()
    # exponents over q^shift, the shift kept minimal
    assert R3.from_terms([((1, 0), one)], shift=1) == x.frobenius(-1)
    assert R3.from_terms([((3, 6), one)], shift=1) == x * y**2
    # a degree past one field word takes a wider key
    big = R3.from_terms([((2**40, 1), one), ((1, 0), one)])
    assert big == x ** (2**40) * y + x and big.width > 32
    with pytest.raises(RingMismatch):
        R3.from_terms([((1,), one)])
    with pytest.raises(RingMismatch):
        R3.from_terms([((1, 0), ring2().spec.one)])


def test_add_mul_in_characteristic():
    R = ring2()
    x, y = R.gens()
    assert (x + x).is_zero()
    assert str((x + y) * (x + y)) == "x^2 + y^2"
    R3 = ring3()
    u, v = R3.gens()
    assert str((u + v) * (u + v)) == "x^2 + 2*x*y + y^2"
    assert (u - u).is_zero()
    assert str(-u) == "2*x"


def test_pow_matches_repeated_multiplication():
    R3 = ring3()
    x, y = R3.gens()
    p = x + 2 * y
    acc = R3.one
    for k in range(1, 8):
        acc = acc * p
        assert p**k == acc
    assert p**0 == R3.one


def test_pow_freshman_exponents():
    # (x+y)^5 over F_2: C(5,k) is odd exactly for k in {0,1,4,5} (Lucas)
    R = ring2()
    x, y = R.gens()
    assert str((x + y) ** 5) == "x^5 + x^4*y + x*y^4 + y^5"


def test_frobenius_is_q_power():
    for R in (ring2(), ring3()):
        x, y = R.gens()
        p = x + y
        q = R.spec.q
        assert p.frobenius(1) == p**q
        assert p.frobenius(2) == p ** (q * q)


def test_frobenius_negative_round_trip():
    R = ring3()
    x, y = R.gens()
    p = x**2 + 2 * x * y
    down = p.frobenius(-1)
    assert down.has_fractional_exponents()
    assert down.frobenius(1) == p
    assert p.frobenius(-2).frobenius(2) == p


def test_fractional_exponent_str():
    R = ring2()
    x, _ = R.gens()
    assert str(x.frobenius(-1)) == "x^1/2"
    assert str((x**3).frobenius(-2)) == "x^3/4"
    assert R.parse("x^1/2") == x.frobenius(-1)


def test_degrees_and_leading():
    R = ring2()
    x, y = R.gens()
    p = x**3 + x * y
    assert p.total_degree() == Fraction(3)
    assert p.degrees() == {Fraction(3), Fraction(2)}
    assert all(type(d) is Fraction for d in p.degrees())
    assert (x**3).frobenius(-2).degrees() == {Fraction(3, 4)}
    assert p.leading_monomial() == ((3, 0), 0)
    assert p.leading_coeff().is_one()
    assert p.coeff_of(((1, 1), 0)).is_one()
    assert p.coeff_of(((0, 5), 0)).is_zero()


def test_exact_div_basic():
    R3 = ring3()
    x, y = R3.gens()
    assert exact_div(x**2 - y**2, x + y) == x - y
    a = x**3 + x * y + 1
    b = x * y**2 + 2 * x + y
    assert exact_div(a * b, b) == a
    assert exact_div(R3.zero, b).is_zero()


def test_exact_div_not_divisible():
    R3 = ring3()
    x, y = R3.gens()
    with pytest.raises(NotDivisible):
        exact_div(x**2 + y, x + y)
    with pytest.raises(NotDivisible):
        exact_div(x, R3.zero)


def test_every_construction_of_a_ring_returns_its_one_object():
    spec = field_spec(3)
    assert PolyRing(spec, ("x", "y")) is ambient_ring(spec, 2)
    assert PolyRing(spec, ["a"]) is PolyRing(spec, ("a",))
    assert PolyRing(spec, ("x", "y")) is not PolyRing(field_spec(5), ("x", "y"))
    assert PolyRing(spec, ("y", "x")) is not ambient_ring(spec, 2)
    with pytest.raises(RingMismatch):
        PolyRing(spec, ("a", "a"))


def test_ring_mismatch():
    a = ring2().gens()[0]
    b = ring3().gens()[0]
    with pytest.raises(RingMismatch):
        a + b
    with pytest.raises(RingMismatch):
        a * b


def test_evaluate_morphism_relabel():
    # bare-variable images relabel
    U = A = ambient_ring(field_spec(3), 2)
    x1, x2 = U.gens()
    x, y = A.gens()
    p = x1**2 + 2 * x1 * x2 + x2**2
    assert evaluate_morphism(p, [y, x], target_ring=A) == x**2 + 2 * x * y + y**2
    p2 = x1**2 + x2
    assert evaluate_morphism(p2, [y, x], target_ring=A) == y**2 + x


def test_evaluate_morphism_generic_hand_case():
    # p = x1^2 + x1*x2 at images (y, x+y) over F_2: y^2 + y(x+y) = x*y
    U = A = ambient_ring(field_spec(2), 2)
    x1, x2 = U.gens()
    x, y = A.gens()
    p = x1**2 + x1 * x2
    assert evaluate_morphism(p, [y, x + y], target_ring=A) == x * y


def test_evaluate_morphism_across_rings():
    s = field_spec(2)
    U = ambient_ring(s, 2)
    A = ambient_ring(s, 3)
    x1, x2 = U.gens()
    x, y, _ = A.gens()
    p = x1**2 + x1 * x2 + x2**2
    got = evaluate_morphism(p, [x, y], target_ring=A)
    assert got == x**2 + x * y + y**2
    assert got.ring is A


def test_evaluate_morphism_rejects_fractional_input():
    U = A = ambient_ring(field_spec(2), 2)
    x1, _ = U.gens()
    x, y = A.gens()
    with pytest.raises(FractionalExponent):
        evaluate_morphism(x1.frobenius(-1), [y, x], target_ring=A)


def test_evaluate_morphism_within_an_ambient_ring():
    # any ring may be a source, its own among the targets; its generators
    # in order give back an equal value
    A = ambient_ring(field_spec(3), 2)
    x, y = A.gens()
    p = x**2 * y + 2 * x + y**3
    assert evaluate_morphism(p, list(A.gens())) == p
    assert evaluate_morphism(p, [y, x]) == y**2 * x + 2 * y + x**3
    assert evaluate_morphism(p, [x + y, y]) == (x + y) ** 2 * y + 2 * (x + y) + y**3


def test_term_limit_guard():
    R3 = ring3(3)
    x, y, z = R3.gens()
    dense = (x + y + z + 1) ** 4
    saved = get_term_limit()
    try:
        set_term_limit(20)
        with pytest.raises(TermLimitExceeded):
            dense * dense
    finally:
        set_term_limit(saved)
    assert len((dense * dense).terms) > 20


def test_term_limit_bounds_a_running_sum_of_products():
    # five products of five terms each, on disjoint monomials: every product
    # fits under the limit, their running sum does not
    R = ring3()
    x, y = R.gens()
    row = sum((y**k for k in range(5)), R.zero)
    triples = [(1, x**i, row) for i in range(5)]
    saved = get_term_limit()
    try:
        set_term_limit(10)
        assert all(len((a * b).terms) <= 10 for _, a, b in triples)
        with pytest.raises(TermLimitExceeded, match="sum of products holds 15 terms"):
            sum_of_products(R, triples)
        with pytest.raises(TermLimitExceeded, match="product holds"):
            row * sum((x**k for k in range(5)), R.zero)
        # a sum that cancels as it goes stays under the limit
        assert sum_of_products(R, [(1, x, row), (-1, x, row), (1, y, row)]) == y * row
    finally:
        set_term_limit(saved)
    assert len(sum_of_products(R, triples).terms) == 25


def test_term_limit_is_on_the_result_not_the_estimate():
    # the factors multiply out to few terms even though |a| * |b| is large
    R = ring2()
    x, y = R.gens()
    a = (x + y) ** 31    # 32 terms
    b = (x + y) ** 33
    saved = get_term_limit()
    try:
        set_term_limit(600)  # 32 * 34 = 1088 naive pairs, result has 4 terms
        assert a * b == (x + y) ** 64
    finally:
        set_term_limit(saved)


def test_term_limit_covers_division_and_substitution():
    R = ring3()
    x, y = R.gens()
    wide = x
    for k in range(2, 13):
        wide = wide + x**k  # 12 terms
    saved = get_term_limit()
    try:
        set_term_limit(10)
        with pytest.raises(TermLimitExceeded):
            exact_div(x**20 - y**20, x - y)  # 20 quotient terms
        with pytest.raises(TermLimitExceeded):
            evaluate_morphism(wide, [x, y])  # relabeling in place
        with pytest.raises(TermLimitExceeded):
            evaluate_morphism(wide, [y, x])  # relabeling
        with pytest.raises(TermLimitExceeded):
            evaluate_morphism(wide, [x, x + y])  # general substitution
        assert exact_div(x**10 - y**10, x - y) == sum((x**k * y ** (9 - k) for k in range(10)), R.zero)
    finally:
        set_term_limit(saved)


def test_term_limit_on_seeded_and_one_term_paths():
    """A one-term factor seeds an empty accumulator or runs first in the
    accumulator loop; either way the limit is checked after every term of the first factor,
    so a one-term first factor counts all its row and a one-term second
    factor stops at limit + 1. Each case raises at its size - 1 and at a
    smaller limit with those counts, and fits at its size."""
    R = ring3()
    x, y = R.gens()
    row = sum((y**k for k in range(6)), R.zero)  # 6 terms
    col = sum((x**k for k in range(1, 5)), R.zero)  # 4 terms, none shared with x^9
    sop = lambda *triples: lambda: sum_of_products(R, list(triples))
    cases = [
        # (value, what the message names, its size, {limit: count in the message})
        (sop((1, R.one, row), (1, x**9, row)), "sum of products", 12, {3: 6, 11: 12}),
        (sop((1, row, R.one), (1, row, x**9)), "sum of products", 12, {3: 4, 11: 12}),
        (sop((2, x**9, row)), "sum of products", 6, {3: 6, 5: 6}),
        (sop((2, row, x**9)), "sum of products", 6, {3: 4, 5: 6}),
        (sop((1, col, row), (1, x**9, row)), "sum of products", 30, {25: 30, 29: 30}),
        (sop((1, col, row), (1, row, x**9)), "sum of products", 30, {25: 26, 29: 30}),
        (lambda: row * R.one, "product", 6, {3: 4, 5: 6}),
        (lambda: x**9 * row, "product", 6, {3: 6, 5: 6}),
        (lambda: row * x**9, "product", 6, {3: 4, 5: 6}),
        (lambda: exact_div(x**20 - y**20, x - y), "quotient", 20, {3: 4, 19: 20}),
    ]
    saved = get_term_limit()
    try:
        for value, what, size, counts in cases:
            for limit, count in counts.items():
                set_term_limit(limit)
                with pytest.raises(TermLimitExceeded, match=f"^{what} holds {count} terms, "):
                    value()
            set_term_limit(size)
            assert len(value().terms) == size
        # a seeded sum that cancels stays under the limit
        set_term_limit(6)
        assert sum_of_products(R, [(1, R.one, row), (-1, row, R.one)]) is R.zero
    finally:
        set_term_limit(saved)


def test_unipoly_basics():
    R = ring2()
    x, y = R.gens()
    f = UniPoly(R, {1: R.one, 0: x}) * UniPoly(R, {1: R.one})
    # t(t+x) = t^2 + x t
    assert max(f.coeffs) == 2
    assert f.coefficient(1) == x
    assert f.coefficient(0).is_zero()
    assert f.apply(x).is_zero()
    g = UniPoly(R, {1: R.one, 0: x}) * UniPoly(R, {1: R.one, 0: y})
    assert g.apply(y).is_zero()
    assert g.apply(x + y) == (x + y + x) * (x + y + y)


def test_poly_hash_and_eq():
    R = ring2()
    x, y = R.gens()
    p = x + y
    assert hash(p) == hash(x + y)
    d = {p: 1}
    assert d[x + y] == 1
    assert p != x
    assert R.zero == 0 * p


@pytest.mark.parametrize("ftext", ["q=3", "q=2^2"])
def test_terms_hold_untracked_coefficient_indices(ftext):
    # every constructor path stores ints in 1..q-1, which keeps its terms
    # dict out of the garbage collector's reach
    spec = parse_field_spec(ftext)
    R = ambient_ring(spec, 2)
    x, y = R.gens()
    c = spec.elements[-1]
    a = R.parse("x^2 + x*y + y + 1")
    b = R.from_terms([((1, 0), c), ((0, 3), spec.one)], 1)
    f = x**2 * y + x + c * y**3
    values = {
        "parse": a,
        "from_terms": b,
        "+": a + b,
        "-": a - b,
        "unary -": -a,
        "*": a * b,
        "scale": a.scale(c),
        "** of one term": (c * x) ** 5,
        "**": (x + y) ** 5,
        "frobenius rescaling keys": a.frobenius(2),
        "frobenius moving the shift": b.frobenius(1),
        "sum_of_products": sum_of_products(R, [(c, a, b), (1, x, y)]),
        "exact_div": exact_div(a * b, b),
        "evaluate_morphism by key map": evaluate_morphism(f, [c * y, x**2]),
        "evaluate_morphism by Horner": evaluate_morphism(f, [x + y, c * x]),
    }
    for name, p in values.items():
        assert p.terms, name
        assert not gc.is_tracked(p.terms), name
        assert all(type(i) is int and 0 < i < spec.q for i in p.terms.values()), name


# Properties -----------------------------------------------------------------

FIELDS = ["q=2", "q=3", "q=2^2", "q=5", "q=7", "q=3^2"]


@st.composite
def polys(draw, ring, max_terms=4, max_exp=6):
    """A random polynomial with integer exponents, built from the generators."""
    spec = ring.spec
    p = ring.zero
    for _ in range(draw(st.integers(0, max_terms))):
        m = ring.one
        for g in ring.gens():
            m = m * g ** draw(st.integers(0, max_exp))
        p = p + m.scale(spec.elements[draw(st.integers(1, spec.q - 1))])
    return p


def field_ring(ftext, n=2):
    return ambient_ring(parse_field_spec(ftext), n)


twists = st.integers(0, 3)


@pytest.mark.parametrize("ftext", FIELDS)
@given(data=st.data(), i=twists, j=twists)
def test_fractional_arithmetic_agrees_after_lifting(ftext, data, i, j):
    R = field_ring(ftext)
    a, b = data.draw(polys(R)), data.draw(polys(R))
    K = max(i, j)
    fa, fb = a.frobenius(-i), b.frobenius(-j)
    assert (fa * fb).frobenius(K) == a.frobenius(K - i) * b.frobenius(K - j)
    assert (fa + fb).frobenius(K) == a.frobenius(K - i) + b.frobenius(K - j)
    assert (fa - fb).frobenius(K) == a.frobenius(K - i) - b.frobenius(K - j)
    if b.terms:
        assert exact_div(fa * fb, fb) == fa
    # echelon reduction looks one vector's leading monomial up in another
    S = span(R, [fa, fb])
    assert S.dim == span(R, [a.frobenius(K - i), b.frobenius(K - j)]).dim
    assert all(S.contains_vector(v) for v in (fa, fb, fa + fb))


@pytest.mark.parametrize("ftext", FIELDS)
@given(data=st.data(), i=twists, j=twists)
def test_parse_inverts_str(ftext, data, i, j):
    R = field_ring(ftext, 3)
    p = data.draw(polys(R, max_exp=9)).frobenius(-i) + data.draw(polys(R, max_exp=9)).frobenius(-j)
    assert R.parse(str(p)) == p
    assert str(R.parse(str(p))) == str(p)


@pytest.mark.parametrize("ftext", FIELDS)
@given(data=st.data(), i=twists)
def test_routes_to_one_value_agree_and_hash_alike(ftext, data, i):
    R = field_ring(ftext)
    q = R.spec.q
    a, b = data.draw(polys(R)), data.draw(polys(R))
    routes = [
        (a.frobenius(-i) * b.frobenius(-i), (a * b).frobenius(-i)),
        ((a**q).frobenius(-1 - i), a.frobenius(-i)),
        (a.frobenius(-i).frobenius(i), a),
        ((a.frobenius(i + 1) + b.frobenius(i + 1)).frobenius(-i - 1), a + b),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)
        assert left.shift == right.shift
        assert left.has_fractional_exponents() == right.has_fractional_exponents()
    # a monomial finds its coefficient at whatever shift it is written
    fa = a.frobenius(-i)
    for m, c in vectors(a).items():
        assert fa.coeff_of((m, i)) == c
        assert fa.coeff_of((tuple(e * q for e in m), i + 1)) == c
    if fa.terms:
        assert fa.coeff_of(fa.leading_monomial()) == fa.leading_coeff() == a.leading_coeff()


def test_square_roots_multiply_back():
    R = ring2()
    x, y = R.gens()
    r = x.frobenius(-1)
    assert r * r == x
    assert hash(r * r) == hash(x)
    assert (r * r).shift == 0
    s = (x * y).frobenius(-2)
    assert s * s * s * s == x * y
    assert str(s) == "x^1/4*y^1/4"


def to_sympy(p, gens):
    """p as a sympy polynomial over F_p (prime fields, integer exponents)."""
    spec = p.ring.spec
    return sympy.Poly.from_dict(
        {m: c.coords[0] for m, c in vectors(p).items()} or {(0,) * len(gens): 0},
        *gens, modulus=spec.p,
    )


def from_sympy(sp, ring):
    p = ring.spec.p
    out = ring.zero
    for m, c in sp.as_dict().items():
        term = ring.one
        for g, e in zip(ring.gens(), m):
            term = term * g**e
        out = out + term.scale(int(c) % p)
    return out


@pytest.mark.parametrize("ftext", ["q=2", "q=3"])
@given(data=st.data())
def test_products_and_division_match_sympy(ftext, data):
    R = field_ring(ftext)
    X, Y = sympy.symbols("X Y")
    a, b, c = (data.draw(polys(R)) for _ in range(3))
    assert from_sympy(to_sympy(a, (X, Y)) * to_sympy(b, (X, Y)), R) == a * b
    if not b.terms:
        return
    n = a * b + c
    quo, rem = sympy.div(to_sympy(n, (X, Y)), to_sympy(b, (X, Y)))
    if rem.is_zero:
        assert exact_div(n, b) == from_sympy(quo, R)
    else:
        with pytest.raises(NotDivisible):
            exact_div(n, b)


def test_evaluate_morphism_fractional_images():
    # the source needs integer exponents, the images need not
    U = A = ambient_ring(field_spec(3), 2)
    x1, x2 = U.gens()
    x, y = A.gens()
    r = x.frobenius(-1)
    got = evaluate_morphism(x1**2 * x2 + 2 * x1**3 + x2, [r, x + y])
    assert got == r * r * (x + y) + 2 * x + x + y
    assert str(got) == "x^5/3 + x^2/3*y + y"


# Packed keys against the tuple-vector loops they replaced --------------------

def ref_poly(ring, vterms, d):
    """The Poly with true exponents vector / q^d: shift minimized on the
    vectors, then packed at the width of the largest degree."""
    q = ring.spec.q
    f = 1
    while d and not any(e % (f * q) for m in vterms for e in m):
        f *= q
        d -= 1
    vterms = {tuple(e // f for e in m): c for m, c in vterms.items()}
    if not vterms:
        return ring.zero
    w = _width(max(sum(m) for m in vterms))
    return Poly(ring, {_pack(m, w): c.idx for m, c in vterms.items()}, d, w)


def ref_aligned(p, d):
    f = p.ring.spec.q ** (d - p.shift)
    return {tuple(e * f for e in m): c for m, c in vectors(p).items()}


def ref_merge(out, m, c):
    s = out.get(m, c.spec.zero) + c
    if s.idx:
        out[m] = s
    else:
        out.pop(m, None)


def ref_add(a, b):
    d = max(a.shift, b.shift)
    out = ref_aligned(a, d)
    for m, c in ref_aligned(b, d).items():
        ref_merge(out, m, c)
    return ref_poly(a.ring, out, d)


def ref_mul(a, b):
    d = max(a.shift, b.shift)
    out = {}
    for ma, ca in ref_aligned(a, d).items():
        for mb, cb in ref_aligned(b, d).items():
            ref_merge(out, tuple(map(add, ma, mb)), ca * cb)
    return ref_poly(a.ring, out, d)


def ref_exact_div(a, b):
    """Repeated leading-term cancellation with (degree, vector) keys."""
    d = max(a.shift, b.shift)
    tb = ref_aligned(b, d)
    mono_key = lambda m: (sum(m), m)
    mb = max(tb, key=mono_key)
    rem = ref_aligned(a, d)
    out = {}
    while rem:
        mr = max(rem, key=mono_key)
        mq = tuple(map(sub, mr, mb))
        if min(mq) < 0:
            raise NotDivisible(str(mr))
        cq = rem[mr] / tb[mb]
        out[mq] = cq
        for m2, c2 in tb.items():
            ref_merge(rem, tuple(map(add, mq, m2)), -(cq * c2))
    return ref_poly(a.ring, out, d)


def agree(packed, reference):
    assert packed == reference
    assert hash(packed) == hash(reference)
    assert packed.width == reference.width
    assert str(packed) == str(reference)


# exponents just below and above the field-width boundaries
EDGES = [0, 1, 2, 5, 2**31 - 2, 2**31 - 1, 2**31, 2**31 + 1, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1]


@st.composite
def edge_polys(draw, ring, max_terms=3):
    """Polynomials whose exponents sit at the width boundaries, reached by
    ** and by frobenius (q^k just below and above 2^31 and 2^63)."""
    spec = ring.spec
    q = spec.q
    near = []
    for bits in (31, 63):
        k = 0
        while q ** (k + 1) < 2**bits:
            k += 1
        near += [k, k + 1]
    p = ring.zero
    for _ in range(draw(st.integers(1, max_terms))):
        m = ring.one
        for g in ring.gens():
            if draw(st.booleans()):
                m = m * g ** draw(st.sampled_from(EDGES))
            else:
                m = m * g.frobenius(draw(st.sampled_from(near)))
        p = p + m.scale(spec.elements[draw(st.integers(1, q - 1))])
    return p


@pytest.mark.parametrize("ftext", FIELDS)
@given(data=st.data(), i=twists, j=twists)
def test_packed_arithmetic_matches_tuple_loops(ftext, data, i, j):
    R = field_ring(ftext)
    a = data.draw(st.one_of(edge_polys(R), polys(R))).frobenius(-i)
    b = data.draw(st.one_of(edge_polys(R), polys(R))).frobenius(-j)
    c = data.draw(polys(R, max_exp=3))
    agree(a + b, ref_add(a, b))
    agree(a - b, ref_add(a, -b))
    agree(a * b, ref_mul(a, b))
    if not b.terms:
        return
    agree(exact_div(a * b, b), ref_exact_div(a * b, b))
    # c has small exponents, so a failing division stops within a few steps
    n = a * b + c
    try:
        want = ref_exact_div(n, b)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            exact_div(n, b)
    else:
        agree(exact_div(n, b), want)


@pytest.mark.parametrize("ftext", FIELDS)
@given(data=st.data())
def test_leading_terms_cancel_back_below_a_boundary(ftext, data):
    R = field_ring(ftext)
    x, y = R.gens()
    big = data.draw(st.sampled_from([2**31, 2**31 + 1, 2**63, 2**63 + 1]))
    small = data.draw(polys(R))
    a = x**big + small
    assert a.width > 32
    agree(a - x**big, ref_add(a, -(x**big)))
    assert (a - x**big).width == 32
    assert a - x**big == small and hash(a - x**big) == hash(small)
    # the same through a product and a quotient
    agree(exact_div(a * a, a), a)
    agree((x**big).frobenius(-1) * (x**big).frobenius(-1), ref_mul((x**big).frobenius(-1), (x**big).frobenius(-1)))


@pytest.mark.parametrize("ftext", FIELDS)
def test_width_follows_the_degree(ftext):
    R = field_ring(ftext)
    x, y = R.gens()
    for e, w in ((2**31 - 1, 32), (2**31, 64), (2**63 - 1, 64), (2**63, 96)):
        p = x**e
        assert p.width == w
        assert p.total_degree() == e
        assert p.leading_monomial() == ((e, 0), 0)
        assert p.coeff_of(((e, 0), 0)).is_one()
        assert (x ** (e - 1) * x) == p and (x ** (e - 1) * x).width == w
        assert exact_div(p * y, y) == p
        assert R.parse(str(p)) == p
    # frobenius crosses a boundary by one multiplication of the keys
    q = R.spec.q
    k = 1
    while q**k < 2**31:
        k += 1
    assert x.frobenius(k).width == 64 and x.frobenius(k - 1).width == 32
    assert x.frobenius(k).frobenius(-1) == x.frobenius(k - 1)
    assert x.frobenius(k).frobenius(-1).width == 32


def test_only_a_lower_field_borrows():
    # x*y^5 / x^2: the total degree fits, the x field borrows
    R = ring3()
    x, y = R.gens()
    with pytest.raises(NotDivisible):
        exact_div(x * y**5, x**2)
    with pytest.raises(NotDivisible):
        ref_exact_div(x * y**5, x**2)
    with pytest.raises(NotDivisible):
        exact_div(x**2 * y + y**5, x**2)
    big = 2**40
    with pytest.raises(NotDivisible):
        exact_div(x * y**big, x**2)
    assert exact_div(x**2 * y**big, x**2) == y**big


# Division against the reference loop -----------------------------------------

DIVISION_FIELDS = ["q=2", "q=3", "q=2^2", "q=5", "q=3^2"]


def alternant(ring, exps):
    """det(x_i^(q^e_j)) over ring's variables; a_delta at exps = delta."""
    return det(PolyMatrix(ring, [[g.frobenius(e) for e in exps] for g in ring.gens()]))


@st.composite
def divisors(draw, ring):
    """A divisor of one, two, or three to six terms, or (n >= 2) the
    staircase alternant of ring's variables."""
    n, spec = ring.nvars, ring.spec
    sizes = [(1, 1), (2, 2), (3, 6)] + ([None] if n > 1 else [])
    size = draw(st.sampled_from(sizes))
    if size is None:
        return alternant(ring, range(n - 1, -1, -1))
    vecs = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=size[0], max_size=size[1], unique=True))
    return ring.from_terms([(v, spec.elements[draw(st.integers(1, spec.q - 1))]) for v in vecs])


@pytest.mark.parametrize("ftext", DIVISION_FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(data=st.data(), i=st.integers(0, 1), j=st.integers(0, 1))
def test_exact_div_matches_the_reference_loop(ftext, n, data, i, j):
    """b * c + r over b, at shifts i and j, against repeated leading-term
    cancellation: the same quotient, or NotDivisible from both. A cofactor
    equal to the divisor makes a dividend term, the held product and heap
    entries meet on one key."""
    R = field_ring(ftext, n)
    b = data.draw(divisors(R))
    c = b if data.draw(st.booleans()) else data.draw(polys(R, max_exp=3))
    b, c = b.frobenius(-i), c.frobenius(-j)
    # r has small exponents, so a failing division stops within a few steps
    r = data.draw(st.one_of(st.just(R.zero), polys(R, max_terms=2, max_exp=2)))
    a = b * c + r
    try:
        want = ref_exact_div(a, b)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            exact_div(a, b)
    else:
        got = exact_div(a, b)
        agree(got, want)
        if not r.terms:
            assert got == c


@pytest.mark.parametrize("ftext", DIVISION_FIELDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_div_of_staircase_multiples(ftext, n):
    """a_delta times a_delta and times a dense cofactor over a_delta, and
    at n <= 3 the alternant quotient H_1 = a_(delta + (1)) / a_delta (at
    n = 4 it has up to 99,964 terms, too many for the reference loop): the
    quotients agree with the reference."""
    R = field_ring(ftext, n)
    b = alternant(R, range(n - 1, -1, -1))
    gens = R.gens()
    dense = sum(gens, R.one) * sum((g * h for g in gens for h in gens), R.zero)
    cases = [b * b, b * dense]
    if n <= 3:
        cases.append(alternant(R, [n, *range(n - 2, -1, -1)]))  # delta + (1)
    for a in cases:
        agree(exact_div(a, b), ref_exact_div(a, b))
    assert exact_div(b * dense, b) == dense


@pytest.mark.parametrize("ftext", DIVISION_FIELDS)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_exact_div_sums_every_source_of_one_key(ftext, k):
    """In b^2 / b with b = x^2 + x*y + y^2, in every field here, some
    remainder key collects a dividend term, the held product and a heap
    entry at once; b^k / b and b^k (x + y) / b for k <= 4 are checked too."""
    R = field_ring(ftext)
    b = R.parse("x^2 + x*y + y^2")
    for a in (b**k, b**k * R.parse("x + y")):
        agree(exact_div(a, b), ref_exact_div(a, b))
    assert exact_div(b**k, b) == b ** (k - 1)


# b * c^k + r over b: the quotient's size, or what NotDivisible or
# TermLimitExceeded said, at the default term limit and at limits 3 and 10.
# Recorded from the quotient-heap loop that the divisor heap replaced.
D3 = "x^9*y^3*z + 2*x^9*y*z^3 + 2*x^3*y^9*z + x^3*y*z^9 + x*y^9*z^3 + 2*x*y^3*z^9"
ND = "NotDivisible: leading term {} is not divisible by the divisor's leading term"
OVER = "TermLimitExceeded: quotient holds {} terms, over the limit {}"
PINNED_DIVISIONS = [
    # (field, n, b, c, k, r, (default limit, limit 3, limit 10))
    ("q=3", 2, "x + y", "x + 2*y", 4, "x^3*y^2 + x*y",
     (ND.format("2*y^5"), OVER.format(4, 3), ND.format("2*y^5"))),
    ("q=2", 3, "x + y + z", "x + y*z + 1", 3, "x*z^3 + x*y",
     (ND.format("y*z^3"), OVER.format(4, 3), ND.format("y*z^3"))),
    ("q=5", 2, "x^5*y + 4*x*y^5", "x + 2*y", 6, "x^2*y^7 + x*y",
     (ND.format("x^2*y^7"), OVER.format(4, 3), ND.format("x^2*y^7"))),
    ("q=2^2", 2, "x^1/4 + y^1/4", "x + [0,1]*y^1/4", 3, "x^5/4*y^3/4",
     (ND.format("y^2"), OVER.format(4, 3), ND.format("y^2"))),
    ("q=3", 2, "x^3*y + 2*x*y^3", "x^4 + y^4", 1, "x^2*y^5",
     (ND.format("x^2*y^5"), ND.format("x^2*y^5"), ND.format("x^2*y^5"))),
    ("q=3^2", 2, "x^9*y + [2,0]*x*y^9", "[1,1]*x + y^2", 4, "x^11 + x^2",
     (ND.format("x^11"), OVER.format(4, 3), ND.format("x^11"))),
    ("q=3", 3, D3, "x + y + 2*z", 4, "x^4*y^5 + x*y^4",
     (ND.format("x^4*y^5"), OVER.format(4, 3), ND.format("x^4*y^5"))),
    ("q=2", 4, "x + y + z + w", "x*y + z*w + 1", 3, "x^2*w^3 + y*z*w^2",
     (ND.format("y^2*w^3"), OVER.format(4, 3), ND.format("y^2*w^3"))),
    ("q=2", 2, "x + y", "x + y + 1", 7, "0", (27, OVER.format(4, 3), OVER.format(11, 10))),
    ("q=3", 2, "x^3*y + 2*x*y^3", "x + y", 20, "0", (9, OVER.format(4, 3), 9)),
    ("q=2^2", 2, "x + y", "x + [0,1]*y", 15, "0", (16, OVER.format(4, 3), OVER.format(11, 10))),
    ("q=3", 3, D3, "x + y + z + 1", 5, "0", (40, OVER.format(4, 3), OVER.format(11, 10))),
]


@pytest.mark.parametrize("ftext, n, b, c, k, r, outcomes", PINNED_DIVISIONS)
def test_exact_div_outcomes_are_pinned(ftext, n, b, c, k, r, outcomes):
    R = field_ring(ftext, n)
    B = R.parse(b)
    A = B * R.parse(c) ** k + R.parse(r)
    saved = get_term_limit()
    seen = []
    try:
        for limit in (saved, 3, 10):
            set_term_limit(limit)
            try:
                seen.append(len(exact_div(A, B).terms))
            except (NotDivisible, TermLimitExceeded) as e:
                seen.append(f"{type(e).__name__}: {e}")
    finally:
        set_term_limit(saved)
    assert tuple(seen) == outcomes


# The fused sum of products against the plain loop it replaces ---------------

def naive_sum_of_products(ring, triples):
    acc = ring.zero
    for c, a, b in triples:
        acc = acc + (a * b).scale(c)
    return acc


def agree_fully(fused, naive):
    agree(fused, naive)
    assert fused.shift == naive.shift


@st.composite
def product_triples(draw, ring, max_triples=4):
    """Triples (c, a, b) with zero and nonzero scalars, zero operands, mixed
    shifts and exponents at the width boundaries; some are followed by their
    own negation, so the sum cancels fully or drops below a boundary."""
    spec = ring.spec
    operand = st.one_of(edge_polys(ring), polys(ring), st.just(ring.zero))
    triples = []
    for _ in range(draw(st.integers(0, max_triples))):
        c = spec.elements[draw(st.integers(0, spec.q - 1))]
        a = draw(operand).frobenius(-draw(twists))
        b = draw(operand).frobenius(-draw(twists))
        triples.append((c, a, b))
        if draw(st.booleans()):
            triples.append((-c, a, b))
    return draw(st.permutations(triples))


@pytest.mark.parametrize("ftext", FIELDS)
@given(data=st.data())
def test_sum_of_products_matches_the_plain_loop(ftext, data):
    R = field_ring(ftext)
    triples = data.draw(product_triples(R))
    agree_fully(sum_of_products(R, triples), naive_sum_of_products(R, triples))


@pytest.mark.parametrize("ftext", FIELDS)
def test_sum_of_products_edge_cases(ftext):
    R = field_ring(ftext)
    x, y = R.gens()
    assert sum_of_products(R, []) is R.zero
    assert sum_of_products(R, [(1, R.zero, x), (0, x, y), (1, y, R.zero)]) == R.zero
    # the wide terms cancel and the sum drops back below the 2^31 boundary
    big = x ** (2**31) * y
    triples = [(1, big, x.frobenius(-1)), (2, x, y), (-1, big, x.frobenius(-1))]
    got = sum_of_products(R, triples)
    agree_fully(got, naive_sum_of_products(R, triples))
    assert got == (x * y).scale(2) and got.width == 32 and got.shift == 0
    # fractional products that add up to integer exponents
    r = x.frobenius(-1)
    triples = [(1, r, r.frobenius(1)), (1, y, y)]
    agree_fully(sum_of_products(R, triples), r ** (R.spec.q + 1) + y * y)
    with pytest.raises(RingMismatch):
        sum_of_products(R, [(1, x, ambient_ring(R.spec, 3).gen(0))])
    other = field_spec(7 if R.spec.q == 5 else 5)  # a scalar from another field
    with pytest.raises(RingMismatch):
        sum_of_products(R, [(other.one, x, y)])


def ref_sum_of_products(ring, triples):
    """The sum of c * a * b over the triples, by the tuple-vector loops."""
    d = max((max(a.shift, b.shift) for _, a, b in triples), default=0)
    out = {}
    for c, a, b in triples:
        for ma, ca in ref_aligned(a, d).items():
            for mb, cb in ref_aligned(b, d).items():
                ref_merge(out, tuple(map(add, ma, mb)), c * ca * cb)
    return ref_poly(ring, out, d)


@st.composite
def one_term_polys(draw, ring):
    """The unit, a multiple of it, or a scaled monomial, some fractional."""
    spec = ring.spec
    m = ring.one
    if draw(st.booleans()):
        for g in ring.gens():
            m = m * g ** draw(st.integers(0, 6))
    m = m.scale(spec.elements[draw(st.integers(1, spec.q - 1))])
    return m.frobenius(-draw(twists))


@st.composite
def seeded_triples(draw, ring):
    """Triples whose first has a one-term operand, on either side, then
    product_triples; when the negation of every triple follows, the sum
    cancels to zero, and later one-term products may seed it again."""
    spec = ring.spec
    one = draw(st.one_of(st.just(ring.one), one_term_polys(ring)))
    other = draw(st.one_of(edge_polys(ring), polys(ring).filter(bool)))
    other = other.frobenius(-draw(twists))
    c = spec.elements[draw(st.integers(1, spec.q - 1))]
    triples = [(c, one, other) if draw(st.booleans()) else (c, other, one)]
    triples += draw(product_triples(ring))
    if draw(st.booleans()):
        triples += [(-c, a, b) for c, a, b in draw(st.permutations(triples))]
    return triples


@pytest.mark.parametrize("ftext", FIELDS)
@given(data=st.data())
def test_sums_seeded_by_a_one_term_product_match_the_tuple_loops(ftext, data):
    R = field_ring(ftext)
    triples = data.draw(seeded_triples(R))
    before = [(dict(a.terms), dict(b.terms)) for _, a, b in triples]
    agree_fully(sum_of_products(R, triples), ref_sum_of_products(R, triples))
    _, a, b = triples[0]
    agree(a * b, ref_mul(a, b))
    # a seed copies an operand's terms and never writes into them
    assert [(a.terms, b.terms) for _, a, b in triples] == before


def leibniz_det(rows, ring):
    """The determinant as a signed sum over permutations, with plain * and +."""
    n = len(rows)
    total = ring.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ring.one.scale(ring.spec.sign(inversions))
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


@pytest.mark.parametrize("ftext", FIELDS)
@pytest.mark.parametrize("n", [3, 4])
@given(data=st.data())
def test_det_matches_the_leibniz_sum(ftext, n, data):
    R = field_ring(ftext)
    entry = st.builds(lambda p, i: p.frobenius(-i), polys(R, max_terms=2, max_exp=3), twists)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    agree_fully(det(PolyMatrix(R, rows)), leibniz_det(rows, R))


@pytest.mark.parametrize("ftext", FIELDS)
@given(data=st.data(), i=twists, j=twists)
def test_coeff_at_leading_matches_the_vector_route(ftext, data, i, j):
    R = field_ring(ftext)
    v = data.draw(st.one_of(edge_polys(R), polys(R))).frobenius(-i)
    b = data.draw(st.one_of(edge_polys(R), polys(R))).frobenius(-j)
    for u in (b, v, b + v, v.frobenius(1)):
        if u.terms:
            assert v.coeff_at_leading(u) == v.coeff_of(u.leading_monomial())
    if b.terms:
        # the leading term of b is found in a sum at another width and shift
        s = v + b.scale(2)
        assert s.coeff_at_leading(b) == s.coeff_of(b.leading_monomial())


# Substitution by the q-adic Horner scheme ----------------------------------

SUBSTITUTION_FIELDS = ["q=2", "q=3", "q=2^2", "q=5", "q=3^2"]


def reference_substitution(p, images, target):
    """p(images) by the per-term expansion: every term's monomial in the
    images multiplied out in full, then scaled and added."""
    out = target.zero
    for v, c in vectors(p).items():
        piece = target.one
        for im, e in zip(images, v):
            piece = piece * im**e
        out = out + piece.scale(c)
    return out


@st.composite
def digit_sources(draw, ring, max_terms=5, depth=3, huge=True):
    """A random source whose exponents have up to depth base-q digits, each
    at most 2; with huge, now and then one exponent is q^k, k up to 40."""
    spec = ring.spec
    q = spec.q
    digit = st.integers(0, min(q - 1, 2))
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        v = [sum(draw(digit) * q**k for k in range(depth)) for _ in range(ring.nvars)]
        if huge and draw(st.integers(0, 7)) == 0:
            v[draw(st.integers(0, ring.nvars - 1))] = q ** draw(st.integers(3, 40))
        terms.append((v, spec.elements[draw(st.integers(1, q - 1))]))
    return ring.from_terms(terms)


@st.composite
def substitution_images(draw, target, count):
    """count images of one kind: dense linear forms, multi-term polynomials,
    fractional ones, or any of these with one image zero."""
    spec = target.spec
    kind = draw(st.sampled_from(["linear", "random", "fractional", "zero"]))
    images = []
    for _ in range(count):
        if kind == "linear":
            im = target.zero
            for g in target.gens():
                im = im + g.scale(spec.elements[draw(st.integers(0, spec.q - 1))])
        else:
            im = draw(polys(target, max_terms=3, max_exp=2))
            if kind == "fractional":
                im = im.frobenius(-draw(st.integers(0, 2)))
        images.append(im)
    if kind == "zero" and images:
        images[draw(st.integers(0, count - 1))] = target.zero
    return images


@pytest.mark.parametrize("ftext", SUBSTITUTION_FIELDS)
@given(data=st.data(), n=st.integers(1, 3))
def test_substitution_matches_the_per_term_expansion(ftext, data, n):
    spec = parse_field_spec(ftext)
    U, A = ambient_ring(spec, n), ambient_ring(spec, 3)
    p = data.draw(digit_sources(U))
    images = data.draw(substitution_images(A, n))
    got = evaluate_morphism(p, images, target_ring=A)
    agree_fully(got, reference_substitution(p, images, A))
    assert got.ring is A


@pytest.mark.parametrize("ftext", ["q=2", "q=3", "q=5"])
@given(data=st.data(), n=st.integers(1, 3))
def test_substitution_matches_sympy_composition(ftext, data, n):
    spec = parse_field_spec(ftext)
    U, A = ambient_ring(spec, n), ambient_ring(spec, 2)
    p = data.draw(digit_sources(U, max_terms=4, depth=2, huge=False))
    images = [data.draw(polys(A, max_terms=3, max_exp=2)) for _ in range(n)]
    xs = sympy.symbols(f"X1:{n + 1}")
    ys = sympy.symbols("Y Z")
    composed = to_sympy(p, xs).as_expr().subs(
        {X: to_sympy(im, ys).as_expr() for X, im in zip(xs, images)}, simultaneous=True)
    want = sympy.Poly(composed, *ys, modulus=spec.p)
    assert evaluate_morphism(p, images, target_ring=A) == from_sympy(want, A)


@st.composite
def monomial_images(draw, target, count):
    """count one-term images c x^u: any nonzero coefficient, exponents that
    are 0, 1, 2, q, q + 1 or q^2, and now and then a fractional image."""
    spec = target.spec
    q = spec.q
    images = []
    for _ in range(count):
        v = [draw(st.sampled_from([0, 1, 2, q, q + 1, q * q])) for _ in range(target.nvars)]
        im = target.from_terms([(v, spec.elements[draw(st.integers(1, q - 1))])])
        if draw(st.integers(0, 3)) == 0:
            im = im.frobenius(-draw(st.integers(1, 2)))
        images.append(im)
    return images


@pytest.mark.parametrize("ftext", SUBSTITUTION_FIELDS)
@given(data=st.data(), n=st.integers(1, 3))
def test_monomial_images_match_the_horner_route(ftext, data, n):
    spec = parse_field_spec(ftext)
    U, A = ambient_ring(spec, n), ambient_ring(spec, 3)
    p = data.draw(digit_sources(U))
    images = data.draw(monomial_images(A, n))
    got = evaluate_morphism(p, images, target_ring=A)
    if p.terms:
        agree_fully(got, _horner_substitution(p, images, A))
    agree_fully(got, reference_substitution(p, images, A))


def test_monomial_images_by_hand():
    spec = field_spec(5)
    U = A = ambient_ring(spec, 2)
    x1, x2 = U.gens()
    x, y = A.gens()
    p = x1**3 * x2 + 2 * x1**7
    # 2^3 * 3 = 24 = 4 and 2 * 2^7 = 256 = 1 over F_5
    assert evaluate_morphism(p, [2 * x, 3 * y**5]) == 4 * x**3 * y**5 + x**7
    # terms that meet on one key cancel
    assert evaluate_morphism(x1 + 4 * x2, [x, x]).is_zero()
    # the variables in order return the source's own terms
    assert evaluate_morphism(p, [x, y]).terms is p.terms
    assert evaluate_morphism(p, [y, x]) == x * y**3 + 2 * y**7


@pytest.mark.parametrize("ftext", SUBSTITUTION_FIELDS)
def test_substitution_edge_cases(ftext):
    spec = parse_field_spec(ftext)
    q = spec.q
    U = A = ambient_ring(spec, 2)
    x1, x2 = U.gens()
    x, y = A.gens()
    images = [x + y, x.scale(spec.elements[q - 1]) + y.frobenius(-1)]
    # a constant source, and the zero source
    c = spec.elements[q - 1]
    assert evaluate_morphism(U.from_coeff(c), images) == A.from_coeff(c)
    assert evaluate_morphism(U.zero, images) is A.zero
    # a zero image kills every term that uses it
    got = evaluate_morphism(x1**2 * x2 + x2**3 + x1, [A.zero, x + y])
    assert got == (x + y) ** 3
    # an exponent of 1500 base-q digits: the levels run in a loop, and a
    # run of zero digits costs one rescale
    k = 1500
    p = x1 ** (q**k) * x2 + x1
    got = evaluate_morphism(p, images)
    agree_fully(got, images[0].frobenius(k) * images[1] + images[0])


def test_substitution_over_the_term_limit_names_the_substitution():
    spec = field_spec(3)
    U, A = ambient_ring(spec, 2), ambient_ring(spec, 3)
    x1, x2 = U.gens()
    x, y, z = A.gens()
    p = sum((x1**i * x2**j for i in range(3) for j in range(3)), U.zero)
    images = [x + y + z, x + 2 * y + z]
    full = evaluate_morphism(p, images)
    assert full == reference_substitution(p, images, A)
    saved = get_term_limit()
    try:
        set_term_limit(len(full.terms) - 1)
        with pytest.raises(TermLimitExceeded, match="substitution holds"):
            evaluate_morphism(p, images)
    finally:
        set_term_limit(saved)
