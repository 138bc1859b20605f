"""Subspaces over F_q inside a polynomial ring: spans, quotients, products."""

import gc
import weakref
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qschur.errors import (
    EnumerationTooLarge,
    NotSubspace,
    RingMismatch,
    TermLimitExceeded,
)
from qschur.gf import field_spec, parse_field_spec
from qschur.ppoly import UniPoly, ambient_ring, get_term_limit, set_term_limit
from qschur.subspaces import (
    DEFAULT_ENUMERATION_CEILING,
    Flag,
    Subspace,
    _hyperplanes,
    additive_poly,
    coset_product_check,
    enumerate_flags,
    enumerate_lines,
    enumerate_subspaces,
    enumerate_vectors,
    generic_space,
    get_enumeration_ceiling,
    internal_quotient,
    pi_product,
    quotient_tower_check,
    set_enumeration_ceiling,
    span,
)


def setup_ring(q=2, n=3):
    return ambient_ring(field_spec(q), n)


@pytest.fixture
def set_ceiling():
    """set_enumeration_ceiling, with the module ceiling restored afterwards."""
    saved = get_enumeration_ceiling()
    yield set_enumeration_ceiling
    set_enumeration_ceiling(saved)


def test_span_canonicalizes():
    R = setup_ring()
    x, y, z = R.gens()
    V = span(R, [x + y, y])
    assert V.basis == (x, y)
    assert V == span(R, [y, x])
    assert span(R, [x, x]).dim == 1
    assert span(R, []).dim == 0
    assert Subspace.zero(R).dim == 0


def test_span_scales_leading_coefficients():
    R = setup_ring(q=3, n=2)
    x, y = R.gens()
    V = span(R, [2 * x + y])
    assert V.basis == (x + 2 * y,)


def test_membership():
    R = setup_ring()
    x, y, z = R.gens()
    V = span(R, [x, y])
    assert V.contains_vector(x + y)
    assert V.contains_vector(R.zero)
    assert not V.contains_vector(z)
    assert not V.contains_vector(x * y)  # not even homogeneous linear
    assert V.contains(span(R, [x + y]))
    assert not span(R, [x]).contains(V)


def test_reduce():
    R = setup_ring()
    x, y, z = R.gens()
    V = span(R, [x, y])
    assert V.reduce(x + z) == z
    assert V.reduce(x + y).is_zero()


def test_enumerate_vectors_counts():
    R = setup_ring()
    x, y, z = R.gens()
    assert len(enumerate_vectors(span(R, [x, y]))) == 4
    assert len(enumerate_vectors(span(R, [x, y, z]))) == 8
    R3 = setup_ring(q=3, n=2)
    u, v = R3.gens()
    assert len(enumerate_vectors(span(R3, [u, v]))) == 9


def test_enumerate_lines_counts():
    # (q^n - 1) / (q - 1) lines
    R = setup_ring()
    x, y, z = R.gens()
    assert len(enumerate_lines(span(R, [x, y]))) == 3
    assert len(enumerate_lines(span(R, [x, y, z]))) == 7
    R3 = setup_ring(q=3, n=2)
    u, v = R3.gens()
    assert len(enumerate_lines(span(R3, [u, v]))) == 4
    for L in enumerate_lines(span(R, [x, y, z])):
        assert L.dim == 1


def test_enumerate_subspaces_counts():
    # 1 + 7 + 7 + 1 subspaces of F_2^3
    R = setup_ring()
    x, y, z = R.gens()
    V = span(R, [x, y, z])
    subs = enumerate_subspaces(V)
    assert len(subs) == 16
    assert sorted(S.dim for S in subs).count(2) == 7
    assert len(enumerate_subspaces(span(R, [x, y]))) == 5


def test_enumerate_flags_counts():
    # complete flags: product of line counts down the chain
    R = setup_ring()
    x, y, z = R.gens()
    assert len(enumerate_flags(span(R, [x, y]))) == 3
    flags = enumerate_flags(span(R, [x, y, z]))
    assert len(flags) == 21
    f = flags[0]
    assert f.length == 3
    dims = [S.dim for S in f.chain]
    assert dims == [3, 2, 1, 0]
    for big, small in zip(f.chain, f.chain[1:]):
        assert big.contains(small)
    R3 = setup_ring(q=3, n=2)
    u, v = R3.gens()
    assert len(enumerate_flags(span(R3, [u, v]))) == 4


def test_enumeration_ceiling(set_ceiling):
    R = ambient_ring(field_spec(3), 6)
    V = span(R, R.gens())  # 3^6 = 729 > 243
    with pytest.raises(EnumerationTooLarge):
        enumerate_vectors(V)
    set_ceiling(1000)
    assert len(enumerate_vectors(V)) == 729
    assert DEFAULT_ENUMERATION_CEILING == 243


def test_pi_product_worked_values():
    R = setup_ring()
    x, y, z = R.gens()
    # product of the three nonzero vectors of span(x, y) at q = 2
    assert str(pi_product(span(R, [x, y]))) == "x^2*y + x*y^2"
    R3 = setup_ring(q=3, n=1)
    u = R3.gens()[0]
    # x * 2x = -x^2
    assert pi_product(span(R3, [u])) == -(u**2)
    assert pi_product(Subspace.zero(R)).is_one()


def test_additive_poly():
    R = setup_ring()
    x, y, z = R.gens()
    V = span(R, [x, y])
    f = additive_poly(V)
    assert str(f) == "t^4 + (x^2 + x*y + y^2)*t^2 + (x^2*y + x*y^2)*t"
    assert set(f.coeffs) == {1, 2, 4}
    for w in enumerate_vectors(V):
        assert f.apply(w).is_zero()
    assert not f.apply(z).is_zero()


def test_internal_quotient_hand_case():
    R = setup_ring()
    x, y, z = R.gens()
    V = span(R, [x, y])
    U = span(R, [x])
    Q = internal_quotient(V, U)
    # y maps to y(y + x) = y^2 + x*y
    assert Q.dim == 1
    assert Q.basis == (x * y + y**2,)
    assert internal_quotient(V, Subspace.zero(R)) == V
    assert internal_quotient(V, V).dim == 0


def test_internal_quotient_requires_containment():
    R = setup_ring()
    x, y, z = R.gens()
    with pytest.raises(NotSubspace):
        internal_quotient(span(R, [x, y]), span(R, [z]))


def test_quotient_tower():
    R = setup_ring()
    x, y, z = R.gens()
    V = span(R, [x, y, z])
    U = span(R, [x, y])
    T = span(R, [x])
    assert quotient_tower_check(V, U, T)
    with pytest.raises(NotSubspace):
        quotient_tower_check(V, T, U)  # U is not inside T


def test_coset_product():
    R = setup_ring()
    x, y, z = R.gens()
    assert coset_product_check(span(R, [x, y]), span(R, [x]))
    assert coset_product_check(span(R, [x, y, z]), span(R, [x + y]))


def test_flag_chain_validation():
    R = setup_ring()
    x, y, z = R.gens()
    V = span(R, [x, y])
    L = span(R, [x])
    f = Flag((V, L, Subspace.zero(R)))
    assert f.length == 2
    with pytest.raises(NotSubspace):
        Flag((V, Subspace.zero(R)))  # dimension drops by two
    with pytest.raises(NotSubspace):
        Flag((V, span(R, [z]), Subspace.zero(R)))  # not a chain


def test_span_ring_mismatch():
    R = setup_ring()
    other = setup_ring(q=3, n=3)
    with pytest.raises(RingMismatch):
        span(R, [other.gens()[0]])


def test_line_basis_is_monic_vector():
    R3 = setup_ring(q=3, n=2)
    u, v = R3.gens()
    for L in enumerate_lines(span(R3, [u, v])):
        assert L.basis[0].leading_coeff().is_one()


def test_subspace_hash_and_eq():
    R = setup_ring()
    x, y, z = R.gens()
    a = span(R, [x + y, y])
    b = span(R, [x, x + y])
    assert a == b and hash(a) == hash(b)
    assert a != span(R, [x, z])
    d = {a: "V"}
    assert d[b] == "V"


# The linearized annihilator ---------------------------------------------------


def product_annihilator(U):
    """Reference f_U: the product of (t + u) over all q^dim vectors of U."""
    f = UniPoly(U.ring, {1: U.ring.one})
    for u in enumerate_vectors(U):
        if u.terms:
            f = f * UniPoly(U.ring, {1: U.ring.one, 0: u})
    return f


@st.composite
def dense_vectors(draw, ring, count, max_exp):
    """`count` random polynomials of up to three terms in every variable."""
    spec = ring.spec
    out = []
    for _ in range(count):
        p = ring.zero
        for _ in range(draw(st.integers(1, 3))):
            m = ring.one
            for g in ring.gens():
                m = m * g ** draw(st.integers(0, max_exp))
            p = p + m.scale(spec.elements[draw(st.integers(1, spec.q - 1))])
        out.append(p)
    return out


@st.composite
def subspaces_of(draw, ring):
    """A subspace with a dense basis, a basis taken from an internal
    quotient, or a basis with a fractional exponent.

    The reference product has q^dim factors whose degrees add up, so the
    dimension stops at 3 for q <= 3 and at 2 for q = 4, dense vectors have
    degree <= 4 (<= 2 at q = 4), and a quotient is taken of vectors of
    degree <= 2."""
    small = ring.spec.q <= 3
    kind = draw(st.sampled_from(["dense", "quotient", "fractional"]))
    dim = draw(st.integers(0, 3 if small else 2))
    if kind == "quotient":
        # the quotient of a (dim+1)-space by a line has dimension dim
        vectors = draw(dense_vectors(ring, dim + 1, 1))
        V = span(ring, vectors)
        Q = internal_quotient(V, span(ring, vectors[:1]))
        return span(ring, Q.basis[:dim])
    vectors = draw(dense_vectors(ring, dim, 2 if small else 1))
    if kind == "fractional" and vectors:
        vectors[0] = vectors[0].frobenius(-1) + ring.gens()[0]
    return span(ring, vectors)


ANNIHILATOR_FIELDS = ["q=2", "q=3", "q=2^2"]


@pytest.mark.parametrize("ftext", ANNIHILATOR_FIELDS)
@given(data=st.data())
def test_recursive_annihilator_matches_product(ftext, data):
    R = ambient_ring(parse_field_spec(ftext), 2)
    U = data.draw(subspaces_of(R))
    f = additive_poly(U)
    ref = product_annihilator(U)
    assert f == ref
    assert str(f) == str(ref)


@pytest.mark.parametrize("basis", ["x*y + [1,1]; x + [1,1]; y + [0,1]",
                                   "x^1/4*y + x; y^2 + [0,1]*x; 1"])
def test_recursive_annihilator_matches_product_at_dim_3_over_f4(basis):
    # one product of 64 factors per basis; the property above stops at dim 2 here
    R = ambient_ring(parse_field_spec("q=2^2"), 2)
    U = span(R, [R.parse(v) for v in basis.split("; ")])
    assert U.dim == 3
    f = additive_poly(U)
    ref = product_annihilator(U)
    assert f == ref
    assert str(f) == str(ref)


@pytest.mark.parametrize("ftext", ANNIHILATOR_FIELDS)
@given(data=st.data())
def test_annihilator_is_monic_and_vanishes_on_the_space(ftext, data):
    R = ambient_ring(parse_field_spec(ftext), 2)
    U = data.draw(subspaces_of(R))
    f = additive_poly(U)
    q = R.spec.q
    assert max(f.coeffs) == q**U.dim
    assert f.coefficient(q**U.dim).is_one()
    assert set(f.coeffs) <= {q**i for i in range(U.dim + 1)}
    for u in enumerate_vectors(U):
        assert f.apply(u).is_zero()


def test_annihilator_keeps_the_ceiling(set_ceiling):
    R = setup_ring(q=2, n=3)
    U = span(R, R.gens())
    set_ceiling(7)
    with pytest.raises(EnumerationTooLarge):
        additive_poly(U)
    set_ceiling(8)
    assert max(additive_poly(U).coeffs) == 8


# Remembered quotients ---------------------------------------------------------


def test_repeated_quotients_agree():
    R = setup_ring(q=3, n=3)
    x, y, z = R.gens()
    V = span(R, [x, y + z * z, z])
    first = {U: internal_quotient(V, U) for U in enumerate_subspaces(V)}
    for U, Q in first.items():
        # an equal denominator built afresh finds the remembered quotient
        assert internal_quotient(V, span(R, list(U.basis))) is Q
        assert span(R, list(V.basis)) is V
        assert internal_quotient(span(R, list(V.basis)), U) is Q


def test_remembered_quotient_still_meets_the_ceiling(set_ceiling):
    R = setup_ring(q=2, n=3)
    x, y, z = R.gens()
    V = span(R, [x, y, z])
    U = span(R, [x, y])
    Q = internal_quotient(V, U)
    set_ceiling(3)
    with pytest.raises(EnumerationTooLarge):
        internal_quotient(V, U)
    set_ceiling(4)
    assert internal_quotient(V, U) is Q


def test_remembered_quotients_do_not_admit_outside_spaces():
    R = setup_ring(q=2, n=3)
    x, y, z = R.gens()
    V = span(R, [x, y])
    for U in enumerate_subspaces(V):
        internal_quotient(V, U)
    with pytest.raises(NotSubspace):
        internal_quotient(V, span(R, [z]))
    with pytest.raises(NotSubspace):
        internal_quotient(V, span(R, [x, z]))
    other = setup_ring(q=3, n=3)
    with pytest.raises(RingMismatch):
        internal_quotient(V, span(other, [other.gens()[0]]))


def test_describe_is_cached_text():
    R = setup_ring(q=3, n=2)
    x, y = R.gens()
    V = span(R, [x + y * y, y])
    text = V.describe()
    assert text == "y^2 + x; y" == "; ".join(str(b) for b in V.basis)
    assert V.describe() is text
    assert repr(V) == f"Subspace({text})"
    assert Subspace.zero(R).describe() == "0"


# One object per subspace, and what it remembers ----------------------------------


def test_equal_subspaces_are_one_object():
    R = setup_ring(q=3, n=3)
    x, y, z = R.gens()
    two = R.spec.element(2)
    V = span(R, [x, y + z * z, z])
    U = span(R, [x + z, y + z * z])
    # scaled and permuted spanning vectors
    assert span(R, [(y + z * z).scale(two), x.scale(two) + z.scale(two)]) is U
    assert span(R, [x + y + z * z + z, x + z]) is U
    assert U in enumerate_subspaces(V)
    assert next(W for W in enumerate_subspaces(V) if W == U) is U
    assert Subspace.zero(R) is span(R, []) is span(R, [R.zero])
    assert internal_quotient(V, Subspace.zero(R)) is V
    Q = internal_quotient(V, span(R, [x]))
    assert span(R, [b.scale(two) for b in reversed(Q.basis)]) is Q
    # the same basis text over another field is another space
    R2 = setup_ring(q=2, n=3)
    a, b, c = R2.gens()
    W = span(R2, [a, b])
    assert W.describe() == span(R, [x, y]).describe()
    assert W is not span(R, [x, y]) and W != span(R, [x, y])


def test_unreferenced_subspaces_are_released():
    R = ambient_ring(field_spec(5), 2)
    x, y = R.gens()
    V = span(R, [x**7 + y**5, y**3])
    internal_quotient(V, span(R, [y**3]))
    additive_poly(V)
    pi_product(V)
    ref = weakref.ref(V)
    del V
    gc.collect()
    assert ref() is None


def plain_vectors(U):
    """Every F_q-combination of the basis of U, by a loop of its own."""
    out = []
    for coeffs in product(U.ring.spec.elements, repeat=U.dim):
        v = U.ring.zero
        for c, b in zip(coeffs, U.basis):
            v = v + b.scale(c)
        out.append(v)
    return out


REMEMBERED_SPACES = [("q=2", "x; y + x^2; z*y"), ("q=3", "x; y + z^2; z"),
                     ("q=2^2", "x; y + [1,1]*x; z")]


@pytest.mark.parametrize("ftext,basis", REMEMBERED_SPACES)
def test_remembered_values_match_references(ftext, basis):
    R = ambient_ring(parse_field_spec(ftext), 3)
    V = span(R, [R.parse(v) for v in basis.split("; ")])
    assert V.dim == 3
    for U in enumerate_subspaces(V):
        f = additive_poly(U)
        assert additive_poly(U) is f
        ref = product_annihilator(U)
        assert f == ref and str(f) == str(ref)
        pi = pi_product(U)
        assert pi_product(U) is pi
        plain = R.one
        for v in plain_vectors(U):
            if v.terms:
                plain = plain * v
        assert pi == plain
        assert enumerate_vectors(U) == enumerate_vectors(U) == plain_vectors(U)


@pytest.mark.parametrize("ftext,basis", REMEMBERED_SPACES)
def test_pi_is_read_off_the_annihilator(ftext, basis):
    """pi(U) is the coefficient of t in f_U itself, not a product formed
    again; test_remembered_values_match_references multiplies it out."""
    R = ambient_ring(parse_field_spec(ftext), 3)
    V = span(R, [R.parse(v) for v in basis.split("; ")])
    for U in enumerate_subspaces(V):
        assert pi_product(U) is additive_poly(U).coefficient(1)


def test_remembered_values_still_meet_the_ceiling(set_ceiling):
    R = setup_ring(q=2, n=3)
    U = span(R, R.gens())
    f, pi, vectors = additive_poly(U), pi_product(U), enumerate_vectors(U)
    set_ceiling(7)
    for call in (additive_poly, pi_product, enumerate_vectors):
        with pytest.raises(EnumerationTooLarge):
            call(U)
    set_ceiling(8)
    assert additive_poly(U) is f
    assert pi_product(U) is pi
    assert enumerate_vectors(U) == vectors


def test_remembered_values_meet_the_term_limit():
    R = setup_ring(q=3, n=3)
    x, y, z = R.gens()
    V, U = span(R, [x, y, z]), span(R, [x, y])
    pi, f, Q = pi_product(V), additive_poly(U), internal_quotient(V, U)
    assert len(pi.terms) == 21
    assert max(len(c.terms) for c in f.coeffs.values()) == 4
    assert len(Q.basis[0].terms) == 8
    saved = get_term_limit()
    try:
        set_term_limit(5)
        with pytest.raises(TermLimitExceeded, match="pi holds 21 terms, over the limit 5"):
            pi_product(V)
        with pytest.raises(TermLimitExceeded, match="quotient basis vector holds 8 terms"):
            internal_quotient(V, U)
        set_term_limit(3)
        with pytest.raises(TermLimitExceeded, match="annihilator coefficient holds 4 terms"):
            additive_poly(U)
        set_term_limit(21)
        assert pi_product(V) is pi
    finally:
        set_term_limit(saved)
    assert additive_poly(U) is f
    assert internal_quotient(V, U) is Q


def test_hyperplanes_are_formed_once_and_meet_the_ceiling(set_ceiling):
    R = setup_ring(q=3, n=3)
    V = span(R, R.gens())
    flags = enumerate_flags(V)
    H = _hyperplanes(V)
    assert len(H) == 13
    assert _hyperplanes(V) is H
    assert all(_hyperplanes(W) is _hyperplanes(W) for W in H)
    set_ceiling(26)
    with pytest.raises(EnumerationTooLarge):
        _hyperplanes(V)
    with pytest.raises(EnumerationTooLarge):
        enumerate_flags(V)
    set_ceiling(27)
    assert _hyperplanes(V) is H
    assert enumerate_flags(V) == flags
    assert len({f.chain[1] for f in flags}) == 13


def test_vector_lists_are_fresh():
    R = setup_ring(q=3, n=2)
    x, y = R.gens()
    V = span(R, [x, y])
    vectors = enumerate_vectors(V)
    expected = list(vectors)
    assert enumerate_vectors(V) is not vectors
    vectors.pop()
    vectors[0] = x
    assert enumerate_vectors(V) == expected
    assert len(enumerate_lines(V)) == 4


# Enumerating subspaces by reduced echelon form --------------------------------


def reference_subspaces(V):
    """The span-and-deduplicate enumeration: level d spans every subspace of
    level d - 1 with every vector outside it and keeps the new ones."""
    vectors = [v for v in enumerate_vectors(V) if v.terms]
    levels = [[Subspace.zero(V.ring)]]
    for d in range(1, V.dim + 1):
        seen = set()
        level = []
        for S in levels[d - 1]:
            for v in vectors:
                if S.contains_vector(v):
                    continue
                W = span(V.ring, list(S.basis) + [v])
                if W not in seen:
                    seen.add(W)
                    level.append(W)
        level.sort(key=lambda W: tuple(b.sort_key() for b in W.basis))
        levels.append(level)
    return [W for level in levels for W in level]


def gaussian_binomial(n, d, q):
    """The number of d-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def spaces_of_dim(ftext, n):
    """A coordinate space of dimension n, the quotient of a coordinate space
    of dimension n + 1 by the line through the sum of its generators, and at
    n = 2 the span of x + y and y^2 + z."""
    R = ambient_ring(parse_field_spec(ftext), 5)
    gens = R.gens()
    big = span(R, gens[: n + 1])
    line = span(R, [sum(gens[1 : n + 1], gens[0])])
    out = [span(R, gens[:n]), internal_quotient(big, line)]
    if n == 2:
        x, y, z = gens[:3]
        out.append(span(R, [x + y, y**2 + z]))
    for V in out:
        assert V.dim == n
    return out


ECHELON_CASES = [(f, n) for f in ("q=2", "q=3", "q=2^2", "q=5") for n in range(4)]


@pytest.mark.parametrize("ftext,n", ECHELON_CASES + [("q=3", 4)])
def test_echelon_enumeration_matches_span_and_deduplicate(ftext, n):
    for V in spaces_of_dim(ftext, n):
        got = enumerate_subspaces(V)
        ref = reference_subspaces(V)
        assert got == ref
        assert [W.describe() for W in got] == [W.describe() for W in ref]
        for W in got:
            # each basis is canonical: spanning it again changes nothing
            assert span(V.ring, list(W.basis)).basis == W.basis
            assert V.contains(W)


@pytest.mark.parametrize("ftext,n", ECHELON_CASES + [("q=3", 4)])
def test_subspace_counts_are_gaussian_binomials(ftext, n):
    q = parse_field_spec(ftext).q
    for V in spaces_of_dim(ftext, n):
        dims = [W.dim for W in enumerate_subspaces(V)]
        assert dims == sorted(dims)
        for d in range(n + 1):
            assert dims.count(d) == gaussian_binomial(n, d, q)


def test_subspace_enumeration_ceiling_error_is_unchanged(set_ceiling):
    R = ambient_ring(field_spec(3), 6)
    V = span(R, R.gens())
    message = "enumerating q^dim = 3^6 vectors exceeds the ceiling 243"
    with pytest.raises(EnumerationTooLarge) as exc:
        enumerate_subspaces(V)
    assert str(exc.value) == message
    set_ceiling(26)
    with pytest.raises(EnumerationTooLarge) as exc:
        enumerate_subspaces(span(R, R.gens()[:3]))
    assert str(exc.value) == "enumerating q^dim = 3^3 vectors exceeds the ceiling 26"
    set_ceiling(27)
    assert len(enumerate_subspaces(span(R, R.gens()[:3]))) == 28


def test_global_ceiling_applies_where_none_is_given(set_ceiling):
    R = setup_ring(q=2, n=5)
    V = span(R, R.gens())
    set_ceiling(31)
    with pytest.raises(EnumerationTooLarge, match="2\\^5 vectors exceeds the ceiling 31"):
        enumerate_subspaces(V)
    with pytest.raises(EnumerationTooLarge):
        additive_poly(V)
    with pytest.raises(ValueError):
        set_ceiling(0)
    assert get_enumeration_ceiling() == 31
    set_ceiling(32)
    assert len(enumerate_subspaces(V)) == 374
    set_ceiling(DEFAULT_ENUMERATION_CEILING)
    assert len(enumerate_subspaces(V)) == 374


@pytest.mark.parametrize("ftext", ["q=2", "q=3", "q=2^2"])
def test_generic_space_is_the_span_of_the_first_variables(ftext):
    spec = parse_field_spec(ftext)
    for n in range(4):
        R = ambient_ring(spec, max(n, 1))
        G = generic_space(spec, n)
        assert G is span(R, R.gens()[:n]), n
        assert G.dim == n and G.ring is R
