"""Straight, skew and tilde values and their matrices."""

import pytest

from qschur.errors import LengthTooLong
from qschur import fmatrix, schur
from qschur.gf import field_spec, parse_field_spec
from qschur.partitions import delta, pad_and_add, part, partition, partitions_up_to_weight
from qschur.ppoly import ambient_ring, evaluate_morphism, exact_div
from qschur.schur import SchurContext
from qschur.subspaces import (
    enumerate_lines,
    generic_space,
    internal_quotient,
    pi_product,
    span,
)


def make(q=2, n=2):
    spec = field_spec(q)
    ring = ambient_ring(spec, n)
    V = span(ring, ring.gens())
    return SchurContext(spec), ring, V


def test_worked_one_box_value():
    ctx, R, V = make()
    assert str(ctx.schur_S((1,), V)) == "x^2 + x*y + y^2"


def test_worked_column_value_is_pi():
    ctx, R, V = make()
    e2 = ctx.e_r(2, V)
    assert str(e2) == "x^2*y + x*y^2"
    assert e2 == pi_product(V)


def test_one_row_values_on_a_line():
    # H_r(span(x)) = x^(q^r - 1)
    for q in (2, 3):
        ctx, R, _ = make(q=q, n=1)
        x = R.gens()[0]
        line = span(R, [x])
        for r in range(5):
            assert ctx.h_r(r, line) == x ** (q**r - 1)


def test_a_deep_one_row_value_on_a_line_that_is_not_generic():
    """H_250(span(y)) climbs the window recursion, which must not nest one
    call per index: the value is the single term y^(2^250 - 1)."""
    ctx, R, _ = make(q=2, n=2)
    y = R.gens()[1]
    line = span(R, [y])
    assert line is not generic_space(ctx.spec, 1)
    assert ctx.h_r(250, line) == y ** (2**250 - 1)
    assert ctx.h_r(251, line) == y ** (2**251 - 1)


CLOSED_FORM_CASES = [(f, r) for f in ("q=2", "q=3", "q=2^2", "q=5", "q=3^2") for r in range(1, 7)]


@pytest.mark.parametrize("ftext, r", CLOSED_FORM_CASES + [("q=3", 10)])
def test_one_row_values_on_the_generic_plane_have_the_closed_form(ftext, r):
    """H_r on span(x, y), the alternant quotient a_((r) + delta) / a_delta,
    is sum_{k<N} x^((q-1)(N-1-k)) y^((q-1)k) with N = (q^(r+1) - 1)/(q - 1).
    At q=3, r=10 that is the 88,573-term value of the dense window."""
    spec = parse_field_spec(ftext)
    q = spec.q
    G = generic_space(spec, 2)
    N = (q ** (r + 1) - 1) // (q - 1)
    want = G.ring.from_terms((((q - 1) * (N - 1 - k), (q - 1) * k), spec.one) for k in range(N))
    assert len(want.terms) == N
    assert SchurContext(spec).h_r(r, G) == want


def test_h_and_e_edges():
    ctx, R, V = make()
    assert ctx.h_r(-1, V).is_zero()
    assert ctx.h_r(0, V).is_one()
    assert ctx.e_r(0, V).is_one()
    assert ctx.e_r(3, V).is_zero()  # above dim V
    assert ctx.e_r(-2, V).is_zero()
    assert ctx.schur_S((1, 1, 1), V).is_zero()  # longer than dim
    assert ctx.schur_S((), V).is_one()


def test_universal_value_worked():
    spec = field_spec(2)
    ctx = SchurContext(spec)
    u = ctx.schur_S((1,), generic_space(spec, 2))
    assert str(u) == "x^2 + x*y + y^2"
    assert ctx.schur_S((1,), generic_space(spec, 2)) is u  # cached


@pytest.mark.parametrize("q", [2, 3])
def test_a_bare_space_that_is_not_generic_takes_the_window_routes(monkeypatch, q):
    """On span(y, z) of the three-variable ring every value is the generic
    value relabelled, and the one-row value climbs the window recursion
    over cached one-column values: it forms no alternant quotient."""
    spec = field_spec(q)
    R = ambient_ring(spec, 3)
    _, y, z = R.gens()
    V = span(R, [y, z])
    generic = SchurContext(spec)
    G = generic_space(spec, 2)
    assert V is not G
    ctx = SchurContext(spec)
    ctx.e_r(1, V), ctx.e_r(2, V)
    divided = []
    honest = schur.exact_div
    monkeypatch.setattr(schur, "exact_div", lambda a, b: divided.append(a) or honest(a, b))
    h3 = ctx.h_r(3, V)
    assert divided == []
    for lam in ((1,), (1, 1), (3,), (2, 1)):
        want = evaluate_morphism(generic.schur_S(lam, G), [y, z])
        assert ctx.schur_S(lam, V) == want, lam
        assert str(ctx.schur_S(lam, V)) == str(want), lam
    assert ctx.schur_S((3,), V) is h3


def test_staircase_alternant_is_product_of_line_representatives():
    for q in (2, 3):
        spec = field_spec(q)
        ctx = SchurContext(spec)
        U = ambient_ring(spec, 2)
        a = ctx.alternant(delta(2))
        W = span(U, U.gens())
        prod = U.one
        for L in enumerate_lines(W):
            prod = prod * L.basis[0]
        assert a == prod, q


def test_straight_cache_returns_same_object():
    ctx, R, V = make()
    assert ctx.schur_S((2,), V) is ctx.schur_S((2,), V)


def test_basis_independence_hand_case():
    ctx, R, V = make()
    x, y = R.gens()
    G = generic_space(ctx.spec, 2)
    pushed = evaluate_morphism(ctx.schur_S((2, 1), G), [x + y, y], target_ring=R)
    assert pushed == ctx.schur_S((2, 1), V)


def test_skew_with_empty_inner_is_straight():
    ctx, R, V = make()
    for lam in ((1,), (2,), (2, 1), (1, 1), (3, 1)):
        assert ctx.skew_S(lam, (), V) == ctx.schur_S(lam, V), lam


def larger_minor(ctx, lam, mu, V, k):
    """The determinant of the size-k Jacobi-Trudi minor of V's H array."""
    return fmatrix.det(schur.jacobi_trudi_minor(ctx.h_matrix(V), lam, mu, k))


def test_skew_k_independence():
    ctx, R, V = make()
    lam, mu = (2, 1), (1,)
    base = ctx.skew_S(lam, mu, V)
    for k in (2, 3, 4, 5):
        assert larger_minor(ctx, lam, mu, V, k) == base
    with pytest.raises(LengthTooLong):
        schur.jacobi_trudi_minor(ctx.h_matrix(V), lam, mu, 1)


def alternant_on(vectors, alpha, ring):
    """det(v_i ** q**alpha_j) for explicit vectors in their own ring."""
    rows = [[v.frobenius(a) for a in alpha] for v in vectors]
    return fmatrix.det(fmatrix.PolyMatrix(ring, rows))


def schur_direct(lam, V):
    """Straight value by dividing alternants formed on the basis itself.

    Slower than schur_S but shares no code path with SchurContext's
    routes, so the two serve as cross-checks on each other.
    """
    lam = partition(lam)
    n = V.dim
    if len(lam) > n:
        return V.ring.zero
    if n == 0:
        return V.ring.one
    basis = list(V.basis)
    top = alternant_on(basis, pad_and_add(lam, n), V.ring)
    bottom = alternant_on(basis, delta(n), V.ring)
    return exact_div(top, bottom)


def test_schur_direct_agrees_on_variable_basis():
    ctx, R, V = make(q=3)
    for lam in ((1,), (2,), (2, 1), (1, 1)):
        assert schur_direct(lam, V) == ctx.schur_S(lam, V)


def test_dense_straight_value_is_the_cached_skew_value():
    # off the generic space, S_lam(V) for a shape of two rows or more is
    # the skew value at mu = (), formed and held once
    ctx, R, _ = make(q=2, n=3)
    x, y, z = R.gens()
    Q = internal_quotient(span(R, [x, y, z]), span(R, [z]))
    assert ctx.schur_S((2, 1), Q) is ctx.skew_S((2, 1), (), Q)
    assert ctx.schur_S((2, 1), Q) == schur_direct((2, 1), Q)


def test_schur_direct_agrees_on_twisted_basis():
    # dual route on a basis of q-polynomials (a quotient inside dim 3)
    ctx, R, _ = make(q=2, n=3)
    x, y, z = R.gens()
    V = span(R, [x, y, z])
    Q = internal_quotient(V, span(R, [z]))
    for lam in ((1,), (2,), (1, 1), (2, 1)):
        assert schur_direct(lam, Q) == ctx.schur_S(lam, Q)


def reference_universal_skew(ctx, lam, mu, V, k):
    """(value, pushed): the skew value by the generic-ring route.

    The twisted k x k determinant is formed over the one-row values on the
    generic n-dimensional space, alternant quotients in the n-variable
    ambient ring, and then substituted onto V's basis. Substitution refuses
    fractional exponents; twists sit at 1 - k or above, so k - 1 Frobenius
    steps clear every denominator, and since substitution commutes with
    Frobenius the result is pulled back by as many steps. pushed tells
    whether that happened.
    """
    n = V.dim
    ring = ambient_ring(ctx.spec, n)

    def h(r):
        # one-row values vanish on the zero space, as in schur_S
        if r < 0 or (r > 0 and n == 0):
            return ring.zero
        return ring.one if r == 0 else ctx.schur_S((r,), generic_space(ctx.spec, n))

    rows = [[h(part(lam, i) - part(mu, j) - i + j).frobenius(part(mu, j) - j + 1)
             for j in range(1, k + 1)] for i in range(1, k + 1)]
    generic = fmatrix.det(fmatrix.PolyMatrix(ring, rows))
    images = list(V.basis)
    if generic.has_fractional_exponents():
        b = k - 1
        pushed = evaluate_morphism(generic.frobenius(b), images, target_ring=V.ring)
        return pushed.frobenius(-b), True
    return evaluate_morphism(generic, images, target_ring=V.ring), False


@pytest.mark.parametrize("ftext", ["q=2", "q=3", "q=2^2"])
def test_skew_matches_the_generic_route_on_bare_variable_bases(ftext):
    spec = parse_field_spec(ftext)
    ctx = SchurContext(spec)
    R = ambient_ring(spec, 3)
    x, y, z = R.gens()
    spaces = [span(R, [x, y]), span(R, [y, z]), span(R, [z]), span(R, [])]
    shapes = partitions_up_to_weight(3)
    pushed_any = False
    for V in spaces:
        for lam in shapes:
            for mu in shapes:
                least = max(len(lam), len(mu))
                for k in (least, least + 1):
                    got = (ctx.skew_S(lam, mu, V) if k == least
                           else larger_minor(ctx, lam, mu, V, k))
                    want, pushed = reference_universal_skew(ctx, lam, mu, V, k)
                    pushed_any |= pushed
                    case = (V.describe(), lam, mu, k)
                    assert got == want, case
                    assert str(got) == str(want), case
                    assert got.shift == want.shift, case
    assert pushed_any


def reference_minor(ctx, lam, mu, V, k, tilde=False):
    """The k x k determinant built cell by cell, rows i and columns j:
    det(phi^(mu_j - j + 1) H_(lam_i - mu_j - i + j)(V)) for the skew value,
    det(phi^(lam_i - i) E_(lam_i - mu_j - i + j)(V)) for its tilde companion."""
    rows = []
    for i in range(1, k + 1):
        a = part(lam, i) - i
        b = [part(mu, j) - j for j in range(1, k + 1)]
        rows.append([ctx.e_r(a - bj, V).frobenius(a) if tilde
                     else ctx.h_r(a - bj, V).frobenius(bj + 1) for bj in b])
    return fmatrix.det(fmatrix.PolyMatrix(V.ring, rows))


def dense_line(spec):
    """The line span(x, y) // span(x + y), spanned by a q-polynomial."""
    R = ambient_ring(spec, 2)
    x, y = R.gens()
    return internal_quotient(span(R, [x, y]), span(R, [x + y]))


def dense_plane(spec):
    """The plane span(x, y, z) // span(x + z), spanned by q-polynomials."""
    R = ambient_ring(spec, 3)
    x, y, z = R.gens()
    return internal_quotient(span(R, [x, y, z]), span(R, [x + z]))


def test_the_empty_shape_is_one_on_every_space_without_a_route(monkeypatch):
    """schur_S decides the empty shape before it routes by space: no
    alternant is divided and nothing is substituted on the generic plane, on
    a dense line or on the zero space."""
    def refuse(*args, **kwargs):
        raise AssertionError("the empty shape took a route")

    spec = field_spec(3)
    ctx = SchurContext(spec)
    spaces = [generic_space(spec, 2), dense_line(spec), span(ambient_ring(spec, 2), [])]
    monkeypatch.setattr(schur, "exact_div", refuse)
    monkeypatch.setattr(schur, "evaluate_morphism", refuse)
    for V in spaces:
        for value in (ctx.schur_S((), V), ctx.h_r(0, V), ctx.e_r(0, V)):
            assert value.is_one() and value.ring is V.ring, V.describe()


# (field, space, weight cap w): at size k + 1 <= 3 the minor reads up to
# H_(w + 2), and on the plane H_6 at q=3, H_5 at q=4 and H_4 at q=5 pass
# the term limit
MINOR_CASES = [(f, dense_line, 4) for f in ("q=3", "q=2^2", "q=5")] + [
    ("q=3", dense_plane, 3), ("q=2^2", dense_plane, 2), ("q=5", dense_plane, 1)]


@pytest.mark.parametrize("ftext, space, w", MINOR_CASES)
def test_skew_and_tilde_values_match_the_cell_by_cell_determinant(ftext, space, w):
    """skew_S at its least size, the minor one size larger, and tilde_S,
    against the reference determinant on a dense basis, for every (lam, mu)
    of weight at most w and length at most 2: odd q carries the tilde sign,
    and mu != () negative twists."""
    spec = parse_field_spec(ftext)
    ctx, V = SchurContext(spec), space(spec)
    shapes = partitions_up_to_weight(w, 2)
    for lam in shapes:
        for mu in shapes:
            k = max(len(lam), len(mu))
            for got, want in ((ctx.skew_S(lam, mu, V), reference_minor(ctx, lam, mu, V, k)),
                              (larger_minor(ctx, lam, mu, V, k + 1),
                               reference_minor(ctx, lam, mu, V, k + 1)),
                              (ctx.tilde_S(lam, mu, V),
                               reference_minor(ctx, lam, mu, V, k, tilde=True))):
                assert got == want, (lam, mu)
                assert str(got) == str(want), (lam, mu)


def test_skew_vanishes_without_containment():
    ctx, R, V = make()
    assert ctx.skew_S((1,), (2,), V).is_zero()
    assert ctx.skew_S((2, 1), (1, 1, 1), V).is_zero()


def test_skew_empty_shapes():
    ctx, R, V = make()
    assert ctx.skew_S((), (), V).is_one()
    assert ctx.tilde_S((), (), V).is_one()


def test_tilde_vanishes_on_wide_rows():
    # a row difference above dim U kills the tilde value
    ctx, R, V = make()
    U = span(R, [R.gens()[0]])
    assert ctx.tilde_S((2,), (), U).is_zero()
    assert not ctx.tilde_S((1,), (), U).is_zero()


def test_tilde_fractional_exponents_happen():
    ctx, R, V = make()
    # row two twists by phi^(1-2), turning exponents into halves
    t = ctx.tilde_S((1, 1), (), V)
    assert t.has_fractional_exponents()
    # both twists of (2,2) are nonnegative, so that value stays integral
    assert not ctx.tilde_S((2, 2), (), V).has_fractional_exponents()


def test_h_matrix_window_shape():
    ctx, R, V = make()
    hm = ctx.h_matrix(V)
    assert hm.entry(3, 2).is_zero()
    assert hm.entry(1, 1).is_one()
    assert hm.entry(0, 1) == ctx.h_r(1, V).frobenius(1)
    em = ctx.e_matrix(V)
    assert em.entry(2, 2).is_one()
    assert em.entry(0, 1) == -ctx.e_r(1, V).frobenius(1)
