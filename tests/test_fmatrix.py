"""Determinant calculus on dense and integer-indexed triangular matrices."""

import random
from itertools import combinations

import pytest

from qschur.errors import (
    HypothesisViolated,
    IndexNotDecreasing,
    NotSquare,
    ShapeMismatch,
    WindowInvalid,
)
from qschur.fmatrix import (
    PolyMatrix,
    TriangularZMatrix,
    TwistedToeplitz,
    cauchy_binet,
    det,
    scale_sign_det,
    sub_minor,
    too_many_zeroes_check,
    window_of,
    window_product,
)
from qschur.gf import field_spec, parse_field_spec
from qschur.ppoly import ambient_ring, sum_of_products
from qschur.schur import SchurContext
from qschur.subspaces import enumerate_subspaces, internal_quotient, span
from qschur.verify import _band_array


def ring3():
    return ambient_ring(field_spec(3), 2)


def test_det_small():
    R = ring3()
    x, y = R.gens()
    m = PolyMatrix(R, [[x, y], [y, x]])
    assert det(m) == x * x - y * y
    assert det(PolyMatrix(R, [[x]])) == x
    assert det(PolyMatrix(R, [])).is_one()


def test_one_by_one_det_is_its_entry():
    R = ring3()
    x, y = R.gens()
    p = x * x + y
    assert det(PolyMatrix(R, [[p]])) is p
    assert det(PolyMatrix(R, [[R.zero]])).is_zero()


def test_det_three_by_three():
    R = ring3()
    x, y = R.gens()
    one = R.one
    z = R.zero
    m = PolyMatrix(R, [[x, one, z], [z, y, one], [one, z, x]])
    # x(xy - 0) - 1(0 - 1) + 0 = x^2 y + 1
    assert det(m) == x * x * y + one


def test_det_alternating_rows():
    R = ring3()
    x, y = R.gens()
    assert det(PolyMatrix(R, [[x, y], [x, y]])).is_zero()
    a = det(PolyMatrix(R, [[x, y], [y + 1, x]]))
    b = det(PolyMatrix(R, [[y + 1, x], [x, y]]))
    assert a == -b


def test_matrix_shape_errors():
    R = ring3()
    x, y = R.gens()
    with pytest.raises(ShapeMismatch):
        PolyMatrix(R, [[x, y], [x]])
    with pytest.raises(NotSquare):
        det(PolyMatrix(R, [[x, y]]))


def band(ring, x):
    """Unitriangular array with x on the first superdiagonal."""
    def entry(i, j):
        if i == j:
            return ring.one
        if j == i + 1:
            return x
        return ring.zero
    return TriangularZMatrix(ring, entry)


def test_window_of():
    R = ring3()
    x, _ = R.gens()
    m = band(R, x)
    w = window_of(m, -1, 1)
    assert w.rows == 3 and w.cols == 3
    assert w.entry(0, 0).is_one() and w.entry(0, 1) == x
    assert w.entry(2, 0).is_zero()
    with pytest.raises(WindowInvalid):
        window_of(m, 2, 1)


def test_cells_below_the_diagonal_are_zero_by_construction():
    """A cell function that is x everywhere still gives an upper-triangular
    array, read through every accessor, and is never asked below the
    diagonal."""
    R = ring3()
    x, _ = R.gens()
    asked = []

    def cell(i, j):
        asked.append((i, j))
        return x

    m = TriangularZMatrix(R, cell)
    assert m.entry(1, 0).is_zero() and m.entry(0, 1) == x
    w = window_of(m, -1, 1)
    assert all(w.entry(r, s).is_zero() for r in range(3) for s in range(r))
    assert all(w.entry(r, s) == x for r in range(3) for s in range(r, 3))
    sm = sub_minor(m, (2, 0), (1, -1))
    assert sm.entry(0, 0).is_zero() and sm.entry(0, 1).is_zero()
    assert sm.entry(1, 0) == x and sm.entry(1, 1).is_zero()
    assert asked and all(i <= j for i, j in asked)


def cell_by_cell(a, b, lo, hi):
    """Reference window product: every cell (i, j) is the sum over k in
    [i, j] of a_ik * b_kj, formed on its own."""
    ring = a.ring
    window = range(lo, hi + 1)
    return PolyMatrix(ring, [
        [sum_of_products(ring, [(1, a.entry(i, k), b.entry(k, j)) for k in range(i, j + 1)])
         for j in window]
        for i in window
    ])


def twisted_band(ring, x):
    """Twisted unitriangular band: cell (i, i + 1) is phi^i(x)."""
    return TwistedToeplitz(ring, lambda d: (ring.one, x)[d] if d < 2 else ring.zero, 0)


def test_window_product_matches_hand_square():
    R = ring3()
    x, _ = R.gens()
    m = twisted_band(R, x)
    # cell (i, i + 1) is 2 x^(3^i), cell (i, i + 2) is x^(3^i) x^(3^(i + 1))
    expect = PolyMatrix(R, [
        [R.one, 2 * x, x**4],
        [R.zero, R.one, 2 * x**3],
        [R.zero, R.zero, R.one],
    ])
    assert window_product(m, m, 0, 2) == expect
    # from row -1 on, the first row is fractional and its lifts share terms
    r = x.frobenius(-1)
    expect = PolyMatrix(R, [
        [R.one, 2 * r, r * x],
        [R.zero, R.one, 2 * x],
        [R.zero, R.zero, R.one],
    ])
    got = window_product(m, m, -1, 1)
    assert got == expect
    assert str(got.entry(0, 2)) == "x^4/3"
    assert got == cell_by_cell(m, m, -1, 1)


def test_window_product_refuses_plain_arrays():
    R = ring3()
    x, _ = R.gens()
    plain, twisted = band(R, x), twisted_band(R, x)
    for a, b in ((plain, plain), (plain, twisted), (twisted, plain)):
        with pytest.raises(WindowInvalid, match="TriangularZMatrix"):
            window_product(a, b, 0, 2)
    with pytest.raises(WindowInvalid):
        window_product(twisted, twisted, 2, 1)


# Window widths hi - lo of the differential test, kept small enough that the
# one-row values the arrays need stay cheap. Over F_9, H_1 of span(x, y, z)
# passes the term limit and the 184 subspaces pass the enumeration ceiling,
# so at n = 3 only the arrays of the proper coordinate subspaces and of
# their quotients are multiplied there.
WINDOW_WIDTHS = {
    ("q=2", 1): 6, ("q=2", 2): 6, ("q=2", 3): 4,
    ("q=3", 1): 5, ("q=3", 2): 5, ("q=3", 3): 3,
    ("q=2^2", 1): 5, ("q=2^2", 2): 4, ("q=2^2", 3): 2,
    ("q=3^2", 1): 4, ("q=3^2", 2): 3, ("q=3^2", 3): 2,
}


@pytest.mark.parametrize("ftext, n", sorted(WINDOW_WIDTHS))
def test_window_product_matches_the_cell_by_cell_sum(ftext, n):
    """window_product against the cell-by-cell sum on every pair of arrays
    the library multiplies, on windows that start at a negative row (a
    fractional first row) and end at a positive one."""
    spec = parse_field_spec(ftext)
    ctx = SchurContext(spec)
    R = ambient_ring(spec, n)
    V = span(R, R.gens())
    width = WINDOW_WIDTHS[ftext, n]
    lo, hi = -1 - width // 2, width - 1 - width // 2
    if spec.q ** n > 81:
        gens = R.gens()
        pairs = [(span(R, gens[:k]), V) for k in range(1, n)]
    else:
        pairs = [(U, V) for U in enumerate_subspaces(V)]
        pairs.append((None, V))
    for U, W in pairs:
        if U is None:
            a, b = ctx.h_matrix(W), ctx.e_matrix(W)
        else:
            a, b = ctx.h_matrix(internal_quotient(W, U)), ctx.h_matrix(U, twist=W.dim - U.dim)
        assert window_product(a, b, lo, hi) == cell_by_cell(a, b, lo, hi), (U, W)


def test_sub_minor_indices_decrease():
    R = ring3()
    x, _ = R.gens()
    m = band(R, x)
    sm = sub_minor(m, (1, 0), (2, 1))
    assert sm.rows == 2
    assert sm.entry(0, 0) == x  # entry (1, 2) of the band
    with pytest.raises(IndexNotDecreasing):
        cauchy_binet(m, m, (0, 1), (2, 1))


def test_cauchy_binet_tiny():
    R = ring3()
    x, _ = R.gens()
    m = band(R, x)
    direct, addends = cauchy_binet(m, m, (1, 0), (2, 1))
    assert direct == sum((l * r for _, l, r in addends), R.zero)
    gs = [g for g, _, _ in addends]
    assert sorted(gs) == sorted([(2, 1), (2, 0), (1, 0)])
    for g in gs:
        assert g[0] > g[1]


def test_cauchy_binet_empty_indices():
    R = ring3()
    x, _ = R.gens()
    m = band(R, x)
    direct, addends = cauchy_binet(m, m, (), ())
    assert direct.is_one()
    assert len(addends) == 1


def slotwise_indices(ii, jj):
    """Reference list of cauchy_binet's index tuples g, by recursion over
    the slots: g_k runs down from min(jj_k, g_(k-1) - 1) to ii_k."""
    out = []

    def build(k, prev, acc):
        if k == len(ii):
            out.append(acc)
            return
        hi_k = jj[k] if prev is None else min(jj[k], prev - 1)
        for gk in range(hi_k, ii[k] - 1, -1):
            build(k + 1, gk, acc + (gk,))

    build(0, None, ())
    return out


def test_cauchy_binet_addends_follow_the_slotwise_recursion():
    """Every pair of decreasing index tuples of length at most 2 in a
    six-row window, and some of length 3, on two random band arrays: the
    addends come in the recursion's order, each with its two minors."""
    R = ring3()
    rng = random.Random(7)
    a, b = _band_array(R, rng, -2, 3, 2), _band_array(R, rng, -2, 3, 2)
    idx = [g for u in range(3) for g in combinations(range(3, -3, -1), u)]
    pairs = [(ii, jj) for ii in idx for jj in idx if len(ii) == len(jj)]
    pairs += [((3, 1, -2), (3, 2, 0)), ((1, 0, -1), (3, 2, 1)),
              ((0, -1, -2), (3, 1, 0)), ((2, 1, 0), (2, 1, 0)), ((3, 2, 1), (0, -1, -2))]
    for ii, jj in pairs:
        direct, addends = cauchy_binet(a, b, ii, jj)
        assert addends == [(g, det(sub_minor(a, ii, g)), det(sub_minor(b, g, jj)))
                           for g in slotwise_indices(ii, jj)], (ii, jj)
        assert direct == sum_of_products(R, [(1, l, r) for _, l, r in addends])


def test_scale_sign_det_equals_global_sign():
    R = ring3()
    x, y = R.gens()
    c = PolyMatrix(R, [[x, y + 1], [y, x + 2]])
    d = det(c)
    for lam, nu, parity in (((2,), (1,), 1), ((2, 1), (1,), 0),
                            ((3, 1), (), 0), ((1,), (), 1)):
        got = scale_sign_det(c, lam, nu)
        assert got == (-d if parity else d), (lam, nu)


def test_scale_sign_det_shape_errors():
    R = ring3()
    x, y = R.gens()
    with pytest.raises(ShapeMismatch):
        scale_sign_det(PolyMatrix(R, [[x]]), (1, 1), ())
    with pytest.raises(NotSquare):
        scale_sign_det(PolyMatrix(R, [[x, y]]), (1,), ())


def test_too_many_zeroes():
    R = ring3()
    x, y = R.gens()
    z = R.zero
    c = PolyMatrix(R, [[z, x], [z, y]])
    assert too_many_zeroes_check(c, (0, 1), (0,))
    with pytest.raises(HypothesisViolated):
        too_many_zeroes_check(c, (0,), (0,))  # |X| + |Y| does not exceed u
    bad = PolyMatrix(R, [[x, x], [z, y]])
    with pytest.raises(HypothesisViolated):
        too_many_zeroes_check(bad, (0, 1), (0,))  # listed entry nonzero
