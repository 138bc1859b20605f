"""Determinant calculus on dense and integer-indexed triangular matrices."""

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
    cauchy_binet,
    det,
    scale_sign_det,
    sub_minor,
    too_many_zeroes_check,
    window_of,
    window_product,
)
from qschur.gf import field_spec
from qschur.ppoly import ambient_ring


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


def test_is_identity():
    R = ring3()
    x, _ = R.gens()
    eye = PolyMatrix(R, [[R.one, R.zero], [R.zero, R.one]])
    assert eye.is_identity()
    assert not PolyMatrix(R, [[R.one, x], [R.zero, R.one]]).is_identity()
    assert not PolyMatrix(R, [[R.one, R.zero]]).is_identity()


def band(ring, x):
    """Unitriangular array with x on the first superdiagonal."""
    def entry(i, j):
        if i == j:
            return ring.one
        if j == i + 1:
            return x
        return ring.zero
    return TriangularZMatrix(ring, entry, "band")


def test_window_of_and_audit():
    R = ring3()
    x, _ = R.gens()
    m = band(R, x)
    w = window_of(m, -1, 1)
    assert w.rows == 3 and w.cols == 3
    assert w.entry(0, 0).is_one() and w.entry(0, 1) == x
    assert w.entry(2, 0).is_zero()
    with pytest.raises(WindowInvalid):
        window_of(m, 2, 1)


def test_audit_rejects_lower_entries():
    R = ring3()
    x, _ = R.gens()
    bad = TriangularZMatrix(R, lambda i, j: x, "bad")
    with pytest.raises(HypothesisViolated):
        bad.audit_window(-1, 1)


def test_window_product_matches_hand_square():
    R = ring3()
    x, _ = R.gens()
    m = band(R, x)
    got = window_product(m, m, 0, 2)
    # (I + xN)^2 = I + 2xN + x^2 N^2 on a 3-window
    expect = PolyMatrix(R, [
        [R.one, 2 * x, x * x],
        [R.zero, R.one, 2 * x],
        [R.zero, R.zero, R.one],
    ])
    assert got == expect


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
