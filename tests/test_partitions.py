"""Partition combinatorics: containment, strips, staircases, witnesses."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur.errors import (
    HypothesisViolated,
    LengthTooLong,
    NotFullColumn,
)
from qschur.partitions import (
    contains,
    decrement_all,
    delta,
    is_vertical_strip,
    pad_and_add,
    part,
    partition,
    partitions_up_to_weight,
    perm_witness,
    q_exponent,
    subpartitions_between,
    vertical_strip_subpartitions,
    weight,
)


def test_partition_normalization():
    assert partition((3, 1)) == (3, 1)
    assert partition([2, 2, 0, 0]) == (2, 2)
    assert partition(()) == ()
    with pytest.raises(ValueError):
        partition((1, 2))
    with pytest.raises(ValueError):
        partition((2, -1))


def test_weight_and_part():
    lam = (4, 2, 1)
    assert weight(lam) == 7
    assert part(lam, 1) == 4
    assert part(lam, 3) == 1
    assert part(lam, 9) == 0


def test_contains():
    assert contains((3, 1), (2, 1))
    assert contains((3, 1), ())
    assert not contains((3, 1), (1, 1, 1))
    assert not contains((2,), (3,))


def test_vertical_strips():
    # removing at most one box per row of (2,1)
    assert sorted(vertical_strip_subpartitions((2, 1))) == [
        (1,), (1, 1), (2,), (2, 1)]
    assert is_vertical_strip((2, 1), (1, 1))
    assert not is_vertical_strip((3, 1), (1, 1))  # two boxes leave row one
    assert not is_vertical_strip((2, 1), (2, 2))  # not contained
    assert is_vertical_strip((2, 2), (1, 1))


def test_vertical_strips_match_brute_force():
    # the reference filters every partition by is_vertical_strip and does
    # not go through subpartitions_between
    for lam in partitions_up_to_weight(8):
        want = sorted(
            (nu for nu in partitions_up_to_weight(weight(lam), len(lam))
             if is_vertical_strip(lam, nu)),
            key=lambda nu: (-weight(nu), nu),
        )
        assert vertical_strip_subpartitions(lam) == want, lam


def test_subpartitions_between():
    got = subpartitions_between((1,), (2, 1))
    assert sorted(got) == [(1,), (1, 1), (2,), (2, 1)]
    assert subpartitions_between((2, 1), (2, 1)) == [(2, 1)]
    assert subpartitions_between((3,), (2, 1)) == []


def test_delta_and_pad_and_add():
    assert delta(3) == (2, 1, 0)
    assert delta(0) == ()
    assert pad_and_add((2, 1), 3) == (4, 2, 0)
    assert pad_and_add((), 2) == (1, 0)
    assert pad_and_add((4,), 1) == (4,)


def test_pad_and_add_refuses_a_shape_longer_than_the_staircase():
    with pytest.raises(LengthTooLong):
        pad_and_add((1, 1, 1), 2)


def test_decrement_all():
    assert decrement_all((3, 2, 1), 3) == (2, 1)
    assert decrement_all((1, 1), 2) == ()
    with pytest.raises(NotFullColumn):
        decrement_all((2, 1), 3)  # third column entry is zero


def test_partitions_up_to_weight():
    # 1 + 1 + 2 + 3 partitions of 0..3
    assert len(partitions_up_to_weight(3)) == 7
    assert len(partitions_up_to_weight(3, max_length=1)) == 4
    assert partitions_up_to_weight(0) == [()]
    got = partitions_up_to_weight(4, max_length=2)
    assert (2, 2) in got and (3, 1) in got and (1, 1, 1) not in got


def test_partitions_up_to_negative_length_are_none():
    # no partition, not even the empty one, has negative length
    assert partitions_up_to_weight(4, max_length=-1) == []
    assert partitions_up_to_weight(0, max_length=-3) == []
    assert partitions_up_to_weight(4, max_length=0) == [()]


def test_q_exponent_hand_values():
    # (q-1) * sum of q^(lam_i + n - 1 - i) over rows with lam_i > nu_i
    # (1-based i, and lam must be shorter than n)
    assert q_exponent((2, 1), (1, 1), 3, 2) == 8      # 1 * 2^(2+3-1-1)
    assert q_exponent((2, 1), (1,), 3, 2) == 10       # rows 1 and 2: 2^3 + 2^1
    assert q_exponent((2, 1), (2, 1), 3, 2) == 0
    assert q_exponent((3,), (2,), 2, 3) == 54         # 2 * 3^(3+2-1-1)
    assert q_exponent((1, 1), (1,), 3, 3) == 6        # 2 * 3^(1+3-1-2)
    with pytest.raises(LengthTooLong):
        q_exponent((2, 1), (1, 1), 2, 2)


def test_perm_witness_identity_has_none():
    for size in range(1, 5):
        alpha = tuple(range(2 * size, 0, -2))
        beta = tuple(a - (i % 2) for i, a in enumerate(alpha))
        ident = tuple(range(size))
        assert perm_witness(alpha, beta, ident) is None


def test_perm_witness_finds_a_bad_index():
    alpha = (3, 1)
    beta = (2, 1)
    sigma = (1, 0)
    i = perm_witness(alpha, beta, sigma)
    assert i is not None
    assert alpha[i] - beta[sigma[i]] not in (0, 1)


def test_perm_witness_exhaustive_small():
    # strictly decreasing alpha, beta with alpha-beta in {0,1}^size: any
    # non-identity sigma leaves some row difference outside {0,1}
    for size in range(2, 5):
        beta = tuple(range(size, 0, -1))
        for bits in range(2**size):
            alpha = tuple(b + ((bits >> i) & 1) for i, b in enumerate(beta))
            if any(alpha[i] <= alpha[i + 1] for i in range(size - 1)):
                continue
            for sigma in permutations(range(size)):
                if tuple(sigma) == tuple(range(size)):
                    assert perm_witness(alpha, beta, sigma) is None
                    continue
                i = perm_witness(alpha, beta, sigma)
                assert i is not None
                assert alpha[i] - beta[sigma[i]] not in (0, 1)


def test_perm_witness_rejects_bad_input():
    with pytest.raises(HypothesisViolated):
        perm_witness((1, 2), (0, 1), (0, 1))  # alpha not decreasing
    with pytest.raises(HypothesisViolated):
        perm_witness((3, 1), (0,), (0, 1))  # length mismatch


def ref_perm_witness(alpha, beta, sigma):
    """perm_witness as it was before its (alpha, beta) checks were
    remembered per pair: every hypothesis checked on every call."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    sigma = tuple(sigma)
    n = len(alpha)
    if len(beta) != n or len(sigma) != n:
        raise HypothesisViolated("alpha, beta, sigma must have one common length")
    if sorted(sigma) != list(range(n)):
        raise HypothesisViolated(f"{sigma} is not a permutation of 0..{n - 1}")
    for i in range(1, n):
        if alpha[i - 1] <= alpha[i] or beta[i - 1] <= beta[i]:
            raise HypothesisViolated("alpha and beta must be strictly decreasing")
    for a, b in zip(alpha, beta):
        if a - b not in (0, 1):
            raise HypothesisViolated(
                f"alpha - beta must lie in {{0, 1}} everywhere, got {a - b}"
            )
    if sigma == tuple(range(n)):
        return None
    for i in range(n):
        if alpha[i] - beta[sigma[i]] not in (0, 1):
            return i
    raise AssertionError("non-identity permutation without a witness")


def outcome(fn, *args):
    """The return value, or the exception's type and message."""
    try:
        return ("returned", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return (type(exc), str(exc))


@st.composite
def witness_triples(draw):
    """Valid triples, and triples broken in any combination of ways: a
    wrong length, a non-permutation, a non-decreasing alpha or beta, a
    difference outside {0, 1}; as tuples or lists."""
    n = draw(st.integers(0, 5))
    beta = sorted(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n,
                                unique=True)), reverse=True)
    alpha = [b + draw(st.integers(0, 1)) for b in beta]
    sigma = list(draw(st.permutations(range(n))))
    index = st.integers(0, max(n - 1, 0))
    if n and draw(st.booleans()):  # not a permutation
        sigma[draw(index)] = draw(st.sampled_from([-1, n, sigma[0], sigma[-1]]))
    if n >= 2 and draw(st.booleans()):  # not strictly decreasing
        which = draw(st.sampled_from([alpha, beta]))
        i = draw(st.integers(0, n - 2))
        which[i], which[i + 1] = which[i + 1], which[i]
    if n and draw(st.booleans()):  # a difference outside {0, 1}
        alpha[draw(index)] += draw(st.sampled_from([-1, 2]))
    if draw(st.sampled_from([False, False, False, True])):  # lengths disagree
        which = draw(st.sampled_from([alpha, beta, sigma]))
        if which and draw(st.booleans()):
            which.pop()
        else:
            which.append(0)
    as_tuple = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    return tuple(tuple(v) if t else v for v, t in zip((alpha, beta, sigma), as_tuple))


@settings(max_examples=400)
@given(witness_triples())
def test_perm_witness_matches_reference(triple):
    want = outcome(ref_perm_witness, *triple)
    # repeated calls: a remembered pair check must neither hide a violation
    # nor change the answer
    for _ in range(3):
        assert outcome(perm_witness, *triple) == want


def test_perm_witness_keeps_check_order_for_a_remembered_pair():
    with pytest.raises(HypothesisViolated, match="not a permutation"):
        perm_witness((1, 2), (0, 1), (0, 0))  # bad pair and bad sigma
    alpha, beta = (3, 1), (2, 1)
    assert perm_witness(alpha, beta, (1, 0)) is not None  # pair now remembered
    with pytest.raises(HypothesisViolated, match="common length"):
        perm_witness(alpha, beta, (0, 1, 2))
    with pytest.raises(HypothesisViolated, match="not a permutation"):
        perm_witness(alpha, beta, (1, 1))
    assert perm_witness(list(alpha), list(beta), [0, 1]) is None


def test_perm_witness_non_permutation_raises_every_time():
    alpha, beta = (3, 1), (2, 1)
    for _ in range(3):
        for sigma in [(1, 1), (0, 2), (-1, 0)]:
            with pytest.raises(HypothesisViolated, match="not a permutation"):
                perm_witness(alpha, beta, sigma)
        # a good sigma between bad ones is remembered and stays good
        assert perm_witness(alpha, beta, (1, 0)) == 0
        assert perm_witness(alpha, beta, (0, 1)) is None


def test_perm_witness_bad_pair_raises_every_time():
    for sigma in [(0, 1), (1, 0), (0, 1), (1, 0)]:
        with pytest.raises(HypothesisViolated, match="strictly decreasing"):
            perm_witness((1, 2), (0, 1), sigma)
        with pytest.raises(HypothesisViolated, match="got 2"):
            perm_witness((4, 1), (2, 1), sigma)
