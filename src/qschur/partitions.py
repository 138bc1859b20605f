"""Integer partitions, staircases, vertical strips, and twist exponents.

Partitions are tuples of weakly decreasing positive integers with no
trailing zeros; parts beyond the length read as zero. Compositions (outputs
of staircase addition) are plain tuples of nonnegative integers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .errors import (
    HypothesisViolated,
    LengthExceeded,
    LengthTooLong,
    NotFullColumn,
    NotVerticalStrip,
)

Partition = tuple[int, ...]
Composition = tuple[int, ...]


def partition(parts) -> Partition:
    """Validated partition; trailing zeros are stripped."""
    ps = list(parts)
    while ps and ps[-1] == 0:
        ps.pop()
    for i, p in enumerate(ps):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"part {p!r} is not a positive integer")
        if i and ps[i - 1] < p:
            raise ValueError(f"parts {ps} are not weakly decreasing")
    return tuple(ps)


def weight(lam: Partition) -> int:
    return sum(lam)


def part(lam: Partition, i: int) -> int:
    """The i-th part, 1-indexed; zero beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def contains(lam: Partition, mu: Partition) -> bool:
    """True iff mu fits inside lam row by row."""
    if len(mu) > len(lam):
        return False
    return all(m <= l for m, l in zip(mu, lam))


def is_vertical_strip(lam: Partition, mu: Partition) -> bool:
    """True iff mu is inside lam and each row of lam/mu has at most one cell."""
    if not contains(lam, mu):
        return False
    return all(part(lam, i) <= part(mu, i) + 1 for i in range(1, len(lam) + 1))


def delta(n: int) -> Composition:
    """The staircase (n-1, n-2, ..., 1, 0)."""
    if n < 0:
        raise ValueError("staircase size must be nonnegative")
    return tuple(range(n - 1, -1, -1))


def pad_and_add(lam: Partition, n: int) -> Composition:
    """lam padded to length n plus the staircase delta(n); strictly decreasing."""
    if len(lam) > n:
        raise LengthExceeded(f"partition {lam} is longer than the staircase size {n}")
    return tuple(part(lam, i) + (n - i) for i in range(1, n + 1))


def decrement_all(lam: Partition, n: int) -> Partition:
    """Remove one cell from each of the n rows; requires a full first column."""
    if len(lam) != n or (n > 0 and lam[-1] < 1):
        raise NotFullColumn(
            f"partition {lam} does not fill all {n} rows of the first column"
        )
    return partition(p - 1 for p in lam)


def vertical_strip_subpartitions(lam: Partition) -> list[Partition]:
    """All nu inside lam with lam/nu a vertical strip, largest weight first.

    lam/nu is a vertical strip exactly when nu lies between lam less one
    cell in each row and lam, so this is that interval, in the order of
    subpartitions_between.
    """
    return subpartitions_between(tuple(p - 1 for p in lam if p > 1), lam)


def q_exponent(lam: Partition, nu: Partition, n: int, q: int) -> int:
    """Twist exponent of a vertical strip: (q-1) * sum of q^(lam_i + n - 1 - i)
    over the rows where the strip removes a cell. Requires len(lam) < n.
    """
    if len(lam) >= n:
        raise LengthTooLong(f"partition {lam} must be shorter than n={n}")
    if not is_vertical_strip(lam, nu):
        raise NotVerticalStrip(f"{lam}/{nu} is not a vertical strip")
    total = 0
    for i in range(1, len(lam) + 1):
        if part(lam, i) > part(nu, i):
            total += q ** (part(lam, i) + n - 1 - i)
    return (q - 1) * total


def perm_witness(alpha, beta, sigma) -> int | None:
    """For strictly decreasing alpha, beta with alpha_i - beta_i in {0, 1}:
    None when sigma is the identity, else an index i (0-based) with
    alpha_i - beta_sigma(i) outside {0, 1}.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    sigma = tuple(sigma)
    n = len(alpha)
    if len(beta) != n or len(sigma) != n:
        raise HypothesisViolated("alpha, beta, sigma must have one common length")
    _check_permutation(sigma)
    _check_witness_pair(alpha, beta)
    # the pair hypotheses leave the identity no witness, so the scan comes
    # first and only a scan that finds none compares sigma with it
    for i in range(n):
        if alpha[i] - beta[sigma[i]] not in (0, 1):
            return i
    if sigma == tuple(range(n)):
        return None
    raise AssertionError("non-identity permutation without a witness")


@lru_cache(maxsize=1024)
def _check_permutation(sigma: tuple) -> None:
    """The sigma hypothesis of perm_witness, checked once per sigma: a
    search meets every permutation of its size again for each pair, and
    1024 slots hold all 873 of sizes 1 to 6. A non-permutation raises on
    every call, since lru_cache never stores a raised call."""
    n = len(sigma)
    if tuple(sorted(sigma)) != tuple(range(n)):
        raise HypothesisViolated(f"{sigma} is not a permutation of 0..{n - 1}")


@lru_cache(maxsize=1)
def _check_witness_pair(alpha: tuple, beta: tuple) -> None:
    """The (alpha, beta) hypotheses of perm_witness, checked once per pair:
    a search runs every permutation against one pair back to back, so one
    slot suffices; more slots only pin memory. A violation raises, and
    lru_cache never stores a raised call, so a bad pair raises again on
    every call."""
    for i in range(1, len(alpha)):
        if alpha[i - 1] <= alpha[i] or beta[i - 1] <= beta[i]:
            raise HypothesisViolated("alpha and beta must be strictly decreasing")
    for a, b in zip(alpha, beta):
        if a - b not in (0, 1):
            raise HypothesisViolated(
                f"alpha - beta must lie in {{0, 1}} everywhere, got {a - b}"
            )


def partitions_up_to_weight(max_weight: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of weight <= max_weight (and length <= max_length),
    ordered by weight then lexicographically. A negative max_length admits
    no partition."""
    if max_length is not None and max_length < 0:
        return []
    out: list[Partition] = [()]
    for w in range(1, max_weight + 1):
        batch: list[Partition] = []

        def build(remaining: int, cap: int, acc: list[int]):
            if remaining == 0:
                batch.append(tuple(acc))
                return
            if max_length is not None and len(acc) == max_length:
                return
            for nxt in range(min(cap, remaining), 0, -1):
                build(remaining - nxt, nxt, acc + [nxt])

        build(w, w, [])
        batch.sort()
        out.extend(batch)
    return out


def subpartitions_between(mu: Partition, lam: Partition) -> list[Partition]:
    """All nu with mu inside nu inside lam, heaviest first, then lexicographically."""
    if not contains(lam, mu):
        return []
    k = len(lam)
    out: list[Partition] = []

    def build(i: int, acc: list[int]):
        if i == k:
            out.append(partition(acc))
            return
        lo = part(mu, i + 1)
        hi = lam[i]
        bound = acc[-1] if acc else hi
        for v in range(min(hi, bound), lo - 1, -1):
            build(i + 1, acc + [v])

    build(0, [])
    out.sort(key=lambda nu: (-sum(nu), nu))
    return out


def all_permutations(n: int):
    """All permutations of 0..n-1 as tuples, in lexicographic order."""
    return permutations(range(n))
