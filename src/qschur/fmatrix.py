"""Determinant calculus for matrices of polynomials.

Three array kinds appear here. PolyMatrix is a finite dense matrix with
0-based indices. TriangularZMatrix is an infinite upper-triangular array
indexed by arbitrary integers, given by an entry function; windows of it
are materialized as PolyMatrix values. Entry functions must vanish below
the diagonal, and that contract is asserted by sampling on every window a
caller touches. TwistedToeplitz is the triangular array whose cell (i, j)
is phi^(i + offset) of a diagonal value D(j - i), phi the Frobenius twist,
so that cell (i + 1, j + 1) is phi of cell (i, j): the H and E arrays of a
subspace are of this kind.

Determinants are computed by cofactor expansion with memoized minors, which
is exact and fast at the sizes used here (at most seven rows). Each cofactor
row sum, and each first-row cell of a window product, is formed in one
accumulator by ppoly.sum_of_products: its products are never built on their
own; with a unitriangular left array, such as H or E, each first-row sum
is seeded by its unit product. The other window-product cells are Frobenius
lifts of the first row.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import (
    HypothesisViolated,
    IndexNotDecreasing,
    NotSquare,
    ShapeMismatch,
    WindowInvalid,
)
from .ppoly import Poly, PolyRing, sum_of_products


class PolyMatrix:
    """Dense matrix of Poly entries sharing one ring; 0-based indices."""

    __slots__ = ("ring", "entries", "rows", "cols")

    def __init__(self, ring: PolyRing, entries: Sequence[Sequence[Poly]]):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        ents = []
        for row in entries:
            if len(row) != cols:
                raise ShapeMismatch("ragged rows in matrix")
            for e in row:
                if e.ring != ring:
                    raise ShapeMismatch("matrix entry from a different ring")
            ents.append(tuple(row))
        self.ring = ring
        self.entries = tuple(ents)
        self.rows = rows
        self.cols = cols

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i][j]
                if i == j:
                    if not e.is_one():
                        return False
                elif e.terms:
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return other.ring == self.ring and other.entries == self.entries

    def __hash__(self) -> int:
        return hash((self.ring, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"PolyMatrix[{self.rows}x{self.cols}: {body}]"


def det(m: PolyMatrix) -> Poly:
    """Determinant by cofactor expansion along rows, minors memoized.

    The empty matrix has determinant one, and a 1x1 minor is its entry.
    """
    if m.rows != m.cols:
        raise NotSquare(f"determinant of a {m.rows}x{m.cols} matrix")
    ring = m.ring
    n = m.rows
    if n == 0:
        return ring.one
    entries = m.entries
    signs = (ring.spec.one, ring.spec.minus_one)
    memo: dict[tuple[int, tuple[int, ...]], Poly] = {}

    def minor(r: int, cols: tuple[int, ...]) -> Poly:
        if r == n - 1:
            return entries[r][cols[0]]
        key = (r, cols)
        got = memo.get(key)
        if got is None:
            triples = []
            for pos, c in enumerate(cols):
                e = entries[r][c]
                if e.terms:
                    sub = minor(r + 1, cols[:pos] + cols[pos + 1 :])
                    triples.append((signs[pos % 2], e, sub))
            got = memo[key] = sum_of_products(ring, triples)
        return got

    return minor(0, tuple(range(n)))


class TriangularZMatrix:
    """Upper-triangular array over all integer indices, defined by a function.

    entry_fn(i, j) must return a ring element for every pair of integers and
    must vanish whenever i > j. The tag names the array in error messages.
    """

    __slots__ = ("ring", "entry_fn", "tag")

    def __init__(self, ring: PolyRing, entry_fn: Callable[[int, int], Poly], tag: str):
        self.ring = ring
        self.entry_fn = entry_fn
        self.tag = tag

    def entry(self, i: int, j: int) -> Poly:
        return self.entry_fn(i, j)

    def audit_window(self, lo: int, hi: int) -> None:
        """Assert the below-diagonal entries vanish on the window [lo, hi]."""
        for i in range(lo, hi + 1):
            for j in range(lo, i):
                e = self.entry_fn(i, j)
                if e.terms:
                    raise HypothesisViolated(
                        f"array {self.tag} is not upper triangular: "
                        f"entry ({i}, {j}) = {e}"
                    )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.tag})"


class TwistedToeplitz(TriangularZMatrix):
    """Frobenius-twisted Toeplitz array: cell (i, j) is phi^(i + offset) of
    the diagonal value diag(j - i), and zero for i > j.

    Since phi is an injective ring endomorphism fixing F_q (Ore, "On a
    special class of polynomials", Trans. AMS 35, 1933), cell (i + 1, j + 1)
    is phi of cell (i, j), and a product of two such arrays has the same
    property. diag(d) must return a ring element for every d >= 0.
    """

    __slots__ = ()

    def __init__(self, ring: PolyRing, diag: Callable[[int], Poly], offset: int, tag: str):
        zero = ring.zero

        def entry(i: int, j: int) -> Poly:
            return diag(j - i).frobenius(i + offset) if i <= j else zero

        super().__init__(ring, entry, tag)


def window_product(
    a: TwistedToeplitz, b: TwistedToeplitz, lo: int, hi: int
) -> PolyMatrix:
    """The product a*b restricted to rows and columns lo..hi.

    For upper-triangular arrays the (i, j) product entry is the finite sum
    over k in [i, j], so the window is exact. Both operands must be
    TwistedToeplitz arrays: the product's cell (lo + r, lo + s) is then
    phi^r of its first-row cell (lo, lo + s - r), so only the first row is
    summed, one sum of products per diagonal, and every other cell is a
    lift of it. A lift by no more than the first-row cell's shift shares
    its terms. Any other triangular array raises WindowInvalid.

    Each first-row sum runs its products in the order m = 0..d, so when
    a(lo, lo) is 1 the sum starts with the unit product 1 * b(lo, lo + d),
    which seeds the accumulator with b's terms (sharing their keys) rather
    than adding them one by one.
    """
    if lo > hi:
        raise WindowInvalid(f"window [{lo}, {hi}] is empty")
    for m in (a, b):
        if not isinstance(m, TwistedToeplitz):
            raise WindowInvalid(
                f"window product of {m!r}, which is not a Frobenius-twisted Toeplitz array"
            )
    if a.ring != b.ring:
        raise WindowInvalid("window product of arrays over different rings")
    ring = a.ring
    size = hi - lo + 1
    # cell (lo, lo + m) of a, looked up once for every diagonal that uses it
    left = [a.entry_fn(lo, lo + m) for m in range(size)]
    first = [
        sum_of_products(ring, [
            (1, left[m], b.entry_fn(lo + m, lo + d)) for m in range(d + 1) if left[m].terms
        ])
        for d in range(size)
    ]
    zero = ring.zero
    return PolyMatrix(ring, [
        [zero] * r + [first[s - r].frobenius(r) for s in range(r, size)]
        for r in range(size)
    ])


def window_of(m: TriangularZMatrix, lo: int, hi: int) -> PolyMatrix:
    """Materialize the window [lo, hi] of a triangular array."""
    if lo > hi:
        raise WindowInvalid(f"window [{lo}, {hi}] is empty")
    m.audit_window(lo, hi)
    return sub_minor(m, range(lo, hi + 1), range(lo, hi + 1))


def sub_minor(
    m: TriangularZMatrix, row_idx: Sequence[int], col_idx: Sequence[int]
) -> PolyMatrix:
    """The finite submatrix on the given integer rows and columns."""
    return PolyMatrix(
        m.ring,
        [[m.entry_fn(i, j) for j in col_idx] for i in row_idx],
    )


def _check_decreasing(idx: Sequence[int], label: str) -> tuple[int, ...]:
    idx = tuple(idx)
    for a, b in zip(idx, idx[1:]):
        if a <= b:
            raise IndexNotDecreasing(f"{label} indices {idx} are not strictly decreasing")
    return idx


def cauchy_binet(
    a: TriangularZMatrix,
    b: TriangularZMatrix,
    row_idx: Sequence[int],
    col_idx: Sequence[int],
):
    """Minor of a product of triangular arrays and its expansion.

    For strictly decreasing rows i and columns j of equal length u, returns
    (d, addends) where d is det of the (i, j) minor of a*b and addends lists
    (g, left, right) over all strictly decreasing g with i_k <= g_k <= j_k:
    left is det of the (i, g) minor of a, right det of the (g, j) minor of b.
    The sum of left*right over the addends equals d. An empty index pair
    yields determinant one and a single empty addend.
    """
    ii = _check_decreasing(row_idx, "row")
    jj = _check_decreasing(col_idx, "column")
    if len(ii) != len(jj):
        raise ShapeMismatch("row and column index tuples differ in length")
    if a.ring != b.ring:
        raise ShapeMismatch("arrays over different rings")
    ring = a.ring
    u = len(ii)
    if u:
        lo = min(ii[-1], jj[-1]) - 1
        hi = max(ii[0], jj[0]) + 1
        a.audit_window(lo, hi)
        b.audit_window(lo, hi)

    direct = det(PolyMatrix(ring, [
        [sum_of_products(ring, [(1, a.entry_fn(i, k), b.entry_fn(k, j)) for k in range(i, j + 1)])
         for j in jj]
        for i in ii
    ]))

    addends = []

    def build(k: int, prev: int | None, acc: tuple[int, ...]):
        if k == u:
            g = acc
            left = det(sub_minor(a, ii, g))
            right = det(sub_minor(b, g, jj))
            addends.append((g, left, right))
            return
        hi_k = jj[k] if prev is None else min(jj[k], prev - 1)
        for gk in range(hi_k, ii[k] - 1, -1):
            build(k + 1, gk, acc + (gk,))

    build(0, None, ())
    return direct, addends


def scale_sign_det(
    c: PolyMatrix, lam: Sequence[int], nu: Sequence[int]
) -> Poly:
    """Determinant of the matrix with entries (-1)^(lam_i - nu_j - i + j) c_ij.

    Rows and columns are 0-based here; the exponent uses the 1-based form
    lam_i - nu_j - i + j, whose value is unchanged by the shift. Parts beyond
    the length of lam or nu read as zero. Equals (-1)^(|lam| - |nu|) det(c).
    """
    if c.rows != c.cols:
        raise NotSquare(f"determinant of a {c.rows}x{c.cols} matrix")
    u = c.rows
    if len(lam) > u or len(nu) > u:
        raise ShapeMismatch(
            f"partitions of length {len(lam)}, {len(nu)} on a {u}x{u} matrix"
        )
    spec = c.ring.spec
    rows = []
    for i in range(u):
        li = lam[i] if i < len(lam) else 0
        row = []
        for j in range(u):
            nj = nu[j] if j < len(nu) else 0
            row.append(c.entries[i][j].scale(spec.sign(li - nj - i + j)))
        rows.append(row)
    return det(PolyMatrix(c.ring, rows))


def too_many_zeroes_check(c: PolyMatrix, zero_rows, zero_cols) -> bool:
    """Check the vanishing criterion: a u x u matrix with a zero block on
    rows X and columns Y, |X| + |Y| > u, has determinant zero.

    Indices are 0-based. Raises HypothesisViolated when |X| + |Y| <= u or
    some listed entry is nonzero; otherwise returns whether det == 0.
    """
    if c.rows != c.cols:
        raise NotSquare(f"determinant of a {c.rows}x{c.cols} matrix")
    u = c.rows
    xs = sorted(set(zero_rows))
    ys = sorted(set(zero_cols))
    for i in xs + ys:
        if not 0 <= i < u:
            raise HypothesisViolated(f"index {i} outside 0..{u - 1}")
    if len(xs) + len(ys) <= u:
        raise HypothesisViolated(
            f"|X| + |Y| = {len(xs) + len(ys)} does not exceed u = {u}"
        )
    for i in xs:
        for j in ys:
            if c.entries[i][j].terms:
                raise HypothesisViolated(
                    f"entry ({i}, {j}) = {c.entries[i][j]} is not zero"
                )
    return not det(c).terms
