"""Sparse multivariate polynomials over F_q with exponents in N[1/q].

Exponents have the form num / q^dpow. Fractional exponents arise from the
inverse Frobenius twist (exponents divided by q) and are first-class
citizens: arithmetic, ordering, printing and parsing all handle them
exactly. Substitution is the one operation that insists on integer
exponents.

A PolyRing fixes the coefficient field and the variable names. Rings are
interned like fields: PolyRing(spec, names) returns the one object for its
value, so equality is identity and the hash is the value's. Mixing rings
in arithmetic is an error, and evaluate_morphism (substitution) is the
only bridge between them.

The monomial order is graded lexicographic: compare exact total degrees
first, then the exponent vectors with the lowest-index variable most
significant. Polynomials print in descending order of that comparison.

Internal monomial shape: a Poly holds one integer shift d >= 0 for all its
terms, so the true exponents are integer vectors / q^d, and each vector is
packed into one Python int, its key. The key has one field per ring
variable plus one for the total degree, all of one width w: the total
degree sits in the top field, variable 0 in the next, and so on down. Every
field keeps its top bit, the guard bit, zero. Integer order on keys is then
graded-lex order, the monomial product is +, a / b is a - b when no field
borrows (the difference has no guard bit set), and multiplying every
exponent by f multiplies the key by f. The width is the smallest multiple
of 32 bits that holds the polynomial's own largest total degree below the
guard bit, so exponents stay exact at any size. The shift is kept minimal
(zero, or some exponent is not divisible by q); with the width fixed by the
degree, the representation is unique, and equality, hashing and printing
compare keys directly. Frobenius twists move the shift and scale the keys
only when the shift runs out; sums, products and quotients align two
shifts, and re-pack at a new width, only when they differ. A sum of
products (sum_of_products) aligns all its operands at once and adds every
product into one accumulator, so no product or partial sum of it is built
as a Poly; a single product is the one-triple case of that sum. A product
with a one-term operand seeds an empty accumulator in one pass (a unit
product copies the other operand's terms); otherwise the one loop of the
accumulator takes the one-term operand first. Exact division (exact_div)
is a divisor-heap division: one pending product per divisor term, the
second divisor term's held outside the heap, and only the quotient terms
some divisor term has yet to meet kept in a linked list. Outside
this module monomials are (vector, shift) pairs, passed from
leading_monomial() to coeff_of() and PolyRing.key(); coeff_at_leading()
looks one polynomial's leading monomial up in another and keeps it a key
when it can.

Internal coefficient shape: terms maps each key to the index of its
nonzero coefficient in spec.elements (an int in 1..q-1), which the
FieldSpec tables compute on, so the garbage collector does not track a
terms dict. Field elements are built only at the API edge.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from heapq import heappop, heappush, heapreplace
from typing import Iterable

from .errors import (
    ExponentTooLong,
    FractionalExponent,
    NotDivisible,
    PolyParseError,
    RingMismatch,
    TermLimitExceeded,
)
from .gf import FieldElement, FieldSpec

DEFAULT_TERM_LIMIT = 2_000_000
_term_limit = DEFAULT_TERM_LIMIT


def set_term_limit(limit: int) -> None:
    """Set the global guard on term counts: a product or a running sum of
    products, an exact quotient or a substitution that would hold more terms
    raises TermLimitExceeded."""
    global _term_limit
    if limit < 1:
        raise ValueError("term limit must be positive")
    _term_limit = limit


def get_term_limit() -> int:
    return _term_limit


def _over_limit(what: str, count: int) -> TermLimitExceeded:
    return TermLimitExceeded(f"{what} holds {count} terms, over the limit {_term_limit}")


WORD = 32  # field widths are multiples of this many bits


def _width(deg: int) -> int:
    """Field width for largest total degree deg: the smallest multiple of
    WORD bits that holds deg below the guard bit."""
    return (deg.bit_length() // WORD + 1) * WORD


def _pack(v, w: int) -> int:
    """The key of exponent vector v at field width w."""
    k = sum(v)
    for e in v:
        k = (k << w) | e
    return k


def _unpack(k: int, n: int, w: int) -> tuple:
    """The exponent vector of key k, n variables at field width w."""
    mask = (1 << w) - 1
    v = []
    for _ in range(n):
        v.append(k & mask)
        k >>= w
    v.reverse()
    return tuple(v)


def _guards(n: int, w: int) -> int:
    """The guard bits of all n + 1 fields at width w."""
    g = 0
    for _ in range(n + 1):
        g = (g << w) | (1 << (w - 1))
    return g


def _repacked(terms: dict, n: int, w_from: int, w_to: int) -> dict:
    return {_pack(_unpack(k, n, w_from), w_to): c for k, c in terms.items()}


AMBIENT_NAMES = ("x", "y", "z", "w", "v", "u", "s", "r")

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


# The one PolyRing for each (spec, names).
_rings: dict[tuple, "PolyRing"] = {}


class PolyRing:
    """Polynomial ring: a field spec and ordered variable names, one object
    per value. Equality is identity (the object default); the hash is the
    value's, so the order of a set of rings repeats run to run."""

    __slots__ = ("spec", "names", "nvars", "zero", "one", "_gens", "_name_index", "_hash")

    def __new__(cls, spec: FieldSpec, names: Iterable[str]) -> "PolyRing":
        names = tuple(names)
        key = (spec, names)
        self = _rings.get(key)
        if self is not None:
            return self
        if len(set(names)) != len(names):
            raise RingMismatch("ring variable names must be distinct")
        for nm in names:
            if not _NAME_RE.match(nm):
                raise RingMismatch(f"bad variable name {nm!r}")
        self = object.__new__(cls)
        self.spec = spec
        self.names = names
        self._hash = hash(key)
        self._name_index = {nm: i for i, nm in enumerate(names)}
        n = self.nvars = len(names)
        self.zero = Poly(self, {})
        # the unit monomial has key 0 at every width
        self.one = Poly(self, {0: 1})
        self._gens = tuple(
            Poly(self, {_pack([int(i == j) for j in range(n)], WORD): 1})
            for i in range(n)
        )
        _rings[key] = self
        return self

    def gens(self) -> tuple["Poly", ...]:
        return self._gens

    def gen(self, i: int) -> "Poly":
        return self._gens[i]

    def from_coeff(self, c: FieldElement | int) -> "Poly":
        if isinstance(c, int):
            c = self.spec.element(c)
        elif c.spec is not self.spec:
            raise RingMismatch("coefficient from a different field")
        if c.idx == 0:
            return self.zero
        return Poly(self, {0: c.idx})

    def from_terms(self, terms: Iterable, shift: int = 0) -> "Poly":
        """The sum of c * x^(v / q^shift) over (v, c) pairs, v an exponent
        vector of nonnegative ints, one per variable, and c a field element;
        repeated vectors add up."""
        spec = self.spec
        live = []
        for v, c in terms:
            if len(v) != self.nvars:
                raise RingMismatch(f"exponent vector {tuple(v)} for {self.nvars} variables")
            if c.spec is not spec:
                raise RingMismatch("coefficient from a different field")
            if c.idx:
                live.append((v, c.idx))
        w = _width(max((sum(v) for v, _ in live), default=0))
        out: dict = {}
        _merge(out, ((_pack(v, w), c) for v, c in live), spec.add_table)
        return _poly(self, out, shift, w)

    def key(self, m: tuple[tuple, int]):
        """Exact graded-lex key of a monomial (vector, shift); keys of
        monomials from different polynomials compare correctly."""
        v, d = m
        if not d:
            return (sum(v), tuple(v))
        den = self.spec.q**d
        return (Fraction(sum(v), den), tuple(Fraction(e, den) for e in v))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PolyRing({self.spec.to_text()}, {self.names})"

    def parse(self, text: str) -> "Poly":
        return _parse_poly(self, text)


def ambient_ring(spec: FieldSpec, n: int) -> PolyRing:
    """Working ring with n variables named x, y, z, w, v, u, s, r."""
    if n > len(AMBIENT_NAMES):
        raise RingMismatch(f"ambient rings support at most {len(AMBIENT_NAMES)} variables")
    return PolyRing(spec, AMBIENT_NAMES[:n])


def _merge(out: dict, items: Iterable, add_t: tuple) -> None:
    """Add (key, coefficient index) pairs into out, a dict from keys to
    nonzero coefficient indices; a sum that cancels leaves no key behind."""
    get = out.get
    for m, c in items:
        prev = get(m)
        if prev is None:
            out[m] = c
        else:
            s = add_t[prev][c]
            if s:
                out[m] = s
            else:
                del out[m]


def _divisible(terms: dict, n: int, w: int, f: int) -> bool:
    """True when f divides every exponent of every key; the total field
    follows from the variable fields."""
    mask = (1 << w) - 1
    for k in terms:
        for _ in range(n):
            if (k & mask) % f:
                return False
            k >>= w
    return True


def _poly(ring: PolyRing, terms: dict, d: int, w: int, lead: int | None = None) -> "Poly":
    """The polynomial with true exponents vector / q^d, keys at width w; its
    shift is made minimal and its width fitted to its degree. lead, when
    given, is the largest key of terms."""
    if not terms:
        return ring.zero
    if d:
        q = ring.spec.q
        f = 1
        while d and _divisible(terms, ring.nvars, w, f * q):
            f *= q
            d -= 1
        if f > 1:
            terms = {k // f: c for k, c in terms.items()}
            lead = None
    if w > WORD:
        if lead is None:
            lead = max(terms)
        nw = _width(lead >> (ring.nvars * w))
        if nw != w:
            terms = _repacked(terms, ring.nvars, w, nw)
            w, lead = nw, None
    return Poly(ring, terms, d, w, lead)


def _top(p: "Poly", d: int) -> int:
    """Largest total degree of a nonzero p, its exponents written over
    q^d >= q^p.shift."""
    k = p._lead
    if k is None:
        k = p._leading()
    deg = k >> (p.ring.nvars * p.width)
    return deg if d == p.shift else deg * p.ring.spec.q ** (d - p.shift)


def _aligned(p: "Poly", d: int, w: int) -> dict:
    """The terms of p with exponents written over q^d, d >= p.shift, keyed
    at width w, which must hold them."""
    terms = p.terms
    if p.width != w:
        terms = _repacked(terms, p.ring.nvars, p.width, w)
    if p.shift != d:
        f = p.ring.spec.q ** (d - p.shift)
        terms = {k * f: c for k, c in terms.items()}
    return terms


def _seeded(ta: dict, tb: dict, own: dict, ci: int, spec: FieldSpec, what: str) -> dict:
    """The terms of c * a * b, a or b of one term, as _accumulate would
    leave them in an empty accumulator; own is the terms dict of the other
    operand (of b when both have one term).

    The keys are distinct, so _accumulate's first checkpoint past the limit
    would count all of b after a one-term a, and limit + 1 before a one-term
    b; those counts are raised before anything is built. A unit monomial
    with coefficient product 1 copies the other operand's terms, sharing
    their keys, or takes them as they are when aligning already copied
    them."""
    one, rest = (ta, tb) if len(ta) == 1 else (tb, ta)
    if len(rest) > _term_limit:
        raise _over_limit(what, len(rest) if one is ta else _term_limit + 1)
    (k, c), = one.items()
    cc = spec.mul_table[ci][c]
    if not k and cc == 1:
        return dict(rest) if rest is own else rest
    row = spec.mul_table[cc]
    return {k + m: row[x] for m, x in rest.items()}


def _accumulate(out: dict, ta: dict, tb: dict, ci: int, spec: FieldSpec, what: str) -> None:
    """Add c * a * b into out, a dict from keys to nonzero coefficient
    indices: ta and tb are the terms of a and b, aligned to one shift and
    one width, and ci is the index of c. A sum that cancels leaves no key
    behind. Raises TermLimitExceeded once out holds more terms than the
    limit after some term of a.

    A one-term b, when out cannot pass the limit within the terms of a, is
    swapped to the front: its one row then runs over the terms of a and is
    checked once at the end, which is the last checkpoint that could
    raise."""
    limit = _term_limit
    mul_t = spec.mul_table
    add_t = spec.add_table
    crow = mul_t[ci]
    get = out.get
    if len(tb) == 1 and len(out) + len(ta) <= limit:
        ta, tb = tb, ta
    tb_items = tb.items()
    for ma, ca in ta.items():
        mrow = mul_t[crow[ca]]
        for mb, cb in tb_items:
            m = ma + mb
            t = mrow[cb]  # nonzero: a field has no zero divisors
            prev = get(m)
            if prev is None:
                out[m] = t
            else:
                s = add_t[prev][t]
                if s:
                    out[m] = s
                else:
                    del out[m]
        if len(out) > limit:
            raise _over_limit(what, len(out))


class Poly:
    """Immutable sparse polynomial: terms maps monomial keys (exponent
    vectors packed at field width `width`) to the indices of nonzero
    coefficients in ring.spec.elements; the true exponents are the vectors
    divided by q^shift."""

    __slots__ = ("ring", "terms", "shift", "width", "_lead", "_hash")

    def __init__(self, ring: PolyRing, terms: dict, shift: int = 0, width: int = WORD,
                 lead: int | None = None):
        self.ring = ring
        self.terms = terms
        self.shift = shift
        self.width = width
        self._lead = lead
        self._hash = None

    def _leading(self) -> int:
        """The largest key, computed once."""
        k = self._lead
        if k is None:
            k = self._lead = max(self.terms)
        return k

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise RingMismatch(
                    f"operands in different rings: {self.ring!r} vs {other.ring!r}"
                )
            return other
        if isinstance(other, FieldElement) or isinstance(other, int):
            return self.ring.from_coeff(other)
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(0) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        d = max(self.shift, other.shift)
        if self.shift == other.shift:
            w = self.width if self.width >= other.width else other.width
        else:
            w = _width(max(_top(self, d), _top(other, d)))
        out = dict(_aligned(self, d, w))
        _merge(out, _aligned(other, d, w).items(), self.ring.spec.add_table)
        return _poly(self.ring, out, d, w)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        if self.ring.spec.p == 2 or not self.terms:
            return self
        neg = self.ring.spec.neg_table
        return Poly(self.ring, {m: neg[c] for m, c in self.terms.items()}, self.shift,
                    self.width, self._lead)

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if other.ring is not self.ring:
            raise RingMismatch(
                f"operands in different rings: {self.ring!r} vs {other.ring!r}"
            )
        if not self.terms or not other.terms:
            return self.ring.zero
        return _fused(self.ring, [(1, self, other)], "product")

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: FieldElement | int) -> "Poly":
        if isinstance(c, int):
            c = self.ring.spec.element(c)
        elif c.spec is not self.ring.spec:
            raise RingMismatch("scalar from a different field")
        if c.idx == 0:
            return self.ring.zero
        if c.idx == 1:
            return self
        crow = self.ring.spec.mul_table[c.idx]
        return Poly(self.ring, {m: crow[cc] for m, cc in self.terms.items()}, self.shift,
                    self.width, self._lead)

    def __pow__(self, m: int) -> "Poly":
        if not isinstance(m, int):
            return NotImplemented
        if m < 0:
            raise ValueError("polynomial powers must be nonnegative")
        if m == 0:
            return self.ring.one
        if not self.terms:
            return self
        if len(self.terms) == 1:
            # a single term is raised directly, with no products
            (k, c), = self.terms.items()
            w = _width(_top(self, self.shift) * m)
            if w != self.width:
                k = _pack(_unpack(k, self.ring.nvars, self.width), w)
            c = (self.ring.spec.elements[c] ** m).idx
            return _poly(self.ring, {k * m: c}, self.shift, w, k * m)
        q = self.ring.spec.q
        digits = []
        mm = m
        while mm:
            digits.append(mm % q)
            mm //= q
        small: dict[int, Poly] = {1: self}
        result = None
        for k, d in enumerate(digits):
            if d == 0:
                continue
            if d not in small:
                acc = self
                for _ in range(d - 1):
                    acc = acc * self
                small[d] = acc
            piece = small[d].frobenius(k)
            result = piece if result is None else result * piece
        return result

    def frobenius(self, k: int) -> "Poly":
        """Raise every exponent by the factor q^k; coefficients unchanged."""
        if k == 0 or not self.terms:
            return self
        d = self.shift - k
        if d < 0:
            # the new vectors are the old ones times q^-d, at shift 0
            f = self.ring.spec.q**-d
            lead = self._leading()
            w = _width((lead >> (self.ring.nvars * self.width)) * f)
            if w != self.width:
                return Poly(self.ring, _aligned(self, k, w), 0, w)
            return Poly(self.ring, {m * f: c for m, c in self.terms.items()}, 0, w, lead * f)
        if k < 0 and not self.shift:
            # every exponent may be divisible by q, then d is not minimal
            return _poly(self.ring, self.terms, d, self.width, self._lead)
        return Poly(self.ring, self.terms, d, self.width, self._lead)

    def leading_monomial(self) -> tuple[tuple, int]:
        """The leading monomial as (vector, shift), written over this
        polynomial's shift."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return _unpack(self._leading(), self.ring.nvars, self.width), self.shift

    def leading_coeff(self) -> FieldElement:
        return self.ring.spec.elements[self.terms[self._leading()]]

    def has_fractional_exponents(self) -> bool:
        return self.shift > 0

    def degrees(self) -> set[Fraction]:
        den = self.ring.spec.q**self.shift
        s = self.ring.nvars * self.width
        return {Fraction(m >> s, den) for m in self.terms}

    def total_degree(self) -> Fraction | None:
        degs = self.degrees()
        return max(degs) if degs else None

    def coeff_of(self, m: tuple[tuple, int]) -> FieldElement:
        """Coefficient of the monomial (vector, shift), at whatever shift it
        is written."""
        v, d = m
        q = self.ring.spec.q
        zero = self.ring.spec.zero
        if d > self.shift:
            f = q ** (d - self.shift)
            if any(e % f for e in v):
                return zero
            v = [e // f for e in v]
        elif d < self.shift:
            f = q ** (self.shift - d)
            v = [e * f for e in v]
        w = self.width
        k = sum(v)
        if k >> (w - 1):
            return zero  # above this polynomial's degree
        for e in v:
            k = (k << w) | e
        return self.ring.spec.elements[self.terms.get(k, 0)]

    def coeff_at_leading(self, other: "Poly") -> FieldElement:
        """Coefficient in self of the leading monomial of a nonzero other:
        self.coeff_of(other.leading_monomial()), looked up by key when both
        are written over one shift at one width."""
        if other.shift == self.shift and other.width == self.width:
            return self.ring.spec.elements[self.terms.get(other._leading(), 0)]
        return self.coeff_of(other.leading_monomial())

    def sort_key(self):
        """Deterministic total order key among polynomials of one ring."""
        key = self.ring.key
        n, w, d = self.ring.nvars, self.width, self.shift
        return tuple(
            (key((_unpack(m, n, w), d)), self.terms[m])
            for m in sorted(self.terms, reverse=True)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            other.ring is self.ring
            and other.shift == self.shift
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((
                self.ring,
                self.shift,
                frozenset(self.terms.items()),
            ))
            self._hash = h
        return h

    def __str__(self) -> str:
        return poly_to_text(self)

    def __repr__(self) -> str:
        return f"Poly({self!s})"


def sum_of_products(ring: PolyRing, triples: Iterable) -> Poly:
    """The sum of c * a * b over (c, a, b) triples, where c is a field
    element or an int and a, b are polynomials of ring.

    Every product is written over the largest shift and at the largest
    width any of them needs, and all of them are added term by term into
    one accumulator of coefficient indices, so terms cancel in place and no
    product or partial sum is ever formed as a Poly. The term limit bounds
    that accumulator: a sum whose running total passes it raises
    TermLimitExceeded even when each product would fit.
    """
    spec = ring.spec
    live = []
    for c, a, b in triples:
        for p in (a, b):
            if p.ring is not ring:
                raise RingMismatch(f"operand in a different ring: {p.ring!r} vs {ring!r}")
        if isinstance(c, int):
            c = spec.element(c)
        elif c.spec is not spec:
            raise RingMismatch("scalar from a different field")
        if c.idx and a.terms and b.terms:
            live.append((c.idx, a, b))
    return _fused(ring, live, "sum of products")


def _fused(ring: PolyRing, live: list, what: str) -> Poly:
    """sum_of_products on checked (coefficient index, a, b) triples with
    nonzero parts; what names the sum in a TermLimitExceeded message. A
    product with a one-term operand that meets an empty accumulator seeds
    it (_seeded) instead of adding into it; a sum whose last triple seeded
    it has no cancelled slots, and is returned without a copy."""
    if not live:
        return ring.zero
    d = 0
    for _, a, b in live:
        if a.shift > d:
            d = a.shift
        if b.shift > d:
            d = b.shift
    top = 0
    for _, a, b in live:
        t = _top(a, d) + _top(b, d)
        if t > top:
            top = t
    w = _width(top)
    spec = ring.spec
    out: dict = {}
    for ci, a, b in live:
        ta, tb = _aligned(a, d, w), _aligned(b, d, w)
        seeded = not out and (len(ta) == 1 or len(tb) == 1)
        if seeded:
            out = _seeded(ta, tb, b.terms if len(ta) == 1 else a.terms, ci, spec, what)
        else:
            _accumulate(out, ta, tb, ci, spec, what)
    # otherwise a copy, so the slots of cancelled keys are not kept alive
    return _poly(ring, out if seeded else dict(out), d, w)


def _power_text(name: str, e: int, d: int, q: int) -> str:
    """name raised to e / q^d, written in lowest terms."""
    while d and e % q == 0:
        e //= q
        d -= 1
    if d:
        return f"{name}^{e}/{q ** d}"
    return name if e == 1 else f"{name}^{e}"


def poly_to_text(p: Poly) -> str:
    """Canonical text: terms in descending graded-lex order joined by " + "."""
    if not p.terms:
        return "0"
    ring = p.ring
    q = ring.spec.q
    d = p.shift
    n, w = ring.nvars, p.width
    names = ring.names
    elems = ring.spec.elements
    parts = []
    try:
        for m in sorted(p.terms, reverse=True):
            c = elems[p.terms[m]]
            vec = _unpack(m, n, w)
            if d:
                factors = [_power_text(name, e, d, q) for name, e in zip(names, vec) if e]
            else:
                factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, vec) if e]
            if not factors:
                parts.append(str(c))
            elif c.is_one():
                parts.append("*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
    except ValueError:
        # an int too long for str(); nothing else here raises ValueError
        bits = max(max(_unpack(m, n, w)) for m in p.terms).bit_length()
        raise ExponentTooLong(
            f"cannot print an exponent of about {int(bits * 0.30103) + 1} decimal "
            f"digits, over the interpreter's limit of {sys.get_int_max_str_digits()}"
        ) from None
    return " + ".join(parts)


_COEFF_VEC_RE = re.compile(r"^\[\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\]$")
_VAR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^([0-9]+)(?:/([0-9]+))?)?$")


def _parse_poly(ring: PolyRing, text: str) -> Poly:
    spec = ring.spec
    q = spec.q
    stripped = text.strip()
    if not stripped:
        raise PolyParseError("empty polynomial text")
    # Terms as (coeff, [(var, num, dpow), ...]); vectors are built once the
    # largest denominator q^top is known, and keys once the largest degree is.
    parsed = []
    top = 0
    for raw_term in stripped.split("+"):
        term = raw_term.strip()
        if not term:
            raise PolyParseError(f"empty term in {text!r}")
        coeff = spec.one
        powers = []
        for raw_factor in term.split("*"):
            factor = raw_factor.strip()
            if not factor:
                raise PolyParseError(f"empty factor in term {term!r}")
            if factor.isdigit():
                coeff = coeff * spec.element(int(factor))
                continue
            mvec = _COEFF_VEC_RE.match(factor)
            if mvec:
                cs = [int(c) for c in mvec.group(1).split(",")]
                if len(cs) != spec.e:
                    raise PolyParseError(
                        f"coefficient {factor} has {len(cs)} coordinates, field needs {spec.e}"
                    )
                coeff = coeff * spec.element(cs)
                continue
            mv = _VAR_RE.match(factor)
            if not mv:
                raise PolyParseError(f"cannot parse factor {factor!r}")
            name = mv.group(1)
            var = ring._name_index.get(name)
            if var is None:
                raise PolyParseError(
                    f"unknown variable {name!r}; ring variables are {', '.join(ring.names)}"
                )
            num = int(mv.group(2)) if mv.group(2) else 1
            dpow = 0
            if mv.group(3):
                den = int(mv.group(3))
                if den < 1:
                    raise PolyParseError(f"bad exponent denominator in {factor!r}")
                while den > 1:
                    if den % q:
                        raise PolyParseError(
                            f"exponent denominator in {factor!r} is not a power of q={q}"
                        )
                    den //= q
                    dpow += 1
            powers.append((var, num, dpow))
            top = max(top, dpow)
        parsed.append((coeff, powers))
    vecs = []
    for coeff, powers in parsed:
        vec = [0] * ring.nvars
        for var, num, dpow in powers:
            vec[var] += num * q ** (top - dpow)
        vecs.append((vec, coeff))
    return ring.from_terms(vecs, top)


def exact_div(a: Poly, b: Poly) -> Poly:
    """Quotient a / b; raises NotDivisible, or TermLimitExceeded when the
    quotient would pass the term limit.

    Divisor-heap division after Monagan and Pearce ("Sparse polynomial
    division using a heap", J. Symb. Comput. 46, 2011): the remainder is
    never formed. Write b = b_0 + b_1 + ... + b_k in descending order. Each
    b_j with j >= 1 has one pending product q_i * b_j at a time, with the
    oldest quotient term q_i it has not yet met; once it meets the newest,
    it waits, and the next quotient term starts its products again. The
    remainder's next term is the largest of the next term of a, b_1's
    pending product and the top of a heap of the other pending products,
    so the heap holds at most k - 1 entries. b_1's product is held in local
    variables and never enters the heap: its q_i is never newer than a new
    quotient term q_new, so q_i * b_1 > q_new * b_j for j >= 2 and no new
    product overtakes it. A two-term divisor never touches the heap. The quotient terms form a linked list,
    oldest first, that the pending products point into, so a quotient term
    that every b_j has passed is freed at once. Products with equal keys
    are summed as they are taken, and a sum that cancels leaves nothing
    behind.
    """
    if a.ring is not b.ring:
        raise RingMismatch("exact_div operands in different rings")
    if not b.terms:
        raise NotDivisible("division by the zero polynomial")
    ring = a.ring
    if not a.terms:
        return ring.zero
    d = max(a.shift, b.shift)
    w = _width(max(_top(a, d), _top(b, d)))
    ta, tb = _aligned(a, d, w), _aligned(b, d, w)
    guard = _guards(ring.nvars, w)
    spec = ring.spec
    add_t = spec.add_table
    mul_t = spec.mul_table
    limit = _term_limit
    a_keys = sorted(ta, reverse=True)
    a_keys.append(-1)  # below every key
    b_keys = sorted(tb, reverse=True)
    b_lead = b_keys[0]
    b_inv = spec.inv_table[tb[b_lead]]
    neg = spec.neg_table
    # b_1 and the heap's divisor terms b_2.., with negated coefficient indices
    has_b1 = len(b_keys) > 1
    k1, c1 = (b_keys[1], neg[tb[b_keys[1]]]) if has_b1 else (0, 0)
    bk = b_keys[2:]
    bc = [neg[tb[k]] for k in bk]
    out: dict = {}
    # A quotient term is a node [key, its row of mul_t, next node or None].
    heap: list = []  # (-key, j, node): the product of node's term and bk[j]
    waiting = list(range(len(bk)))  # the bk[j] whose next product is with the next quotient term
    hk, hn = -1, None  # b_1's pending product: its key (-1 when none) and node
    tail = [0, 0, None]  # the newest node
    ai = 0
    ak = a_keys[0]  # the dividend's next key
    while True:
        m = ak if ak > hk else hk
        if heap and -heap[0][0] > m:
            m = -heap[0][0]
        if m < 0:
            break
        if ak == m:
            c = ta[m]
            ai += 1
            ak = a_keys[ai]
        else:
            c = 0
        if hk == m:
            c = add_t[c][hn[1][c1]]
            hn = hn[2]
            hk = -1 if hn is None else hn[0] + k1
        while heap and heap[0][0] == -m:
            _, j, node = heap[0]
            c = add_t[c][node[1][bc[j]]]
            node = node[2]
            if node is None:
                heappop(heap)
                waiting.append(j)
            else:
                heapreplace(heap, (-(node[0] + bk[j]), j, node))
        if not c:
            continue
        qk = m - b_lead
        if qk & guard:
            # some field borrowed: the divisor's leading term does not divide
            raise NotDivisible(
                "leading term "
                + poly_to_text(_poly(ring, {m: c}, d, w))
                + " is not divisible by the divisor's leading term"
            )
        if len(out) == limit:
            raise _over_limit("quotient", limit + 1)
        qc = out[qk] = mul_t[c][b_inv]
        tail[2] = tail = [qk, mul_t[qc], None]  # link the new node, then move the tail to it
        if hn is None and has_b1:
            hk, hn = qk + k1, tail
        if waiting:
            for j in waiting:
                heappush(heap, (-(qk + bk[j]), j, tail))
            waiting.clear()
    return _poly(ring, out, d, w, next(iter(out)))


def _variable_images(images) -> list[int] | None:
    """Indices of the target variables when every image is a bare variable.

    No library code calls it; bench/layertrace.py counts relabelling
    substitutions with it.
    """
    out = []
    for im in images:
        if len(im.terms) != 1 or im.shift:
            return None
        (k, c), = im.terms.items()
        v = _unpack(k, im.ring.nvars, im.width)
        if sum(v) != 1 or c != 1:
            return None
        out.append(v.index(1))
    return out


def evaluate_morphism(
    p: Poly, images: list[Poly], target_ring: PolyRing | None = None
) -> Poly:
    """Substitute images for the variables of p's ring.

    p must have integer exponents; the images must all live in one ring
    over the same field, which becomes the target (it may be p's own ring).
    target_ring is only needed for zero-variable sources. A result over the
    term limit raises TermLimitExceeded.

    One-term images map keys (_monomial_substitution); bare-variable images
    in order return p's own terms. Other images go by a q-adic Horner
    scheme (_horner_substitution).
    """
    ring = p.ring
    if len(images) != ring.nvars:
        raise RingMismatch(
            f"need {ring.nvars} images for {ring.nvars} variables, got {len(images)}"
        )
    if images:
        tring = images[0].ring
        for im in images[1:]:
            if im.ring is not tring:
                raise RingMismatch("images live in different rings")
        if target_ring is not None and target_ring is not tring:
            raise RingMismatch("explicit target ring disagrees with the images")
    else:
        if target_ring is None:
            raise RingMismatch("zero-variable substitution needs an explicit target ring")
        tring = target_ring
    if tring.spec is not ring.spec:
        raise RingMismatch("substitution cannot change the coefficient field")
    if p.shift:
        raise FractionalExponent("substitution requires integer exponents")
    if not p.terms:
        return tring.zero
    if all(len(im.terms) == 1 for im in images):
        return _monomial_substitution(p, images, tring)
    return _horner_substitution(p, images, tring)


def _monomial_substitution(p: Poly, images: list[Poly], tring: PolyRing) -> Poly:
    """p(images) for images c_i x^(u_i) of one term each: the term c x^v
    goes to c prod c_i^(v_i) x^(sum v_i u_i), so each key maps to
    sum v_i key(u_i) and no product is formed. Since c_i^(q - 1) = 1 in
    F_q, the powers c_i^(v_i) are read off at v_i mod (q - 1). When the
    images are the target's variables in order, p's own terms are returned.
    """
    if len(p.terms) > _term_limit:
        raise _over_limit("substitution", len(p.terms))
    if tuple(images) == tring.gens():
        return Poly(tring, p.terms, 0, p.width, p._lead)
    spec = tring.spec
    q, n, nt, w = spec.q, p.ring.nvars, tring.nvars, p.width
    d = max((im.shift for im in images), default=0)
    monos = [next(iter(im.terms.items())) for im in images]
    # every exponent field of the result is at most deg p times the largest
    # image degree, so this width holds it; _poly fits the width afterwards
    wt = _width((p._leading() >> (n * w)) * max(
        ((k >> (nt * im.width)) * q ** (d - im.shift) for im, (k, _) in zip(images, monos)),
        default=0,
    ))
    # the field of variable i moves to the key of image i, written over q^d
    # at width wt
    moves = []
    for i, (im, (k, _)) in enumerate(zip(images, monos)):
        if im.width != wt or im.shift != d:
            k = _pack([e * q ** (d - im.shift) for e in _unpack(k, nt, im.width)], wt)
        moves.append(((n - 1 - i) * w, k))
    # for each image with c_i != 1: its field's shift, and c_i^e for e < q - 1
    scales = [((n - 1 - i) * w, [(spec.elements[c] ** e).idx for e in range(q - 1)])
              for i, (_, c) in enumerate(monos) if c != 1]
    mask = (1 << w) - 1
    mul_t, add_t = spec.mul_table, spec.add_table
    acc: dict = {}
    get = acc.get
    for m, ci in p.terms.items():
        mm = 0
        for s, key in moves:
            mm += ((m >> s) & mask) * key
        for s, row in scales:
            ci = mul_t[ci][row[((m >> s) & mask) % (q - 1)]]
        prev = get(mm)
        if prev is None:
            acc[mm] = ci
        else:
            t = add_t[prev][ci]
            if t:
                acc[mm] = t
            else:
                del acc[mm]
    # a copy, so the slots of cancelled keys are not kept alive
    return _poly(tring, dict(acc), d, wt)


def _horner_substitution(p: Poly, images: list[Poly], tring: PolyRing) -> Poly:
    """p(images), p nonzero, by a q-adic Horner scheme: write each
    exponent vector as D + q * e with D its lowest base-q digits, and p_D
    for the sum of the terms with digits D, written with exponents e. Then

        p(images) = sum over D of images^D * phi(p_D(images)),

    where phi raises every exponent by the factor q, since over F_q
    phi(f) = f^q for every f (Lidl and Niederreiter, Finite Fields, ch. 2).
    Applied level by level, in a loop over the digits, this multiplies out
    only the digit monomials images^D, whose entries are below q, once per
    call; each node adds its terms in one sum of products, and phi only
    rescales keys.
    """
    spec = tring.spec
    n, w = p.ring.nvars, p.width
    # One pass per base-q digit, highest first. After the pass for digit k,
    # values maps each residue r = v mod q^k of the exponent vectors v to
    # p_r(images), where p_r holds the terms with v = r (mod q^k), written
    # with exponents (v - r) / q^k. A value is a coefficient, or (P, j) for
    # phi^j(P), so a run of zero digits costs one rescale at its end.
    q = spec.q
    values = {_unpack(m, n, w): c for m, c in p.terms.items()}
    top, digits = max(map(max, values)), 0
    while top:
        top //= q
        digits += 1
    powers = [[tring.one, im] for im in images]
    monos: dict = {}
    for k in reversed(range(digits)):
        f = q**k
        nodes: dict = {}
        for r, v in values.items():
            nodes.setdefault(tuple(e % f for e in r), []).append((tuple(e // f for e in r), v))
        values = {}
        for r, kids in nodes.items():
            if len(kids) == 1 and not any(kids[0][0]):
                v = kids[0][1]
                values[r] = v if isinstance(v, int) else (v[0], v[1] + 1)
                continue
            live = []
            for D, v in kids:
                a = monos.get(D)
                if a is None:
                    # images^D, multiplied out once per call
                    a = tring.one
                    for row, e in zip(powers, D):
                        while len(row) <= e:
                            row.append(row[-1] * row[1])
                        if e:
                            a = row[e] if a is tring.one else a * row[e]
                    monos[D] = a
                if isinstance(v, int):
                    ci, b = v, tring.one
                else:
                    ci, b = 1, v[0].frobenius(v[1] + 1)
                if a.terms and b.terms:
                    live.append((ci, a, b))
            values[r] = (_fused(tring, live, "substitution"), 0)
    v, = values.values()
    if isinstance(v, int):
        return Poly(tring, {0: v})
    return v[0].frobenius(v[1])


class UniPoly:
    """Polynomial in one extra variable t with Poly coefficients.

    Exponents of t are plain nonnegative integers; coefficients are nonzero
    polynomials of one shared ring. Used for additive annihilators of
    subspaces, where every exponent is a power of q.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PolyRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.ring is not self.ring:
            raise RingMismatch("univariate operands in different rings")
        by_exp: dict = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                by_exp.setdefault(ea + eb, []).append((1, ca, cb))
        out = {}
        for e, triples in by_exp.items():
            s = sum_of_products(self.ring, triples)
            if s.terms:
                out[e] = s
        return UniPoly(self.ring, out)

    def apply(self, v: Poly) -> Poly:
        """Evaluate at a polynomial argument."""
        if v.ring is not self.ring:
            raise RingMismatch("argument in a different ring")
        return sum_of_products(self.ring, [(1, c, v**e) for e, c in self.coeffs.items()])

    __call__ = apply

    def coefficient(self, e: int) -> Poly:
        return self.coeffs.get(e, self.ring.zero)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return other.ring is self.ring and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                ctext = str(c)
                parts.append(f"({ctext})" if " + " in ctext else ctext)
                continue
            tpart = "t" if e == 1 else f"t^{e}"
            if c.is_one():
                parts.append(tpart)
            else:
                parts.append(f"({c})*{tpart}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self!s})"
