"""Sparse multivariate polynomials over F_q with exponents in N[1/q].

Exponents have the form num / q^dpow. Fractional exponents arise from the
inverse Frobenius twist (exponents divided by q) and are first-class
citizens: arithmetic, ordering, printing and parsing all handle them
exactly. Substitution is the one operation that insists on integer
exponents.

A PolyRing fixes the coefficient field, the variable names, and a kind tag.
Rings of kind "universal" hold the generic coordinates that quotient
polynomials are computed in before substitution; rings of kind "ambient"
hold actual working variables. Mixing rings in arithmetic is an error, and
evaluate_morphism (substitution) is the only bridge between them.

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
product into one accumulator, the loop that a single product runs too,
so no product or partial sum of it is built as a Poly. Outside this
module monomials are (vector, shift) pairs, passed from leading_monomial()
to coeff_of() and PolyRing.key(); coeff_at_leading() looks one polynomial's
leading monomial up in another and keeps it a key when it can.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from heapq import heappop, heappush
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


class PolyRing:
    """Polynomial ring: a field spec, ordered variable names, and a kind tag."""

    __slots__ = ("spec", "names", "kind", "nvars", "zero", "one", "_gens", "_name_index",
                 "_hash")

    def __init__(self, spec: FieldSpec, names: Iterable[str], kind: str = "ambient"):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RingMismatch("ring variable names must be distinct")
        for nm in names:
            if not _NAME_RE.match(nm):
                raise RingMismatch(f"bad variable name {nm!r}")
        if kind not in ("ambient", "universal"):
            raise RingMismatch(f"unknown ring kind {kind!r}")
        self.spec = spec
        self.names = names
        self.kind = kind
        self._hash = hash((spec, names, kind))
        self._name_index = {nm: i for i, nm in enumerate(names)}
        n = self.nvars = len(names)
        self.zero = Poly(self, {})
        # the unit monomial has key 0 at every width
        self.one = Poly(self, {0: spec.one})
        self._gens = tuple(
            Poly(self, {_pack([int(i == j) for j in range(n)], WORD): spec.one})
            for i in range(n)
        )

    def gens(self) -> tuple["Poly", ...]:
        return self._gens

    def gen(self, i: int) -> "Poly":
        return self._gens[i]

    def from_coeff(self, c: FieldElement | int) -> "Poly":
        if isinstance(c, int):
            c = self.spec.element(c)
        elif c.spec != self.spec:
            raise RingMismatch("coefficient from a different field")
        if c.idx == 0:
            return self.zero
        return Poly(self, {0: c})

    def from_terms(self, terms: Iterable, shift: int = 0) -> "Poly":
        """The sum of c * x^(v / q^shift) over (v, c) pairs, v an exponent
        vector of nonnegative ints, one per variable, and c a field element;
        repeated vectors add up."""
        spec = self.spec
        live = []
        for v, c in terms:
            if len(v) != self.nvars:
                raise RingMismatch(f"exponent vector {tuple(v)} for {self.nvars} variables")
            if c.spec != spec:
                raise RingMismatch("coefficient from a different field")
            if c.idx:
                live.append((v, c))
        w = _width(max((sum(v) for v, _ in live), default=0))
        out: dict = {}
        for v, c in live:
            _merge_term(out, _pack(v, w), c)
        return _poly(self, out, shift, w)

    def key(self, m: tuple[tuple, int]):
        """Exact graded-lex key of a monomial (vector, shift); keys of
        monomials from different polynomials compare correctly."""
        v, d = m
        if not d:
            return (sum(v), tuple(v))
        den = self.spec.q**d
        return (Fraction(sum(v), den), tuple(Fraction(e, den) for e in v))

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, PolyRing)
            and other.spec == self.spec
            and other.names == self.names
            and other.kind == self.kind
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PolyRing({self.spec.to_text()}, {self.names}, {self.kind})"

    def parse(self, text: str) -> "Poly":
        return _parse_poly(self, text)


_AMBIENT_CACHE: dict[tuple[FieldSpec, int], PolyRing] = {}
_UNIVERSAL_CACHE: dict[tuple[FieldSpec, int], PolyRing] = {}


def ambient_ring(spec: FieldSpec, n: int) -> PolyRing:
    """Working ring with n variables named x, y, z, w, v, u, s, r."""
    if n > len(AMBIENT_NAMES):
        raise RingMismatch(f"ambient rings support at most {len(AMBIENT_NAMES)} variables")
    ring = _AMBIENT_CACHE.get((spec, n))
    if ring is None:
        ring = PolyRing(spec, AMBIENT_NAMES[:n], "ambient")
        _AMBIENT_CACHE[(spec, n)] = ring
    return ring


def universal_ring(spec: FieldSpec, n: int) -> PolyRing:
    """Generic-coordinate ring with n variables named x1..xn."""
    ring = _UNIVERSAL_CACHE.get((spec, n))
    if ring is None:
        ring = PolyRing(spec, tuple(f"x{i}" for i in range(1, n + 1)), "universal")
        _UNIVERSAL_CACHE[(spec, n)] = ring
    return ring


def _merge_term(out: dict, m: int, c: FieldElement) -> None:
    prev = out.get(m)
    if prev is None:
        out[m] = c
        return
    s = prev + c
    if s.idx == 0:
        del out[m]
    else:
        out[m] = s


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


def _accumulate(out: dict, ta: dict, tb: dict, ci: int, spec: FieldSpec, what: str) -> None:
    """Add c * a * b into out, a dict from keys to nonzero coefficient
    indices: ta and tb are the terms of a and b, aligned to one shift and
    one width, and ci is the index of c. A sum that cancels leaves no key
    behind. Raises TermLimitExceeded once out holds more terms than the
    limit after some term of a."""
    limit = _term_limit
    mul_t = spec.mul_table
    add_t = spec.add_table
    crow = mul_t[ci]
    get = out.get
    tb_items = [(mb, cb.idx) for mb, cb in tb.items()]
    for ma, ca in ta.items():
        mrow = mul_t[crow[ca.idx]]
        for mb, cbi in tb_items:
            m = ma + mb
            t = mrow[cbi]  # nonzero: a field has no zero divisors
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
    vectors packed at field width `width`) to nonzero coefficients; the true
    exponents are the vectors divided by q^shift."""

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
            if other.ring is not self.ring and other.ring != self.ring:
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
        c = self.terms.get(0)
        return len(self.terms) == 1 and c is not None and c.idx == 1

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
        spec = self.ring.spec
        add_t = spec.add_table
        elems = spec.elements
        d = max(self.shift, other.shift)
        if self.shift == other.shift:
            w = self.width if self.width >= other.width else other.width
        else:
            w = _width(max(_top(self, d), _top(other, d)))
        out = dict(_aligned(self, d, w))
        get = out.get
        for m, c in _aligned(other, d, w).items():
            prev = get(m)
            if prev is None:
                out[m] = c
            else:
                s = add_t[prev.idx][c.idx]
                if s:
                    out[m] = elems[s]
                else:
                    del out[m]
        return _poly(self.ring, out, d, w)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        if self.ring.spec.p == 2 or not self.terms:
            return self
        return Poly(self.ring, {m: -c for m, c in self.terms.items()}, self.shift,
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
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatch(
                f"operands in different rings: {self.ring!r} vs {other.ring!r}"
            )
        if not self.terms or not other.terms:
            return self.ring.zero
        d = max(self.shift, other.shift)
        # the leading terms multiply to the leading term, so the product's
        # degree, and with it its width, is known before it is formed
        w = _width(_top(self, d) + _top(other, d))
        ta, tb = _aligned(self, d, w), _aligned(other, d, w)
        spec = self.ring.spec
        elems = spec.elements
        out: dict = {}
        _accumulate(out, ta, tb, 1, spec, "product")
        # _top cached both leading keys; they add up when neither was re-keyed
        lead = None
        if ta is self.terms and tb is other.terms:
            lead = self._lead + other._lead
        return _poly(self.ring, dict(zip(out, map(elems.__getitem__, out.values()))), d, w,
                     lead)

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: FieldElement | int) -> "Poly":
        if isinstance(c, int):
            c = self.ring.spec.element(c)
        elif c.spec != self.ring.spec:
            raise RingMismatch("scalar from a different field")
        if c.idx == 0:
            return self.ring.zero
        if c.idx == 1:
            return self
        spec = self.ring.spec
        crow = spec.mul_table[c.idx]
        elems = spec.elements
        return Poly(
            self.ring, {m: elems[crow[cc.idx]] for m, cc in self.terms.items()},
            self.shift, self.width, self._lead,
        )

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
            return _poly(self.ring, {k * m: c**m}, self.shift, w, k * m)
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
        return self.terms[self._leading()]

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
        return self.terms.get(k, zero)

    def coeff_at_leading(self, other: "Poly") -> FieldElement:
        """Coefficient in self of the leading monomial of a nonzero other:
        self.coeff_of(other.leading_monomial()), looked up by key when both
        are written over one shift at one width."""
        if other.shift == self.shift and other.width == self.width:
            return self.terms.get(other._leading(), self.ring.spec.zero)
        return self.coeff_of(other.leading_monomial())

    def sort_key(self):
        """Deterministic total order key among polynomials of one ring."""
        key = self.ring.key
        n, w, d = self.ring.nvars, self.width, self.shift
        return tuple(
            (key((_unpack(m, n, w), d)), self.terms[m].idx)
            for m in sorted(self.terms, reverse=True)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            (other.ring is self.ring or other.ring == self.ring)
            and other.shift == self.shift
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((
                self.ring,
                self.shift,
                frozenset((m, c.idx) for m, c in self.terms.items()),
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
            if p.ring is not ring and p.ring != ring:
                raise RingMismatch(f"operand in a different ring: {p.ring!r} vs {ring!r}")
        if isinstance(c, int):
            c = spec.element(c)
        elif c.spec != spec:
            raise RingMismatch("scalar from a different field")
        if c.idx and a.terms and b.terms:
            live.append((c.idx, a, b))
    if not live:
        return ring.zero
    d = max(max(a.shift, b.shift) for _, a, b in live)
    w = _width(max(_top(a, d) + _top(b, d) for _, a, b in live))
    out: dict = {}
    for ci, a, b in live:
        _accumulate(out, _aligned(a, d, w), _aligned(b, d, w), ci, spec, "sum of products")
    elems = spec.elements
    return _poly(ring, dict(zip(out, map(elems.__getitem__, out.values()))), d, w)


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
    parts = []
    try:
        for m in sorted(p.terms, reverse=True):
            c = p.terms[m]
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

    Heap division after Monagan and Pearce ("Sparse polynomial division
    using a heap", J. Symb. Comput. 46, 2011): the remainder is never
    formed. Its next term is the larger of the next term of a and the top of
    a heap of pending products q_i * b_j, which holds at most one product
    per quotient term. Products with equal keys are not merged in the heap;
    they are popped together and summed, and a sum that cancels leaves
    nothing behind.
    """
    if a.ring != b.ring:
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
    elems = spec.elements
    limit = _term_limit
    a_keys = sorted(ta, reverse=True)
    na = len(a_keys)
    b_keys = sorted(tb, reverse=True)
    b_lead = b_keys[0]
    b_inv = spec.inv_table[tb[b_lead].idx]
    neg = spec.neg_table
    # the divisor's other terms, with negated coefficient indices
    b_rest = [(k, neg[tb[k].idx]) for k in b_keys[1:]]
    nb = len(b_rest)
    q_keys: list[int] = []
    q_coeffs: list[int] = []
    q_next: list[int] = []  # index into b_rest of each quotient term's pending product
    heap: list[tuple[int, int]] = []  # (-key, quotient index)
    ai = 0
    while ai < na or heap:
        m = a_keys[ai] if ai < na else -1
        if heap and -heap[0][0] >= m:
            m = -heap[0][0]
        c = 0
        if ai < na and a_keys[ai] == m:
            c = ta[m].idx
            ai += 1
        while heap and heap[0][0] == -m:
            i = heappop(heap)[1]
            j = q_next[i]
            c = add_t[c][mul_t[q_coeffs[i]][b_rest[j][1]]]
            j += 1
            if j < nb:
                q_next[i] = j
                heappush(heap, (-(q_keys[i] + b_rest[j][0]), i))
        if not c:
            continue
        r = m - b_lead
        if r & guard:
            # some field borrowed: the divisor's leading term does not divide
            raise NotDivisible(
                "leading term "
                + poly_to_text(_poly(ring, {m: elems[c]}, d, w))
                + " is not divisible by the divisor's leading term"
            )
        i = len(q_keys)
        if i == limit:
            raise _over_limit("quotient", i + 1)
        q_keys.append(r)
        q_coeffs.append(mul_t[c][b_inv])
        q_next.append(0)
        if nb:
            heappush(heap, (-(r + b_rest[0][0]), i))
    return _poly(ring, dict(zip(q_keys, map(elems.__getitem__, q_coeffs))), d, w, q_keys[0])


def _variable_images(images) -> list[int] | None:
    """Indices of the target variables when every image is a bare variable."""
    out = []
    for im in images:
        if len(im.terms) != 1 or im.shift:
            return None
        (k, c), = im.terms.items()
        v = _unpack(k, im.ring.nvars, im.width)
        if sum(v) != 1 or not c.is_one():
            return None
        out.append(v.index(1))
    return out


def evaluate_morphism(
    p: Poly, images: list[Poly], target_ring: PolyRing | None = None
) -> Poly:
    """Substitute images for the variables of a universal-ring polynomial.

    The source must be a universal ring and p must have integer exponents;
    the images must all live in one ring over the same field, which becomes
    the target. target_ring is only needed for zero-variable sources. A
    result over the term limit raises TermLimitExceeded.
    """
    ring = p.ring
    if ring.kind != "universal":
        raise RingMismatch("substitution source must be a universal ring")
    if len(images) != ring.nvars:
        raise RingMismatch(
            f"need {ring.nvars} images for {ring.nvars} variables, got {len(images)}"
        )
    if images:
        tring = images[0].ring
        for im in images[1:]:
            if im.ring != tring:
                raise RingMismatch("images live in different rings")
        if target_ring is not None and target_ring != tring:
            raise RingMismatch("explicit target ring disagrees with the images")
    else:
        if target_ring is None:
            raise RingMismatch("zero-variable substitution needs an explicit target ring")
        tring = target_ring
    if tring.spec != ring.spec:
        raise RingMismatch("substitution cannot change the coefficient field")
    if p.shift:
        raise FractionalExponent("substitution requires integer exponents")
    spec = tring.spec
    add_t = spec.add_table
    mul_t = spec.mul_table
    elems = spec.elements
    limit = _term_limit
    n, nt, w = ring.nvars, tring.nvars, p.width
    varmap = _variable_images(images)
    if varmap is not None:
        # Plain variable images: substitution is a relabeling, no products,
        # and the total degree, hence the width, is unchanged.
        if len(p.terms) > limit:
            raise _over_limit("substitution", len(p.terms))
        if varmap == list(range(nt)):
            return Poly(tring, p.terms, 0, w, p._lead)
        mask = (1 << w) - 1
        moves = [((n - 1 - i) * w, (nt - 1 - t) * w) for i, t in enumerate(varmap)]
        acc: dict = {}
        get = acc.get
        for m, c in p.terms.items():
            mm = (m >> (n * w)) << (nt * w)
            for s, t in moves:
                mm += ((m >> s) & mask) << t
            prev = get(mm)
            if prev is None:
                acc[mm] = c.idx
            else:
                s = add_t[prev][c.idx]
                if s:
                    acc[mm] = s
                else:
                    del acc[mm]
        return _poly(tring, {m: elems[i] for m, i in acc.items()}, 0, w)
    # Images may carry fractional exponents; every piece is written over the
    # largest image shift, at the width of the largest piece degree.
    d = max((im.shift for im in images), default=0)
    source = [(_unpack(m, n, w), c) for m, c in p.terms.items()]
    image_degrees = [_top(im, d) if im.terms else 0 for im in images]
    tw = _width(max(
        (sum(e * g for e, g in zip(v, image_degrees)) for v, _ in source), default=0
    ))
    acc = {}
    get = acc.get
    pow_cache: dict[tuple[int, int], Poly] = {}
    for m, c in source:
        piece = tring.one
        for var, e in enumerate(m):
            if not e:
                continue
            pw = pow_cache.get((var, e))
            if pw is None:
                pw = images[var] ** e
                pow_cache[(var, e)] = pw
            piece = pw if piece is tring.one else piece * pw
        crow = mul_t[c.idx]
        for mm, cc in _aligned(piece, d, tw).items():
            v = crow[cc.idx]
            prev = get(mm)
            if prev is None:
                acc[mm] = v
            else:
                s = add_t[prev][v]
                if s:
                    acc[mm] = s
                else:
                    del acc[mm]
        if len(acc) > limit:
            raise _over_limit("substitution", len(acc))
    return _poly(tring, {m: elems[i] for m, i in acc.items()}, d, tw)


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
        if other.ring != self.ring:
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
        if v.ring != self.ring:
            raise RingMismatch("argument in a different ring")
        return sum_of_products(self.ring, [(1, c, v**e) for e, c in self.coeffs.items()])

    __call__ = apply

    def coefficient(self, e: int) -> Poly:
        return self.coeffs.get(e, self.ring.zero)

    def is_q_poly(self) -> bool:
        """True iff every t-exponent is a power of q (1, q, q^2, ...)."""
        q = self.ring.spec.q
        for e in self.coeffs:
            if e < 1:
                return False
            while e % q == 0:
                e //= q
            if e != 1:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return other.ring == self.ring and other.coeffs == self.coeffs

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
