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

Internal monomial shape: a tuple of nonnegative ints, one per ring
variable; the unit monomial is all zeros. A Poly holds one integer shift
d >= 0 for all its terms, so the true exponents are vector / q^d. The shift
is kept minimal (zero, or some exponent is not divisible by q), which makes
the representation unique: equality, hashing and printing compare it
directly. Frobenius twists move the shift and scale the vectors only when
the shift runs out; sums and products align two shifts only when they
differ. Outside this module monomials are (vector, shift) pairs, passed
from leading_monomial() to coeff_of() and PolyRing.key().
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, sub
from typing import Iterable

from .errors import (
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
    """Set the global guard on term counts produced by multiplication."""
    global _term_limit
    if limit < 1:
        raise ValueError("term limit must be positive")
    _term_limit = limit


def get_term_limit() -> int:
    return _term_limit


Monomial = tuple  # exponent vector, one int per ring variable


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when some exponent of b exceeds the one in a."""
    d = tuple(map(sub, a, b))
    return None if min(d, default=0) < 0 else d


def mono_key(m: Monomial):
    """Graded-lex sort key among the vectors of one polynomial."""
    return (sum(m), m)


def _scaled(terms: dict, f: int) -> dict:
    """terms with every exponent vector multiplied by f."""
    return {tuple([e * f for e in m]): c for m, c in terms.items()}


AMBIENT_NAMES = ("x", "y", "z", "w", "v", "u", "s", "r")

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


class PolyRing:
    """Polynomial ring: a field spec, ordered variable names, and a kind tag."""

    __slots__ = ("spec", "names", "kind", "zero", "one", "_unit", "_gens", "_name_index", "_hash")

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
        n = len(names)
        self._unit = (0,) * n
        self.zero = Poly(self, {})
        self.one = Poly(self, {self._unit: spec.one})
        self._gens = tuple(
            Poly(self, {tuple(int(i == j) for j in range(n)): spec.one}) for i in range(n)
        )

    @property
    def nvars(self) -> int:
        return len(self.names)

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
        return Poly(self, {self._unit: c})

    def key(self, m: tuple[Monomial, int]):
        """Exact graded-lex key of a monomial (vector, shift); keys of
        monomials from different polynomials compare correctly."""
        v, d = m
        if not d:
            return mono_key(v)
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


def _merge_term(out: dict, m: Monomial, c: FieldElement) -> None:
    prev = out.get(m)
    if prev is None:
        out[m] = c
        return
    s = prev + c
    if s.idx == 0:
        del out[m]
    else:
        out[m] = s


def _poly(ring: PolyRing, terms: dict, d: int) -> "Poly":
    """The polynomial with true exponents vector / q^d, its shift made minimal."""
    q = ring.spec.q
    f = 1
    while d and not any(e % (f * q) for m in terms for e in m):
        f *= q
        d -= 1
    if f > 1:
        terms = {tuple([e // f for e in m]): c for m, c in terms.items()}
    return Poly(ring, terms, d)


def _aligned(p: "Poly", d: int) -> dict:
    """The terms of p with exponent vectors written over q^d, d >= p.shift."""
    if p.shift == d:
        return p.terms
    return _scaled(p.terms, p.ring.spec.q ** (d - p.shift))


class Poly:
    """Immutable sparse polynomial: terms maps exponent vectors to nonzero
    coefficients; the true exponents are the vectors divided by q^shift."""

    __slots__ = ("ring", "terms", "shift", "_hash")

    def __init__(self, ring: PolyRing, terms: dict, shift: int = 0):
        self.ring = ring
        self.terms = terms
        self.shift = shift
        self._hash = None

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.ring != self.ring:
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
        c = self.terms.get(self.ring._unit)
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
        out = dict(_aligned(self, d))
        get = out.get
        for m, c in _aligned(other, d).items():
            prev = get(m)
            if prev is None:
                out[m] = c
            else:
                s = add_t[prev.idx][c.idx]
                if s:
                    out[m] = elems[s]
                else:
                    del out[m]
        return _poly(self.ring, out, d)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        if self.ring.spec.p == 2 or not self.terms:
            return self
        return Poly(self.ring, {m: -c for m, c in self.terms.items()}, self.shift)

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
        if other.ring != self.ring:
            raise RingMismatch(
                f"operands in different rings: {self.ring!r} vs {other.ring!r}"
            )
        if not self.terms or not other.terms:
            return self.ring.zero
        d = max(self.shift, other.shift)
        ta, tb = _aligned(self, d), _aligned(other, d)
        limit = _term_limit
        spec = self.ring.spec
        mul_t = spec.mul_table
        add_t = spec.add_table
        elems = spec.elements
        # accumulate coefficient indices; nonzero products never hit index 0
        out: dict = {}
        get = out.get
        tb_items = [(mb, cb.idx) for mb, cb in tb.items()]
        for ma, ca in ta.items():
            mrow = mul_t[ca.idx]
            for mb, cbi in tb_items:
                m = tuple(map(add, ma, mb))  # mono_mul, inlined in the hot loop
                ci = mrow[cbi]
                prev = get(m)
                if prev is None:
                    out[m] = ci
                else:
                    s = add_t[prev][ci]
                    if s:
                        out[m] = s
                    else:
                        del out[m]
            if len(out) > limit:
                raise TermLimitExceeded(
                    f"product holds {len(out)} terms, over the limit {limit}"
                )
        return _poly(self.ring, {m: elems[i] for m, i in out.items()}, d)

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
            self.ring, {m: elems[crow[cc.idx]] for m, cc in self.terms.items()}, self.shift
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
            (v, c), = self.terms.items()
            return _poly(self.ring, {tuple([e * m for e in v]): c**m}, self.shift)
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
            return Poly(self.ring, _scaled(self.terms, self.ring.spec.q**-d))
        if k < 0 and not self.shift:
            # every exponent may be divisible by q, then d is not minimal
            return _poly(self.ring, self.terms, d)
        return Poly(self.ring, self.terms, d)

    def leading_monomial(self) -> tuple[Monomial, int]:
        """The leading monomial as (vector, shift), written over this
        polynomial's shift."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=mono_key), self.shift

    def leading_coeff(self) -> FieldElement:
        return self.terms[max(self.terms, key=mono_key)]

    def has_fractional_exponents(self) -> bool:
        return self.shift > 0

    def degrees(self) -> set[Fraction]:
        den = self.ring.spec.q**self.shift
        return {Fraction(sum(m), den) for m in self.terms}

    def total_degree(self) -> Fraction | None:
        degs = self.degrees()
        return max(degs) if degs else None

    def coeff_of(self, m: tuple[Monomial, int]) -> FieldElement:
        """Coefficient of the monomial (vector, shift), at whatever shift it
        is written."""
        v, d = m
        q = self.ring.spec.q
        zero = self.ring.spec.zero
        if d > self.shift:
            f = q ** (d - self.shift)
            if any(e % f for e in v):
                return zero
            v = tuple([e // f for e in v])
        elif d < self.shift:
            f = q ** (self.shift - d)
            v = tuple([e * f for e in v])
        return self.terms.get(v, zero)

    def evaluate_points(self, values: list[FieldElement]) -> FieldElement:
        """Evaluate at field elements (one per ring variable); integer exponents only."""
        spec = self.ring.spec
        if len(values) != self.ring.nvars:
            raise RingMismatch(
                f"expected {self.ring.nvars} values, got {len(values)}"
            )
        for v in values:
            if v.spec != spec:
                raise RingMismatch("evaluation point from a different field")
        if self.shift:
            raise FractionalExponent("point evaluation requires integer exponents")
        acc = spec.zero
        for m, c in self.terms.items():
            term = c
            for var, n in enumerate(m):
                if n:
                    term = term * values[var] ** n
            acc = acc + term
        return acc

    def sort_key(self):
        """Deterministic total order key among polynomials of one ring."""
        key = self.ring.key
        d = self.shift
        return tuple(
            (key((m, d)), self.terms[m].idx)
            for m in sorted(self.terms, key=mono_key, reverse=True)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            other.ring == self.ring
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
    names = ring.names
    parts = []
    for m in sorted(p.terms, key=mono_key, reverse=True):
        c = p.terms[m]
        factors = [_power_text(names[v], e, d, q) for v, e in enumerate(m) if e]
        if not factors:
            parts.append(str(c))
        elif c.is_one():
            parts.append("*".join(factors))
        else:
            parts.append(str(c) + "*" + "*".join(factors))
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
    # largest denominator q^top is known.
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
        if coeff.idx:
            parsed.append((coeff, powers))
    out: dict = {}
    for coeff, powers in parsed:
        vec = [0] * ring.nvars
        for var, num, dpow in powers:
            vec[var] += num * q ** (top - dpow)
        _merge_term(out, tuple(vec), coeff)
    return _poly(ring, out, top)


def exact_div(a: Poly, b: Poly) -> Poly:
    """Quotient a / b by repeated leading-term cancellation; raises NotDivisible."""
    if a.ring != b.ring:
        raise RingMismatch("exact_div operands in different rings")
    if not b.terms:
        raise NotDivisible("division by the zero polynomial")
    ring = a.ring
    if not a.terms:
        return ring.zero
    d = max(a.shift, b.shift)
    tb = _aligned(b, d)
    mb = max(tb, key=mono_key)
    cb_inv = tb[mb].inverse()
    b_items = list(tb.items())
    rem = dict(_aligned(a, d))
    out: dict = {}
    while rem:
        mr = max(rem, key=mono_key)
        mq = mono_div(mr, mb)
        if mq is None:
            raise NotDivisible(
                "leading term "
                + poly_to_text(_poly(ring, {mr: rem[mr]}, d))
                + " is not divisible by the divisor's leading term"
            )
        cq = rem[mr] * cb_inv
        out[mq] = cq
        ncq = -cq
        for m2, c2 in b_items:
            _merge_term(rem, mono_mul(mq, m2), ncq * c2)
    return _poly(ring, out, d)


def _variable_images(images) -> list[int] | None:
    """Indices of the target variables when every image is a bare variable."""
    out = []
    for im in images:
        if len(im.terms) != 1 or im.shift:
            return None
        m, c = next(iter(im.terms.items()))
        if sum(m) != 1 or not c.is_one():
            return None
        out.append(m.index(1))
    return out


def evaluate_morphism(
    p: Poly, images: list[Poly], target_ring: PolyRing | None = None
) -> Poly:
    """Substitute images for the variables of a universal-ring polynomial.

    The source must be a universal ring and p must have integer exponents;
    the images must all live in one ring over the same field, which becomes
    the target. target_ring is only needed for zero-variable sources.
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
    varmap = _variable_images(images)
    if varmap is not None:
        # Plain variable images: substitution is a relabeling, no products.
        acc: dict = {}
        get = acc.get
        for m, c in p.terms.items():
            vec = [0] * tring.nvars
            for w, n in zip(varmap, m):
                vec[w] += n
            mm = tuple(vec)
            prev = get(mm)
            if prev is None:
                acc[mm] = c.idx
            else:
                s = add_t[prev][c.idx]
                if s:
                    acc[mm] = s
                else:
                    del acc[mm]
        return Poly(tring, {m: elems[i] for m, i in acc.items()})
    # Images may carry fractional exponents; every piece is written over the
    # largest image shift.
    d = max((im.shift for im in images), default=0)
    acc = {}
    get = acc.get
    pow_cache: dict[tuple[int, int], Poly] = {}
    for m, c in p.terms.items():
        piece = tring.one
        for var, n in enumerate(m):
            if not n:
                continue
            pw = pow_cache.get((var, n))
            if pw is None:
                pw = images[var] ** n
                pow_cache[(var, n)] = pw
            piece = pw if piece is tring.one else piece * pw
        crow = mul_t[c.idx]
        for mm, cc in _aligned(piece, d).items():
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
    return _poly(tring, {m: elems[i] for m, i in acc.items()}, d)


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

    @classmethod
    def t(cls, ring: PolyRing) -> "UniPoly":
        return cls(ring, {1: ring.one})

    @classmethod
    def t_plus(cls, v: Poly) -> "UniPoly":
        coeffs = {1: v.ring.one}
        if v.terms:
            coeffs[0] = v
        return cls(v.ring, coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatch("univariate operands in different rings")
        out: dict = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = ea + eb
                prod = ca * cb
                prev = out.get(e)
                s = prod if prev is None else prev + prod
                if s.terms:
                    out[e] = s
                elif e in out:
                    del out[e]
        return UniPoly(self.ring, out)

    def apply(self, v: Poly) -> Poly:
        """Evaluate at a polynomial argument."""
        if v.ring != self.ring:
            raise RingMismatch("argument in a different ring")
        acc = self.ring.zero
        for e, c in self.coeffs.items():
            acc = acc + c * v**e
        return acc

    __call__ = apply

    def coefficient(self, e: int) -> Poly:
        return self.coeffs.get(e, self.ring.zero)

    def t_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero univariate polynomial")
        return max(self.coeffs)

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
