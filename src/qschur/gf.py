"""Exact arithmetic in small finite fields F_q with q = p^e.

A FieldSpec fixes the characteristic p, the extension degree e and (for
e > 1) an irreducible monic modulus, given low-to-high as e+1 coefficients.
Elements are vectors of e coefficients over F_p in the polynomial basis
1, t, ..., t^(e-1). Fields are interned: FieldSpec(p, e, modulus) returns
the one object for its field (an explicit modulus equal to the built-in
one included). All q elements are built once and interned too, so element
arithmetic is two table lookups. For both, equality is identity and the
hash is the value's. Polynomials store the indices of their coefficients,
not elements, and compute on the tables directly, which keeps the
polynomial layer fast and exact.

The element order is fixed: index(c) = c0 + c1*p + ... + c_(e-1)*p^(e-1),
which enumerates 0 first and 1 second and is lexicographic in the
coefficient vector read from the highest basis coefficient down.
"""

from __future__ import annotations

import re
import sys

from .errors import InvalidFieldSpec, PolyParseError

Q_CEILING = 64

# Irreducible moduli used when none is given, low-to-high coefficients.
BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (1, 1, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldElement:
    """One interned element of a FieldSpec; arithmetic via the spec tables."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec: "FieldSpec", idx: int):
        self.spec = spec
        self.idx = idx

    @property
    def coords(self) -> tuple[int, ...]:
        return self.spec.coord_table[self.idx]

    def is_zero(self) -> bool:
        return self.idx == 0

    def is_one(self) -> bool:
        return self.idx == 1

    def _other_idx(self, other) -> int | None:
        """Index of other when it is an element of the same field, else None."""
        if isinstance(other, FieldElement) and other.spec is self.spec:
            return other.idx
        return None

    def __add__(self, other: "FieldElement") -> "FieldElement":
        j = self._other_idx(other)
        if j is None:
            return NotImplemented
        spec = self.spec
        return spec.elements[spec.add_table[self.idx][j]]

    def __neg__(self) -> "FieldElement":
        spec = self.spec
        return spec.elements[spec.neg_table[self.idx]]

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        j = self._other_idx(other)
        if j is None:
            return NotImplemented
        spec = self.spec
        return spec.elements[spec.add_table[self.idx][spec.neg_table[j]]]

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        j = self._other_idx(other)
        if j is None:
            return NotImplemented
        spec = self.spec
        return spec.elements[spec.mul_table[self.idx][j]]

    def inverse(self) -> "FieldElement":
        if self.idx == 0:
            raise ZeroDivisionError("inverse of the zero field element")
        spec = self.spec
        return spec.elements[spec.inv_table[self.idx]]

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        if self._other_idx(other) is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, m: int) -> "FieldElement":
        if not isinstance(m, int):
            return NotImplemented
        # Convention: a**0 == 1 for every a, including zero.
        if m == 0:
            return self.spec.one
        base = self
        if m < 0:
            base = base.inverse()
            m = -m
        if base.idx == 0:
            return base
        m %= self.spec.q - 1
        if m == 0:
            return self.spec.one
        acc = self.spec.one
        cur = base
        while m:
            if m & 1:
                acc = acc * cur
            cur = cur * cur
            m >>= 1
        return acc

    def __hash__(self) -> int:
        return hash((self.spec.hash_seed, self.idx))

    def __str__(self) -> str:
        if self.spec.e == 1:
            return str(self.idx)
        return "[" + ",".join(str(c) for c in self.coords) + "]"

    def __repr__(self) -> str:
        return f"FieldElement({self!s} in {self.spec.to_text()})"


# The one FieldSpec for each (p, e, modulus) as given and as canonical.
_specs: dict[tuple, "FieldSpec"] = {}


class FieldSpec:
    """A finite field F_q, q = p^e <= Q_CEILING, one object per field."""

    __slots__ = (
        "p",
        "e",
        "q",
        "modulus",
        "coord_table",
        "add_table",
        "mul_table",
        "neg_table",
        "inv_table",
        "elements",
        "zero",
        "one",
        "minus_one",
        "hash_seed",
    )

    def __new__(cls, p: int, e: int = 1, modulus: tuple[int, ...] | None = None) -> "FieldSpec":
        key = (p, e, None if modulus is None else tuple(modulus))
        self = _specs.get(key)
        if self is not None:
            return self
        if not _is_prime(p):
            raise InvalidFieldSpec(f"characteristic {p} is not prime")
        if e < 1:
            raise InvalidFieldSpec(f"extension degree {e} must be at least 1")
        q = p**e
        if q > Q_CEILING:
            raise InvalidFieldSpec(f"field size {q} exceeds the ceiling {Q_CEILING}")
        if e == 1:
            if modulus not in (None, ()):
                raise InvalidFieldSpec("prime fields take no modulus")
            modulus = ()
        else:
            if modulus is None:
                modulus = BUILTIN_MODULI.get((p, e))
                if modulus is None:
                    raise InvalidFieldSpec(
                        f"no built-in modulus for q={p}^{e}; supply one explicitly"
                    )
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1:
                raise InvalidFieldSpec(
                    f"modulus must have {e + 1} coefficients, got {len(modulus)}"
                )
            if modulus[-1] != 1:
                raise InvalidFieldSpec("modulus must be monic")
        # an explicit modulus equal to the built-in one is the same field
        self = _specs.get((p, e, modulus))
        if self is None:
            self = object.__new__(cls)
            self._build(p, e, modulus)
            _specs[(p, e, modulus)] = self
        _specs[key] = self
        return self

    def _build(self, p: int, e: int, modulus: tuple[int, ...]) -> None:
        """Fill in the tables; raises InvalidFieldSpec on a reducible modulus."""
        q = p**e
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        self.hash_seed = hash((p, e, modulus))

        coords = []
        for idx in range(q):
            v, cs = idx, []
            for _ in range(e):
                cs.append(v % p)
                v //= p
            coords.append(tuple(cs))
        self.coord_table = tuple(coords)
        index_of = {cs: i for i, cs in enumerate(coords)}

        def reduce_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
            conv = [0] * (2 * e - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        conv[i + j] = (conv[i + j] + ai * bj) % p
            for d in range(2 * e - 2, e - 1, -1):
                c = conv[d]
                if c:
                    conv[d] = 0
                    for i in range(e):
                        conv[d - e + i] = (conv[d - e + i] - c * modulus[i]) % p
            return tuple(conv[:e])

        add_t, mul_t, neg_t = [], [], []
        for i in range(q):
            a = coords[i]
            neg_t.append(index_of[tuple((-c) % p for c in a)])
            row_a, row_m = [], []
            for j in range(q):
                b = coords[j]
                row_a.append(index_of[tuple((x + y) % p for x, y in zip(a, b))])
                row_m.append(index_of[reduce_mul(a, b)])
            add_t.append(tuple(row_a))
            mul_t.append(tuple(row_m))
        self.add_table = tuple(add_t)
        self.mul_table = tuple(mul_t)
        self.neg_table = tuple(neg_t)

        # F_p[t]/(m) is a field (m irreducible) exactly when every nonzero
        # row of this finite ring's multiplication table holds a 1
        inv_t = [0]
        for row in mul_t[1:]:
            if 1 not in row:
                raise InvalidFieldSpec(
                    f"modulus {list(modulus)} is reducible over F_{p}"
                )
            inv_t.append(row.index(1))
        self.inv_table = tuple(inv_t)

        self.elements = tuple(FieldElement(self, i) for i in range(q))
        self.zero = self.elements[0]
        self.one = self.elements[1]
        self.minus_one = self.elements[self.neg_table[1]]

    def element(self, value: int | tuple[int, ...] | list[int]) -> FieldElement:
        """Element from an integer (image of Z) or a coefficient vector."""
        if isinstance(value, int):
            return self.elements[value % self.p]
        cs = tuple(c % self.p for c in value)
        if len(cs) != self.e:
            raise InvalidFieldSpec(
                f"coefficient vector of length {len(cs)}, expected {self.e}"
            )
        idx = 0
        for c in reversed(cs):
            idx = idx * self.p + c
        return self.elements[idx]

    def sign(self, k: int) -> FieldElement:
        """(-1)**k as a field element."""
        return self.one if k % 2 == 0 else self.minus_one

    # Equality is identity (the object default). The hash is the value's, not
    # the address, so the order of a set of fields repeats run to run.
    def __hash__(self) -> int:
        return self.hash_seed

    def to_text(self) -> str:
        if self.e == 1:
            return f"q={self.p}"
        mods = ",".join(str(c) for c in self.modulus)
        return f"q={self.p}^{self.e}:{mods}"

    def __repr__(self) -> str:
        return f"FieldSpec({self.to_text()})"


_FIELD_RE = re.compile(
    r"^q=(\d+)(?:\^(\d+))?(?::([0-9]+(?:,[0-9]+)*))?$"
)

def field_spec(p: int, e: int = 1, modulus=None) -> FieldSpec:
    """The FieldSpec of F_(p^e) with the given or built-in modulus."""
    return FieldSpec(p, e, modulus)


def parse_decimal(text: str) -> int:
    """int(text) for a numeral of decimal digits; PolyParseError when it has
    more digits than the interpreter converts (sys.get_int_max_str_digits)."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        raise PolyParseError(
            f"a number of {len(text)} digits is over the interpreter's limit of {limit}"
        )
    return int(text)


def parse_field_spec(text: str) -> FieldSpec:
    """Parse "q=p" or "q=p^e:c0,c1,...,ce" (built-in modulus when omitted)."""
    m = _FIELD_RE.match(text.strip())
    if m is None:
        raise PolyParseError(f"cannot parse field spec {text!r}")
    p = parse_decimal(m.group(1))
    e = parse_decimal(m.group(2)) if m.group(2) else 1
    modulus = None
    if m.group(3) is not None:
        if e == 1:
            raise PolyParseError("prime field spec must not carry a modulus")
        modulus = tuple(parse_decimal(c) for c in m.group(3).split(","))
    return field_spec(p, e, modulus)


def power_sum(spec: FieldSpec, i: int) -> FieldElement:
    """Sum of a**i over every element, with a**0 == 1 for all a (zero included)."""
    if i < 0:
        raise InvalidFieldSpec("power_sum exponent must be nonnegative")
    acc = spec.zero
    for a in spec.elements:
        acc = acc + a**i
    return acc
