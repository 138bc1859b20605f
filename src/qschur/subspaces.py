"""Finite-dimensional F_q-subspaces of a polynomial ring.

A Subspace stores the canonical reduced echelon basis of its span: each
basis vector is monic at its leading monomial, that monomial appears in no
other basis vector, and the basis is sorted by descending leading monomial.
This makes equality of subspaces plain tuple equality and gives every
enumeration a deterministic order. The zero subspace has the empty basis.

The additive annihilator of a subspace U is the univariate polynomial
f_U(t), the product of (t + u) over all u in U; it is F_q-linear with
t-exponents the powers q^i. It is built one basis vector at a time by Ore's
linearized recursion f_{U+<v>}(t) = f_U(t)^q - f_U(v)^(q-1) * f_U(t)
(O. Ore, "On a special class of polynomials", Trans. AMS 35 (1933); D. Goss,
Basic Structures of Function Field Arithmetic (1996), ch. 1). Applying f_U
to a basis of V >= U produces the internal quotient of V by U, again a
subspace of the same ring.

Subspaces are hash-consed (J.-C. Filliatre and S. Conchon, "Type-Safe
Modular Hash-Consing", ML Workshop 2006): equal subspaces are one object,
which remembers its quotients, its annihilator, its vectors and its
hyperplanes. pi(V), the product of the nonzero vectors of V, is the
coefficient of t in f_V, so it is read off the remembered annihilator.
"""

from __future__ import annotations

import weakref
from itertools import combinations, product

from .errors import (
    DimensionDrop,
    EnumerationTooLarge,
    NotSubspace,
    RingMismatch,
    TermLimitExceeded,
)
from .gf import FieldSpec
from .ppoly import Poly, PolyRing, UniPoly, ambient_ring, get_term_limit, sum_of_products

DEFAULT_ENUMERATION_CEILING = 243
_ceiling = DEFAULT_ENUMERATION_CEILING


def set_enumeration_ceiling(ceiling: int) -> None:
    """Ceiling on q^dim for every enumeration, annihilator and quotient."""
    global _ceiling
    if ceiling < 1:
        raise ValueError("enumeration ceiling must be positive")
    _ceiling = ceiling


def get_enumeration_ceiling() -> int:
    return _ceiling


def _reduce(v: Poly, basis: list[Poly]) -> Poly:
    """Eliminate every basis leading monomial from v (F_q-linear reduction)."""
    for b in basis:
        c = v.coeff_at_leading(b)
        if c.idx:
            v = v - b.scale(c)
    return v


# The one live Subspace for each (ring, canonical basis).
_live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Subspace:
    """Span of finitely many ring elements, held as a reduced echelon basis.

    There is one live object per (ring, canonical basis): span(),
    enumerate_subspaces(), enumerate_lines(), the hyperplanes of a flag and
    internal_quotient() all return it, so everything derived from a space
    is formed once for every caller. It remembers its quotients V // U, its
    annihilator f_V, its vectors and its hyperplanes; a remembered
    value still meets the enumeration ceiling and the term limit of each
    later call.
    """

    __slots__ = ("ring", "basis", "_hash", "_text", "_quotients", "_annihilator",
                 "_vectors", "_hyperplanes", "__weakref__")

    def __new__(cls, ring: PolyRing, basis: tuple[Poly, ...]) -> "Subspace":
        # Trusted constructor: basis must already be canonical; use span()
        # to build from arbitrary vectors.
        key = (ring, basis)
        self = _live.get(key)
        if self is None:
            self = object.__new__(cls)
            self.ring = ring
            self.basis = basis
            self._hash = hash(key)
            self._text = None
            self._quotients = None  # U -> V // U, filled by internal_quotient
            self._annihilator = None  # f_V, filled by _annihilator
            self._vectors = None  # tuple of enumerate_vectors(V)
            self._hyperplanes = None  # tuple of _hyperplanes(V)
            _live[key] = self
        return self

    @classmethod
    def span(cls, ring: PolyRing, vectors) -> "Subspace":
        basis: list[Poly] = []
        for v in vectors:
            if v.ring != ring:
                raise RingMismatch("spanning vector from a different ring")
            v = _reduce(v, basis)
            if not v.terms:
                continue
            v = v.scale(v.leading_coeff().inverse())
            basis = [_reduce(b, [v]) for b in basis]
            basis.append(v)
        key = ring.key
        basis.sort(key=lambda b: key(b.leading_monomial()), reverse=True)
        return cls(ring, tuple(basis))

    @classmethod
    def zero(cls, ring: PolyRing) -> "Subspace":
        return cls(ring, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Poly) -> Poly:
        if v.ring != self.ring:
            raise RingMismatch("vector from a different ring")
        return _reduce(v, list(self.basis))

    def contains_vector(self, v: Poly) -> bool:
        return not self.reduce(v).terms

    def contains(self, other: "Subspace") -> bool:
        if other.ring != self.ring:
            raise RingMismatch("subspace over a different ring")
        return all(self.contains_vector(b) for b in other.basis)

    def describe(self) -> str:
        """Human-readable basis: vectors joined by "; ", "0" when trivial."""
        text = self._text
        if text is None:
            text = self._text = "; ".join(str(b) for b in self.basis) or "0"
        return text

    # Equality is identity (the object default). The hash is the value's,
    # not the address, so the order of a set of subspaces repeats run to run.
    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace({self.describe()})"


def span(ring: PolyRing, vectors) -> Subspace:
    return Subspace.span(ring, vectors)


def generic_space(spec: FieldSpec, n: int) -> Subspace:
    """The generic n-dimensional space, spanned by the n variables of
    ambient_ring(spec, n); at n = 0 the zero space of the one-variable ring."""
    ring = ambient_ring(spec, max(n, 1))
    return Subspace(ring, ring.gens()[:n])


def _check_ceiling(q: int, dim: int) -> None:
    if q**dim > _ceiling:
        raise EnumerationTooLarge(
            f"enumerating q^dim = {q}^{dim} vectors exceeds the ceiling {_ceiling}"
        )


def _check_term_limit(what: str, polys) -> None:
    """Raise TermLimitExceeded when one of polys holds more terms than the
    limit. Remembered values are checked on every call, so whether a call
    raises does not depend on what ran before it."""
    limit = get_term_limit()
    for p in polys:
        if len(p.terms) > limit:
            raise TermLimitExceeded(f"{what} holds {len(p.terms)} terms, over the limit {limit}")


def _linear_combinations(ring: PolyRing, vectors) -> list[Poly]:
    """Every F_q-combination of vectors, zero first; coefficients run in
    field order with the first vector most significant."""
    out = []
    for coeffs in product(ring.spec.elements, repeat=len(vectors)):
        acc = ring.zero
        for c, b in zip(coeffs, vectors):
            if c.idx:
                acc = acc + b.scale(c)
        out.append(acc)
    return out


def enumerate_vectors(V: Subspace) -> list[Poly]:
    """All q^dim vectors, zero first; coefficients run in field order with
    the first basis vector most significant."""
    _check_ceiling(V.ring.spec.q, V.dim)
    vectors = V._vectors
    if vectors is None:
        vectors = V._vectors = tuple(_linear_combinations(V.ring, V.basis))
    return list(vectors)


def enumerate_lines(V: Subspace) -> list[Subspace]:
    """All one-dimensional subspaces, each keyed by its monic direction
    vector, in the order those directions appear in enumerate_vectors."""
    spec = V.ring.spec
    lines = []
    for v in enumerate_vectors(V):
        if v.terms and v.leading_coeff().is_one():
            lines.append(Subspace(V.ring, (v,)))
    expected = (spec.q**V.dim - 1) // (spec.q - 1) if V.dim else 0
    assert len(lines) == expected, "line count mismatch"
    return lines


class Flag:
    """A complete flag: a chain V = V_0 > V_1 > ... > V_n = 0, dims dropping by 1."""

    __slots__ = ("chain",)

    def __init__(self, chain):
        chain = tuple(chain)
        if not chain:
            raise NotSubspace("a flag needs at least the zero subspace")
        if chain[-1].dim != 0:
            raise NotSubspace("flag must end at the zero subspace")
        for big, small in zip(chain, chain[1:]):
            if big.dim != small.dim + 1 or not big.contains(small):
                raise NotSubspace("flag steps must drop dimension by exactly one")
        self.chain = chain

    @property
    def length(self) -> int:
        return len(self.chain) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flag):
            return NotImplemented
        return other.chain == self.chain

    def __hash__(self) -> int:
        return hash(self.chain)

    def __repr__(self) -> str:
        return "Flag(" + " > ".join(s.describe() for s in self.chain) + ")"


def _hyperplanes(V: Subspace) -> tuple[Subspace, ...]:
    """All codimension-1 subspaces of V, in a deterministic order, formed
    once per V.

    Each hyperplane is the kernel of a covector on the basis coordinates;
    covectors are normalized so the first nonzero coordinate is one and are
    enumerated in field order.
    """
    spec = V.ring.spec
    _check_ceiling(spec.q, V.dim)
    if V._hyperplanes is not None:
        return V._hyperplanes
    n = V.dim
    out = []
    for alpha in product(spec.elements, repeat=n):
        pivot = next((i for i, a in enumerate(alpha) if a.idx), None)
        if pivot is None or not alpha[pivot].is_one():
            continue
        vectors = []
        for j in range(n):
            if j == pivot:
                continue
            vectors.append(V.basis[j] - V.basis[pivot].scale(alpha[j]))
        out.append(Subspace.span(V.ring, vectors))
    V._hyperplanes = tuple(out)
    return V._hyperplanes


def enumerate_flags(V: Subspace) -> list[Flag]:
    """All complete flags of V; the zero space has exactly one (itself)."""
    spec = V.ring.spec
    _check_ceiling(spec.q, V.dim)

    def rec(W: Subspace) -> list[tuple[Subspace, ...]]:
        if W.dim == 0:
            return [(W,)]
        chains = []
        for H in _hyperplanes(W):
            for tail in rec(H):
                chains.append((W,) + tail)
        return chains

    flags = [Flag(chain) for chain in rec(V)]
    expected = 1
    for i in range(1, V.dim + 1):
        expected *= (spec.q**i - 1) // (spec.q - 1)
    assert len(flags) == expected, "flag count mismatch"
    return flags


def _annihilator(U: Subspace) -> UniPoly:
    """f_U, formed once per U by Ore's recursion over the basis of U: with
    a_i the coefficient of t^(q^i) in f_U and b = f_U(v) = sum a_i * v^(q^i),
    adjoining v gives f(t)^q - b^(q-1) * f(t), whose coefficients are
    a_(i-1)^q - b^(q-1) * a_i. The a_i lie over F_q, so a_i^q is a Frobenius
    twist, and every t-exponent is a power of q by construction (O. Ore,
    Trans. AMS 35 (1933); D. Goss, Basic Structures of Function Field
    Arithmetic, ch. 1). Checks the enumeration ceiling, not the term limit."""
    q = U.ring.spec.q
    _check_ceiling(q, U.dim)
    f = U._annihilator
    if f is None:
        zero = U.ring.zero
        a = [U.ring.one]
        for v in U.basis:
            b = sum_of_products(U.ring, [(1, ai, v.frobenius(i)) for i, ai in enumerate(a)])
            c = b ** (q - 1)
            # the new top coefficient a_(k-1)^q has no c * a_k part
            top = a[-1].frobenius(1)
            a = [prev.frobenius(1) - c * cur for prev, cur in zip([zero] + a, a)] + [top]
        f = U._annihilator = UniPoly(U.ring, {q**i: ai for i, ai in enumerate(a) if ai.terms})
    return f


def pi_product(V: Subspace) -> Poly:
    """Product of all nonzero vectors of V, one for the zero subspace: the
    coefficient of t in f_V = t * prod (t + u) over nonzero u. Only pi
    itself meets the term limit."""
    pi = _annihilator(V).coefficient(1)
    _check_term_limit("pi", [pi])
    return pi


def additive_poly(U: Subspace) -> UniPoly:
    """The annihilator f_U(t), the product of (t + u) over all u in U, from
    _annihilator. Always additive: every t-exponent is a power of q. Every
    coefficient meets the term limit."""
    f = _annihilator(U)
    _check_term_limit("annihilator coefficient", f.coeffs.values())
    return f


def internal_quotient(V: Subspace, U: Subspace) -> Subspace:
    """The image of V under the annihilator of U; requires U <= V.

    The result has dimension dim V - dim U; losing more is impossible over
    an integral domain and raises DimensionDrop as an internal guard. V
    keeps every quotient it has formed, and equal spaces are one object;
    a repeated U still meets the enumeration ceiling and the term limit.
    """
    if U.ring != V.ring:
        raise RingMismatch("quotient of subspaces over different rings")
    memo = V._quotients
    if memo is not None:
        Q = memo.get(U)
        if Q is not None:
            _check_ceiling(V.ring.spec.q, U.dim)
            _check_term_limit("quotient basis vector", Q.basis)
            return Q
    if not V.contains(U):
        raise NotSubspace(
            f"quotient denominator {U.describe()} is not contained in {V.describe()}"
        )
    f = additive_poly(U)
    images = [f.apply(b) for b in V.basis]
    Q = Subspace.span(V.ring, images)
    if Q.dim != V.dim - U.dim:
        raise DimensionDrop(
            f"quotient dimension {Q.dim}, expected {V.dim - U.dim}"
        )
    if memo is None:
        memo = V._quotients = {}
    memo[U] = Q
    _check_term_limit("quotient basis vector", Q.basis)
    return Q


def quotient_tower_check(V: Subspace, U: Subspace, T: Subspace) -> bool:
    """For T <= U <= V: quotient by U equals the two-step quotient through T."""
    if not U.contains(T) or not V.contains(U):
        raise NotSubspace("tower check requires T <= U <= V")
    direct = internal_quotient(V, U)
    two_step = internal_quotient(internal_quotient(V, T), internal_quotient(U, T))
    return direct == two_step


def coset_product_check(U: Subspace, Uprime: Subspace) -> bool:
    """For U' <= U: the product of all nonzero vectors of the quotient U // U'
    equals the product of the vectors of U outside U'."""
    if not U.contains(Uprime):
        raise NotSubspace("coset product check requires U' <= U")
    return pi_product(internal_quotient(U, Uprime)) == coset_product(U, Uprime)


def coset_product(U: Subspace, Uprime: Subspace) -> Poly:
    """Product of the vectors of U outside U'."""
    rhs = U.ring.one
    for u in enumerate_vectors(U):
        if u.terms and not Uprime.contains_vector(u):
            rhs = rhs * u
    return rhs


def enumerate_subspaces(V: Subspace) -> list[Subspace]:
    """All subspaces of V, ordered by dimension, then by the sort keys of
    their basis vectors.

    The subspaces of dimension d correspond one to one with the reduced
    row-echelon d x dim V matrices over F_q (D. E. Knuth, "Subspaces,
    subsets, and partitions", J. Combin. Theory A 10, 1971), read as
    coordinates on the basis of V. Every Subspace basis is reduced echelon:
    monic, sorted by descending leading monomial, each leading monomial in
    no other basis vector. So the row for pivot column p, the basis vector
    b_p plus any combination of the later non-pivot basis vectors, is monic
    at LM(b_p), and no other row has that monomial: the rows are already
    the canonical basis, and each subspace is built once, with no
    elimination.
    """
    ring = V.ring
    _check_ceiling(ring.spec.q, V.dim)
    n = V.dim
    basis = V.basis
    out = []
    for d in range(n + 1):
        level = []
        for pivots in combinations(range(n), d):
            rows = []
            for p in pivots:
                free = [basis[c] for c in range(p + 1, n) if c not in pivots]
                rows.append([basis[p] + w for w in _linear_combinations(ring, free)])
            level.extend(Subspace(ring, r) for r in product(*rows))
        level.sort(key=lambda W: tuple(b.sort_key() for b in W.basis))
        out.extend(level)
    return out
