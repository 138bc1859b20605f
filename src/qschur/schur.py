"""Schur-style polynomials built from q-power alternants.

The alternant of a composition a = (a_1 > ... > a_n) is the determinant of
the n x n matrix with entries x_i raised to q^(a_j). The quotient of the
alternant at lam + staircase by the staircase alternant is an exact
polynomial in the n variables of the ambient ring: the straight value on
the generic space they span (subspaces.generic_space). Substituting a basis
of any n-dimensional subspace V gives the straight value S_lam(V), which
does not depend on the basis chosen; other spaces reach it by the routes of
SchurContext.

Complete and elementary values H_r and E_r are the straight values at the
one-row and one-column shapes. On every basis a skew value is one
Frobenius-twisted determinant over the cached H_r of that basis (its tilde
companion one over the E_r); for skew values the twist can be negative, so
fractional exponents may and do occur.

A SchurContext carries the per-field caches: straight values keyed by
(shape, space), and skew values keyed likewise with the matrix size. Cache
inserts happen once, under a re-entrant lock.
"""

from __future__ import annotations

import threading
from typing import Sequence

from . import fmatrix, partitions
from .errors import LengthTooLong
from .gf import FieldSpec
from .partitions import Partition
from .ppoly import Poly, ambient_ring, evaluate_morphism, exact_div, sum_of_products
from .subspaces import Subspace, generic_space


def _sized(lam, mu, k: int | None) -> tuple[Partition, Partition, int]:
    """Validated shapes and matrix size of a twisted determinant: k defaults
    to the longer shape's length, and a smaller k is refused."""
    lam = partitions.partition(lam)
    mu = partitions.partition(mu)
    least = max(len(lam), len(mu))
    if k is None:
        return lam, mu, least
    if k < least:
        raise LengthTooLong(f"matrix size {k} below max length {least}")
    return lam, mu, k


def _h_twist(a: int, b: int) -> int:
    """Twist phi^(mu_j - j + 1) of a skew-value entry."""
    return b + 1


def _e_twist(a: int, b: int) -> int:
    """Twist phi^(lam_i - i) of a companion-value entry."""
    return a


class SchurContext:
    """Caches and value routes for one coefficient field.

    Routes, by value:

    - S_lam(G) (schur_S) on the generic space G = generic_space(spec, n):
      the alternant at lam + staircase divided exactly by the staircase
      alternant;
    - S_lam(V) (schur_S) on any other n-dimensional space: S_lam(G)
      substituted onto V's basis for one-column shapes; the window recursion
      over the E_j for one-row shapes and, for the rest, the cached
      skew_S(lam, (), V), so such a straight value and its skew value are
      one object;
    - S_lam/mu(V) (skew_S): the twisted determinant over the H_r on V's own
      basis, on every basis; tilde_S likewise over the E_r.

    What each identity of qschur.verify compares a value against (the sweep
    runs on generic spaces, whose quotients V // U have dense bases):

    - vl-recursion, straight-recursion: the value on V against the sum of
      values on the dense quotients V // L, whose H_r come from the window
      recursion rather than substitution;
    - flag-formula: S_lam(V) against products of H_r on the steps of every
      complete flag;
    - pieri: the skew value on V // span(ell) against the vertical-strip
      expansion in powers of ell and skew values on V;
    - coproduct: the skew value on V // U against the signed addends
      S_(nu/mu)(V) phi^m tilde_S_(lam/nu)(U) summed over nu between mu and
      lam; coproduct-truncation: one addend at a nu outside, against zero;
    - he-inverse: the product of the E_r array and the H_r array, both
      alternant quotients of different shapes on the generic space,
      against the identity. This is the lemma that H and E are
      mutually inverse: the window of a product of upper-triangular arrays
      is the product of their windows, and of two square matrices over a
      commutative ring, one product is the identity exactly when the other
      is. In the order E * H each first-row sum starts with its largest
      product, 1 * phi(H_d), which seeds the accumulator, and the
      E_j * H_(d - j) products drain it; both arrays are Frobenius-twisted
      Toeplitz arrays, so the product sums only its first window row and
      lifts the rest by phi;
    - h-factorization: the H_r array of V, from the alternant, against the
      product of those of V // U and U, formed the same way; on the lines
      among U and V // U the H_r come from the window recursion;
    - hook-step: -H_r(U) on a line U against pi(U) phi(H_(r-1)(U)); its
      values on lines other than the generic line come from the window
      recursion, pi(U) from the coefficient of t in f_U;
    - full-column-reduction: S_lam(V), lam filling every row of V, against
      (-1)^n pi(V) times the q-th power of S at lam less its first column;
    - gl-invariance, functoriality: schur_S against the generic value
      pushed onto a random basis of V, and onto a random family; these
      carry the claim that substitution commutes with taking values;
    - k-independence: skew_S at size k against size k + 1; vanishing and
      degree-formula against closed forms.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self._straight: dict[tuple[Partition, Subspace], Poly] = {}
        self._skew: dict[tuple[Partition, Partition, int, Subspace], Poly] = {}
        self._lock = threading.RLock()

    # Alternants -----------------------------------------------------------

    def alternant(self, alpha: Sequence[int], n: int) -> Poly:
        """det(x_i ** q**alpha_j) in the n-variable ambient ring (n <= 8)."""
        alpha = tuple(alpha)
        if len(alpha) != n:
            raise LengthTooLong(f"composition {alpha} must have length n={n}")
        ring = ambient_ring(self.spec, n)
        rows = [[ring.gen(i).frobenius(a) for a in alpha] for i in range(n)]
        if n == 0:
            return ring.one
        return fmatrix.det(fmatrix.PolyMatrix(ring, rows))

    # Straight values -----------------------------------------------------

    def schur_S(self, lam: Partition, V: Subspace) -> Poly:
        """The straight value S_lam(V); zero when lam is longer than dim V."""
        lam = partitions.partition(lam)
        n = V.dim
        if len(lam) > n:
            return V.ring.zero
        if n == 0:
            return V.ring.one
        key = (lam, V)
        with self._lock:
            got = self._straight.get(key)
            if got is None:
                got = self._straight_value(lam, V)
                self._straight[key] = got
        return got

    def _straight_value(self, lam: Partition, V: Subspace) -> Poly:
        """Uncached straight value, routed by the space.

        On the generic space G of dimension n the value is the alternant
        quotient; a one-column value on any other n-dimensional space is
        G's value substituted onto V's basis. Otherwise the one-row values
        climb the window identity sum_j (-1)^j phi^(r-1)(E_j) H_(r-j) = 0,
        whose E_j are the (small) one-column values, and every other shape
        is the cached skew value at mu = (), the twisted determinant in the
        one-row values.
        """
        n = V.dim
        G = generic_space(self.spec, n)
        if V is G:
            top = self.alternant(partitions.pad_and_add(lam, n), n)
            bottom = self.alternant(partitions.delta(n), n)
            return evaluate_morphism(exact_div(top, bottom), list(V.basis))
        if all(p == 1 for p in lam):
            return evaluate_morphism(self.schur_S(lam, G), list(V.basis))
        if len(lam) == 1:
            r = lam[0]
            # cache H_1..H_(r-1) from the bottom, so no call nests r deep;
            # a cached H_(r-1) was climbed to the same way
            if ((r - 1,), V) not in self._straight:
                for s in range(1, r):
                    self.h_r(s, V)
            return sum_of_products(V.ring, [
                (self.spec.sign(j + 1), self.schur_S((1,) * j, V).frobenius(r - 1),
                 self.h_r(r - j, V))
                for j in range(1, min(r, n) + 1)
            ])
        return self.skew_S(lam, (), V)

    def h_r(self, r: int, V: Subspace) -> Poly:
        """Complete value: S at the one-row shape; zero for r < 0, one at r = 0."""
        if r < 0:
            return V.ring.zero
        if r == 0:
            return V.ring.one
        return self.schur_S((r,), V)

    def e_r(self, r: int, V: Subspace) -> Poly:
        """Elementary value: S at the one-column shape; zero outside 0..dim V."""
        if r < 0 or r > V.dim:
            return V.ring.zero
        if r == 0:
            return V.ring.one
        return self.schur_S((1,) * r, V)

    # Skew values ----------------------------------------------------------

    def skew_S(self, lam: Partition, mu: Partition, V: Subspace, k: int | None = None) -> Poly:
        """Twisted determinant det(phi^(mu_j - j + 1) H_(lam_i - mu_j - i + j)).

        The size k defaults to max(len(lam), len(mu)) and any larger k gives
        the same value. Negative twists make fractional exponents possible;
        they are returned as-is. The entries are the cached one-row values on
        V's own basis, so no basis vector is raised to a large power.
        """
        lam, mu, k = _sized(lam, mu, k)
        key = (lam, mu, k, V)
        with self._lock:
            got = self._skew.get(key)
            if got is None:
                got = self._skew[key] = self._twisted_det(lam, mu, k, V, self.h_r, _h_twist)
        return got

    def tilde_S(self, lam: Partition, mu: Partition, U: Subspace) -> Poly:
        """Companion determinant det(phi^(lam_i - i) E_(lam_i - mu_j - i + j))."""
        lam, mu, k = _sized(lam, mu, None)
        return self._twisted_det(lam, mu, k, U, self.e_r, _e_twist)

    def _twisted_det(self, lam: Partition, mu: Partition, k: int, V: Subspace,
                     value, twist) -> Poly:
        """det(phi^twist(a_i, b_j) value(a_i - b_j, V)) over 1 <= i, j <= k,
        with a_i = lam_i - i and b_j = mu_j - j, in the ring of V."""
        b = [partitions.part(mu, j) - j for j in range(1, k + 1)]
        rows = []
        for i in range(1, k + 1):
            a = partitions.part(lam, i) - i
            rows.append([value(a - bj, V).frobenius(twist(a, bj)) for bj in b])
        return fmatrix.det(fmatrix.PolyMatrix(V.ring, rows))

    # Triangular arrays ----------------------------------------------------

    def h_matrix(self, V: Subspace, twist: int = 0) -> fmatrix.TwistedToeplitz:
        """Entries phi^(i + 1 + twist) H_(j - i)(V); unitriangular."""
        return fmatrix.TwistedToeplitz(
            V.ring, lambda d: self.h_r(d, V), 1 + twist, tag=f"H[{V.describe()}]+{twist}",
        )

    def e_matrix(self, V: Subspace) -> fmatrix.TwistedToeplitz:
        """Entries (-1)^(j - i) phi^j E_(j - i)(V), that is phi^i of the
        diagonal value (-1)^d phi^d E_d(V) at d = j - i; unitriangular."""
        sign = self.spec.sign
        return fmatrix.TwistedToeplitz(
            V.ring, lambda d: self.e_r(d, V).frobenius(d).scale(sign(d)), 0,
            tag=f"E[{V.describe()}]",
        )
