"""Identity sweeps: every statement the library implements has a runnable
exact check here, reported case by case.

A CaseReport names the identity, the parameters it ran at, and pass/fail;
failing reports carry both sides verbatim in text form. run_sweep drives a
grid of checks from a SweepConfig and returns a JSON-ready dict. Everything
is exact equality; there is no tolerance anywhere. Randomized pieces draw
from seeded generators only, so a sweep is reproducible from its seed.
"""

from __future__ import annotations

import functools
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

from . import fmatrix, partitions, subspaces
from .errors import (
    ConfigInvalid,
    HypothesisViolated,
    LengthTooLong,
    NotALine,
    NotDivisible,
    NotSubspace,
    QschurError,
    ZeroVector,
)
from .gf import FieldSpec, parse_field_spec, power_sum
from .partitions import partitions_up_to_weight
from .ppoly import (
    AMBIENT_NAMES,
    Poly,
    PolyRing,
    ambient_ring,
    evaluate_morphism,
    exact_div,
    get_term_limit,
    sum_of_products,
)
from .schur import SchurContext
from .subspaces import (
    DEFAULT_ENUMERATION_CEILING,
    Flag,
    Subspace,
    enumerate_flags,
    enumerate_lines,
    enumerate_subspaces,
    enumerate_vectors,
    generic_space,
    internal_quotient,
    pi_product,
    span,
)

@dataclass
class CaseReport:
    """One checked instance of one identity."""

    identity: str
    q: int
    n: int
    lam: tuple = ()
    mu: tuple = ()
    basis: str = ""
    status: str = "pass"
    lhs: str = ""
    rhs: str = ""
    millis: int = 0

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "q": self.q,
            "n": self.n,
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "basis": self.basis,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "millis": self.millis,
        }

    def sort_key(self):
        return (self.identity, self.q, self.n, self.lam, self.mu, self.basis)


def _case(identity, ctx_q, V_or_n, lam, mu, t0, ok, lhs, rhs,
          basis=None) -> CaseReport:
    """Assemble a report. The sides lhs and rhs are values, rendered with
    str() only on failure; a callable side is called for its text instead,
    for a side that is formed only on failure. basis defaults to the
    description of V, or to "" when a dimension is given."""
    if isinstance(V_or_n, Subspace):
        n = V_or_n.dim
        if basis is None:
            basis = V_or_n.describe()
    else:
        n = V_or_n
    rep = CaseReport(
        identity=identity,
        q=ctx_q,
        n=n,
        lam=tuple(lam),
        mu=tuple(mu),
        basis=basis or "",
        millis=int((time.perf_counter() - t0) * 1000),
    )
    if not ok:
        rep.status = "fail"
        rep.lhs = lhs() if callable(lhs) else str(lhs)
        rep.rhs = rhs() if callable(rhs) else str(rhs)
    return rep


# Theorem checks -----------------------------------------------------------


def check_vl_recursion(ctx: SchurContext, lam, mu, V: Subspace, summand_fn=None) -> CaseReport:
    """Skew value on V equals the sum of skew values on V // L over all lines L.

    summand_fn(lam, mu, V, L) may replace the per-line term; the default is
    the direct internal-quotient evaluation. The hook exists so the harness
    can be shown to catch a corrupted summand.
    """
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    mu = partitions.partition(mu)
    if summand_fn is None:
        summand_fn = lambda la, m, W, L: ctx.skew_S(la, m, internal_quotient(W, L))
    lhs = ctx.skew_S(lam, mu, V)
    rhs = V.ring.zero
    for L in enumerate_lines(V):
        rhs = rhs + summand_fn(lam, mu, V, L)
    return _case("vl-recursion", ctx.spec.q, V, lam, mu, t0, lhs == rhs, lhs, rhs)


def check_straight_recursion(ctx: SchurContext, lam, V: Subspace) -> CaseReport:
    """Straight value on V equals the sum of straight values on V // L over
    all lines L."""
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    lhs = ctx.schur_S(lam, V)
    rhs = V.ring.zero
    for L in enumerate_lines(V):
        rhs = rhs + ctx.schur_S(lam, internal_quotient(V, L))
    return _case("straight-recursion", ctx.spec.q, V, lam, (), t0, lhs == rhs, lhs, rhs)


def check_flag_formula(ctx: SchurContext, lam, V: Subspace) -> CaseReport:
    """Straight value as a sum over complete flags of products of one-row
    values on the successive quotients."""
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    lhs = ctx.schur_S(lam, V)
    n = V.dim
    rhs = V.ring.zero
    for flag in enumerate_flags(V):
        term = V.ring.one
        for i in range(1, n + 1):
            Q = internal_quotient(flag.chain[i - 1], flag.chain[i])
            term = term * ctx.h_r(partitions.part(lam, i), Q)
        rhs = rhs + term
    return _case("flag-formula", ctx.spec.q, V, lam, (), t0, lhs == rhs, lhs, rhs)


def check_pieri(ctx: SchurContext, lam, mu, V: Subspace, ell: Poly) -> CaseReport:
    """The skew value on the quotient by span(ell) equals the vertical-strip
    expansion along ell: the sum over nu with lam/nu a vertical strip of
    (-1)^(|lam| - |nu|) ell^(twist exponent) S_(nu/mu)(V). Needs ell a
    nonzero vector of V and len(lam), len(mu) < dim V."""
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    mu = partitions.partition(mu)
    if not ell.terms:
        raise ZeroVector("expansion direction must be nonzero")
    n = V.dim
    if len(lam) >= n or len(mu) >= n:
        raise LengthTooLong(f"shape lengths {len(lam)}, {len(mu)} must be below dim V = {n}")
    if not V.contains_vector(ell):
        raise NotSubspace("expansion direction must lie in V")
    spec = ctx.spec
    lhs = ctx.skew_S(lam, mu, internal_quotient(V, span(V.ring, [ell])))
    rhs = sum_of_products(V.ring, [
        (spec.sign(partitions.weight(lam) - partitions.weight(nu)),
         ell ** partitions.q_exponent(lam, nu, n, spec.q), ctx.skew_S(nu, mu, V))
        for nu in partitions.vertical_strip_subpartitions(lam)
    ])
    return _case("pieri", spec.q, V, lam, mu, t0, lhs == rhs, lhs, rhs)


def _coproduct_addend(ctx: SchurContext, lam, mu, nu, V: Subspace, U: Subspace) -> tuple:
    """The coproduct addend (-1)^(|lam| - |nu|) S_(nu/mu)(V) phi^m
    tilde_S_(lam/nu)(U), m = dim V - dim U, as a sum_of_products triple."""
    return (ctx.spec.sign(partitions.weight(lam) - partitions.weight(nu)),
            ctx.skew_S(nu, mu, V), ctx.tilde_S(lam, nu, U).frobenius(V.dim - U.dim))


def check_coproduct(ctx: SchurContext, lam, mu, V: Subspace, U: Subspace) -> CaseReport:
    """The skew value on V // U equals the sum of the coproduct addends over
    nu between mu and lam. Needs U <= V."""
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    mu = partitions.partition(mu)
    if not V.contains(U):
        raise NotSubspace("coproduct expansion requires U <= V")
    total = sum_of_products(V.ring, [
        _coproduct_addend(ctx, lam, mu, nu, V, U)
        for nu in partitions.subpartitions_between(mu, lam)
    ])
    lhs = ctx.skew_S(lam, mu, internal_quotient(V, U))
    return _case("coproduct", ctx.spec.q, V, lam, mu, t0, lhs == total, lhs, total)


# Matrix calculus ----------------------------------------------------------


def _window_sides(left, right, lo: int) -> tuple[str, str]:
    """Failing sides for two square windows from row and column lo on that
    should be equal: each lists the cells where they differ as (i,j): <value>."""
    cells = [(i, j) for i in range(left.rows) for j in range(left.cols)
             if left.entry(i, j) != right.entry(i, j)]
    return tuple(
        "; ".join(f"({lo + i},{lo + j}): {w.entry(i, j)}" for i, j in cells)
        for w in (left, right)
    )


def check_he_inverse(ctx: SchurContext, V: Subspace, lo: int, hi: int) -> CaseReport:
    """The H and E arrays of V are mutually inverse on the window [lo, hi]:
    E * H is the identity there (SchurContext says why this order)."""
    t0 = time.perf_counter()
    prod = fmatrix.window_product(ctx.e_matrix(V), ctx.h_matrix(V), lo, hi)
    ok = prod.is_identity()
    sides = ("", "")
    if not ok:
        ring, size = V.ring, hi - lo + 1
        identity = fmatrix.PolyMatrix(
            ring, [[ring.one if i == j else ring.zero for j in range(size)] for i in range(size)]
        )
        sides = _window_sides(prod, identity, lo)
    return _case("he-inverse", ctx.spec.q, V, (), (), t0, ok, *sides,
                 basis=f"{V.describe()} window [{lo},{hi}]")


def check_factorization(ctx: SchurContext, V: Subspace, U: Subspace) -> CaseReport:
    """The H-array of V equals the H-array of V // U times the m-twisted
    H-array of U, with m = dim V - dim U, on the window [-(dim V + 3), dim V + 3]."""
    t0 = time.perf_counter()
    if not V.contains(U):
        raise NotSubspace("factorization check requires U <= V")
    Q = internal_quotient(V, U)
    lo, hi = -(V.dim + 3), V.dim + 3
    prod = fmatrix.window_product(ctx.h_matrix(Q), ctx.h_matrix(U, twist=V.dim - U.dim), lo, hi)
    direct = fmatrix.window_of(ctx.h_matrix(V), lo, hi)
    ok = prod == direct
    sides = ("", "") if ok else _window_sides(prod, direct, lo)
    return _case("h-factorization", ctx.spec.q, V, (), (), t0, ok, *sides,
                 basis=V.describe() + " // " + U.describe())


def _random_poly(ring: PolyRing, rng: random.Random, max_terms=2, max_exp=6,
                 allow_zero=False) -> Poly:
    """A small random polynomial with integer exponents."""
    spec = ring.spec
    lo = 0 if allow_zero else 1
    terms = []
    for _ in range(rng.randint(lo, max_terms)):
        v = [rng.randint(0, max_exp) for _ in range(ring.nvars)]
        terms.append((v, spec.elements[rng.randrange(1, spec.q)]))
    return ring.from_terms(terms)


def _band_array(ring: PolyRing, rng: random.Random, lo: int, hi: int, width: int, tag: str):
    """A random unitriangular array supported on a band above the diagonal."""
    cells = {}
    for i in range(lo - 1, hi + 2):
        for j in range(i + 1, min(i + width, hi + 1) + 1):
            cells[(i, j)] = _random_poly(ring, rng, max_terms=2, max_exp=3, allow_zero=True)

    def entry(i, j):
        if i == j:
            return ring.one
        if i > j:
            return ring.zero
        return cells.get((i, j), ring.zero)

    return fmatrix.TriangularZMatrix(ring, entry, tag=tag)


def check_matrix_lemmas(spec: FieldSpec, seed: int, trials: int = 50) -> list[CaseReport]:
    """Randomized exact trials of the product-minor expansion, the sign
    rescaling of a determinant, and the zero-block vanishing criterion.

    Every trial is its own case, so each lemma yields `trials` reports. Its
    basis names the trial index and its draw; the draws come from one stream
    seeded by the field and seed, in a fixed order.
    """
    rng = random.Random(f"matrix:{spec.to_text()}:{seed}")
    ring = ambient_ring(spec, 2)
    reports = []

    lo, hi = -4, 6
    for t in range(trials):
        t0 = time.perf_counter()
        a = _band_array(ring, rng, lo, hi, 2, tag=f"a{t}")
        b = _band_array(ring, rng, lo, hi, 2, tag=f"b{t}")
        u = rng.randint(0, 3)
        ii = tuple(sorted(rng.sample(range(lo, hi + 1), u), reverse=True))
        jj = tuple(sorted(rng.sample(range(lo, hi + 1), u), reverse=True))
        direct, addends = fmatrix.cauchy_binet(a, b, ii, jj)
        total = ring.zero
        for _, left, right in addends:
            total = total + left * right
        reports.append(_case("cauchy-binet", spec.q, 2, (), (), t0, direct == total, direct, total,
                             basis=f"trial {t} rows {ii} cols {jj}"))

    for t in range(trials):
        t0 = time.perf_counter()
        u = rng.randint(1, 3)
        c = fmatrix.PolyMatrix(ring, [
            [_random_poly(ring, rng, max_terms=2, max_exp=3, allow_zero=True)
             for _ in range(u)]
            for _ in range(u)
        ])
        lam = partitions.partition(sorted((rng.randint(0, 3) for _ in range(rng.randint(0, u))), reverse=True))
        nu = partitions.partition(sorted((rng.randint(0, 3) for _ in range(rng.randint(0, u))), reverse=True))
        lhs = fmatrix.scale_sign_det(c, lam, nu)
        rhs = fmatrix.det(c).scale(spec.sign(partitions.weight(lam) - partitions.weight(nu)))
        reports.append(_case("sign-scaled-det", spec.q, 2, (), (), t0, lhs == rhs, lhs, rhs,
                             basis=f"trial {t} size {u} lam {lam} nu {nu}"))

    for t in range(trials):
        t0 = time.perf_counter()
        u = rng.randint(2, 4)
        xs_count = rng.randint(1, u)
        ys_count = u + 1 - xs_count
        xs = rng.sample(range(u), xs_count)
        ys = rng.sample(range(u), ys_count)
        rows = []
        for i in range(u):
            row = []
            for j in range(u):
                if i in xs and j in ys:
                    row.append(ring.zero)
                else:
                    row.append(_random_poly(ring, rng, max_terms=2, max_exp=3, allow_zero=True))
            rows.append(row)
        c = fmatrix.PolyMatrix(ring, rows)
        reports.append(_case("zero-block-det", spec.q, 2, (), (), t0,
                             fmatrix.too_many_zeroes_check(c, xs, ys),
                             lambda: str(fmatrix.det(c)), "0",
                             basis=f"trial {t} size {u} rows {sorted(xs)} cols {sorted(ys)}"))
    return reports


# Subspace calculus --------------------------------------------------------


def check_quotient_tower(V: Subspace, U: Subspace, T: Subspace, q: int) -> CaseReport:
    t0 = time.perf_counter()
    ok = subspaces.quotient_tower_check(V, U, T)
    quot = subspaces.internal_quotient
    return _case("quotient-tower", q, V, (), (), t0, ok,
                 lambda: quot(V, U).describe(),
                 lambda: quot(quot(V, T), quot(U, T)).describe(),
                 basis=f"{V.describe()} / {U.describe()} / {T.describe()}")


def check_coset_product(U: Subspace, Uprime: Subspace, q: int) -> CaseReport:
    t0 = time.perf_counter()
    ok = subspaces.coset_product_check(U, Uprime)
    return _case("coset-product", q, U, (), (), t0, ok,
                 lambda: str(subspaces.pi_product(subspaces.internal_quotient(U, Uprime))),
                 lambda: str(subspaces.coset_product(U, Uprime)),
                 basis=f"{U.describe()} / {Uprime.describe()}")


def check_pi_flag_product(flag: Flag, q: int) -> CaseReport:
    """pi of the whole space equals the product of pi over the flag steps."""
    t0 = time.perf_counter()
    V = flag.chain[0]
    lhs = pi_product(V)
    rhs = V.ring.one
    for big, small in zip(flag.chain, flag.chain[1:]):
        rhs = rhs * pi_product(internal_quotient(big, small))
    return _case("pi-flag-product", q, V, (), (), t0, lhs == rhs, lhs, rhs)


def check_hook_step(ctx: SchurContext, U: Subspace, r: int) -> CaseReport:
    """On a line U: pi(U) * phi(H_(r-1)(U)) == -H_r(U), for r >= 1."""
    t0 = time.perf_counter()
    if U.dim != 1:
        raise NotALine(f"hook step needs dim 1, got {U.dim}")
    if r < 1:
        raise HypothesisViolated(f"hook step needs r >= 1, got {r}")
    lhs = subspaces.pi_product(U) * ctx.h_r(r - 1, U).frobenius(1)
    rhs = -ctx.h_r(r, U)
    return _case("hook-step", ctx.spec.q, U, (r,), (), t0, lhs == rhs, lhs, rhs)


def check_full_column(ctx: SchurContext, lam, V: Subspace) -> CaseReport:
    """For a shape filling every row of V: S_lam(V) equals (-1)^n pi(V)
    times the q-th power of the straight value at lam less its first column."""
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    spec, n = ctx.spec, V.dim
    lhs = ctx.schur_S(lam, V)
    reduced = ctx.schur_S(partitions.decrement_all(lam, n), V)
    rhs = (subspaces.pi_product(V) * reduced ** spec.q).scale(spec.sign(n))
    return _case("full-column-reduction", spec.q, V, lam, (), t0, lhs == rhs, lhs, rhs)


# Elementary lemmas --------------------------------------------------------


def check_elementary_lemmas(spec: FieldSpec, n: int, seed: int = 0, trials: int = 20) -> list[CaseReport]:
    """The small arithmetic facts at dimension n, with the per-field
    permutation-witness search at n = 1 only."""
    reports = _elementary_cases(spec, n, seed, trials)
    if n == 1:
        reports.extend(_check_perm_witness(spec.q))
    return reports


def _elementary_cases(spec: FieldSpec, n: int, seed: int, trials: int) -> list[CaseReport]:
    """Every elementary lemma but perm-witness, at dimension n. Per-field
    facts (power sums) are only emitted at n = 1 so a sweep does not repeat
    them per dimension."""
    rng = random.Random(f"elementary:{spec.to_text()}:{n}:{seed}")
    q = spec.q
    reports = []
    V = generic_space(spec, n)
    ring = V.ring

    if n == 1:
        t0 = time.perf_counter()
        bad_i = next((i for i in range(q - 1) if not power_sum(spec, i).is_zero()), None)
        reports.append(_case("power-sum-zero", q, 1, (), (), t0, bad_i is None,
                             lambda: str(power_sum(spec, bad_i)), "0",
                             basis=None if bad_i is None else f"i={bad_i}"))

    if n >= 1:
        t0 = time.perf_counter()
        lines = enumerate_lines(V)
        lhs = rhs = ring.zero
        for _ in range(trials):
            b = {L: _random_poly(ring, rng, max_terms=2, max_exp=4, allow_zero=True)
                 for L in lines}
            lhs = ring.zero
            for L in lines:
                lhs = lhs + b[L]
            rhs = ring.zero
            for w in enumerate_vectors(V):
                if w.terms:
                    rhs = rhs - b[span(ring, [w])]
            if lhs != rhs:
                break
        reports.append(_case("line-sum", q, V, (), (), t0, lhs == rhs, lhs, rhs))

    if n == 2:
        t0 = time.perf_counter()
        lhs = rhs = ring.zero
        for w in enumerate_vectors(V):
            if not w.terms:
                continue
            # multiplied out, not read off f_L: the case checks Wilson's theorem
            lhs = subspaces.coset_product(span(ring, [w]), Subspace.zero(ring))
            rhs = -(w ** (q - 1))
            if lhs != rhs:
                break
        reports.append(_case("pi-of-line", q, V, (), (), t0, lhs == rhs, lhs, rhs))

    if n >= 2:
        t0 = time.perf_counter()
        bad = None
        vectors = [w for w in enumerate_vectors(V) if w.terms]
        for k in range(1, n):
            for a in combinations_with_replacement(range(4), k):
                e = (q - 1) * sum(q**ai for ai in a)
                total = ring.zero
                for w in vectors:
                    total = total + w**e
                if not total.is_zero():
                    bad = (k, a)
                    break
            if bad:
                break
        reports.append(_case("vector-power-sum", q, V, (), (), t0, bad is None, total, "0",
                             basis=V.describe() + (" k={} a={}".format(*bad) if bad else "")))

    if 1 <= n <= 3:
        t0 = time.perf_counter()
        degree_bound = n * (q - 1)
        coeff_ring = ambient_ring(spec, 2)
        total = coeff_ring.zero
        for _ in range(trials):
            terms = []
            for _ in range(rng.randint(1, 5)):
                exps = _random_exponents(rng, n, degree_bound - 1)
                terms.append((exps, _random_poly(coeff_ring, rng, max_terms=2, max_exp=3)))
            total = coeff_ring.zero
            for point in product(spec.elements, repeat=n):
                for exps, coeff in terms:
                    factor = spec.one
                    for alpha, e in zip(point, exps):
                        factor = factor * alpha**e
                    total = total + coeff.scale(factor)
            if not total.is_zero():
                break
        reports.append(_case("low-degree-point-sum", q, n, (), (), t0, total.is_zero(), total, "0"))
    return reports


def _random_exponents(rng: random.Random, n: int, total_max: int) -> tuple[int, ...]:
    """A random exponent tuple with nonnegative entries summing to <= total_max."""
    if total_max <= 0:
        return (0,) * n
    exps = []
    left = rng.randint(0, total_max)
    for i in range(n):
        e = rng.randint(0, left) if i < n - 1 else left
        exps.append(e)
        left -= e
    return tuple(exps)


@functools.cache
def _perm_witness_search(witness, size: int):
    """Exhaustive witness search at one size over a fixed entry window: for
    strictly decreasing alpha, beta with alpha - beta in {0, 1} slotwise and
    any non-identity permutation sigma, witness(alpha, beta, sigma) must name
    a position where alpha_i - beta_sigma(i) falls outside {0, 1}.

    Returns None, or the first triple where it does not, as (alpha, beta,
    sigma, returned). The grid does not depend on q, so the search runs once
    per process for each witness function and size; a replaced witness
    function is a new key and gets a search of its own.
    """
    perms = [s for s in partitions.all_permutations(size) if s != tuple(range(size))]
    for beta in combinations(range(3, -4, -1), size):
        for bits in product((0, 1), repeat=size):
            alpha = tuple(b + d for b, d in zip(beta, bits))
            if any(alpha[i - 1] <= alpha[i] for i in range(1, size)):
                continue
            for sigma in perms:
                i = witness(alpha, beta, sigma)
                if i is None or alpha[i] - beta[sigma[i]] in (0, 1):
                    return alpha, beta, sigma, i
    return None


def _check_perm_witness(q: int) -> list[CaseReport]:
    """One perm-witness report per size 1..6, for field size q.

    The search (_perm_witness_search) is keyed by the perm_witness function
    in use when this runs, so every field gets the same cases; after the
    first field the search is remembered and millis is about 0. A failing
    case names the triple and what perm_witness returned.
    """
    witness = partitions.perm_witness
    reports = []
    for size in range(1, 7):
        t0 = time.perf_counter()
        bad = _perm_witness_search(witness, size)
        reports.append(_case("perm-witness", q, size, (), (), t0, bad is None,
                             lambda: "perm_witness({}, {}, {}) = {}".format(*bad),
                             "alpha_i - beta_sigma(i) outside {0, 1}"))
    return reports


# Structural properties ----------------------------------------------------


def _random_family(rng: random.Random, ring: PolyRing, vectors, n: int) -> tuple[list[Poly], Subspace]:
    """n random F_q-combinations of vectors, drawn again until they are
    independent; returns them and their span."""
    spec = ring.spec
    while True:
        family = []
        for _ in range(n):
            w = ring.zero
            for b in vectors:
                w = w + b.scale(spec.elements[rng.randrange(spec.q)])
            family.append(w)
        W = Subspace.span(ring, family)
        if W.dim == n:
            return family, W


def check_gl_invariance(ctx: SchurContext, lam, V: Subspace, seed: int, changes: int = 10) -> CaseReport:
    """The straight value is unchanged under invertible basis changes: on
    each random basis of V, the value on the generic space pushed onto that
    basis equals schur_S(lam, V). Needs len(lam) <= dim V."""
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    rng = random.Random(f"gl:{ctx.spec.to_text()}:{V.describe()}:{lam}:{seed}")
    spec = ctx.spec
    n = V.dim
    generic = ctx.schur_S(lam, generic_space(spec, n))
    base = changed = ctx.schur_S(lam, V)
    for _ in range(changes):
        vectors = _random_family(rng, V.ring, V.basis, n)[0]
        changed = evaluate_morphism(generic, vectors, target_ring=V.ring)
        if changed != base:
            break
    return _case("gl-invariance", spec.q, V, lam, (), t0, changed == base, changed, base)


def check_k_independence(ctx: SchurContext, lam, mu, V: Subspace) -> CaseReport:
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    mu = partitions.partition(mu)
    least = max(len(lam), len(mu))
    a = ctx.skew_S(lam, mu, V)
    b = ctx.skew_S(lam, mu, V, k=least + 1)
    return _case("k-independence", ctx.spec.q, V, lam, mu, t0, a == b, a, b)


def check_vanishing(ctx: SchurContext, lam, mu, V: Subspace, U: Subspace) -> list[CaseReport]:
    """Vanishing laws: skew is zero when mu is not contained in lam; the
    companion value is zero when some lam_i - mu_i falls outside 0..dim U."""
    reports = []
    lam = partitions.partition(lam)
    mu = partitions.partition(mu)
    if not partitions.contains(lam, mu):
        t0 = time.perf_counter()
        val = ctx.skew_S(lam, mu, V)
        reports.append(_case("vanishing", ctx.spec.q, V, lam, mu, t0, val.is_zero(), val, "0"))
    k = max(len(lam), len(mu), 1)
    if any(not 0 <= partitions.part(lam, i) - partitions.part(mu, i) <= U.dim
           for i in range(1, k + 1)):
        t0 = time.perf_counter()
        val = ctx.tilde_S(lam, mu, U)
        reports.append(_case("vanishing", ctx.spec.q, U, lam, mu, t0, val.is_zero(), val, "0",
                             basis="tilde:" + U.describe()))
    return reports


def check_division_round_trip(spec: FieldSpec, seed: int, pairs: int = 200) -> CaseReport:
    """exact_div inverts multiplication, and refuses a forced non-multiple."""
    t0 = time.perf_counter()
    rng = random.Random(f"divide:{spec.to_text()}:{seed}")
    ring = ambient_ring(spec, 2)
    # On failure: the quotient exact_div returned, and what it should have
    # given (a, or a NotDivisible refusal for a forced non-multiple).
    got = want = None
    for t in range(pairs):
        a = _random_poly(ring, rng, max_terms=3, max_exp=spec.q**2, allow_zero=True)
        b = _random_poly(ring, rng, max_terms=3, max_exp=spec.q**2)
        while not b.terms:
            b = _random_poly(ring, rng, max_terms=3, max_exp=spec.q**2)
        got = exact_div(a * b, b)
        if got != a:
            want = a
            break
        if t % 10 == 0 and b.total_degree():
            try:
                got = exact_div(a * b + ring.one, b)
                want = "NotDivisible"
                break
            except NotDivisible:
                pass
    return _case("division-round-trip", spec.q, 2, (), (), t0, want is None,
                 got, want, basis=f"pairs={pairs}")


def check_degree_formula(ctx: SchurContext, lam, V: Subspace) -> CaseReport:
    """The straight value is homogeneous of degree sum (q^lam_i - 1) q^(n-i)."""
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    q = ctx.spec.q
    n = V.dim
    val = ctx.schur_S(lam, V)
    expected = sum((q ** partitions.part(lam, i) - 1) * q ** (n - i) for i in range(1, n + 1))
    degs = val.degrees()
    ok = degs == {expected} or (expected == 0 and val.is_one())
    return _case("degree-formula", q, V, lam, (), t0, ok,
                 lambda: "degrees " + str(sorted(degs)), expected)


def check_functoriality(ctx: SchurContext, lam, n: int, ring: PolyRing, seed: int) -> CaseReport:
    """Substituting a random independent family commutes with taking values:
    the pushed-forward generic value equals the value on the spanned space."""
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    spec = ctx.spec
    rng = random.Random(f"func:{spec.to_text()}:{n}:{lam}:{seed}")
    images, W = _random_family(rng, ring, ring.gens(), n)
    pushed = evaluate_morphism(ctx.schur_S(lam, generic_space(spec, n)), images,
                               target_ring=ring)
    direct = ctx.schur_S(lam, W)
    return _case("functoriality", spec.q, W, lam, (), t0, pushed == direct, pushed, direct)


def check_coproduct_truncation(ctx: SchurContext, lam, mu, nu, V: Subspace, U: Subspace) -> CaseReport:
    """Addends at shapes outside the interval mu..lam vanish."""
    t0 = time.perf_counter()
    lam = partitions.partition(lam)
    mu = partitions.partition(mu)
    nu = partitions.partition(nu)
    if partitions.contains(lam, nu) and partitions.contains(nu, mu):
        raise ConfigInvalid(f"{nu} lies between {mu} and {lam}; pick an outside shape")
    term = sum_of_products(V.ring, [_coproduct_addend(ctx, lam, mu, nu, V, U)])
    return _case("coproduct-truncation", ctx.spec.q, V, lam, mu, t0, term.is_zero(), term, "0",
                 basis=f"{V.describe()} // {U.describe()} at nu={nu}")


# Identity table -----------------------------------------------------------


def _pair_grid(max_weight: int, max_len: int | None) -> list[tuple]:
    """All (lam, mu) with the stated weight/length caps and |mu| <= |lam|."""
    lams = partitions_up_to_weight(max_weight, max_len)
    return [(lam, mu) for lam in lams for mu in lams
            if partitions.weight(mu) <= partitions.weight(lam)]


def _weight_cap(cfg, n: int) -> int:
    """The weight cap of the structural grids: at most 2 from dimension 3 on."""
    return cfg.max_weight if n <= 2 else min(cfg.max_weight, 2)


def _window_fits(q: int, n: int, w: int) -> bool:
    """Whether a window's largest value H_w on n <= 2 generic coordinates,
    one term for n < 2 and (q^(w+1) - 1)/(q - 1) at n = 2, fits the term limit."""
    return n < 2 or (q ** (w + 1) - 1) // (q - 1) <= get_term_limit()


def _he_inverse_cases(cfg, ctx, V):
    n = V.dim
    if _window_fits(ctx.spec.q, n, 2 * n + 8):
        yield check_he_inverse(ctx, V, -(n + 4), n + 4)


def _factorization_cases(cfg, ctx, V):
    if _window_fits(ctx.spec.q, V.dim, 2 * V.dim + 6):
        for U in enumerate_subspaces(V):
            yield check_factorization(ctx, V, U)


def _truncation_cases(cfg, ctx):
    if cfg.max_dim >= 2:
        V = generic_space(ctx.spec, 2)
        U = span(V.ring, [V.ring.gen(0)])
        yield check_coproduct_truncation(ctx, (2,), (), (1, 1), V, U)
        yield check_coproduct_truncation(ctx, (1,), (1,), (), V, U)


@dataclass(frozen=True)
class Identity:
    """One row of IDENTITIES: the identity names it reports, its group, and
    its case grid.

    cases(cfg, ctx, V) yields the row's reports on V, for each swept n in
    min_n..max_n; V is generic_space(spec, n), spanned by all n variables
    of the ambient ring of its own size, and ctx is a fresh context for
    that n. A per_field row's cases(cfg, ctx) runs once per field instead,
    after every dimension, with a context of its own, and builds its own
    rings. A row that names several identities (a bundle) runs when any of
    them is chosen, and the sweep keeps the reports of the chosen ones.
    """

    names: tuple
    group: str
    cases: Callable
    min_n: int = 0
    max_n: int | None = None
    per_field: bool = False

    def runs_at(self, n: int) -> bool:
        return not self.per_field and self.min_n <= n and (self.max_n is None or n <= self.max_n)


# Grids name their checks at call time, so a replaced check_* is the one
# that runs. The window identities and the coproduct grid stop at dimension
# 2: their windows need one-row values of index up to dim + 10, which blow
# up combinatorially in three or more generic variables. See README.
IDENTITIES = (
    Identity(("vl-recursion",), "vl-recursion", lambda cfg, ctx, V: (
        check_vl_recursion(ctx, lam, mu, V) for lam, mu in _pair_grid(cfg.max_weight, V.dim - 1))),
    Identity(("straight-recursion",), "straight-recursion", lambda cfg, ctx, V: (
        check_straight_recursion(ctx, lam, V)
        for lam in partitions_up_to_weight(cfg.max_weight, V.dim - 1))),
    Identity(("flag-formula",), "flag-formula", lambda cfg, ctx, V: (
        check_flag_formula(ctx, lam, V) for lam in partitions_up_to_weight(cfg.max_weight, V.dim))),
    Identity(("pieri",), "pieri", lambda cfg, ctx, V: (
        check_pieri(ctx, lam, mu, V, L.basis[0])
        for L in enumerate_lines(V) for lam, mu in _pair_grid(cfg.max_weight, V.dim - 1))),
    Identity(("coproduct",), "coproduct", lambda cfg, ctx, V: (
        check_coproduct(ctx, lam, mu, V, U)
        for U in enumerate_subspaces(V) for lam, mu in _pair_grid(min(cfg.max_weight, 3), None)),
        max_n=2),
    Identity(("he-inverse",), "matrix-calculus", _he_inverse_cases, max_n=2),
    Identity(("h-factorization",), "matrix-calculus", _factorization_cases, max_n=2),
    Identity(("cauchy-binet", "sign-scaled-det", "zero-block-det"), "matrix-calculus",
             lambda cfg, ctx: check_matrix_lemmas(ctx.spec, cfg.seed, trials=cfg.trials),
             per_field=True),
    Identity(("quotient-tower",), "subspace-calculus", lambda cfg, ctx, V: (
        check_quotient_tower(V, U, T, ctx.spec.q)
        for U in enumerate_subspaces(V) for T in enumerate_subspaces(U))),
    Identity(("coset-product",), "subspace-calculus", lambda cfg, ctx, V: (
        check_coset_product(U, T, ctx.spec.q)
        for U in enumerate_subspaces(V) for T in enumerate_subspaces(U))),
    Identity(("pi-flag-product",), "subspace-calculus", lambda cfg, ctx, V: (
        check_pi_flag_product(flag, ctx.spec.q) for flag in enumerate_flags(V)), min_n=1),
    Identity(("hook-step",), "subspace-calculus", lambda cfg, ctx, V: (
        check_hook_step(ctx, L, r) for L in enumerate_lines(V) for r in range(1, 4)), min_n=1),
    Identity(("full-column-reduction",), "subspace-calculus", lambda cfg, ctx, V: (
        check_full_column(ctx, lam, V)
        for lam in partitions_up_to_weight(cfg.max_weight, V.dim) if len(lam) == V.dim), min_n=1),
    # elementary runs at n = 1..3 whatever min_dim is
    Identity(("power-sum-zero", "line-sum", "pi-of-line", "low-degree-point-sum",
              "vector-power-sum"), "elementary", lambda cfg, ctx: (
        rep for n in range(1, min(3, max(cfg.max_dim, 1)) + 1)
        for rep in _elementary_cases(ctx.spec, n, cfg.seed, cfg.trials)),
        per_field=True),
    Identity(("perm-witness",), "elementary", lambda cfg, ctx: _check_perm_witness(ctx.spec.q),
             per_field=True),
    Identity(("gl-invariance",), "structural", lambda cfg, ctx, V: (
        check_gl_invariance(ctx, lam, V, cfg.seed)
        for lam in partitions_up_to_weight(_weight_cap(cfg, V.dim), V.dim)), min_n=1),
    Identity(("k-independence",), "structural", lambda cfg, ctx, V: (
        check_k_independence(ctx, lam, mu, V)
        for lam, mu in _pair_grid(_weight_cap(cfg, V.dim), V.dim))),
    Identity(("vanishing",), "structural", lambda cfg, ctx, V: (
        rep for lam, mu in _pair_grid(min(cfg.max_weight, 3), None)
        for rep in check_vanishing(ctx, lam, mu, V, V))),
    Identity(("division-round-trip",), "structural", lambda cfg, ctx: (
        check_division_round_trip(ctx.spec, cfg.seed, pairs=cfg.trials),), per_field=True),
    Identity(("degree-formula",), "structural", lambda cfg, ctx, V: (
        check_degree_formula(ctx, lam, V)
        for lam in partitions_up_to_weight(_weight_cap(cfg, V.dim), V.dim)), min_n=1),
    # the random family spans a proper subspace of the widest swept ring
    Identity(("functoriality",), "structural", lambda cfg, ctx, V: (
        check_functoriality(ctx, lam, V.dim, ambient_ring(ctx.spec, max(cfg.max_dim, 1)),
                            cfg.seed)
        for lam in partitions_up_to_weight(min(cfg.max_weight, 3), V.dim)), min_n=1, max_n=2),
    Identity(("coproduct-truncation",), "structural", _truncation_cases, per_field=True),
)

GROUPS = {group: tuple(name for row in IDENTITIES if row.group == group for name in row.names)
          for group in dict.fromkeys(row.group for row in IDENTITIES)}

ALL_IDENTITIES = tuple(name for row in IDENTITIES for name in row.names)


# Sweep driver -------------------------------------------------------------


@dataclass
class SweepConfig:
    """Grid description for run_sweep; validate() checks every type and bound."""

    fields: tuple = ("q=2", "q=3")
    min_dim: int = 0
    max_dim: int = 3
    max_weight: int = 4
    identities: tuple = ("all",)
    seed: int = 0
    trials: int = 20
    ceiling: int = DEFAULT_ENUMERATION_CEILING

    def selected(self) -> set:
        chosen = set()
        for name in self.identities:
            if name == "all":
                chosen.update(ALL_IDENTITIES)
            elif name in GROUPS:
                chosen.update(GROUPS[name])
            elif name in ALL_IDENTITIES:
                chosen.add(name)
            else:
                raise ConfigInvalid(f"unknown identity {name!r}")
        return chosen

    def validate(self) -> None:
        for key in ("fields", "identities"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
                raise ConfigInvalid(f"{key} must be a list of strings")
        for key in ("min_dim", "max_dim", "max_weight", "seed", "trials", "ceiling"):
            # JSON true and false load as bool, a subclass of int
            if type(getattr(self, key)) is not int:
                raise ConfigInvalid(f"{key} must be an integer")
        if not self.fields:
            raise ConfigInvalid("no field specs given")
        if not self.identities:
            raise ConfigInvalid("no identities given")
        if self.max_dim > len(AMBIENT_NAMES):
            raise ConfigInvalid(
                f"max_dim {self.max_dim} is over {len(AMBIENT_NAMES)}, the most "
                "variables an ambient ring has"
            )
        seen = set()
        for text in self.fields:
            try:
                spec = parse_field_spec(text)
            except QschurError as exc:
                raise ConfigInvalid(f"bad field spec {text!r}: {exc}") from exc
            if spec in seen:
                raise ConfigInvalid(f"field {spec.to_text()} is listed twice")
            seen.add(spec)
            if spec.q**self.max_dim > self.ceiling:
                raise ConfigInvalid(
                    f"dimension {self.max_dim} at q={spec.q} exceeds the "
                    f"enumeration ceiling {self.ceiling}"
                )
        if not 0 <= self.min_dim <= self.max_dim:
            raise ConfigInvalid(
                f"need 0 <= min_dim <= max_dim, got {self.min_dim}..{self.max_dim}"
            )
        if self.max_weight < 0:
            raise ConfigInvalid(f"max_weight must be nonnegative, got {self.max_weight}")
        if self.trials < 0:
            raise ConfigInvalid(f"trials must be nonnegative, got {self.trials}")
        self.selected()

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("fields", "identities"):
            value = kwargs.get(key)
            if isinstance(value, (str, list)):
                kwargs[key] = (value,) if isinstance(value, str) else tuple(value)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def run_sweep(cfg: SweepConfig) -> dict:
    """Run the selected identities over the configured grid.

    Returns {"cases": [...], "aggregate": {total, passed, failed, seed}} with
    cases sorted canonically. Deterministic for a fixed config apart from the
    millis timing fields. Each swept space is the generic space of its
    dimension, with a context of its own (see Identity). cfg.ceiling bounds
    every enumeration, annihilator and quotient; the previous ceiling is
    restored afterwards.
    """
    cfg.validate()
    saved = subspaces.get_enumeration_ceiling()
    subspaces.set_enumeration_ceiling(cfg.ceiling)
    try:
        reports = _sweep_reports(cfg)
    finally:
        subspaces.set_enumeration_ceiling(saved)
    reports.sort(key=CaseReport.sort_key)
    passed = sum(1 for r in reports if r.status == "pass")
    return {
        "cases": [r.to_dict() for r in reports],
        "aggregate": {
            "total": len(reports),
            "passed": passed,
            "failed": len(reports) - passed,
            "seed": cfg.seed,
        },
    }


def _sweep_reports(cfg: SweepConfig) -> list:
    """The unsorted case reports of run_sweep: per field, each chosen row of
    IDENTITIES on every swept dimension, then the per-field rows."""
    chosen = cfg.selected()
    rows = [row for row in IDENTITIES if chosen.intersection(row.names)]
    reports: list[CaseReport] = []
    for ftext in cfg.fields:
        spec = parse_field_spec(ftext)
        found: list[CaseReport] = []
        # one context per dimension: spaces of different dimensions live
        # in different rings, so a context could share little across them
        for n in range(cfg.min_dim, cfg.max_dim + 1):
            ctx, V = SchurContext(spec), generic_space(spec, n)
            for row in rows:
                if row.runs_at(n):
                    found.extend(row.cases(cfg, ctx, V))
        ctx = SchurContext(spec)
        for row in rows:
            if row.per_field:
                found.extend(row.cases(cfg, ctx))
        if spec.e > 1:
            # q alone does not tell two moduli of one field size apart
            for rep in found:
                rep.basis = f"{spec.to_text()} {rep.basis}".rstrip()
        reports.extend(rep for rep in found if rep.identity in chosen)
    return reports
