"""The benchmark's three workloads, built from the public qschur API.

build(name, seed) returns a Workload: the ordered list of check calls a run
times, and a thunk that renders the digest values afterwards through the
same SchurContexts. Each call is one public ``qschur.verify.check_*``
invocation; calls returning a list of reports still count as one call.

The thunks look the check functions up on the ``qschur.verify`` module when
they run, so the layer tracer's wrappers apply to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from qschur import partitions, verify
from qschur.gf import parse_field_spec
from qschur.ppoly import ambient_ring
from qschur.schur import SchurContext
from qschur.subspaces import enumerate_flags, enumerate_lines, enumerate_subspaces, internal_quotient, span

# The three randomized matrix lemmas run this many trials per field, as the
# acceptance criterion does; the other randomized checks keep the default
# `qschur verify` trial count.
MATRIX_TRIALS = 50
SWEEP_TRIALS = 20


@dataclass
class Workload:
    calls: list[tuple[str, Callable]]
    digest_values: Callable[[], list]  # Polys whose str() the digest covers


def pair_grid(max_weight: int, max_len: int | None) -> list[tuple]:
    """All (lam, mu) within the caps with |mu| <= |lam|, as run_sweep pairs them."""
    lams = partitions.partitions_up_to_weight(max_weight, max_len)
    return [(lam, mu) for lam in lams for mu in lams
            if partitions.weight(mu) <= partitions.weight(lam)]


def _space(ring, n):
    return span(ring, list(ring.gens())[:n])


def _sweep_field(ftext: str, dims: range, extra_dims: range, seed: int, calls: list):
    """One field of the default `qschur verify` grid, with run_sweep's caps.

    `extra_dims` get the subspace-calculus identities only.
    """
    spec = parse_field_spec(ftext)
    q = spec.q
    ctx = SchurContext(spec)
    ring = ambient_ring(spec, 3)
    max_w = 4
    dim_cap = 2
    add = calls.append
    v = verify
    for n in list(dims) + list(extra_dims):
        V = _space(ring, n)
        full = n in dims
        tag = f"q={q} n={n}"
        if full and n >= 1:
            for lam, mu in pair_grid(max_w, n - 1):
                add((f"vl-recursion {tag}", lambda lam=lam, mu=mu, V=V: v.check_vl_recursion(ctx, lam, mu, V)))
            for lam in partitions.partitions_up_to_weight(max_w, n - 1):
                add((f"straight-recursion {tag}", lambda lam=lam, V=V: v.check_straight_recursion(ctx, lam, V)))
        if full:
            for lam in partitions.partitions_up_to_weight(max_w, n):
                add((f"flag-formula {tag}", lambda lam=lam, V=V: v.check_flag_formula(ctx, lam, V)))
        if full and n >= 1:
            grid = pair_grid(max_w, n - 1)
            for L in enumerate_lines(V):
                ell = L.basis[0]
                for lam, mu in grid:
                    add((f"pieri {tag}", lambda lam=lam, mu=mu, V=V, ell=ell: v.check_pieri(ctx, lam, mu, V, ell)))
        if full and n <= dim_cap:
            grid = pair_grid(min(max_w, 3), None)
            for U in enumerate_subspaces(V):
                for lam, mu in grid:
                    add((f"coproduct {tag}", lambda lam=lam, mu=mu, V=V, U=U: v.check_coproduct(ctx, lam, mu, V, U)))
        for U in enumerate_subspaces(V):
            for T in enumerate_subspaces(U):
                add((f"quotient-tower {tag}", lambda V=V, U=U, T=T: v.check_quotient_tower(V, U, T, q)))
        for U in enumerate_subspaces(V):
            for T in enumerate_subspaces(U):
                add((f"coset-product {tag}", lambda U=U, T=T: v.check_coset_product(U, T, q)))
        if n >= 1:
            for flag in enumerate_flags(V):
                add((f"pi-flag-product {tag}", lambda flag=flag: v.check_pi_flag_product(flag, q)))
            for L in enumerate_lines(V):
                for r in range(1, 4):
                    add((f"hook-step {tag}", lambda L=L, r=r: v.check_hook_step(ctx, L, r)))
            for lam in partitions.partitions_up_to_weight(max_w, n):
                if len(lam) == n and partitions.part(lam, n) >= 1:
                    add((f"full-column-reduction {tag}", lambda lam=lam, V=V: v.check_full_column(ctx, lam, V)))
        if not full:
            continue
        cap = max_w if n <= 2 else min(max_w, 2)
        if n >= 1:
            for lam in partitions.partitions_up_to_weight(cap, n):
                add((f"gl-invariance {tag}", lambda lam=lam, V=V: v.check_gl_invariance(ctx, lam, V, seed)))
        for lam, mu in pair_grid(cap, n):
            add((f"k-independence {tag}", lambda lam=lam, mu=mu, V=V: v.check_k_independence(ctx, lam, mu, V)))
        for lam, mu in pair_grid(min(max_w, 3), None):
            add((f"vanishing {tag}", lambda lam=lam, mu=mu, V=V: v.check_vanishing(ctx, lam, mu, V, V)))
        if n >= 1:
            for lam in partitions.partitions_up_to_weight(cap, n):
                add((f"degree-formula {tag}", lambda lam=lam, V=V: v.check_degree_formula(ctx, lam, V)))
        if 1 <= n <= 2:
            for lam in partitions.partitions_up_to_weight(min(max_w, 3), n):
                add((f"functoriality {tag}", lambda lam=lam, n=n: v.check_functoriality(ctx, lam, n, ring, seed)))

    for n in range(1, min(3, dims.stop - 1) + 1):
        add((f"elementary q={q} n={n}",
             lambda n=n: v.check_elementary_lemmas(spec, n, seed=seed, trials=SWEEP_TRIALS)))
    add((f"matrix-lemmas q={q}", lambda: v.check_matrix_lemmas(spec, seed, trials=MATRIX_TRIALS)))
    add((f"division-round-trip q={q}", lambda: v.check_division_round_trip(spec, seed, pairs=SWEEP_TRIALS)))
    V2 = _space(ring, 2)
    U = span(ring, [ring.gen(0)])
    add((f"coproduct-truncation q={q}", lambda: v.check_coproduct_truncation(ctx, (2,), (), (1, 1), V2, U)))
    add((f"coproduct-truncation q={q}", lambda: v.check_coproduct_truncation(ctx, (1,), (1,), (), V2, U)))
    return ctx, ring


def _sweep(seed: int) -> Workload:
    calls: list = []
    ctx2, ring2 = _sweep_field("q=2", range(0, 4), range(0), seed, calls)
    ctx3, ring3 = _sweep_field("q=3", range(0, 3), range(3, 4), seed, calls)

    def digest_values():
        V2, V3 = _space(ring2, 3), _space(ring3, 2)
        W3 = _space(ring3, 3)
        return [
            ctx2.schur_S((2, 1), V2),
            ctx2.skew_S((3, 1), (1,), V2),
            ctx3.schur_S((2, 1), V3),
            ctx3.skew_S((2, 2), (1,), V3),
            *internal_quotient(W3, span(ring3, [ring3.gen(0) + ring3.gen(2)])).basis,
        ]

    return Workload(calls, digest_values)


def _dense_window(seed: int) -> Workload:
    spec2, spec3 = parse_field_spec("q=2"), parse_field_spec("q=3")
    ctx2, ctx3 = SchurContext(spec2), SchurContext(spec3)
    ring2, ring3 = ambient_ring(spec2, 2), ambient_ring(spec3, 2)
    V2, V3 = _space(ring2, 2), _space(ring3, 2)
    v = verify
    calls = [
        ("he-inverse q=2 [-6,6]", lambda: v.check_he_inverse(ctx2, V2, -6, 6)),
        ("he-inverse q=3 [-5,5]", lambda: v.check_he_inverse(ctx3, V3, -5, 5)),
    ]
    for U in enumerate_subspaces(V2):
        calls.append(("h-factorization q=2", lambda U=U: v.check_factorization(ctx2, V2, U)))

    def digest_values():
        return [ctx2.h_r(12, V2), ctx2.e_r(2, V2), ctx3.h_r(10, V3), ctx3.h_r(7, V3)]

    return Workload(calls, digest_values)


def _line_recursion(seed: int) -> Workload:
    spec = parse_field_spec("q=3")
    ctx = SchurContext(spec)
    ring = ambient_ring(spec, 3)
    V = _space(ring, 3)
    v = verify
    pairs = pair_grid(3, 2)
    calls = []
    for lam, mu in pairs:
        calls.append(("vl-recursion", lambda lam=lam, mu=mu: v.check_vl_recursion(ctx, lam, mu, V)))
    for lam in partitions.partitions_up_to_weight(3, 2):
        calls.append(("straight-recursion", lambda lam=lam: v.check_straight_recursion(ctx, lam, V)))
    for L in enumerate_lines(V):
        ell = L.basis[0]
        for lam, mu in pairs:
            calls.append(("pieri", lambda lam=lam, mu=mu, ell=ell: v.check_pieri(ctx, lam, mu, V, ell)))
    for lam in partitions.partitions_up_to_weight(3, 3):
        calls.append(("flag-formula", lambda lam=lam: v.check_flag_formula(ctx, lam, V)))
    # gl-invariance stops at weight 1: at (2,) one call costs 3.0 to 7.4 s
    # depending on the seed's random bases, which would swamp the rest.
    for lam in partitions.partitions_up_to_weight(1, 3):
        calls.append(("gl-invariance", lambda lam=lam: v.check_gl_invariance(ctx, lam, V, seed)))

    def digest_values():
        Q = internal_quotient(V, span(ring, [ring.gen(0) + ring.gen(1) - ring.gen(2)]))
        return [*Q.basis, ctx.schur_S((2, 1), V), ctx.schur_S((3,), Q), ctx.skew_S((2, 1), (1,), Q)]

    return Workload(calls, digest_values)


_BUILDERS = {"sweep": _sweep, "dense-window": _dense_window, "line-recursion": _line_recursion}


def build(name: str, seed: int) -> Workload:
    return _BUILDERS[name](seed)
