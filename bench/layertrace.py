"""Outside-in layer trace for qschur.

Tracer.install() wraps the public functions of each layer (gf, ppoly,
partitions, fmatrix, subspaces, schur, verify) by rebinding every
``qschur.*`` module attribute and class attribute that refers to them, so
calls made through names imported with ``from ... import`` are caught too.
uninstall() puts every original back.

Each wrapped call becomes a span (name, start, end, parent) kept in memory.
The highest-frequency leaves (Poly.__mul__, Poly.__add__, Poly.frobenius,
perm_witness) are kept as per-name aggregates instead; their time is charged
to the enclosing span so that self times stay exact. Spans are grouped in
phases (the benchmark's set-up and its timed run), each under a root span.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

from qschur import fmatrix, gf, partitions, ppoly, schur, subspaces, verify

# Layers that run inside the timed section; gf only runs in set-up.
RUN_LAYERS = ("ppoly", "partitions", "fmatrix", "subspaces", "schur", "verify")

# The cached SchurContext methods and their parameters; a repeated key is a
# cache hit seen from outside.
_ARGS = {
    "schur_S": ("lam", "V"),
    "skew_S": ("lam", "mu", "V", "k"),
    "universal_schur": ("lam", "n"),
    "universal_skew": ("lam", "mu", "k", "n"),
}
_CACHED = tuple(_ARGS)


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus its children's durations
    and the aggregated leaf time charged to it (all in ns)."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] - leaf
            for i, (_, start, end, _, leaf) in enumerate(spans)]


class Phase:
    """Everything recorded while one root span is open."""

    def __init__(self, name: str):
        self.name = name
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, leaf_ns]
        self.leaves: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # calls, ns
        self.counts: dict[str, int] = defaultdict(int)
        self.largest_terms = 0

    def by_name(self) -> tuple[dict[str, int], dict[str, int]]:
        """(self ns, calls) per span name, leaves included."""
        own: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for rec, ns in zip(self.spans, self_times(self.spans)):
            own[rec[0]] += ns
            calls[rec[0]] += 1
        for name, (n, ns) in self.leaves.items():
            own[name] += ns
            calls[name] += n
        return own, calls


class Tracer:
    def __init__(self):
        self.phases: list[Phase] = []
        self.cur: Phase | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen: dict[tuple[int, str], set] = defaultdict(set)

    # Phases ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        """Open a phase and its root span ``bench.<name>``."""
        self.cur = Phase(name)
        self.phases.append(self.cur)
        self._stack = [0]
        self.cur.spans.append([f"bench.{name}", perf_counter_ns(), 0, -1, 0])

    def end(self) -> None:
        self.cur.spans[0][2] = perf_counter_ns()
        self._stack = []
        self.cur = None

    def phase(self, name: str) -> Phase:
        return next(p for p in self.phases if p.name == name)

    # Wrappers ------------------------------------------------------------

    def _span(self, name, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            ph = tracer.cur
            if ph is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0, 0, stack[-1], 0]
            stack.append(len(ph.spans))
            ph.spans.append(rec)
            ok = False
            rec[1] = perf_counter_ns()
            try:
                res = fn(*args, **kwargs)
                ok = True
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
                if hook is not None:
                    hook(ph, args, kwargs, res if ok else None, ok)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            ph = tracer.cur
            if ph is None:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                agg = ph.leaves[name]
                agg[0] += 1
                agg[1] += dt
                ph.spans[tracer._stack[-1]][4] += dt
            if hook is not None:
                hook(ph, args, kwargs, res, True)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    # Counters ------------------------------------------------------------

    @staticmethod
    def _hooks() -> dict:
        """Per-name counters, run after the wrapped call returns."""
        Poly = ppoly.Poly
        variable_images = ppoly._variable_images

        def size(ph, args, kwargs, res, ok):
            if isinstance(res, Poly) and len(res.terms) > ph.largest_terms:
                ph.largest_terms = len(res.terms)

        def mul(ph, args, kwargs, res, ok):
            if not isinstance(res, Poly):
                return
            if isinstance(args[1], Poly):
                ph.counts["ppoly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
            ph.counts["ppoly.mul.terms_out"] += len(res.terms)
            size(ph, args, kwargs, res, ok)

        def frob(ph, args, kwargs, res, ok):
            if args[1]:
                ph.counts["ppoly.frobenius.terms"] += len(args[0].terms)
            size(ph, args, kwargs, res, ok)

        def morph(ph, args, kwargs, res, ok):
            images = args[1] if len(args) > 1 else kwargs["images"]
            if variable_images(images) is not None:
                ph.counts["ppoly.evaluate_morphism.relabel"] += 1
            if ok:
                ph.counts["ppoly.evaluate_morphism.terms_out"] += len(res.terms)
                size(ph, args, kwargs, res, ok)

        def div(ph, args, kwargs, res, ok):
            if ok:
                ph.counts["ppoly.exact_div.quotient_terms"] += len(res.terms)
                size(ph, args, kwargs, res, ok)

        def det(ph, args, kwargs, res, ok):
            ph.counts["fmatrix.det.entries"] += args[0].rows * args[0].cols

        def window(ph, args, kwargs, res, ok):
            lo, hi = args[2], args[3]
            ph.counts["fmatrix.window_product.cells"] += (hi - lo + 1) ** 2

        def items(ph, args, kwargs, res, ok):
            if ok:
                ph.counts["subspaces.enumerate.items"] += len(res)

        def check(ph, args, kwargs, res, ok):
            reports = res if isinstance(res, list) else [res]
            if not ok or any(r.status != "pass" for r in reports):
                ph.counts["verify.check.failed"] += 1

        return {"ppoly.mul": mul, "ppoly.add": size, "ppoly.frobenius": frob,
                "ppoly.pow": size, "ppoly.evaluate_morphism": morph,
                "ppoly.exact_div": div, "fmatrix.det": det,
                "fmatrix.window_product": window, "subspaces.enumerate": items,
                "verify.check": check}

    def _repeat_hook(self, method: str):
        """Count calls whose cache key was already seen in that context."""
        seen = self._seen
        part = partitions.partition
        where = "V" if method in ("schur_S", "skew_S") else "n"

        def key(args, kwargs):
            a = dict(zip(_ARGS[method], args[1:]), **kwargs)
            lam = part(a["lam"])
            if method in ("schur_S", "universal_schur"):
                return (lam, a[where])
            mu = part(a["mu"])
            return (lam, mu, a.get("k") or max(len(lam), len(mu)), a[where])

        def hook(ph, args, kwargs, res, ok):
            ctx = args[0]
            keys = seen[(id(ctx), method)]
            kk = key(args, kwargs)
            if kk in keys:
                ph.counts[f"schur.{method}.repeats"] += 1
            else:
                keys.add(kk)
        return hook

    # Install -------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, leaf?) for every wrapped callable."""
        out = [
            (ppoly.Poly, "__mul__", "ppoly.mul", True),
            (ppoly.Poly, "__add__", "ppoly.add", True),
            (ppoly.Poly, "frobenius", "ppoly.frobenius", True),
            (ppoly.Poly, "__pow__", "ppoly.pow", False),
            (ppoly, "exact_div", "ppoly.exact_div", False),
            (ppoly, "evaluate_morphism", "ppoly.evaluate_morphism", False),
            (ppoly.UniPoly, "__mul__", "ppoly.unipoly_mul", False),
            (ppoly.UniPoly, "apply", "ppoly.unipoly_apply", False),
            (gf, "field_spec", "gf.field_spec", False),
            (partitions, "perm_witness", "partitions.perm_witness", True),
            (subspaces.Subspace, "span", "subspaces.span", False),
        ]
        for fname in ("partitions_up_to_weight", "subpartitions_between",
                      "vertical_strip_subpartitions"):
            out.append((partitions, fname, "partitions.grid", False))
        for fname in ("det", "window_product", "window_of", "sub_minor",
                      "cauchy_binet", "scale_sign_det", "too_many_zeroes_check"):
            out.append((fmatrix, fname, f"fmatrix.{fname}", False))
        for fname in ("internal_quotient", "additive_poly", "pi_product",
                      "quotient_tower_check", "coset_product_check"):
            out.append((subspaces, fname, f"subspaces.{fname}", False))
        for fname in ("enumerate_vectors", "enumerate_lines", "enumerate_flags",
                      "enumerate_subspaces"):
            out.append((subspaces, fname, "subspaces.enumerate", False))
        for mname, val in vars(schur.SchurContext).items():
            if callable(val) and not mname.startswith("_"):
                out.append((schur.SchurContext, mname, f"schur.{mname}", False))
        for fname, val in vars(verify).items():
            if fname.startswith("check_") and callable(val):
                out.append((verify, fname, "verify.check", False))
        return out

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qschur" or n.startswith("qschur."))]
        for owner, attr, name, leaf in self._targets():
            raw = vars(owner)[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            hook = hooks.get(name)
            if name.startswith("schur.") and attr in _CACHED:
                hook = self._repeat_hook(attr)
            wrapped = (self._leaf if leaf else self._span)(name, fn, hook)
            new = classmethod(wrapped) if is_cm else wrapped
            if isinstance(owner, type):
                # Every class attribute bound to the function (Poly.__radd__
                # is Poly.__add__).
                for a, v in list(vars(owner).items()):
                    if v is raw:
                        self._undo.append((owner, a, raw))
                        setattr(owner, a, new)
            else:
                for mod in modules:
                    for a, v in list(vars(mod).items()):
                        if v is fn:
                            self._undo.append((mod, a, fn))
                            setattr(mod, a, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # Output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every phase's spans and aggregates as gzipped JSON."""
        data = [{"phase": p.name,
                 "spans": p.spans,
                 "leaves": dict(p.leaves),
                 "counts": dict(p.counts),
                 "largest_terms": p.largest_terms} for p in self.phases]
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of the run phase (gf.field_spec: set-up phase)."""
    run = tracer.phase("run")
    own, calls = run.by_name()
    c = run.counts
    s = 1e-9
    m: dict[str, float] = {}

    def share(num, den):
        return num / den if den else 0.0

    m["ppoly.mul.calls"] = calls["ppoly.mul"]
    m["ppoly.mul.term_pairs"] = c["ppoly.mul.term_pairs"]
    m["ppoly.mul.terms_out"] = c["ppoly.mul.terms_out"]
    m["ppoly.mul.yield"] = share(c["ppoly.mul.terms_out"], c["ppoly.mul.term_pairs"])
    m["ppoly.mul.self_s"] = own["ppoly.mul"] * s
    m["ppoly.exact_div.calls"] = calls["ppoly.exact_div"]
    m["ppoly.exact_div.quotient_terms"] = c["ppoly.exact_div.quotient_terms"]
    m["ppoly.exact_div.self_s"] = own["ppoly.exact_div"] * s
    m["ppoly.frobenius.calls"] = calls["ppoly.frobenius"]
    m["ppoly.frobenius.terms"] = c["ppoly.frobenius.terms"]
    m["ppoly.frobenius.self_s"] = own["ppoly.frobenius"] * s
    n_morph = calls["ppoly.evaluate_morphism"]
    m["ppoly.evaluate_morphism.calls"] = n_morph
    m["ppoly.evaluate_morphism.relabel_share"] = share(c["ppoly.evaluate_morphism.relabel"], n_morph)
    m["ppoly.evaluate_morphism.terms_out"] = c["ppoly.evaluate_morphism.terms_out"]
    m["ppoly.evaluate_morphism.self_s"] = own["ppoly.evaluate_morphism"] * s
    m["ppoly.add.calls"] = calls["ppoly.add"]
    m["ppoly.add.self_s"] = own["ppoly.add"] * s
    m["ppoly.unipoly_mul.self_s"] = own["ppoly.unipoly_mul"] * s
    m["ppoly.largest_terms"] = run.largest_terms
    m["fmatrix.det.calls"] = calls["fmatrix.det"]
    m["fmatrix.det.entries"] = c["fmatrix.det.entries"]
    m["fmatrix.det.self_s"] = own["fmatrix.det"] * s
    m["fmatrix.window_product.calls"] = calls["fmatrix.window_product"]
    m["fmatrix.window_product.cells"] = c["fmatrix.window_product.cells"]
    m["fmatrix.window_product.self_s"] = own["fmatrix.window_product"] * s
    for meth in _CACHED:
        n = calls[f"schur.{meth}"]
        m[f"schur.{meth}.calls"] = n
        m[f"schur.{meth}.repeat_share"] = share(c[f"schur.{meth}.repeats"], n)
    m["schur.tilde_S.calls"] = calls["schur.tilde_S"]
    for fname in ("internal_quotient", "additive_poly", "enumerate", "span", "pi_product"):
        m[f"subspaces.{fname}.calls"] = calls[f"subspaces.{fname}"]
        m[f"subspaces.{fname}.self_s"] = own[f"subspaces.{fname}"] * s
    m["subspaces.enumerate.items"] = c["subspaces.enumerate.items"]
    m["partitions.perm_witness.calls"] = calls["partitions.perm_witness"]
    m["partitions.perm_witness.self_s"] = own["partitions.perm_witness"] * s
    m["partitions.grid.self_s"] = own["partitions.grid"] * s
    setup = tracer.phase("setup")
    setup_own, setup_calls = setup.by_name()
    m["gf.field_spec.calls"] = setup_calls["gf.field_spec"]
    m["gf.field_spec.self_s"] = setup_own["gf.field_spec"] * s
    m["verify.check.calls"] = calls["verify.check"]
    m["verify.check.self_s"] = own["verify.check"] * s
    m["verify.check.failed"] = c["verify.check.failed"]
    # Layer totals: with the benchmark's own glue they add up to the traced
    # run's wall time.
    for layer in RUN_LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer) * s
    m["trace.glue_s"] = own["bench.run"] * s
    root = run.spans[0]
    m["trace.wall_s"] = (root[2] - root[1]) * s
    return m
