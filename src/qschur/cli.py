"""Command-line front end.

Subcommands: compute {S | skew | tilde | H | E | pi | f}, quotient, lines,
flags, verify. Exit codes: 0 on success, 1 when a verify sweep reports a
failing identity, 2 for usage and input-grammar errors, 3 for violated
mathematical preconditions, 4 for an unexpected internal error. Text output
is deterministic byte for byte; JSON verify reports carry wall-time millis,
which is the one field that varies between runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import partitions
from .errors import ConfigInvalid, InvalidFieldSpec, PolyParseError, QschurError
from .gf import parse_field_spec
from .ppoly import AMBIENT_NAMES, ambient_ring, get_term_limit, set_term_limit
from .schur import SchurContext
from .subspaces import (
    additive_poly,
    enumerate_flags,
    enumerate_lines,
    internal_quotient,
    pi_product,
    span,
)
from .verify import GROUPS, SweepConfig, run_sweep


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def _parse_partition(text: str | None) -> tuple:
    if not text:
        return ()
    try:
        parts = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise PolyParseError(f"bad partition {text!r}; expected e.g. 3,1,1") from None
    try:
        return partitions.partition(parts)
    except ValueError as exc:
        raise PolyParseError(f"bad partition {text!r}: {exc}") from None


def _parse_basis(ring, text: str | None) -> list:
    if text is None:
        raise PolyParseError("--basis is required for this command")
    pieces = [piece.strip() for piece in text.split(";")]
    return [ring.parse(piece) for piece in pieces if piece]


def _ring_size(*texts: str | None) -> int:
    """Variables of the smallest ambient ring naming every variable in the
    texts; all of them when a name is not an ambient variable, so that the
    parser reports it against the full alphabet."""
    names = {nm for text in texts if text for nm in _NAME_RE.findall(text)}
    if not names <= set(AMBIENT_NAMES):
        return len(AMBIENT_NAMES)
    return max((AMBIENT_NAMES.index(nm) + 1 for nm in names), default=0)


def _space(args, sub: str | None = None):
    spec = parse_field_spec(args.field)
    ring = ambient_ring(spec, _ring_size(args.basis, sub))
    V = span(ring, _parse_basis(ring, args.basis))
    return spec, ring, V


def _emit(args, text: str, payload: dict) -> int:
    if args.format == "json":
        print(json.dumps(payload))
    elif text:  # an empty listing prints nothing, not a blank line
        print(text)
    return 0


def cmd_compute(args) -> int:
    spec, ring, V = _space(args)
    ctx = SchurContext(spec)
    what = args.what
    if what == "S":
        value = ctx.schur_S(_parse_partition(args.lam), V)
    elif what == "skew":
        value = ctx.skew_S(_parse_partition(args.lam), _parse_partition(args.mu), V)
    elif what == "tilde":
        value = ctx.tilde_S(_parse_partition(args.lam), _parse_partition(args.mu), V)
    elif what == "H":
        value = ctx.h_r(args.r, V)
    elif what == "E":
        value = ctx.e_r(args.r, V)
    elif what == "pi":
        value = pi_product(V)
    else:  # f
        fv = additive_poly(V)
        return _emit(args, str(fv), {
            "field": spec.to_text(),
            "basis": V.describe(),
            "value": str(fv),
            "fractional_exponents": any(c.has_fractional_exponents()
                                        for c in fv.coeffs.values()),
        })
    return _emit(args, str(value), {
        "field": spec.to_text(),
        "basis": V.describe(),
        "value": str(value),
        "fractional_exponents": value.has_fractional_exponents(),
    })


def cmd_quotient(args) -> int:
    spec, ring, V = _space(args, args.sub)
    U = span(ring, _parse_basis(ring, args.sub or ""))
    Q = internal_quotient(V, U)
    return _emit(args, Q.describe(), {
        "field": spec.to_text(),
        "basis": [str(b) for b in Q.basis],
    })


def cmd_lines(args) -> int:
    spec, ring, V = _space(args)
    texts = [str(L.basis[0]) for L in enumerate_lines(V)]
    return _emit(args, "\n".join(texts), {"field": spec.to_text(), "lines": texts})


def cmd_flags(args) -> int:
    spec, ring, V = _space(args)
    texts = [" > ".join(S.describe() for S in f.chain) for f in enumerate_flags(V)]
    return _emit(args, "\n".join(texts), {"field": spec.to_text(), "flags": texts})


def _split_fields(text: str) -> tuple:
    """Split a comma-separated field list, keeping modulus digits attached."""
    chunks = []
    for piece in text.split(","):
        if piece.startswith("q=") or not chunks:
            chunks.append(piece)
        else:
            chunks[-1] = chunks[-1] + "," + piece
    return tuple(chunks)


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        n = int(text)
        return n, n
    except ValueError:
        raise ConfigInvalid(f"bad --dim {text!r}; expected N or N..M") from None


def cmd_verify(args) -> int:
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config {args.config}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or a number too long to convert
            raise ConfigInvalid(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid("config file must hold a JSON object")
    if args.field is not None:
        data["fields"] = list(_split_fields(args.field))
    if args.dim is not None:
        data["min_dim"], data["max_dim"] = _parse_dims(args.dim)
    if args.max_weight is not None:
        data["max_weight"] = args.max_weight
    if args.identity:
        data["identities"] = list(args.identity)
    if args.seed is not None:
        data["seed"] = args.seed
    cfg = SweepConfig.from_dict(data)
    report = run_sweep(cfg)
    agg = report["aggregate"]
    if args.format == "json":
        print(json.dumps(report))
    else:
        for case in report["cases"]:
            lam = ",".join(str(p) for p in case["lambda"]) or "-"
            mu = ",".join(str(p) for p in case["mu"]) or "-"
            line = (f"{case['status']} {case['identity']} q={case['q']} "
                    f"n={case['n']} lambda={lam} mu={mu}")
            if case["basis"]:
                line += f" [{case['basis']}]"
            print(line)
            if case["status"] != "pass":
                print(f"  lhs: {case['lhs']}")
                print(f"  rhs: {case['rhs']}")
        print(f"total {agg['total']} passed {agg['passed']} "
              f"failed {agg['failed']} seed {agg['seed']}")
    return 0 if agg["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschur",
        description="Exact Schur-style values over a finite field, and sweeps "
                    "that verify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--field", default="q=2",
                       help="coefficient field, e.g. q=3 or q=2^2:1,1,1")
        p.add_argument("--basis", help='spanning vectors, e.g. "x;y"')
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-terms", type=int, dest="max_terms",
                       help="override the polynomial term ceiling")

    p = sub.add_parser("compute", help="print one value on a spanned subspace")
    p.add_argument("what", choices=("S", "skew", "tilde", "H", "E", "pi", "f"))
    shared(p)
    p.add_argument("--lambda", dest="lam", help="partition, e.g. 3,1")
    p.add_argument("--mu", help="inner partition for skew/tilde")
    p.add_argument("--r", type=int, default=0, help="index for H/E")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("quotient", help="canonical basis of V // U")
    shared(p)
    p.add_argument("--sub", help='basis of the subspace U, e.g. "x"')
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("lines", help="list the lines of a subspace")
    shared(p)
    p.set_defaults(func=cmd_lines)

    p = sub.add_parser("flags", help="list the complete flags of a subspace")
    shared(p)
    p.set_defaults(func=cmd_flags)

    p = sub.add_parser("verify", help="run identity sweeps")
    p.add_argument("--field", default=None,
                   help="comma-separated field list, e.g. q=2,q=3")
    p.add_argument("--dim", default=None, help="dimension N or range N..M")
    p.add_argument("--max-weight", dest="max_weight", type=int, default=None)
    p.add_argument("--identity", action="append", default=None,
                   metavar="NAME", help="identity or group name; "
                   "groups: " + ", ".join(GROUPS) + ", all")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="JSON file with SweepConfig fields")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-terms", type=int, dest="max_terms")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    saved_limit = get_term_limit()
    try:
        if args.max_terms is not None:
            if args.max_terms < 1:
                raise ConfigInvalid(f"--max-terms must be positive, got {args.max_terms}")
            set_term_limit(args.max_terms)
        return args.func(args)
    except (PolyParseError, InvalidFieldSpec, ConfigInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QschurError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # A bug, not a broken contract; exit 1 stays reserved for failing
        # identities.
        text = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {text}", file=sys.stderr)
        return 4
    finally:
        set_term_limit(saved_limit)


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
