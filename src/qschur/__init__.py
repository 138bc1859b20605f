"""qschur: exact Schur-style polynomial calculus over finite fields.

Straight, skew and companion values are built from q-power alternants and
minors of Frobenius-twisted arrays over F_q; subspaces of a polynomial ring
support internal quotients through additive annihilators; a verification
harness checks the recursion and factorization identities by exact
polynomial equality at small parameters.
"""

from .errors import QschurError
from .gf import FieldSpec, parse_field_spec, power_sum
from .partitions import partition
from .ppoly import (
    Poly,
    PolyRing,
    UniPoly,
    ambient_ring,
    evaluate_morphism,
    exact_div,
)
from .schur import SchurContext
from .subspaces import (
    Flag,
    Subspace,
    additive_poly,
    enumerate_flags,
    enumerate_lines,
    enumerate_vectors,
    internal_quotient,
    pi_product,
    span,
)

__version__ = "0.1.0"

__all__ = [
    "FieldSpec",
    "Flag",
    "Poly",
    "PolyRing",
    "QschurError",
    "SchurContext",
    "Subspace",
    "UniPoly",
    "additive_poly",
    "ambient_ring",
    "enumerate_flags",
    "enumerate_lines",
    "enumerate_vectors",
    "evaluate_morphism",
    "exact_div",
    "internal_quotient",
    "parse_field_spec",
    "partition",
    "pi_product",
    "power_sum",
    "span",
    "__version__",
]
