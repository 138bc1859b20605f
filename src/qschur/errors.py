"""Exception hierarchy shared by every qschur module.

Every error raised on a violated precondition derives from QschurError so
callers (and the CLI) can distinguish contract violations from genuine bugs.
Messages name the contract that was broken.
"""


class QschurError(Exception):
    """Base class for all qschur contract violations."""


class InvalidFieldSpec(QschurError):
    """Field construction rejected: bad characteristic, size, or modulus."""


class RingMismatch(QschurError):
    """Operands live in different rings, or a ring or substitution is malformed."""


class PolyParseError(QschurError):
    """Polynomial or field-element text could not be parsed."""


class NotDivisible(QschurError):
    """Exact division requested for a non-divisible pair."""


class FractionalExponent(QschurError):
    """An operation requiring integer exponents met a fractional one."""


class TermLimitExceeded(QschurError):
    """A product, an exact quotient or a substitution would exceed the
    configured term-count guard."""


class ExponentTooLong(QschurError):
    """An exponent has more decimal digits than the interpreter converts to
    text (sys.get_int_max_str_digits)."""


class LengthExceeded(QschurError):
    """Partition longer than the staircase it must be added to."""


class NotFullColumn(QschurError):
    """Partition does not occupy every row of the ambient rectangle."""


class NotVerticalStrip(QschurError):
    """Skew shape is not a vertical strip."""


class LengthTooLong(QschurError):
    """Partition length exceeds the dimension bound of the operation."""


class HypothesisViolated(QschurError):
    """A lemma check was invoked with its hypothesis violated."""


class NotSquare(QschurError):
    """Determinant of a non-square matrix requested."""


class WindowInvalid(QschurError):
    """Triangular-array window with lower bound above upper bound."""


class IndexNotDecreasing(QschurError):
    """Row or column index tuple is not strictly decreasing."""


class ShapeMismatch(QschurError):
    """Matrix dimensions do not match the partitions supplied."""


class EnumerationTooLarge(QschurError):
    """Requested enumeration exceeds the configured ceiling."""


class NotSubspace(QschurError):
    """Claimed containment of subspaces (or membership) does not hold."""


class DimensionDrop(QschurError):
    """Internal quotient lost dimension; cannot happen over a domain."""


class NotALine(QschurError):
    """Operation requires a one-dimensional subspace."""


class ZeroVector(QschurError):
    """Operation requires a nonzero vector."""


class ConfigInvalid(QschurError):
    """Sweep configuration outside supported ceilings or unknown identity."""
