"""Exception hierarchy for the toolkit.

Arithmetic raises rather than returning sentinel values.  The verify_*
functions report a failed identity as an entry of their report and raise
only on budget problems (PrecisionExhausted, AmbiguousRank);
analyze_group raises on a failed identity (IdentityViolation), so it
never returns a wrong isocrystal.
"""


class ArithJetError(Exception):
    """Base class for all toolkit errors."""


class DivisionByZero(ArithJetError):
    """Operand indistinguishable from zero at its precision."""


class PrecisionExhausted(ArithJetError):
    """A result would carry fewer than one significant p-adic digit."""


class VariableMismatch(ArithJetError):
    """Series operands or lookups disagree on the variables or their number."""


class NonzeroConstantTerm(ArithJetError):
    """Composition argument has a nonzero constant term."""


class NonUnitLinearCoefficient(ArithJetError):
    """Reversion input is not u*t + O(t^2) with u a unit."""


class LengthMismatch(ArithJetError):
    """Witt vectors of different lengths combined."""


class LengthTooShort(ArithJetError):
    """Witt operator needs a longer vector."""


class BadReduction(ArithJetError):
    """Curve is singular modulo p."""


class IntegralityViolation(ArithJetError):
    """A series that must have p-integral coefficients does not."""


class RankMismatch(ArithJetError):
    """Computed primitive rank differs from the forced value."""


class AmbiguousRank(ArithJetError):
    """Character rank not stable under budget reduction; raise N or M."""


class IdentityViolation(ArithJetError):
    """A structural identity failed at the stated budget."""
