"""Error types shared across the package."""


class KatzexpError(Exception):
    """Base class for package errors."""


class ZeroConstantTerm(KatzexpError, ZeroDivisionError):
    """Inversion (or a power with negative exponent) of a series with a_0 = 0."""


class NotAUnit(KatzexpError, ZeroDivisionError):
    """A number that must be a unit mod the working modulus is not: a
    coefficient denominator in qs_reduce_mod, a constant term in qs_inv, 2k/B_k
    in E_k mod m (mod 37 at k = 32), or a multiple of p given to teichmuller."""


class InvalidWeight(KatzexpError, ValueError):
    """Weight outside the domain of the requested construction."""


class PrecisionTooLow(KatzexpError, ValueError):
    """Not enough known q-coefficients for the requested computation."""


class UnsupportedPrime(KatzexpError, ValueError):
    """Prime outside the range the operation supports."""


class NotAModularForm(KatzexpError, ValueError):
    """Input q-expansion is not a form of the claimed weight."""


class EllEqualsP(KatzexpError, ValueError):
    """Hecke operator at ell requested with ell equal to the working prime."""


class CrossCheckMismatch(KatzexpError, ArithmeticError):
    """Two independent constructions of the same object disagree."""


class InsufficientLength(KatzexpError, ValueError):
    """Sequence too short for the identity range being verified."""


class ResourceBudgetExceeded(KatzexpError, RuntimeError):
    """A configured time or memory cap was hit before the run finished."""
