"""Exception types shared across the package.

Everything derives from SatotateError so callers can catch the whole family;
the CLI maps subfamilies onto exit codes (usage=2, data=3, budget=4).
"""


class SatotateError(Exception):
    """Base class for all package errors."""


class DomainError(SatotateError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class CapError(DomainError):
    """A hard degree/size cap was exceeded."""


class BadPrimeError(DomainError):
    """A prime dividing the level was passed where p coprime to the level is required."""


class OutOfRangeError(DomainError):
    """Requested index exceeds the range covered by a coefficient table."""


class RecipeError(SatotateError):
    """An eta-quotient recipe is malformed (non-integral vanishing order, bad divisors...)."""


class ParseError(SatotateError):
    """A coefficient or region file is malformed."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class GapError(ParseError):
    """A coefficient file skips an index before its stated bound."""


class InvariantError(SatotateError):
    """Numerical data violates a structural invariant (e.g. the |a(p)| <= 2 bound)."""


class NetworkError(SatotateError):
    """The remote coefficient source could not be reached."""


class NotFoundError(NetworkError):
    """The remote source does not know the requested label."""


class CoverageError(SatotateError):
    """A statistic was requested beyond the range covered by the coefficient tables."""


class BudgetError(SatotateError):
    """A subdivision/size budget was exhausted before the target was met."""


class DegenerateError(SatotateError):
    """A constraint polynomial is identically zero."""


class HypothesisError(SatotateError):
    """A strip component count exceeded the 1 + alpha*beta certificate."""


class ConfigError(SatotateError):
    """A run configuration is invalid (bad key, unwritable directory...)."""
