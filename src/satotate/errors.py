"""Exception types shared across the package.

Everything derives from SatotateError so callers can catch the whole family.
Each family carries its CLI exit code as ``exit_code``, which ``cli.main``
returns: 2 for usage (DomainError, ConfigError and their subclasses), 4 for
an exhausted budget (BudgetError, HypothesisError), and 3 for data and
coverage errors, every other class.
"""


class SatotateError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class DomainError(SatotateError, ValueError):
    """An argument is outside the mathematical domain of the operation."""

    exit_code = 2


class CapError(DomainError):
    """A hard degree/size cap was exceeded."""


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

    exit_code = 4


class DegenerateError(SatotateError):
    """A constraint polynomial is identically zero."""


class HypothesisError(SatotateError):
    """A strip component count exceeded the 1 + alpha*beta certificate."""

    exit_code = 4


class ConfigError(SatotateError):
    """A run configuration is invalid (bad key, unwritable directory...)."""

    exit_code = 2
