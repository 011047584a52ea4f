"""Exception hierarchy shared across the package."""


class AffineTreeError(Exception):
    """Base class for all package errors."""


class PrimeMismatch(AffineTreeError):
    pass


class PrecisionExhausted(AffineTreeError):
    """Effective precision of a value fell below the acceptable minimum."""


class DivisionByZero(AffineTreeError):
    pass


class ZeroDenominator(AffineTreeError):
    pass


class OmegaOperand(AffineTreeError):
    """Operation undefined for the distinguished top end."""


class IndistinguishableAtPrecision(AffineTreeError):
    """Two finite-precision objects agree on their whole known window.

    Carries ``upper_bound``: the known upper bound on the ultrametric
    distance of the operands.
    """

    def __init__(self, message, upper_bound=None):
        super().__init__(message)
        self.upper_bound = upper_bound


class BranchOutOfRange(AffineTreeError):
    pass


class RealizationMismatch(AffineTreeError):
    pass


class EmptySupport(AffineTreeError):
    pass


class NonPositiveDrift(AffineTreeError):
    pass


class NonNegativeDrift(AffineTreeError):
    pass


class StepBudgetExceeded(AffineTreeError):
    """A step budget ran out."""


class OracleUnsupported(AffineTreeError):
    """The exact truncated-chain oracle only handles designed small instances."""


class ConfigError(AffineTreeError):
    """Configuration problem, located by section/key when possible."""

    def __init__(self, message, location=None):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class MalformedSyntax(ConfigError):
    pass


class WeightsNotNormalized(ConfigError):
    pass


class NonExceptionalityFailed(ConfigError):
    pass


class InvalidPrime(ConfigError):
    pass


class InexactAtom(ConfigError):
    """A law atom known only to finitely many digits or positions."""
