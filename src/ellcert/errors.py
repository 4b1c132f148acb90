"""Exception types shared across the library."""


class EllcertError(Exception):
    """Base class for all library errors."""


class PoleError(EllcertError):
    """A quotient denominator fell below the pole guard; resample the point."""


class UnboundVariableError(EllcertError):
    """An expression was evaluated without a value for one of its variables."""


class EvaluationOverflowError(EllcertError):
    """Argument reduction produced an ill-conditioned multiplier (|b| too large)."""


class SingularOperatorError(EllcertError):
    """An operator that must be invertible is numerically singular."""


class InconclusiveRankError(EllcertError):
    """A numerical rank computation had no usable singular-value gap."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class ParameterError(EllcertError):
    """A check was invoked with parameters outside its documented range."""
