"""Exception types shared across the library."""


class EllcertError(Exception):
    """Base class for all library errors."""


class PoleError(EllcertError):
    """A division met a pole (expr.nonpole, or an M^0 that TensorBackend.invert rejects);
    sampling.sampled_max redraws the batch, and raises it when all its batches pole."""


class UnboundVariableError(EllcertError):
    """An expression was evaluated without a value for one of its variables."""


class EvaluationOverflowError(EllcertError):
    """A value is not finite: a theta argument needs too many lattice steps to reduce,
    a theta value or its multiplier overflows, or an expression or sampled value is."""


class SingularOperatorError(EllcertError):
    """invert_multiplication was given an operator without an inverse: API misuse, not a bad draw."""


class InconclusiveRankError(EllcertError):
    """A numerical rank computation had no usable singular-value gap."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class ParameterError(EllcertError):
    """A check was invoked with parameters outside its documented range."""
