"""Numerical certification of theta-function operator identities.

The library evaluates theta functions and meromorphic expressions built from
them, constructs the commuting operator families of the associated elliptic
integrable systems (Cartier-Foata determinant ratios, difference-operator
transfer functions, classical Poisson hamiltonians, the symmetric-function
star product and its bosonizations), and certifies every commutation or
identity claim by seeded randomized sampling with controlled tolerances.
"""

from .context import ThetaContext
from .errors import (
    EllcertError,
    EvaluationOverflowError,
    InconclusiveRankError,
    ParameterError,
    PoleError,
    SingularOperatorError,
    UnboundVariableError,
)
from .theta import theta1, theta_basis, theta_odd, reduce_to_fundamental

__all__ = [
    "ThetaContext",
    "EllcertError",
    "EvaluationOverflowError",
    "InconclusiveRankError",
    "ParameterError",
    "PoleError",
    "SingularOperatorError",
    "UnboundVariableError",
    "theta1",
    "theta_basis",
    "theta_odd",
    "reduce_to_fundamental",
]

__version__ = "0.1.0"
