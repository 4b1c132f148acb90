"""Numerical certification of theta-function operator identities.

The library evaluates theta functions and meromorphic expressions built from
them, constructs the commuting operator families of the associated elliptic
integrable systems (Cartier-Foata determinant ratios, difference-operator
transfer functions, classical Poisson hamiltonians, the symmetric-function
star product and its bosonizations), and certifies every commutation or
identity claim by seeded randomized sampling with controlled tolerances.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already set,
before any submodule imports numpy.  The Cartier-Foata checks are the library's
BLAS work: at the sizes of the default suite a second OpenBLAS thread adds CPU
time but no speed, and the last bits of a residual can follow the thread count,
so one thread makes re-runs byte-identical in every process.  Export the
variable to choose another count.  OpenBLAS reads it once, when numpy is first
imported: a process that imported numpy before `ellcert` keeps numpy's pool.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
