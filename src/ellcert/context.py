"""Global numeric context for theta evaluation and identity checks."""

from __future__ import annotations

import dataclasses
import math
from typing import ClassVar


@dataclasses.dataclass(frozen=True)
class ThetaContext:
    """Immutable pair of the numeric parameters every evaluation needs.

    tau  modular parameter of the lattice Z + tau*Z, Im(tau) >= 0.3 so that
         |q| = |exp(2*pi*i*tau)| <= exp(-0.6*pi) and the series converge in a
         few dozen terms.  Re tau is reduced exactly modulo 8 on construction:
         the common period of every theta series and multiplier, so nothing
         changes, and z + tau stays as accurate as z + (tau mod 8).
    eta  deformation parameter, generic: checks reject a finite-order eta
         when parsing it (theta1(N*eta) below pole_guard for some N = 1..12)

    pole_guard, the minimum allowed denominator magnitude, is a constant of
    the class, not a setting.
    """

    tau: complex = 0.8j
    eta: complex = 0.171717 + 0.0323j

    pole_guard: ClassVar[float] = 1e-6

    def __post_init__(self):
        if self.tau.imag < 0.3:
            raise ValueError(f"Im(tau) = {self.tau.imag} < 0.3; series would converge too slowly")
        object.__setattr__(self, "tau", complex(math.fmod(self.tau.real, 8.0), self.tau.imag))

    def replace(self, **kw) -> "ThetaContext":
        return dataclasses.replace(self, **kw)
