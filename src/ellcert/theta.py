"""Truncated q-series for the order-1, order-n basis, and odd theta functions.

Conventions (q = exp(2*pi*i*tau)):

  order-1   theta(z) = sum_k (-1)^(k-1) q^(k(k-1)/2) e^(2*pi*i*k*z)
            with theta(0) = 0, theta(z+1) = theta(z) and
            theta(z+tau) = theta(-z) = -e^(-2*pi*i*z) theta(z).

  basis     theta_i(z) = sum_j (-1)^(j*n) q^(i*j + n*j(j-1)/2) e^(2*pi*i*(i+j*n)*z),
            the Fourier solution of theta_i(z+1) = theta_i(z),
            theta_i(z+tau) = (-1)^n e^(-2*pi*i*n*z) theta_i(z) seeded by
            c_i = 1, c_m = 0 for the other residues m mod n.

  odd       theta_o(z) = -i sum_m (-1)^m qh^((m+1/2)^2) e^(2*pi*i*(m+1/2)*z),
            qh = exp(pi*i*tau); exactly odd, vanishes at 0.  This equals the
            classical first Jacobi theta with period-1 argument convention.

Every evaluation first reduces Re tau modulo 8 (the common period of all
three series and multipliers) and the argument to the fundamental strip
Re in [0,1), Im in [0, Im tau), and multiplies back the exact quasi-periodicity
factor, so the series never sees a badly scaled exponential.  Exponents are
combined before a single exp() call; computing coefficient and oscillatory
factors separately overflows long before the product does.

Derivatives of order d are term-wise: mode k picks up (2*pi*i*k)^d, and the
reduction multiplier M(w) = K * e^(-2*pi*i*nu*b*w) contributes binomially:

  theta^(d)(w + a + b*tau) = M(w) * sum_r C(d,r) (-2*pi*i*nu*b)^(d-r) theta^(r)(w).

All functions accept scalar complex arguments or numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .context import ThetaContext
from .errors import EvaluationOverflowError

_TWO_PI_I = 2j * math.pi

# |b| beyond this makes the multiplier exponent q^(-n b(b-1)/2) meaningless
# in double precision for any allowed tau.
_MAX_LATTICE_STEPS = 64.0


def _tau(ctx: ThetaContext) -> complex:
    """ctx.tau with Re tau reduced exactly modulo 8: the odd theta gains e^(i*pi/4)
    per unit step of tau, and nothing here changes under tau -> tau + 8."""
    return complex(math.fmod(ctx.tau.real, 8.0), ctx.tau.imag)


def _lattice_reduce(z, tau: complex):
    """Write z = w + a + b*tau with integer a, b and Im(w) in [0, Im tau)."""
    z = np.asarray(z, dtype=complex)
    b = np.floor(z.imag / tau.imag)
    w1 = z - b * tau
    a = np.floor(w1.real)
    w = w1 - a
    if np.any(np.abs(b) > _MAX_LATTICE_STEPS) or np.any(np.abs(a) > 1e12):
        raise EvaluationOverflowError(
            "argument reduction needs too many lattice steps; input is ill-conditioned"
        )
    return w, a, b


def _series(kind: str, w, tau: complex, M: int, order: int, index: int, deriv: int):
    """Raw truncated series over the modes |j| <= M at a reduced argument (no multiplier)."""
    if kind == "order1":
        k = np.arange(-M, M + 1, dtype=float)
        sign = (-1.0) ** (k - 1)
        cexp = k * (k - 1) / 2.0
    elif kind == "basis":
        j = np.arange(-M, M + 1, dtype=float)
        k = index + j * order
        sign = (-1.0) ** (j * order)
        cexp = index * j + order * j * (j - 1) / 2.0
    elif kind == "odd":
        m = np.arange(-M, M + 1, dtype=float)
        k = m + 0.5
        sign = -1j * (-1.0) ** m
        cexp = (m + 0.5) ** 2 / 2.0
    else:  # pragma: no cover
        raise ValueError(f"unknown theta kind {kind!r}")

    w = np.asarray(w, dtype=complex)
    expo = _TWO_PI_I * (tau * cexp + np.multiply.outer(w, k))
    terms = np.exp(expo) * sign
    if deriv:
        terms = terms * (_TWO_PI_I * k) ** deriv
    return terms.sum(axis=-1)


def _multiplier(kind: str, tau: complex, order: int, w, a, b):
    """Exact quasi-periodicity factor M with theta(z) = M * theta(w)."""
    if kind == "order1":
        sign = (-1.0) ** b
        expo = -tau * b * (b - 1) / 2.0 - b * w
    elif kind == "basis":
        sign = (-1.0) ** (order * b)
        expo = -tau * order * b * (b - 1) / 2.0 - order * b * w
    else:  # odd
        sign = (-1.0) ** (a + b)
        expo = -tau * b * b / 2.0 - b * w
    mult = sign * np.exp(_TWO_PI_I * expo)
    if not np.all(np.isfinite(mult)):
        raise EvaluationOverflowError("quasi-periodicity multiplier overflowed")
    return mult


def theta_value(kind: str, z, ctx: ThetaContext, order: int = 1, index: int = 0, deriv: int = 0):
    """Evaluate the deriv-th derivative of the chosen theta at z (vectorized)."""
    tau = _tau(ctx)
    w, a, b = _lattice_reduce(z, tau)
    mult = _multiplier(kind, tau, order, w, a, b)
    nu = order if kind == "basis" else 1
    if deriv == 0:
        val = _series(kind, w, tau, ctx.trunc, order, index, 0)
    else:
        fac = -_TWO_PI_I * nu * b
        val = 0
        for r in range(deriv + 1):
            term = _series(kind, w, tau, ctx.trunc, order, index, r)
            val = val + math.comb(deriv, r) * fac ** (deriv - r) * term
    out = mult * val
    if not np.all(np.isfinite(out)):
        raise EvaluationOverflowError("theta evaluation produced a non-finite value")
    if np.ndim(z) == 0:
        return complex(out)
    return out


def theta1(z, ctx: ThetaContext):
    """Order-1 theta; vanishes exactly on the lattice."""
    return theta_value("order1", z, ctx)


def theta_basis(i: int, z, ctx: ThetaContext, n: int | None = None):
    """i-th basis element of the order-n theta space (n defaults to ctx.order_n)."""
    n = ctx.order_n if n is None else int(n)
    if not 0 <= i < n:
        raise ValueError(f"basis index {i} out of range for order {n}")
    return theta_value("basis", z, ctx, order=n, index=i)


def theta_odd(z, ctx: ThetaContext):
    """The odd theta (characteristic (1/2,1/2)); theta_odd(-z) = -theta_odd(z)."""
    return theta_value("odd", z, ctx)


def reduce_to_fundamental(z: complex, ctx: ThetaContext):
    """Reduce z modulo the lattice and report the order-1 theta multiplier.

    Returns (z_reduced, multiplier) with theta1(z) = multiplier * theta1(z_reduced)
    and Im(z_reduced) in [0, Im tau).
    """
    tau = _tau(ctx)
    w, a, b = _lattice_reduce(z, tau)
    mult = _multiplier("order1", tau, 1, w, a, b)
    if np.ndim(z) == 0:
        return complex(w), complex(mult)
    return w, mult
