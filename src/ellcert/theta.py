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
            qh = exp(pi*i*tau); odd, vanishes at 0.  This equals the
            classical first Jacobi theta with period-1 argument convention.

Every evaluation takes Re tau reduced modulo 8 (the common period of all
three series and multipliers; ThetaContext reduces it), reduces the argument
to the fundamental strip
Re in [0,1), Im in [0, Im tau), and multiplies back the exact quasi-periodicity
factor, so the series never sees a badly scaled exponential.  Exponents are
combined before a single exp() call; computing coefficient and oscillatory
factors separately overflows long before the product does.

Only the modes that can reach the result are summed (the tail bound of
Deconinck et al., "Computing Riemann theta functions", Math. Comp. 73, 2004).
On the strip a term's log-magnitude, derivative factor included, is linear in
Im w, so a mode is kept exactly when somewhere on the strip it reaches 1e-40
of the largest term; the window is cached per (kind, order, index, tau, deriv)
and never leaves |j| <= 30.  At Im tau = 0.8 that is 5 to 14 modes instead of
61.  The order-1 modes k and 1 - k, and the odd modes k and -k, share their
coefficient and have opposite signs, so each pair is summed as one
difference: theta1 and theta_o are exactly 0 wherever the argument reduces
exactly to w = 0, e.g. at 0, 1, tau and 1 + tau.

Derivatives of order d are term-wise: mode k picks up (2*pi*i*k)^d, applied
to the exponentials computed once for the value, and the reduction multiplier
M(w) = K * e^(-2*pi*i*nu*b*w) contributes binomially:

  theta^(d)(w + a + b*tau) = M(w) * sum_r C(d,r) (-2*pi*i*nu*b)^(d-r) theta^(r)(w).

All functions accept scalar complex arguments or numpy arrays.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .context import ThetaContext
from .errors import EvaluationOverflowError

_TWO_PI_I = 2j * math.pi

# |b| beyond this makes the multiplier exponent q^(-n b(b-1)/2) meaningless
# in double precision for any allowed tau.
_MAX_LATTICE_STEPS = 64.0

# Candidate Fourier modes: |j| <= _MAX_MODES.  The kept window is chosen
# from these, so it never grows past them.
_MAX_MODES = 30

# A mode is kept wherever its term can reach this fraction of the largest term.
_TAIL = 1e-40


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


class _Window(NamedTuple):
    """The kept modes of one (kind, order, index, tau, deriv).

    k      frequencies; for folded kinds the kept representatives, then their partners
    tau_c  tau * c_k for each entry of k
    sign   sign of each representative (folded) or of each mode (basis)
    powers sign * (2*pi*i*k)^r for r = 1..deriv over all of k, partners carrying -sign
    folded whether k holds representative/partner pairs
    """

    k: np.ndarray
    tau_c: np.ndarray
    sign: np.ndarray
    powers: tuple
    folded: bool


def _candidates(kind: str, order: int, index: int):
    """Modes with |j| <= _MAX_MODES as (k, sign, c, partner).

    order1 pairs mode k with 1 - k and odd pairs k with -k: each pair shares
    its coefficient exponent c and has opposite signs, so only the
    representative is listed and `partner` holds the other frequency.  Basis
    modes have no partner (None).
    """
    if kind == "order1":
        k = np.arange(1, _MAX_MODES + 1, dtype=float)
        return k, (-1.0) ** (k - 1), k * (k - 1) / 2.0, 1.0 - k
    if kind == "odd":
        m = np.arange(0, _MAX_MODES, dtype=float)
        k = m + 0.5
        return k, -1j * (-1.0) ** m, k ** 2 / 2.0, -k
    if kind == "basis":
        j = np.arange(-_MAX_MODES, _MAX_MODES + 1, dtype=float)
        return index + j * order, (-1.0) ** (j * order), index * j + order * j * (j - 1) / 2.0, None
    raise ValueError(f"unknown theta kind {kind!r}")


def _reaches(k, c, height: float, deriv: int):
    """Mask of the modes whose term can reach _TAIL times the largest one.

    At Im w = s the log-magnitude of mode k in the r-th derivative is
    r log|2 pi k| - 2 pi (height c_k + s k), linear in s.  Its gap below the
    upper envelope of all modes is concave and piecewise linear in s, so its
    maximum over the strip s in [0, height] lies at an end of the strip or
    where two of the lines cross: the mask is exact, not sampled.
    """
    keep = np.zeros(k.size, dtype=bool)
    for r in range(deriv + 1):
        live = np.flatnonzero(k) if r else np.arange(k.size)  # mode 0 drops out of derivatives
        kl = k[live]
        weight = r * np.log(2 * math.pi * np.abs(kl)) if r else 0.0
        icpt = weight - 2 * math.pi * height * c[live]
        slope = -2 * math.pi * kl
        i, j = np.triu_indices(kl.size, 1)
        cross = (icpt[j] - icpt[i]) / (slope[i] - slope[j])
        s = np.concatenate([[0.0, height], cross[(cross > 0) & (cross < height)]])
        logs = icpt[:, None] + slope[:, None] * s
        keep[live] |= (logs - logs.max(axis=0)).max(axis=1) >= math.log(_TAIL)
    return keep


@functools.lru_cache(maxsize=1024)
def _window(kind: str, order: int, index: int, tau: complex, deriv: int) -> _Window:
    """Modes that can reach _TAIL times the largest term anywhere on the strip, for r <= deriv."""
    k, sign, c, partner = _candidates(kind, order, index)
    if partner is None:
        keep = _reaches(k, c, tau.imag, deriv)
        k, sign, c = k[keep], sign[keep], c[keep]
        signs = sign
    else:
        # a pair is kept whole if either of its modes can reach the result
        both = _reaches(np.concatenate([k, partner]), np.tile(c, 2), tau.imag, deriv)
        keep = both[:k.size] | both[k.size:]
        sign = sign[keep]
        k, c = np.concatenate([k[keep], partner[keep]]), np.tile(c[keep], 2)
        signs = np.concatenate([sign, -sign])
    powers = tuple(signs * (_TWO_PI_I * k) ** r for r in range(1, deriv + 1))
    win = _Window(k, tau * c, sign, powers, partner is not None)
    for arr in (win.k, win.tau_c, win.sign, *win.powers):
        arr.setflags(write=False)
    return win


def _series(kind: str, w, tau: complex, order: int, index: int, deriv: int) -> list:
    """[theta^(r)(w) for r = 0..deriv] at a reduced argument (no multiplier).

    One exp per kept mode serves every r.
    """
    win = _window(kind, order, index, tau, deriv)
    e = np.exp(_TWO_PI_I * (win.tau_c + np.multiply.outer(w, win.k)))
    if win.folded:
        # sign * (e_k - e_partner) is exactly 0 wherever the two exponentials
        # agree bit for bit, as at w = 0
        half = win.sign.size
        jets = [(win.sign * (e[..., :half] - e[..., half:])).sum(axis=-1)]
    else:
        jets = [(win.sign * e).sum(axis=-1)]
    return jets + [(e * p).sum(axis=-1) for p in win.powers]


def _multiplier(kind: str, tau: complex, order: int, w, a, b):
    """Exact quasi-periodicity factor M with theta(z) = M * theta(w).

    A batch that needs no lattice step (b = 0 at every point, as on the
    strip) has exponent 0, so M is exactly the sign and exp is skipped.
    """
    if kind == "order1":
        sign = (-1.0) ** b
    elif kind == "basis":
        sign = (-1.0) ** (order * b)
    else:  # odd
        sign = (-1.0) ** (a + b)
    if not b.any():
        return sign + 0j
    if kind == "order1":
        expo = -tau * b * (b - 1) / 2.0 - b * w
    elif kind == "basis":
        expo = -tau * order * b * (b - 1) / 2.0 - order * b * w
    else:  # odd
        expo = -tau * b * b / 2.0 - b * w
    mult = sign * np.exp(_TWO_PI_I * expo)
    if not np.all(np.isfinite(mult)):
        raise EvaluationOverflowError("quasi-periodicity multiplier overflowed")
    return mult


def theta_value(kind: str, z, ctx: ThetaContext, order: int = 1, index: int = 0, deriv: int = 0):
    """Evaluate the deriv-th derivative of the chosen theta at z (vectorized)."""
    tau = ctx.tau
    w, a, b = _lattice_reduce(z, tau)
    mult = _multiplier(kind, tau, order, w, a, b)
    nu = order if kind == "basis" else 1
    jets = _series(kind, w, tau, order, index, deriv)
    if deriv == 0:
        val = jets[0]
    else:
        fac = -_TWO_PI_I * nu * b
        val = 0
        for r, term in enumerate(jets):
            val = val + math.comb(deriv, r) * fac ** (deriv - r) * term
    out = mult * val
    if not np.all(np.isfinite(out)):
        raise EvaluationOverflowError("theta evaluation produced a non-finite value")
    if np.ndim(z) == 0:
        return complex(out)
    return out


def theta1(z, ctx: ThetaContext):
    """Order-1 theta; exactly 0 where z reduces exactly to 0 modulo the lattice."""
    return theta_value("order1", z, ctx)


def theta_basis(i: int, z, ctx: ThetaContext, n: int):
    """i-th basis element of the order-n theta space."""
    n = int(n)
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
    w, a, b = _lattice_reduce(z, ctx.tau)
    mult = _multiplier("order1", ctx.tau, 1, w, a, b)
    if np.ndim(z) == 0:
        return complex(w), complex(mult)
    return w, mult
