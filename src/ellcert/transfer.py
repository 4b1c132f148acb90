"""Transfer operators: determinant ratios and their commuting families.

The basic family lives in the Weyl-like algebra on z_1..z_n: with
ft_a = f_a / theta(z_1+...+z_n),

    T(u) = sum_a theta(u + sum_{b != a} z_b) prod_{b != a} theta(u - z_b)
                 / prod_{b != a} theta(z_a - z_b) * ft_a,

which equals Delta_0^{-1} sum_j (-1)^j theta_j(u) Delta_{j+1} for the
theta-column determinants of shiftops.theta_column_minors (the grid whose
Poisson limit gives the classical hamiltonians Delta_i / Delta_0), exactly:
Delta_0 T(u) and the sum are sampled against each other, with no constant
divided out.  The commutation of T(u) and T(v) for different spectral
parameters is the headline identity; a family is built once, at the
spectral variables "_u" and "_v", and the seeds' (u, v) are read from the
stacked batch.

The chain algebra carries the analogous multi-layer transfer function, and
the face-model auxiliary transfer matrix is built from the *odd* theta: its
formula comes from the dynamical R-matrix literature, whose theta is odd,
and the mixed up/down shift relations genuinely fail for the quasi-odd
order-1 normalization (checked numerically).  The coefficient test
identifies it with T(u) after reflecting the variables.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

from .context import ThetaContext
from . import expr as ex
from .sampling import box, relation_max
from .shiftops import (
    ShiftOp,
    make_Btilde,
    make_sos,
    make_Vn,
    stacked_commutator_residual,
    sum_to_zero_residual,
    theta_column_minors,
)
from .theta import theta_basis


# The basic transfer family -------------------------------------------------------

def _transfer_coefficient(u, n, al, names, theta_of):
    """theta(u + sum_{b != al} z_b) prod theta(u - z_b) / prod theta(z_al - z_b),
    with the 1/theta(sum z) normalization folded in.  u is a constant or the
    name of a spectral variable (`ex.Affine.shifted`)."""
    others = [b for b in range(n) if b != al]
    num = [theta_of(ex.Affine({names[b]: 1 for b in others}).shifted(u))]
    num += [theta_of(ex.aff((-1, names[b])).shifted(u)) for b in others]
    den = [theta_of(ex.aff(names[al], (-1, names[b]))) for b in others]
    den.append(theta_of(ex.Affine({v: 1 for v in names})))
    return ex.quot(ex.mul(*num), ex.mul(*den))


def build_T(u, n: int, ctx: ThetaContext) -> ShiftOp:
    """The explicit-coefficient transfer operator in the z/f algebra.

    The 1/theta(z_1+...+z_n) normalization multiplies each coefficient on
    the left, before the generator monomial.  u is a constant, or the name
    of a variable that stands for it, such as "_u" (the family built once).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    alg = make_Vn(n, ctx)
    names = [f"z{i}" for i in range(1, n + 1)]
    return ShiftOp(alg, {alg.exponents(f"f{al + 1}"): _transfer_coefficient(u, n, al, names, ex.theta1_of)
                         for al in range(n)})


def vn_family(n: int, ctx: ThetaContext) -> Callable[[object], ShiftOp]:
    """The basic family as its builder: u -> build_T(u, n, ctx)."""
    return functools.partial(build_T, n=n, ctx=ctx)


def transfer_commutator_residual(family: Callable[[object], ShiftOp], spectral: Sequence[tuple],
                                 samples: int = 20, seed: int = 0) -> float:
    """Largest [T(u), T(v)] residual of the family T over the pairs (u, v) of
    spectral, pair s sampled at batch seed seed + s.

    T is built once at the spectral variables "_u" and "_v", and the pairs
    are stacked (shiftops.stacked_commutator_residual): bit for bit the
    largest of the pairs' own commutator residuals unless a batch poles.
    """
    return stacked_commutator_residual(family("_u"), family("_v"), [{"_u": u, "_v": v} for u, v in spectral],
                                       samples=samples, seed=seed)


def transfer_det_consistency_residual(u: complex, n: int, ctx: ThetaContext,
                                      samples: int = 15, seed: int = 0) -> float:
    """Residual of Delta_0 * build_T(u) == sum_j (-1)^j theta_j(u) Delta_{j+1}.

    Delta_0 .. Delta_n are the Cartier-Foata minors of the grid whose row r is
    f_r, theta_0(z_r) .. theta_{n-1}(z_r) (shiftops.theta_column_minors):
    Delta_0 deletes the generator column, Delta_{j+1} the column of theta_j.
    The identity is exact, with no constant to measure, so T(u) or Delta_0
    scaled by any constant c != 1 fails.  The left side is a factor pair,
    sampled without being built; both sides are compared on one batch.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    alg, deltas = theta_column_minors(n, ctx, ShiftOp)
    acc = ShiftOp.zero(alg)
    for j in range(n):
        acc = acc + deltas[j + 1].scaled((-1) ** j * theta_basis(j, u, ctx, n=n))
    return sum_to_zero_residual([(deltas[0], build_T(u, n, ctx)), acc], samples=samples, seed=seed,
                                relations=[[1, -1]])


# Chain transfer function ---------------------------------------------------------

def build_T_tilde(u, p_list: Sequence[int], ctx: ThetaContext) -> ShiftOp:
    """Layered chain transfer function on n-1 layers of sizes p_1..p_{n-1}.

    Kernel chain theta(u - z_{a1,1}) theta(u + z_{a1,1} - z_{a2,2}) ...
    theta(u + z_{a_{n-1},n-1}), over the per-layer difference products, times
    the coupling factors theta(z_{a_g,g} + z_{a_{g+1},g+1} - t_g), with one
    e-generator per layer and the full string of f-generators.
    """
    n = len(p_list) + 1
    if n < 2:
        raise ValueError("need at least one layer")
    alg = make_Btilde(p_list, ctx)
    terms = {}
    for als in itertools.product(*[range(1, p + 1) for p in p_list]):
        factors = [ex.theta1_of(ex.aff((-1, f"z{als[0]}_1")).shifted(u))]
        for g in range(1, n - 1):
            factors.append(ex.theta1_of(ex.aff(f"z{als[g-1]}_{g}", (-1, f"z{als[g]}_{g+1}")).shifted(u)))
        factors.append(ex.theta1_of(ex.aff(f"z{als[n-2]}_{n-1}").shifted(u)))
        den = []
        for g in range(1, n):
            for b in range(1, p_list[g - 1] + 1):
                if b != als[g - 1]:
                    den.append(ex.theta1_of(ex.aff(f"z{als[g-1]}_{g}", (-1, f"z{b}_{g}"))))
        for g in range(1, n - 1):
            factors.append(ex.theta1_of(ex.aff(f"z{als[g-1]}_{g}", f"z{als[g]}_{g+1}", (-1, f"t{g}"))))
        coeff = ex.mul(*factors) if not den else ex.quot(ex.mul(*factors), ex.mul(*den))
        terms[alg.exponents(*(f"e{als[g-1]}_{g}" for g in range(1, n)),
                            *(f"f{g}" for g in range(1, n - 1)))] = coeff
    return ShiftOp(alg, terms)


def btilde_family(p_list: Sequence[int], ctx: ThetaContext) -> Callable[[object], ShiftOp]:
    """The chain family as its builder: u -> build_T_tilde(u, p_list, ctx)."""
    return functools.partial(build_T_tilde, p_list=p_list, ctx=ctx)


# Face-model auxiliary transfer ----------------------------------------------------

def _sos_kernel(u, n, al, names):
    """Face-model kernel of z_al with lam = z_1+...+z_n inlined, odd theta;
    u a constant or a spectral variable's name."""
    others = [b for b in range(n) if b != al]
    # u + z_al - lam = u - sum_{b != al} z_b
    num = [ex.theta_odd_of(ex.Affine({names[b]: -1 for b in others}).shifted(u))]
    num += [ex.theta_odd_of(ex.aff(names[b]).shifted(u)) for b in others]
    den = [ex.theta_odd_of(ex.aff(names[b], (-1, names[al]))) for b in others]
    den.append(ex.theta_odd_of(ex.Affine({v: 1 for v in names})))
    return ex.quot(ex.mul(*num), ex.mul(*den))


def build_sos_Taux(u, n: int, ctx: ThetaContext) -> ShiftOp:
    """Auxiliary face-model transfer operator with lam = z_1+...+z_n inlined.

    All theta factors are the odd theta: the formula's source normalization.
    The up/down parts pair theta(z_a - eta) with the +2*eta shift and
    theta(z_a + eta) with the -2*eta shift.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    alg = make_sos(n, ctx)
    names = [f"z{i}" for i in range(1, n + 1)]
    terms = {}
    for al in range(n):
        kernel = _sos_kernel(u, n, al, names)
        up = ex.mul(kernel, ex.theta_odd_of(ex.aff(names[al], const=-ctx.eta)))
        down = ex.mul(kernel, ex.theta_odd_of(ex.aff(names[al], const=ctx.eta)))
        terms[alg.exponents(f"Tp{al + 1}")] = up
        terms[alg.exponents(f"Tm{al + 1}")] = down
    return ShiftOp(alg, terms)


def sos_family(n: int, ctx: ThetaContext) -> Callable[[object], ShiftOp]:
    """The face-model family as its builder: u -> build_sos_Taux(u, n, ctx)."""
    return functools.partial(build_sos_Taux, n=n, ctx=ctx)


def sos_vs_T_coefficient_ratio(u: complex, n: int, ctx: ThetaContext, seed: int = 0) -> float:
    """Residual of (face-model kernel) = -(basic transfer kernel), coefficient
    by coefficient, after reflecting z -> -z.

    The face-model coefficient is the up-part's without its generator-defining
    factor theta(z_a - eta) (that factor is the change of generators), the
    basic kernel is evaluated in the same odd-theta normalization, and the
    basic algebra's deformation parameter is identified as 2*eta/n (the
    shifts match under the reflection).  Neither kernel depends on eta, so
    only ctx.tau is read.  Their ratio is the constant -1 from reflecting the
    two global normalizations, so kernel + basic must vanish, measured
    relative to both at 10 sampled points.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    names = [f"z{i}" for i in range(1, n + 1)]
    reflect = {v: ex.aff((-1, v)) for v in names}  # the same argument bits as evaluating at -z
    basics = [_transfer_coefficient(u, n, al, names, ex.theta_odd_of) for al in range(n)]
    kernels = [ex.substitute(_sos_kernel(u, n, al, names), reflect) for al in range(n)]

    def relations(at):
        values = at.values(kernels + basics)
        return [(k + b, k, b) for k, b in zip(values[:n], values[n:])]

    return relation_max(relations, box(10, names, ctx), seed, ctx)
