"""Transfer operators: determinant ratios and their commuting families.

The basic family lives in the Weyl-like algebra on z_1..z_n: with
ft_a = f_a / theta(z_1+...+z_n),

    T(u) = sum_a theta(u + sum_{b != a} z_b) prod_{b != a} theta(u - z_b)
                 / prod_{b != a} theta(z_a - z_b) * ft_a,

which equals D_0^{-1} sum_j (-1)^j theta_j(u) D_j for the theta-column
determinants, up to one global constant.  Consistency of the two forms is
certified by dividing out that constant and sampling; their commutation for
different spectral parameters is the headline identity.

The chain algebra carries the analogous multi-layer transfer function, and
the face-model auxiliary transfer matrix is built from the *odd* theta: its
formula comes from the dynamical R-matrix literature, whose theta is odd,
and the mixed up/down shift relations genuinely fail for the quasi-odd
order-1 normalization (checked numerically).  The coefficient-ratio test
identifies it with T(u) after reflecting the variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .context import ThetaContext
from .errors import PoleError
from . import expr as ex
from .sampling import pair_guards, sample_points, stack_assignments
from .shiftops import (
    ShiftAlgebra,
    ShiftOp,
    TermMapBackend,
    invert_multiplication,
    make_Btilde,
    make_sos,
    make_Vn,
    op_equal,
    shift_mul,
)
from .cfdet import minors
from .theta import theta_basis


# The basic transfer family -------------------------------------------------------

@dataclass
class TransferFamily:
    """One-parameter operator family; builder(u) must be degree-homogeneous."""

    algebra: ShiftAlgebra
    builder: Callable[[complex], ShiftOp]
    label: str
    guards: list = field(default_factory=list)

    def build(self, u: complex) -> ShiftOp:
        op = self.builder(u)
        if len(op.degrees()) > 1:
            raise ValueError(f"{self.label}: builder produced mixed degrees {op.degrees()}")
        return op


def _transfer_coefficient(u, n, al, names, theta_of, sum_shift=None):
    """theta(u + sum_{b != al} z_b) prod theta(u - z_b) / prod theta(z_al - z_b),
    with an optional 1/theta(sum z) normalization folded in."""
    others = [b for b in range(n) if b != al]
    num = [theta_of(ex.Affine({names[b]: 1 for b in others}, const=u))]
    num += [theta_of(ex.aff((-1, names[b]), const=u)) for b in others]
    den = [theta_of(ex.aff(names[al], (-1, names[b]))) for b in others]
    if sum_shift is not None:
        den.append(theta_of(ex.Affine({v: 1 for v in names}, const=sum_shift)))
    return ex.quot(ex.prod_over(num), ex.prod_over(den))


def build_T(u: complex, n: int, ctx: ThetaContext) -> ShiftOp:
    """The explicit-coefficient transfer operator in the z/f algebra.

    The 1/theta(z_1+...+z_n) normalization multiplies each coefficient on
    the left, before the generator monomial.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    alg = make_Vn(n, ctx)
    names = [f"z{i}" for i in range(1, n + 1)]
    terms = {}
    for al in range(n):
        coeff = _transfer_coefficient(u, n, al, names, ex.theta1_of, sum_shift=0j)
        mi = tuple(1 if i == al else 0 for i in range(n))
        terms[mi] = coeff
    return ShiftOp(alg, terms)


def _kernel_guards(names, theta_of):
    """Zeros of the kernel denominators: theta(z_a - z_b) and theta(sum z)."""
    return pair_guards(names, theta_of) + [theta_of(ex.Affine({v: 1 for v in names}))]


def vn_family(n: int, ctx: ThetaContext) -> TransferFamily:
    alg = make_Vn(n, ctx)
    guards = _kernel_guards(alg.var_names, ex.theta1_of)
    return TransferFamily(alg, lambda u: build_T(u, n, ctx), f"T.z{n}", guards)


def transfer_commutator_residual(family: TransferFamily, u: complex, v: complex,
                                 samples: int = 20, seed: int = 0) -> float:
    """[T(u), T(v)] residual via the two products' coefficient cancellation."""
    Tu = family.build(u)
    Tv = family.build(v)
    return op_equal(shift_mul(Tu, Tv), shift_mul(Tv, Tu),
                    samples=samples, seed=seed, guards=family.guards)


def transfer_det_consistency_residual(u: complex, n: int, ctx: ThetaContext,
                                      samples: int = 15, seed: int = 0) -> float:
    """build_T(u) against D^{-1} sum_j (-1)^j theta_j(u) D_j.

    D and D_j are the Cartier-Foata minors of the grid whose row r is
    theta_0(z_r) .. theta_{n-1}(z_r), f_r: D deletes the generator column,
    D_j the theta column j.  Rows commute because row r only touches
    (z_r, f_r).  One global u-independent constant relates the two forms; it
    is measured at the first sample point and divided out.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    alg = make_Vn(n, ctx)
    names = [f"z{i}" for i in range(1, n + 1)]
    grid = [[ShiftOp.function(alg, ex.theta_basis_of(j, n, names[r])) for j in range(n)]
            + [ShiftOp.generator(alg, f"f{r + 1}")] for r in range(n)]
    ms = minors(grid, TermMapBackend())
    acc = ShiftOp.zero(alg)
    for j in range(n):
        acc = acc + ms[j].scaled((-1) ** j * theta_basis(j, u, ctx, n=n))
    t_det = shift_mul(invert_multiplication(ms[n]), acc)
    t_exp = build_T(u, n, ctx)

    guards = _kernel_guards(names, ex.theta1_of)
    pts = sample_points(samples, names, guards, seed, ctx)
    mi0 = next(iter(t_exp.terms))
    c_det = ex.evaluate(t_det.terms[mi0], pts[0], ctx)
    c_exp = ex.evaluate(t_exp.terms[mi0], pts[0], ctx)
    if abs(c_exp) < ctx.pole_guard:
        raise PoleError("reference coefficient too small to normalize")
    const = c_det / c_exp
    return op_equal(t_det, t_exp.scaled(complex(const)),
                    samples=samples, seed=seed + 1, guards=guards)


# Chain transfer function ---------------------------------------------------------

def build_T_tilde(u: complex, p_list: Sequence[int], ctx: ThetaContext) -> ShiftOp:
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
    gen_index = {g: i for i, g in enumerate(alg.gen_names)}
    for als in itertools.product(*[range(1, p + 1) for p in p_list]):
        factors = [ex.theta1_of(ex.aff((-1, f"z{als[0]}_1"), const=u))]
        for g in range(1, n - 1):
            factors.append(ex.theta1_of(ex.aff(f"z{als[g-1]}_{g}", (-1, f"z{als[g]}_{g+1}"), const=u)))
        factors.append(ex.theta1_of(ex.aff(f"z{als[n-2]}_{n-1}", const=u)))
        den = []
        for g in range(1, n):
            for b in range(1, p_list[g - 1] + 1):
                if b != als[g - 1]:
                    den.append(ex.theta1_of(ex.aff(f"z{als[g-1]}_{g}", (-1, f"z{b}_{g}"))))
        for g in range(1, n - 1):
            factors.append(ex.theta1_of(ex.aff(f"z{als[g-1]}_{g}", f"z{als[g]}_{g+1}", (-1, f"t{g}"))))
        coeff = ex.prod_over(factors) if not den else ex.quot(ex.prod_over(factors), ex.prod_over(den))
        mi = [0] * alg.r
        for g in range(1, n):
            mi[gen_index[f"e{als[g-1]}_{g}"]] = 1
        for g in range(1, n - 1):
            mi[gen_index[f"f{g}"]] = 1
        terms[tuple(mi)] = coeff
    return ShiftOp(alg, terms)


def btilde_family(p_list: Sequence[int], ctx: ThetaContext) -> TransferFamily:
    alg = make_Btilde(p_list, ctx)
    guards = []
    n = len(p_list) + 1
    for g in range(1, n):
        layer = [f"z{b}_{g}" for b in range(1, p_list[g - 1] + 1)]
        guards.extend(pair_guards(layer))
    return TransferFamily(alg, lambda u: build_T_tilde(u, p_list, ctx),
                          f"T.chain{p_list}", guards)


# Face-model auxiliary transfer ----------------------------------------------------

def _sos_kernel(u, n, al, names):
    """Face-model kernel of z_al with lam = z_1+...+z_n inlined, odd theta."""
    others = [b for b in range(n) if b != al]
    # u + z_al - lam = u - sum_{b != al} z_b
    num = [ex.theta_odd_of(ex.Affine({names[b]: -1 for b in others}, const=u))]
    num += [ex.theta_odd_of(ex.aff(names[b], const=u)) for b in others]
    den = [ex.theta_odd_of(ex.aff(names[b], (-1, names[al]))) for b in others]
    den.append(ex.theta_odd_of(ex.Affine({v: 1 for v in names})))
    return ex.quot(ex.prod_over(num), ex.prod_over(den))


def build_sos_Taux(u: complex, n: int, ctx: ThetaContext) -> ShiftOp:
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
        mi_up = [0] * alg.r
        mi_up[alg.gen_index(f"Tp{al + 1}")] = 1
        mi_dn = [0] * alg.r
        mi_dn[alg.gen_index(f"Tm{al + 1}")] = 1
        terms[tuple(mi_up)] = up
        terms[tuple(mi_dn)] = down
    return ShiftOp(alg, terms)


def sos_family(n: int, ctx: ThetaContext) -> TransferFamily:
    alg = make_sos(n, ctx)
    guards = _kernel_guards(alg.var_names, ex.theta_odd_of)
    return TransferFamily(alg, lambda u: build_sos_Taux(u, n, ctx), f"T.face{n}", guards)


def sos_vs_T_coefficient_ratio(u: complex, n: int, ctx: ThetaContext,
                               samples: int = 10, seed: int = 0) -> float:
    """Coefficient-ratio spread between the up-part of the face-model
    transfer and the basic transfer kernel, after reflecting z -> -z.

    The up-part coefficient is taken without its generator-defining factor
    theta(z_a - eta) (that factor is the change of generators), the basic
    kernel is evaluated in the same odd-theta normalization, and the basic
    algebra's deformation parameter is identified as 2*eta/n (the shifts
    match under the reflection).  Neither kernel depends on eta, so only
    ctx.tau is read.  Any z-, u- or index-dependence of the
    ratio would make the spread blow up; the expected ratio is the constant
    -1 from reflecting the two global normalizations.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    names = [f"z{i}" for i in range(1, n + 1)]
    pts = sample_points(samples, names, _kernel_guards(names, ex.theta_odd_of), seed, ctx)
    stacked = stack_assignments(pts)
    reflected = {v: np.negative(stacked[v]) for v in names}
    ratios = []
    for al in range(n):
        basic = _transfer_coefficient(u, n, al, names, ex.theta_odd_of, sum_shift=0j)
        cs = np.asarray(ex.evaluate(_sos_kernel(u, n, al, names), reflected, ctx))
        cb = np.asarray(ex.evaluate(basic, stacked, ctx))
        ratios.append(cs / cb)
    ref = ratios[0].flat[0]
    spread = 0.0
    for r in ratios:
        spread = max(spread, float(np.max(np.abs(r / ref - 1))))
    return spread
