"""Symmetric theta-function spaces, the star product and its bosonizations.

Degree-a elements are symmetric functions of z_1..z_a, 1-periodic in each
variable and picking up (-1)^n exp(-2*pi*i*n*z) under a tau-shift.  The star
product of degrees (a, b) is implemented as a sum over (a, b)-shuffles: both
factors are symmetric, so every shuffle stands for a!b! equal permutation
terms, cancelling the 1/(a!b!) prefactor; cost C(a+b, a) instead of (a+b)!.

The bosonization sends a degree-one element f to

    sum_a f(u_a) / prod_{i != a} theta(u_a - u_i) * e_a

in the shift algebra B_{p,n}.  Its well-definedness is certified without any
basis convention: the sampled rank of {theta_i * theta_j} must equal
n(n+1)/2, and every sampled kernel vector must annihilate the corresponding
operator combination.  The explicit quadratic relations of Q_{n,1}(E, eta)
hold in Odesskii's normalized basis, which is built from theta_a by a
constant and a shift; `qnk_relation_residual` certifies them.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .context import ThetaContext
from .errors import InconclusiveRankError
from . import expr as ex
from .sampling import box, relation_max, sampled_max
from .shiftops import (
    ShiftOp,
    bosonize,
    make_Bpn,
    stacked_commutator_residual,
    sum_to_zero_residual,
)


def _zvars(degree):
    return [f"z{i}" for i in range(1, degree + 1)]


@dataclass(frozen=True)
class SymThetaFun:
    """Holomorphic symmetric function of `degree` variables, order n."""

    degree: int
    order_n: int
    body: ex.MeroExpr
    ctx: ThetaContext

    def __post_init__(self):
        allowed = set(_zvars(self.degree))
        free = ex.free_vars(self.body)
        if not free <= allowed:
            raise ValueError(f"body uses {sorted(free - allowed)} outside z1..z{self.degree}")

    def __call__(self, *zs):
        if len(zs) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        env = dict(zip(_zvars(self.degree), zs))
        return ex.evaluate(self.body, env, self.ctx)

    def invariant_residual(self, samples: int = 12, seed: int = 0) -> float:
        """Sampled symmetry + quasi-periodicity residual (first variable).  A batch
        stacks the points and their images (z1 + 1, z1 + tau, z1 and z2 swapped) as rows."""
        names = _zvars(self.degree)
        z1 = names[0]
        points = box(samples, names, self.ctx)

        def draw(s):
            pts = points(s)
            images = [{**pts, z1: pts[z1] + 1}, {**pts, z1: pts[z1] + self.ctx.tau}]
            if self.degree >= 2:
                images.append({**pts, z1: pts[names[1]], names[1]: pts[z1]})
            return {v: np.stack([pts[v]] + [im[v] for im in images]) for v in names}

        def relations(at):
            v, per, qp, *swapped = np.broadcast_to(at(self.body), at.env[z1].shape)  # a constant body too
            symmetry = [(v - vs, v) for vs in swapped]
            return periodicity_relations(at.env[z1][0], self.order_n, v, per, qp) + symmetry

        return relation_max(relations, draw, seed, self.ctx)


def periodicity_relations(z, n: int, v, per, qp) -> list:
    """The relations of an order-n theta function's periodicity at z: v, per
    and qp are its values at z, z + 1 and z + tau; per should be v and qp
    (-1)^n exp(-2*pi*i*n*z) v."""
    expect = (-1) ** n * np.exp(-2j * math.pi * n * z) * v
    return [(per - v, v), (qp - expect, qp, expect)]


def theta_gen(i: int, n: int, ctx: ThetaContext) -> SymThetaFun:
    """Degree-one basis element theta_i of order n."""
    return SymThetaFun(1, n, ex.theta_basis_of(i, n, "z1"), ctx)


def star(f: SymThetaFun, g: SymThetaFun) -> SymThetaFun:
    """Shuffle form of the star product; lands in degree f.degree + g.degree."""
    if f.order_n != g.order_n or f.ctx != g.ctx:
        raise ValueError("star needs matching order and context")
    a, b = f.degree, g.degree
    n, eta = f.order_n, f.ctx.eta
    total_vars = _zvars(a + b)
    terms = []
    for fslots in itertools.combinations(range(a + b), a):
        gslots = [i for i in range(a + b) if i not in fslots]
        fmap = {f"z{i+1}": ex.aff(total_vars[s], const=b * eta) for i, s in enumerate(fslots)}
        gmap = {f"z{j+1}": ex.aff(total_vars[s], const=-a * eta) for j, s in enumerate(gslots)}
        factors = [ex.substitute(f.body, fmap), ex.substitute(g.body, gmap)]
        for i in fslots:
            for j in gslots:
                diffarg = ex.aff(total_vars[i], (-1, total_vars[j]))
                factors.append(ex.quot(ex.theta1_of(diffarg.shifted(-n * eta)),
                                       ex.theta1_of(diffarg)))
        terms.append(ex.mul(*factors))
    return SymThetaFun(a + b, n, ex.add(*terms), f.ctx)


def star_assoc_residual(f: SymThetaFun, g: SymThetaFun, h: SymThetaFun,
                        samples: int = 20, seed: int = 0) -> float:
    """Sampled residual of (f*g)*h == f*(g*h)."""
    left = star(star(f, g), h).body
    right = star(f, star(g, h)).body
    names = _zvars(f.degree + g.degree + h.degree)

    def relations(at):
        lv, rv = at.values((left, right))
        return [(lv - rv, lv, rv)]

    return relation_max(relations, box(samples, names, f.ctx), seed, f.ctx)


def eta_flatness_ratio(n: int, ctx: ThetaContext, seed: int = 0) -> float:
    """Commutator magnitude ratio M(1e-2)/M(1e-3) for eta scaled by 1e-2 and 1e-3,
    at 10 sampled points.

    The star commutator of degree-one elements is O(eta), so the ratio should
    be 10 within a modest factor.
    """
    comms = []
    for t in (1e-2, 1e-3):
        cs = ctx.replace(eta=ctx.eta * t)  # eta enters the trees, not their evaluation
        f = theta_gen(0, n, cs)
        g = theta_gen(1 % n, n, cs)
        comms.append(star(f, g).body - star(g, f).body)

    def measure(at):
        mags = [float(np.max(np.abs(np.asarray(at(comm))))) for comm in comms]
        return mags[0] / mags[1]

    return sampled_max(measure, box(10, _zvars(2), ctx), seed, ctx)


# Bosonization -------------------------------------------------------------------

def phi_p(f: SymThetaFun, p: int, ctx: ThetaContext) -> ShiftOp:
    """phi_p(f) = sum_a f(u_a) / prod_{i != a} theta(u_a - u_i) * e_a."""
    if f.degree != 1:
        raise ValueError("phi_p is defined on degree-one elements")
    return bosonize(f.body, "z1", make_Bpn(p, f.order_n, ctx), ShiftOp)


_RANK_GAP = 1e3  # the least singular-value gap at the expected rank that resolves it


def hom_welldefined_residual(n: int, p: int, ctx: ThetaContext, seed: int = 0,
                             samples: int | None = None) -> float:
    """Convention-free certification that phi_p descends from the relations.

    (a) Sample the n^2 products theta_i * theta_j at seeded point pairs;
        the numerical rank must be n(n+1)/2 with a singular-value gap
        of at least _RANK_GAP, else the check is inconclusive.
    (b) Every kernel vector c of the sample matrix satisfies
        sum c_ij theta_i * theta_j = 0; the operator
        sum c_ij phi_p(theta_i) phi_p(theta_j) must then vanish.  The largest
        sum_to_zero_residual over the kernel vectors, all on one batch, is returned.
    """
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 and p >= 1")
    npts = samples or 2 * n * n + 8
    gens = [theta_gen(i, n, ctx) for i in range(n)]
    products = [star(gens[i], gens[j]).body for i in range(n) for j in range(n)]
    A = sampled_max(lambda at: np.array([np.asarray(at(b)) for b in products]),
                    box(npts, ["z1", "z2"], ctx), seed, ctx)
    row_scale = np.max(np.abs(A), axis=1)
    A = A / row_scale[:, None]

    U, S, _ = np.linalg.svd(A, full_matrices=False)
    r = n * (n + 1) // 2
    if len(S) <= r:
        raise InconclusiveRankError(
            f"only {len(S)} singular values from {npts} samples; rank {r} unresolvable", gap=0.0)
    gap = float(S[r - 1] / max(S[r], 1e-300))
    if gap < _RANK_GAP:
        raise InconclusiveRankError(
            f"singular-value gap {gap:.2e} below {_RANK_GAP:.0e}; resample", gap=gap)

    return sum_to_zero_residual(_phi_products(gens, p, ctx), samples=10, seed=seed + 1,
                                relations=np.conj(U[:, r:]).T / row_scale)


def _phi_products(gens, p: int, ctx: ThetaContext) -> list:
    """The n^2 products phi_p(x_a) phi_p(x_b) of gens x_0..x_{n-1}, at index a*n + b,
    as factor pairs, which sum_to_zero_residual samples without building them."""
    phis = [phi_p(g, p, ctx) for g in gens]
    return [(x, y) for x in phis for y in phis]


def _odesskii_gen(a: int, n: int, ctx: ThetaContext) -> SymThetaFun:
    """Odesskii's normalized basis element theta^O_a, 0 <= a < n, through this library's theta_a.

    even n: q^(a(a-n)/(2n)) theta_a(z + 1/(2n)); odd n: q^(a(a-n)/(2n)) e^(pi*i*a/n) theta_a(z),
    with q = exp(2*pi*i*tau).
    """
    scale = cmath.exp(1j * math.pi * a * ((a - n) * ctx.tau + n % 2) / n)
    shift = 0.0 if n % 2 else 1 / (2 * n)
    body = ex.mul(ex.const(scale), ex.theta_basis_of(a, n, ex.aff("z1", const=shift)))
    return SymThetaFun(1, n, body, ctx)


def qnk_relation_residual(n: int, p: int, ctx: ThetaContext, seed: int = 0) -> float:
    """Largest residual of the quadratic relations of Q_{n,1}(E, eta) under phi_p.

    With x_a = theta^O_a (Odesskii's normalized basis, `_odesskii_gen`), every
    ordered pair i != j mod n gives the relation

        sum_r theta^O_{j-i}(0) / (theta^O_{j-i-r}(eta) theta^O_r(-eta))
              * phi_p(x_{j-r}) phi_p(x_{i+r}) = 0

    (Feigin & Odesskii, Funct. Anal. Appl. 23, 1989; Odesskii, "Elliptic
    algebras", arXiv:math/0303021), with eta negated against Odesskii's text
    to match this library's orientation of B_{p,n}.  The largest
    sum_to_zero_residual over the n(n-1) relations, all on one batch of 12
    points, is returned.
    """
    gens = [_odesskii_gen(a, n, ctx) for a in range(n)]
    relations = np.zeros((n * (n - 1), n * n), dtype=complex)
    for row, (i, j) in zip(relations, itertools.permutations(range(n), 2)):
        num = gens[(j - i) % n](0.0)
        for r in range(n):
            den = gens[(j - i - r) % n](ctx.eta) * gens[r](-ctx.eta)
            row[(j - r) % n * n + (i + r) % n] = num / ex.nonpole(
                den, "structure-constant denominator vanishes at this eta")
    return sum_to_zero_residual(_phi_products(gens, p, ctx), 12, seed, relations)


# Central elements and the commuting family ---------------------------------------

def casimir(alpha: int, m: int, ctx: ThetaContext) -> SymThetaFun:
    """Degree-m central element of the order-2m algebra, vanishing on the
    shifted diagonal z_2 = z_1 + 2m*eta.

    theta_alpha(z_1+...+z_m) * prod_{i != j} theta(z_i - z_j - 2m*eta),
    times exp(2*pi*i*(m-1)*(z_1+...+z_m)): the exponential restores the exact
    order-2m quasi-periodicity under this library's series normalization
    (each tau-shift otherwise picks up a stray q^(1-m)).
    """
    if alpha not in (0, 1):
        raise ValueError("alpha indexes the two-dimensional order-2 basis")
    if m < 2:
        raise ValueError("need m >= 2")
    names = _zvars(m)
    total = ex.aff(*names)
    factors = [ex.theta_basis_of(alpha, 2, total), ex.exp2pii(ex.Affine({v: m - 1 for v in names}))]
    for i in range(m):
        for j in range(m):
            if i != j:
                factors.append(ex.theta1_of(ex.aff(names[i], (-1, names[j]), const=-2 * m * ctx.eta)))
    return SymThetaFun(m, 2 * m, ex.mul(*factors), ctx)


def fu_constants(m: int, a: complex, b: complex, ctx: ThetaContext) -> dict:
    """The values of build_fu_bosonized's per-seed variables "_a", "_b" and "_psi" (the Psi shift)."""
    psi = 4 * m * m * ctx.eta - (a + (m - 2) * b + 2 * m * (m - 2) * ctx.eta) / (m + 5)
    return {"_a": a, "_b": b, "_psi": psi}


def build_fu_bosonized(u, m: int, a, b, ctx: ThetaContext, psi=None) -> ShiftOp:
    """Image of the degree-m commuting family element in B_{m-1, 2m}.

    sum_al [theta(u + sum_{be != al} z_be) prod theta(u - z_be)
            / prod theta(z_be - z_al)] * f_al,
    f_al = Psi(z_al + 4m^2 eta - (a + (m-2)b + 2m(m-2) eta)/(m+5))
           * theta(sum z + a) * prod_{be != al} theta(z_al + z_be + b)
           * exp(2 pi i (2(m-2) z_al + sum_{be != al} z_be)) * e_al e_1..e_{m-1},
    with Psi = theta_0, the first basis element of order m+5.  u, a, b and
    the Psi shift psi are constants, or names of variables that stand for
    them (the family built once; `fu_commutator_residual`); psi=None takes
    the shift of the constants a and b (`fu_constants`).
    """
    if m < 2:
        raise ValueError("need m >= 2")
    p = m - 1
    n = 2 * m
    alg = make_Bpn(p, n, ctx)
    names = [f"u{i}" for i in range(1, p + 1)]  # B_{p,n} variables
    if psi is None:
        psi = fu_constants(m, a, b, ctx)["_psi"]
    terms = {}
    for al in range(1, p + 1):
        others = [be for be in range(1, p + 1) if be != al]
        kernel_num = [ex.theta1_of(ex.Affine({names[be - 1]: 1 for be in others}).shifted(u))]
        kernel_num += [ex.theta1_of(ex.aff((-1, names[be - 1])).shifted(u)) for be in others]
        kernel_den = [ex.theta1_of(ex.aff(names[be - 1], (-1, names[al - 1]))) for be in others]
        fal = [
            ex.Theta("basis", ex.aff(names[al - 1]).shifted(psi), order=m + 5, index=0),
            ex.theta1_of(ex.Affine({v: 1 for v in names}).shifted(a)),
        ]
        fal += [ex.theta1_of(ex.aff(names[al - 1], names[be - 1]).shifted(b)) for be in others]
        exp_coeffs = {names[be - 1]: 1 for be in others}
        exp_coeffs[names[al - 1]] = 2 * (m - 2)
        fal.append(ex.ExpLin(ex.Affine(exp_coeffs)))
        num = ex.mul(*kernel_num, *fal)
        coeff = num if not kernel_den else ex.quot(num, ex.mul(*kernel_den))
        terms[alg.exponents(f"e{al}", *(f"e{i}" for i in range(1, p + 1)))] = coeff
    return ShiftOp(alg, terms)


def fu_commutator_residual(m: int, params, ctx: ThetaContext, samples: int = 15, seed: int = 0) -> float:
    """Largest [f(u), f(v)] residual in the bosonized algebra over the (u, v, a, b)
    of params, entry s sampled at batch seed seed + s.

    f is built once, at the variables "_u", "_v", "_a", "_b" and "_psi", and
    the entries are stacked (shiftops.stacked_commutator_residual).
    """
    fu, fv = (build_fu_bosonized(x, m, "_a", "_b", ctx, psi="_psi") for x in ("_u", "_v"))
    constants = [{"_u": u, "_v": v, **fu_constants(m, a, b, ctx)} for u, v, a, b in params]
    return stacked_commutator_residual(fu, fv, constants, samples=samples, seed=seed)
