"""Classical Poisson counterparts of the shift-operator constructions.

A Poisson shift algebra has function coefficients in variables v_1..v_p and
commuting generator symbols g_1..g_r with the triangular bracket

    {g_a, v_b} = c[a][b] * g_a,   {v, v} = {g, g} = 0,

extended by Leibniz and bilinearity, so on elements F*g^m:

    {F g^m, G g^k} = (F * D_m(G) - G * D_k(F)) g^(m+k),
    D_m(G) = sum_{a,b} m_a c[a][b] dG/dv_b.

Derivatives are symbolic (theta leaves carry derivative orders); finite
differences could not reach the 1e-9 residual targets.

Built on top: the cone bracket ({f_i, z_i} = -n f_i), determinant
hamiltonians H_i = Delta_i / Delta_0 and their pairwise bracket residuals,
the Jacobi determinant identity, the classical bosonization map psi_p, and
the three-term Fay identity for the odd theta.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cfdet import cf_det
from .context import ThetaContext
from .errors import PoleError
from . import expr as ex
from .sampling import pair_guards, rel_residual, sample_points, stack_assignments
from .shiftops import GeneratorAlgebra, TermMap, TermMapBackend, bosonize, sum_to_zero_residual


@dataclass(frozen=True)
class PoissonShiftAlgebra(GeneratorAlgebra):
    var_names: tuple
    gen_names: tuple
    c: tuple  # bracket constants, one row per generator
    ctx: ThetaContext


def make_poisson_algebra(var_names, gen_names, c, ctx) -> PoissonShiftAlgebra:
    rows = tuple(tuple(complex(x) for x in row) for row in c)
    return PoissonShiftAlgebra(tuple(var_names), tuple(gen_names), rows, ctx)


def make_cone(n: int, ctx: ThetaContext) -> PoissonShiftAlgebra:
    """Classical cone algebra: {f_i, z_i} = -n f_i, everything else zero."""
    c = [[(-n if i == a else 0) for i in range(n)] for a in range(n)]
    return make_poisson_algebra([f"z{i}" for i in range(1, n + 1)],
                                [f"f{i}" for i in range(1, n + 1)], c, ctx)


def make_classical_bpn(p: int, n: int, ctx: ThetaContext) -> PoissonShiftAlgebra:
    """{e_a, u_a} = (n-2) e_a, {e_a, u_b} = -2 e_a for a != b."""
    c = [[((n - 2) if b == a else -2) for b in range(p)] for a in range(p)]
    return make_poisson_algebra([f"u{i}" for i in range(1, p + 1)],
                                [f"e{i}" for i in range(1, p + 1)], c, ctx)


class PoissonElement(TermMap):
    """Term map whose generators commute: the product just adds exponents."""

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, PoissonElement):
            return self.scaled(other)
        out = {}
        for m, F in self.terms.items():
            for k, G in other.terms.items():
                mi = tuple(x + y for x, y in zip(m, k))
                contrib = ex.mul(F, G)
                out[mi] = ex.add(out[mi], contrib) if mi in out else contrib
        return PoissonElement(self.algebra, out)

    def evaluate(self, env, ctx=None):
        """Value at a point of the phase space: env binds variables and generators."""
        ctx = ctx or self.algebra.ctx
        total = 0
        for mi, coeff in self.terms.items():
            v = ex.evaluate(coeff, env, ctx)
            for gi, e in enumerate(mi):
                if e:
                    v = v * env[self.algebra.gen_names[gi]] ** e
            total = total + v
        return total

    def __repr__(self):
        return f"PoissonElement<{len(self.terms)} terms>"


def _directional_derivative(algebra, exponents, G: ex.MeroExpr) -> ex.MeroExpr:
    """D_m(G) = sum_{a,b} m_a c[a][b] dG/dv_b."""
    weights = [0j] * algebra.p
    for a, m in enumerate(exponents):
        if m:
            for b in range(algebra.p):
                weights[b] += m * algebra.c[a][b]
    parts = []
    for b, w in enumerate(weights):
        if w != 0:
            parts.append(ex.mul(ex.const(w), ex.diff(G, algebra.var_names[b])))
    return ex.add(*parts)


def pbracket_halves(a: PoissonElement, b: PoissonElement):
    """(P, N) with {a, b} = P - N; the halves carry the cancellation scale."""
    alg = a.algebra
    P: dict[tuple, ex.MeroExpr] = {}
    N: dict[tuple, ex.MeroExpr] = {}
    for m, F in a.terms.items():
        for k, G in b.terms.items():
            mi = tuple(x + y for x, y in zip(m, k))
            p_part = ex.mul(F, _directional_derivative(alg, m, G))
            n_part = ex.mul(G, _directional_derivative(alg, k, F))
            P[mi] = ex.add(P[mi], p_part) if mi in P else p_part
            N[mi] = ex.add(N[mi], n_part) if mi in N else n_part
    return PoissonElement(alg, P), PoissonElement(alg, N)


def pbracket(a: PoissonElement, b: PoissonElement) -> PoissonElement:
    P, N = pbracket_halves(a, b)
    return P - N


def pbracket_residual(a: PoissonElement, b: PoissonElement, samples: int = 20,
                      seed: int = 0, guards: Sequence[ex.MeroExpr] = ()) -> float:
    """Sampled residual of {a,b} == 0, scaled by the two Leibniz halves."""
    P, N = pbracket_halves(a, b)
    return sum_to_zero_residual([P, -N], samples=samples, seed=seed, guards=guards)


class RatioBracket:
    """Evaluator of {f/h, g/k} for multiplication-operator denominators h, k.

    {f/h, g/k} = ({f,g} - (f/h){h,g} - (g/k){f,k} + (f/h)(g/k){h,k}) / (h k),
    each inner bracket taken in the ambient algebra.  Calling the object at a
    phase-space point returns the value; residual_at also reports the largest
    constituent term as the cancellation scale.
    """

    def __init__(self, f, h, g, k):
        if not (h.is_zero() or set(h.terms) <= {h.algebra.zero_index()}):
            raise ValueError("h must be a multiplication operator")
        if not (k.is_zero() or set(k.terms) <= {k.algebra.zero_index()}):
            raise ValueError("k must be a multiplication operator")
        self.algebra = f.algebra
        self.f, self.h, self.g, self.k = f, h, g, k
        self.b_fg = pbracket(f, g)
        self.b_hg = pbracket(h, g)
        self.b_fk = pbracket(f, k)
        self.b_hk = pbracket(h, k)

    def residual_batch(self, env):
        """Vectorized over array-valued assignments; returns (values, scales)."""
        ctx = self.algebra.ctx
        hv = np.asarray(self.h.evaluate(env, ctx))
        kv = np.asarray(self.k.evaluate(env, ctx))
        if np.any(np.minimum(np.abs(hv), np.abs(kv)) < ctx.pole_guard):
            raise PoleError("ratio denominator vanishes at a sample point")
        fv = self.f.evaluate(env, ctx)
        gv = self.g.evaluate(env, ctx)
        hk = hv * kv
        terms = [
            self.b_fg.evaluate(env, ctx) / hk,
            -(fv / hv) * self.b_hg.evaluate(env, ctx) / hk,
            -(gv / kv) * self.b_fk.evaluate(env, ctx) / hk,
            (fv / hv) * (gv / kv) * self.b_hk.evaluate(env, ctx) / hk,
        ]
        value = sum(terms)
        scale = np.asarray(1.0)
        for t in terms:
            scale = np.maximum(scale, np.abs(t))
        return value, scale

    def residual_at(self, env):
        value, scale = self.residual_batch(env)
        return complex(value), float(scale)

    def __call__(self, env):
        return self.residual_at(env)[0]


def pbracket_ratio(f, h, g, k) -> RatioBracket:
    return RatioBracket(f, h, g, k)


# Determinant hamiltonians ------------------------------------------------------

@functools.lru_cache(maxsize=16)
def classical_delta_elements(n: int, ctx: ThetaContext):
    """Delta_0 .. Delta_n over the cone algebra.

    Column 0 is the generator column (entry f_r in row r), columns 1..n hold
    theta_{j-1}(z_r); Delta_i deletes column i.  Rows touch disjoint
    (z_r, f_r) pairs, so entries of different rows Poisson-commute and the
    ordinary determinant is well defined.
    """
    alg = make_cone(n, ctx)

    def entry(r, col):
        if col == 0:
            return PoissonElement.generator(alg, f"f{r + 1}")
        return PoissonElement.function(alg, ex.theta_basis_of(col - 1, n, f"z{r + 1}"))

    be = TermMapBackend(alg, PoissonElement)
    deltas = []
    for omit in range(n + 1):
        grid = [[entry(r, col) for col in range(n + 1) if col != omit] for r in range(n)]
        deltas.append(cf_det(grid, be))
    return alg, deltas


def _phase_space_points(alg, count, seed, guards):
    """z-points from the guarded box plus nonzero generator values."""
    pts = sample_points(count, alg.var_names, guards, seed, alg.ctx)
    rng = np.random.default_rng(seed + 0x9E3779B9)
    out = []
    for p in pts:
        env = dict(p)
        for g in alg.gen_names:
            while True:
                val = complex(rng.random() - 0.5, rng.random() - 0.5)
                if abs(val) > 0.1:
                    break
            env[g] = val
        out.append(env)
    return out


@functools.lru_cache(maxsize=16)
def _hamiltonian_brackets(n: int, ctx: ThetaContext):
    """Cached symbolic ratio-brackets for all hamiltonian pairs."""
    alg, deltas = classical_delta_elements(n, ctx)
    guards = pair_guards(alg.var_names)
    guards.append(ex.theta1_of(ex.aff(*alg.var_names)))  # theta(sum z): zero of Delta_0
    brackets = [pbracket_ratio(deltas[i], deltas[0], deltas[j], deltas[0])
                for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return alg, deltas, tuple(guards), tuple(brackets)


def classical_hamiltonians(n: int, ctx: ThetaContext, seed: int = 0, points: int = 20):
    """Max pairwise |{H_i, H_j}| residual for H_i = Delta_i / Delta_0 over all
    the points; a bracket that poles at one of them raises PoleError."""
    alg, deltas, guards, brackets = _hamiltonian_brackets(n, ctx)
    stacked = stack_assignments(_phase_space_points(alg, points, seed, list(guards)))
    ratios = [(deltas[i], deltas[0]) for i in range(1, n + 1)]
    worst = 0.0
    for rb in brackets:
        values, scales = rb.residual_batch(stacked)
        worst = max(worst, float(np.max(np.abs(values) / scales)))
    return ratios, worst


@functools.lru_cache(maxsize=16)
def _jacobi_delta_terms(n: int, ctx: ThetaContext, ijk):
    i, j, k = ijk
    alg, deltas = classical_delta_elements(n, ctx)
    cyclic = [(i, j, k), (j, k, i), (k, i, j)]
    return alg, tuple(deltas[a] * pbracket(deltas[b], deltas[c]) for a, b, c in cyclic)


def jacobi_delta_residual(n: int, ctx: ThetaContext, ijk, seed: int = 0, points: int = 20) -> float:
    """Residual of Delta_i {Delta_j, Delta_k} + cyclic permutations = 0."""
    alg, elems = _jacobi_delta_terms(n, ctx, tuple(ijk))
    stacked = stack_assignments(_phase_space_points(alg, points, seed, pair_guards(alg.var_names)))
    vals = [np.asarray(e.evaluate(stacked, ctx)) for e in elems]
    return rel_residual(sum(vals), *vals)


# Classical bosonization ---------------------------------------------------------

def psi_p(f: ex.MeroExpr, p: int, n: int, ctx: ThetaContext) -> PoissonElement:
    """psi_p(f) = sum_a f(u_a) / prod_{i != a} theta(u_a - u_i) * e_a.

    f is a degree-one theta expression in a single free variable.
    """
    names = ex.free_vars(f)
    if len(names) != 1:
        raise ValueError(f"psi_p needs a function of one variable, got {sorted(names)}")
    (w,) = names
    return bosonize(f, w, make_classical_bpn(p, n, ctx), PoissonElement)


def psi2_pair_residual(ctx: ThetaContext, seed: int = 0, samples: int = 20,
                       coeffs=None) -> float:
    """{psi_2(theta_0), psi_2(theta_1)} residual in the n = 2 algebra.

    With coeffs = ((a0, a1), (b0, b1)) the two arguments are the
    corresponding linear combinations of the order-2 basis.
    """
    c = coeffs or ((1, 0), (0, 1))
    f = ex.add(*(ex.mul(ex.const(c[0][i]), ex.theta_basis_of(i, 2, "w")) for i in range(2)))
    g = ex.add(*(ex.mul(ex.const(c[1][i]), ex.theta_basis_of(i, 2, "w")) for i in range(2)))
    a = psi_p(f, 2, 2, ctx)
    b = psi_p(g, 2, 2, ctx)
    return pbracket_residual(a, b, samples=samples, seed=seed, guards=pair_guards(a.algebra.var_names))


# Fay identity -------------------------------------------------------------------

def fay_residual(a: complex, b: complex, c: complex, d: complex, ctx: ThetaContext) -> float:
    """Three-term trisecant identity residual for the odd theta.

    |T1 - T2 + T3| / max|Ti| with
    T1 = t(a+c) t(a-c) t(b+d) t(b-d),
    T2 = t(a+b) t(a-b) t(c+d) t(c-d),
    T3 = t(a+d) t(a-d) t(c+b) t(c-b).
    """
    from .theta import theta_odd

    t = lambda z: theta_odd(z, ctx)
    t1 = t(a + c) * t(a - c) * t(b + d) * t(b - d)
    t2 = t(a + b) * t(a - b) * t(c + d) * t(c - d)
    t3 = t(a + d) * t(a - d) * t(c + b) * t(c - b)
    scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
    return abs(t1 - t2 + t3) / scale


def fay_sweep(count: int, seed: int, ctx: ThetaContext) -> float:
    """Max residual over seeded random quadruples from the fundamental box."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        a, b, c, d = (complex(rng.random(), ctx.tau.imag * rng.random()) for _ in range(4))
        worst = max(worst, fay_residual(a, b, c, d, ctx))
    return worst
