"""Classical Poisson counterparts of the shift-operator constructions.

The Poisson limit of a shift algebra (shiftops.ShiftAlgebra) has the same
variables v_1..v_p and commuting generator symbols g_1..g_r, and its step
matrix S gives the triangular bracket

    {g_a, v_b} = S[a][b] * g_a,   {v, v} = {g, g} = 0,

extended by Leibniz and bilinearity, so on elements F*g^m:

    {F g^m, G g^k} = (F * D_m(G) - G * D_k(F)) g^(m+k),
    D_m(G) = sum_{a,b} m_a S[a][b] dG/dv_b.

Derivatives are symbolic (theta leaves carry derivative orders); finite
differences could not reach the 1e-9 residual targets.

Built on top: the cone bracket of V_n ({f_i, z_i} = -n f_i), determinant
hamiltonians H_i = Delta_i / Delta_0 and their pairwise bracket residuals,
the Jacobi determinant identity, the classical bosonization map psi_p, and
the three-term Fay identity for the odd theta.
"""

from __future__ import annotations

import functools

import numpy as np

from .context import ThetaContext
from . import expr as ex
from .sampling import box, rel_residual, sampled_max
from .shiftops import TermMap, bosonize, make_Bpn, sum_to_zero_residual, theta_column_minors


class PoissonElement(TermMap):
    """Term map whose generators commute: the product just adds exponents."""

    __slots__ = ("_tree",)

    def __mul__(self, other):
        if not isinstance(other, PoissonElement):
            return self.scaled(other)
        return PoissonElement(self.algebra, self._convolve(other, lambda m, F, k, G: ex.mul(F, G)))

    @property
    def tree(self) -> ex.MeroExpr:
        """The element as one expression, built once: the sum of its terms, each its
        coefficient times IntPow(Var(g), e) per generator of its monomial, in order.
        Built with the node constructors, so nothing is folded or reordered."""
        if not hasattr(self, "_tree"):
            terms = []
            for mi, coeff in self.terms.items():
                powers = [_generator_power(g, e) for g, e in zip(self.algebra.gen_names, mi) if e]
                terms.append(ex.Product((coeff, *powers)) if powers else coeff)
            self._tree = ex.Sum(tuple(terms)) if len(terms) > 1 else terms[0] if terms else ex._ZERO
        return self._tree

    def evaluate(self, at: ex.Evaluator):
        """Value at a point of the phase space, or a batch of them: the
        evaluator's assignment binds variables and generators, and it keeps
        the value by the identity of the element's `tree`."""
        return at(self.tree)

    def __repr__(self):
        return f"PoissonElement<{len(self.terms)} terms>"


@functools.cache  # one node per (generator, power) in every tree, so a batch computes it once
def _generator_power(name: str, power: int) -> ex.MeroExpr:
    return ex.IntPow(ex.Var(name), power)


def _directional_derivative(algebra, exponents, G: ex.MeroExpr) -> ex.MeroExpr:
    """D_m(G) = sum_{a,b} m_a S[a][b] dG/dv_b."""
    weights = [0j] * algebra.p
    for a, m in enumerate(exponents):
        if m:
            for b in range(algebra.p):
                weights[b] += m * complex(algebra.steps[a][b])
    parts = []
    for b, w in enumerate(weights):
        if w != 0:
            parts.append(ex.mul(ex.const(w), ex.diff(G, algebra.var_names[b])))
    return ex.add(*parts)


def pbracket_halves(a: PoissonElement, b: PoissonElement):
    """(P, N) with {a, b} = P - N; the halves carry the cancellation scale."""
    alg = a.algebra
    P = a._convolve(b, lambda m, F, k, G: ex.mul(F, _directional_derivative(alg, m, G)))
    N = a._convolve(b, lambda m, F, k, G: ex.mul(G, _directional_derivative(alg, k, F)))
    return PoissonElement(alg, P), PoissonElement(alg, N)


def pbracket(a: PoissonElement, b: PoissonElement) -> PoissonElement:
    P, N = pbracket_halves(a, b)
    return P - N


def pbracket_residual(a: PoissonElement, b: PoissonElement, samples: int = 20, seed: int = 0) -> float:
    """Sampled residual of {a,b} == 0, scaled by the two Leibniz halves."""
    P, N = pbracket_halves(a, b)
    return sum_to_zero_residual([P, -N], samples=samples, seed=seed)


class RatioBracket:
    """Evaluator of {f/h, g/k} for multiplication-operator denominators h, k.

    {f/h, g/k} = ({f,g} - (f/h){h,g} - (g/k){f,k} + (f/h)(g/k){h,k}) / (h k),
    each inner bracket taken in the ambient algebra.  Calling the object with
    the evaluator of a phase-space point, or of a batch of them, returns the
    value; residual_batch measures it against its four terms.  All eight
    elements evaluate as their trees (`PoissonElement.tree`) through the one
    evaluator passed in, which keeps each by identity.  bracket(x, y) builds
    {x, y}; ratio brackets that pass one cached function share each inner
    bracket as one object, and so one tree, which an evaluator computes once.
    """

    def __init__(self, f, h, g, k, bracket=pbracket):
        if not h.is_multiplication():
            raise ValueError("h must be a multiplication operator")
        if not k.is_multiplication():
            raise ValueError("k must be a multiplication operator")
        self.algebra = f.algebra
        self.f, self.h, self.g, self.k = f, h, g, k
        self.b_fg = bracket(f, g)
        self.b_hg = bracket(h, g)
        self.b_fk = bracket(f, k)
        self.b_hk = bracket(h, k)

    def residual_batch(self, at: ex.Evaluator) -> float:
        """Largest |{f/h, g/k}| over the batch, relative to its terms (rel_residual)."""
        value, terms = self.residual_at(at)
        return rel_residual(value, *terms)

    def elements(self):
        """The eight elements it evaluates: f, h, g, k and the four inner brackets."""
        return self.f, self.h, self.g, self.k, self.b_fg, self.b_hg, self.b_fk, self.b_hk

    def residual_at(self, at: ex.Evaluator):
        """(value, its four terms), vectorized over array-valued assignments."""
        hv = np.asarray(self.h.evaluate(at))
        kv = np.asarray(self.k.evaluate(at))
        pole = "ratio denominator vanishes at a sample point"
        hk = ex.nonpole(hv, pole) * ex.nonpole(kv, pole)
        fh = self.f.evaluate(at) / hv
        gk = self.g.evaluate(at) / kv
        terms = [
            self.b_fg.evaluate(at) / hk,
            -fh * self.b_hg.evaluate(at) / hk,
            -gk * self.b_fk.evaluate(at) / hk,
            fh * gk * self.b_hk.evaluate(at) / hk,
        ]
        return sum(terms), terms

    def __call__(self, at: ex.Evaluator):
        return self.residual_at(at)[0]


# Determinant hamiltonians ------------------------------------------------------

@functools.lru_cache(maxsize=16)
def classical_delta_elements(n: int, ctx: ThetaContext):
    """(cone algebra, [Delta_0 .. Delta_n]): shiftops.theta_column_minors over
    the Poisson limit of V_n.

    Row r of the grid is f_r, theta_0(z_r) .. theta_{n-1}(z_r), and Delta_i
    deletes column i, the same grid whose quantum minors give the transfer
    operator.  Rows touch disjoint (z_r, f_r) pairs, so entries of different
    rows Poisson-commute and the ordinary determinant is well defined.
    """
    return theta_column_minors(n, ctx, PoissonElement)


def _phase_space_points(alg, count, seed):
    """Seeded z-points from the sampling box plus nonzero generator values, stacked.

    A generator value is a pair (re, im) of rng.random() - 0.5, redrawn
    until |value| > 0.1, point by point and generator by generator within a
    point: the stream is drawn in bulk and the accepted pairs taken in order.
    """
    env = box(count, alg.var_names, alg.ctx)(seed)
    rng = np.random.default_rng(seed + 0x9E3779B9)
    need = count * len(alg.gen_names)
    accepted = np.empty(0, dtype=complex)
    while accepted.size < need:  # about 3% of pairs are rejected
        pairs = (rng.random((need - accepted.size + 8, 2)) - 0.5).view(complex).ravel()
        accepted = np.concatenate([accepted, pairs[np.abs(pairs) > 0.1]])
    env.update(zip(alg.gen_names, np.ascontiguousarray(accepted[:need].reshape(count, -1).T)))
    return env


@functools.lru_cache(maxsize=16)
def _hamiltonian_brackets(n: int, ctx: ThetaContext):
    """Cached symbolic ratio-brackets for all hamiltonian pairs; each ordered
    pair of the Delta_i is bracketed once (13 brackets at n = 4, not 24)."""
    alg, deltas = classical_delta_elements(n, ctx)
    bracket = functools.cache(pbracket)  # elements hash by identity
    brackets = [RatioBracket(deltas[i], deltas[0], deltas[j], deltas[0], bracket)
                for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return alg, tuple(brackets)


@functools.lru_cache(maxsize=16)
def _hamiltonian_plan(n: int, ctx: ThetaContext) -> ex.Plan:
    """The compiled plan (expr.Plan) of the trees of every element the cached
    ratio-brackets evaluate, each distinct element once (18 at n = 4)."""
    _, brackets = _hamiltonian_brackets(n, ctx)
    elements = {id(e): e for rb in brackets for e in rb.elements()}
    return ex.Plan(e.tree for e in elements.values())


def classical_hamiltonians(n: int, ctx: ThetaContext, seed: int = 0, points: int = 20) -> float:
    """Max pairwise |{H_i, H_j}| residual for H_i = Delta_i / Delta_0 over all
    the points; a batch where a bracket poles is redrawn.  The cached trees
    are evaluated through their plan, which every seed of n reuses."""
    alg, brackets = _hamiltonian_brackets(n, ctx)
    plan = _hamiltonian_plan(n, ctx)

    def measure(at):
        at.values(plan)
        return max(rb.residual_batch(at) for rb in brackets)

    return sampled_max(measure, functools.partial(_phase_space_points, alg, points), seed, alg.ctx)


def _jacobi_delta_terms(n: int, ctx: ThetaContext, ijk):
    i, j, k = ijk
    alg, deltas = classical_delta_elements(n, ctx)
    cyclic = [(i, j, k), (j, k, i), (k, i, j)]
    return alg, tuple(deltas[a] * pbracket(deltas[b], deltas[c]) for a, b, c in cyclic)


def jacobi_delta_residual(n: int, ctx: ThetaContext, ijk, seed: int = 0, points: int = 20) -> float:
    """Residual of Delta_i {Delta_j, Delta_k} + its cyclic shifts in (i, j, k) = 0."""
    alg, elems = _jacobi_delta_terms(n, ctx, tuple(ijk))

    def measure(at):
        vals = [np.asarray(v) for v in at.values(e.tree for e in elems)]
        return rel_residual(sum(vals), *vals)

    return sampled_max(measure, functools.partial(_phase_space_points, alg, points), seed, alg.ctx)


# Classical bosonization ---------------------------------------------------------

def psi_p(f: ex.MeroExpr, p: int, n: int, ctx: ThetaContext) -> PoissonElement:
    """psi_p(f) = sum_a f(u_a) / prod_{i != a} theta(u_a - u_i) * e_a.

    f is a degree-one theta expression in a single free variable.
    """
    names = ex.free_vars(f)
    if len(names) != 1:
        raise ValueError(f"psi_p needs a function of one variable, got {sorted(names)}")
    (w,) = names
    return bosonize(f, w, make_Bpn(p, n, ctx), PoissonElement)


def psi2_pair_residual(ctx: ThetaContext, seed: int = 0, samples: int = 20) -> float:
    """{psi_2(theta_0), psi_2(theta_1)} residual in the n = 2 algebra."""
    a, b = (psi_p(ex.theta_basis_of(i, 2, "w"), 2, 2, ctx) for i in range(2))
    return pbracket_residual(a, b, samples=samples, seed=seed)


# Fay identity -------------------------------------------------------------------

def fay_residual(a, b, c, d, ctx: ThetaContext):
    """Three-term trisecant identity residual for the odd theta (vectorized).

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
    scale = np.maximum(np.maximum(abs(t1), abs(t2)), np.maximum(abs(t3), 1e-300))
    return abs(t1 - t2 + t3) / scale


def fay_sweep(count: int, seed: int, ctx: ThetaContext) -> float:
    """Max residual over seeded random quadruples from the fundamental box, in one batch."""
    def quadruples(s):
        u = np.random.default_rng(s).random((count, 4, 2))
        return dict(zip("abcd", (u[..., 0] + 1j * (ctx.tau.imag * u[..., 1])).T))

    return sampled_max(lambda at: float(np.max(fay_residual(*(at.env[v] for v in "abcd"), ctx))),
                       quadruples, seed, ctx)
