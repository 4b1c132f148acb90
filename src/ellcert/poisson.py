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

A bracket that is only compared is sampled, not built, as shiftops samples
the products it only compares.  On a batch, an element becomes a first-order
jet (forward-mode differentiation; Griewank & Walther, Evaluating
Derivatives, SIAM 2008): its value, its derivative by each variable and
g_a d/dg_a by each generator, read from its coefficient trees and their
derivatives (`Jet`, `jets`).  The same bracket is then a sum over the
gradients (`jet_bracket`):

    {A, B} = sum_{a,b} S[a][b] (g_a dA/dg_a dB/dv_b - g_a dB/dg_a dA/dv_b).

A bracket of ratios is sampled from the jets of its four elements on one
batch (`RatioBracket`).

The determinant hamiltonians H_i = Delta_i / Delta_0 build no Delta and no
bracket: cfdet.minors runs on the jets of the entries of
shiftops.theta_column_grid (`delta_jets`), and their pairwise ratio brackets
and the Jacobi determinant identity are sampled from those jets.  The
symbolic elements and brackets (classical_delta_elements, pbracket) are the
tests' oracle, and psi2 keeps the Leibniz halves of pbracket, which scale
its residual per monomial.

Also here: the classical bosonization map psi_p and the three-term Fay
identity for the odd theta.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .cfdet import minors
from .context import ThetaContext
from . import expr as ex
from .sampling import box, relation_max, seeds_max, strip_points, worst_residual
from .shiftops import TermMap, bosonize, make_Bpn, sum_to_zero_residual, theta_column_grid, theta_column_minors
from .theta import theta_odd


class PoissonElement(TermMap):
    """Term map whose generators commute: the product just adds exponents."""

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, PoissonElement):
            return self.scaled(other)
        return PoissonElement(self.algebra, self._convolve(other, lambda m, F, k, G: ex.mul(F, G)))

    @property
    def tree(self) -> ex.MeroExpr:
        """The element as one expression, built on each access: the sum of its terms,
        each its coefficient times Var(g) repeated e times per generator g^e of its
        monomial, in order.  Built with the node constructors, so nothing is folded or reordered."""
        terms = []
        for mi, coeff in self.terms.items():
            powers = [ex.Var(g) for g, e in zip(self.algebra.gen_names, mi) for _ in range(e)]
            terms.append(ex.Product((coeff, *powers)) if powers else coeff)
        return ex.Sum(tuple(terms)) if len(terms) > 1 else terms[0] if terms else ex._ZERO

    def evaluate(self, at: ex.Evaluator):
        """Value of the element's `tree` at a point of the phase space, or a
        batch of them: the evaluator's assignment binds variables and generators."""
        return at(self.tree)

    def __repr__(self):
        return f"PoissonElement<{len(self.terms)} terms>"


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


# First-order jets ---------------------------------------------------------------

class Jet:
    """A phase-space function on a batch, to first order: its value and a
    gradient with one row per variable v_b of the algebra, d/dv_b, then one
    per generator g_a, g_a d/dg_a.

    The generator rows are Euler derivatives: they follow the Leibniz rule as
    the others do, and a bracket (`jet_bracket`) reads no generator value.
    +, unary - and * are the ring operations cfdet.minors uses, so the minors
    of a grid of jets are the jets of its minors.
    """

    __slots__ = ("algebra", "value", "grad", "_flow")

    def __init__(self, algebra, value, grad):
        self.algebra, self.value, self.grad = algebra, value, grad

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.algebra, self.value + other.value, self.grad + other.grad)

    def __neg__(self) -> "Jet":
        return Jet(self.algebra, -self.value, -self.grad)

    def __mul__(self, other: "Jet") -> "Jet":
        return Jet(self.algebra, self.value * other.value, self.value * other.grad + other.value * self.grad)

    def is_multiplication(self) -> bool:
        """No generator row moves on this batch: a function of the variables alone."""
        return not np.any(self.grad[self.algebra.p:])

    def flow(self):
        """D_b = sum_a S[a][b] g_a d/dg_a of the jet, one row per variable v_b, kept."""
        if not hasattr(self, "_flow"):
            self._flow = np.einsum("ab,a...->b...", self.algebra.steps, self.grad[self.algebra.p:])
        return self._flow


def jets(elements, at: ex.Evaluator) -> list:
    """The Jet of each element (PoissonElements of one algebra) on at's batch.

    The generators, every coefficient F and every derivative dF/dv_b that is
    not the constant zero go to one `values` call, so each theta family is
    one stacked call; the derivatives are built once per tuple of elements
    (`_jet_layout`).  A term F g^m adds F g^m to the value, dF/dv_b g^m to
    the row of v_b and m_a F g^m to the row of g_a; the terms of all the
    elements are combined as arrays.
    """
    elements = tuple(elements)
    trees, owner, exponents, d_term, d_row = _jet_layout(elements)
    values = at.values(trees)
    shape = np.broadcast_shapes(*map(np.shape, values))
    stacked = np.empty((len(values),) + shape, dtype=complex)
    for i, v in enumerate(values):
        stacked[i] = v
    alg = elements[0].algebra
    p, r = alg.p, alg.r
    gens, F, dF = stacked[:r], stacked[r:r + len(owner)], stacked[r + len(owner):]
    m = exponents.reshape(exponents.shape + (1,) * len(shape))
    monomials = np.prod(gens ** m, axis=1)
    terms = F * monomials
    value = np.zeros((len(elements),) + shape, dtype=complex)
    grad = np.zeros((len(elements), p + r) + shape, dtype=complex)
    np.add.at(value, owner, terms)
    np.add.at(grad[:, p:], owner, m * terms[:, None])
    np.add.at(grad, (owner[d_term], d_row), dF * monomials[d_term])
    return [Jet(alg, value[k], grad[k]) for k in range(len(elements))]


@functools.lru_cache(maxsize=64)
def _jet_layout(elements: tuple):
    """What `jets` evaluates for elements, and where each value goes: the trees
    (the generators, the coefficients, their derivatives that are not the
    constant zero), then per coefficient its element and its exponents, and
    per derivative its coefficient and its variable's row."""
    alg = elements[0].algebra
    owner, exponents, coeffs = [], [], []
    for k, e in enumerate(elements):
        for m, F in e.terms.items():
            owner.append(k)
            exponents.append(m)
            coeffs.append(F)
    derivs = [(i, b, d) for i, F in enumerate(coeffs)
              for b, v in enumerate(alg.var_names) if not ex.is_const_zero(d := ex.diff(F, v))]
    trees = (*map(ex.Var, alg.gen_names), *coeffs, *(d for *_, d in derivs))
    d_term, d_row = np.array([(i, b) for i, b, _ in derivs], dtype=np.intp).reshape(-1, 2).T
    return trees, np.array(owner, dtype=np.intp), np.array(exponents).reshape(-1, alg.r), d_term, d_row


def jet_bracket(a: Jet, b: Jet):
    """{a, b} on the jets' batch:
    sum_{a,b} S[a][b] (g_a dA/dg_a dB/dv_b - g_a dB/dg_a dA/dv_b) = D_A . grad_v B - D_B . grad_v A."""
    p = a.algebra.p
    return np.sum(a.flow() * b.grad[:p], axis=0) - np.sum(b.flow() * a.grad[:p], axis=0)


class RatioBracket:
    """Sampled {f/h, g/k} for multiplication-operator denominators h, k.

    {f/h, g/k} = ({f,g} - (f/h){h,g} - (g/k){f,k} + (f/h)(g/k){h,k}) / (h k),

    each inner bracket the `jet_bracket` of their jets.
    f, h, g and k are the jets (Jet) of ring elements on one batch of
    phase-space points, such as one `jets` call takes.  residual_at gives
    the value on that batch with its four terms, a relation of `sampling`;
    residual_batch measures it.
    """

    def __init__(self, f, h, g, k):
        if not h.is_multiplication():
            raise ValueError("h must be a multiplication operator")
        if not k.is_multiplication():
            raise ValueError("k must be a multiplication operator")
        self.f, self.h, self.g, self.k = f, h, g, k

    def residual_batch(self) -> float:
        """Largest |{f/h, g/k}| over the batch, relative to its terms."""
        return worst_residual([self.residual_at()])

    def residual_at(self) -> tuple:
        """(value, *its four terms) at each point of the batch."""
        f, h, g, k = self.f, self.h, self.g, self.k
        pole = "ratio denominator vanishes at a sample point"
        hk = ex.nonpole(h.value, pole) * ex.nonpole(k.value, pole)
        fh = f.value / h.value
        gk = g.value / k.value
        terms = [
            jet_bracket(f, g) / hk,
            -fh * jet_bracket(h, g) / hk,
            -gk * jet_bracket(f, k) / hk,
            fh * gk * jet_bracket(h, k) / hk,
        ]
        return (sum(terms), *terms)


# Determinant hamiltonians ------------------------------------------------------

def classical_delta_elements(n: int, ctx: ThetaContext):
    """(cone algebra, [Delta_0 .. Delta_n]) as built elements: the minors of
    shiftops.theta_column_grid over the Poisson limit of V_n.

    Row r of the grid is f_r, theta_0(z_r) .. theta_{n-1}(z_r), and Delta_i
    deletes column i, the same grid whose quantum minors give the transfer
    operator.  Rows touch disjoint (z_r, f_r) pairs, so entries of different
    rows Poisson-commute and the ordinary determinant is well defined.  The
    checks sample the same minors as jets (`delta_jets`); these trees, built
    on each call, are the tests' oracle for them.
    """
    return theta_column_minors(n, ctx, PoissonElement)


@functools.lru_cache(maxsize=16)
def _delta_grid(n: int, ctx: ThetaContext):
    """(V_n, its theta-column grid of PoissonElements), built once per n."""
    return theta_column_grid(n, ctx, PoissonElement)


def delta_jets(n: int, ctx: ThetaContext, at: ex.Evaluator) -> list:
    """[Delta_0 .. Delta_n] as jets on at's batch: cfdet.minors over the jets
    of the grid's entries, which one `jets` call takes."""
    _, grid = _delta_grid(n, ctx)
    entries = iter(jets([e for row in grid for e in row], at))
    return minors([[next(entries) for _ in row] for row in grid], operator.mul)


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


def _hamiltonian_brackets(deltas) -> list:
    """The ratio brackets {H_i, H_j} of every pair i < j, H_i = Delta_i / Delta_0,
    over the Delta jets of one batch."""
    return [RatioBracket(deltas[i], deltas[0], deltas[j], deltas[0])
            for i in range(1, len(deltas)) for j in range(i + 1, len(deltas))]


def classical_hamiltonians(n: int, ctx: ThetaContext, seeds: int, seed: int, points: int) -> float:
    """Max pairwise |{H_i, H_j}| residual for H_i = Delta_i / Delta_0, sampled from the Delta jets
    at `points` phase-space points of batch seed seed + s, s < seeds, stacked by `sampling.seeds_max`;
    a seed's entries are those of the largest array, the jet gradient: n(n+1) x 2n x points."""
    alg, _ = _delta_grid(n, ctx)
    return seeds_max(lambda at: [rb.residual_at() for rb in _hamiltonian_brackets(delta_jets(n, ctx, at))],
                     lambda s, b: _phase_space_points(alg, points, b), seeds, seed, alg.ctx,
                     n * (n + 1) * 2 * n * points)


def _jacobi_delta_terms(n: int, ctx: ThetaContext, ijk):
    """(algebra, the three built elements Delta_a {Delta_b, Delta_c}, (a, b, c)
    the cyclic shifts of ijk): the tests' oracle for jacobi_delta_residual."""
    i, j, k = ijk
    alg, deltas = classical_delta_elements(n, ctx)
    cyclic = [(i, j, k), (j, k, i), (k, i, j)]
    return alg, tuple(deltas[a] * pbracket(deltas[b], deltas[c]) for a, b, c in cyclic)


def jacobi_delta_residual(n: int, ctx: ThetaContext, ijk, seed: int = 0, points: int = 20) -> float:
    """Residual of Delta_i {Delta_j, Delta_k} + its cyclic shifts in (i, j, k) = 0,
    sampled from the Delta jets and scaled by the three terms."""
    i, j, k = ijk
    alg, _ = _delta_grid(n, ctx)

    def relations(at):
        d = delta_jets(n, ctx, at)
        terms = [d[a].value * jet_bracket(d[b], d[c]) for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
        return [(sum(terms), *terms)]

    return relation_max(relations, functools.partial(_phase_space_points, alg, points), seed, alg.ctx)


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
    t = lambda z: theta_odd(z, ctx)
    t1 = t(a + c) * t(a - c) * t(b + d) * t(b - d)
    t2 = t(a + b) * t(a - b) * t(c + d) * t(c - d)
    t3 = t(a + d) * t(a - d) * t(c + b) * t(c - b)
    scale = np.maximum(np.maximum(abs(t1), abs(t2)), np.maximum(abs(t3), 1e-300))
    return abs(t1 - t2 + t3) / scale


def fay_sweep(count: int, seed: int, ctx: ThetaContext) -> float:
    """Max residual over seeded random quadruples from the fundamental box, in one batch."""
    return relation_max(lambda at: [(fay_residual(*(at.env[v] for v in "abcd"), ctx),)],
                        lambda s: dict(zip("abcd", strip_points(s, (count, 4), ctx).T)), seed, ctx)
