"""Shift-monomial difference-operator algebras and their Poisson limit.

An algebra fixes variable names v_1..v_p, commuting generator names g_1..g_r
and an integer step matrix S.  Conjugation is oriented as

    g_a * F(v_1,...,v_p) = F(v_1 + S[a][1]*eta, ..., v_p + S[a][p]*eta) * g_a,

so multiplying coefficient-times-monomial terms translates the right-hand
coefficient's arguments by the left monomial's accumulated shift.  Operators
are finite maps from generator exponent tuples to MeroExpr coefficients.  The
same algebra carries the classical limit (poisson.PoissonElement): there the
generators commute and S[a][b] is the bracket constant of {g_a, v_b}.  The
term map, its product loop, its sampled residual, the bosonization formula
and the theta-column determinants Delta_0..Delta_n are shared by both.  This
module alone spells a monomial: by generator name (ShiftAlgebra.exponents).

Instances built here: the Weyl-like algebra V_n with one generator per
variable shifting only its own variable by -n*eta; the bosonization target
B_{p,n} (own variable by (n-2)*eta, all the others by -2*eta); the layered
chain algebra with e-generators that shift every *other* variable of their
own layer by -n*eta plus t/f generator pairs; and the 2n-generator algebra of
+/-2*eta elementary shifts used by the face-model transfer matrix.

Operator arithmetic builds trees and samples nothing; nothing cancels, so
T - T has a coefficient tree per monomial of T.  Operator equality is decided
by seeded sampling of every coefficient, relative to the magnitude of the
terms being cancelled; a poled batch is redrawn.
A product that is only compared, such as the two sides of a commutator, is
sampled, not built: sum_to_zero_relations takes it as a factor pair (a, b) and
evaluates each coefficient of b once at the batch shifted by every monomial of a,
each theta leaf only on the shifted rows that move it.  A commuting family is
built once at symbolic spectral variables, and sampling.seeds_max stacks its
seeds (stacked_commutator_residual).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .cfdet import minors
from .context import ThetaContext
from .errors import SingularOperatorError
from . import expr as ex
from .sampling import box, relation_max, sampled_max, seeds_max


@dataclass(frozen=True)
class ShiftAlgebra:
    """Variables, generators and the step matrix: g_a shifts v_b by S[a][b]*eta."""

    var_names: tuple
    gen_names: tuple
    steps: tuple  # integer step matrix S: row per generator, entries per variable
    ctx: ThetaContext

    def __post_init__(self):
        if len(self.steps) != len(self.gen_names):
            raise ValueError("step matrix needs one row per generator")
        if any(len(row) != len(self.var_names) for row in self.steps):
            raise ValueError("step matrix rows must match the variable count")
        if not all(isinstance(s, int) for row in self.steps for s in row):
            raise ValueError("step matrix entries must be integers")

    @property
    def r(self) -> int:
        return len(self.gen_names)

    @property
    def p(self) -> int:
        return len(self.var_names)

    def exponents(self, *gen_names: str) -> tuple:
        """Exponent tuple of the monomial that multiplies the named generators; a name may repeat."""
        unknown = set(gen_names) - set(self.gen_names)
        if unknown:
            raise ValueError(f"no generators {sorted(unknown)} in {self.gen_names}")
        return tuple(gen_names.count(g) for g in self.gen_names)

    def translation_of(self, exponents: Sequence[int]) -> dict:
        """Accumulated shift of each variable under the monomial g^exponents."""
        eta = self.ctx.eta
        deltas: dict[str, complex] = {}
        for gi, e in enumerate(exponents):
            if e:
                for vi, s in enumerate(self.steps[gi]):
                    if s:
                        name = self.var_names[vi]
                        deltas[name] = deltas.get(name, 0j) + e * (s * eta)
        return deltas


def make_algebra(var_names: Iterable[str], gen_names: Iterable[str], steps, ctx) -> ShiftAlgebra:
    rows = tuple(tuple(row) for row in steps)
    return ShiftAlgebra(tuple(var_names), tuple(gen_names), rows, ctx)


class TermMap:
    """Immutable finite sum of coefficient * generator-monomial terms.

    terms maps exponent tuples to MeroExpr coefficients; constant-zero
    coefficients are dropped on construction.  Subclasses add the product.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: ShiftAlgebra, terms: Mapping[tuple, ex.MeroExpr]):
        self.algebra = algebra
        self.terms = {tuple(mi): coeff for mi, coeff in terms.items() if not ex.is_const_zero(coeff)}

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, {})

    @classmethod
    def function(cls, algebra, coeff):
        """Multiplication operator: coefficient times the empty monomial."""
        return cls(algebra, {algebra.exponents(): ex._as_expr(coeff)})

    @classmethod
    def generator(cls, algebra, name: str, coeff=1):
        return cls(algebra, {algebra.exponents(name): ex._as_expr(coeff)})

    def is_multiplication(self) -> bool:
        """Only the empty monomial occurs: a function, or zero."""
        zero = self.algebra.exponents()
        return all(mi == zero for mi in self.terms)

    def __add__(self, other):
        self._check_same(other)
        merged = dict(self.terms)
        for mi, c in other.terms.items():
            merged[mi] = ex.add(merged[mi], c) if mi in merged else c
        return type(self)(self.algebra, merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.algebra, {mi: ex.neg(c) for mi, c in self.terms.items()})

    def scaled(self, c):
        if isinstance(c, ex.MeroExpr) or c != 1:
            return type(self)(self.algebra, {mi: ex.mul(ex._as_expr(c), co) for mi, co in self.terms.items()})
        return self

    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("operands live in different algebras")

    def _convolve(self, other: "TermMap", term: Callable) -> dict:
        """sum of term(m, F, k, G) over the term pairs, collected at exponent m + k."""
        self._check_same(other)
        out: dict[tuple, ex.MeroExpr] = {}
        for m, F in self.terms.items():
            for k, G in other.terms.items():
                mi = tuple(x + y for x, y in zip(m, k))
                contrib = term(m, F, k, G)
                out[mi] = ex.add(out[mi], contrib) if mi in out else contrib
        return out


class ShiftOp(TermMap):
    """Difference operator: the product translates coefficients by shifts."""

    __slots__ = ()

    def __add__(self, other: "ShiftOp") -> "ShiftOp":
        # Defined on ShiftOp itself so that bench/tracer.py can time operator sums.
        return super().__add__(other)

    def __mul__(self, other):
        if isinstance(other, ShiftOp):
            return shift_mul(self, other)
        return self.scaled(other)

    def __repr__(self):
        names = ",".join(self.algebra.gen_names)
        return f"ShiftOp<{len(self.terms)} terms over ({names})>"


def shift_mul(a: ShiftOp, b: ShiftOp) -> ShiftOp:
    """(F g^m)(G g^k) = F * (G translated by the shift of g^m) * g^(m+k)."""
    shifts = {m: a.algebra.translation_of(m) for m in a.terms}
    return ShiftOp(a.algebra, a._convolve(b, lambda m, F, k, G: ex.mul(F, ex.translate(G, shifts[m]))))


def invert_multiplication(op: ShiftOp) -> ShiftOp:
    """Invert a multiplication operator by inverting its coefficient.

    No check divides by an operator (transfer-det compares Delta_0 T(u) with
    the determinant sum); bench/tracer.py's SPANS still names this function.
    """
    if not op.is_multiplication() or not op.terms:
        raise SingularOperatorError("only nonzero multiplication operators are invertible")
    (coeff,) = op.terms.values()
    return ShiftOp.function(op.algebra, ex.quot(ex.const(1), coeff))


def op_equal(a: ShiftOp, b: ShiftOp, samples: int = 20, seed: int = 0) -> float:
    """Sampled equality residual, relative to the cancelling coefficients.

    max over the multi-indices of a-b and over the sampled points of
    |a_m - b_m| / max(1, |a_m|, |b_m|).  A batch where a coefficient poles
    is redrawn whole.
    """
    a._check_same(b)
    return sum_to_zero_residual([a, -b], samples=samples, seed=seed)


def sum_to_zero_relations(parts: Sequence, relations=None) -> Callable[[ex.Evaluator], list]:
    """The relations sum_k w_k * parts[k] == 0, as at -> [(difference, *terms)]
    on at's batch, for `sampling.relation_max`.

    A part is a TermMap, or a factor pair (a, b) of ShiftOps that stands for
    the product a*b and is sampled without being built (`sampled_coefficients`).
    relations holds one row of weights w per relation (default one row of
    ones: sum(parts) == 0).  Each multi-index coefficient of a relation is
    compared against the biggest term w_k * parts[k] that went into it.  A
    zero weight drops its term: a part weighted 0 in every row is never evaluated.
    """
    rows = np.ones((1, len(parts))) if relations is None else np.asarray(relations)
    used = [k for k in range(len(parts)) if np.any(rows[:, k])]
    keys = set().union(*(_multi_indices(parts[k]) for k in used))

    def relations_at(at):
        if not keys:
            return []
        vals = dict(zip(used, sampled_coefficients([parts[k] for k in used], at)))
        sums = ([w * vals[k].get(mi, 0j) for k, w in enumerate(row) if w] for mi in keys for row in rows)
        return [(sum(terms), *terms) for terms in sums]

    return relations_at


def sum_to_zero_residual(parts: Sequence, samples: int = 20, seed: int = 0, relations=None) -> float:
    """sum_to_zero_relations(parts, relations) on one batch of `samples` box points."""
    alg = _left(parts[0]).algebra
    return relation_max(sum_to_zero_relations(parts, relations), box(samples, alg.var_names, alg.ctx),
                        seed, alg.ctx)


def _left(part) -> TermMap:
    """The term map whose coefficients a part reads at the drawn points: a
    term map itself, or a factor pair's left factor."""
    return part[0] if isinstance(part, tuple) else part


def _multi_indices(part) -> set:
    """The exponent tuples at which a part has a coefficient."""
    if not isinstance(part, tuple):
        return set(part.terms)
    a, b = part
    return {tuple(x + y for x, y in zip(m, k)) for m in a.terms for k in b.terms}


def sampled_coefficients(parts: Sequence, at: ex.Evaluator) -> list:
    """Each part's coefficients on at's batch, as {exponent tuple: value}.

    A term map's coefficients, and the left factor a's of a factor pair
    (a, b), are evaluated by at itself, all in one `values` call.  A pair is
    the product a*b, sampled: (a*b)_{m+k}(x) = sum F_m(x) * G_k(x + s_m),
    with s_m the shift of a's monomial m (`ShiftAlgebra.translation_of`),
    the contributions summed in the order of a's terms, then b's.  Each G_k
    is evaluated once, by the evaluator at.shifted([s_m for m in a.terms]),
    whose batch stacks at's batch shifted by every s_m as rows; pairs whose
    left factors have the same monomials share it.  A theta leaf is evaluated
    there only on the rows whose s_m moves one of its variables, and takes
    at's value of the same leaf on the others (for V_n, theta(z_a - z_b)
    on rows a and b only).  A pole in any row raises PoleError, so the whole
    batch is redrawn.
    """
    own = iter(at.values(c for part in parts for c in _left(part).terms.values()))
    firsts = [dict(zip(_left(part).terms, own)) for part in parts]
    shifted: dict = {}  # a's monomials -> the evaluator of at's batch shifted by each, one row per monomial
    out = []
    for part, first in zip(parts, firsts):
        if not isinstance(part, tuple):
            out.append(first)
            continue
        a, b = part
        a._check_same(b)
        ev = shifted.get(tuple(a.terms))
        if ev is None:
            ev = shifted[tuple(a.terms)] = at.shifted([a.algebra.translation_of(m) for m in a.terms])
        rights = ev.values(b.terms.values())
        product: dict = {}
        for row, (m, f) in enumerate(first.items()):
            for k, g in zip(b.terms, rights):
                mi = tuple(x + y for x, y in zip(m, k))
                contrib = f * (g[row] if np.ndim(g) else g)
                product[mi] = product[mi] + contrib if mi in product else contrib
        out.append(product)
    return out


def commutator_residual(a: ShiftOp, b: ShiftOp, samples: int = 20, seed: int = 0) -> float:
    """Residual of a*b == b*a, each coefficient against the two products' values.

    Both products are factor pairs of `sum_to_zero_residual`: sampled, not built.
    """
    return sum_to_zero_residual([(a, b), (b, a)], samples=samples, seed=seed, relations=[[1, -1]])


def stacked_commutator_residual(a: ShiftOp, b: ShiftOp, constants: Sequence[Mapping],
                                samples: int = 20, seed: int = 0) -> float:
    """Largest a*b == b*a residual over the seeds s < len(constants): a and b
    are built once, at symbolic variables that seed s sets to constants[s]
    (such as the spectral parameters "_u" and "_v"), and seed s draws
    `samples` box points at batch seed seed + s.

    One `sampling.seeds_max` call: seed s's draw is its box points and, at
    each of them, its constants.  A seed adds at most |a| * |distinct theta
    leaves of b| * samples points to a theta call of the shifted batch (or
    the same for b * a): that is its entry count.  Every value is computed
    point by point, so without a pole the result is, bit for bit, the
    largest of the seeds' own `commutator_residual`s.
    """
    alg = a.algebra
    points = box(samples, alg.var_names, alg.ctx)
    per_seed = samples * max(len(a.terms) * ex.theta_leaf_count(b.terms.values()),
                             len(b.terms) * ex.theta_leaf_count(a.terms.values()))
    return seeds_max(sum_to_zero_relations([(a, b), (b, a)], [[1, -1]]),
                     lambda s, batch: {**points(batch), **{v: np.full(samples, c) for v, c in constants[s].items()}},
                     len(constants), seed, alg.ctx, per_seed)


# Algebra constructors ---------------------------------------------------------

def make_Vn(n: int, ctx: ThetaContext) -> ShiftAlgebra:
    """f_i z_i = (z_i - n*eta) f_i; its Poisson limit is the cone bracket {f_i, z_i} = -n f_i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = [[(-n if i == a else 0) for i in range(n)] for a in range(n)]
    return make_algebra([f"z{i}" for i in range(1, n + 1)],
                        [f"f{i}" for i in range(1, n + 1)], steps, ctx)


def make_Bpn(p: int, n: int, ctx: ThetaContext) -> ShiftAlgebra:
    """Bosonization target: e_a shifts u_a by (n-2)*eta and u_b by -2*eta
    (Poisson limit: {e_a, u_a} = (n-2) e_a, {e_a, u_b} = -2 e_a for a != b)."""
    if p < 1 or n < 1:
        raise ValueError("sizes must be >= 1")
    steps = [[(n - 2 if b == a else -2) for b in range(p)] for a in range(p)]
    return make_algebra([f"u{i}" for i in range(1, p + 1)],
                        [f"e{i}" for i in range(1, p + 1)], steps, ctx)


def bosonize(f: ex.MeroExpr, var: str, algebra: ShiftAlgebra, element: type) -> TermMap:
    """sum_a f(u_a) / prod_{i != a} theta(u_a - u_i) * e_a, f a function of var.

    The one formula behind both bosonizations: element is ShiftOp or
    PoissonElement, both over B_{p,n}.
    """
    p = algebra.p
    total = element.zero(algebra)
    for a in range(1, p + 1):
        fa = ex.substitute(f, {var: ex.aff(f"u{a}")})
        den = ex.mul(*(ex.theta1_of(ex.aff(f"u{a}", (-1, f"u{i}"))) for i in range(1, p + 1) if i != a))
        total = total + element.generator(algebra, f"e{a}", ex.quot(fa, den))
    return total


def theta_column_grid(n: int, ctx: ThetaContext, element: type):
    """(V_n, grid) for the n x (n+1) grid whose row r is f_r, theta_0(z_r) .. theta_{n-1}(z_r).

    Row r touches only (z_r, f_r), so the rows commute and the row-ordered
    Cartier-Foata determinant is well defined.  The one grid behind both
    commuting families: element is ShiftOp (the transfer operator) or
    PoissonElement (the hamiltonians Delta_i / Delta_0, whose jets poisson
    takes entry by entry).
    """
    alg = make_Vn(n, ctx)
    return alg, [[element.generator(alg, f"f{r}")]
                 + [element.function(alg, ex.theta_basis_of(j, n, f"z{r}")) for j in range(n)]
                 for r in range(1, n + 1)]


def theta_column_minors(n: int, ctx: ThetaContext, element: type):
    """(V_n, [Delta_0 .. Delta_n]): the minors of theta_column_grid.

    Delta_i deletes column i: Delta_0 the generator column, Delta_{j+1} the
    column of theta_j.
    """
    alg, grid = theta_column_grid(n, ctx, element)
    return alg, minors(grid, operator.mul)


def make_Btilde(p_list: Sequence[int], ctx: ThetaContext) -> ShiftAlgebra:
    """Layered chain algebra on n-1 layers of sizes p_1..p_{n-1}.

    e_{a,g} shifts z_{b,g} by -n*eta for b != a only (own variable fixed,
    other layers and the t's fixed); f_{g} shifts t_{g} by -n*eta.
    """
    if not p_list or any(p < 1 for p in p_list):
        raise ValueError("p_list entries must be >= 1")
    n = len(p_list) + 1
    var_names = [f"z{b}_{g}" for g in range(1, n) for b in range(1, p_list[g - 1] + 1)]
    var_names += [f"t{g}" for g in range(1, n - 1)]
    gen_names = [f"e{a}_{g}" for g in range(1, n) for a in range(1, p_list[g - 1] + 1)]
    gen_names += [f"f{g}" for g in range(1, n - 1)]
    vidx = {v: i for i, v in enumerate(var_names)}
    steps = []
    for g in range(1, n):
        for a in range(1, p_list[g - 1] + 1):
            row = [0] * len(var_names)
            for b in range(1, p_list[g - 1] + 1):
                if b != a:
                    row[vidx[f"z{b}_{g}"]] = -n
            steps.append(row)
    for g in range(1, n - 1):
        row = [0] * len(var_names)
        row[vidx[f"t{g}"]] = -n
        steps.append(row)
    return make_algebra(var_names, gen_names, steps, ctx)


def make_sos(n: int, ctx: ThetaContext) -> ShiftAlgebra:
    """2n generators Tp_a / Tm_a shifting z_a by +2*eta / -2*eta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    var_names = [f"z{i}" for i in range(1, n + 1)]
    gen_names = [f"Tp{i}" for i in range(1, n + 1)] + [f"Tm{i}" for i in range(1, n + 1)]
    steps = [[(2 if i == a else 0) for i in range(n)] for a in range(n)]
    steps += [[(-2 if i == a else 0) for i in range(n)] for a in range(n)]
    return make_algebra(var_names, gen_names, steps, ctx)


class ShiftOpBackend:
    """ShiftOp term maps with a sampled operator norm."""

    def __init__(self, algebra: ShiftAlgebra, norm_samples: int = 8, seed: int = 0):
        self.algebra = algebra
        self._norm_samples = norm_samples
        self._seed = seed

    def norm(self, x) -> float:
        """Sampled sup-norm over coefficients at seeded points (sampled_max)."""
        if not x.terms:
            return 0.0
        alg = self.algebra

        def measure(at):
            return max(float(np.max(np.abs(at(c)))) for c in x.terms.values())

        return sampled_max(measure, box(self._norm_samples, alg.var_names, alg.ctx), self._seed, alg.ctx)
