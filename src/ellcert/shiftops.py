"""Shift-monomial difference-operator algebras.

An algebra fixes variable names v_1..v_p, commuting generator names g_1..g_r
and a complex shift matrix S.  Conjugation is oriented as

    g_a * F(v_1,...,v_p) = F(v_1 + S[a][1], ..., v_p + S[a][p]) * g_a,

so multiplying coefficient-times-monomial terms translates the right-hand
coefficient's arguments by the left monomial's accumulated shift.  Operators
are finite maps from generator exponent tuples to MeroExpr coefficients; the
term-map base (TermMap over a GeneratorAlgebra), its sampled residual and
the bosonization formula are shared with the Poisson layer, whose elements
are the same maps with commuting generators.

Instances built here: the Weyl-like algebra with one generator per variable
shifting only its own variable by -n*eta; the bosonization target B_{p,n}
(own variable by (n-2)*eta, all the others by -2*eta); the layered chain
algebra with e-generators that shift every *other* variable of their own
layer by -n*eta plus t/f generator pairs; and the 2n-generator algebra of
+/-2*eta elementary shifts used by the face-model transfer matrix.

Operator arithmetic is exact and samples nothing (expr.add cancels x against
neg(x)); operator equality is decided by seeded pole-guarded sampling of every
coefficient, relative to the magnitude of the terms being cancelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .context import ThetaContext
from .errors import SingularOperatorError
from . import expr as ex
from .sampling import rel_residual, sampled_max


class GeneratorAlgebra:
    """Variable and generator bookkeeping shared by the shift and Poisson algebras."""

    @property
    def r(self) -> int:
        return len(self.gen_names)

    @property
    def p(self) -> int:
        return len(self.var_names)

    def gen_index(self, name: str) -> int:
        return self.gen_names.index(name)

    def zero_index(self) -> tuple:
        return (0,) * self.r


@dataclass(frozen=True)
class ShiftAlgebra(GeneratorAlgebra):
    var_names: tuple
    gen_names: tuple
    shift: tuple  # row per generator, entries per variable
    ctx: ThetaContext

    def __post_init__(self):
        if len(self.shift) != len(self.gen_names):
            raise ValueError("shift matrix needs one row per generator")
        if any(len(row) != len(self.var_names) for row in self.shift):
            raise ValueError("shift matrix rows must match the variable count")

    def translation_of(self, exponents: Sequence[int]) -> dict:
        """Accumulated shift of each variable under the monomial g^exponents."""
        deltas: dict[str, complex] = {}
        for gi, e in enumerate(exponents):
            if e:
                for vi, s in enumerate(self.shift[gi]):
                    if s != 0:
                        name = self.var_names[vi]
                        deltas[name] = deltas.get(name, 0j) + e * s
        return deltas


def make_algebra(var_names: Iterable[str], gen_names: Iterable[str], shift, ctx) -> ShiftAlgebra:
    rows = tuple(tuple(complex(s) for s in row) for row in shift)
    return ShiftAlgebra(tuple(var_names), tuple(gen_names), rows, ctx)


class TermMap:
    """Immutable finite sum of coefficient * generator-monomial terms.

    terms maps exponent tuples to MeroExpr coefficients; constant-zero
    coefficients are dropped on construction.  Subclasses add the product.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GeneratorAlgebra, terms: Mapping[tuple, ex.MeroExpr]):
        self.algebra = algebra
        self.terms = {tuple(mi): coeff for mi, coeff in terms.items() if coeff != ex._ZERO}

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, {})

    @classmethod
    def function(cls, algebra, coeff):
        """Multiplication operator: coefficient times the empty monomial."""
        return cls(algebra, {algebra.zero_index(): ex._as_expr(coeff)})

    @classmethod
    def generator(cls, algebra, name: str, coeff=1):
        mi = [0] * algebra.r
        mi[algebra.gen_index(name)] = 1
        return cls(algebra, {tuple(mi): ex._as_expr(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

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

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, c):
        if isinstance(c, ex.MeroExpr) or c != 1:
            return type(self)(self.algebra, {mi: ex.mul(ex._as_expr(c), co) for mi, co in self.terms.items()})
        return self

    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("operands live in different algebras")


class ShiftOp(TermMap):
    """Difference operator: the product translates coefficients by shifts."""

    __slots__ = ()

    @classmethod
    def one(cls, algebra) -> "ShiftOp":
        return cls(algebra, {algebra.zero_index(): ex.const(1)})

    @classmethod
    def monomial(cls, algebra, exponents: Sequence[int], coeff=1) -> "ShiftOp":
        return cls(algebra, {tuple(exponents): ex._as_expr(coeff)})

    def is_multiplication(self) -> bool:
        zi = self.algebra.zero_index()
        return all(mi == zi for mi in self.terms)

    def degrees(self) -> set:
        return {sum(mi) for mi in self.terms}

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
    a._check_same(b)
    alg = a.algebra
    out: dict[tuple, ex.MeroExpr] = {}
    for m, F in a.terms.items():
        deltas = alg.translation_of(m)
        for k, G in b.terms.items():
            mi = tuple(x + y for x, y in zip(m, k))
            contrib = ex.mul(F, ex.translate(G, deltas))
            out[mi] = ex.add(out[mi], contrib) if mi in out else contrib
    return ShiftOp(alg, out)


def shift_commutator(a: ShiftOp, b: ShiftOp) -> ShiftOp:
    return shift_mul(a, b) - shift_mul(b, a)


def invert_multiplication(op: ShiftOp) -> ShiftOp:
    """Invert a multiplication operator by inverting its coefficient."""
    if not op.is_multiplication() or op.is_zero():
        raise SingularOperatorError("only nonzero multiplication operators are invertible")
    (coeff,) = op.terms.values()
    return ShiftOp.function(op.algebra, ex.quot(ex.const(1), coeff))


def op_equal(a: ShiftOp, b: ShiftOp, samples: int = 20, seed: int = 0,
             guards: Sequence[ex.MeroExpr] = ()) -> float:
    """Sampled equality residual, relative to the cancelling coefficients.

    max over the multi-indices of a-b and over pole-guarded points of
    |a_m - b_m| / max(1, |a_m|, |b_m|).  A batch where a coefficient poles
    is redrawn whole.
    """
    a._check_same(b)
    return sum_to_zero_residual([a, -b], samples=samples, seed=seed, guards=guards)


def sum_to_zero_residual(parts: Sequence[TermMap], samples: int = 20, seed: int = 0,
                         guards: Sequence[ex.MeroExpr] = ()) -> float:
    """Residual of sum(parts) == 0, scaled by the largest single part.

    The right notion when a relation sums several operators to zero: each
    multi-index coefficient of the total is compared against the biggest
    contribution that went into it.
    """
    keys = set().union(*(p.terms for p in parts))
    if not keys:
        return 0.0
    alg = parts[0].algebra

    def measure(stacked):
        worst = 0.0
        for mi in keys:
            vals = [np.asarray(ex.evaluate(p.terms.get(mi, ex._ZERO), stacked, alg.ctx)) for p in parts]
            worst = max(worst, rel_residual(sum(vals), *vals))
        return worst

    return sampled_max(measure, alg.var_names, guards, samples, seed, alg.ctx)


def commutator_residual(a: ShiftOp, b: ShiftOp, samples: int = 20, seed: int = 0,
                        guards: Sequence[ex.MeroExpr] = ()) -> float:
    """op_equal(a*b, b*a): the scale comes from the two products."""
    return op_equal(shift_mul(a, b), shift_mul(b, a), samples=samples, seed=seed, guards=guards)


# Algebra constructors ---------------------------------------------------------

def make_Vn(n: int, ctx: ThetaContext) -> ShiftAlgebra:
    """Generators f_i, variables z_i, with f_i z_i = (z_i - n*eta) f_i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    shift = [[(-n * ctx.eta if i == a else 0) for i in range(n)] for a in range(n)]
    return make_algebra([f"z{i}" for i in range(1, n + 1)],
                        [f"f{i}" for i in range(1, n + 1)], shift, ctx)


def make_Bpn(p: int, n: int, ctx: ThetaContext) -> ShiftAlgebra:
    """Bosonization target: e_a shifts u_a by (n-2)*eta and u_b by -2*eta."""
    if p < 1 or n < 1:
        raise ValueError("sizes must be >= 1")
    shift = [[((n - 2) * ctx.eta if b == a else -2 * ctx.eta) for b in range(p)] for a in range(p)]
    return make_algebra([f"u{i}" for i in range(1, p + 1)],
                        [f"e{i}" for i in range(1, p + 1)], shift, ctx)


def bosonize(f: ex.MeroExpr, var: str, algebra: GeneratorAlgebra, element: type) -> TermMap:
    """sum_a f(u_a) / prod_{i != a} theta(u_a - u_i) * e_a, f a function of var.

    The one formula behind both bosonizations: element is ShiftOp over
    B_{p,n} or PoissonElement over its classical counterpart.
    """
    p = algebra.p
    total = element.zero(algebra)
    for a in range(1, p + 1):
        fa = ex.substitute(f, {var: ex.aff(f"u{a}")})
        den = ex.prod_over(ex.theta1_of(ex.aff(f"u{a}", (-1, f"u{i}"))) for i in range(1, p + 1) if i != a)
        total = total + element.generator(algebra, f"e{a}", ex.quot(fa, den))
    return total


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
    shift = []
    for g in range(1, n):
        for a in range(1, p_list[g - 1] + 1):
            row = [0j] * len(var_names)
            for b in range(1, p_list[g - 1] + 1):
                if b != a:
                    row[vidx[f"z{b}_{g}"]] = -n * ctx.eta
            shift.append(row)
    for g in range(1, n - 1):
        row = [0j] * len(var_names)
        row[vidx[f"t{g}"]] = -n * ctx.eta
        shift.append(row)
    return make_algebra(var_names, gen_names, shift, ctx)


def make_sos(n: int, ctx: ThetaContext) -> ShiftAlgebra:
    """2n generators Tp_a / Tm_a shifting z_a by +2*eta / -2*eta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    var_names = [f"z{i}" for i in range(1, n + 1)]
    gen_names = [f"Tp{i}" for i in range(1, n + 1)] + [f"Tm{i}" for i in range(1, n + 1)]
    shift = [[(+2 * ctx.eta if i == a else 0) for i in range(n)] for a in range(n)]
    shift += [[(-2 * ctx.eta if i == a else 0) for i in range(n)] for a in range(n)]
    return make_algebra(var_names, gen_names, shift, ctx)


class TermMapBackend:
    """Term maps through the part of the determinant backend protocol cf_det uses."""

    def __init__(self, algebra: GeneratorAlgebra, element: type):
        self.algebra = algebra
        self._element = element

    def zero(self):
        return self._element.zero(self.algebra)

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x


class ShiftOpBackend(TermMapBackend):
    """Adapter exposing ShiftOps through the determinant backend protocol."""

    def __init__(self, algebra: ShiftAlgebra, norm_samples: int = 8, seed: int = 0):
        super().__init__(algebra, ShiftOp)
        self._norm_samples = norm_samples
        self._seed = seed

    def one(self):
        return ShiftOp.one(self.algebra)

    def invert(self, x):
        return invert_multiplication(x)

    def norm(self, x) -> float:
        """Sampled sup-norm over coefficients at seeded guard-free points."""
        if x.is_zero():
            return 0.0
        alg = self.algebra

        def measure(stacked):
            return max(float(np.max(np.abs(ex.evaluate(c, stacked, alg.ctx)))) for c in x.terms.values())

        return sampled_max(measure, alg.var_names, (), self._norm_samples, self._seed, alg.ctx)
