"""Immutable expression trees for meromorphic functions built from thetas.

Leaves are variables, constants, theta factors applied to affine combinations
of variables, and exponentials exp(2*pi*i * affine).  Internal nodes are sums,
products, quotients, negation and integer powers.  Trees evaluate bottom-up,
support exact symbolic differentiation (theta leaves carry a derivative
order), and affine substitution of variables, which is how shift operators
translate coefficient arguments.

Evaluation accepts scalar complex values or equally-shaped numpy arrays per
variable, so a batch of sample points costs one tree walk.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping

import numpy as np

from .context import ThetaContext
from .errors import EvaluationOverflowError, PoleError, UnboundVariableError
from . import theta as _theta

_TWO_PI_I = 2j * math.pi


class Affine:
    """Affine combination  const + sum(coeff[v] * v)  of named variables."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, complex] | None = None, const: complex = 0j):
        cleaned = {}
        if coeffs:
            for name, c in coeffs.items():
                c = complex(c)
                if c != 0:
                    cleaned[name] = c
        self.coeffs = cleaned
        self.const = complex(const)

    def value(self, env):
        v = self.const
        for name, c in self.coeffs.items():
            try:
                v = v + c * env[name]
            except KeyError:
                raise UnboundVariableError(f"no value bound for variable {name!r}") from None
        return v

    def shifted(self, const: complex) -> "Affine":
        return Affine(self.coeffs, self.const + const)

    def subst(self, mapping: Mapping[str, "Affine"]) -> "Affine":
        const = self.const
        coeffs: dict[str, complex] = {}
        for name, c in self.coeffs.items():
            rep = mapping.get(name)
            if rep is None:
                coeffs[name] = coeffs.get(name, 0j) + c
            else:
                const += c * rep.const
                for n2, c2 in rep.coeffs.items():
                    coeffs[n2] = coeffs.get(n2, 0j) + c * c2
        return Affine(coeffs, const)

    def coeff(self, name: str) -> complex:
        return self.coeffs.get(name, 0j)

    def __eq__(self, other):
        return isinstance(other, Affine) and self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.const, frozenset(self.coeffs.items())))

    def __repr__(self):
        parts = [f"{c!r}*{n}" for n, c in sorted(self.coeffs.items())]
        if self.const != 0 or not parts:
            parts.append(repr(self.const))
        return " + ".join(parts)


def aff(*terms, const: complex = 0j) -> Affine:
    """Build an Affine from (coeff, var) pairs or bare var names."""
    coeffs: dict[str, complex] = {}
    for t in terms:
        if isinstance(t, str):
            coeffs[t] = coeffs.get(t, 0j) + 1
        else:
            c, name = t
            coeffs[name] = coeffs.get(name, 0j) + complex(c)
    return Affine(coeffs, const)


class MeroExpr:
    """Base node.  Nodes are immutable values: two are equal, and hash alike,
    when their types and fields (`_key`) are, so equality is structural.  The
    hash is cached on the node."""

    __slots__ = ("_hash",)

    def _key(self):  # the operand tuple of a sum or product is a multiset: a + b == b + a
        return tuple(frozenset(Counter(v).items()) if type(v) is tuple else v
                     for v in (getattr(self, name) for name in self.__slots__))

    def __eq__(self, other):
        return self is other or (type(self) is type(other) and hash(self) == hash(other)
                                 and self._key() == other._key())

    def __hash__(self):
        if not hasattr(self, "_hash"):
            self._hash = hash((type(self), self._key()))
        return self._hash

    def _eval(self, env, ctx):  # pragma: no cover - abstract
        raise NotImplementedError

    def _diff(self, var):  # pragma: no cover - abstract
        raise NotImplementedError

    def _subst(self, mapping):  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect_vars(self, acc):  # pragma: no cover - abstract
        raise NotImplementedError

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_expr(other)))

    def __rsub__(self, other):
        return add(_as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return quot(self, _as_expr(other))

    def __rtruediv__(self, other):
        return quot(_as_expr(other), self)

    def __neg__(self):
        return neg(self)


class Var(MeroExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _eval(self, env, ctx):
        try:
            return env[self.name]
        except KeyError:
            raise UnboundVariableError(f"no value bound for variable {self.name!r}") from None

    def _diff(self, var):
        return Const(1 if var == self.name else 0)

    def _subst(self, mapping):
        rep = mapping.get(self.name)
        if rep is None:
            return self
        return _expr_of_affine(rep)

    def _collect_vars(self, acc):
        acc.add(self.name)


class Const(MeroExpr):
    __slots__ = ("value",)

    def __init__(self, value: complex):
        self.value = complex(value)

    def _eval(self, env, ctx):
        return self.value

    def _diff(self, var):
        return _ZERO

    def _subst(self, mapping):
        return self

    def _collect_vars(self, acc):
        pass


class Theta(MeroExpr):
    """deriv-th derivative of a theta factor applied to an affine argument.

    kind is one of "order1", "basis", "odd"; "basis" carries the basis index
    and the order n, the other kinds ignore them.
    """

    __slots__ = ("kind", "arg", "order", "index", "deriv")

    def __init__(self, kind: str, arg: Affine, order: int = 1, index: int = 0, deriv: int = 0):
        if kind not in ("order1", "basis", "odd"):
            raise ValueError(f"unknown theta kind {kind!r}")
        self.kind = kind
        self.arg = arg
        self.order = int(order)
        self.index = int(index)
        self.deriv = int(deriv)

    def _eval(self, env, ctx):
        z = self.arg.value(env)
        return _theta.theta_value(self.kind, z, ctx, order=self.order,
                                  index=self.index, deriv=self.deriv)

    def _diff(self, var):
        c = self.arg.coeff(var)
        if c == 0:
            return _ZERO
        bumped = Theta(self.kind, self.arg, self.order, self.index, self.deriv + 1)
        return mul(Const(c), bumped)

    def _subst(self, mapping):
        return Theta(self.kind, self.arg.subst(mapping), self.order, self.index, self.deriv)

    def _collect_vars(self, acc):
        acc.update(self.arg.coeffs)


class ExpLin(MeroExpr):
    """exp(2*pi*i * affine)."""

    __slots__ = ("arg",)

    def __init__(self, arg: Affine):
        self.arg = arg

    def _eval(self, env, ctx):
        return np.exp(_TWO_PI_I * self.arg.value(env))

    def _diff(self, var):
        c = self.arg.coeff(var)
        if c == 0:
            return _ZERO
        return mul(Const(_TWO_PI_I * c), self)

    def _subst(self, mapping):
        return ExpLin(self.arg.subst(mapping))

    def _collect_vars(self, acc):
        acc.update(self.arg.coeffs)


class Sum(MeroExpr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms

    def _eval(self, env, ctx):
        v = self.terms[0]._eval(env, ctx)
        for t in self.terms[1:]:
            v = v + t._eval(env, ctx)
        return v

    def _diff(self, var):
        return add(*(t._diff(var) for t in self.terms))

    def _subst(self, mapping):
        return add(*(t._subst(mapping) for t in self.terms))

    def _collect_vars(self, acc):
        for t in self.terms:
            t._collect_vars(acc)


class Product(MeroExpr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors

    def _eval(self, env, ctx):
        v = self.factors[0]._eval(env, ctx)
        for f in self.factors[1:]:
            v = v * f._eval(env, ctx)
        return v

    def _diff(self, var):  # a factor with derivative zero makes its term zero, which add drops
        return add(*(mul(*self.factors[:i], f._diff(var), *self.factors[i + 1:])
                     for i, f in enumerate(self.factors)))

    def _subst(self, mapping):
        return mul(*(f._subst(mapping) for f in self.factors))

    def _collect_vars(self, acc):
        for f in self.factors:
            f._collect_vars(acc)


class Quotient(MeroExpr):
    __slots__ = ("num", "den")

    def __init__(self, num: MeroExpr, den: MeroExpr):
        self.num = num
        self.den = den

    def _eval(self, env, ctx):
        nv = self.num._eval(env, ctx)
        dv = self.den._eval(env, ctx)
        # Local scale 1: sampling keeps every argument O(1)-normalized, while
        # numerators (high-order thetas) legitimately reach 1e15 and would
        # poison any numerator-relative threshold.
        if np.any(np.abs(dv) < ctx.pole_guard):
            raise PoleError("denominator magnitude below pole guard")
        return nv / dv

    def _diff(self, var):
        dn = self.num._diff(var)
        dd = self.den._diff(var)
        return quot(add(mul(dn, self.den), neg(mul(self.num, dd))), ipow(self.den, 2))

    def _subst(self, mapping):
        return quot(self.num._subst(mapping), self.den._subst(mapping))

    def _collect_vars(self, acc):
        self.num._collect_vars(acc)
        self.den._collect_vars(acc)


class Neg(MeroExpr):
    __slots__ = ("child",)

    def __init__(self, child: MeroExpr):
        self.child = child

    def _eval(self, env, ctx):
        return -self.child._eval(env, ctx)

    def _diff(self, var):
        return neg(self.child._diff(var))

    def _subst(self, mapping):
        return neg(self.child._subst(mapping))

    def _collect_vars(self, acc):
        self.child._collect_vars(acc)


class IntPow(MeroExpr):
    __slots__ = ("base", "power")

    def __init__(self, base: MeroExpr, power: int):
        if power < 0:
            raise ValueError("negative powers are spelled as quotients")
        self.base = base
        self.power = int(power)

    def _eval(self, env, ctx):
        return self.base._eval(env, ctx) ** self.power

    def _diff(self, var):
        db = self.base._diff(var)
        if self.power == 0:
            return _ZERO
        return mul(Const(self.power), ipow(self.base, self.power - 1), db)

    def _subst(self, mapping):
        return ipow(self.base._subst(mapping), self.power)

    def _collect_vars(self, acc):
        self.base._collect_vars(acc)


_ZERO = Const(0)
_ONE = Const(1)


def _as_expr(x) -> MeroExpr:
    if isinstance(x, MeroExpr):
        return x
    return Const(x)


def _expr_of_affine(a: Affine) -> MeroExpr:
    terms = [mul(Const(c), Var(n)) for n, c in a.coeffs.items()]
    if a.const != 0 or not terms:
        terms.append(Const(a.const))
    return add(*terms)


# Smart constructors: flatten nests and fold the cheap constant cases so that
# differentiation does not bloat the trees.

def add(*terms) -> MeroExpr:
    flat = []
    const = 0j
    for t in _cancel_pairs([_as_expr(t) for t in terms]):
        if isinstance(t, Sum):
            flat.extend(t.terms)
        elif isinstance(t, Const):
            const += t.value
        else:
            flat.append(t)
    if const != 0:
        flat.append(Const(const))
    if not flat:
        return _ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def _cancel_pairs(terms: list) -> list:
    """Drop each operand pair x, neg(x).  Only whole operands cancel, so the
    others keep their order and their trees."""
    if not any(isinstance(t, Neg) for t in terms):
        return terms
    kept = []
    for t in terms:
        partner = t.child if isinstance(t, Neg) else Neg(t)
        if partner in kept:
            kept.remove(partner)
        else:
            kept.append(t)
    return kept


def mul(*factors) -> MeroExpr:
    flat = []
    const = 1 + 0j
    for f in factors:
        f = _as_expr(f)
        if isinstance(f, Product):
            flat.extend(f.factors)
        elif isinstance(f, Const):
            const *= f.value
        else:
            flat.append(f)
    if const == 0:
        return _ZERO
    if const != 1:
        flat.insert(0, Const(const))
    if not flat:
        return _ONE
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def neg(x) -> MeroExpr:
    x = _as_expr(x)
    if isinstance(x, Const):
        return Const(-x.value)
    if isinstance(x, Neg):
        return x.child
    return Neg(x)


def quot(num, den) -> MeroExpr:
    num = _as_expr(num)
    den = _as_expr(den)
    if num == _ZERO:
        return _ZERO
    if isinstance(den, Const):
        if den.value == 1:
            return num
        if den.value != 0:
            return mul(Const(1 / den.value), num)
    return Quotient(num, den)


def ipow(base, power: int) -> MeroExpr:
    base = _as_expr(base)
    if power == 0:
        return _ONE
    if power == 1:
        return base
    return IntPow(base, power)


def var(name: str) -> MeroExpr:
    return Var(name)


def const(value) -> MeroExpr:
    return Const(value)


def theta1_of(arg) -> MeroExpr:
    return Theta("order1", _as_affine(arg))


def theta_basis_of(index: int, order: int, arg) -> MeroExpr:
    return Theta("basis", _as_affine(arg), order=order, index=index)


def theta_odd_of(arg) -> MeroExpr:
    return Theta("odd", _as_affine(arg))


def exp2pii(arg) -> MeroExpr:
    return ExpLin(_as_affine(arg))


def _as_affine(arg) -> Affine:
    if isinstance(arg, Affine):
        return arg
    if isinstance(arg, str):
        return aff(arg)
    if isinstance(arg, (int, float, complex)):
        return Affine(const=arg)
    raise TypeError(f"cannot interpret {arg!r} as an affine argument")


# Public operations -----------------------------------------------------------

def evaluate(expr: MeroExpr, assignment: Mapping, ctx: ThetaContext):
    """Bottom-up evaluation at an assignment of variables to complex values.

    Values may be scalars or numpy arrays of a common shape; quotient nodes
    whose denominator falls below ctx.pole_guard raise PoleError, and a
    non-finite value (an overflow in some node) raises
    EvaluationOverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = expr._eval(assignment, ctx)
    if not np.all(np.isfinite(value)):
        raise EvaluationOverflowError("expression evaluation produced a non-finite value")
    return value


def diff(expr: MeroExpr, variable: str) -> MeroExpr:
    """Exact symbolic derivative; theta leaves bump their derivative order."""
    return expr._diff(variable)


def substitute(expr: MeroExpr, mapping: Mapping[str, Affine]) -> MeroExpr:
    """Replace variables by affine combinations of (possibly new) variables."""
    return expr._subst(mapping)


def translate(expr: MeroExpr, deltas: Mapping[str, complex]) -> MeroExpr:
    """Shift variables by constants: v -> v + deltas[v]."""
    mapping = {name: aff(name, const=d) for name, d in deltas.items() if d != 0}
    if not mapping:
        return expr
    return substitute(expr, mapping)


def free_vars(expr: MeroExpr) -> frozenset:
    acc: set = set()
    expr._collect_vars(acc)
    return frozenset(acc)


def prod_over(factors: Iterable) -> MeroExpr:
    return mul(*factors)
