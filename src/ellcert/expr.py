"""Immutable expression trees for meromorphic functions built from thetas.

Leaves are variables, constants, theta factors applied to affine combinations
of variables, and exponentials exp(2*pi*i * affine).  Internal nodes are sums,
products, quotients and negation, and each operation has one spelling: the
constructors add, mul, quot and neg (nodes define no arithmetic operators).  A
power is a product of one node repeated.  Trees evaluate bottom-up, support
exact symbolic differentiation (theta leaves carry a derivative order), and
affine substitution of variables, which is how shift operators translate
coefficient arguments.

Evaluation accepts scalar complex values or equally-shaped numpy arrays per
variable, so a batch of sample points costs one tree walk.  An `Evaluator`
holds one such assignment.  It shares a theta leaf's value by key (its kind,
order, index, derivative and argument) with every equal leaf of the trees it
evaluates, and an interior node's value by identity.  Before it evaluates a
batch of trees, it evaluates their new theta leaves with one theta call per
family (kind, order, index, derivative), the arguments stacked.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .context import ThetaContext
from .errors import EvaluationOverflowError, PoleError, UnboundVariableError
from . import theta as _theta

_TWO_PI_I = 2j * math.pi


class Affine:
    """Affine combination  const + sum(coeff[v] * v)  of named variables.

    The coefficients are stored sorted by variable name and `value` sums in
    that order, so equal Affines evaluate bit-identically.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, complex] | None = None, const: complex = 0j):
        cleaned = {}
        if coeffs:
            for name, c in sorted(coeffs.items()):
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

    def shifted(self, by) -> "Affine":
        """self + by, for by a constant or the name of a variable (coefficient 1).
        A name such as a spectral parameter's "_u" sorts before every algebra
        variable, so it is added first: 0 + 1*u keeps the bits of the constant u."""
        if isinstance(by, str):
            return Affine({**self.coeffs, by: self.coeffs.get(by, 0j) + 1}, self.const)
        return Affine(self.coeffs, self.const + by)

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

    def __repr__(self):
        parts = [f"{c!r}*{n}" for n, c in self.coeffs.items()]
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
    """Base node.  Nodes are immutable objects, each equal only to itself, so a
    tree evaluates exactly as it is written.  An `Evaluator` keys values by
    node identity and by `Theta._leaf_key`.
    """

    __slots__ = ()

    def _children(self):
        return ()

    def _eval(self, ev):  # pragma: no cover - abstract
        raise NotImplementedError

    def _diff(self, var):  # pragma: no cover - abstract
        raise NotImplementedError

    def _subst(self, mapping):  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect_vars(self, acc):
        for child in self._children():
            child._collect_vars(acc)


class Var(MeroExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _eval(self, ev):
        try:
            return ev.env[self.name]
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

    def _eval(self, ev):
        return self.value

    def _diff(self, var):
        return _ZERO

    def _subst(self, mapping):
        return self


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

    def _leaf_key(self):
        return self.kind, self.order, self.index, self.deriv, self.arg.const, tuple(self.arg.coeffs.items())

    def _eval(self, ev):  # the value of an equal leaf, stacked (Evaluator._stack_leaves) or not
        key = self._leaf_key()
        value = ev._leaves.get(key)
        if value is None:
            value = ev._leaves[key] = ev._theta(key[:4], self.arg.value(ev.env))
        return value

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

    def _eval(self, ev):
        return np.exp(_TWO_PI_I * self.arg.value(ev.env))

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

    def _children(self):
        return self.terms

    def _eval(self, ev):
        v = ev._value(self.terms[0])
        for t in self.terms[1:]:
            v = v + ev._value(t)
        return v

    def _diff(self, var):
        return add(*(t._diff(var) for t in self.terms))

    def _subst(self, mapping):
        return add(*(t._subst(mapping) for t in self.terms))


class Product(MeroExpr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors

    def _children(self):
        return self.factors

    def _eval(self, ev):
        v = ev._value(self.factors[0])
        for f in self.factors[1:]:
            v = v * ev._value(f)
        return v

    def _diff(self, var):  # a factor with derivative zero makes its term zero, which add drops
        return add(*(mul(*self.factors[:i], f._diff(var), *self.factors[i + 1:])
                     for i, f in enumerate(self.factors)))

    def _subst(self, mapping):
        return mul(*(f._subst(mapping) for f in self.factors))


def nonpole(den, what: str):
    """den, unless some |den| is below the pole guard: then PoleError(what).  The one pole test.

    Local scale 1: sampling keeps every argument O(1)-normalized, while
    numerators (high-order thetas) legitimately reach 1e15 and would poison
    any numerator-relative threshold.
    """
    if np.any(np.abs(den) < ThetaContext.pole_guard):
        raise PoleError(what)
    return den


class Quotient(MeroExpr):
    __slots__ = ("num", "den")

    def __init__(self, num: MeroExpr, den: MeroExpr):
        self.num = num
        self.den = den

    def _children(self):
        return self.num, self.den

    def _eval(self, ev):
        nv = ev._value(self.num)
        return nv / nonpole(ev._value(self.den), "denominator magnitude below pole guard")

    def _diff(self, var):
        dn = self.num._diff(var)
        dd = self.den._diff(var)
        square = Product((self.den, self.den))  # the node, not mul: a product den keeps its order
        return quot(add(mul(dn, self.den), neg(mul(self.num, dd))), square)

    def _subst(self, mapping):
        return quot(self.num._subst(mapping), self.den._subst(mapping))


class Neg(MeroExpr):
    __slots__ = ("child",)

    def __init__(self, child: MeroExpr):
        self.child = child

    def _children(self):
        return (self.child,)

    def _eval(self, ev):
        return -ev._value(self.child)

    def _diff(self, var):
        return neg(self.child._diff(var))

    def _subst(self, mapping):
        return neg(self.child._subst(mapping))


_ZERO = Const(0)
_ONE = Const(1)


def is_const_zero(e: MeroExpr) -> bool:
    """e is the constant zero: the one zero test of construction."""
    return type(e) is Const and e.value == 0


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
    """The sum of terms, nested sums flattened and the constants folded into
    one last term.  Nothing cancels: every other operand keeps its tree."""
    flat = []
    const = 0j
    for t in terms:
        t = _as_expr(t)
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
    if is_const_zero(num):
        return _ZERO
    if isinstance(den, Const):
        if den.value == 1:
            return num
        if den.value != 0:
            return mul(Const(1 / den.value), num)
    return Quotient(num, den)


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

class Evaluator:
    """Bottom-up evaluation at one assignment of variables to complex values.

    Values may be scalars or numpy arrays of a common shape, so one
    evaluator serves a whole sampled batch.  Each value it computes is kept
    for the batch.  A theta leaf is kept by key (kind, order, index,
    derivative and argument), so equal leaves of different trees share one
    evaluation.  Any other node is kept by identity: a subtree shared as an
    object costs one evaluation, and every other node evaluates as it is
    written.  The theta leaves of one family (kind, order, index, derivative)
    with array-valued arguments are evaluated together (`_stack_leaves`).
    Evaluate everything compared on one batch through one evaluator; a batch
    that raises PoleError is dropped with its evaluator.

    The evaluator `shifted` makes stacks this batch as rows, each moving some
    variables.  A theta leaf is evaluated there only on the rows that move
    one of its variables; the other rows take this evaluator's value for the
    same leaf key, bit for bit the value an all-rows evaluation would give
    them (shiftops.sampled_coefficients).
    """

    __slots__ = ("env", "ctx", "_memo", "_leaves", "_overflow", "_base")

    def __init__(self, env: Mapping, ctx: ThetaContext):
        self.env = env
        self.ctx = ctx
        self._memo: dict = {}  # node -> value
        self._leaves: dict = {}  # Theta._leaf_key() -> value
        self._overflow = None  # the first theta overflow of the running `values` call
        self._base = None  # set by `shifted`: (the unshifted evaluator, {variable: moved-row bits})

    def shifted(self, shifts) -> "Evaluator":
        """The evaluator of this batch stacked as rows, row r with each variable v
        moved by shifts[r][v]; a variable that shifts[r] lacks reads as in env."""
        ev = Evaluator({v: np.stack([x + s[v] if v in s else x for s in shifts]) for v, x in self.env.items()},
                       self.ctx)
        ev._base = self, {v: sum(1 << r for r, s in enumerate(shifts) if v in s) for v in self.env}
        return ev

    def __call__(self, expr: MeroExpr):
        """Value of expr, raising as `values` does."""
        return self.values((expr,))[0]

    def values(self, roots) -> list:
        """[value of root for root in roots], the roots walked in turn.

        Errors, in this order: a quotient whose denominator falls below the
        pole guard raises PoleError (`nonpole`) at once, so a pole anywhere
        under the roots comes before any overflow and the batch is redrawn.
        A theta leaf that overflows reads NaN until every root is evaluated,
        and then raises its EvaluationOverflowError; last, a root with a
        non-finite value (an overflow in some node) raises
        EvaluationOverflowError.
        """
        self._overflow = None
        with np.errstate(over="ignore", invalid="ignore"):
            roots = list(roots)
            self._stack_leaves(roots)
            out = [self._value(root) for root in roots]
            if self._overflow is not None:
                raise self._overflow
            if not all(np.all(np.isfinite(value)) for value in out):
                raise EvaluationOverflowError("expression evaluation produced a non-finite value")
        return out

    def _stack_leaves(self, roots):
        """Evaluate the theta leaves under roots that have no value yet, one
        theta call per family of leaves with array-valued arguments, on the
        arguments raveled and stacked.  If that call overflows, each leaf of
        the family is evaluated alone (`_theta`).  A leaf with a scalar
        argument is left to `Theta._eval`.  On a `shifted` evaluator, only the
        rows that move a leaf's variables are stacked (`_from_base`)."""
        families: dict = {}
        partial: dict = {}  # leaf key -> (leaf, its argument's shape, indices of its moved rows); shifted only
        seen, stack = set(), list(roots)
        while stack:
            node = stack.pop()
            if node in seen or node in self._memo:
                continue
            seen.add(node)
            if type(node) is not Theta:
                stack.extend(node._children())
                continue
            key = node._leaf_key()
            if key in self._leaves or key in seen:  # seen holds the leaf keys met, too
                continue
            seen.add(key)
            try:
                z = node.arg.value(self.env)
            except UnboundVariableError:
                continue  # raised if the tree reaches the leaf
            if not np.ndim(z):
                continue
            if self._base is not None:
                moved = 0
                for name in node.arg.coeffs:
                    moved |= self._base[1][name]
                if moved != (1 << len(z)) - 1:
                    rows = [r for r in range(len(z)) if moved >> r & 1]
                    partial[key] = node, z.shape, rows
                    if not rows:
                        continue
                    z = z[rows]
            families.setdefault(key[:4], {})[key] = z
        for (kind, order, index, deriv), args in families.items():
            try:
                stacked = _theta.theta_value(kind, np.concatenate([z.ravel() for z in args.values()]), self.ctx,
                                             order=order, index=index, deriv=deriv)
            except EvaluationOverflowError:
                stacked = np.concatenate([self._theta(key[:4], z).ravel() for key, z in args.items()])
            start = 0
            for key, z in args.items():
                self._leaves[key] = stacked[start:start + z.size].reshape(z.shape)
                start += z.size
        if partial:
            self._from_base(partial)

    def _from_base(self, partial):
        """Complete each leaf of partial, evaluated on its moved rows only,
        with the unshifted evaluator's value of its key on every other row.
        That evaluator evaluates the keys it lacks as `values` would, and an
        overflow there is this call's to raise."""
        at = self._base[0]
        at._stack_leaves([node for node, _, _ in partial.values()])
        for key, (node, shape, rows) in partial.items():
            value = np.empty(shape, dtype=complex)
            value[:] = node._eval(at)
            if rows:
                value[rows] = self._leaves[key]
            self._leaves[key] = value
        self._overflow = self._overflow or at._overflow
        at._overflow = None

    def _theta(self, family, z):
        """The value of one leaf of family at z.  An overflow reads NaN and is
        kept for `values` to raise once every pole test has run."""
        kind, order, index, deriv = family
        try:
            return _theta.theta_value(kind, z, self.ctx, order=order, index=index, deriv=deriv)
        except EvaluationOverflowError as err:
            self._overflow = self._overflow or err
            return np.full(np.shape(z), np.nan, dtype=complex)

    def _value(self, node: MeroExpr):
        value = self._memo.get(node)
        if value is None:
            value = self._memo[node] = node._eval(self)
        return value


def evaluate(expr: MeroExpr, assignment: Mapping, ctx: ThetaContext):
    """Value of expr at one assignment, through a fresh Evaluator."""
    return Evaluator(assignment, ctx)(expr)


def diff(expr: MeroExpr, variable: str) -> MeroExpr:
    """Exact symbolic derivative, built afresh by each call; theta leaves bump
    their derivative order.  Total over the node kinds, so every tree has one
    (a bracket of `poisson.psi_p` images at p >= 3 differentiates products); on
    a check path only theta leaves, quotients and constants are differentiated."""
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


def theta_leaf_count(roots) -> int:
    """How many distinct theta leaves, by `Theta._leaf_key`, the trees under roots hold."""
    keys, seen, stack = set(), set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if type(node) is Theta:
                keys.add(node._leaf_key())
            stack.extend(node._children())
    return len(keys)


def free_vars(expr: MeroExpr) -> frozenset:
    acc: set = set()
    expr._collect_vars(acc)
    return frozenset(acc)
