"""Expression-tree tests: evaluation, differentiation, substitution, guards."""

import math

import numpy as np
import pytest

from ellcert import ThetaContext
from ellcert import expr as ex
from ellcert.errors import PoleError, UnboundVariableError
from ellcert.sampling import sample_points, stack_assignments

CTX = ThetaContext()
ID_TOL = 1e-8
TWO_PI_I = 2j * math.pi


def test_constant_under_empty_assignment():
    assert ex.evaluate(ex.const(5), {}, CTX) == 5 + 0j


def test_quotient_pole_raises():
    e = ex.quot(ex.const(1), ex.var("z"))
    with pytest.raises(PoleError):
        ex.evaluate(e, {"z": 0.0}, CTX)


def test_unbound_variable_raises():
    with pytest.raises(UnboundVariableError):
        ex.evaluate(ex.var("z"), {}, CTX)


def test_vectorized_evaluation_matches_scalar():
    e = ex.theta1_of(ex.aff("z", const=0.1)) * ex.var("w") + ex.const(2)
    pts = sample_points(8, ["z", "w"], [], 5, CTX)
    batch = ex.evaluate(e, stack_assignments(pts), CTX)
    singles = [ex.evaluate(e, p, CTX) for p in pts]
    assert np.allclose(batch, singles, rtol=0, atol=1e-14)


def test_quasi_oddness_through_expressions():
    # theta(z1-z2)/theta(z2-z1) == -exp(2*pi*i*(z1-z2)) pointwise.
    e = ex.quot(ex.theta1_of(ex.aff("z1", (-1, "z2"))), ex.theta1_of(ex.aff("z2", (-1, "z1"))))
    for p in sample_points(10, ["z1", "z2"], [ex.theta1_of(ex.aff("z1", (-1, "z2")))], 7, CTX):
        got = ex.evaluate(e, p, CTX)
        want = -np.exp(TWO_PI_I * (p["z1"] - p["z2"]))
        assert abs(got - want) <= ID_TOL * max(1, abs(want))


def test_substitute_matches_transformed_assignment():
    e = ex.theta1_of(ex.aff("a", (2, "b"), const=0.3)) * ex.var("a")
    sub = ex.substitute(e, {"a": ex.aff("x", const=0.1), "b": ex.aff((0.5, "y"))})
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, y = complex(rng.random(), 0.3 * rng.random()), complex(rng.random(), 0.3 * rng.random())
        direct = ex.evaluate(e, {"a": x + 0.1, "b": 0.5 * y}, CTX)
        viasub = ex.evaluate(sub, {"x": x, "y": y}, CTX)
        assert abs(direct - viasub) < 1e-12 * max(1, abs(direct))


def test_translate_shifts_arguments():
    e = ex.theta1_of("z")
    t = ex.translate(e, {"z": 0.25})
    z = 0.3 + 0.4j
    assert abs(ex.evaluate(t, {"z": z}, CTX) - ex.evaluate(e, {"z": z + 0.25}, CTX)) < 1e-13


def test_free_vars():
    e = ex.quot(ex.theta_basis_of(1, 3, ex.aff("z1", "z2")), ex.exp2pii("z3"))
    assert ex.free_vars(e) == frozenset({"z1", "z2", "z3"})


class TestStructuralEquality:
    @staticmethod
    def _tree(c=0.3):
        return ex.quot(ex.theta1_of(ex.aff("a", (2, "b"), const=c)) * ex.var("a"),
                       ex.exp2pii("b") + ex.ipow(ex.theta_odd_of("a"), 2) - ex.const(2))

    def test_rebuilt_tree_is_equal(self):
        e = self._tree()
        copy = ex.substitute(e, {"a": ex.aff("a"), "b": ex.aff("b")})  # every node rebuilt
        assert copy is not e and copy == e and hash(copy) == hash(e)
        assert ex.add(e, ex.neg(copy)) is ex._ZERO
        assert copy - e is ex._ZERO

    def test_one_constant_breaks_equality(self):
        assert self._tree(0.3) != self._tree(0.31)
        assert ex.add(self._tree(0.3), ex.neg(self._tree(0.31))) != ex._ZERO

    def test_sums_and_products_compare_as_multisets(self):
        z1, z2 = ex.var("z1"), ex.var("z2")
        assert z1 * z2 == z2 * z1 and hash(z1 * z2) == hash(z2 * z1)
        assert z1 * z2 - z2 * z1 is ex._ZERO
        assert z1 + z2 == z2 + z1 and z1 + z1 != z1 and z1 + z1 + z2 != z1 + z2 + z2

    def test_only_whole_operands_cancel(self):
        x, y, w = ex.theta1_of("z"), ex.var("y"), ex.var("w")
        assert ex.add(y, x, ex.neg(x), w) == y + w
        # x inside the sum y + x is not an operand of the outer add, so it stays
        kept = ex.add(y + x, ex.neg(x))
        assert isinstance(kept, ex.Sum) and len(kept.terms) == 3


class TestDiff:
    def test_constant_derivative_is_zero(self):
        d = ex.diff(ex.const(4 + 1j), "z")
        assert isinstance(d, ex.Const) and d.value == 0

    def test_square_rule(self):
        e = ex.var("z") * ex.var("z")
        d = ex.diff(e, "z")
        assert abs(ex.evaluate(d, {"z": 2.0}, CTX) - 4.0) < 1e-14

    def test_theta_derivative_against_central_difference(self):
        h = 1e-4
        e = ex.theta1_of("z")
        d = ex.diff(e, "z")
        for z0 in (0.31 + 0.22j, 0.72 + 0.55j):
            sym = ex.evaluate(d, {"z": z0}, CTX)
            num = (ex.evaluate(e, {"z": z0 + h}, CTX) - ex.evaluate(e, {"z": z0 - h}, CTX)) / (2 * h)
            d2 = ex.evaluate(ex.diff(d, "z"), {"z": z0}, CTX)
            scale = max(1.0, abs(ex.evaluate(e, {"z": z0}, CTX)), abs(sym), abs(d2))
            assert abs(sym - num) <= 10 * h * h * scale

    def test_random_trees_against_central_differences(self):
        # 50 random trees of depth <= 5; O(h^2) agreement.
        rng = np.random.default_rng(23)
        h = 1e-4
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 400:
            attempts += 1
            tree = _random_tree(rng, depth=rng.integers(1, 6))
            z0 = complex(0.2 + 0.6 * rng.random(), 0.1 + 0.5 * rng.random())
            w0 = complex(0.2 + 0.6 * rng.random(), 0.1 + 0.5 * rng.random())
            env0 = {"z": z0, "w": w0}
            d = ex.diff(tree, "z")
            try:
                sym = ex.evaluate(d, env0, CTX)
                vp = ex.evaluate(tree, {"z": z0 + h, "w": w0}, CTX)
                vm = ex.evaluate(tree, {"z": z0 - h, "w": w0}, CTX)
                v0 = ex.evaluate(tree, env0, CTX)
                d2 = ex.evaluate(ex.diff(d, "z"), env0, CTX)
                d3 = ex.evaluate(ex.diff(ex.diff(d, "z"), "z"), env0, CTX)
            except PoleError:
                continue
            if max(abs(v0), abs(sym), abs(d2), abs(d3)) > 1e6:
                continue  # keep away from near-pole configurations
            num = (vp - vm) / (2 * h)
            scale = max(1.0, abs(v0), abs(sym), abs(d2), abs(d3))
            assert abs(sym - num) <= 10 * h * h * scale
            checked += 1
        assert checked == 50


def _random_tree(rng, depth):
    if depth <= 0:
        kind = rng.integers(0, 4)
        if kind == 0:
            return ex.var("z" if rng.random() < 0.7 else "w")
        if kind == 1:
            return ex.const(complex(rng.normal(), rng.normal()))
        if kind == 2:
            return ex.theta1_of(ex.aff(("z" if rng.random() < 0.7 else "w"), const=0.05 * rng.normal()))
        return ex.exp2pii(ex.aff((round(rng.normal(), 1), "z")))
    kind = rng.integers(0, 5)
    a = _random_tree(rng, depth - 1)
    b = _random_tree(rng, depth - 1)
    if kind == 0:
        return a + b
    if kind == 1:
        return a * b
    if kind == 2:
        return ex.quot(a, ex.const(1.5) + ex.ipow(b, 2))  # keep denominators away from 0
    if kind == 3:
        return ex.neg(a)
    return ex.ipow(a, int(rng.integers(1, 4)))


class TestSampling:
    def test_single_point_in_box(self):
        (p,) = sample_points(1, ["z"], [], 42, CTX)
        assert 0 <= p["z"].real < 1 and 0 <= p["z"].imag < CTX.tau.imag

    def test_guard_keeps_points_apart(self):
        guard = ex.theta1_of(ex.aff("z1", (-1, "z2")))
        from ellcert.theta import theta1
        for p in sample_points(30, ["z1", "z2"], [guard], 42, CTX):
            assert abs(theta1(p["z1"] - p["z2"], CTX)) >= CTX.pole_guard

    def test_deterministic(self):
        a = sample_points(12, ["z1", "z2"], [], 9, CTX)
        b = sample_points(12, ["z1", "z2"], [], 9, CTX)
        assert a == b

    def test_exhaustion_error(self):
        from ellcert.errors import SamplingExhaustedError
        never = ex.const(0)
        with pytest.raises(SamplingExhaustedError):
            sample_points(2, ["z"], [never], 1, CTX)
