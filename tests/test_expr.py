"""Expression-tree tests: evaluation, differentiation, substitution, sampling."""

import math

import numpy as np
import pytest

from ellcert import ThetaContext
from ellcert import expr as ex
from ellcert import theta as theta_module
from ellcert.errors import EvaluationOverflowError, PoleError, UnboundVariableError
from ellcert.sampling import box, sample_points, sampled_max, stack_assignments

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
    e = ex.add(ex.mul(ex.theta1_of(ex.aff("z", const=0.1)), ex.var("w")), ex.const(2))
    pts = sample_points(8, ["z", "w"], 5, CTX)
    batch = ex.evaluate(e, stack_assignments(pts), CTX)
    singles = [ex.evaluate(e, p, CTX) for p in pts]
    assert np.allclose(batch, singles, rtol=0, atol=1e-14)


def test_quasi_oddness_through_expressions():
    # theta(z1-z2)/theta(z2-z1) == -exp(2*pi*i*(z1-z2)) pointwise.
    e = ex.quot(ex.theta1_of(ex.aff("z1", (-1, "z2"))), ex.theta1_of(ex.aff("z2", (-1, "z1"))))
    for p in sample_points(10, ["z1", "z2"], 7, CTX):
        got = ex.evaluate(e, p, CTX)
        want = -np.exp(TWO_PI_I * (p["z1"] - p["z2"]))
        assert abs(got - want) <= ID_TOL * max(1, abs(want))


def test_substitute_matches_transformed_assignment():
    e = ex.mul(ex.theta1_of(ex.aff("a", (2, "b"), const=0.3)), ex.var("a"))
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


class TestDiff:
    def test_constant_derivative_is_zero(self):
        d = ex.diff(ex.const(4 + 1j), "z")
        assert isinstance(d, ex.Const) and d.value == 0

    def test_square_rule(self):
        e = ex.mul(ex.var("z"), ex.var("z"))
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
        h = 1e-4
        checked = 0
        for tree, env0 in _random_cases():
            if checked == 50:
                break
            z0, w0 = env0["z"], env0["w"]
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

    def test_hamiltonian_brackets_differentiate_each_node_once(self, monkeypatch):
        # The n = 4 hamiltonian check builds no Delta and no bracket: over two
        # batches, ex.diff is asked only for the coefficients of the grid's
        # entries, once per (coefficient, variable), each node under them is
        # differentiated once, and each batch evaluates the grid with one
        # stacked theta call per family, one per column for the values and
        # one for their derivatives.
        from ellcert import poisson
        from ellcert.shiftops import theta_column_grid
        n, points = 4, 20
        alg, grid = theta_column_grid(n, CTX, poisson.PoissonElement)  # fresh, so nothing is kept
        monkeypatch.setattr(poisson, "_delta_grid", lambda *_: (alg, grid))
        monkeypatch.setattr(poisson.PoissonElement, "__mul__", None)  # a built product would raise
        asked, calls = [], []
        public, real = ex.diff, theta_module.theta_value
        monkeypatch.setattr(ex, "diff", lambda node, var: asked.append((node, var)) or public(node, var))
        built = {}
        for cls in ex.MeroExpr.__subclasses__():
            def counted(node, var, _diff=cls._diff):
                key = (id(node), var)
                k, _ = built.get(key, (0, node))  # the node stays referenced, so its id is not reused
                built[key] = (k + 1, node)
                return _diff(node, var)
            monkeypatch.setattr(cls, "_diff", counted)
        monkeypatch.setattr(theta_module, "theta_value",
                            lambda kind, z, ctx, **kw: calls.append((kw["index"], kw["deriv"], np.size(z)))
                            or real(kind, z, ctx, **kw))
        for seed in (42, 7):
            assert poisson.classical_hamiltonians(n, CTX, 1, seed, points) <= 1e-9
        entries = [c for row in grid for e in row for c in e.terms.values()]
        assert len(asked) == len({(id(c), v) for c, v in asked}) == len(entries) * n
        assert {id(c) for c, _ in asked} == {id(c) for c in entries}
        assert built and max(k for k, _ in built.values()) == 1
        assert sorted(calls) == [(j, d, n * points) for j in range(n) for d in (0, 1) for _ in range(2)]


def _random_cases():
    """Up to 400 (random tree of depth <= 5, point of z and w) pairs, seeded."""
    rng = np.random.default_rng(23)
    for _ in range(400):
        tree = _random_tree(rng, depth=rng.integers(1, 6))
        z0 = complex(0.2 + 0.6 * rng.random(), 0.1 + 0.5 * rng.random())
        w0 = complex(0.2 + 0.6 * rng.random(), 0.1 + 0.5 * rng.random())
        yield tree, {"z": z0, "w": w0}


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
        return ex.add(a, b)
    if kind == 1:
        return ex.mul(a, b)
    if kind == 2:
        return ex.quot(a, ex.add(ex.const(1.5), ex.mul(b, b)))  # keep denominators away from 0
    if kind == 3:
        return ex.neg(a)
    return ex.mul(*[a] * int(rng.integers(1, 4)))  # a power: a repeated


class TestSampling:
    def test_single_point_in_box(self):
        (p,) = sample_points(1, ["z"], 42, CTX)
        assert 0 <= p["z"].real < 1 and 0 <= p["z"].imag < CTX.tau.imag

    def test_deterministic(self):
        a = sample_points(12, ["z1", "z2"], 9, CTX)
        b = sample_points(12, ["z1", "z2"], 9, CTX)
        assert a == b

    @pytest.mark.parametrize("count", [1, 5, 20])
    def test_points_are_the_first_rows_of_one_draw(self, count):
        # the golden report depends on this layout: real parts, then imaginary parts
        names = ["z1", "z2", "z3"]
        rng = np.random.default_rng(17)
        shape = (max(4 * count, 16), len(names))
        re = rng.random(shape)
        im = rng.random(shape)
        rows = (re + 1j * (im * CTX.tau.imag))[:count]
        assert sample_points(count, names, 17, CTX) == [dict(zip(names, map(complex, r))) for r in rows]

    @pytest.mark.parametrize("count", [1, 5, 20])
    def test_box_stacks_the_sampled_points(self, count):
        names = ["z1", "z2", "z3"]
        for seed in range(10):
            drawn = box(count, names, CTX)(seed)
            stacked = stack_assignments(sample_points(count, names, seed, CTX))
            assert list(drawn) == names and all(drawn[n].flags.c_contiguous for n in names)
            assert _bits(drawn.values()) == _bits(stacked.values())

    def test_identically_poled_measure_raises_after_every_batch(self):
        # a degenerate input ends in an error, never in a residual
        poled = ex.quot(1, ex.theta1_of(0))
        batches = []

        def measure(at):
            batches.append(at)
            return float(np.max(np.abs(at(poled))))

        with pytest.raises(PoleError):
            sampled_max(measure, box(5, ["z"], CTX), 0, CTX)
        assert len(batches) == 8

    @pytest.mark.parametrize("value", [np.nan, np.inf, np.array([1.0, np.nan])])
    def test_non_finite_value_raises_after_one_batch(self, value):
        # an overflow is an error, never a residual, and not a pole to redraw
        batches = []

        def measure(at):
            batches.append(at)
            return value

        with pytest.raises(EvaluationOverflowError):
            sampled_max(measure, box(5, ["z"], CTX), 0, CTX)
        assert len(batches) == 1


@pytest.fixture
def theta_calls(monkeypatch):
    """Kinds of every theta_value call made while the fixture is active."""
    calls = []
    real = theta_module.theta_value

    def counted(kind, z, ctx, **kw):
        calls.append(kind)
        return real(kind, z, ctx, **kw)

    monkeypatch.setattr(theta_module, "theta_value", counted)
    return calls


class TestEvaluator:
    def test_equal_affines_evaluate_bit_identically(self):
        env = {"a": 0.1 + 0.7j, "b": 0.3 + 0.2j, "c": 0.9 + 0.4j}
        one = ex.Affine({"c": 0.7, "a": 1 / 3, "b": -2.1}, const=0.25j)
        other = ex.Affine({"b": -2.1, "c": 0.7, "a": 1 / 3}, const=0.25j)
        bits = lambda v: (v.real.hex(), v.imag.hex())
        assert repr(one) == repr(other)
        assert bits(one.value(env)) == bits(other.value(env))
        # summed in the two insertion orders, the same terms differ in the last bit
        terms = [0.25j, 0.7 * env["c"], 1 / 3 * env["a"], -2.1 * env["b"]]
        assert bits(sum(terms)) != bits(sum([terms[0], terms[3], terms[1], terms[2]]))

    def test_shared_node_is_computed_once(self, theta_calls):
        t = ex.theta1_of(ex.aff("z", const=0.1))
        u = ex.theta_odd_of(ex.aff("z", "w"))
        rebuilt = ex.theta1_of(ex.aff("z", const=0.1))  # equal to t, another object
        at = ex.Evaluator({"z": 0.3 + 0.2j, "w": 0.6 + 0.1j}, CTX)
        first = at(ex.add(ex.mul(t, u), ex.const(2)))
        second = at(ex.add(ex.quot(rebuilt, u), ex.neg(t)))
        assert theta_calls == ["order1", "odd"]
        assert first == ex.evaluate(ex.add(ex.mul(t, u), ex.const(2)), at.env, CTX)
        assert second == ex.evaluate(ex.add(ex.quot(rebuilt, u), ex.neg(t)), at.env, CTX)
        assert len(theta_calls) == 6  # each ex.evaluate call has a fresh evaluator

    def test_overflow_in_a_memoized_node_raises_for_every_root(self, theta_calls):
        huge = ex.mul(ex.exp2pii(ex.aff((-200j, "z"))), ex.theta1_of("z"))  # exp(400*pi) overflows
        at = ex.Evaluator({"z": 1.0 + 0.3j}, CTX)
        with pytest.raises(EvaluationOverflowError):
            at(ex.add(huge, ex.const(1)))
        with pytest.raises(EvaluationOverflowError):
            at(ex.mul(huge, ex.var("z")))  # reuses the memoized non-finite product
        with pytest.raises(EvaluationOverflowError):
            at(huge)
        assert theta_calls == ["order1"]

    def test_pole_guard_holds_on_every_evaluation(self):
        at = ex.Evaluator({"z": 0.0}, CTX)
        pole = ex.quot(ex.const(1), ex.var("z"))
        for root in (pole, ex.add(pole, ex.const(1))):
            with pytest.raises(PoleError):
                at(root)

    def test_scalar_assignment_evaluates_leaf_by_leaf(self, theta_calls):
        # one point gives each leaf one scalar argument: there is nothing to stack
        at = ex.Evaluator({"z": 0.3 + 0.2j}, CTX)
        at.values([ex.theta1_of(ex.aff("z", const=c)) for c in (0, 0.1, 0.2)])
        assert theta_calls == ["order1"] * 3

    def test_shifted_evaluator_raises_its_base_overflow(self):
        # theta(z) moves on no row, so the unshifted evaluator evaluates it and
        # meets the overflow; the shifted evaluator raises that theta's own error
        z = np.array([0.3 + 0.2j, 0.4 + 70 * CTX.tau])
        w = np.array([0.1 + 0.1j, 0.2 + 0.3j])
        at = ex.Evaluator({"z": z, "w": w}, CTX)
        shifted = at.shifted([{"w": 0.1}, {}])
        with pytest.raises(EvaluationOverflowError, match="lattice steps"):
            shifted.values([ex.mul(ex.theta1_of("z"), ex.theta1_of("w"))])

    def test_overflowing_family_is_left_to_its_leaves(self):
        far = 70 * CTX.tau  # more than 64 lattice steps: theta_value refuses to reduce it

        def draw(seed):
            first = seed == 0
            return {"z": np.array([0.3 + 0.2j, far if first else 0.4 + 0.1j]),
                    "p": np.array([1.0, 0.0 if first else 1.0])}

        leaf = ex.theta1_of("z")
        behind_pole = ex.add(ex.quot(1, ex.var("p")), leaf, ex.theta1_of(ex.aff("z", const=0.1)))
        batches = []

        def measure(at):
            batches.append(at)
            return at(behind_pole)

        # the quotient poles, and a pole comes before any overflow, so the first batch redraws
        assert np.all(np.isfinite(sampled_max(measure, draw, 0, CTX))) and len(batches) == 2


def _bits(values):
    return [(type(v), np.shape(v), np.asarray(v).tobytes()) for v in values]


_HUGE = ex.mul(ex.exp2pii(ex.aff((-200j, "z"))), ex.theta1_of("z"))  # exp(400*pi*Re z) overflows
_FAR = ex.mul(ex.theta1_of("z"), ex.theta1_of(ex.aff("z", const=70 * CTX.tau)))  # a leaf that overflows alone
_POLE = ex.quot(1, ex.var("w"))


@pytest.mark.parametrize("roots, pole, error", [
    ([_HUGE, _POLE], True, PoleError),  # a non-finite root, then a pole
    ([_FAR, _POLE], True, PoleError),  # a leaf that overflows alone, then a pole
    ([_HUGE, _FAR, _POLE], False, EvaluationOverflowError),  # overflows and no pole
], ids=["non-finite-root", "overflowing-leaf", "no-pole"])
def test_values_raise_every_pole_before_any_overflow(roots, pole, error):
    env = box(12, ["z", "w"], CTX)(3)
    if pole:
        env["w"][0] = 0
    with pytest.raises(error):
        ex.Evaluator(env, CTX).values(roots)
