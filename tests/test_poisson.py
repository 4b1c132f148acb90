"""Poisson layer: bracket axioms, jets, determinant hamiltonians, psi_p, Fay."""

import functools
import operator

import numpy as np
import pytest

from ellcert import ThetaContext
from ellcert import expr as ex
from ellcert import poisson
from ellcert import theta as theta_module
from ellcert.errors import PoleError
from ellcert.poisson import (
    PoissonElement,
    RatioBracket,
    classical_delta_elements,
    classical_hamiltonians,
    fay_residual,
    fay_sweep,
    _jacobi_delta_terms,
    jacobi_delta_residual,
    jet_bracket,
    jets,
    pbracket,
    pbracket_halves,
    pbracket_residual,
    psi2_pair_residual,
    psi_p,
)
from ellcert.cfdet import minors
from ellcert.checks import REGISTRY
from ellcert.shiftops import make_Bpn, make_Vn, theta_column_grid
CTX = ThetaContext()
ID_TOL = 1e-8


def random_element(alg, rng, max_exp=2):
    terms = {}
    for _ in range(2):
        mi = tuple(int(rng.integers(0, max_exp)) for _ in range(alg.r))
        coeff = ex.theta1_of(ex.aff(alg.var_names[0], const=rng.random())) \
            if rng.random() < 0.5 else ex.var(alg.var_names[-1]) * ex.const(rng.normal())
        terms[mi] = coeff
    return PoissonElement(alg, terms)


def phase_env(alg, rng):
    env = {v: complex(rng.random(), 0.5 * rng.random()) for v in alg.var_names}
    env.update({g: complex(0.3 + rng.random(), rng.random()) for g in alg.gen_names})
    return env


def phase_point(alg, rng):
    """Evaluator of one random phase-space point."""
    return ex.Evaluator(phase_env(alg, rng), CTX)


class TestBracketAxioms:
    def test_self_bracket_vanishes(self):
        alg = make_Vn(2, CTX)
        a = PoissonElement.generator(alg, "f1", ex.theta1_of("z1"))
        assert pbracket_residual(a, a, samples=6, seed=0) == 0.0

    def test_cone_defining_bracket(self):
        # {f1, z1} = -3 f1 in the n = 3 cone algebra
        alg = make_Vn(3, CTX)
        f1 = PoissonElement.generator(alg, "f1")
        z1 = PoissonElement.function(alg, ex.var("z1"))
        got = pbracket(f1, z1)
        want = PoissonElement.generator(alg, "f1", ex.const(-3))
        r = pbracket_residual(got + want.scaled(-1), PoissonElement.zero(alg), samples=4, seed=1)
        # direct comparison: single term with constant coefficient
        assert list(got.terms) == [(1, 0, 0)]
        at = phase_point(alg, np.random.default_rng(0))
        assert abs(got.evaluate(at) - want.evaluate(at)) < 1e-12

    def test_classical_bpn_bracket(self):
        # {e1, u2} = -2 e1 in b_{2,4}
        alg = make_Bpn(2, 4, CTX)
        e1 = PoissonElement.generator(alg, "e1")
        u2 = PoissonElement.function(alg, ex.var("u2"))
        got = pbracket(e1, u2)
        at = phase_point(alg, np.random.default_rng(1))
        assert abs(got.evaluate(at) - (-2) * at.env["e1"]) < 1e-12

    def test_antisymmetry_and_leibniz(self):
        alg = make_Bpn(2, 3, CTX)
        rng = np.random.default_rng(5)
        for trial in range(20):
            a, b, c = (random_element(alg, rng) for _ in range(3))
            at = phase_point(alg, rng)
            anti = pbracket(a, b).evaluate(at) + pbracket(b, a).evaluate(at)
            assert abs(anti) < 1e-9 * max(1, abs(pbracket(a, b).evaluate(at)))
            lhs = pbracket(a, b * c).evaluate(at)
            rhs = (pbracket(a, b) * c).evaluate(at) + (b * pbracket(a, c)).evaluate(at)
            assert abs(lhs - rhs) <= 1e-9 * max(1, abs(lhs), abs(rhs))

    def test_jacobi_identity_sampled(self):
        alg = make_Bpn(2, 3, CTX)
        rng = np.random.default_rng(7)
        for trial in range(10):
            a, b, c = (random_element(alg, rng) for _ in range(3))
            at = phase_point(alg, rng)
            terms = [
                pbracket(a, pbracket(b, c)).evaluate(at),
                pbracket(b, pbracket(c, a)).evaluate(at),
                pbracket(c, pbracket(a, b)).evaluate(at),
            ]
            assert abs(sum(terms)) <= 1e-8 * max(1, *(abs(t) for t in terms))


class TestRatioBracket:
    def test_unit_denominators_reduce_to_plain_bracket(self):
        alg = make_Vn(2, CTX)
        one = PoissonElement.function(alg, ex.const(1))
        f = PoissonElement.generator(alg, "f1", ex.theta1_of("z1"))
        g = PoissonElement.generator(alg, "f2", ex.var("z2"))
        at = phase_point(alg, np.random.default_rng(2))
        fj, oj, gj = jets([f, one, g], at)
        rb = RatioBracket(fj, oj, gj, oj)
        assert abs(rb.residual_at()[0] - pbracket(f, g).evaluate(at)) < 1e-10

    def test_constant_ratio_brackets_to_zero(self):
        alg = make_Vn(2, CTX)
        h = PoissonElement.function(alg, ex.theta1_of(ex.aff("z1", "z2")))
        g = PoissonElement.generator(alg, "f1", ex.var("z1"))
        one = PoissonElement.function(alg, ex.const(1))
        hj, gj, oj = jets([h, g, one], phase_point(alg, np.random.default_rng(3)))
        rb = RatioBracket(hj, hj, gj, oj)
        assert rb.residual_batch() <= ID_TOL

    def test_quotient_rule(self):
        # {1/h, g} + {h, g} / h^2 = 0
        alg = make_Vn(2, CTX)
        h = PoissonElement.function(alg, ex.theta1_of(ex.aff("z1", (0.5, "z2"))))
        g = PoissonElement.generator(alg, "f2", ex.theta1_of("z2"))
        one = PoissonElement.function(alg, ex.const(1))
        rng = np.random.default_rng(4)
        for _ in range(20):
            at = phase_point(alg, rng)
            hv = h.evaluate(at)
            oj, hj, gj = jets([one, h, g], at)
            lhs = RatioBracket(oj, hj, gj, oj).residual_at()[0]
            rhs = -pbracket(h, g).evaluate(at) / hv ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(1, abs(lhs), abs(rhs))

    def test_quotient_rule_check_takes_one_jets_call_per_batch(self, monkeypatch):
        # the jets of 1, h and g come from one call on each batch's evaluator
        calls, batches = [], []
        real_jets, real_draw = poisson.jets, poisson._phase_space_points
        monkeypatch.setattr(poisson, "jets", lambda elements, at: calls.append(at) or real_jets(elements, at))
        monkeypatch.setattr(poisson, "_phase_space_points", lambda *args: batches.append(args) or real_draw(*args))
        assert REGISTRY["quotient-rule"]({}) <= 1e-9
        assert batches and len(calls) == len({id(at) for at in calls}) == len(batches)

    def test_rejects_non_multiplication_denominator(self):
        alg = make_Vn(2, CTX)
        (f,) = jets([PoissonElement.generator(alg, "f1")], phase_point(alg, np.random.default_rng(5)))
        with pytest.raises(ValueError):
            RatioBracket(f, f, f, f)


@functools.cache
def symbolic_path(n):
    """The oracle of the jets: the built Delta elements and the built bracket
    {Delta_i, Delta_j} of every ordered pair."""
    alg, deltas = classical_delta_elements(n, CTX)
    return alg, deltas, {(i, j): pbracket(deltas[i], deltas[j]) for i in range(n + 1) for j in range(n + 1)}


def assert_close(got, want, scale, rel=1e-13):
    """max |got - want| over the batch within rel of the largest |scale|."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(scale))


class TestJets:
    @pytest.mark.parametrize("seed", [42, 7, 2026])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_jets_match_the_symbolic_path(self, n, seed):
        alg, deltas, brackets = symbolic_path(n)
        at = ex.Evaluator(poisson._phase_space_points(alg, 20, seed), CTX)
        sampled = poisson.delta_jets(n, CTX, at)
        for jet, delta in zip(sampled, deltas):
            assert_close(jet.value, delta.evaluate(at), delta.evaluate(at))
        for (i, j), bracket in brackets.items():  # {Delta_0, Delta_0} is 0 on both paths
            assert_close(jet_bracket(sampled[i], sampled[j]), bracket.evaluate(at), bracket.evaluate(at))

    @pytest.mark.parametrize("seed", [42, 7, 2026])
    def test_quotient_rule_and_psi_brackets_match_the_symbolic_path(self, seed):
        alg = make_Vn(2, CTX)
        h = PoissonElement.function(alg, ex.theta1_of(ex.aff("z1", (0.5, "z2"))))
        g = PoissonElement.generator(alg, "f2", ex.theta1_of("z2"))
        a, b = (psi_p(ex.theta_basis_of(i, 2, "w"), 2, 2, CTX) for i in range(2))
        for x, y in ((h, g), (a, b)):
            at = ex.Evaluator(poisson._phase_space_points(x.algebra, 20, seed), CTX)
            jx, jy = jets([x, y], at)
            assert_close(jx.value, x.evaluate(at), x.evaluate(at))
            assert_close(jy.value, y.evaluate(at), y.evaluate(at))
            # {psi_2(theta_0), psi_2(theta_1)} vanishes: its Leibniz halves are the scale
            scale = np.maximum(*(np.abs(half.evaluate(at)) for half in pbracket_halves(x, y)))
            assert_close(jet_bracket(jx, jy), pbracket(x, y).evaluate(at), scale)

    def test_jet_knows_its_generators(self):
        alg = make_Vn(2, CTX)
        at = phase_point(alg, np.random.default_rng(0))
        f1, theta = jets([PoissonElement.generator(alg, "f1", ex.var("z2")),
                          PoissonElement.function(alg, ex.theta1_of("z1"))], at)
        assert theta.is_multiplication() and not f1.is_multiplication()
        # z2 f1: value, d/dz1, d/dz2, f1 d/df1, f2 d/df2
        want = [at.env["z2"] * at.env["f1"], 0, at.env["f1"], at.env["z2"] * at.env["f1"], 0]
        assert np.allclose([f1.value, *f1.grad], want, rtol=1e-15, atol=0)


class TestHamiltonians:
    @pytest.mark.parametrize("n", [2, 3])
    def test_pairwise_commutation(self, n):
        assert classical_hamiltonians(n, CTX, seed=0, points=8) <= 1e-9

    def test_poled_bracket_raises_instead_of_skipping_points(self, monkeypatch):
        # a residual measured at no point at all must not read as 0.0, a pass
        def poles(self):
            raise PoleError("ratio denominator vanishes at a sample point")

        monkeypatch.setattr(RatioBracket, "residual_at", poles)  # the relations relation_max takes
        with pytest.raises(PoleError):
            classical_hamiltonians(2, CTX, seed=0, points=4)

    def test_row_swap_leaves_hamiltonians_invariant(self):
        n = 3
        alg, deltas = classical_delta_elements(n, CTX)
        rng = np.random.default_rng(9)
        env = phase_env(alg, rng)
        swapped = dict(env)
        swapped["z1"], swapped["z2"] = env["z2"], env["z1"]
        swapped["f1"], swapped["f2"] = env["f2"], env["f1"]
        at, at_swapped = ex.Evaluator(env, CTX), ex.Evaluator(swapped, CTX)
        for i in range(1, n + 1):
            h = deltas[i].evaluate(at) / deltas[0].evaluate(at)
            hs = deltas[i].evaluate(at_swapped) / deltas[0].evaluate(at_swapped)
            assert abs(h - hs) <= ID_TOL * max(1, abs(h))

    def test_generator_column_rescaling(self):
        # Scaling the whole generator column scales each Delta_i (i >= 1)
        # identically and leaves the ratios H_i / H_j unchanged.
        n = 3
        alg, deltas = classical_delta_elements(n, CTX)
        rng = np.random.default_rng(10)
        env = phase_env(alg, rng)
        gscale = 0.7 + 0.4j
        scaled_env = dict(env)
        for g in alg.gen_names:
            scaled_env[g] = env[g] * gscale
        at, at_scaled = ex.Evaluator(env, CTX), ex.Evaluator(scaled_env, CTX)
        d_vals = [deltas[i].evaluate(at) for i in range(n + 1)]
        s_vals = [deltas[i].evaluate(at_scaled) for i in range(n + 1)]
        assert abs(s_vals[0] - d_vals[0]) < 1e-12 * max(1, abs(d_vals[0]))
        for i in range(1, n + 1):
            assert abs(s_vals[i] - gscale * d_vals[i]) <= 1e-10 * max(1, abs(d_vals[i]))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                r = (d_vals[i] / d_vals[j])
                rs = (s_vals[i] / s_vals[j])
                assert abs(r - rs) <= ID_TOL * max(1, abs(r))

    def test_hamiltonian_pairs_are_bracketed_once(self, monkeypatch):
        bracketed = []
        real = poisson.jet_bracket
        monkeypatch.setattr(poisson, "jet_bracket", lambda a, b: bracketed.append((a, b)) or real(a, b))
        classical_hamiltonians(4, CTX, seed=42)
        # 6 pairs {Delta_i, Delta_j}, 3 {Delta_0, Delta_j}, 3 {Delta_i, Delta_0} and {Delta_0, Delta_0}
        assert len(bracketed) == len({(id(a), id(b)) for a, b in bracketed}) == 13

    @pytest.mark.parametrize("seed", [42, 7, 2026])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_plan_keeps_the_recursive_bits(self, n, seed):
        # the trees one `jets` call plans for the grid's entries (_jet_layout),
        # read with one stacked values call, keep the bits of each tree walked alone
        alg, grid = poisson._delta_grid(n, CTX)
        trees = poisson._jet_layout(tuple(e for row in grid for e in row))[0]
        env = poisson._phase_space_points(alg, 20, seed)
        stacked = ex.Evaluator(env, CTX).values(trees)
        walked = [ex.Evaluator(env, CTX)(tree) for tree in trees]
        assert [(np.shape(v), np.asarray(v).tobytes()) for v in stacked] == \
            [(np.shape(v), np.asarray(v).tobytes()) for v in walked]

    def test_batch_evaluates_each_distinct_element_once(self, monkeypatch):
        # the 20 entries of the n = 4 grid are the only elements a batch
        # evaluates, in one `jets` call; the ratio brackets read their jets
        alg, grid = poisson._delta_grid(4, CTX)
        taken, calls = [], []
        real_jets, real_theta = poisson.jets, theta_module.theta_value
        monkeypatch.setattr(poisson, "jets", lambda elements, at: taken.append(elements) or real_jets(elements, at))
        at = ex.Evaluator(poisson._phase_space_points(alg, 20, 42), CTX)
        deltas = poisson.delta_jets(4, CTX, at)
        assert [list(map(id, e)) for e in taken] == [[id(e) for row in grid for e in row]]
        monkeypatch.setattr(theta_module, "theta_value", lambda *a, **kw: calls.append(a[0]) or real_theta(*a, **kw))
        for rb in poisson._hamiltonian_brackets(deltas):
            rb.residual_batch()
        assert calls == [] and len(taken) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hamiltonians_are_independent_in_the_generators(self, n):
        # the n x n matrix dH_i/df_r has full rank at every sampled point, so
        # the n hamiltonians are not functions of fewer; a copy reads as rank-deficient
        alg, _ = poisson._delta_grid(n, CTX)
        at = ex.Evaluator(poisson._phase_space_points(alg, 20, 42), CTX)
        deltas = poisson.delta_jets(n, CTX, at)
        assert deltas[0].is_multiplication()  # so dH_i/df_r = (f_r dDelta_i/df_r) / (f_r Delta_0)
        gens = np.array([at.env[g] for g in alg.gen_names])

        def conditioning(deltas):
            jac = np.array([d.grad[n:] / (gens * deltas[0].value) for d in deltas[1:]])
            s = np.linalg.svd(np.moveaxis(jac, -1, 0), compute_uv=False)  # per point, descending
            return s[:, -1] / s[:, 0]

        assert conditioning(deltas).min() >= 1e-6
        assert conditioning([deltas[0], deltas[1], deltas[1], *deltas[3:]]).max() <= 1e-12

    def test_rows_that_do_not_commute_fail(self, monkeypatch):
        # Row 1's theta entries read z1 + z2/2, and f2 shifts z2, so rows 1
        # and 2 no longer Poisson-commute: the Cartier-Foata hypothesis fails.
        # A defect, not a reparametrization: the oracle's built brackets of
        # the planted H_i do not vanish either, and no change of variables
        # makes commuting functions stop commuting.
        n = 3
        alg, grid = theta_column_grid(n, CTX, PoissonElement)
        row = [grid[0][0]] + [PoissonElement.function(alg, ex.theta_basis_of(j, n, ex.aff("z1", (0.5, "z2"))))
                              for j in range(n)]
        planted = [row, *grid[1:]]
        at = ex.Evaluator(poisson._phase_space_points(alg, 20, 42), CTX)
        assert np.max(np.abs(pbracket(row[1], grid[1][0]).evaluate(at))) > 0.1
        monkeypatch.setattr(poisson, "_delta_grid", lambda *_: (alg, planted))
        assert classical_hamiltonians(n, CTX, seed=42) > 1e3 * 1e-9
        deltas = minors(planted, operator.mul)
        f, h, g = (deltas[i].evaluate(at) for i in (1, 0, 2))
        built = (pbracket(deltas[1], deltas[2]).evaluate(at) - f / h * pbracket(deltas[0], deltas[2]).evaluate(at)
                 - g / h * pbracket(deltas[1], deltas[0]).evaluate(at)) / h ** 2
        assert np.max(np.abs(built)) > 1e3 * 1e-9

    @pytest.mark.parametrize("seed", [42, 7, 2026])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_element_value_is_the_coefficient_times_generator_loop(self, n, seed):
        def loop(element, at):  # the element's value before it was a tree
            terms = []
            for mi, v in zip(element.terms, at.values(element.terms.values())):
                for gi, e in enumerate(mi):
                    if e:
                        v = v * at.env[element.algebra.gen_names[gi]] ** e
                terms.append(v)
            # summed from the first term, as a Sum is: 0 + (-0.0) would read +0.0
            return functools.reduce(operator.add, terms) if terms else 0

        alg, deltas, brackets = symbolic_path(n)
        elements = [*deltas, *brackets.values()]
        env = poisson._phase_space_points(alg, 20, seed)
        for i in range(n + 1):  # {Delta_i, Delta_i} is exactly 0, built and evaluated
            assert np.all(brackets[i, i].evaluate(ex.Evaluator(env, CTX)) == 0)
        for e in elements:
            got, want = e.evaluate(ex.Evaluator(env, CTX)), loop(e, ex.Evaluator(env, CTX))
            assert np.asarray(got, dtype=complex).tobytes() == np.asarray(want, dtype=complex).tobytes()

    def test_phase_space_draw_is_the_scalar_loop_stream(self):
        def scalar_loop(alg, count, seed):  # the generator draw before it was made in bulk
            rng = np.random.default_rng(seed + 0x9E3779B9)
            values = np.empty((len(alg.gen_names), count), dtype=complex)
            for p, gi in np.ndindex(count, len(alg.gen_names)):
                while True:
                    val = complex(rng.random() - 0.5, rng.random() - 0.5)
                    if abs(val) > 0.1:
                        break
                values[gi, p] = val
            return values

        for n in (2, 3, 4):
            alg, _ = classical_delta_elements(n, CTX)
            for seed in range(50):
                env = poisson._phase_space_points(alg, 20, seed)
                drawn = np.array([env[g] for g in alg.gen_names])
                assert drawn.tobytes() == scalar_loop(alg, 20, seed).tobytes()


def theta_leaves(trees):
    """The theta nodes reachable from the trees, one per `Theta._leaf_key`."""
    seen, leaves, stack = set(), {}, list(trees)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ex.Theta):
            leaves.setdefault(node._leaf_key(), node)
        for name in node.__slots__:
            value = getattr(node, name)
            stack.extend(c for c in (value if type(value) is tuple else (value,)) if isinstance(c, ex.MeroExpr))
    return list(leaves.values())


class TestJacobiDelta:
    def test_batch_evaluates_each_distinct_theta_leaf_once(self, monkeypatch):
        batch_points = []
        real = theta_module.theta_value

        def counted(kind, z, ctx, **kw):
            if np.ndim(z):
                batch_points.append(np.size(z))
            return real(kind, z, ctx, **kw)

        monkeypatch.setattr(theta_module, "theta_value", counted)
        jacobi_delta_residual(3, CTX, (1, 2, 3), seed=0, points=8)
        _, elems = _jacobi_delta_terms(3, CTX, (1, 2, 3))
        leaves = theta_leaves(c for e in elems for c in e.terms.values())  # 18 of 972 leaf occurrences
        families = {(t.kind, t.order, t.index, t.deriv) for t in leaves}  # 6, each one stacked call
        assert sum(batch_points) == len(leaves) * 8 > 0
        assert 0 < len(batch_points) <= len(families)

    def test_repeated_index_collapses(self):
        assert jacobi_delta_residual(3, CTX, (1, 1, 2), seed=0, points=4) <= 1e-12

    def test_n3_identity(self):
        assert jacobi_delta_residual(3, CTX, (1, 2, 3), seed=0, points=8) <= 1e-9

    def test_n4_identity(self):
        assert jacobi_delta_residual(4, CTX, (1, 2, 4), seed=0, points=6) <= 1e-9


class TestPsiP:
    def test_p1_is_plain_generator_coefficient(self):
        f = ex.theta_basis_of(0, 3, "w")
        el = psi_p(f, 1, 3, CTX)
        assert list(el.terms) == [(1,)]
        env = {"u1": 0.3 + 0.2j, "e1": 1.0}
        want = ex.evaluate(ex.substitute(f, {"w": ex.aff("u1")}), env, CTX)
        assert abs(el.evaluate(ex.Evaluator(env, CTX)) - want) < 1e-12

    def test_linearity(self):
        f = ex.theta_basis_of(0, 2, "w")
        g = ex.theta_basis_of(1, 2, "w")
        both = psi_p(ex.add(f, g), 2, 2, CTX)
        sep = psi_p(f, 2, 2, CTX) + psi_p(g, 2, 2, CTX)
        env = {"u1": 0.3 + 0.2j, "u2": 0.7 + 0.4j, "e1": 1.2, "e2": 0.8 - 0.1j}
        at = ex.Evaluator(env, CTX)
        assert abs(both.evaluate(at) - sep.evaluate(at)) < 1e-11

    def test_pair_bracket_vanishes(self):
        assert psi2_pair_residual(CTX, seed=0, samples=12) <= 1e-9

    def test_random_linear_combinations(self):
        rng = np.random.default_rng(3)
        basis = [ex.theta_basis_of(i, 2, "w") for i in range(2)]
        for trial in range(3):
            f, g = (ex.add(*(ex.mul(ex.const(c), b) for c, b in zip(rng.normal(size=2), basis)))
                    for _ in range(2))
            a, b = psi_p(f, 2, 2, CTX), psi_p(g, 2, 2, CTX)
            assert pbracket_residual(a, b, samples=10, seed=trial) <= 1e-9


class TestFay:
    def test_coincident_pair_degenerates(self):
        b = 0.3 + 0.2j
        assert fay_residual(0.1 + 0.1j, b, b, 0.6 + 0.4j, CTX) <= ID_TOL

    def test_all_zero_arguments(self):
        # every product contains theta_odd(0) = 0
        assert fay_residual(0, 0, 0, 0, CTX) == 0.0  # 0/0 guarded by the tiny floor

    def test_random_quadruples(self):
        assert fay_sweep(30, 1, CTX) <= 1e-10

    def test_second_tau(self):
        assert fay_sweep(30, 2, ThetaContext(tau=0.3 + 1.1j)) <= 1e-10

    @pytest.mark.parametrize("tau", [0.8j, 0.3 + 1.1j, 0.3j])
    def test_batch_equals_scalar_loop(self, tau):
        # the quadruples of the per-quadruple loop, drawn in its order; array and
        # scalar complex products may round apart in the last bit, and a residual
        # is relative to the largest product, so they agree to a few eps
        ctx = ThetaContext(tau=tau)
        for seed, count in ((1, 1), (2, 30), (42, 100)):
            rng = np.random.default_rng(seed)
            ref = 0.0
            for _ in range(count):
                a, b, c, d = (complex(rng.random(), ctx.tau.imag * rng.random()) for _ in range(4))
                ref = max(ref, fay_residual(a, b, c, d, ctx))
            assert abs(fay_sweep(count, seed, ctx) - ref) <= 8 * np.finfo(float).eps
