"""Poisson layer: bracket axioms, determinant hamiltonians, psi_p, Fay."""

import numpy as np
import pytest

from ellcert import ThetaContext
from ellcert import expr as ex
from ellcert.errors import PoleError
from ellcert.poisson import (
    PoissonElement,
    RatioBracket,
    classical_delta_elements,
    classical_hamiltonians,
    fay_residual,
    fay_sweep,
    jacobi_delta_residual,
    pbracket,
    pbracket_residual,
    psi2_pair_residual,
    psi_p,
)
from ellcert.shiftops import make_Bpn, make_Vn
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
        env = phase_env(alg, np.random.default_rng(0))
        assert abs(got.evaluate(env) - want.evaluate(env)) < 1e-12

    def test_classical_bpn_bracket(self):
        # {e1, u2} = -2 e1 in b_{2,4}
        alg = make_Bpn(2, 4, CTX)
        e1 = PoissonElement.generator(alg, "e1")
        u2 = PoissonElement.function(alg, ex.var("u2"))
        got = pbracket(e1, u2)
        env = phase_env(alg, np.random.default_rng(1))
        assert abs(got.evaluate(env) - (-2) * env["e1"]) < 1e-12

    def test_antisymmetry_and_leibniz(self):
        alg = make_Bpn(2, 3, CTX)
        rng = np.random.default_rng(5)
        for trial in range(20):
            a, b, c = (random_element(alg, rng) for _ in range(3))
            env = phase_env(alg, rng)
            anti = pbracket(a, b).evaluate(env) + pbracket(b, a).evaluate(env)
            assert abs(anti) < 1e-9 * max(1, abs(pbracket(a, b).evaluate(env)))
            lhs = pbracket(a, b * c).evaluate(env)
            rhs = (pbracket(a, b) * c).evaluate(env) + (b * pbracket(a, c)).evaluate(env)
            assert abs(lhs - rhs) <= 1e-9 * max(1, abs(lhs), abs(rhs))

    def test_jacobi_identity_sampled(self):
        alg = make_Bpn(2, 3, CTX)
        rng = np.random.default_rng(7)
        for trial in range(10):
            a, b, c = (random_element(alg, rng) for _ in range(3))
            env = phase_env(alg, rng)
            terms = [
                pbracket(a, pbracket(b, c)).evaluate(env),
                pbracket(b, pbracket(c, a)).evaluate(env),
                pbracket(c, pbracket(a, b)).evaluate(env),
            ]
            assert abs(sum(terms)) <= 1e-8 * max(1, *(abs(t) for t in terms))


class TestRatioBracket:
    def test_unit_denominators_reduce_to_plain_bracket(self):
        alg = make_Vn(2, CTX)
        one = PoissonElement.function(alg, ex.const(1))
        f = PoissonElement.generator(alg, "f1", ex.theta1_of("z1"))
        g = PoissonElement.generator(alg, "f2", ex.var("z2"))
        rb = RatioBracket(f, one, g, one)
        env = phase_env(alg, np.random.default_rng(2))
        assert abs(rb(env) - pbracket(f, g).evaluate(env)) < 1e-10

    def test_constant_ratio_brackets_to_zero(self):
        alg = make_Vn(2, CTX)
        h = PoissonElement.function(alg, ex.theta1_of(ex.aff("z1", "z2")))
        g = PoissonElement.generator(alg, "f1", ex.var("z1"))
        rb = RatioBracket(h, h, g, PoissonElement.function(alg, ex.const(1)))
        env = phase_env(alg, np.random.default_rng(3))
        value, scale = rb.residual_at(env)
        assert abs(value) / scale <= ID_TOL

    def test_quotient_rule(self):
        # {1/h, g} + {h, g} / h^2 = 0
        alg = make_Vn(2, CTX)
        h = PoissonElement.function(alg, ex.theta1_of(ex.aff("z1", (0.5, "z2"))))
        g = PoissonElement.generator(alg, "f2", ex.theta1_of("z2"))
        one = PoissonElement.function(alg, ex.const(1))
        inv_bracket = RatioBracket(one, h, g, one)
        rng = np.random.default_rng(4)
        for _ in range(20):
            env = phase_env(alg, rng)
            hv = h.evaluate(env)
            lhs = inv_bracket(env)
            rhs = -pbracket(h, g).evaluate(env) / hv ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(1, abs(lhs), abs(rhs))

    def test_rejects_non_multiplication_denominator(self):
        alg = make_Vn(2, CTX)
        f = PoissonElement.generator(alg, "f1")
        with pytest.raises(ValueError):
            RatioBracket(f, f, f, f)


class TestHamiltonians:
    @pytest.mark.parametrize("n", [2, 3])
    def test_pairwise_commutation(self, n):
        _, worst = classical_hamiltonians(n, CTX, seed=0, points=8)
        assert worst <= 1e-9

    def test_poled_bracket_raises_instead_of_skipping_points(self, monkeypatch):
        # a residual measured at no point at all must not read as 0.0, a pass
        def poles(self, env):
            raise PoleError("ratio denominator vanishes at a sample point")

        monkeypatch.setattr(RatioBracket, "residual_batch", poles)
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
        for i in range(1, n + 1):
            h = deltas[i].evaluate(env) / deltas[0].evaluate(env)
            hs = deltas[i].evaluate(swapped) / deltas[0].evaluate(swapped)
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
        d_vals = [deltas[i].evaluate(env) for i in range(n + 1)]
        s_vals = [deltas[i].evaluate(scaled_env) for i in range(n + 1)]
        assert abs(s_vals[0] - d_vals[0]) < 1e-12 * max(1, abs(d_vals[0]))
        for i in range(1, n + 1):
            assert abs(s_vals[i] - gscale * d_vals[i]) <= 1e-10 * max(1, abs(d_vals[i]))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                r = (d_vals[i] / d_vals[j])
                rs = (s_vals[i] / s_vals[j])
                assert abs(r - rs) <= ID_TOL * max(1, abs(r))


class TestJacobiDelta:
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
        assert abs(el.evaluate(env) - want) < 1e-12

    def test_linearity(self):
        f = ex.theta_basis_of(0, 2, "w")
        g = ex.theta_basis_of(1, 2, "w")
        both = psi_p(ex.add(f, g), 2, 2, CTX)
        sep = psi_p(f, 2, 2, CTX) + psi_p(g, 2, 2, CTX)
        env = {"u1": 0.3 + 0.2j, "u2": 0.7 + 0.4j, "e1": 1.2, "e2": 0.8 - 0.1j}
        assert abs(both.evaluate(env) - sep.evaluate(env)) < 1e-11

    def test_pair_bracket_vanishes(self):
        assert psi2_pair_residual(CTX, seed=0, samples=12) <= 1e-9

    def test_random_linear_combinations(self):
        rng = np.random.default_rng(3)
        for trial in range(3):
            coeffs = (tuple(rng.normal(size=2)), tuple(rng.normal(size=2)))
            assert psi2_pair_residual(CTX, seed=trial, samples=10, coeffs=coeffs) <= 1e-9


class TestFay:
    def test_coincident_pair_degenerates(self):
        b = 0.3 + 0.2j
        assert fay_residual(0.1 + 0.1j, b, b, 0.6 + 0.4j, CTX) <= ID_TOL

    def test_all_zero_arguments(self):
        # every product contains theta_odd(0) = 0
        t1 = fay_residual(0, 0, 0, 0, CTX)
        assert t1 == 0.0 or t1 < 1e-6  # 0/0 guarded by the tiny floor

    def test_random_quadruples(self):
        assert fay_sweep(30, 1, CTX) <= 1e-10

    def test_second_tau(self):
        assert fay_sweep(30, 2, ThetaContext(tau=0.3 + 1.1j)) <= 1e-10
