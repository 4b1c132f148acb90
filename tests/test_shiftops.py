"""Shift-operator algebra: products, commutators, normal form, instances.

The independent oracle is a closure-based operator model with no pruning and
no coefficient merging: coefficients are plain Python functions composed by
argument translation.
"""

import numpy as np
import pytest

from ellcert import ThetaContext, sampling, shiftops
from ellcert import expr as ex
from ellcert.errors import SingularOperatorError
from ellcert.sampling import box, rel_residual, sample_points, sampled_max
from ellcert.shiftops import (
    ShiftOp,
    ShiftOpBackend,
    commutator_residual,
    invert_multiplication,
    make_Bpn,
    make_algebra,
    make_Btilde,
    make_sos,
    make_Vn,
    op_equal,
    sampled_coefficients,
    shift_mul,
    sum_to_zero_residual,
    theta_column_minors,
)

CTX = ThetaContext()
ID_TOL = 1e-8


# --- closure-based oracle (independent of the expression machinery) ---------

def oracle_mul(alg, A, B):
    """A, B: dict multiindex -> list of callables; naive double sum."""
    out = {}
    for m, Fs in A.items():
        deltas = alg.translation_of(m)
        for k, Gs in B.items():
            mi = tuple(x + y for x, y in zip(m, k))
            lst = out.setdefault(mi, [])
            for F in Fs:
                for G in Gs:
                    lst.append(lambda env, F=F, G=G, d=dict(deltas):
                               F(env) * G({v: val + d.get(v, 0) for v, val in env.items()}))
    return out


def to_oracle(op):
    """Lower a ShiftOp to closure form through scalar evaluation."""
    return {mi: [lambda env, c=c: ex.evaluate(c, env, CTX)] for mi, c in op.terms.items()}


def oracle_value(O, mi, env):
    return sum(F(env) for F in O.get(mi, []))


class TestBasics:
    def test_unit_is_two_sided(self):
        alg = make_Vn(2, CTX)
        one = ShiftOp.function(alg, 1)
        a = ShiftOp.generator(alg, "f1", ex.theta1_of("z1")) + ShiftOp.function(alg, ex.var("z2"))
        for prod in (shift_mul(one, a), shift_mul(a, one)):
            assert op_equal(prod, a, samples=8, seed=1) <= ID_TOL

    def test_vn_defining_relation(self):
        # f1 * z1 = (z1 - n*eta) * f1 with n = 3
        n = 3
        alg = make_Vn(n, CTX)
        f1 = ShiftOp.generator(alg, "f1")
        z1 = ShiftOp.function(alg, ex.var("z1"))
        lhs = shift_mul(f1, z1)
        rhs = ShiftOp.generator(alg, "f1", ex.var("z1") - ex.const(n * CTX.eta))
        assert list(lhs.terms) == [(1, 0, 0)]
        assert op_equal(lhs, rhs, samples=8, seed=2) <= ID_TOL

    def test_grading_is_structural(self):
        alg = make_Bpn(2, 4, CTX)
        a = ShiftOp(alg, {(2, 1): ex.theta1_of("u1")})
        b = ShiftOp(alg, {(0, 3): ex.var("u2")})
        prod = shift_mul(a, b)
        assert set(prod.terms) == {(2, 4)}

    def test_associativity_against_reassociation(self):
        alg = make_Bpn(2, 3, CTX)
        rng = np.random.default_rng(4)
        for trial in range(10):
            ops = []
            for _ in range(3):
                t1 = ShiftOp(alg, {tuple(rng.integers(0, 2, size=2)):
                                   ex.theta1_of(ex.aff("u1", const=rng.random()))})
                t2 = ShiftOp(alg, {tuple(rng.integers(0, 2, size=2)):
                                   ex.exp2pii(ex.aff("u2", const=rng.random()))})
                ops.append(t1 + t2)
            a, b, c = ops
            left = shift_mul(shift_mul(a, b), c)
            right = shift_mul(a, shift_mul(b, c))
            assert op_equal(left, right, samples=20, seed=trial) <= ID_TOL

    def test_mul_against_naive_double_sum_oracle(self):
        # Normal-form soundness: pruning and merging change nothing.
        alg = make_Bpn(2, 4, CTX)
        rng = np.random.default_rng(7)
        pts = sample_points(6, alg.var_names, 3, CTX)
        for trial in range(20):
            a = (ShiftOp(alg, {tuple(rng.integers(0, 3, size=2)):
                               ex.theta1_of(ex.aff("u1", const=rng.random()))})
                 + ShiftOp(alg, {tuple(rng.integers(0, 3, size=2)):
                                 ex.var("u1") * ex.var("u2")}))
            b = (ShiftOp(alg, {tuple(rng.integers(0, 3, size=2)):
                               ex.exp2pii(ex.aff("u1", (0.5, "u2")))})
                 + ShiftOp(alg, {tuple(rng.integers(0, 3, size=2)):
                                 ex.const(rng.normal()) + ex.var("u2")}))
            got = shift_mul(a, b)
            want = oracle_mul(alg, to_oracle(a), to_oracle(b))
            keys = set(got.terms) | set(want)
            for mi in keys:
                for env in pts:
                    g = ex.evaluate(got.terms.get(mi, ex.const(0)), env, CTX)
                    w = oracle_value(want, mi, env)
                    assert abs(g - w) <= ID_TOL * max(1, abs(g), abs(w))


class TestCommutators:
    def test_self_commutator_is_structurally_zero(self):
        alg = make_Vn(2, CTX)
        a = ShiftOp.generator(alg, "f1", ex.theta1_of("z1")) + ShiftOp(alg, {(0, 2): ex.var("z2")})
        assert op_equal(a * a, a * a, samples=8, seed=0) == 0.0  # two builds of one tree, sampled alike

    def test_coordinate_functions_commute(self):
        alg = make_Vn(3, CTX)
        zi = ShiftOp.function(alg, ex.var("z1"))
        zj = ShiftOp.function(alg, ex.var("z2"))
        assert commutator_residual(zi, zj, samples=8, seed=0) == 0.0

    def test_fi_zj_commute_for_distinct_indices(self):
        alg = make_Vn(3, CTX)
        f1 = ShiftOp.generator(alg, "f1")
        z2 = ShiftOp.function(alg, ex.var("z2"))
        assert commutator_residual(f1, z2, samples=8, seed=0) == 0.0

    def test_commutator_residual_detects_violation(self):
        # f1 and z1 genuinely do not commute.
        alg = make_Vn(2, CTX)
        f1 = ShiftOp.generator(alg, "f1")
        z1 = ShiftOp.function(alg, ex.var("z1"))
        assert commutator_residual(f1, z1, samples=8, seed=0) > 1e-3


class TestOpEqual:
    def test_identical_operator(self):
        alg = make_Vn(2, CTX)
        a = ShiftOp.generator(alg, "f2", ex.theta1_of("z2"))
        assert op_equal(a, a, samples=8, seed=0) == 0.0

    def test_sensitivity_to_small_perturbation(self):
        alg = make_Vn(2, CTX)
        a = ShiftOp.function(alg, ex.theta1_of("z1"))
        b = ShiftOp.function(alg, ex.theta1_of("z1") + ex.const(1e-6))
        r = op_equal(a, b, samples=20, seed=1)
        assert 1e-7 < r < 1e-5

    def test_equivalent_expression_trees(self):
        # theta(z+1) and theta(z) are different trees for the same function.
        alg = make_Vn(2, CTX)
        a = ShiftOp.function(alg, ex.theta1_of(ex.aff("z1", const=1)))
        b = ShiftOp.function(alg, ex.theta1_of("z1"))
        assert op_equal(a, b, samples=20, seed=2) <= ID_TOL


class TestPoledBatchIsDiscarded:
    """A batch where a coefficient poles is redrawn whole, so nothing measured
    on it may reach the result.  With samples=1, batch 0 is the point p1
    (seed 0) and batch 1 the point p2 (seed 0 + 7919)."""

    @staticmethod
    def _operators():
        alg = make_Vn(2, CTX)
        p1 = sample_points(1, alg.var_names, 0, CTX)[0]["z1"]
        p2 = sample_points(1, alg.var_names, 7919, CTX)[0]["z1"]
        z1 = ex.var("z1")
        # f1: z1 - p2 is |p1 - p2| at batch 0 and exactly 0 at batch 1;
        # f2: poles at batch 0 and is exactly 0 at batch 1.
        gap = ShiftOp.generator(alg, "f1", z1 - ex.const(p2))
        poled = ShiftOp.generator(alg, "f2", (z1 - ex.const(p2)) / (z1 - ex.const(p1)))
        return alg, gap + poled, poled

    def test_op_equal(self):
        _, both, poled = self._operators()
        assert op_equal(both, poled, samples=1, seed=0) == 0.0

    def test_sum_to_zero_residual(self):
        _, both, poled = self._operators()
        assert sum_to_zero_residual([both, -poled], samples=1, seed=0) == 0.0

    def test_backend_norm(self):
        alg, both, _ = self._operators()
        assert ShiftOpBackend(alg, norm_samples=1, seed=0).norm(both) == 0.0


class TestInstances:
    def test_vn_shift_matrix(self):
        alg = make_Vn(1, CTX)
        assert alg.steps == ((-1,),)
        assert alg.translation_of((1,)) == {"z1": -CTX.eta}

    def test_bpn_shift_matrix(self):
        alg = make_Bpn(2, 4, CTX)
        assert alg.steps == ((2, -2), (-2, 2))
        assert alg.translation_of((1, 0)) == {"u1": 2 * CTX.eta, "u2": -2 * CTX.eta}

    def test_btilde_layout(self):
        alg = make_Btilde((2, 2), CTX)  # n = 3
        assert len([v for v in alg.var_names if v.startswith("z")]) == 4
        assert len([v for v in alg.var_names if v.startswith("t")]) == 1
        assert len([g for g in alg.gen_names if g.startswith("e")]) == 4
        assert len([g for g in alg.gen_names if g.startswith("f")]) == 1
        # e_{1,1} shifts z_{2,1} by -3*eta and nothing else
        row = alg.steps[alg.gen_names.index("e1_1")]
        nz = {alg.var_names[i]: s for i, s in enumerate(row) if s != 0}
        assert nz == {"z2_1": -3}
        # f_1 shifts t_1 by -3*eta
        row = alg.steps[alg.gen_names.index("f1")]
        nz = {alg.var_names[i]: s for i, s in enumerate(row) if s != 0}
        assert nz == {"t1": -3}

    def test_btilde_own_variable_commutes_exactly(self):
        alg = make_Btilde((2, 2), CTX)
        e11 = ShiftOp.generator(alg, "e1_1")
        z11 = ShiftOp.function(alg, ex.var("z1_1"))
        assert commutator_residual(e11, z11, samples=8, seed=0) == 0.0

    def test_sos_generators(self):
        alg = make_sos(2, CTX)
        assert alg.gen_names == ("Tp1", "Tp2", "Tm1", "Tm2")
        assert alg.translation_of((1, 0, 0, 0)) == {"z1": 2 * CTX.eta}
        assert alg.translation_of((0, 0, 0, 1)) == {"z2": -2 * CTX.eta}

    def test_rejects_non_integer_steps(self):
        with pytest.raises(ValueError):
            make_algebra(["z1"], ["f1"], [[0.5]], CTX)


class TestExponents:
    def test_repeated_name_counts(self):
        alg = make_Bpn(3, 6, CTX)
        assert alg.exponents() == (0, 0, 0)
        assert alg.exponents("e2") == (0, 1, 0)
        assert alg.exponents("e2", "e1", "e2", "e3", "e2") == (1, 3, 1)

    def test_unknown_name_raises(self):
        alg = make_Vn(2, CTX)
        with pytest.raises(ValueError):
            alg.exponents("f1", "f3")
        with pytest.raises(ValueError):
            ShiftOp.generator(alg, "e1")


class TestThetaColumnMinors:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quantum_and_classical_grids_agree_on_monomials(self, n):
        # the one grid gives Delta_0 .. Delta_n over both term maps: the same
        # generator monomials, with only the product of the coefficients differing
        from ellcert.poisson import PoissonElement
        alg, quantum = theta_column_minors(n, CTX, ShiftOp)
        _, classical = theta_column_minors(n, CTX, PoissonElement)
        assert len(quantum) == len(classical) == n + 1
        assert [set(d.terms) for d in quantum] == [set(d.terms) for d in classical]
        # Delta_0 deletes the generator column; every other Delta_i is linear in the f's
        assert quantum[0].is_multiplication()
        assert all({sum(mi) for mi in d.terms} == {1} for d in quantum[1:])


class TestInversion:
    def test_multiplication_inverse(self):
        alg = make_Vn(2, CTX)
        d = ShiftOp.function(alg, ex.theta1_of(ex.aff("z1", "z2")))
        prod = shift_mul(invert_multiplication(d), d)
        assert op_equal(prod, ShiftOp.function(alg, 1), samples=10, seed=3) <= ID_TOL

    def test_generator_not_invertible(self):
        alg = make_Vn(2, CTX)
        with pytest.raises(SingularOperatorError):
            invert_multiplication(ShiftOp.generator(alg, "f1"))


def sampled_product_gap(pairs, samples=12, seed=0):
    """Largest |sampled (a*b)_mi - built (a*b)_mi| / max(1, |built|) over the
    pairs (a, b), their multi-indices and a batch of box points; the built
    coefficient is shift_mul(a, b).terms[mi] through a fresh Evaluator."""
    built = [shift_mul(a, b) for a, b in pairs]
    alg = pairs[0][0].algebra

    def measure(at):
        worst = 0.0
        for got, prod in zip(sampled_coefficients(pairs, at), built):
            assert got.keys() == prod.terms.keys()
            fresh = ex.Evaluator(at.env, CTX)
            for mi, coeff in prod.terms.items():
                want = fresh(coeff)
                worst = max(worst, rel_residual(got[mi] - want, want))
        return worst

    return sampled_max(measure, box(samples, alg.var_names, CTX), seed, CTX)


class TestSampledProduct:
    """A factor pair (a, b) is a*b sampled without building it: it must match
    the built product's coefficients to rounding, multi-index by multi-index."""

    U, V = 0.31 + 0.11j, 0.73 + 0.29j
    TOL = 1e-11

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_transfer(self, n):
        from ellcert.transfer import build_T
        a, b = build_T(self.U, n, CTX), build_T(self.V, n, CTX)
        assert sampled_product_gap([(a, b), (b, a)]) <= self.TOL

    @pytest.mark.parametrize("n", [2, 3])
    def test_face_model(self, n):
        from ellcert.transfer import build_sos_Taux
        a, b = build_sos_Taux(self.U, n, CTX), build_sos_Taux(self.V, n, CTX)
        assert sampled_product_gap([(a, b), (b, a)]) <= self.TOL

    @pytest.mark.parametrize("p_list", [(2, 2), (2, 1, 2)])
    def test_chain(self, p_list):
        from ellcert.transfer import build_T_tilde
        a, b = build_T_tilde(self.U, p_list, CTX), build_T_tilde(self.V, p_list, CTX)
        assert sampled_product_gap([(a, b), (b, a)]) <= self.TOL

    @pytest.mark.parametrize("m", [2, 3])
    def test_degree_m_family(self, m):
        from ellcert.starprod import build_fu_bosonized
        a, b = (build_fu_bosonized(u, m, 0.23 + 0.07j, 0.41 + 0.13j, CTX) for u in (self.U, self.V))
        assert sampled_product_gap([(a, b), (b, a)]) <= self.TOL

    def test_bosonized_generators(self):
        # every phi_2(x_a) phi_2(x_b) at n = 4, the right factors sharing one shifted batch
        from ellcert.starprod import phi_p, theta_gen
        phis = [phi_p(theta_gen(a, 4, CTX), 2, CTX) for a in range(4)]
        assert sampled_product_gap([(x, y) for x in phis for y in phis]) <= self.TOL

    def test_left_factors_with_different_monomials(self):
        # f1 * (z1 f2) and (z1 f2) * f1: the two pairs need two shifted batches
        alg = make_Vn(2, CTX)
        f1 = ShiftOp.generator(alg, "f1", ex.theta1_of("z2"))
        z1f2 = ShiftOp.generator(alg, "f2", ex.var("z1")) + ShiftOp.function(alg, ex.theta1_of("z1"))
        assert sampled_product_gap([(f1, z1f2), (z1f2, f1), (z1f2, z1f2)]) <= self.TOL

    def test_constant_right_factor(self):
        alg = make_Vn(2, CTX)
        a = ShiftOp.generator(alg, "f1", ex.theta1_of("z1")) + ShiftOp.generator(alg, "f2", ex.var("z2"))
        b = ShiftOp.generator(alg, "f2", 3) + ShiftOp.function(alg, 2)
        assert sampled_product_gap([(a, b)]) <= self.TOL

    def test_pair_part_poles_and_redraws(self, monkeypatch):
        # b's coefficient poles at batch 0 only in a's shifted row, not at the
        # drawn point itself, so only the sampled right factor can send the batch back
        alg = make_Vn(1, CTX)
        p1 = sample_points(1, alg.var_names, 0, CTX)[0]["z1"]
        shifted = p1 + alg.translation_of(alg.exponents("f1"))["z1"]
        a = ShiftOp.generator(alg, "f1")
        b = ShiftOp.function(alg, ex.quot(ex.const(1), ex.var("z1") - ex.const(shifted)))
        draws = []

        def recorded(measure, draw, seed, ctx):
            return sampled_max(measure, lambda s: draws.append(s) or draw(s), seed, ctx)

        monkeypatch.setattr(sampling, "sampled_max", recorded)  # the loop of relation_max
        assert sum_to_zero_residual([(a, b), (a, b)], samples=1, seed=0, relations=[[1, -1]]) == 0.0
        assert draws == [0, 7919]


class TestRowSkip:
    """A right factor's theta leaf is evaluated only on the shifted rows that
    move one of its variables; the other rows read the batch's own value."""

    def test_transfer_batch_points_and_bits(self, monkeypatch):
        # n = 4: a's monomials f_1..f_4 are four rows, row r shifting z_r only
        from ellcert.transfer import build_T
        a, b = build_T("_u", 4, CTX), build_T("_v", 4, CTX)
        box_draw = box(20, a.algebra.var_names, CTX)
        draw = lambda s: {**box_draw(s), "_u": np.full(20, 0.31 + 0.11j), "_v": np.full(20, 0.73 + 0.29j)}
        points, made = [], []
        real_theta, real_evaluator = ex._theta.theta_value, ex.Evaluator

        class Recorded(real_evaluator):
            __slots__ = ()

            def __init__(self, env, ctx, base=None):
                super().__init__(env, ctx, base)
                made.append(self)

        monkeypatch.setattr(ex._theta, "theta_value",
                            lambda kind, z, ctx, **kw: points.append(np.size(z)) or real_theta(kind, z, ctx, **kw))
        monkeypatch.setattr(ex, "Evaluator", Recorded)
        sampled_coefficients([(a, b), (b, a)], Recorded(draw(42), CTX))
        # 29 distinct leaves of a and b at the 20 drawn points; b's 21 leaves
        # on the rows that move them (theta(v + sum_{c != a} z_c) 3 of 4,
        # theta(v - z_c) 1, theta(z_a - z_c) 2, theta(z_1 + ... + z_4) 4: 44
        # rows, not 84); a's 8 leaves that b lacks on 16 rows
        assert points == [29 * 20, 44 * 20, 16 * 20]
        (shifted,) = [ev for ev in made if ev._base is not None]
        alone = real_evaluator(shifted.env, CTX)
        for (kind, order, index, deriv, const, coeffs), value in shifted._leaves.items():
            leaf = ex.Theta(kind, ex.Affine(dict(coeffs), const), order, index, deriv)
            assert np.array_equal(value, alone(leaf))
