"""Shift-operator algebra: products, commutators, normal form, instances.

The independent oracle is a closure-based operator model with no pruning and
no coefficient merging: coefficients are plain Python functions composed by
argument translation.
"""

import numpy as np
import pytest

from ellcert import ThetaContext
from ellcert import expr as ex
from ellcert.errors import SingularOperatorError
from ellcert.sampling import sample_points
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
    shift_commutator,
    shift_mul,
    sum_to_zero_residual,
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
        one = ShiftOp.one(alg)
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
        a = ShiftOp.monomial(alg, (2, 1), ex.theta1_of("u1"))
        b = ShiftOp.monomial(alg, (0, 3), ex.var("u2"))
        prod = shift_mul(a, b)
        assert set(prod.terms) == {(2, 4)}

    def test_associativity_against_reassociation(self):
        alg = make_Bpn(2, 3, CTX)
        rng = np.random.default_rng(4)
        for trial in range(10):
            ops = []
            for _ in range(3):
                t1 = ShiftOp.monomial(alg, tuple(rng.integers(0, 2, size=2)),
                                      ex.theta1_of(ex.aff("u1", const=rng.random())))
                t2 = ShiftOp.monomial(alg, tuple(rng.integers(0, 2, size=2)),
                                      ex.exp2pii(ex.aff("u2", const=rng.random())))
                ops.append(t1 + t2)
            a, b, c = ops
            left = shift_mul(shift_mul(a, b), c)
            right = shift_mul(a, shift_mul(b, c))
            assert op_equal(left, right, samples=20, seed=trial) <= ID_TOL

    def test_mul_against_naive_double_sum_oracle(self):
        # Normal-form soundness: pruning and merging change nothing.
        alg = make_Bpn(2, 4, CTX)
        rng = np.random.default_rng(7)
        pts = sample_points(6, alg.var_names, [], 3, CTX)
        for trial in range(20):
            a = (ShiftOp.monomial(alg, tuple(rng.integers(0, 3, size=2)),
                                  ex.theta1_of(ex.aff("u1", const=rng.random())))
                 + ShiftOp.monomial(alg, tuple(rng.integers(0, 3, size=2)),
                                    ex.var("u1") * ex.var("u2")))
            b = (ShiftOp.monomial(alg, tuple(rng.integers(0, 3, size=2)),
                                  ex.exp2pii(ex.aff("u1", (0.5, "u2"))))
                 + ShiftOp.monomial(alg, tuple(rng.integers(0, 3, size=2)),
                                    ex.const(rng.normal()) + ex.var("u2")))
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
        a = ShiftOp.generator(alg, "f1", ex.theta1_of("z1")) + ShiftOp.monomial(alg, (0, 2), ex.var("z2"))
        assert shift_commutator(a, a).is_zero()

    def test_coordinate_functions_commute(self):
        alg = make_Vn(3, CTX)
        zi = ShiftOp.function(alg, ex.var("z1"))
        zj = ShiftOp.function(alg, ex.var("z2"))
        assert shift_commutator(zi, zj).is_zero()

    def test_fi_zj_commute_for_distinct_indices(self):
        alg = make_Vn(3, CTX)
        f1 = ShiftOp.generator(alg, "f1")
        z2 = ShiftOp.function(alg, ex.var("z2"))
        assert shift_commutator(f1, z2).is_zero()

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
        p1 = sample_points(1, alg.var_names, [], 0, CTX)[0]["z1"]
        p2 = sample_points(1, alg.var_names, [], 7919, CTX)[0]["z1"]
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
        row = alg.steps[alg.gen_index("e1_1")]
        nz = {alg.var_names[i]: s for i, s in enumerate(row) if s != 0}
        assert nz == {"z2_1": -3}
        # f_1 shifts t_1 by -3*eta
        row = alg.steps[alg.gen_index("f1")]
        nz = {alg.var_names[i]: s for i, s in enumerate(row) if s != 0}
        assert nz == {"t1": -3}

    def test_btilde_own_variable_commutes_exactly(self):
        alg = make_Btilde((2, 2), CTX)
        e11 = ShiftOp.generator(alg, "e1_1")
        z11 = ShiftOp.function(alg, ex.var("z1_1"))
        assert shift_commutator(e11, z11).is_zero()

    def test_sos_generators(self):
        alg = make_sos(2, CTX)
        assert alg.gen_names == ("Tp1", "Tp2", "Tm1", "Tm2")
        assert alg.translation_of((1, 0, 0, 0)) == {"z1": 2 * CTX.eta}
        assert alg.translation_of((0, 0, 0, 1)) == {"z2": -2 * CTX.eta}

    def test_rejects_non_integer_steps(self):
        with pytest.raises(ValueError):
            make_algebra(["z1"], ["f1"], [[0.5]], CTX)


class TestInversion:
    def test_multiplication_inverse(self):
        alg = make_Vn(2, CTX)
        d = ShiftOp.function(alg, ex.theta1_of(ex.aff("z1", "z2")))
        prod = shift_mul(invert_multiplication(d), d)
        assert op_equal(prod, ShiftOp.one(alg), samples=10, seed=3) <= ID_TOL

    def test_generator_not_invertible(self):
        alg = make_Vn(2, CTX)
        with pytest.raises(SingularOperatorError):
            invert_multiplication(ShiftOp.generator(alg, "f1"))
