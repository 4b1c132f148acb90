"""Transfer operators: Vandermonde determinant, T(u), chain and face models."""

import numpy as np
import pytest

from ellcert import ThetaContext, theta1, theta_basis
from ellcert import expr as ex
from ellcert.transfer import (
    build_sos_Taux,
    build_T,
    build_T_tilde,
    btilde_family,
    sos_family,
    sos_vs_T_coefficient_ratio,
    transfer_commutator_residual,
    transfer_det_consistency_residual,
    vn_family,
)

CTX = ThetaContext()
ID_TOL = 1e-8


def theta_vandermonde_det(zs, ctx):
    """det[theta_j(z_i)] over the order-n basis, n = len(zs)."""
    n = len(zs)
    A = np.array([[theta_basis(j, z, ctx, n=n) for j in range(n)] for z in zs])
    return complex(np.linalg.det(A))


def vandermonde_product(zs, ctx):
    p = theta1(sum(zs), ctx)
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            p *= theta1(zs[i] - zs[j], ctx)
    return p


def vandermonde_ratio_residual(n, ctx, seed=0, pairs=10):
    """Is det / (prod theta(z_i - z_j) * theta(sum z)) an exponential of an
    affine function?  R(z + delta e_k) / R(z) must not depend on the base z.

    The constant and the affine weights are basis-dependent and not asserted.
    """
    rng = np.random.default_rng(seed)
    delta = 0.07 + 0.013j
    worst = 0.0
    for k in range(n):
        ratios = []
        trials = 0
        while len(ratios) < pairs and trials < 50 * pairs:
            trials += 1
            zs = [complex(rng.random(), ctx.tau.imag * rng.random()) for _ in range(n)]
            base = vandermonde_product(zs, ctx)
            if abs(base) < 1e-3:
                continue
            r0 = theta_vandermonde_det(zs, ctx) / base
            zs2 = list(zs)
            zs2[k] += delta
            base2 = vandermonde_product(zs2, ctx)
            if abs(base2) < 1e-3:
                continue
            ratios.append((theta_vandermonde_det(zs2, ctx) / base2) / r0)
        for r in ratios[1:]:
            worst = max(worst, abs(r / ratios[0] - 1))
    return worst


def vandermonde_zero_residual(n, ctx, seed=0, configs=50):
    """Vanishing on the product formula's zero loci: coincident points and
    lattice-valued coordinate sums."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(configs):
        zs = [complex(rng.random(), ctx.tau.imag * rng.random()) for _ in range(n)]
        if trial % 2 == 0:
            i, j = rng.choice(n, size=2, replace=False)
            zs[i] = zs[j]
        else:
            zs[0] = -sum(zs[1:]) + rng.integers(-1, 2) + rng.integers(-1, 2) * ctx.tau
        scale = max(1.0, *(abs(theta_basis(j2, z, ctx, n=n)) for j2 in range(n) for z in zs)) ** n
        worst = max(worst, abs(theta_vandermonde_det(zs, ctx)) / scale)
    return worst


def boxpt(rng):
    return complex(rng.random(), CTX.tau.imag * rng.random())


class TestVandermonde:
    def test_repeated_rows_vanish(self):
        rng = np.random.default_rng(0)
        zs = [boxpt(rng) for _ in range(3)]
        zs[1] = zs[0]
        scale = max(1.0, *(abs(theta_basis(j, z, CTX, n=3)) for j in range(3) for z in zs))
        assert abs(theta_vandermonde_det(zs, CTX)) <= ID_TOL * scale ** 3

    def test_lattice_sum_vanishes(self):
        rng = np.random.default_rng(1)
        zs = [boxpt(rng) for _ in range(3)]
        zs[0] = 1 + CTX.tau - zs[1] - zs[2]
        scale = max(1.0, *(abs(theta_basis(j, z, CTX, n=3)) for j in range(3) for z in zs))
        assert abs(theta_vandermonde_det(zs, CTX)) <= ID_TOL * scale ** 3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ratio_is_exponential_affine(self, n):
        assert vandermonde_ratio_residual(n, CTX, seed=0, pairs=6) <= ID_TOL

    def test_zero_loci_sweep(self):
        assert vandermonde_zero_residual(3, CTX, seed=2, configs=50) <= ID_TOL


class TestBuildT:
    def test_n2_coefficient_formula(self):
        u = 0.37 + 0.21j
        T = build_T(u, 2, CTX)
        rng = np.random.default_rng(3)
        for _ in range(5):
            z1, z2 = boxpt(rng), boxpt(rng)
            want = (theta1(u + z2, CTX) * theta1(u - z2, CTX)
                    / (theta1(z1 - z2, CTX) * theta1(z1 + z2, CTX)))
            got = ex.evaluate(T.terms[(1, 0)], {"z1": z1, "z2": z2}, CTX)
            assert abs(got - want) <= 1e-10 * max(1, abs(want))

    def test_degree_homogeneous(self):
        T = build_T(0.3 + 0.2j, 4, CTX)
        assert T.degrees() == {1}
        assert len(T.terms) == 4

    @pytest.mark.parametrize("n", [2, 3])
    def test_det_consistency(self, n):
        assert transfer_det_consistency_residual(0.41 + 0.13j, n, CTX, samples=10, seed=0) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutation(self, n):
        fam = vn_family(n, CTX)
        assert transfer_commutator_residual(fam, 0.31 + 0.11j, 0.73 + 0.29j,
                                            samples=12, seed=0) <= 1e-8

    def test_operator_arithmetic_evaluates_nothing(self, monkeypatch):
        # sums, negation and products of operators are exact: no coefficient is sampled
        from ellcert.shiftops import shift_mul
        calls = []
        evaluate = ex.evaluate
        monkeypatch.setattr(ex, "evaluate", lambda *args: calls.append(args) or evaluate(*args))
        T, S = build_T(0.3 + 0.1j, 3, CTX), build_T(0.7 + 0.2j, 3, CTX)
        ops = [T + S, -T, T - T, shift_mul(T, S), shift_mul(S, T) - shift_mul(T, S)]
        assert calls == []
        assert ops[2].is_zero() and not ops[4].is_zero()

    def test_equal_parameters_structurally_zero(self):
        from ellcert.shiftops import shift_commutator
        T = build_T(0.3 + 0.1j, 2, CTX)
        assert shift_commutator(T, T).is_zero()


class TestTTilde:
    def test_n2_single_term_structure(self):
        op = build_T_tilde(0.3 + 0.2j, (1,), CTX)
        assert list(op.terms) == [(1,)]
        u = 0.3 + 0.2j
        rng = np.random.default_rng(5)
        z = boxpt(rng)
        got = ex.evaluate(op.terms[(1,)], {"z1_1": z}, CTX)
        want = theta1(u - z, CTX) * theta1(u + z, CTX)
        assert abs(got - want) <= 1e-10 * max(1, abs(want))

    def test_n3_term_structure(self):
        op = build_T_tilde(0.3 + 0.2j, (2, 2), CTX)
        assert len(op.terms) == 4
        assert op.degrees() == {3}  # e-layer 1, e-layer 2, one f
        alg = op.algebra
        fidx = alg.gen_index("f1")
        assert all(mi[fidx] == 1 for mi in op.terms)

    def test_t_coupling_present(self):
        op = build_T_tilde(0.3 + 0.2j, (2, 2), CTX)
        assert any("t1" in ex.free_vars(c) for c in op.terms.values())

    def test_commutation(self):
        fam = btilde_family((2, 2), CTX)
        assert transfer_commutator_residual(fam, 0.29 + 0.17j, 0.61 + 0.37j,
                                            samples=10, seed=0) <= 1e-7


class TestSos:
    def test_n2_term_structure(self):
        op = build_sos_Taux(0.3 + 0.2j, 2, CTX)
        assert len(op.terms) == 4
        assert op.degrees() == {1}

    def test_up_down_split_is_structural(self):
        op = build_sos_Taux(0.3 + 0.2j, 3, CTX)
        alg = op.algebra
        up = {mi: c for mi, c in op.terms.items()
              if any(mi[alg.gen_index(f"Tp{i}")] for i in range(1, 4))}
        down = {mi: c for mi, c in op.terms.items()
                if any(mi[alg.gen_index(f"Tm{i}")] for i in range(1, 4))}
        assert len(up) == 3 and len(down) == 3
        assert set(up) | set(down) == set(op.terms)

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutation(self, n):
        fam = sos_family(n, CTX)
        assert transfer_commutator_residual(fam, 0.33 + 0.19j, 0.67 + 0.41j,
                                            samples=10, seed=0) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_coefficient_ratio_spread(self, n):
        assert sos_vs_T_coefficient_ratio(0.37 + 0.23j, n, CTX, samples=8, seed=0) <= 1e-8

    def test_ratio_detects_perturbed_kernel(self):
        # Sensitivity: a perturbed eta in the generator-defining factor must
        # show up if it were wrongly kept inside the compared coefficient.
        # Here: perturbing the spectral parameter between the two sides.
        u = 0.37 + 0.23j
        r_match = sos_vs_T_coefficient_ratio(u, 2, CTX, samples=6, seed=1)
        # evaluate the mismatch by comparing u against u + 0.01 indirectly:
        # the ratio of kernels at different u is z-dependent.
        from ellcert.sampling import sample_points, stack_assignments
        import ellcert.expr as exx
        names = ["z1", "z2"]
        pts = sample_points(6, names, [], 3, CTX)
        stacked = stack_assignments(pts)
        k1 = exx.theta_odd_of(exx.aff((-1, "z2"), const=u))
        k2 = exx.theta_odd_of(exx.aff((-1, "z2"), const=u + 0.01))
        vals = np.asarray(exx.evaluate(k1, stacked, CTX)) / np.asarray(exx.evaluate(k2, stacked, CTX))
        spread = float(np.max(np.abs(vals / vals.flat[0] - 1)))
        assert r_match <= 1e-8 < spread
