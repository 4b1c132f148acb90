"""Transfer operators: Vandermonde determinant, T(u), chain and face models."""

import numpy as np
import pytest

from ellcert import ThetaContext, sampling, theta1, theta_basis
from ellcert import expr as ex
from ellcert.checks import REGISTRY, _spectral_points
from ellcert.sampling import box
from ellcert.shiftops import ShiftOp, commutator_residual, op_equal
from ellcert.starprod import build_fu_bosonized, fu_constants
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
        assert {sum(mi) for mi in T.terms} == {1}
        assert len(T.terms) == 4

    @pytest.mark.parametrize("n", [2, 3])
    def test_det_consistency(self, n):
        assert transfer_det_consistency_residual(0.41 + 0.13j, n, CTX, samples=10, seed=0) <= 1e-8

    @pytest.mark.parametrize("side", ["T", "Delta0"])
    def test_det_consistency_fails_a_scaled_side(self, side, monkeypatch):
        # Delta_0 T(u) = sum_j (-1)^j theta_j(u) Delta_{j+1} holds with no
        # constant to measure, so either side scaled by 2 fails by far
        from ellcert import transfer
        if side == "T":
            real_T = transfer.build_T
            monkeypatch.setattr(transfer, "build_T", lambda *args: real_T(*args).scaled(2))
        else:
            real_minors = transfer.theta_column_minors

            def scaled_minors(*args):
                alg, deltas = real_minors(*args)
                return alg, [deltas[0].scaled(2), *deltas[1:]]

            monkeypatch.setattr(transfer, "theta_column_minors", scaled_minors)
        assert REGISTRY["transfer-det"]({}, 42) > 1e3 * 1e-8

    def test_det_consistency_at_large_im_tau(self):
        assert REGISTRY["transfer-det"]({"n": "2,3,4", "tau": "3j"}, 42) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutation(self, n):
        fam = vn_family(n, CTX)
        assert transfer_commutator_residual(fam, [(0.31 + 0.11j, 0.73 + 0.29j)],
                                            samples=12, seed=0) <= 1e-8

    def test_operator_arithmetic_evaluates_nothing(self, monkeypatch):
        # sums, negation and products of operators build trees: no coefficient is sampled
        from ellcert.shiftops import shift_mul
        calls = []
        evaluate = ex.evaluate
        monkeypatch.setattr(ex, "evaluate", lambda *args: calls.append(args) or evaluate(*args))
        T, S = build_T(0.3 + 0.1j, 3, CTX), build_T(0.7 + 0.2j, 3, CTX)
        ops = [T + S, -T, T - T, shift_mul(T, S), shift_mul(S, T) - shift_mul(T, S)]
        assert calls == []
        assert op_equal(ops[2], ShiftOp.zero(T.algebra), samples=8, seed=0) == 0.0  # T - T

    def test_equal_parameters_structurally_zero(self):
        T = build_T(0.3 + 0.1j, 2, CTX)
        assert commutator_residual(T, T, samples=8, seed=0) == 0.0


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
        assert {sum(mi) for mi in op.terms} == {3}  # e-layer 1, e-layer 2, one f
        alg = op.algebra
        assert all(mi[alg.gen_names.index("f1")] == 1 for mi in op.terms)

    def test_t_coupling_present(self):
        op = build_T_tilde(0.3 + 0.2j, (2, 2), CTX)
        assert any("t1" in ex.free_vars(c) for c in op.terms.values())

    def test_commutation(self):
        fam = btilde_family((2, 2), CTX)
        assert transfer_commutator_residual(fam, [(0.29 + 0.17j, 0.61 + 0.37j)],
                                            samples=10, seed=0) <= 1e-7


class TestSos:
    def test_n2_term_structure(self):
        op = build_sos_Taux(0.3 + 0.2j, 2, CTX)
        assert len(op.terms) == 4
        assert {sum(mi) for mi in op.terms} == {1}

    def test_up_down_split_is_structural(self):
        op = build_sos_Taux(0.3 + 0.2j, 3, CTX)
        alg = op.algebra
        up = {mi: c for mi, c in op.terms.items()
              if any(mi[alg.gen_names.index(f"Tp{i}")] for i in range(1, 4))}
        down = {mi: c for mi, c in op.terms.items()
                if any(mi[alg.gen_names.index(f"Tm{i}")] for i in range(1, 4))}
        assert len(up) == 3 and len(down) == 3
        assert set(up) | set(down) == set(op.terms)

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutation(self, n):
        fam = sos_family(n, CTX)
        assert transfer_commutator_residual(fam, [(0.33 + 0.19j, 0.67 + 0.41j)],
                                            samples=10, seed=0) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_coefficient_ratio_spread(self, n):
        assert sos_vs_T_coefficient_ratio(0.37 + 0.23j, n, CTX, seed=0) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_ratio_is_minus_one_not_any_constant(self, n, monkeypatch):
        # a basic kernel scaled by 2 keeps the ratio constant (-1/2), which a
        # spread around the first ratio cannot see; kernel + basic = 0 can
        from ellcert import transfer
        real = transfer._transfer_coefficient
        monkeypatch.setattr(transfer, "_transfer_coefficient",
                            lambda *args: ex.mul(ex.const(2), real(*args)))
        assert sos_vs_T_coefficient_ratio(0.37 + 0.23j, n, CTX, seed=0) >= 0.1

    def test_ratio_detects_perturbed_kernel(self, monkeypatch):
        # a face-model kernel read at u + 0.01 is no longer -1 times the basic
        # kernel at u: the ratio must read far above its 1e-8 tolerance
        from ellcert import transfer
        u = 0.37 + 0.23j
        for n in (2, 3):
            assert sos_vs_T_coefficient_ratio(u, n, CTX, seed=1) <= 1e-8
        real = transfer._sos_kernel
        monkeypatch.setattr(transfer, "_sos_kernel",
                            lambda u, n, al, names: real(u + 0.01, n, al, names))
        for n in (2, 3):
            assert sos_vs_T_coefficient_ratio(u, n, CTX, seed=1) > 1e3 * 1e-8


def _family_case(check, params, family, samples, seeds):
    """A commutation check's case: its name and params, its samples, the family
    built once at "_u" and "_v", and the per-seed draws at a check seed: each
    seed's constants and the two operators the per-seed path built for it."""
    def draws(seed):
        out = []
        for s in range(seeds):
            u, v = _spectral_points(CTX, seed + 100 * s, 2)
            out.append(({"_u": u, "_v": v}, family(u), family(v)))
        return out

    return check, params, samples, (family("_u"), family("_v")), draws


def _fu_case(m):
    def draws(seed):
        out = []
        for s in range(3):
            u, v, a, b = _spectral_points(CTX, seed + s, 4)
            out.append(({"_u": u, "_v": v, **fu_constants(m, a, b, CTX)},
                        build_fu_bosonized(u, m, a, b, CTX), build_fu_bosonized(v, m, a, b, CTX)))
        return out

    symbolic = tuple(build_fu_bosonized(x, m, "_a", "_b", CTX, psi="_psi") for x in ("_u", "_v"))
    return "fu-commute", {"m": str(m)}, 12, symbolic, draws


STACKED = {
    **{f"transfer-n{n}": (lambda n=n: _family_case("transfer-commute", {"n": str(n)}, vn_family(n, CTX), 20, 5))
       for n in (2, 3, 4, 5)},
    **{f"sos-n{n}": (lambda n=n: _family_case("sos-commute", {"n": str(n)}, sos_family(n, CTX), 10, 3))
       for n in (2, 3)},
    "chain-2x2": lambda: _family_case("ttilde-commute", {"p": "2,2"}, btilde_family((2, 2), CTX), 10, 3),
    **{f"fu-m{m}": (lambda m=m: _fu_case(m)) for m in (2, 3)},
}


class TestStackedSeeds:
    """A commutation check builds its family once, at symbolic spectral
    variables, and certifies its seeds as stacked batches.  Without a pole
    that must give, bit for bit, what certifying each seed alone on operators
    built at its own constants gives, however the seeds are grouped."""

    @pytest.mark.parametrize("seed", [42, 7, 2026])
    @pytest.mark.parametrize("case", sorted(STACKED))
    def test_stacked_seeds_match_the_per_seed_path(self, case, seed, monkeypatch):
        check, params, samples, (a, b), draws = STACKED[case]()
        seeds = draws(seed)
        want = max(commutator_residual(x, y, samples=samples, seed=seed + s)
                   for s, (_, x, y) in enumerate(seeds))
        for constants, x, y in seeds:  # the family at a seed's constants is the operator built there
            mapping = {name: ex.Affine(const=value) for name, value in constants.items()}
            at = ex.Evaluator(box(samples, a.algebra.var_names, CTX)(seed), CTX)
            for symbolic, built in ((a, x), (b, y)):
                assert list(symbolic.terms) == list(built.terms)
                subbed = at.values(ex.substitute(c, mapping) for c in symbolic.terms.values())
                direct = at.values(built.terms.values())
                assert all(np.asarray(s).tobytes() == np.asarray(d).tobytes() for s, d in zip(subbed, direct))

        groups, real = [], sampling.seed_groups
        monkeypatch.setattr(sampling, "seed_groups",
                            lambda count, entries: groups.append((entries, real(count, entries))) or groups[-1][1])
        assert REGISTRY[check](params, seed) == want
        entries, whole = groups[-1]
        assert whole == [range(len(seeds))]
        monkeypatch.setattr(sampling, "STACK_ENTRIES", entries * ((len(seeds) + 1) // 2))
        assert REGISTRY[check](params, seed) == want
        assert len(groups[-1][1]) == 2
