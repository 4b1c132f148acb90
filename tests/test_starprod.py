"""Star product, bosonization, Casimirs, and the degree-m commuting family."""

import cmath
import itertools
import math

import numpy as np
import pytest

from ellcert import ThetaContext, sampling, shiftops, starprod, theta1
from ellcert import expr as ex
from ellcert.checks import REGISTRY
from ellcert.errors import InconclusiveRankError, PoleError
from ellcert.sampling import rel_residual, sample_points, stack_assignments
from ellcert.shiftops import ShiftOp, make_Vn, shift_mul, sum_to_zero_residual
from ellcert.starprod import (
    SymThetaFun,
    build_fu_bosonized,
    casimir,
    eta_flatness_ratio,
    fu_commutator_residual,
    hom_welldefined_residual,
    phi_p,
    qnk_relation_residual,
    star,
    star_assoc_residual,
    theta_gen,
)

CTX = ThetaContext()
ID_TOL = 1e-8


def theta_line(coeffs, n, ctx):
    """Degree-one element sum_i coeffs[i] * theta_i of order n."""
    body = ex.add(*(ex.mul(ex.const(c), ex.theta_basis_of(i, n, "z1"))
                    for i, c in enumerate(coeffs) if c != 0))
    return SymThetaFun(1, n, body, ctx)


def plain_symmetrized_product(f, g):
    """Shuffle sum of f*g with no kernel and no shifts: the eta = 0 limit of the star product."""
    a, b = f.degree, g.degree
    total_vars = [f"z{i}" for i in range(1, a + b + 1)]
    terms = []
    for fslots in itertools.combinations(range(a + b), a):
        gslots = [i for i in range(a + b) if i not in fslots]
        fmap = {f"z{i+1}": ex.aff(total_vars[s]) for i, s in enumerate(fslots)}
        gmap = {f"z{j+1}": ex.aff(total_vars[s]) for j, s in enumerate(gslots)}
        terms.append(ex.mul(ex.substitute(f.body, fmap), ex.substitute(g.body, gmap)))
    return SymThetaFun(a + b, f.order_n, ex.add(*terms), f.ctx)


def rnd_points(count, dim, seed):
    rng = np.random.default_rng(seed)
    return [tuple(complex(rng.random(), CTX.tau.imag * rng.random()) for _ in range(dim))
            for _ in range(count)]


class TestStar:
    def test_degree_one_formula(self):
        # f*g(z1,z2) = f(z1+eta) g(z2-eta) K(z1-z2) + (z1 <-> z2)
        n = 3
        f, g = theta_gen(0, n, CTX), theta_gen(2, n, CTX)
        fg = star(f, g)
        eta = CTX.eta
        for z1, z2 in rnd_points(6, 2, 0):
            k12 = theta1(z1 - z2 - n * eta, CTX) / theta1(z1 - z2, CTX)
            k21 = theta1(z2 - z1 - n * eta, CTX) / theta1(z2 - z1, CTX)
            want = (f(z1 + eta) * g(z2 - eta) * k12 + f(z2 + eta) * g(z1 - eta) * k21)
            got = fg(z1, z2)
            assert abs(got - want) <= 1e-10 * max(1, abs(want))

    def test_degree_additivity(self):
        f = theta_gen(0, 2, CTX)
        assert star(f, star(f, f)).degree == 3

    def test_shuffle_equals_full_permutation_sum(self):
        # (1,1) and (1,2): shuffle implementation against the full S_(a+b)
        # sum with the 1/(a!b!) prefactor, computed numerically.
        n = 3
        f, g = theta_gen(0, n, CTX), theta_gen(1, n, CTX)
        fg = star(f, g)
        h = star(g, theta_gen(2, n, CTX))
        fgh = star(f, h)  # degrees (1,2)
        eta = CTX.eta
        for pt in rnd_points(4, 3, 1):
            # full-sum oracle for degrees (1,2)
            total = 0
            for perm in itertools.permutations(range(3)):
                zper = [pt[p] for p in perm]
                kernel = 1
                for iz in (0,):
                    for jz in (1, 2):
                        kernel *= theta1(zper[iz] - zper[jz] - n * eta, CTX) / theta1(zper[iz] - zper[jz], CTX)
                total += f(zper[0] + 2 * eta) * h(zper[1] - eta, zper[2] - eta) * kernel
            want = total / (math.factorial(1) * math.factorial(2))
            got = fgh(*pt)
            assert abs(got - want) <= 1e-9 * max(1, abs(want))

    def test_eta_zero_degenerates_to_plain_product(self):
        ctx0 = CTX.replace(eta=0)
        f, g = theta_gen(0, 4, ctx0), theta_gen(3, 4, ctx0)
        sp = star(f, g)
        pp = plain_symmetrized_product(f, g)
        for z1, z2 in rnd_points(5, 2, 2):
            a, bb = sp(z1, z2), pp(z1, z2)
            assert abs(a - bb) <= 1e-10 * max(1, abs(a))

    def test_closure_invariants(self):
        for n in (2, 5):
            f, g = theta_gen(0, n, CTX), theta_gen(n - 1, n, CTX)
            fg = star(f, g)
            assert fg.invariant_residual(samples=10, seed=3) <= ID_TOL
            fgg = star(fg, g)  # degrees (2,1)
            assert fgg.invariant_residual(samples=8, seed=4) <= ID_TOL

    def test_zero_function_annihilates(self):
        n = 2
        zero = SymThetaFun(1, n, ex.const(0), CTX)
        f = theta_gen(0, n, CTX)
        out = star(zero, f)
        for z1, z2 in rnd_points(3, 2, 5):
            assert out(z1, z2) == 0
        assert out.invariant_residual(samples=5) == 0.0  # a constant body is checked on the batch too

    @pytest.mark.parametrize("n", [2, 4])
    def test_associativity(self, n):
        f = theta_gen(0, n, CTX)
        g = theta_gen(1 % n, n, CTX)
        h = theta_line([0.7, -0.3] + [0.0] * (n - 2), n, CTX)
        assert star_assoc_residual(f, g, h, samples=15, seed=0) <= 1e-8

    def test_eta_flatness(self):
        r = eta_flatness_ratio(3, CTX, seed=0)
        assert 5.0 <= r <= 20.0  # linear in eta within a factor 2


class TestPhiP:
    def test_p1_single_term(self):
        f = theta_gen(0, 3, CTX)
        op = phi_p(f, 1, CTX)
        assert list(op.terms) == [(1,)]
        env = {"u1": 0.4 + 0.3j}
        got = ex.evaluate(op.terms[(1,)], env, CTX)
        assert abs(got - f(env["u1"])) < 1e-12

    def test_linearity_structural(self):
        f = theta_gen(0, 3, CTX)
        g = theta_gen(2, 3, CTX)
        lin = theta_line([1, 0, 1], 3, CTX)
        combined = phi_p(lin, 2, CTX)
        summed = phi_p(f, 2, CTX) + phi_p(g, 2, CTX)
        from ellcert.shiftops import op_equal
        assert op_equal(combined, summed, samples=8, seed=1) <= ID_TOL


class TestHomWellDefined:
    def test_rank_n2_p1(self):
        # returning at all means rank 3 was resolved with a gap of at least 1e3
        assert hom_welldefined_residual(2, 1, CTX, seed=0) <= 1e-7

    def test_n3_p2(self):
        assert hom_welldefined_residual(3, 2, CTX, seed=0) <= 1e-7

    def test_inconclusive_when_starved_of_samples(self):
        # fewer sample points than the expected rank cannot resolve the gap
        with pytest.raises(InconclusiveRankError):
            hom_welldefined_residual(4, 2, CTX, seed=0, samples=6)


def odesskii_basis(a, n, ctx):
    """theta^O_a, restated from its formula: q^(a(a-n)/(2n)) theta_a(z + 1/(2n)) for even n,
    q^(a(a-n)/(2n)) e^(pi i a/n) theta_a(z) for odd n."""
    scale = cmath.exp(2j * math.pi * ctx.tau * a * (a - n) / (2 * n))
    if n % 2:
        scale *= cmath.exp(1j * math.pi * a / n)
    shift = 0.0 if n % 2 else 1 / (2 * n)
    body = ex.mul(ex.const(scale), ex.theta_basis_of(a, n, ex.aff("z1", const=shift)))
    return SymThetaFun(1, n, body, ctx)


def relation_residual(n, p, ctx, basis, eta):
    """Largest sum_to_zero_residual over i != j of
    sum_r x_{j-i}(0) / (x_{j-i-r}(eta) x_r(-eta)) phi_p(x_{j-r}) phi_p(x_{i+r}), x_a = basis(a, n, ctx)."""
    xs = [basis(a, n, ctx) for a in range(n)]
    phis = [phi_p(x, p, ctx) for x in xs]
    products = {(a, b): shift_mul(phis[a], phis[b]) for a in range(n) for b in range(n)}
    worst = 0.0
    for i, j in itertools.permutations(range(n), 2):
        parts = [products[(j - r) % n, (i + r) % n].scaled(
                     complex(xs[(j - i) % n](0.0) / (xs[(j - i - r) % n](eta) * xs[r](-eta))))
                 for r in range(n)]
        worst = max(worst, sum_to_zero_residual(parts, samples=12, seed=42))
    return worst


class TestQnk:
    @pytest.mark.parametrize("n,p", [(n, p) for n in range(2, 7) for p in (1, 2, 3)])
    def test_relations_hold(self, n, p):
        assert qnk_relation_residual(n, p, CTX, seed=42) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 7))
    def test_relations_hold_at_second_tau(self, n):
        assert qnk_relation_residual(n, 2, ThetaContext(tau=0.3 + 1.1j), seed=42) <= 1e-10

    @pytest.mark.parametrize("n", range(3, 7))
    def test_relations_need_the_negated_eta(self, n):
        assert relation_residual(n, 2, CTX, odesskii_basis, -CTX.eta) > 1e-2

    @pytest.mark.parametrize("n", range(3, 7))
    def test_relations_need_the_normalized_basis(self, n):
        assert relation_residual(n, 2, CTX, theta_gen, CTX.eta) > 1e-2

    def test_restated_relations_match(self):
        # the mutation harness, unmutated, certifies what the library does
        assert relation_residual(4, 2, CTX, odesskii_basis, CTX.eta) <= 1e-10


def count_draws(monkeypatch):
    """Record every sampled_max call: those of sampling.relation_max, which
    sum_to_zero_residual calls, and those made by name from shiftops and starprod."""
    calls = []
    real = sampling.sampled_max

    def counted(measure, draw, seed, ctx):
        calls.append(seed)
        return real(measure, draw, seed, ctx)

    for module in (sampling, shiftops, starprod):
        monkeypatch.setattr(module, "sampled_max", counted)
    return calls


class TestOneBatch:
    """A family of relations among the same operators is measured on one batch."""

    def test_qnk_relations_take_one_draw(self, monkeypatch):
        calls = count_draws(monkeypatch)
        qnk_relation_residual(3, 1, CTX, seed=42)
        assert len(calls) == 1

    def test_kernel_relations_take_one_draw(self, monkeypatch):
        calls = count_draws(monkeypatch)
        hom_welldefined_residual(3, 1, CTX, seed=0)
        assert len(calls) == 2  # the rank matrix, then every kernel vector's relation

    def test_rows_match_scaled_parts(self):
        phis = [phi_p(theta_gen(a, 3, CTX), 1, CTX) for a in range(3)]
        parts = [shift_mul(x, y) for x in phis for y in phis]
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
        rows[:, 2] = 0  # a part no relation uses
        rows[1, ::2] = 0
        want = max(sum_to_zero_residual([op.scaled(complex(w)) for op, w in zip(parts, row)],
                                        samples=6, seed=3) for row in rows)
        got = sum_to_zero_residual(parts, samples=6, seed=3, relations=rows)
        assert abs(got - want) <= 1e-12 * want

    def test_part_weighted_zero_is_not_evaluated(self):
        alg = make_Vn(1, CTX)
        op = ShiftOp.generator(alg, "f1", ex.var("z1"))
        # |1e-30 * z1| is below pole_guard at every point: the part poles in every batch
        poled = ShiftOp.generator(alg, "f1", ex.quot(ex.const(1), ex.mul(ex.const(1e-30), ex.var("z1"))))
        with pytest.raises(PoleError):
            sum_to_zero_residual([op, -op, poled], samples=4)
        assert sum_to_zero_residual([op, op, poled], samples=4, relations=[[1, -1, 0], [2, -2, 0]]) == 0.0



def count_builds(monkeypatch):
    """Count shift_mul calls, wherever a module holds the name, and expr.translate calls."""
    from ellcert import transfer
    calls = {"shift_mul": 0, "translate": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    shift_mul_counted = counting("shift_mul", shiftops.shift_mul)
    for module in (shiftops, starprod, transfer):
        if hasattr(module, "shift_mul"):
            monkeypatch.setattr(module, "shift_mul", shift_mul_counted)
    monkeypatch.setattr(ex, "translate", counting("translate", ex.translate))
    return calls


class TestProductsAreSampled:
    """Products that are only compared are sampled as factor pairs, never built."""

    def test_counters_see_a_built_product(self, monkeypatch):
        calls = count_builds(monkeypatch)
        f1 = ShiftOp.generator(make_Vn(2, CTX), "f1")
        shiftops.shift_mul(f1, ShiftOp.function(f1.algebra, ex.var("z1")))
        assert calls == {"shift_mul": 1, "translate": 1}

    def test_commutator(self, monkeypatch):
        from ellcert.transfer import build_T
        calls = count_builds(monkeypatch)
        a, b = build_T(0.31 + 0.11j, 3, CTX), build_T(0.73 + 0.29j, 3, CTX)
        assert shiftops.commutator_residual(a, b, samples=8, seed=0) <= 1e-10
        assert calls == {"shift_mul": 0, "translate": 0}

    def test_bosonization_kernel_relations(self, monkeypatch):
        calls = count_builds(monkeypatch)
        assert hom_welldefined_residual(3, 1, CTX, seed=0) <= 1e-10
        assert calls == {"shift_mul": 0, "translate": 0}

    def test_qnk_relations(self, monkeypatch):
        calls = count_builds(monkeypatch)
        assert qnk_relation_residual(3, 1, CTX, seed=42) <= 1e-10
        assert calls == {"shift_mul": 0, "translate": 0}

DIAGONAL = REGISTRY["casimir-diagonal"]


def moved_diagonal_residual(m, seed, moved):
    """The casimir-diagonal check at one degree m, on the diagonal z_2 = z_1 + 2m*eta + moved.

    Its first batch: 10 box points in row 0, the same points with z_2 moved
    onto the diagonal in row 1, each compared against its own row-0 value.
    """
    ctx = DIAGONAL.resolve({"m": str(m), "seed": seed})["ctx"]
    pts = stack_assignments(sample_points(10, [f"z{i}" for i in range(1, m + 1)], seed, ctx))
    diagonal = {**pts, "z2": pts["z1"] + 2 * m * ctx.eta + moved}
    env = {v: np.stack([x, diagonal[v]]) for v, x in pts.items()}
    values = (ex.evaluate(casimir(alpha, m, ctx).body, env, ctx) for alpha in (0, 1))
    return max(rel_residual(on, generic) for generic, on in values)


class TestCasimir:
    SEEDS = range(60)

    def test_m4_passes_at_every_seed(self):
        # the diagonal factor's argument is summed in sorted variable order,
        # fl(-2m*eta - z1) + fl(z1 + 2m*eta), which is exactly 0
        for seed in self.SEEDS:
            residual = DIAGONAL({"m": "4"}, seed)
            assert residual <= DIAGONAL.tolerance, seed
            assert moved_diagonal_residual(4, seed, 0.0) == residual, seed  # the mutant, unmoved, is the check

    @pytest.mark.parametrize("moved", [1e-6, 1e-9])
    def test_m4_moved_diagonal_fails_at_every_seed(self, moved):
        for seed in self.SEEDS:
            assert moved_diagonal_residual(4, seed, moved) > DIAGONAL.tolerance, seed

    def test_diagonal_vanishing(self):
        for m in (2, 3):
            c = casimir(0, m, CTX)
            rng = np.random.default_rng(6)
            for _ in range(5):
                zs = [complex(rng.random(), CTX.tau.imag * rng.random()) for _ in range(m)]
                zs[1] = zs[0] + 2 * m * CTX.eta
                vals_generic = abs(c(*(complex(rng.random(), 0.4 * rng.random()) for _ in range(m))))
                assert abs(c(*zs)) <= 1e-10 * max(1, vals_generic)

    def test_m2_invariants(self):
        c = casimir(0, 2, CTX)
        assert c.degree == 2 and c.order_n == 4
        assert c.invariant_residual(samples=10, seed=7) <= ID_TOL

    def test_swap_symmetry(self):
        c = casimir(1, 2, CTX)
        for z1, z2 in rnd_points(5, 2, 8):
            assert abs(c(z1, z2) - c(z2, z1)) <= ID_TOL * max(1, abs(c(z1, z2)))


class TestFuFamily:
    def test_m2_structure(self):
        op = build_fu_bosonized(0.3 + 0.1j, 2, 0.2 + 0.1j, 0.4 + 0.2j, CTX)
        assert list(op.terms) == [(2,)]

    def test_monomial_degrees(self):
        for m in (2, 3):
            op = build_fu_bosonized(0.3 + 0.1j, m, 0.2, 0.4, CTX)
            assert all(sum(mi) == m for mi in op.terms)
            for al, mi in enumerate(sorted(op.terms, reverse=True)):
                assert sorted(mi, reverse=True)[0] == 2

    def test_m2_commutes(self):
        rng = np.random.default_rng(1)
        u, v, a, b = (complex(rng.random(), 0.5 * rng.random()) for _ in range(4))
        assert fu_commutator_residual(2, [(u, v, a, b)], CTX, samples=8, seed=0) <= 1e-7

    def test_m3_commutes(self):
        rng = np.random.default_rng(2)
        u, v, a, b = (complex(rng.random(), 0.5 * rng.random()) for _ in range(4))
        assert fu_commutator_residual(3, [(u, v, a, b)], CTX, samples=8, seed=0) <= 1e-7

    def test_same_parameter_commutator_structurally_zero(self):
        op = build_fu_bosonized(0.5 + 0.2j, 3, 0.1, 0.3, CTX)
        assert shiftops.commutator_residual(op, op, samples=8, seed=0) == 0.0
