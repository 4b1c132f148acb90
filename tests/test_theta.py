"""Theta kernel tests against independent oracles.

The oracles here are deliberately separate code paths: mpmath's jtheta and a
naive double-truncation Fourier sum with no argument reduction.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from ellcert import ThetaContext, theta1, theta_basis, theta_odd, reduce_to_fundamental
from ellcert.errors import EvaluationOverflowError
from ellcert.theta import _lattice_reduce, _multiplier, _window, theta_value

TWO_PI_I = 2j * math.pi

CTX = ThetaContext()
CTX_B = ThetaContext(tau=0.3 + 1.1j)
ID_TOL = 1e-8


def naive_theta(kind, z, tau, order=1, index=0, deriv=0, M=80):
    """Independent series of any kind: no reduction of z or tau, plain Python loop,
    derivatives term by term."""
    total = 0j
    for j in range(-M, M + 1):
        if kind == "order1":
            k, sign, cexp = j, (-1) ** (j - 1), j * (j - 1) / 2
        elif kind == "basis":
            k, sign, cexp = index + j * order, (-1) ** (j * order), index * j + order * j * (j - 1) / 2
        else:
            k, sign, cexp = j + 0.5, -1j * (-1) ** j, (j + 0.5) ** 2 / 2
        total += sign * (TWO_PI_I * k) ** deriv * np.exp(TWO_PI_I * (tau * cexp + k * z))
    return total


def box_points(count, seed, ctx):
    rng = np.random.default_rng(seed)
    return rng.random(count) + 1j * ctx.tau.imag * rng.random(count)


def scale_of(*vals):
    return max(1.0, *(abs(v) for v in vals))


class TestTheta1:
    def test_vanishes_at_origin(self):
        assert theta1(0, CTX) == 0

    def test_vanishes_on_lattice(self):
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                assert abs(theta1(a + b * CTX.tau, CTX)) <= ID_TOL

    def test_one_periodic(self):
        z = 0.13 + 0.21j
        v0, v1 = theta1(z, CTX), theta1(z + 1, CTX)
        assert abs(v1 - v0) <= ID_TOL * scale_of(v0)

    def test_tau_quasi_periodicity(self):
        z = -0.37 + 0.11j
        lhs = theta1(z + CTX.tau, CTX)
        rhs = -np.exp(-TWO_PI_I * z) * theta1(z, CTX)
        assert abs(lhs - rhs) <= ID_TOL * scale_of(rhs)

    def test_quasi_oddness_constant(self):
        # theta(-w) = -exp(-2*pi*i*w) * theta(w): the series fixes c = -1.
        for w in box_points(10, 3, CTX):
            lhs = theta1(-w, CTX)
            rhs = -np.exp(-TWO_PI_I * w) * theta1(w, CTX)
            assert abs(lhs - rhs) <= ID_TOL * scale_of(rhs)

    def test_against_naive_series(self):
        for ctx in (CTX, CTX_B):
            for z in box_points(20, 5, ctx):
                ours = theta1(z, ctx)
                ref = naive_theta("order1", z, ctx.tau, M=120)
                assert abs(ours - ref) <= 1e-11 * scale_of(ref)

    def test_against_mpmath(self):
        # theta1(z) equals a constant times exp(pi*i*z) * jtheta1(pi*z, qhat).
        qhat = mpmath.exp(1j * mpmath.pi * mpmath.mpc(CTX.tau))
        ratios = []
        for z in box_points(6, 7, CTX):
            ref = complex(mpmath.jtheta(1, mpmath.pi * mpmath.mpc(z), qhat))
            ratios.append(theta1(z, CTX) / (np.exp(1j * math.pi * z) * ref))
        for r in ratios[1:]:
            assert abs(r - ratios[0]) < 1e-10 * abs(ratios[0])


class TestThetaBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_quasi_periodicity_all_orders(self, n):
        ctx = CTX
        for i in range(n):
            for z in box_points(8, 100 + 10 * n + i, ctx):
                v = theta_basis(i, z, ctx, n=n)
                per = theta_basis(i, z + 1, ctx, n=n)
                qp = theta_basis(i, z + ctx.tau, ctx, n=n)
                expect = (-1) ** n * np.exp(-TWO_PI_I * n * z) * v
                assert abs(per - v) <= ID_TOL * scale_of(v)
                assert abs(qp - expect) <= ID_TOL * scale_of(v, expect)

    def test_against_naive_series(self):
        for n in (2, 3, 5):
            for i in range(n):
                z = 0.31 + 0.27j
                ours = theta_basis(i, z, CTX, n=n)
                ref = naive_theta("basis", z, CTX.tau, n, i)
                assert abs(ours - ref) <= 1e-11 * scale_of(ref)

    def test_three_point_matrix_nonsingular(self):
        # Linear independence of the basis, sampled: |det| above guard level.
        n = 3
        pts = box_points(n, 11, CTX)
        A = np.array([[theta_basis(j, z, CTX, n=n) for j in range(n)] for z in pts])
        scale = np.prod([max(1.0, np.max(np.abs(row))) for row in A])
        assert abs(np.linalg.det(A)) > CTX.pole_guard * scale

    def test_order1_matches_negated_theta1(self):
        z = 0.41 + 0.19j
        assert abs(theta_basis(0, z, CTX, n=1) + theta1(z, CTX)) < 1e-12

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            theta_basis(3, 0.1j, CTX, n=3)


class TestThetaOdd:
    def test_zero_at_origin(self):
        assert theta_odd(0, CTX) == 0

    def test_odd(self):
        z = 0.4 + 0.2j
        assert abs(theta_odd(-z, CTX) + theta_odd(z, CTX)) <= ID_TOL * scale_of(theta_odd(z, CTX))

    def test_equals_mpmath_jtheta1(self):
        qhat = mpmath.exp(1j * mpmath.pi * mpmath.mpc(CTX.tau))
        for z in box_points(8, 13, CTX):
            ref = complex(mpmath.jtheta(1, mpmath.pi * mpmath.mpc(z), qhat))
            assert abs(theta_odd(z, CTX) - ref) <= 1e-11 * scale_of(ref)


class TestExactLatticeZeros:
    """theta1 and theta_odd are exactly 0 where the argument reduces exactly to w = 0."""

    @pytest.mark.parametrize("tau", [0.8j, 0.3 + 1.1j, 0.3j, 7.9 + 0.3j])
    def test_exactly_zero(self, tau):
        ctx = ThetaContext(tau=tau)
        points = [0, 1, ctx.tau, 1 + ctx.tau]
        w, _, _ = _lattice_reduce(np.array(points), ctx.tau)
        assert np.all(w == 0), "each point must reduce exactly to w = 0"
        for fn in (theta1, theta_odd):
            assert [fn(z, ctx) for z in points] == [0, 0, 0, 0]
            assert np.all(fn(np.array(points), ctx) == 0)


class TestModeWindow:
    """The tail-bounded window against the independent naive series."""

    SPECS = [("order1", 1, 0), ("odd", 1, 0)] + [
        ("basis", n, i) for n in (1, 2, 5, 9) for i in sorted({0, n - 1})]

    @pytest.mark.parametrize("tau", [0.3j, 0.3 + 0.3j, 0.8j, 0.3 + 1.1j, 2.5j])
    def test_matches_naive_series(self, tau):
        ctx = ThetaContext(tau=tau)
        z = box_points(40, 29, ctx)
        for kind, order, index in self.SPECS:
            for deriv in range(4):
                got = theta_value(kind, z, ctx, order=order, index=index, deriv=deriv)
                ref = np.array([naive_theta(kind, p, ctx.tau, order, index, deriv) for p in z])
                err = np.max(np.abs(got - ref) / np.maximum(1, np.abs(ref)))
                assert err <= 1e-13, (kind, order, index, deriv, err)
                assert _window(kind, order, index, ctx.tau, deriv).k.size <= 61


class TestReduce:
    def test_already_reduced(self):
        z = 0.3 + 0.2j
        w, m = reduce_to_fundamental(z, CTX)
        assert abs(w - z) < 1e-15 and abs(m - 1) < 1e-15

    def test_single_tau_step(self):
        z = 0.3 + 0.2j
        w, m = reduce_to_fundamental(z + CTX.tau, CTX)
        assert abs(w - z) < 1e-12
        assert abs(m - (-np.exp(-TWO_PI_I * z))) < 1e-12

    def test_round_trip_against_naive(self):
        # 100 points with |b| <= 5 against a truncation-doubled direct series.
        rng = np.random.default_rng(17)
        for _ in range(100):
            b = rng.integers(-5, 6)
            a = rng.integers(-3, 4)
            zr = rng.random() + 1j * CTX.tau.imag * rng.random()
            z = zr + a + b * CTX.tau
            w, m = reduce_to_fundamental(z, CTX)
            direct = naive_theta("order1", z, CTX.tau, M=150)
            via = m * theta1(w, CTX)
            assert abs(direct - via) <= ID_TOL * scale_of(direct, via)

    def test_overflow_guard(self):
        with pytest.raises(EvaluationOverflowError):
            theta1(1000j, CTX)

    @pytest.mark.parametrize("kind,order", [("order1", 1), ("basis", 3), ("odd", 1)])
    def test_in_strip_multiplier_is_exactly_the_sign(self, kind, order):
        # b = 0 on the strip: exp(0) = 1, so M is +-1 exactly (odd: (-1)^a)
        rng = np.random.default_rng(5)
        z = rng.uniform(-3, 3, 200) + 1j * CTX_B.tau.imag * rng.random(200)
        w, a, b = _lattice_reduce(z, CTX_B.tau)
        assert not b.any()
        sign = (-1.0) ** a if kind == "odd" else np.ones_like(a)
        mult = _multiplier(kind, CTX_B.tau, order, w, a, b)
        assert np.array_equal(mult, sign) and not np.signbit(mult.imag).any()
        # a mixed batch gives every point the multiplier of its own scalar call
        z = np.concatenate([z, z + 2 * CTX_B.tau, z - 3 * CTX_B.tau])
        w, a, b = _lattice_reduce(z, CTX_B.tau)
        mult = _multiplier(kind, CTX_B.tau, order, w, a, b)
        for i in range(0, z.size, 7):
            one = _multiplier(kind, CTX_B.tau, order, *_lattice_reduce(z[i], CTX_B.tau))
            assert np.asarray(one).tobytes() == mult[i].tobytes()


class TestRealPartOfTau:
    """Re tau enters only modulo 8, the common period of the three theta kinds."""

    KINDS = [("order1", 1, 0), ("basis", 3, 1), ("odd", 1, 0)]
    CTX_D = ThetaContext(tau=0.375 + 1.1j)  # dyadic Re tau, so tau + 8 is exact

    def _points(self):
        # arguments up to a lattice step outside the box, so the multiplier is exercised too
        rng = np.random.default_rng(23)
        return 3 * rng.random(12) - 1 + 1j * (3 * rng.random(12) - 1) * self.CTX_D.tau.imag

    @pytest.mark.parametrize("kind, order, index", KINDS)
    def test_period_eight_is_bit_identical(self, kind, order, index):
        # The context reduces tau + 8 to tau exactly, so the values are bit-identical; the
        # unreduced series checks the period that this reduction relies on (tau + 13 reduces
        # to tau + 5, so a wrong modulus shows too).
        z, tau = self._points(), self.CTX_D.tau
        for deriv in (0, 1):
            want = theta_value(kind, z, self.CTX_D, order=order, index=index, deriv=deriv)
            shifted = theta_value(kind, z, ThetaContext(tau=tau + 8), order=order, index=index, deriv=deriv)
            assert np.array_equal(shifted, want)
            for raw in (tau + 8, tau + 13):
                got = theta_value(kind, z, ThetaContext(tau=raw), order=order, index=index, deriv=deriv)
                ref = np.array([naive_theta(kind, p, raw, order, index, deriv) for p in z])
                assert np.all(np.abs(got - ref) <= 1e-11 * np.maximum(1, np.abs(ref)))

    def test_odd_theta_gains_an_eighth_root_of_unity_per_step(self):
        z = self._points()
        stepped = theta_odd(z, self.CTX_D.replace(tau=self.CTX_D.tau + 1))
        want = np.exp(1j * math.pi / 4) * theta_odd(z, self.CTX_D)
        assert np.all(np.abs(stepped - want) <= 1e-12 * np.maximum(1, np.abs(want)))


class TestContext:
    def test_rejects_small_im_tau(self):
        with pytest.raises(ValueError):
            ThetaContext(tau=0.2j)

    def test_holds_tau_and_eta_only(self):
        assert [f.name for f in dataclasses.fields(ThetaContext)] == ["tau", "eta"]

    def test_reduces_real_part_of_tau_modulo_eight(self):
        assert ThetaContext(tau=8.375 + 1.1j) == ThetaContext(tau=0.375 + 1.1j)
        assert ThetaContext(tau=-0.5 + 1.1j).tau == -0.5 + 1.1j
