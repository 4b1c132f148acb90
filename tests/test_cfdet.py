"""Cartier-Foata layer: determinants, commuting families, Plucker identities.

Oracles are test-local: brute-force permutation sums over dense site
elements (a grid's k x k blocks expanded to I x ... x block x ... x I), and
det-of-pairings for the decomposable forms.
"""

import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellcert import sampling
from ellcert.cfdet import (
    TensorBackend,
    _plucker_terms,
    cf_det,
    decomposable_form,
    delta_family,
    form_apply,
    kron,
    minors,
    plucker_check,
    plucker_residual,
    random_cf_matrix,
    random_delta_grid,
    verify_commuting_family,
    verify_triangle,
)
from ellcert.checks import REGISTRY
from ellcert.errors import PoleError


class CountingMul:
    """Scalar product that counts its calls."""

    def __init__(self):
        self.muls = 0

    def __call__(self, x, y):
        self.muls += 1
        return x * y


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def site_element(n, site, block):
    """identity x ... x block (at `site`) x ... x identity, n sites."""
    eye = np.eye(len(block), dtype=complex)
    out = np.ones((1, 1), dtype=complex)
    for s in range(n):
        out = np.kron(out, block if s == site else eye)
    return out


def dense(grid):
    """A grid of k x k blocks with row r at site r, as k^n x k^n site elements."""
    return [[site_element(len(grid), r, b) for b in row] for r, row in enumerate(grid)]


def random_block(k, rng):
    return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))


def random_blocks(rows, cols, k, seed):
    rng = np.random.default_rng(seed)
    return [[random_block(k, rng) for _ in range(cols)] for _ in range(rows)]


def brute_perm_det(grid):
    """Independent oracle: raw permutation sum over numpy matrices."""
    n = len(grid)
    dim = grid[0][0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for perm in itertools.permutations(range(n)):
        term = np.eye(dim, dtype=complex)
        for r in range(n):
            term = term @ grid[r][perm[r]]
        total += perm_sign(perm) * term
    return total


class TestCfDet:
    def test_n1_single_entry(self):
        assert cf_det([[3 + 1j]], operator.mul) == 3 + 1j

    def test_scalar_entries_reduce_to_numpy_det(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = cf_det([[A[i, j] for j in range(4)] for i in range(4)], operator.mul)
        assert abs(got - np.linalg.det(A)) < 1e-10 * abs(np.linalg.det(A))

    def test_tensor_n2_against_brute_force(self):
        (a, b), (c, d) = random_blocks(2, 2, 2, 5)
        # two-term expansion computed independently
        want = np.kron(a, d) - np.kron(b, c)
        assert np.allclose(cf_det([[a, b], [c, d]], kron), want, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kron_square_grid_against_brute_force(self, n):
        for k in (2, 3):
            grid = random_blocks(n, n, k, 10 * n + k)
            want = brute_perm_det(dense(grid))
            got = cf_det(grid, kron)
            assert got.shape == (k ** n, k ** n)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_row_order_independence(self):
        # commuting rows: permuting them only multiplies the determinant by the sign
        be = TensorBackend()
        grid = dense(random_blocks(3, 3, 2, 8))
        base = cf_det(grid, be.mul)
        scale = max(1.0, be.norm(base))
        for order in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
            alt = cf_det([grid[r] for r in order], be.mul)
            assert be.norm(alt - perm_sign(order) * base) / scale <= 1e-10

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            cf_det([[1, 2, 3], [4, 5, 6]], operator.mul)
        with pytest.raises(ValueError):
            minors([[1, 2], [3, 4]], operator.mul)


class TestMinors:
    def test_n1_column_deletion_convention(self):
        # [a b] -> (M^0, M^1) = (b, a)
        assert minors([[2 + 0j, 5 + 0j]], operator.mul) == [5 + 0j, 2 + 0j]

    def test_scalar_classical_minors(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(3, 4))
        got = minors([[complex(A[i, j]) for j in range(4)] for i in range(3)], operator.mul)
        for i in range(4):
            want = np.linalg.det(np.delete(A, i, axis=1))
            assert abs(got[i] - want) < 1e-12 * max(1, abs(want))

    def test_one_recursion_for_all_minors(self):
        # sum over levels k = 2..4 of C(5, k) * k products; n+1 permutation sums take 360
        rng = np.random.default_rng(6)
        A = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        mul = CountingMul()
        got = minors([list(row) for row in A], mul)
        assert mul.muls == 70
        for i in range(5):
            want = np.linalg.det(np.delete(A, i, axis=1))
            assert abs(got[i] - want) < 1e-12 * max(1, abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tensor_against_brute_force(self, n):
        for k in (2, 3):
            grid = random_cf_matrix(n, k, 11)
            got = minors(grid, kron)
            sites = dense(grid)
            for i in range(n + 1):
                want = brute_perm_det([[row[c] for c in range(n + 1) if c != i] for row in sites])
                assert got[i].shape == (k ** n, k ** n)
                assert np.max(np.abs(got[i] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_kron_is_the_dense_recursion(self):
        # the same recursion over dense site elements and TensorBackend.mul
        grid = random_cf_matrix(3, 2, 4)
        for got, want in zip(minors(grid, kron), minors(dense(grid), TensorBackend().mul)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_random_grid_draws_blocks_row_by_row(self):
        rng = np.random.default_rng(3)
        want = [random_block(3, rng) for _ in range(2 * 3)]
        grid = random_cf_matrix(2, 3, 3)
        assert all(np.array_equal(grid[i // 3][i % 3], w) for i, w in enumerate(want))


class TestCommutingFamily:
    def test_rows_commute_witness(self):
        # sampled witness for the commuting-rows declaration
        be = TensorBackend()
        grid = dense(random_cf_matrix(3, 2, 2))
        rng = np.random.default_rng(0)
        for _ in range(8):
            i, j = rng.choice(3, size=2, replace=False)
            x, y = grid[i][rng.integers(0, 4)], grid[j][rng.integers(0, 4)]
            scale = max(1.0, be.norm(x) * be.norm(y))
            assert be.norm(x @ y - y @ x) / scale < 1e-12

    def test_n1_trivial(self):
        assert verify_commuting_family(minors(random_cf_matrix(1, 2, 3), kron)) < 1e-12

    @pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2)])
    def test_residual_small(self, n, k):
        for seed in range(3):
            try:
                r = verify_commuting_family(minors(random_cf_matrix(n, k, seed), kron))
            except PoleError:
                continue
            assert r <= 1e-9


class TestNonCommutingRows:
    """Negative control: with generic dense entries the rows do not commute, and both verifiers FAIL."""

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 3)])
    def test_generic_entries_fail_far_above_tolerance(self, n, k):
        be = TensorBackend()
        for seed in range(5):
            ms = minors(random_blocks(n, n + 1, k ** n, seed), be.mul)
            assert verify_commuting_family(ms) > 1e3 * REGISTRY["cf-commute"].tolerance
            assert verify_triangle(ms) > 1e3 * REGISTRY["cf-triangle"].tolerance


class TestTriangle:
    def test_equal_indices_zero(self):
        # a repeated minor exchanges with itself exactly, and no pair involves M^0
        m0, m1, _ = minors(random_cf_matrix(2, 2, 7), kron)
        assert verify_triangle([m0, m1, m1]) == 0.0

    def test_scalar_case_zero(self):
        # 1 x 1 blocks: the commutative case
        rng = np.random.default_rng(4)
        grid = [[np.array([[complex(x)]]) for x in row] for row in rng.normal(size=(3, 4))]
        assert verify_triangle(minors(grid, kron)) < 1e-12

    def test_tensor_residual_small(self):
        assert verify_triangle(minors(random_cf_matrix(3, 2, 21), kron)) <= 1e-9


class TestDeltaFamily:
    def test_n1_trivial(self):
        assert delta_family(random_delta_grid(1, 2, 0)) < 1e-12

    def test_scalar_zero(self):
        # 1 x 1 blocks: the commutative case
        grid = random_blocks(4, 3, 1, 2)
        assert delta_family(grid) < 1e-10

    def test_blocks_sit_at_their_second_index(self):
        # f_{i,j} acts on site j-1: the transpose's rows are the sites
        fgrid = random_delta_grid(2, 2, 1)
        rows = dense([list(col) for col in zip(*fgrid)])
        for i, got in enumerate(minors([list(col) for col in zip(*fgrid)], kron)):
            want = brute_perm_det([[row[c] for c in range(3) if c != i] for row in rows])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_tensor_site_structure(self):
        for seed in range(3):
            assert delta_family(random_delta_grid(3, 2, seed)) <= 1e-9


class TestPlucker:
    def test_repeated_argument_degeneracy(self):
        lam = decomposable_form(2, 3)
        rng = np.random.default_rng(3)
        a, b, d = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3))
        assert plucker_residual(2, lam, [a, b, b, d]) < 1e-12

    def test_form_is_partial_determinant(self):
        # decomposable_form must evaluate as det of pairings (the oracle).
        rng = np.random.default_rng(9)
        gen = np.random.default_rng(5)
        us = gen.normal(size=(3, 6)) + 1j * gen.normal(size=(3, 6))
        lam = decomposable_form(3, 5)
        xs = [rng.normal(size=6) for _ in range(3)]
        want = np.linalg.det(np.array([[u @ x for x in xs] for u in us]))
        got = form_apply(lam, *xs)
        assert abs(got - want) < 1e-9 * max(1, abs(want))

    @pytest.mark.parametrize("order,d", [(2, 4), (3, 6), (4, 8)])
    def test_identities(self, order, d):
        assert decomposable_form(order, 0).shape == (d,) * order
        for seed in range(8):
            assert plucker_check(order, seed) <= 1e-10

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_contraction_is_form_apply(self, order):
        # the prefix-memoized matmul contraction gives form_apply's tensordot terms bit for bit
        for seed in range(20):
            lam = decomposable_form(order, seed)
            rng = np.random.default_rng(seed + 10_000)
            vs = [rng.normal(size=2 * order) + 1j * rng.normal(size=2 * order) for _ in range(order + 2)]
            terms = _plucker_terms(order, lambda *xs: form_apply(lam, *xs), vs)
            want = abs(sum(terms)) / max(max(abs(t) for t in terms), 1e-300)
            assert plucker_residual(order, lam, vs) == want

    def test_generic_antisymmetric_array_fails(self):
        # Confirms decomposability is what makes the identity true.
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        lam = A - A.T
        vs = [rng.normal(size=4) for _ in range(4)]
        assert plucker_residual(2, lam, vs) > 1e-3


class TestBackendAxioms:
    def test_tensor_backend_ring_axioms_spot_check(self):
        # associativity, commutative addition, distributivity on random triples
        be = TensorBackend()
        rng = np.random.default_rng(12)
        for _ in range(5):
            x, y, z = (site_element(2, rng.integers(0, 2), random_block(2, rng)) for _ in range(3))
            scale = max(1.0, be.norm(x) * be.norm(y) * be.norm(z))
            assoc = be.mul(be.mul(x, y), z) - be.mul(x, be.mul(y, z))
            assert be.norm(assoc) / scale <= 1e-12
            assert be.norm((x + y) - (y + x)) == 0.0
            dist = be.mul(x, y + z) - (be.mul(x, y) + be.mul(x, z))
            assert be.norm(dist) / scale <= 1e-12

    def test_norm_definite(self):
        be = TensorBackend()
        assert be.norm(np.zeros((4, 4), dtype=complex)) == 0.0
        assert be.norm(np.eye(4, dtype=complex)) > 0.0

    def test_norm_is_the_frobenius_norm(self):
        be = TensorBackend()
        for x in dense(random_cf_matrix(2, 3, 0))[1]:
            assert be.norm(x) == np.linalg.norm(x)


def with_singular_values(s, seed):
    """U diag(s) V^H with Haar-random complex unitaries U and V."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(random_block(len(s), rng))[0] for _ in range(2))
    return (u * s) @ v.conj().T


class TestInvert:
    def test_exactly_singular_raises(self):
        with pytest.raises(PoleError, match="singular matrix"):
            TensorBackend().invert(np.ones((3, 3), dtype=complex))

    def test_condition_above_1e10_raises(self):
        with pytest.raises(PoleError, match="reciprocal condition number below 1e-10"):
            TensorBackend().invert(np.diag([1.0, 1e-11]).astype(complex))

    def test_well_conditioned_is_the_lu_inverse(self):
        x = with_singular_values(np.array([2.0, 1.0, 0.5, 1e-3]), 3)
        assert np.array_equal(TensorBackend().invert(x), np.linalg.inv(x))

    @settings(max_examples=60, deadline=None)
    @given(log_s=st.lists(st.floats(-12, 0), min_size=1, max_size=8),
           log_min=st.floats(-12, -8), seed=st.integers(0, 2 ** 32 - 1))
    def test_rejects_every_matrix_the_svd_rule_rejects(self, log_s, log_min, seed):
        # kappa_F >= kappa_2: a planted small singular value near the 1e-10 threshold
        x = with_singular_values(10.0 ** np.array([0.0, log_min, *log_s]), seed)
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] < 1e-10 * s[0]:
            with pytest.raises(PoleError):
                TensorBackend().invert(x)


def two_site_minors(seed):
    """Minors of the grid of 2 x 2 blocks at 2 sites that cf-commute and cf-triangle draw at seed."""
    return minors(random_cf_matrix(2, 2, seed), kron)


class TestInvertibilityContract:
    """cf-commute, cf-triangle and delta-family redraw a grid whose M^0 the verifier cannot invert.

    A singular M^0 is a pole: invert raises PoleError, and sampled_max redraws
    the grid at seed + _RETRY_STRIDE like any poled batch.
    """

    SEED = 7
    # check -> params of one grid at 2 sites of 2 x 2 blocks, and the residual of the grid drawn at a seed
    ONE_GRID = {
        "cf-commute": ({"sizes": "2x2", "seeds": 1},
                       lambda s: verify_commuting_family(two_site_minors(s))),
        "cf-triangle": ({"sizes": "2x2", "seeds": 1},
                        lambda s: verify_triangle(two_site_minors(s))),
        "delta-family": ({"n": 2, "k": 2, "seeds": 1},
                         lambda s: delta_family(random_delta_grid(2, 2, s))),
    }

    @staticmethod
    def patch_invert(monkeypatch, fails):
        calls = []
        real = TensorBackend.invert

        def invert(self, x):
            calls.append(x.shape)
            if len(calls) <= fails:
                raise PoleError("planted")
            return real(self, x)

        monkeypatch.setattr(TensorBackend, "invert", invert)
        return calls

    @pytest.mark.parametrize("name", ONE_GRID)
    def test_singular_first_draw_takes_the_bump_one_draw(self, monkeypatch, name):
        params, residual = self.ONE_GRID[name]
        want = residual(self.SEED + sampling._RETRY_STRIDE)
        assert want != residual(self.SEED)
        calls = self.patch_invert(monkeypatch, fails=1)
        assert REGISTRY[name](params, self.SEED) == want
        assert len(calls) == 2

    @pytest.mark.parametrize("name", ONE_GRID)
    def test_eight_singular_draws_raise(self, monkeypatch, name):
        calls = self.patch_invert(monkeypatch, fails=8)
        with pytest.raises(PoleError, match="pole at all 8 seeded batches"):
            REGISTRY[name](self.ONE_GRID[name][0], self.SEED)
        assert len(calls) == 8

    # check -> params of several grids, and the shape of each grid's inverted M^0 in order
    GRIDS = {
        "cf-commute": ({"sizes": "2x2;3x2", "seeds": 2}, [(4, 4), (4, 4), (8, 8), (8, 8)]),
        "cf-triangle": ({"sizes": "2x2;3x2", "seeds": 2}, [(4, 4), (4, 4), (8, 8), (8, 8)]),
        "delta-family": ({"n": 3, "k": 2, "seeds": 2}, [(8, 8), (8, 8)]),
    }

    @pytest.mark.parametrize("name", GRIDS)
    def test_one_inverse_per_grid(self, monkeypatch, name):
        params, shapes = self.GRIDS[name]
        calls = self.patch_invert(monkeypatch, fails=0)
        REGISTRY[name](params, self.SEED)
        assert calls == shapes
