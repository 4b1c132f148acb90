"""Cartier-Foata layer: determinants, commuting families, Plucker identities.

Oracles are test-local: brute-force permutation sums over raw kron matrices,
and det-of-pairings for the decomposable forms.
"""

import itertools

import numpy as np
import pytest

from ellcert.cfdet import (
    TensorBackend,
    cf_det,
    decomposable_form,
    delta_family,
    form_apply,
    minors,
    plucker_check,
    plucker_residual,
    random_cf_matrix,
    random_delta_grid,
    verify_commuting_family,
    verify_triangle,
)
from ellcert.errors import SingularOperatorError


class ScalarBackend:
    """Plain complex numbers; the commutative sanity case."""

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def norm(self, x):
        return abs(x)

    def invert(self, x):
        if abs(x) < 1e-12:
            raise SingularOperatorError("zero scalar")
        return 1 / x


class CountingBackend(ScalarBackend):
    """Scalar backend that counts its products."""

    def __init__(self):
        self.muls = 0

    def mul(self, x, y):
        self.muls += 1
        return x * y


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


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
        be = ScalarBackend()
        assert cf_det([[3 + 1j]], be) == 3 + 1j

    def test_scalar_entries_reduce_to_numpy_det(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = cf_det([[A[i, j] for j in range(4)] for i in range(4)], ScalarBackend())
        assert abs(got - np.linalg.det(A)) < 1e-10 * abs(np.linalg.det(A))

    def test_tensor_n2_against_brute_force(self):
        be = TensorBackend(2, 2)
        rng = np.random.default_rng(5)
        grid = [[be.random_site_element(i, rng) for _ in range(2)] for i in range(2)]
        # two-term expansion computed independently
        want = grid[0][0] @ grid[1][1] - grid[0][1] @ grid[1][0]
        got = cf_det(grid, be)
        assert np.allclose(got, want, atol=1e-12)

    def test_row_order_independence(self):
        # commuting rows: permuting them only multiplies the determinant by the sign
        be = TensorBackend(3, 2)
        rng = np.random.default_rng(8)
        grid = [[be.random_site_element(i, rng) for _ in range(3)] for i in range(3)]
        base = cf_det(grid, be)
        scale = max(1.0, be.norm(base))
        for order in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
            alt = cf_det([grid[r] for r in order], be)
            assert be.norm(alt - perm_sign(order) * base) / scale <= 1e-10

    def test_rejects_wrong_shapes(self):
        be = ScalarBackend()
        with pytest.raises(ValueError):
            cf_det([[1, 2, 3], [4, 5, 6]], be)
        with pytest.raises(ValueError):
            minors([[1, 2], [3, 4]], be)


class TestMinors:
    def test_n1_column_deletion_convention(self):
        # [a b] -> (M^0, M^1) = (b, a)
        assert minors([[2 + 0j, 5 + 0j]], ScalarBackend()) == [5 + 0j, 2 + 0j]

    def test_scalar_classical_minors(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(3, 4))
        got = minors([[complex(A[i, j]) for j in range(4)] for i in range(3)], ScalarBackend())
        for i in range(4):
            want = np.linalg.det(np.delete(A, i, axis=1))
            assert abs(got[i] - want) < 1e-12 * max(1, abs(want))

    def test_one_recursion_for_all_minors(self):
        # sum over levels k = 2..4 of C(5, k) * k products; n+1 permutation sums take 360
        rng = np.random.default_rng(6)
        A = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        be = CountingBackend()
        got = minors([list(row) for row in A], be)
        assert be.muls == 70
        for i in range(5):
            want = np.linalg.det(np.delete(A, i, axis=1))
            assert abs(got[i] - want) < 1e-12 * max(1, abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tensor_against_brute_force(self, n):
        be = TensorBackend(n, 2)
        grid = random_cf_matrix(be, 11)
        got = minors(grid, be)
        for i in range(n + 1):
            want = brute_perm_det([[row[c] for c in range(n + 1) if c != i] for row in grid])
            assert np.allclose(got[i], want, atol=1e-9)


class TestCommutingFamily:
    def test_rows_commute_witness(self):
        # sampled witness for the commuting-rows declaration
        be = TensorBackend(3, 2)
        grid = random_cf_matrix(be, 2)
        rng = np.random.default_rng(0)
        for _ in range(8):
            i, j = rng.choice(3, size=2, replace=False)
            x, y = grid[i][rng.integers(0, 4)], grid[j][rng.integers(0, 4)]
            scale = max(1.0, be.norm(x) * be.norm(y))
            assert be.norm(x @ y - y @ x) / scale < 1e-12

    def test_n1_trivial(self):
        be = TensorBackend(1, 2)
        assert verify_commuting_family(minors(random_cf_matrix(be, 3), be), be) < 1e-12

    @pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2)])
    def test_residual_small(self, n, k):
        be = TensorBackend(n, k)
        for seed in range(3):
            try:
                r = verify_commuting_family(minors(random_cf_matrix(be, seed), be), be)
            except SingularOperatorError:
                continue
            assert r <= 1e-9


class TestTriangle:
    def test_equal_indices_zero(self):
        # a repeated minor exchanges with itself exactly; M^0 pairs only round
        be = TensorBackend(2, 2)
        m0, m1, _ = minors(random_cf_matrix(be, 7), be)
        assert verify_triangle([m0, m1, m1], be) <= 1e-13

    def test_scalar_case_zero(self):
        rng = np.random.default_rng(4)
        grid = [[complex(x) for x in row] for row in rng.normal(size=(3, 4))]
        assert verify_triangle(minors(grid, ScalarBackend()), ScalarBackend()) < 1e-12

    def test_tensor_residual_small(self):
        be = TensorBackend(3, 2)
        assert verify_triangle(minors(random_cf_matrix(be, 21), be), be) <= 1e-9


class TestDeltaFamily:
    def test_n1_trivial(self):
        be = TensorBackend(1, 2)
        assert delta_family(random_delta_grid(be, 0), be) < 1e-12

    def test_scalar_zero(self):
        rng = np.random.default_rng(2)
        n = 3
        grid = [[complex(rng.normal(), rng.normal()) for _ in range(n)] for _ in range(n + 1)]
        assert delta_family(grid, ScalarBackend()) < 1e-10

    def test_tensor_site_structure(self):
        be = TensorBackend(3, 2)
        for seed in range(3):
            assert delta_family(random_delta_grid(be, seed), be) <= 1e-9


class TestPlucker:
    def test_repeated_argument_degeneracy(self):
        lam = decomposable_form(2, 4, 3)
        rng = np.random.default_rng(3)
        a, b, d = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3))
        assert plucker_residual(2, lam, [a, b, b, d]) < 1e-12

    def test_form_is_partial_determinant(self):
        # decomposable_form must evaluate as det of pairings (the oracle).
        rng = np.random.default_rng(9)
        gen = np.random.default_rng(5)
        us = gen.normal(size=(3, 6)) + 1j * gen.normal(size=(3, 6))
        lam = decomposable_form(3, 6, 5)
        xs = [rng.normal(size=6) for _ in range(3)]
        want = np.linalg.det(np.array([[u @ x for x in xs] for u in us]))
        got = form_apply(lam, *xs)
        assert abs(got - want) < 1e-9 * max(1, abs(want))

    @pytest.mark.parametrize("order,d", [(2, 4), (3, 6), (4, 8)])
    def test_identities(self, order, d):
        for seed in range(8):
            assert plucker_check(order, d, seed) <= 1e-10

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
        be = TensorBackend(2, 2)
        rng = np.random.default_rng(12)
        for _ in range(5):
            x, y, z = (be.random_site_element(rng.integers(0, 2), rng) for _ in range(3))
            scale = max(1.0, be.norm(x) * be.norm(y) * be.norm(z))
            assoc = be.mul(be.mul(x, y), z) - be.mul(x, be.mul(y, z))
            assert be.norm(assoc) / scale <= 1e-12
            assert be.norm(be.add(x, y) - be.add(y, x)) == 0.0
            dist = be.mul(x, be.add(y, z)) - be.add(be.mul(x, y), be.mul(x, z))
            assert be.norm(dist) / scale <= 1e-12

    def test_norm_definite(self):
        be = TensorBackend(2, 2)
        assert be.norm(be.zero()) == 0.0
        assert be.norm(be.one()) > 0.0
