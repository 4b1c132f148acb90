"""Cartier-Foata layer: determinants, commuting families, Plucker identities.

Oracles are test-local: brute-force permutation sums over dense site
elements (a grid's k x k blocks expanded to I x ... x block x ... x I), the
generic recursion with Kronecker products (`kron`), and det-of-pairings for
the decomposable forms.
"""

import gc
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellcert import cfdet, cli, sampling
from ellcert.sampling import STACK_ENTRIES, seed_groups, worst_residual
from ellcert.cfdet import (
    TensorBackend,
    _covectors,
    _forms,
    _plucker_residuals,
    _plucker_terms,
    cf_det,
    commuting_relations,
    decomposable_form,
    delta_family,
    form_apply,
    minors,
    plucker_check,
    plucker_residual,
    random_cf_matrix,
    random_delta_grid,
    tensor_minors,
    triangle_relations,
    verify_commuting_family,
    verify_triangle,
)
from ellcert.checks import REGISTRY
from ellcert.errors import EvaluationOverflowError, PoleError


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


def kron(x, y):
    """np.kron of square matrices: as a grid's product, row r is factor r."""
    a, b = len(x), len(y)
    return np.multiply.outer(x, y).swapaxes(1, 2).reshape(a * b, a * b)


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
            assert plucker_check(order, 1, seed) <= 1e-10

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

    def test_nan_in_a_later_slice_is_an_error(self, monkeypatch, capsys):
        # one stack of five forms, slice 2's terms planted with a NaN: no max may pass over it
        real, slices = cfdet._plucker_terms, []

        def planted(order, L, vectors):
            slices.append(order)
            terms = real(order, L, vectors)
            return [complex("nan"), *terms[1:]] if len(slices) == 3 else terms

        monkeypatch.setattr(cfdet, "_plucker_terms", planted)
        assert seed_groups(5, 4 ** 2) == [range(5)]
        with pytest.raises(EvaluationOverflowError):
            REGISTRY["plucker"]({"orders": "2", "seeds": 5}, 42)
        slices.clear()
        assert cli.main(["check", "plucker", "--param", "orders=2", "--param", "seeds=5"]) == 3
        assert len(slices) == 5 and "PASS" not in capsys.readouterr().out

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


def seeds_of(stack_size, seed=42):
    return range(seed, seed + stack_size)


def old_plucker_draws(order, seed):
    """plucker_check's draws one call per covector matrix and per vector part, as they were made."""
    rng = np.random.default_rng(seed)
    d = 2 * order
    us = rng.normal(size=(order, d)) + 1j * rng.normal(size=(order, d))
    rng = np.random.default_rng(seed + 10_000)
    count = {2: 4, 3: 5, 4: 6}[order]
    return us, [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(count)]


class TestStackedKernels:
    """The one-matmul-per-level recursion against the generic one, and the one-call draws against per-block draws."""

    @pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3, 4) for k in (2, 3)] + [(4, 4)])
    def test_tensor_minors_are_the_kron_recursion(self, n, k):
        seeds = seeds_of(2, seed=n + 10 * k)
        got = tensor_minors(np.stack([random_cf_matrix(n, k, s) for s in seeds]))
        assert got.shape == (n + 1, len(seeds), k ** n, k ** n)
        for slot, s in enumerate(seeds):
            for i, want in enumerate(minors(random_cf_matrix(n, k, s), kron)):
                assert np.max(np.abs(got[i, slot] - want)) <= 1e-13 * np.max(np.abs(want))

    def test_unstacked_grid_gives_unstacked_minors(self):
        grid = random_cf_matrix(2, 3, 5)
        assert np.array_equal(tensor_minors(grid), tensor_minors(grid[None])[:, 0])

    def test_tensor_minors_reject_wrong_shapes(self):
        with pytest.raises(ValueError):
            tensor_minors(np.ones((2, 2, 2, 2)))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_stacked_forms_are_the_outer_product_recursion(self, order):
        us = np.stack([_covectors(order, s) for s in seeds_of(3)])
        got = _forms(us)
        assert got.shape == (3,) + (2 * order,) * order
        for slot, u in enumerate(us):
            want = cf_det([u] * order, np.multiply.outer)
            assert np.max(np.abs(got[slot] - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,k", [(1, 2), (2, 3), (3, 2), (4, 3)])
    def test_one_call_draws_are_the_per_block_draws(self, n, k):
        for s in seeds_of(3):
            assert np.array_equal(random_cf_matrix(n, k, s), np.array(random_blocks(n, n + 1, k, s)))
            assert np.array_equal(random_delta_grid(n, k, s), np.array(random_blocks(n + 1, n, k, s)))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_stacked_plucker_check_is_the_per_seed_one(self, order):
        # the draws bit for bit, and each form and residual independent of the stack
        seeds = seeds_of(5)
        wants = []
        for s in seeds:
            us, vectors = old_plucker_draws(order, s)
            assert np.array_equal(_covectors(order, s), us)
            wants.append(plucker_residual(order, decomposable_form(order, s), vectors))
        assert plucker_check(order, len(seeds), seeds[0]) == max(wants)


class TestSeedGroups:
    """A stack of seeds gives every seed's residual bit for bit as a stack of one."""

    def test_plucker_stacks_are_the_seeds_one_at_a_time(self):
        # order 4 holds 16 seeds a group, so 20 seeds cross a group boundary
        assert seed_groups(20, 8 ** 4) == [range(0, 16), range(16, 20)]
        assert plucker_check(4, 20, 42) == max(plucker_check(4, 1, 42 + s) for s in range(20))

    # the benchmark's dense sizes, with as many seeds as it stacks (4x3 holds one seed; two here)
    CF = [("2x2", 20), ("2x3", 20), ("3x2", 20), ("3x3", 20), ("4x2", 20), ("4x3", 2)]

    @pytest.mark.parametrize("size,count", CF)
    def test_cf_residuals_do_not_depend_on_the_stack(self, size, count):
        n, k = map(int, size.split("x"))
        grids = np.stack([random_cf_matrix(n, k, s) for s in seeds_of(count)])
        for relations in (commuting_relations, triangle_relations):
            stacked = np.array(relations(tensor_minors(grids)))
            alone = [worst_residual(relations(tensor_minors(grids[slot:slot + 1]))) for slot in range(count)]
            assert stacked.shape[-1] == count
            assert [worst_residual(stacked[..., slot]) for slot in range(count)] == alone

    @pytest.mark.parametrize("n,k,count", [(3, 2, 20), (4, 3, 2)])
    def test_delta_family_does_not_depend_on_the_stack(self, n, k, count):
        fgrids = np.stack([random_delta_grid(n, k, s) for s in seeds_of(count)])
        stacked = np.array(commuting_relations(tensor_minors(fgrids.swapaxes(-4, -3))))
        for slot in range(count):
            assert delta_family(fgrids[slot:slot + 1]) == worst_residual(stacked[..., slot])

    @pytest.mark.parametrize("order,count", [(2, 200), (3, 200), (4, 16)])
    def test_plucker_residuals_do_not_depend_on_the_stack(self, order, count):
        seeds = seeds_of(count)
        lam = _forms(np.stack([_covectors(order, s) for s in seeds]))
        vectors = [np.stack(vs) for vs in zip(*(old_plucker_draws(order, s)[1] for s in seeds))]
        stacked = _plucker_residuals(order, lam, vectors)
        alone = [_plucker_residuals(order, lam[slot:slot + 1], [x[slot:slot + 1] for x in vectors])[0]
                 for slot in range(count)]
        assert stacked == alone

    def test_group_sizes(self):
        # the largest stacked array per seed: n+1 minors of k^n x k^n, or a form of (2 order)^order entries
        assert STACK_ENTRIES == 2 ** 16
        for n, k in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            assert seed_groups(20, (n + 1) * k ** (2 * n)) == [range(0, 20)]
        assert seed_groups(20, 5 * 3 ** 8) == [range(s, s + 1) for s in range(20)]
        assert seed_groups(200, 6 ** 3) == [range(0, 200)]
        assert seed_groups(200, 8 ** 4) == [range(s, min(s + 16, 200)) for s in range(0, 200, 16)]
        assert seed_groups(0, 1) == []

    def test_plucker_leaves_no_reference_cycle(self):
        REGISTRY["plucker"]({"orders": "2,3,4", "seeds": 2}, 1)
        gc.collect()
        gc.disable()
        try:
            REGISTRY["plucker"]({"orders": "2,3,4", "seeds": 20}, 42)
            assert gc.collect() == 0
        finally:
            gc.enable()


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
    return tensor_minors(random_cf_matrix(2, 2, seed))


def cf_m0(n, k, seed):
    """M^0 of the n x (n+1) grid that cf-commute and cf-triangle draw at seed."""
    return tensor_minors(random_cf_matrix(n, k, seed))[0]


def delta_m0(n, k, seed):
    """Delta_0 of the grid that delta-family draws at seed."""
    return tensor_minors(np.swapaxes(random_delta_grid(n, k, seed), -4, -3))[0]


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

    # check -> params of several grids, and the shape of each inverted stack of M^0 in order:
    # one stack per group of seeds, one slice per grid
    GRIDS = {
        "cf-commute": ({"sizes": "2x2;3x2", "seeds": 2}, [(2, 4, 4), (2, 8, 8)]),
        "cf-triangle": ({"sizes": "2x2;3x2", "seeds": 2}, [(2, 4, 4), (2, 8, 8)]),
        "delta-family": ({"n": 3, "k": 2, "seeds": 2}, [(2, 8, 8)]),
    }

    @pytest.mark.parametrize("name", GRIDS)
    def test_one_inverse_per_grid(self, monkeypatch, name):
        params, shapes = self.GRIDS[name]
        calls = self.patch_invert(monkeypatch, fails=0)
        REGISTRY[name](params, self.SEED)
        assert calls == shapes

    @staticmethod
    def record_invert(monkeypatch, fails):
        """Like patch_invert, but records each inverted stack itself."""
        stacks = []
        real = TensorBackend.invert

        def invert(self, x):
            stacks.append(x)
            if len(stacks) <= fails:
                raise PoleError("planted")
            return real(self, x)

        monkeypatch.setattr(TensorBackend, "invert", invert)
        return stacks

    # check -> (params, n, k) of one group of two seeds, of two groups of one seed (4 sites of
    # 3 x 3 blocks), M^0 of the grid drawn at (n, k, seed), and the residual of that grid
    TWO_SEEDS = {
        "cf-commute": ({"sizes": "2x2", "seeds": 2}, {"sizes": "4x3", "seeds": 2}, cf_m0,
                       lambda n, k, s: verify_commuting_family(tensor_minors(random_cf_matrix(n, k, s)))),
        "cf-triangle": ({"sizes": "2x2", "seeds": 2}, {"sizes": "4x3", "seeds": 2}, cf_m0,
                        lambda n, k, s: verify_triangle(tensor_minors(random_cf_matrix(n, k, s)))),
        "delta-family": ({"n": 2, "k": 2, "seeds": 2}, {"n": 4, "k": 3, "seeds": 2}, delta_m0,
                         lambda n, k, s: delta_family(random_delta_grid(n, k, s))),
    }

    @pytest.mark.parametrize("name", TWO_SEEDS)
    def test_pole_in_a_group_of_two_redraws_both(self, monkeypatch, name):
        params, _, m0, residual = self.TWO_SEEDS[name]
        bumped = self.SEED + sampling._RETRY_STRIDE
        want = max(residual(2, 2, bumped), residual(2, 2, bumped + 1))
        stacks = self.record_invert(monkeypatch, fails=1)
        assert REGISTRY[name](params, self.SEED) == want
        drawn = [[self.SEED, self.SEED + 1], [bumped, bumped + 1]]
        assert len(stacks) == len(drawn)
        for stack, seeds in zip(stacks, drawn):
            assert np.array_equal(stack, np.stack([m0(2, 2, s) for s in seeds]))

    @pytest.mark.parametrize("name", TWO_SEEDS)
    def test_pole_in_a_group_of_one_redraws_that_seed(self, monkeypatch, name):
        # as with one seed: the poled grid is redrawn, the next seed is drawn as it is
        _, params, m0, residual = self.TWO_SEEDS[name]
        bumped = self.SEED + sampling._RETRY_STRIDE
        want = max(residual(4, 3, bumped), residual(4, 3, self.SEED + 1))
        stacks = self.record_invert(monkeypatch, fails=1)
        assert REGISTRY[name](params, self.SEED) == want
        drawn = [self.SEED, bumped, self.SEED + 1]
        assert len(stacks) == len(drawn)
        for stack, s in zip(stacks, drawn):
            assert np.array_equal(stack, m0(4, 3, s)[None])
