"""Cartier-Foata determinants over partially commutative rings.

A determinant is given its ring's product mul(x, y); it sums with + and
negates with unary -.  Entries of an n x (n+1) grid whose rows live in
pairwise commuting subalgebras admit a well defined determinant per n x n
minor: the permutation sum with products taken in row order (Cartier &
Foata, LNM 85, 1969).  The ratios H_i = (M^0)^-1 M^i then commute, and the
triangle relations M^i (M^0)^-1 M^j = M^j (M^0)^-1 M^i hold; both are
certified here over an exact finite-dimensional tensor model.

Every determinant comes from one row-ordered Laplace recursion over column
sets: level k holds the C(width, k) determinants of the first k rows, each
k products from level k-1.  All n+1 minors of an n x (n+1) grid thus cost
C(n+1, k) * k products at each level k = 2..n, 70 in all at n = 4 (n+1
permutation sums take 360), and no size cap is needed.

In the tensor model row r holds k x k blocks acting on site r, so each product
is an outer product of a partial determinant (sites 0..r-1) and a block.
`tensor_minors` runs the recursion on a stack of grids (one per seed) with one
array per level: level r+1 is one matmul of level r by a sign pattern of row
r's blocks, and one axis permutation at the end gives the k^n x k^n minors, so
no Kronecker product is formed.  The ratios' relations for `sampling` are
computed densely (`TensorBackend`), slice by slice, with matrix products, one
LU inverse per grid and Frobenius norms: no singular-value decomposition.
Every product acts on one slice at a time, so a seed's residual does not
depend on the stack it is in; `sampling.seeds_max` stacks a check's grids.

Also houses the multilinear Plucker identities used by the Poisson layer;
these hold for decomposable alternating forms (partial determinants), which
is how they arise, and fail for generic antisymmetric arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .errors import PoleError
from .sampling import worst_residual


class TensorBackend:
    """Elements are k^n x k^n matrices; site i is the i-th tensor factor.

    Any leading axes of an element are a stack, one matrix per slice, and
    every operation acts slice by slice.  Distinct-site generators commute
    exactly, and inverses exist concretely, which makes this the reference
    model for the commuting-rows hypothesis.  `norm` is the Frobenius norm of
    each slice.  It is submultiplicative, so the residual of a relation
    (|[x, y]|, |x| |y|) (`commuting_relations`) stays relative, at most 2.
    A singular M^0 is a pole of the ratios: `invert` raises PoleError when
    some slice is singular or has kappa_F = |x| |x^-1| above 1e10 (since
    kappa_F >= kappa_2, for every x whose spectral condition number exceeds
    1e10, and possibly some more).
    """

    def mul(self, x, y):
        return x @ y

    def norm(self, x):
        """np.linalg.norm of each slice, bit for bit: the dot products of its real and its imaginary parts."""
        flat = x.reshape(*x.shape[:-2], 1, -1)
        re, im = flat.real, flat.imag
        return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]

    def invert(self, x):
        try:
            inv = np.linalg.inv(x)
        except np.linalg.LinAlgError:
            raise PoleError("singular matrix") from None
        if not np.all(self.norm(x) * self.norm(inv) <= 1e10):  # a nan is rejected too
            raise PoleError("reciprocal condition number below 1e-10")
        return inv


def _random_blocks(m: int, n: int, k: int, seed: int) -> np.ndarray:
    """m x n grid of complex normal k x k blocks, shape (m, n, k, k), from one draw:
    block by block, row by row, each its real then its imaginary part."""
    re, im = np.moveaxis(np.random.default_rng(seed).normal(size=(m, n, 2, k, k)), 2, 0)
    return re + 1j * im


def random_cf_matrix(n: int, k: int, seed: int) -> np.ndarray:
    """n x (n+1) grid of k x k blocks; row i acts on site i only, so rows commute."""
    return _random_blocks(n, n + 1, k, seed)


def _column_sets(grid, mul) -> list:
    """D[S] for every set S of len(grid) columns, the sets in lexicographic order.

    D[S] is the determinant of the rows 0..|S|-1 on the columns S, expanded
    along its last row:  D[S] = sum_{c in S} (-1)^#{c' in S: c' > c}
    D[S - c] * grid[|S|-1][c], the products by mul(x, y), the terms and
    signs those of `_level_pattern`.  Every product keeps the row order, so
    the value is the fixed-row-order permutation sum, exact over any ring.
    """
    width = len(grid[0])
    level = list(grid[0])
    for r in range(1, len(grid)):
        nxt = [None] * math.comb(width, r + 1)
        for t, u, c, sign in zip(*(a.ravel().tolist() for a in _level_pattern(width, r))):
            term = mul(level[t], grid[r][c])
            if sign < 0:
                term = -term
            nxt[u] = term if nxt[u] is None else nxt[u] + term
        level = nxt
    return level


def cf_det(grid, mul):
    """Determinant of a square grid with products mul(x, y) taken in row order."""
    if any(len(row) != len(grid) for row in grid):
        raise ValueError("cf_det needs a square grid")
    (det,) = _column_sets(grid, mul)
    return det


def minors(grid, mul) -> list:
    """M^0 ... M^n of an n x (n+1) grid: the determinant with column i deleted.

    For ring elements that are not arrays (shiftops.theta_column_minors);
    a stack of tensor grids takes tensor_minors.
    """
    if any(len(row) != len(grid) + 1 for row in grid):
        raise ValueError("minors needs an n x (n+1) grid")
    # the n-sets come in lexicographic order, the one without column i i-th from the end
    return _column_sets(grid, mul)[::-1]


@functools.lru_cache(maxsize=None)
def _level_pattern(width: int, r: int) -> tuple:
    """Index arrays of the sign pattern that takes level r of the Laplace recursion to level r+1.

    One entry per r-set T of range(width) and column c not in T: the position
    of T among the r-sets and of T + {c} among the (r+1)-sets (lexicographic
    order), the column c, and the sign (-1)^#{c' in T: c' > c}.
    """
    position = {cols: i for i, cols in enumerate(itertools.combinations(range(width), r))}
    entries = [(position[cols[:pos] + cols[pos + 1:]], u, c, (-1) ** (r - pos))
               for u, cols in enumerate(itertools.combinations(range(width), r + 1))
               for pos, c in enumerate(cols)]
    t, u, c, sign = (np.array(a) for a in zip(*entries))
    return t, u, c, sign[:, None, None]


def _laplace(rows) -> np.ndarray:
    """_column_sets of a stack of m x width grids whose products are outer products.

    rows has shape (stack, m, width, b), each block flattened to b entries.
    Returns shape (stack, b**m, C(width, m)): column U holds D[U] for the
    U-th m-set in lexicographic order, flattened with row r's index the r-th
    most significant.  Level r is one array, and level r+1 is one matmul:
    level r times the sign pattern of row r's blocks, which holds
    (-1)^#{c' in T: c' > c} block_c in row T and column (q, T + {c}).
    """
    stack, m, width, b = rows.shape
    level = rows[:, 0].swapaxes(1, 2)
    for r in range(1, m):
        t, u, c, sign = _level_pattern(width, r)
        pattern = np.zeros((stack, level.shape[2], b, math.comb(width, r + 1)), dtype=complex)
        pattern[:, t, :, u] = sign * rows[:, r, c].swapaxes(0, 1)
        level = (level @ pattern.reshape(stack, level.shape[2], -1)).reshape(stack, -1, pattern.shape[3])
    return level


def tensor_minors(grids) -> np.ndarray:
    """M^0 ... M^n of n x (n+1) grids of k x k blocks, row r acting on site r.

    grids has shape (..., n, n+1, k, k), any leading axes a stack; the result
    has shape (n+1, ..., k^n, k^n), M^i the determinant with column i
    deleted.  The recursion's outer products hold the row and column index
    of each site side by side; one axis permutation puts the n row indices
    before the n column indices, which is the Kronecker product of the blocks.
    """
    grids = np.asarray(grids)
    *stack, n, width, k, _ = grids.shape
    if width != n + 1:
        raise ValueError("tensor_minors needs n x (n+1) grids")
    level = _laplace(grids.reshape(-1, n, width, k * k)).reshape(-1, *(k,) * (2 * n), width)
    # the n-sets come in lexicographic order, the one without column i i-th from the end
    sites = level.transpose(2 * n + 1, 0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2))[::-1]
    return sites.reshape(width, *stack, k ** n, k ** n)


def commuting_relations(ms) -> list:
    """(|[H_i, H_j]|, |H_i| |H_j|) of every pair i < j, per stack slice, H_i = ms[0]^-1 ms[i]."""
    be = TensorBackend()
    inv0 = be.invert(ms[0])
    hs = [be.mul(inv0, d) for d in ms[1:]]
    norms = [be.norm(h) for h in hs]
    return [(be.norm(be.mul(hs[i], hs[j]) - be.mul(hs[j], hs[i])), norms[i] * norms[j])
            for i in range(len(hs)) for j in range(i + 1, len(hs))]


def verify_commuting_family(ms) -> float:
    """max over pairs, and over the stack, of the commuting_relations' residuals."""
    return worst_residual(commuting_relations(ms))


def triangle_relations(ms) -> list:
    """(|M^i (M^0)^-1 M^j - M^j (M^0)^-1 M^i|, |M^i| |(M^0)^-1| |M^j|) of every
    pair 1 <= i < j, per stack slice."""
    be = TensorBackend()
    inv0, rest = be.invert(ms[0]), ms[1:]
    norms, norm0 = [be.norm(m) for m in rest], be.norm(inv0)
    ratios = [be.mul(inv0, m) for m in rest]
    return [(be.norm(be.mul(rest[i], ratios[j]) - be.mul(rest[j], ratios[i])), norms[i] * norm0 * norms[j])
            for i in range(len(rest)) for j in range(i + 1, len(rest))]


def verify_triangle(ms) -> float:
    """max over 1 <= i < j, and over the stack, of the residual of M^i (M^0)^-1 M^j = M^j (M^0)^-1 M^i
    (triangle_relations).

    The pairs with i = 0 are left out: M^0 (M^0)^-1 M^j = M^j (M^0)^-1 M^0
    holds for any invertible M^0, so they would test only the inverse.
    """
    return worst_residual(triangle_relations(ms))


def delta_family(fgrid) -> float:
    """Commutation residual for H_i = Delta_0^-1 Delta_i built from f_{i,j}, max over the stack.

    fgrid[..., i, j-1] holds the k x k block of f_{i,j} for 0 <= i <= n,
    1 <= j <= n, acting on site j-1, so elements with different second index
    commute.  Delta_I = sum over bijections sigma: I -> {1..n} of
    sign(sigma) * prod f_{i, sigma(i)}, and Delta_i omits the first index i.
    """
    return verify_commuting_family(delta_minors(fgrid))


def delta_minors(fgrid) -> np.ndarray:
    """Delta_0 .. Delta_n of delta_family's grids: the tensor_minors of their
    transpose, whose row r collects second index r+1, the blocks of site r."""
    return tensor_minors(np.swapaxes(fgrid, -4, -3))


def random_delta_grid(n: int, k: int, seed: int) -> np.ndarray:
    """(n+1) x n grid of k x k blocks, f_{i,j} at site j-1: the natural commuting realization."""
    return _random_blocks(n + 1, n, k, seed)


# Plucker identities -----------------------------------------------------------


def _covectors(order: int, seed: int) -> np.ndarray:
    """`order` complex normal covectors in dimension 2*order: all real parts, then all imaginary parts."""
    re, im = np.random.default_rng(seed).normal(size=(2, order, 2 * order))
    return re + 1j * im


def _forms(us) -> np.ndarray:
    """det[u_i(x_j)] for each stack slice of covectors us (stack, order, d): shape (stack, d, ..., d)."""
    stack, order, d = us.shape
    rows = np.broadcast_to(us[:, None], (stack, order, order, d))  # covector row r becomes tensor axis r
    return _laplace(rows).reshape(stack, *(d,) * order)


def decomposable_form(order: int, seed: int) -> np.ndarray:
    """Antisymmetrization of the outer product of `order` random covectors in
    dimension d = 2*order, the least that leaves room for generic vectors.

    Evaluates as det[u_i(x_j)], i.e. a partial determinant; the Plucker
    identities are identities for exactly this class of forms.
    """
    return _forms(_covectors(order, seed)[None])[0]


def _contract(v, x) -> np.ndarray:
    """v (stack, d*M) contracted with x (stack, d) on its first form axis: (stack, M).

    One BLAS product per slice, so a slice's bits do not depend on the stack.
    """
    stack, d = x.shape
    return (x[:, None, :] @ v.reshape(stack, d, -1))[:, 0]


def form_apply(lam: np.ndarray, *vectors) -> complex:
    v = np.reshape(lam, (1, -1))
    for x in vectors:
        v = _contract(v, np.reshape(x, (1, -1)))
    return complex(v.item())


def _plucker_residuals(order: int, lam: np.ndarray, vectors: Sequence[np.ndarray]) -> list:
    """|stated combination| / max term of each stack slice, lam (..., d, ..., d) and each vector (..., d).

    The form values are contracted on the whole stack, each argument prefix
    once (the terms share them).  Each slice combines its values as Python
    complex scalars, in the order _plucker_terms states them, so a residual
    is the one form_apply's values give: numpy's complex array product may
    round differently (a fused multiply-add on some CPUs).
    """
    d = np.shape(lam)[-1]
    xs = [np.reshape(x, (-1, d)) for x in vectors]
    partial = {(): np.reshape(lam, (len(xs[0]), -1))}  # lam contracted with each argument prefix
    values = {}

    def value(args):  # the form at vectors[args], one Python complex per slice
        if args not in values:
            for i in range(1, len(args) + 1):
                if args[:i] not in partial:
                    partial[args[:i]] = _contract(partial[args[:i - 1]], xs[args[i - 1]])
            values[args] = partial[args][:, 0].tolist()
        return values[args]

    worst = []
    for s in range(len(xs[0])):
        terms = _plucker_terms(order, lambda *args: value(args)[s], range(len(xs)))
        worst.append(abs(sum(terms)) / max(max(abs(t) for t in terms), 1e-300))
    return worst


def plucker_residual(order: int, lam: np.ndarray, vectors: Sequence[np.ndarray]) -> float:
    """|stated combination| / max term, for the 3-, 4- or 6-term identity; the max over the stack."""
    return max(_plucker_residuals(order, lam, vectors))


def _plucker_terms(order: int, L, vectors) -> list:
    """The terms of the identity of this order; L(*xs) applies the form to xs."""
    if order == 2:
        a, b, c, d = vectors
        return [L(a, b) * L(c, d), -L(a, c) * L(b, d), L(a, d) * L(b, c)]
    if order == 3:
        a, b, c, bp, cp = vectors
        return [
            L(b, c, cp) * L(a, c, bp) * L(b, bp, cp),
            L(b, c, bp) * L(c, bp, cp) * L(a, b, cp),
            -L(b, c, bp) * L(a, c, cp) * L(b, bp, cp),
            -L(b, c, cp) * L(c, bp, cp) * L(a, b, bp),
        ]
    if order == 4:
        a, b, c, ap, bp, cp = vectors
        return [
            L(b, c, bp, cp) * L(a, c, ap, cp) * L(a, b, ap, bp),
            L(b, c, ap, cp) * L(a, c, ap, bp) * L(a, b, bp, cp),
            L(b, c, ap, bp) * L(a, c, bp, cp) * L(a, b, ap, cp),
            -L(b, c, bp, cp) * L(a, c, ap, bp) * L(a, b, ap, cp),
            -L(b, c, ap, bp) * L(a, c, ap, cp) * L(a, b, bp, cp),
            -L(b, c, ap, cp) * L(a, c, bp, cp) * L(a, b, ap, bp),
        ]
    raise ValueError("plucker identities implemented for orders 2, 3, 4")


_PLUCKER_VECTOR_COUNT = {2: 4, 3: 5, 4: 6}


def plucker_check(order: int, *seeds: int) -> float:
    """Max residual over seeded random decomposable forms and generic vectors,
    one of each per seed, certified as one stack."""
    lam = _forms(np.stack([_covectors(order, s) for s in seeds]))
    shape = (_PLUCKER_VECTOR_COUNT[order], 2, 2 * order)  # vector by vector, its real then its imaginary part
    draws = np.stack([np.random.default_rng(s + 10_000).normal(size=shape) for s in seeds])
    vectors = draws[:, :, 0] + 1j * draws[:, :, 1]
    return plucker_residual(order, lam, list(vectors.swapaxes(0, 1)))
