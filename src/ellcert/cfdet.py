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
is the Kronecker product of a partial determinant (sites 0..r-1) and a block
(`kron`); `TensorBackend` verifies the ratios densely, with matrix products,
one LU inverse per grid and Frobenius norms: no singular-value decomposition.

Also houses the multilinear Plucker identities used by the Poisson layer;
these hold for decomposable alternating forms (partial determinants), which
is how they arise, and fail for generic antisymmetric arrays.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import PoleError
from .sampling import rel_residual


class TensorBackend:
    """Elements are k^n x k^n matrices; site i is the i-th Kronecker factor.

    Distinct-site generators commute exactly, and inverses exist concretely,
    which makes this the reference model for the commuting-rows hypothesis.
    `norm` is the Frobenius norm.  It is submultiplicative, so a residual
    rel_residual(|[x, y]|, |x| |y|) stays a relative residual, bounded by 2.
    A singular M^0 is a pole of the ratios: `invert` raises PoleError when
    kappa_F = |x| |x^-1| exceeds 1e10 (since kappa_F >= kappa_2, for every x
    whose spectral condition number exceeds 1e10, and possibly some more).
    """

    def mul(self, x, y):
        return x @ y

    def norm(self, x) -> float:
        return float(np.linalg.norm(x))

    def invert(self, x):
        try:
            inv = np.linalg.inv(x)
        except np.linalg.LinAlgError:
            raise PoleError("singular matrix") from None
        if not np.linalg.norm(x) * np.linalg.norm(inv) <= 1e10:  # a nan is rejected too
            raise PoleError("reciprocal condition number below 1e-10")
        return inv


def kron(x, y):
    """np.kron of square matrices without its shape dispatch; as a grid's product, row r is factor r."""
    a, b = len(x), len(y)
    return np.multiply.outer(x, y).swapaxes(1, 2).reshape(a * b, a * b)


def _random_blocks(m: int, n: int, k: int, seed: int) -> list:
    """m x n grid of complex normal k x k blocks (real, then imaginary part), drawn row by row."""
    rng = np.random.default_rng(seed)
    return [[rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for _ in range(n)] for _ in range(m)]


def random_cf_matrix(n: int, k: int, seed: int) -> list:
    """n x (n+1) grid of k x k blocks; row i acts on site i only, so rows commute."""
    return _random_blocks(n, n + 1, k, seed)


def _column_sets(grid, mul) -> dict:
    """D[S] for every set S of len(grid) columns, keyed by S in increasing order.

    D[S] is the determinant of the rows 0..|S|-1 on the columns S, expanded
    along its last row:  D[S] = sum_{c in S} (-1)^#{c' in S: c' > c}
    D[S - c] * grid[|S|-1][c], the products by mul(x, y).  Every product
    keeps the row order, so the value is the fixed-row-order permutation sum,
    exact over any ring.
    """
    width = len(grid[0])
    level = {(c,): grid[0][c] for c in range(width)}
    for r in range(1, len(grid)):
        nxt = {}
        for cols in itertools.combinations(range(width), r + 1):
            total = None
            for pos, c in enumerate(cols):
                term = mul(level[cols[:pos] + cols[pos + 1:]], grid[r][c])
                if (r - pos) % 2:
                    term = -term
                total = term if total is None else total + term
            nxt[cols] = total
        level = nxt
    return level


def cf_det(grid, mul):
    """Determinant of a square grid with products mul(x, y) taken in row order."""
    if any(len(row) != len(grid) for row in grid):
        raise ValueError("cf_det needs a square grid")
    (det,) = _column_sets(grid, mul).values()
    return det


def minors(grid, mul) -> list:
    """M^0 ... M^n of an n x (n+1) grid: the determinant with column i deleted."""
    if any(len(row) != len(grid) + 1 for row in grid):
        raise ValueError("minors needs an n x (n+1) grid")
    # the n-sets come in lexicographic order, the one without column i i-th from the end
    return list(_column_sets(grid, mul).values())[::-1]


def verify_commuting_family(ms) -> float:
    """max over pairs of rel_residual(|[H_i, H_j]|, |H_i| |H_j|), H_i = ms[0]^-1 ms[i]."""
    be = TensorBackend()
    inv0 = be.invert(ms[0])
    hs = [be.mul(inv0, d) for d in ms[1:]]
    norms = [be.norm(h) for h in hs]
    worst = 0.0
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            comm = be.mul(hs[i], hs[j]) - be.mul(hs[j], hs[i])
            worst = max(worst, rel_residual(be.norm(comm), norms[i] * norms[j]))
    return worst


def verify_triangle(ms) -> float:
    """max over 1 <= i < j of the residual of M^i (M^0)^-1 M^j = M^j (M^0)^-1 M^i,
    rel_residual of the difference's norm against |M^i| |(M^0)^-1| |M^j|.

    The pairs with i = 0 are left out: M^0 (M^0)^-1 M^j = M^j (M^0)^-1 M^0
    holds for any invertible M^0, so they would test only the inverse.
    """
    be = TensorBackend()
    inv0, rest = be.invert(ms[0]), ms[1:]
    norms, norm0 = [be.norm(m) for m in rest], be.norm(inv0)
    ratios = [be.mul(inv0, m) for m in rest]
    worst = 0.0
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            lhs = be.mul(rest[i], ratios[j])
            rhs = be.mul(rest[j], ratios[i])
            worst = max(worst, rel_residual(be.norm(lhs - rhs), norms[i] * norm0 * norms[j]))
    return worst


def delta_family(fgrid) -> float:
    """Commutation residual for H_i = Delta_0^-1 Delta_i built from f_{i,j}.

    fgrid[i][j-1] holds the k x k block of f_{i,j} for 0 <= i <= n,
    1 <= j <= n, acting on site j-1, so elements with different second index
    commute.  Delta_I = sum over bijections sigma: I -> {1..n} of
    sign(sigma) * prod f_{i, sigma(i)}, and Delta_i omits the first index i.
    """
    # row r of the transpose collects second index r+1, the blocks of site r
    return verify_commuting_family(minors(list(zip(*fgrid)), kron))


def random_delta_grid(n: int, k: int, seed: int) -> list:
    """(n+1) x n grid of k x k blocks, f_{i,j} at site j-1: the natural commuting realization."""
    return _random_blocks(n + 1, n, k, seed)


# Plucker identities -----------------------------------------------------------


def decomposable_form(order: int, seed: int) -> np.ndarray:
    """Antisymmetrization of the outer product of `order` random covectors in
    dimension d = 2*order, the least that leaves room for generic vectors.

    Evaluates as det[u_i(x_j)], i.e. a partial determinant; the Plucker
    identities are identities for exactly this class of forms.
    """
    rng = np.random.default_rng(seed)
    d = 2 * order
    us = rng.normal(size=(order, d)) + 1j * rng.normal(size=(order, d))
    return cf_det([us] * order, np.multiply.outer)  # covector row r becomes tensor axis r


def form_apply(lam: np.ndarray, *vectors) -> complex:
    v = lam
    for x in vectors:
        v = np.tensordot(v, x, axes=([0], [0]))
    return complex(v)


def plucker_residual(order: int, lam: np.ndarray, vectors: Sequence[np.ndarray]) -> float:
    """|stated combination| / max term, for the 3-, 4- or 6-term identity."""
    partial = {(): lam}  # lam contracted with each argument prefix, which the terms share

    def contract(xs):
        key = tuple(map(id, xs))
        if key not in partial:
            # np.tensordot(v, x, axes=([0], [0])) as one matmul, without tensordot's dispatch
            v, x = contract(xs[:-1]), xs[-1]
            partial[key] = (x @ v.reshape(len(x), -1)).reshape(v.shape[1:])
        return partial[key]

    terms = _plucker_terms(order, lambda *xs: complex(contract(xs)), vectors)
    scale = max(abs(t) for t in terms)
    return abs(sum(terms)) / max(scale, 1e-300)


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


def plucker_check(order: int, seed: int) -> float:
    """Seeded random decomposable form and generic vectors; returns residual."""
    lam = decomposable_form(order, seed)
    rng = np.random.default_rng(seed + 10_000)
    d = len(lam)
    vectors = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(_PLUCKER_VECTOR_COUNT[order])]
    return plucker_residual(order, lam, vectors)
