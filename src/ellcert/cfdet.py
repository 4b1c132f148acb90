"""Cartier-Foata determinants over partially commutative backends.

A backend supplies the element arithmetic; entries of an n x (n+1) grid whose
rows live in pairwise commuting subalgebras admit a well defined determinant
per n x n minor: the permutation sum with products taken in a fixed row
order.  The ratios H_i = (M^0)^-1 M^i then commute, and the triangle
relations M^i (M^0)^-1 M^j = M^j (M^0)^-1 M^i hold; both are certified here
over an exact finite-dimensional tensor model.

Also houses the multilinear Plucker identities used by the Poisson layer;
these hold for decomposable alternating forms (partial determinants), which
is how they arise, and fail for generic antisymmetric arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SingularOperatorError

_MAX_CF_SIZE = 6  # n! * n multiplications; identities are degree-independent


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class TensorBackend:
    """Elements are k^n x k^n matrices; row-i generators act on site i only.

    Distinct-site generators commute exactly, and inverses exist concretely,
    which makes this the reference model for the commuting-rows hypothesis.
    """

    def __init__(self, n: int, k: int):
        self.n = int(n)
        self.k = int(k)
        self.dim = self.k ** self.n
        self._eye = np.eye(self.k, dtype=complex)

    def zero(self):
        return np.zeros((self.dim, self.dim), dtype=complex)

    def one(self):
        return np.eye(self.dim, dtype=complex)

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x @ y

    def neg(self, x):
        return -x

    def norm(self, x) -> float:
        return float(np.linalg.norm(x, 2))

    def invert(self, x):
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] < 1e-10 * s[0]:
            raise SingularOperatorError("reciprocal condition number below 1e-10")
        return np.linalg.inv(x)

    def site_element(self, site: int, block: np.ndarray):
        """identity x ... x block(at `site`) x ... x identity."""
        out = np.ones((1, 1), dtype=complex)
        for s in range(self.n):
            out = np.kron(out, block if s == site else self._eye)
        return out

    def random_site_element(self, site: int, rng) -> np.ndarray:
        block = rng.normal(size=(self.k, self.k)) + 1j * rng.normal(size=(self.k, self.k))
        return self.site_element(site, block)


@dataclass
class CFMatrix:
    """n x (n+1) grid with rows in pairwise commuting subalgebras."""

    entries: list  # entries[row][col]
    backend: object

    @property
    def n(self) -> int:
        return len(self.entries)

    def row_commutation_residual(self, samples: int = 4, seed: int = 0) -> float:
        """Sampled witness for the commuting-rows declaration."""
        be = self.backend
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(samples):
            i, j = rng.choice(self.n, size=2, replace=False)
            x = self.entries[i][rng.integers(0, self.n + 1)]
            y = self.entries[j][rng.integers(0, self.n + 1)]
            comm = be.add(be.mul(x, y), be.neg(be.mul(y, x)))
            scale = max(1.0, be.norm(x) * be.norm(y))
            worst = max(worst, be.norm(comm) / scale)
        return worst


def random_cf_matrix(backend: TensorBackend, seed: int) -> CFMatrix:
    rng = np.random.default_rng(seed)
    n = backend.n
    entries = [[backend.random_site_element(i, rng) for _ in range(n + 1)] for i in range(n)]
    return CFMatrix(entries, backend)


def cf_det(grid, backend, row_order: Sequence[int] | None = None):
    """Permutation-sum determinant with products taken in fixed row order.

    By the commuting-rows hypothesis the value is independent of row_order.
    """
    n = len(grid)
    if n > _MAX_CF_SIZE:
        raise ValueError(f"cf_det capped at n={_MAX_CF_SIZE} (cost n!*n)")
    if any(len(row) != n for row in grid):
        raise ValueError("cf_det needs a square grid")
    order = list(range(n)) if row_order is None else list(row_order)
    if sorted(order) != list(range(n)):
        raise ValueError("row_order must be a permutation of the rows")
    total = backend.zero()
    for perm in itertools.permutations(range(n)):
        term = None
        for r in order:
            e = grid[r][perm[r]]
            term = e if term is None else backend.mul(term, e)
        if _perm_sign(perm) < 0:
            term = backend.neg(term)
        total = backend.add(total, term)
    return total


def minors(m: CFMatrix) -> list:
    """M^0 ... M^n: the determinant with the i-th column deleted."""
    n = m.n
    out = []
    for i in range(n + 1):
        grid = [[m.entries[r][c] for c in range(n + 1) if c != i] for r in range(n)]
        out.append(cf_det(grid, m.backend))
    return out


def verify_commuting_family(m: CFMatrix) -> float:
    """max over pairs of |[H_i, H_j]| / (|H_i| |H_j|) with H_i = (M^0)^-1 M^i."""
    return _ratio_commutator_residual(minors(m), m.backend)


def _ratio_commutator_residual(ms, be) -> float:
    """max over pairs of |[H_i, H_j]| / max(1, |H_i| |H_j|), H_i = ms[0]^-1 ms[i]."""
    inv0 = be.invert(ms[0])
    hs = [be.mul(inv0, d) for d in ms[1:]]
    worst = 0.0
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            comm = be.add(be.mul(hs[i], hs[j]), be.neg(be.mul(hs[j], hs[i])))
            scale = max(1.0, be.norm(hs[i]) * be.norm(hs[j]))
            worst = max(worst, be.norm(comm) / scale)
    return worst


def verify_triangle(m: CFMatrix, i: int, j: int) -> float:
    """Residual of M^i (M^0)^-1 M^j = M^j (M^0)^-1 M^i."""
    be = m.backend
    ms = minors(m)
    inv0 = be.invert(ms[0])
    lhs = be.mul(ms[i], be.mul(inv0, ms[j]))
    rhs = be.mul(ms[j], be.mul(inv0, ms[i]))
    scale = max(1.0, be.norm(ms[i]) * be.norm(inv0) * be.norm(ms[j]))
    return be.norm(be.add(lhs, be.neg(rhs))) / scale


def delta_family(fgrid, backend) -> float:
    """Commutation residual for H_i = Delta_0^-1 Delta_i built from f_{i,j}.

    fgrid[i][j-1] holds f_{i,j} for 0 <= i <= n, 1 <= j <= n, where elements
    with different second index commute.  Delta_I = sum over bijections
    sigma: I -> {1..n} of sign(sigma) * prod f_{i, sigma(i)}, and Delta_i
    omits the first index i.
    """
    be = backend
    n = len(fgrid) - 1
    deltas = []
    for omit in range(n + 1):
        rows = [i for i in range(n + 1) if i != omit]
        # grid[r][c] = f_{rows[c], r+1}: row r collects second-index r+1,
        # so rows commute and cf_det applies.
        grid = [[fgrid[rows[c]][r] for c in range(n)] for r in range(n)]
        deltas.append(cf_det(grid, be))
    return _ratio_commutator_residual(deltas, be)


def random_delta_grid(backend: TensorBackend, seed: int) -> list:
    """f_{i,j} nontrivial only at site j: the natural commuting realization."""
    rng = np.random.default_rng(seed)
    n = backend.n
    return [[backend.random_site_element(j, rng) for j in range(n)] for _ in range(n + 1)]


# Plucker identities -----------------------------------------------------------

def decomposable_form(order: int, d: int, seed: int) -> np.ndarray:
    """Antisymmetrization of the outer product of `order` random covectors.

    Evaluates as det[u_i(x_j)], i.e. a partial determinant; the Plucker
    identities are identities for exactly this class of forms.
    """
    rng = np.random.default_rng(seed)
    us = rng.normal(size=(order, d)) + 1j * rng.normal(size=(order, d))
    lam = np.zeros((d,) * order, dtype=complex)
    for perm in itertools.permutations(range(order)):
        outer = us[perm[0]]
        for p in perm[1:]:
            outer = np.multiply.outer(outer, us[p])
        lam += _perm_sign(perm) * outer
    return lam


def form_apply(lam: np.ndarray, *vectors) -> complex:
    v = lam
    for x in vectors:
        v = np.tensordot(v, x, axes=([0], [0]))
    return complex(v)


def plucker_residual(order: int, lam: np.ndarray, vectors: Sequence[np.ndarray]) -> float:
    """|stated combination| / max term, for the 3-, 4- or 6-term identity."""
    L = lambda *xs: form_apply(lam, *xs)
    if order == 2:
        a, b, c, d = vectors
        terms = [L(a, b) * L(c, d), -L(a, c) * L(b, d), L(a, d) * L(b, c)]
    elif order == 3:
        a, b, c, bp, cp = vectors
        terms = [
            L(b, c, cp) * L(a, c, bp) * L(b, bp, cp),
            L(b, c, bp) * L(c, bp, cp) * L(a, b, cp),
            -L(b, c, bp) * L(a, c, cp) * L(b, bp, cp),
            -L(b, c, cp) * L(c, bp, cp) * L(a, b, bp),
        ]
    elif order == 4:
        a, b, c, ap, bp, cp = vectors
        terms = [
            L(b, c, bp, cp) * L(a, c, ap, cp) * L(a, b, ap, bp),
            L(b, c, ap, cp) * L(a, c, ap, bp) * L(a, b, bp, cp),
            L(b, c, ap, bp) * L(a, c, bp, cp) * L(a, b, ap, cp),
            -L(b, c, bp, cp) * L(a, c, ap, bp) * L(a, b, ap, cp),
            -L(b, c, ap, bp) * L(a, c, ap, cp) * L(a, b, bp, cp),
            -L(b, c, ap, cp) * L(a, c, bp, cp) * L(a, b, ap, bp),
        ]
    else:
        raise ValueError("plucker identities implemented for orders 2, 3, 4")
    scale = max(abs(t) for t in terms)
    return abs(sum(terms)) / max(scale, 1e-300)


_PLUCKER_VECTOR_COUNT = {2: 4, 3: 5, 4: 6}


def plucker_check(order: int, d: int, seed: int) -> float:
    """Seeded random decomposable form and generic vectors; returns residual."""
    if d < 2 * order:
        raise ValueError("need d >= 2*order for generic data")
    lam = decomposable_form(order, d, seed)
    rng = np.random.default_rng(seed + 10_000)
    nv = _PLUCKER_VECTOR_COUNT[order]
    vectors = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(nv)]
    return plucker_residual(order, lam, vectors)
