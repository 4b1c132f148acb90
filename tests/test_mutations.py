"""A mutation matrix: planted defects that the checks must catch.

Each row plants one defect in the library (monkeypatched, so nothing leaks
into other tests) and names the checks that must FAIL at their default
parameters, by more than 1e3 times their tolerance.  The ratios measured at
the default seed are noted beside each row.  A defect no check catches yet
is not a row; see CHANGES.md for the known gaps.
"""

import functools

import numpy as np
import pytest

from ellcert import cfdet, poisson, starprod, theta, transfer
from ellcert import expr as ex
from ellcert.checks import REGISTRY
from ellcert.shiftops import ShiftAlgebra, ShiftOp
from ellcert.starprod import SymThetaFun

MARGIN = 1e3


def scale_star_by_degree(monkeypatch):
    """The star product of f and g times 1 + 0.1 * deg f: not associative."""
    real = starprod.star

    def star(f, g):
        fg = real(f, g)
        return SymThetaFun(fg.degree, fg.order_n, ex.mul(ex.const(1 + 0.1 * f.degree), fg.body), fg.ctx)

    monkeypatch.setattr(starprod, "star", star)


def shift_star_by_one_more_eta(monkeypatch):
    """theta(z_i - z_j - n*eta) / theta(z_i - z_j) of the star product at (n+1)*eta."""
    real = starprod.star

    def star(f, g):
        bump = lambda x: SymThetaFun(x.degree, x.order_n + 1, x.body, x.ctx)
        fg = real(bump(f), bump(g))
        return SymThetaFun(fg.degree, f.order_n, fg.body, fg.ctx)

    monkeypatch.setattr(starprod, "star", star)


def flip_translation(monkeypatch):
    """Every generator shifts its variables the wrong way."""
    real = ShiftAlgebra.translation_of
    monkeypatch.setattr(ShiftAlgebra, "translation_of",
                        lambda self, exponents: {v: -s for v, s in real(self, exponents).items()})


def move_transfer_kernel(monkeypatch):
    """theta(u - z_b) -> theta(u - z_b + 0.05) in every transfer coefficient."""
    real = transfer._transfer_coefficient

    def coefficient(u, n, al, names, theta_of):
        def moved(arg):  # theta(u - z_b) is the one factor whose argument is -z_b plus a constant
            return theta_of(arg.shifted(0.05) if list(arg.coeffs.values()) == [-1] else arg)

        return real(u, n, al, names, moved)

    monkeypatch.setattr(transfer, "_transfer_coefficient", coefficient)


def bend_series(monkeypatch):
    """Every theta series, and each of its derivatives, times 1 + 0.1 * sin(2 pi w)
    at the reduced argument w."""
    real = theta._series

    def series(kind, w, tau, order, index, deriv):
        return [jet * (1 + 0.1 * np.sin(2 * np.pi * w)) for jet in real(kind, w, tau, order, index, deriv)]

    monkeypatch.setattr(theta, "_series", series)


def coarsen_window(monkeypatch):
    """The theta series keeps the modes that reach 1e-4 of the largest term, not 1e-40.

    The cached windows do not key on the cut-off, so the planted cut-off gets a
    cache of its own, dropped with it: no window of either cut-off outlives its test.
    """
    monkeypatch.setattr(theta, "_TAIL", 1e-4)
    monkeypatch.setattr(theta, "_window", functools.lru_cache(maxsize=1024)(theta._window.__wrapped__))


def _moved(leaf):
    """The theta leaf at its argument + 0.05."""
    return ex.Theta(leaf.kind, leaf.arg.shifted(0.05), leaf.order, leaf.index, leaf.deriv)


def skew_first_grid_row(monkeypatch):
    """Row 1's theta entries of the Poisson grid read theta_j(z1 + z2/2), and f2
    shifts z2, so rows 1 and 2 no longer Poisson-commute: the Cartier-Foata
    hypothesis fails (tests/test_poisson.py shows it is no reparametrization)."""
    real = poisson._delta_grid

    @functools.cache
    def grid(n, ctx):
        alg, rows = real(n, ctx)
        skewed = [poisson.PoissonElement.function(alg, ex.theta_basis_of(j, n, ex.aff("z1", (0.5, "z2"))))
                  for j in range(n)]
        return alg, [[rows[0][0], *skewed], *rows[1:]]

    monkeypatch.setattr(poisson, "_delta_grid", grid)


def drop_ratio_bracket_term(monkeypatch):
    """{f/h, g/k} without its -(f/h){h,g}/hk term."""
    real = poisson.RatioBracket.residual_at

    def residual_at(self):
        _, *terms = real(self)
        del terms[1]
        return (sum(terms), *terms)

    monkeypatch.setattr(poisson.RatioBracket, "residual_at", residual_at)


def negate_plucker_term(monkeypatch):
    """The second term of every Plücker identity negated."""
    real = cfdet._plucker_terms

    def terms(order, L, vectors):
        out = real(order, L, vectors)
        out[1] = -out[1]
        return out

    monkeypatch.setattr(cfdet, "_plucker_terms", terms)


def shift_casimir_by_one_more_eta(monkeypatch):
    """Every casimir factor theta(z_i - z_j - 2m*eta) at (2m+1)*eta: the element
    is built at eta * (2m+1)/(2m), while the diagonal stays at z1 + 2m*eta."""
    real = starprod.casimir
    monkeypatch.setattr(starprod, "casimir",
                        lambda alpha, m, ctx: real(alpha, m, ctx.replace(eta=ctx.eta * (2 * m + 1) / (2 * m))))


def move_sos_kernel(monkeypatch):
    """theta_odd(u + z_b) -> theta_odd(u + z_b + 0.05) in every face-model kernel."""
    real = transfer._sos_kernel

    def kernel(u, n, al, names):
        k = real(u, n, al, names)
        first, *rest = k.num.factors  # theta_odd(u - sum_{b != al} z_b), then theta_odd(u + z_b) per b != al
        return ex.quot(ex.mul(first, *map(_moved, rest)), k.den)

    monkeypatch.setattr(transfer, "_sos_kernel", kernel)


def move_ttilde_denominators(monkeypatch):
    """theta(z_{a,g} - z_{b,g}) -> theta(z_{a,g} - z_{b,g} + 0.05) in every
    denominator of the chain transfer function."""
    real = transfer.build_T_tilde

    def coefficient(c):
        if type(c) is not ex.Quotient:
            return c
        den = c.den.factors if type(c.den) is ex.Product else (c.den,)
        return ex.quot(c.num, ex.mul(*map(_moved, den)))

    def build(u, p_list, ctx):
        op = real(u, p_list, ctx)
        return ShiftOp(op.algebra, {mi: coefficient(c) for mi, c in op.terms.items()})

    monkeypatch.setattr(transfer, "build_T_tilde", build)


# defect -> (plant, the checks that must fail); residual / tolerance at seed 42 in the comments
MUTATIONS = {
    "star-scaled-by-degree": (scale_star_by_degree, ["star-assoc"]),  # 8.3e6
    "star-shift-one-more-eta": (shift_star_by_one_more_eta, ["star-closure"]),  # 1.9e8
    "translation-sign-flipped": (flip_translation, ["bosonization-rank", "qnk-relation"]),  # 1.3e7, 2.5e10
    "transfer-kernel-moved": (move_transfer_kernel, ["transfer-det", "sos-ratio"]),  # 2.8e7, 7.7e7
    "theta-series-bent": (bend_series,  # 2.2e10, 2.5e9, 1.3e8, 1.4e8, 3.7e10
                          ["fay", "qnk-relation", "transfer-det", "sos-ratio", "theta-quasiperiodicity"]),
    "theta-window-coarse": (coarsen_window, ["qnk-relation", "psi2", "transfer-commute"]),  # 5.5e5, 5.9e4, 2.7e4
    "grid-row-skewed": (skew_first_grid_row, ["poisson-hamiltonians", "poisson-jacobi"]),  # 1.4e9, 6.2e8
    "ratio-bracket-term-dropped": (drop_ratio_bracket_term,  # 1.0e9, 2.0e9
                                   ["quotient-rule", "poisson-hamiltonians"]),
    "plucker-term-negated": (negate_plucker_term, ["plucker"]),  # 2.0e10
    "casimir-shift-one-more-eta": (shift_casimir_by_one_more_eta, ["casimir-diagonal"]),  # 4.4e10
    "sos-kernel-moved": (move_sos_kernel, ["sos-commute", "sos-ratio"]),  # 9.3e7, 7.7e7
    "ttilde-denominators-moved": (move_ttilde_denominators, ["ttilde-commute"]),  # 1.3e7
}

ROWS = [(defect, name) for defect, (_, names) in MUTATIONS.items() for name in names]


@pytest.mark.parametrize("defect,name", ROWS, ids=[f"{d}-{n}" for d, n in ROWS])
def test_planted_defect_fails_the_check(defect, name, monkeypatch):
    check = REGISTRY[name]
    assert check({}) <= check.tolerance  # the check passes without the defect
    MUTATIONS[defect][0](monkeypatch)
    assert check({}) > MARGIN * check.tolerance
