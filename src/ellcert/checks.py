"""Named check registry: every certified identity behind one dispatch surface.

A check resolves its parameters, runs the underlying residual computation at
a fixed seed, and reports a ReportRecord.  Records are JSON-serializable and
deterministic: re-running a config byte-identically reproduces every
residual_max (wall times of course vary).

An inconclusive outcome (no usable singular-value gap) is a distinct
non-pass, non-fail state: the record carries status="inconclusive" in its
resolved params, pass=false, and residual_max=-1.0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .context import ThetaContext
from .errors import InconclusiveRankError, ParameterError
from . import expr as ex
from .sampling import rel_residual
from .theta import theta_basis
from . import cfdet
from . import poisson
from . import starprod
from . import transfer

DEFAULT_SEED = 42
DEFAULT_TAU = 0.8j
DEFAULT_ETA = 0.171717 + 0.0323j


def _context(params) -> ThetaContext:
    return ThetaContext(tau=complex(params.get("tau", DEFAULT_TAU)),
                        eta=complex(params.get("eta", DEFAULT_ETA)))


def _int_list(value, name) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    if isinstance(value, int):
        return [value]
    try:
        return [int(tok) for tok in str(value).replace(" ", "").split(",") if tok]
    except ValueError:
        raise ParameterError(f"cannot parse {name}={value!r} as integers") from None


def _require_range(name, value, lo, hi):
    if not lo <= value <= hi:
        raise ParameterError(f"{name}={value} outside documented range [{lo}, {hi}]")


# Check implementations ---------------------------------------------------------

def check_theta_quasiperiodicity(params, seed) -> float:
    n_max = int(params.get("n_max", 6))
    _require_range("n_max", n_max, 1, 8)
    points = int(params.get("points", 200))
    taus = params.get("taus", "0.8j;0.3+1.1j")
    tau_values = [complex(t) for t in str(taus).split(";")]
    worst = 0.0
    for tau in tau_values:
        ctx = ThetaContext(tau=tau)
        rng = np.random.default_rng(seed)
        z = rng.random(points) + 1j * tau.imag * rng.random(points)
        for n in range(1, n_max + 1):
            mult = (-1) ** n * np.exp(-2j * math.pi * n * z)
            for i in range(n):
                v = theta_basis(i, z, ctx, n=n)
                per = theta_basis(i, z + 1, ctx, n=n)
                qp = theta_basis(i, z + tau, ctx, n=n)
                worst = max(worst, rel_residual(per - v, v))
                expect = mult * v
                worst = max(worst, rel_residual(qp - expect, qp, expect))
    return worst


def _cf_sizes(params):
    sizes = params.get("sizes", "2x2;2x3;3x2")
    out = []
    for tok in str(sizes).split(";"):
        n, k = tok.lower().split("x")
        out.append((int(n), int(k)))
    for n, k in out:
        _require_range("n", n, 1, 4)
        _require_range("k", k, 2, 4)
    return out


def _well_conditioned_matrix(be, seed):
    # ill-conditioned M^0 draws are resampled, per the invertibility contract
    from .errors import SingularOperatorError

    for bump in range(8):
        m = cfdet.random_cf_matrix(be, seed + 100_000 * bump)
        try:
            be.invert(cfdet.minors(m)[0])
        except SingularOperatorError:
            continue
        return m
    raise SingularOperatorError("no well-conditioned draw in 8 attempts")


def check_cf_commute(params, seed) -> float:
    seeds = int(params.get("seeds", 20))
    worst = 0.0
    for n, k in _cf_sizes(params):
        be = cfdet.TensorBackend(n, k)
        for s in range(seeds):
            m = _well_conditioned_matrix(be, seed + s)
            worst = max(worst, cfdet.verify_commuting_family(m))
    return worst


def check_cf_triangle(params, seed) -> float:
    seeds = int(params.get("seeds", 20))
    worst = 0.0
    for n, k in _cf_sizes(params):
        be = cfdet.TensorBackend(n, k)
        for s in range(seeds):
            m = _well_conditioned_matrix(be, seed + s)
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    worst = max(worst, cfdet.verify_triangle(m, i, j))
    return worst


def check_delta_family(params, seed) -> float:
    n = int(params.get("n", 3))
    k = int(params.get("k", 2))
    _require_range("n", n, 1, 4)
    _require_range("k", k, 2, 3)
    seeds = int(params.get("seeds", 5))
    be = cfdet.TensorBackend(n, k)
    return max(cfdet.delta_family(cfdet.random_delta_grid(be, seed + s), be)
               for s in range(seeds))


def check_plucker(params, seed) -> float:
    orders = _int_list(params.get("orders", "2,3,4"), "orders")
    seeds = int(params.get("seeds", 50))
    worst = 0.0
    for order in orders:
        _require_range("order", order, 2, 4)
        d = 2 * order
        for s in range(seeds):
            worst = max(worst, cfdet.plucker_check(order, d, seed + s))
    return worst


def check_poisson_hamiltonians(params, seed) -> float:
    ns = _int_list(params.get("n", "2,3,4"), "n")
    seeds = int(params.get("seeds", 5))
    points = int(params.get("points", 20))
    ctx = _context(params)
    worst = 0.0
    for n in ns:
        _require_range("n", n, 2, 4)
        for s in range(seeds):
            _, r = poisson.classical_hamiltonians(n, ctx, seed=seed + s, points=points)
            worst = max(worst, r)
    return worst


def check_poisson_jacobi(params, seed) -> float:
    ctx = _context(params)
    points = int(params.get("points", 20))
    worst = 0.0
    for n, triple in ((3, (1, 2, 3)), (4, (1, 2, 4))):
        worst = max(worst, poisson.jacobi_delta_residual(n, ctx, triple, seed=seed, points=points))
    return worst


def _two_spectral_points(ctx, seed):
    rng = np.random.default_rng(seed)
    u = complex(rng.random(), ctx.tau.imag * rng.random())
    v = complex(rng.random(), ctx.tau.imag * rng.random())
    return u, v


def check_transfer_commute(params, seed) -> float:
    ns = _int_list(params.get("n", "2,3,4,5"), "n")
    seeds = int(params.get("seeds", 5))
    samples = int(params.get("samples", 20))
    ctx = _context(params)
    worst = 0.0
    for n in ns:
        _require_range("n", n, 2, 6)
        fam = transfer.vn_family(n, ctx)
        for s in range(seeds):
            u, v = _two_spectral_points(ctx, seed + 100 * s)
            worst = max(worst, transfer.transfer_commutator_residual(
                fam, u, v, samples=samples, seed=seed + s))
    return worst


def check_transfer_det(params, seed) -> float:
    ns = _int_list(params.get("n", "2,3"), "n")
    samples = int(params.get("samples", 15))
    ctx = _context(params)
    worst = 0.0
    for n in ns:
        _require_range("n", n, 2, 4)
        u, _ = _two_spectral_points(ctx, seed)
        worst = max(worst, transfer.transfer_det_consistency_residual(
            u, n, ctx, samples=samples, seed=seed))
    return worst


def check_star_assoc(params, seed) -> float:
    ns = _int_list(params.get("n", "2,3,4"), "n")
    samples = int(params.get("samples", 15))
    ctx = _context(params)
    worst = 0.0
    for n in ns:
        _require_range("n", n, 2, 6)
        f = starprod.theta_gen(0, n, ctx)
        g = starprod.theta_gen(1 % n, n, ctx)
        h = starprod.theta_gen(n - 1, n, ctx)
        worst = max(worst, starprod.star_assoc_residual(f, g, h, samples=samples, seed=seed))
    return worst


def check_star_closure(params, seed) -> float:
    ns = _int_list(params.get("n", "2,3,4"), "n")
    ctx = _context(params)
    worst = 0.0
    for n in ns:
        _require_range("n", n, 2, 6)
        f = starprod.theta_gen(0, n, ctx)
        g = starprod.theta_gen(n - 1, n, ctx)
        fg = starprod.star(f, g)
        worst = max(worst, fg.invariant_residual(samples=10, seed=seed))
        worst = max(worst, starprod.star(fg, g).invariant_residual(samples=8, seed=seed + 1))
        worst = max(worst, starprod.star(f, fg).invariant_residual(samples=8, seed=seed + 2))
    return worst


def check_eta_flatness(params, seed) -> float:
    n = int(params.get("n", 3))
    _require_range("n", n, 2, 6)
    ctx = _context(params)
    ratio = starprod.eta_flatness_ratio(n, ctx, scales=(1e-2, 1e-3), samples=10, seed=seed)
    # linear scaling means ratio ~ 10; residual is the log2 distance from it
    return abs(math.log2(ratio / 10.0))


def check_bosonization_rank(params, seed) -> float:
    pairs = params.get("pairs", "3x1;3x2;4x2;5x2")
    ctx = _context(params)
    samples = params.get("samples")
    worst = 0.0
    for tok in str(pairs).split(";"):
        n, p = (int(x) for x in tok.lower().split("x"))
        _require_range("n", n, 2, 6)
        _require_range("p", p, 1, 3)
        res = starprod.hom_welldefined_residual(
            n, p, ctx, seed=seed, samples=int(samples) if samples else None)
        if res.rank != res.expected_rank:
            return float("inf")
        worst = max(worst, res.kernel_residual)
    return worst


def check_psi2(params, seed) -> float:
    ctx = _context(params)
    return poisson.psi2_pair_residual(ctx, seed=seed, samples=int(params.get("samples", 20)))


def check_fu_commute(params, seed) -> float:
    ms = _int_list(params.get("m", "2,3"), "m")
    seeds = int(params.get("seeds", 3))
    samples = int(params.get("samples", 12))
    ctx = _context(params)
    worst = 0.0
    for m in ms:
        _require_range("m", m, 2, 3)
        for s in range(seeds):
            rng = np.random.default_rng(seed + s)
            u, v, a, b = (complex(rng.random(), ctx.tau.imag * rng.random()) for _ in range(4))
            worst = max(worst, starprod.fu_commutator_residual(
                u, v, m, a, b, 0, ctx, samples=samples, seed=seed + s))
    return worst


def check_casimir_diagonal(params, seed) -> float:
    ms = _int_list(params.get("m", "2,3"), "m")
    ctx = _context(params)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in ms:
        _require_range("m", m, 2, 4)
        for alpha in (0, 1):
            c = starprod.casimir(alpha, m, ctx)
            for _ in range(5):
                zs = [complex(rng.random(), ctx.tau.imag * rng.random()) for _ in range(m)]
                generic = abs(c(*zs))
                zs[1] = zs[0] + 2 * m * ctx.eta
                worst = max(worst, abs(c(*zs)) / max(1.0, generic))
    return worst


def check_ttilde_commute(params, seed) -> float:
    p_list = tuple(_int_list(params.get("p", "2,2"), "p"))
    seeds = int(params.get("seeds", 3))
    samples = int(params.get("samples", 10))
    for p in p_list:
        _require_range("p", p, 1, 3)
    if not 1 <= len(p_list) <= 3:
        raise ParameterError(f"p_list length {len(p_list)} outside [1, 3]")
    ctx = _context(params)
    fam = transfer.btilde_family(p_list, ctx)
    worst = 0.0
    for s in range(seeds):
        u, v = _two_spectral_points(ctx, seed + 100 * s)
        worst = max(worst, transfer.transfer_commutator_residual(
            fam, u, v, samples=samples, seed=seed + s))
    return worst


def check_sos_commute(params, seed) -> float:
    ns = _int_list(params.get("n", "2,3"), "n")
    seeds = int(params.get("seeds", 3))
    samples = int(params.get("samples", 10))
    ctx = _context(params)
    worst = 0.0
    for n in ns:
        _require_range("n", n, 2, 4)
        fam = transfer.sos_family(n, ctx)
        for s in range(seeds):
            u, v = _two_spectral_points(ctx, seed + 100 * s)
            worst = max(worst, transfer.transfer_commutator_residual(
                fam, u, v, samples=samples, seed=seed + s))
    return worst


def check_sos_ratio(params, seed) -> float:
    ns = _int_list(params.get("n", "2,3"), "n")
    ctx = _context(params)
    worst = 0.0
    for n in ns:
        _require_range("n", n, 2, 4)
        u, _ = _two_spectral_points(ctx, seed)
        worst = max(worst, transfer.sos_vs_T_coefficient_ratio(u, n, ctx, samples=10, seed=seed))
    return worst


def check_fay(params, seed) -> float:
    count = int(params.get("count", 100))
    taus = params.get("taus", "0.8j;0.3+1.1j")
    worst = 0.0
    for tau in (complex(t) for t in str(taus).split(";")):
        worst = max(worst, poisson.fay_sweep(count, seed, ThetaContext(tau=tau)))
    return worst


def check_qnk_relation(params, seed) -> float:
    n = int(params.get("n", 3))
    i = int(params.get("i", 0))
    j = int(params.get("j", 1))
    p = int(params.get("p", 2))
    _require_range("n", n, 2, 6)
    _require_range("p", p, 1, 3)
    ctx = _context(params)
    report = starprod.qnk_relation_residual(n, i, j, p, ctx, seed=seed)
    return report.residual


def check_quotient_rule(params, seed) -> float:
    ctx = _context(params)
    alg = poisson.make_cone(2, ctx)
    h_coeff = ex.theta1_of(ex.aff("z1", (0.5, "z2")))
    h = poisson.PoissonElement.function(alg, h_coeff)
    g = poisson.PoissonElement.generator(alg, "f2", ex.theta1_of("z2"))
    one = poisson.PoissonElement.function(alg, ex.const(1))
    rb = poisson.pbracket_ratio(one, h, g, one)
    # guarding the denominator h measures every requested point, none skipped
    envs = poisson._phase_space_points(alg, int(params.get("points", 20)), seed, [h_coeff])
    worst = 0.0
    for env in envs:
        lhs = rb(env)
        rhs = -poisson.pbracket(h, g).evaluate(env) / h.evaluate(env) ** 2
        worst = max(worst, rel_residual(lhs - rhs, lhs, rhs))
    return worst


# Registry ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    name: str
    fn: Callable
    tolerance: float
    gating: bool = True
    summary: str = ""


REGISTRY: dict[str, CheckDef] = {}


def _register(name, fn, tolerance, gating=True, summary=""):
    REGISTRY[name] = CheckDef(name, fn, tolerance, gating, summary)


_register("theta-quasiperiodicity", check_theta_quasiperiodicity, 1e-10,
          summary="basis theta periodicity and tau quasi-periodicity, orders 1..6")
_register("cf-commute", check_cf_commute, 1e-9,
          summary="determinant-ratio commuting family over the tensor backend")
_register("cf-triangle", check_cf_triangle, 1e-9,
          summary="triangle exchange relations for the minors")
_register("delta-family", check_delta_family, 1e-9,
          summary="column-commuting grid variant of the commuting family")
_register("plucker", check_plucker, 1e-10,
          summary="3/4/6-term multilinear identities for decomposable forms")
_register("poisson-hamiltonians", check_poisson_hamiltonians, 1e-9,
          summary="pairwise brackets of the determinant hamiltonians")
_register("poisson-jacobi", check_poisson_jacobi, 1e-9,
          summary="cyclic determinant-bracket identity")
_register("transfer-commute", check_transfer_commute, 1e-8,
          summary="[T(u), T(v)] = 0 for the basic family")
_register("transfer-det", check_transfer_det, 1e-8,
          summary="explicit coefficients against the determinant form")
_register("star-assoc", check_star_assoc, 1e-8,
          summary="associativity of the star product")
_register("star-closure", check_star_closure, 1e-8,
          summary="star products stay symmetric and quasi-periodic")
_register("eta-flatness", check_eta_flatness, 1.0,
          summary="star commutator scales linearly in the deformation")
_register("bosonization-rank", check_bosonization_rank, 1e-7,
          summary="sampled rank n(n+1)/2 and kernel annihilation")
_register("psi2", check_psi2, 1e-9,
          summary="classical bosonization images of the order-2 basis commute")
_register("fu-commute", check_fu_commute, 1e-7,
          summary="degree-m family commutes in its bosonized image")
_register("casimir-diagonal", check_casimir_diagonal, 1e-10,
          summary="central elements vanish on the shifted diagonal")
_register("ttilde-commute", check_ttilde_commute, 1e-7,
          summary="chain transfer function commutes")
_register("sos-commute", check_sos_commute, 1e-8,
          summary="face-model auxiliary transfer commutes")
_register("sos-ratio", check_sos_ratio, 1e-8,
          summary="face-model kernel matches the basic kernel after reflection")
_register("fay", check_fay, 1e-10,
          summary="three-term trisecant identity for the odd theta")
_register("quotient-rule", check_quotient_rule, 1e-9,
          summary="fraction-field bracket extension rule")
_register("qnk-relation", check_qnk_relation, 1e-7, gating=False,
          summary="EXPERIMENTAL basis-convention-bound quadratic relation")


@dataclass
class CheckSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass
class ReportRecord:
    name: str
    params: dict
    residual_max: float
    tolerance: float
    passed: bool
    wall_time_ms: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "residual_max": self.residual_max,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "wall_time_ms": self.wall_time_ms,
            "seed": self.seed,
        }

    @property
    def inconclusive(self) -> bool:
        return self.params.get("status") == "inconclusive"


REPORT_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "name": {"type": "string"},
            "params": {"type": "object"},
            "residual_max": {"type": "number"},
            "tolerance": {"type": "number"},
            "pass": {"type": "boolean"},
            "wall_time_ms": {"type": "integer"},
            "seed": {"type": "integer"},
        },
        "required": ["name", "params", "residual_max", "tolerance",
                     "pass", "wall_time_ms", "seed"],
        "additionalProperties": False,
    },
}


def run_check(spec: CheckSpec) -> ReportRecord:
    """Dispatch one named check; deterministic given the seed."""
    if spec.name not in REGISTRY:
        raise ParameterError(f"unknown check {spec.name!r}; see `list`")
    cd = REGISTRY[spec.name]
    params = dict(spec.params)
    seed = int(params.pop("seed", DEFAULT_SEED))
    tolerance = float(params.pop("tolerance", cd.tolerance))
    resolved = {k: _scalarize(v) for k, v in params.items()}
    t0 = time.perf_counter()
    try:
        residual = float(cd.fn(params, seed))
        status = None
    except InconclusiveRankError as e:
        residual = -1.0
        status = "inconclusive"
        resolved["gap"] = e.gap if e.gap is not None else -1.0
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    if status:
        resolved["status"] = status
        passed = False
    else:
        passed = residual <= tolerance
    return ReportRecord(name=spec.name, params=resolved, residual_max=residual,
                        tolerance=tolerance, passed=passed,
                        wall_time_ms=wall_ms, seed=seed)


def _scalarize(v):
    if isinstance(v, complex):
        return str(v)
    if isinstance(v, (int, float, str, bool)):
        return v
    return str(v)


def suite_exit_code(records, gating_map=None) -> int:
    """0 all pass, 1 any gating failure, 2 any inconclusive."""
    gating = gating_map or {name: cd.gating for name, cd in REGISTRY.items()}
    failed = any(not r.passed and not r.inconclusive and gating.get(r.name, True)
                 for r in records)
    if failed:
        return 1
    if any(r.inconclusive for r in records):
        return 2
    return 0
