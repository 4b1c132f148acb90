"""Named check registry: every certified identity behind one dispatch surface.

Each check is declared once, by the `check` decorator on its body, with a
`Param` (default, parser, documented range) per key.  `run_check` resolves the
raw parameters against it, so a body sees only parsed, in-range values and an
undeclared key is an error, never a silent default.  Records are deterministic:
re-running a config byte-identically reproduces every residual_max.  The
Cartier-Foata residuals go through BLAS, whose last bits can follow its thread
count, so `import ellcert` pins OpenBLAS to one thread unless
OPENBLAS_NUM_THREADS is exported (then the bits hold for that count).  A record
without a residual has status "inconclusive" (no usable singular-value gap) or
"error" (the check raised; see `error_record`), pass=false, residual_max=-1.0.
"""

from __future__ import annotations

import cmath
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar

import numpy as np

from .context import ThetaContext
from .errors import EvaluationOverflowError, InconclusiveRankError, ParameterError
from . import expr as ex
from .sampling import box, relation_max, seeds_max, strip_points
from .shiftops import make_Vn
from .theta import reduce_to_fundamental, theta1, theta_basis
from . import cfdet
from . import poisson
from . import starprod
from . import transfer

DEFAULT_SEED = 42
DEFAULT_TAU = 0.8j
DEFAULT_ETA = 0.171717 + 0.0323j

# theta1(N*eta) must stay off the lattice for N = 1..ETA_ORDERS, so that no
# shift a check forms is degenerate.  A fixed 12, not derived from the
# request, and less than twice the largest order a check builds: 8, from
# casimir-diagonal's 2m at m = 4 and fu-commute's Psi (order m + 5) at m = 3.
ETA_ORDERS = 12


# Parameter specs ---------------------------------------------------------------

def parse_value(text: str):
    """Config text as an int, float or complex when it reads as one, else the text."""
    text = text.strip()
    for conv in (int, float, complex):
        try:
            return conv(text)
        except ValueError:
            continue
    return text


def _integer(raw, lo=None, hi=None) -> int:
    value = parse_value(raw) if isinstance(raw, str) else raw
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{raw!r} is not an integer")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise ValueError(f"{value} is not{_span(lo, hi)}")
    return int(value)


def _complex(raw) -> complex:
    value = parse_value(raw) if isinstance(raw, str) else raw
    if not isinstance(value, numbers.Number) or not cmath.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return complex(value)


def _positive(raw) -> float:
    value = _complex(raw)
    if value.imag or not value.real > 0:
        raise ValueError(f"{raw!r} is not a positive real number")
    return value.real


def _span(lo, hi) -> str:
    if lo is None:
        return ""
    return f" in [{lo}, {hi}]" if hi is not None else f" >= {lo}"


def _items(raw, sep, item) -> tuple:
    """A `sep`-separated list (or one bare value), parsed item by item; never empty."""
    values = tuple(item(tok) for tok in str(raw).replace(" ", "").split(sep) if tok != "")
    if not values:
        raise ValueError("empty list")
    return values


@dataclass(frozen=True)
class Param:
    """One parameter of a check: default (in config notation), parser, documented range."""

    default: object
    parse: Callable[[object], object]
    allowed: str


def integer(default, lo=None, hi=None) -> Param:
    return Param(default, lambda raw: _integer(raw, lo, hi), f"integer{_span(lo, hi)}")


def count(default) -> Param:
    """How many seeds, samples, points or cases to run: at least one."""
    return integer(default, 1)


def integers(default, lo, hi, max_len=None) -> Param:
    """','-list of integers, each in [lo, hi]."""
    def parse(raw):
        values = _items(raw, ",", lambda tok: _integer(tok, lo, hi))
        if max_len is not None and len(values) > max_len:
            raise ValueError(f"{len(values)} entries, more than {max_len}")
        return values

    most = f", at most {max_len} of them" if max_len else ""
    return Param(default, parse, f"','-list of integers{_span(lo, hi)}{most}")


def pairs(default, first, second) -> Param:
    """';'-list of NxK pairs, N in the range `first` and K in `second`."""
    def pair(tok):
        parts = str(tok).lower().split("x")
        if len(parts) != 2:
            raise ValueError(f"{tok!r} is not of the form NxK")
        return _integer(parts[0], *first), _integer(parts[1], *second)

    return Param(default, lambda raw: _items(raw, ";", pair),
                 f"';'-list of NxK, N{_span(*first)}, K{_span(*second)}")


def _tau(raw) -> ThetaContext:
    # ThetaContext itself rejects Im tau < 0.3 (with a ValueError)
    return ThetaContext(tau=_complex(raw))


def _deformed(ctx: ThetaContext, eta: complex) -> ThetaContext:
    """`ctx` at deformation `eta`, rejected when some N*eta is within `pole_guard` of the lattice.

    theta1 is taken at N*eta reduced to the fundamental box, where it vanishes
    only at 0; theta1(N*eta) is that value times a multiplier of modulus >= 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # theta raises EvaluationOverflowError itself
        w, _ = reduce_to_fundamental(np.arange(1, ETA_ORDERS + 1) * eta, ctx)
    values = np.abs(theta1(w, ctx))
    n = int(np.argmin(values))
    if values[n] < ctx.pole_guard:
        raise ValueError(f"{n + 1}*eta is on the lattice (|theta1| = {values[n]:.1e} < pole_guard "
                         f"{ctx.pole_guard:.0e} there): the deformation is degenerate")
    return ctx.replace(eta=eta)


SEED = integer(DEFAULT_SEED, 0)
TAU = Param(DEFAULT_TAU, _tau, "complex, Im >= 0.3")
TAUS = Param("0.8j;0.3+1.1j", lambda raw: _items(raw, ";", _tau), "';'-list of complex tau, Im >= 0.3")
ETA = Param(DEFAULT_ETA, _complex, f"complex, N*eta off the lattice for N = 1..{ETA_ORDERS}")


def _paired(param: Param, name: str) -> Param:  # at 1 a tensor check would compare nothing and read 0
    return replace(param, allowed=f"{param.allowed}; {name} = 1 gives one ratio and no pair to compare")


SIZES = _paired(pairs("2x2;2x3;3x2", (2, 4), (2, 4)), "N")


def _parsed(key, value, parse):
    try:
        return None if value is None else parse(value)
    except (ValueError, ArithmeticError, EvaluationOverflowError) as e:
        raise ParameterError(f"{key}={value!r}: {e}") from None


# Registry ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    name: str
    fn: Callable
    tolerance: float
    summary: str
    params: dict  # key -> Param, `seed` and `tolerance` included
    gating: ClassVar[bool] = True  # every check gates; bench/worker.py still reads the flag

    def resolve(self, raw: dict) -> dict:
        """Parsed value of every declared key, defaults filled in; ParameterError otherwise."""
        unknown = sorted(str(key) for key in raw if key not in self.params)
        if unknown:
            raise ParameterError(f"{self.name} takes no parameter {', '.join(unknown)}; "
                                 f"it takes {', '.join(self.params)}")
        values = {key: _parsed(key, raw.get(key, p.default), p.parse)
                  for key, p in self.params.items()}
        if "tau" in values:  # tau, and eta where declared, reach the body as one context
            ctx = values.pop("tau")
            if "eta" in values:
                ctx = _parsed("eta", values.pop("eta"), lambda eta: _deformed(ctx, eta))
            values["ctx"] = ctx
        return values

    def __call__(self, params: dict, seed=DEFAULT_SEED) -> float:
        """Residual of the body at raw `params` and `seed`, resolved as `run_check` does."""
        values = self.resolve({**params, "seed": seed})
        del values["tolerance"]
        return float(self.fn(**values))


REGISTRY: dict[str, CheckDef] = {}


def check(name, tolerance, summary, **params):
    """Register the decorated body as check `name`, with `params` as its spec.

    Every check also takes `seed` (integer >= 0) and `tolerance` (its own by
    default).  The body is called with `seed` and every declared key, parsed;
    `tau` and, where declared, `eta` reach it as one ThetaContext `ctx`.
    """
    def register(body) -> CheckDef:
        spec = {**params, "seed": SEED, "tolerance": Param(tolerance, _positive, "real > 0")}
        REGISTRY[name] = CheckDef(name, body, tolerance, summary, spec)
        return REGISTRY[name]

    return register


# Check implementations ---------------------------------------------------------

@check("theta-quasiperiodicity", 1e-10,
       "basis theta covariance under z -> z + 1/n and tau quasi-periodicity, orders 1..n_max",
       n_max=integer(6, 1, 8), points=count(200), taus=TAUS)
def check_theta_quasiperiodicity(seed, n_max, points, taus) -> float:
    """theta_i(z + 1/n) = e^(2 pi i i/n) theta_i(z), which reads the series at
    two points of the fundamental strip (at n = 1 it is the period 1), and
    theta_i(z + tau) = (-1)^n e^(-2 pi i n z) theta_i(z), which reduces to
    z's own strip point and so checks the multiplier."""
    worst = 0.0
    for ctx in taus:
        def draw(s):  # a stream of its own, not the box layout: the golden residuals depend on it
            rng = np.random.default_rng(s)
            return {"z": rng.random(points) + 1j * ctx.tau.imag * rng.random(points)}

        def relations(at):  # lazily: a list holds every basis's values, 7 MiB at n_max 8 and 2,000 points
            z = at.env["z"]
            for n in range(1, n_max + 1):
                for i in range(n):
                    v, step, qp = (theta_basis(i, w, ctx, n=n) for w in (z, z + 1 / n, z + ctx.tau))
                    expect = (-1) ** n * np.exp(-2j * math.pi * n * z) * v
                    yield from ((step - cmath.exp(2j * math.pi * i / n) * v, v), (qp - expect, qp, expect))

        worst = max(worst, relation_max(relations, draw, seed, ctx))
    return worst


def _cf_verdict(relations, draw, sizes, seeds, seed) -> float:
    """Largest residual of relations(cfdet.tensor_minors(grids)), grids draw(n, k, seed + s),
    (n, k) in sizes, s < seeds.

    One `sampling.seeds_max` call per size, a seed's draw its grid (row r
    the blocks of site r) and its entries the n+1 minors of k^n x k^n.  A
    grid whose M^0 the relations cannot invert poles, and its whole group is
    redrawn.
    """
    return max(seeds_max(lambda at: relations(cfdet.tensor_minors(at.env["grid"])),
                         lambda s, b: {"grid": draw(n, k, b)[None]},
                         seeds, seed, ThetaContext(), (n + 1) * k ** (2 * n))
               for n, k in sizes)


@check("cf-commute", 1e-9, "determinant-ratio commuting family over the tensor backend",
       sizes=SIZES, seeds=count(20))
def check_cf_commute(seed, sizes, seeds) -> float:
    return _cf_verdict(cfdet.commuting_relations, cfdet.random_cf_matrix, sizes, seeds, seed)


@check("cf-triangle", 1e-9, "triangle exchange relations for the minors",
       sizes=SIZES, seeds=count(20))
def check_cf_triangle(seed, sizes, seeds) -> float:
    return _cf_verdict(cfdet.triangle_relations, cfdet.random_cf_matrix, sizes, seeds, seed)


@check("delta-family", 1e-9, "column-commuting grid variant of the commuting family",
       n=_paired(integer(3, 2, 4), "n"), k=integer(2, 2, 3), seeds=count(5))
def check_delta_family(seed, n, k, seeds) -> float:
    # each grid transposed, as cfdet.delta_family transposes it: row r holds the blocks of site r
    return _cf_verdict(cfdet.commuting_relations,
                       lambda n, k, s: np.swapaxes(cfdet.random_delta_grid(n, k, s), -4, -3), [(n, k)], seeds, seed)


@check("plucker", 1e-10, "3/4/6-term multilinear identities for decomposable forms",
       orders=integers("2,3,4", 2, 4), seeds=count(50))
def check_plucker(seed, orders, seeds) -> float:
    return max(cfdet.plucker_check(order, seeds, seed) for order in orders)


@check("poisson-hamiltonians", 1e-9, "pairwise brackets of the determinant hamiltonians",
       n=integers("2,3,4", 2, 4), seeds=count(5), points=count(20), tau=TAU)
def check_poisson_hamiltonians(seed, n, seeds, points, ctx) -> float:
    return max(poisson.classical_hamiltonians(order, ctx, seeds, seed, points) for order in n)


@check("poisson-jacobi", 1e-9, "cyclic determinant-bracket identity",
       points=count(20), tau=TAU)
def check_poisson_jacobi(seed, points, ctx) -> float:
    return max(poisson.jacobi_delta_residual(n, ctx, triple, seed=seed, points=points)
               for n, triple in ((3, (1, 2, 3)), (4, (1, 2, 4))))


def _spectral_points(ctx, seed, count):
    return tuple(map(complex, strip_points(seed, (count,), ctx)))


def _commutator_max(fam, ctx, seeds, samples, seed) -> float:
    """Largest [T(u), T(v)] residual of `fam` over `seeds` seeded spectral-point pairs.

    Seed s reads the pair drawn from stream seed + 100*s at `samples` box
    points of batch seed seed + s.  The family is built once and the seeds are
    certified as stacked batches (transfer.transfer_commutator_residual), so
    a pole redraws a whole group of seeds.
    """
    return transfer.transfer_commutator_residual(
        fam, [_spectral_points(ctx, seed + 100 * s, 2) for s in range(seeds)], samples=samples, seed=seed)


@check("transfer-commute", 1e-8, "[T(u), T(v)] = 0 for the basic family",
       n=integers("2,3,4,5", 2, 6), seeds=count(5), samples=count(20), tau=TAU, eta=ETA)
def check_transfer_commute(seed, n, seeds, samples, ctx) -> float:
    return max(_commutator_max(transfer.vn_family(order, ctx), ctx, seeds, samples, seed) for order in n)


@check("transfer-det", 1e-8, "explicit coefficients against the determinant form",
       n=integers("2,3", 2, 4), samples=count(15), tau=TAU, eta=ETA)
def check_transfer_det(seed, n, samples, ctx) -> float:
    (u,) = _spectral_points(ctx, seed, 1)
    return max(transfer.transfer_det_consistency_residual(u, order, ctx, samples=samples, seed=seed)
               for order in n)


@check("star-assoc", 1e-8, "associativity of the star product",
       n=integers("2,3,4", 2, 6), samples=count(15), tau=TAU, eta=ETA)
def check_star_assoc(seed, n, samples, ctx) -> float:
    fgh = ([starprod.theta_gen(i, order, ctx) for i in (0, 1 % order, order - 1)] for order in n)
    return max(starprod.star_assoc_residual(f, g, h, samples=samples, seed=seed) for f, g, h in fgh)


@check("star-closure", 1e-8, "star products stay symmetric and quasi-periodic",
       n=integers("2,3,4", 2, 6), tau=TAU, eta=ETA)
def check_star_closure(seed, n, ctx) -> float:
    worst = 0.0
    for order in n:
        f = starprod.theta_gen(0, order, ctx)
        g = starprod.theta_gen(order - 1, order, ctx)
        fg = starprod.star(f, g)
        worst = max(worst, fg.invariant_residual(samples=10, seed=seed))
        worst = max(worst, starprod.star(fg, g).invariant_residual(samples=8, seed=seed + 1))
        worst = max(worst, starprod.star(f, fg).invariant_residual(samples=8, seed=seed + 2))
    return worst


@check("eta-flatness", 1.0, "star commutator scales linearly in the deformation",
       n=integer(3, 2, 6), tau=TAU, eta=ETA)
def check_eta_flatness(seed, n, ctx) -> float:
    ratio = starprod.eta_flatness_ratio(n, ctx, seed=seed)
    # linear scaling means ratio ~ 10; residual is the log2 distance from it
    return abs(math.log2(ratio / 10.0))


@check("bosonization-rank", 1e-7, "sampled rank n(n+1)/2 and kernel annihilation",
       pairs=pairs("3x1;3x2;4x2;5x2", (2, 6), (1, 3)), samples=count(None), tau=TAU, eta=ETA)
def check_bosonization_rank(seed, pairs, samples, ctx) -> float:
    return max(starprod.hom_welldefined_residual(n, p, ctx, seed=seed, samples=samples) for n, p in pairs)


@check("psi2", 1e-9, "classical bosonization images of the order-2 basis commute",
       samples=count(20), tau=TAU)
def check_psi2(seed, samples, ctx) -> float:
    return poisson.psi2_pair_residual(ctx, seed=seed, samples=samples)


@check("fu-commute", 1e-7, "degree-m family commutes in its bosonized image",
       m=integers("2,3", 2, 3), seeds=count(3), samples=count(12), tau=TAU, eta=ETA)
def check_fu_commute(seed, m, seeds, samples, ctx) -> float:
    params = [_spectral_points(ctx, seed + s, 4) for s in range(seeds)]
    return max(starprod.fu_commutator_residual(degree, params, ctx, samples=samples, seed=seed) for degree in m)


@check("casimir-diagonal", 1e-10, "central elements vanish on the shifted diagonal",
       m=integers("2,3", 2, 4), tau=TAU, eta=ETA)
def check_casimir_diagonal(seed, m, ctx) -> float:
    worst = 0.0
    for degree in m:
        points = box(10, [f"z{i}" for i in range(1, degree + 1)], ctx)
        bodies = [starprod.casimir(alpha, degree, ctx).body for alpha in (0, 1)]

        def draw(s):  # row 0 the points, row 1 the same points with z2 moved onto z1 + 2m*eta
            pts = points(s)
            diagonal = {**pts, "z2": pts["z1"] + 2 * degree * ctx.eta}
            return {v: np.stack([x, diagonal[v]]) for v, x in pts.items()}

        worst = max(worst, relation_max(lambda at: [(on, generic) for generic, on in at.values(bodies)],
                                        draw, seed, ctx))
    return worst


@check("ttilde-commute", 1e-7, "chain transfer function commutes",
       p=integers("2,2", 1, 3, max_len=3), seeds=count(3), samples=count(10), tau=TAU, eta=ETA)
def check_ttilde_commute(seed, p, seeds, samples, ctx) -> float:
    return _commutator_max(transfer.btilde_family(p, ctx), ctx, seeds, samples, seed)


@check("sos-commute", 1e-8, "face-model auxiliary transfer commutes",
       n=integers("2,3", 2, 4), seeds=count(3), samples=count(10), tau=TAU, eta=ETA)
def check_sos_commute(seed, n, seeds, samples, ctx) -> float:
    return max(_commutator_max(transfer.sos_family(order, ctx), ctx, seeds, samples, seed) for order in n)


@check("sos-ratio", 1e-8, "face-model kernel matches the basic kernel after reflection",
       n=integers("2,3", 2, 4), tau=TAU)
def check_sos_ratio(seed, n, ctx) -> float:
    (u,) = _spectral_points(ctx, seed, 1)
    return max(transfer.sos_vs_T_coefficient_ratio(u, order, ctx, seed=seed) for order in n)


@check("fay", 1e-10, "three-term trisecant identity for the odd theta",
       count=count(100), taus=TAUS)
def check_fay(seed, count, taus) -> float:
    return max(poisson.fay_sweep(count, seed, ctx) for ctx in taus)


@check("quotient-rule", 1e-9, "fraction-field bracket extension rule",
       points=count(20), tau=TAU)
def check_quotient_rule(seed, points, ctx) -> float:
    alg = make_Vn(2, ctx)
    h = poisson.PoissonElement.function(alg, ex.theta1_of(ex.aff("z1", (0.5, "z2"))))
    g = poisson.PoissonElement.generator(alg, "f2", ex.theta1_of("z2"))
    one = poisson.PoissonElement.function(alg, ex.const(1))

    def relations(at):  # a pole of h raises PoleError in the ratio bracket: the batch is redrawn, no point skipped
        oj, hj, gj = poisson.jets([one, h, g], at)
        lhs = poisson.RatioBracket(oj, hj, gj, oj).residual_at()[0]
        rhs = -poisson.jet_bracket(hj, gj) / hj.value ** 2
        return [(lhs - rhs, lhs, rhs)]

    return relation_max(relations, lambda s: poisson._phase_space_points(alg, points, s), seed, ctx)


@check("qnk-relation", 1e-10, "Feigin-Odesskii quadratic relations of Q_{n,1} hold under phi_p",
       n=integer(3, 2, 6), p=integer(2, 1, 3), tau=TAU, eta=ETA)
def check_qnk_relation(seed, n, p, ctx) -> float:
    return starprod.qnk_relation_residual(n, p, ctx, seed=seed)


# Records -----------------------------------------------------------------------

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
    status: str | None = None  # "inconclusive" or "error": no residual was measured

    def to_json_dict(self) -> dict:
        params = {**self.params, "status": self.status} if self.status else self.params
        return {"name": self.name, "params": params, "residual_max": self.residual_max,
                "tolerance": self.tolerance, "pass": self.passed,
                "wall_time_ms": self.wall_time_ms, "seed": self.seed}

    @property
    def inconclusive(self) -> bool:
        return self.status == "inconclusive"

    @property
    def errored(self) -> bool:
        return self.status == "error"


_RECORD_FIELDS = {"name": "string", "params": "object", "residual_max": "number", "tolerance": "number",
                  "pass": "boolean", "wall_time_ms": "integer", "seed": "integer"}
REPORT_SCHEMA = {
    "type": "array",
    "items": {"type": "object", "properties": {k: {"type": t} for k, t in _RECORD_FIELDS.items()},
              "required": list(_RECORD_FIELDS), "additionalProperties": False},
}


def run_check(spec: CheckSpec) -> ReportRecord:
    """Dispatch one named check; deterministic given the seed."""
    if spec.name not in REGISTRY:
        raise ParameterError(f"unknown check {spec.name!r}; see `list`")
    cd = REGISTRY[spec.name]
    values = cd.resolve(spec.params)
    tolerance = values.pop("tolerance")
    params = _record_params(spec.params)
    t0 = time.perf_counter()
    try:
        residual, status = float(cd.fn(**values)), None
    except InconclusiveRankError as e:
        residual, status = -1.0, "inconclusive"
        params["gap"] = e.gap if e.gap is not None else -1.0
    return ReportRecord(spec.name, params, residual, tolerance, status is None and residual <= tolerance,
                        int(round((time.perf_counter() - t0) * 1000)), values["seed"], status)


def error_record(spec: CheckSpec, error: Exception, wall_time_ms: int) -> ReportRecord:
    """Record of a check that raised `error`, at the seed asked for (-1 if not an integer)."""
    cd = REGISTRY.get(spec.name)
    seed = {"seed": DEFAULT_SEED, **spec.params}["seed"]
    return ReportRecord(spec.name, {**_record_params(spec.params), "message": str(error)}, -1.0,
                        cd.tolerance if cd else 0.0, False, wall_time_ms,
                        seed if isinstance(seed, int) else -1, "error")


def _record_params(params) -> dict:
    return {k: _scalarize(v) for k, v in params.items() if k not in ("seed", "tolerance")}


def _scalarize(v):
    return v if isinstance(v, (int, float, str, bool)) else str(v)


def suite_exit_code(records) -> int:
    """0 all pass, 1 any failure, 2 any inconclusive, 3 any check raised."""
    if any(r.errored for r in records):
        return 3
    if any(not r.passed and not r.inconclusive for r in records):
        return 1
    return 2 if any(r.inconclusive for r in records) else 0
