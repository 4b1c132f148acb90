"""One division contract: every failed division is a PoleError that sampling.sampled_max redraws.

No seed poles naturally at default parameters, so the pole is planted: each
sampled_max call made by the verdict, through sampling.relation_max or by
name, gets a measure that measures a batch in full and then raises
PoleError.  Planted in the first batch of every call,
the verdict must return what it measures when every call starts at batch
seed + 7919; planted in all eight batches, it must raise PoleError.  The
tensor-model checks are verdicts like the others: their batch is a grid.
Every verdict that certifies relations hands them to sampling.relation_max.

Every division that can meet a pole tests its denominator through the one
function expr.nonpole; patched to pole, it makes each of them raise.
"""

import importlib
import itertools

import numpy as np
import pytest

from ellcert import ThetaContext, sampling
from ellcert import expr as ex
from ellcert.checks import REGISTRY
from ellcert.errors import PoleError
from ellcert.poisson import PoissonElement, RatioBracket, _phase_space_points, jets
from ellcert.shiftops import make_Vn
from ellcert.starprod import qnk_relation_residual

SEED = 5

# every verdict that draws its own batch, at small parameters
VERDICTS = {
    "star-closure": {"n": "2"},  # SymThetaFun.invariant_residual
    "eta-flatness": {"n": 3},
    "bosonization-rank": {"pairs": "3x1"},  # hom_welldefined_residual
    "transfer-det": {"n": "2", "samples": 6},
    "sos-ratio": {"n": "2"},
    "poisson-hamiltonians": {"n": "2", "seeds": 1, "points": 6},
    "poisson-jacobi": {"points": 6},
    "fay": {"count": 10, "taus": "0.8j"},
    "quotient-rule": {"points": 6},
    "casimir-diagonal": {"m": "2"},
    "theta-quasiperiodicity": {"n_max": 3, "points": 20, "taus": "0.8j"},
    "qnk-relation": {"n": 3, "p": 1},  # one sum_to_zero_residual over every relation
    "transfer-commute": {"n": "2", "seeds": 1, "samples": 6},  # commutator_residual
    "sos-commute": {"n": "2", "seeds": 1, "samples": 6},
    "ttilde-commute": {"p": "1,1", "seeds": 1, "samples": 6},
    "fu-commute": {"m": "2", "seeds": 1, "samples": 6},
    "star-assoc": {"n": "2", "samples": 6},
    "psi2": {"samples": 6},  # poisson.pbracket_residual
    "cf-commute": {"sizes": "2x2", "seeds": 1},  # a grid whose M^0 cannot be inverted poles
    "cf-triangle": {"sizes": "2x2", "seeds": 1},
    "delta-family": {"n": 2, "k": 2, "seeds": 1},
}

# plucker divides by nothing that can vanish on a draw, so it never calls sampled_max
UNSAMPLED = {"plucker"}

MODULES = [importlib.import_module(f"ellcert.{name}")
           for name in ("cfdet", "checks", "poisson", "sampling", "shiftops", "starprod", "transfer")]
REAL = sampling.sampled_max


def route(monkeypatch, sampled_max):
    """Rebind sampled_max in sampling, whose relation_max calls it, and in
    every library module that calls it by name."""
    for module in MODULES:
        if hasattr(module, "sampled_max"):
            monkeypatch.setattr(module, "sampled_max", sampled_max)


def starting_at_second_batch(measure, draw, seed, ctx):
    return REAL(measure, draw, seed + sampling._RETRY_STRIDE, ctx)


def plant(monkeypatch, poled):
    """Route every sampled_max call through a measure that raises PoleError
    on its first `poled` batches; returns the list of planted poles."""
    planted = []

    def sampled_max(measure, draw, seed, ctx):
        batches = itertools.count()

        def poles(at):
            value = measure(at)
            if next(batches) < poled:
                planted.append(seed)
                raise PoleError("planted pole")
            return value

        return REAL(poles, draw, seed, ctx)

    route(monkeypatch, sampled_max)
    return planted


def test_every_sampled_check_is_covered():
    assert set(VERDICTS) | UNSAMPLED == set(REGISTRY)
    assert not set(VERDICTS) & UNSAMPLED


# a ratio of two magnitudes, and Fay's three products with their own floor: no relations
NOT_RELATIONS = {"eta-flatness", "fay"}


@pytest.mark.parametrize("name", sorted(set(VERDICTS) - NOT_RELATIONS))
def test_every_relation_check_reaches_the_engine(name, monkeypatch):
    # rebound in sampling too, whose seeds_max calls it for the stacked checks
    calls, real = [], sampling.relation_max

    def relation_max(relations, draw, seed, ctx):
        calls.append(seed)
        return real(relations, draw, seed, ctx)

    for module in MODULES:
        if hasattr(module, "relation_max"):
            monkeypatch.setattr(module, "relation_max", relation_max)
    REGISTRY[name](VERDICTS[name], SEED)
    assert calls, "the verdict scaled no relation through sampling.relation_max"


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_poled_first_batch_is_redrawn(name, monkeypatch):
    check = REGISTRY[name]
    route(monkeypatch, starting_at_second_batch)
    second = check(VERDICTS[name], SEED)
    planted = plant(monkeypatch, 1)
    assert check(VERDICTS[name], SEED) == second
    assert planted, "the verdict drew no batch through sampled_max"


# the commutation checks certify their seeds as one stacked batch per group
STACKED = {
    "transfer-commute": {"n": "2", "seeds": 2, "samples": 6},
    "sos-commute": {"n": "2", "seeds": 2, "samples": 6},
    "ttilde-commute": {"p": "1,1", "seeds": 2, "samples": 6},
    "fu-commute": {"m": "2", "seeds": 2, "samples": 6},
}


@pytest.mark.parametrize("name", sorted(STACKED))
def test_poled_first_batch_redraws_the_whole_group(name, monkeypatch):
    # both seeds are one batch: a pole in it redraws both, so the verdict is
    # the one whose every seed starts at batch seed + 7919
    check = REGISTRY[name]
    route(monkeypatch, starting_at_second_batch)
    second = check(STACKED[name], SEED)
    planted = plant(monkeypatch, 1)
    assert check(STACKED[name], SEED) == second
    assert planted == [SEED]


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_eight_poled_batches_raise(name, monkeypatch):
    plant(monkeypatch, 8)
    with pytest.raises(PoleError):
        REGISTRY[name](VERDICTS[name], SEED)


CTX = ThetaContext()


def ratio_bracket_at_points():
    alg = make_Vn(2, CTX)
    h = PoissonElement.function(alg, ex.theta1_of(ex.aff("z1", (0.5, "z2"))))
    g = PoissonElement.generator(alg, "f2", ex.theta1_of("z2"))
    one = PoissonElement.function(alg, ex.const(1))
    oj, hj, gj = jets([one, h, g], ex.Evaluator(_phase_space_points(alg, 4, 0), CTX))
    return RatioBracket(oj, hj, gj, oj).residual_batch()


# each division that can meet a pole, and the message it poles with
POLE_SITES = {
    "Quotient": (lambda: ex.evaluate(ex.quot(ex.const(1), ex.theta1_of("z1")), {"z1": 0.3 + 0.2j}, CTX),
                 "denominator magnitude below pole guard"),
    "RatioBracket": (ratio_bracket_at_points, "ratio denominator vanishes at a sample point"),
    "qnk_relation_residual": (lambda: qnk_relation_residual(3, 1, CTX),
                              "structure-constant denominator vanishes at this eta"),
}


@pytest.mark.parametrize("site", sorted(POLE_SITES))
def test_every_division_poles_through_nonpole(site, monkeypatch):
    # nonpole patched to pole on every call from this site, and to pass every other denominator
    run, what = POLE_SITES[site]
    real, asked = ex.nonpole, []

    def nonpole(den, message):
        asked.append(message)
        if message == what:
            raise PoleError(message)
        return real(den, message)

    monkeypatch.setattr(ex, "nonpole", nonpole)
    with pytest.raises(PoleError):
        run()
    assert what in asked


# sampling.seeds_max: the seeds of a stacked check, grouped, stacked and redrawn in one place

def toy_draw(s, b):
    """Seed s's four points at batch seed b, with b itself at each of them."""
    rng = np.random.default_rng(b)
    return {"x": rng.random(4) + 1j * rng.random(4) + s, "b": np.full(4, b)}


def toy_relations(at):
    x = at.env["x"]
    return [(x * x * x - x, x * x * x, x), (x * x - 1, x * x)]


@pytest.mark.parametrize("size", [1, 2, 5])
def test_seeds_max_is_the_largest_per_seed_residual(size, monkeypatch):
    # groups of one, of two (and a last one of one), and of all five seeds
    monkeypatch.setattr(sampling, "STACK_ENTRIES", 4 * size)
    assert [len(group) for group in sampling.seed_groups(5, 4)] == {1: [1] * 5, 2: [2, 2, 1], 5: [5]}[size]
    alone = [sampling.relation_max(toy_relations, lambda b: toy_draw(s, b), SEED + s, CTX) for s in range(5)]
    assert sampling.seeds_max(toy_relations, toy_draw, 5, SEED, CTX, 4) == max(alone)


def test_seeds_max_redraws_a_poled_group_whole(monkeypatch):
    # seed 1's first batch poles: its group of two is redrawn, seed 0 with it
    monkeypatch.setattr(sampling, "STACK_ENTRIES", 8)
    drawn = []

    def draw(s, b):
        drawn.append((s, b))
        return toy_draw(s, b)

    def relations(at):
        if np.any(at.env["b"] == SEED + 1):
            raise PoleError("planted pole")
        return toy_relations(at)

    redrawn = SEED + sampling._RETRY_STRIDE
    want = max(sampling.relation_max(toy_relations, lambda b: toy_draw(s, b), redrawn + s, CTX) for s in range(2))
    assert sampling.seeds_max(relations, draw, 2, SEED, CTX, 4) == want
    assert drawn == [(0, SEED), (1, SEED + 1), (0, redrawn), (1, redrawn + 1)]
