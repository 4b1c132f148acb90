"""One division contract: every failed division is a PoleError that sampling.sampled_max redraws.

No seed poles naturally at default parameters, so the pole is planted: each
sampled_max call made by the verdict gets a measure that measures a batch in
full and then raises PoleError.  Planted in the first batch of every call,
the verdict must return what it measures when every call starts at batch
seed + 7919; planted in all eight batches, it must raise PoleError.  The
tensor-model checks are verdicts like the others: their batch is a grid.

Every division that can meet a pole tests its denominator through the one
function expr.nonpole; patched to pole, it makes each of them raise.
"""

import importlib
import itertools

import pytest

from ellcert import ThetaContext, sampling
from ellcert import expr as ex
from ellcert.checks import REGISTRY
from ellcert.errors import PoleError
from ellcert.poisson import PoissonElement, RatioBracket, _phase_space_points
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
           for name in ("checks", "poisson", "shiftops", "starprod", "transfer")]
REAL = sampling.sampled_max


def route(monkeypatch, sampled_max):
    """Rebind sampled_max in every library module that calls it."""
    for module in MODULES:
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
    return RatioBracket(one, h, g, one).residual_batch(ex.Evaluator(_phase_space_points(alg, 4, 0), CTX))


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
