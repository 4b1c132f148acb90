"""Every sampled verdict redraws a poled batch, through sampling.sampled_max.

No seed poles naturally at default parameters, so the pole is planted: each
sampled_max call made by the verdict gets a measure that measures a batch in
full and then raises PoleError.  Planted in the first batch of every call,
the verdict must return what it measures when every call starts at batch
seed + 7919; planted in all eight batches, it must raise PoleError.
"""

import importlib
import itertools

import pytest

from ellcert import sampling
from ellcert.checks import REGISTRY
from ellcert.errors import PoleError

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
}

# the tensor checks draw random grids, not sampled points, and never call sampled_max
UNSAMPLED = {"cf-commute", "cf-triangle", "delta-family", "plucker"}

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


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_eight_poled_batches_raise(name, monkeypatch):
    plant(monkeypatch, 8)
    with pytest.raises(PoleError):
        REGISTRY[name](VERDICTS[name], SEED)
