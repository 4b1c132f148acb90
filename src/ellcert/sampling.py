"""Pole-guarded deterministic sampling of complex points.

Points are drawn from the box Re in [0,1), Im in [0, Im tau) with a seeded
PCG64 stream.  Candidates are generated in bulk and filtered in index order,
so the accepted list depends only on the seed, never on scheduling.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

import numpy as np

from .context import ThetaContext
from .errors import PoleError, SamplingExhaustedError
from . import expr as ex

_MAX_DRAW_FACTOR = 1000
_RETRY_BATCHES = 8
_RETRY_STRIDE = 7919


def sample_points(count: int,
                  var_names: Sequence[str],
                  guard_exprs: Sequence[ex.MeroExpr],
                  seed: int,
                  ctx: ThetaContext) -> list[dict]:
    """Return `count` assignments of var_names to guarded box points.

    A candidate is rejected when any guard expression has magnitude below
    ctx.pole_guard at it (or fails to evaluate).  Raises
    SamplingExhaustedError after 1000*count draws, which signals degenerate
    parameters rather than bad luck.
    """
    if count < 1 or len(var_names) < 1:
        raise ValueError("count and dimension must be >= 1")
    rng = np.random.default_rng(seed)
    dim = len(var_names)
    accepted: list[dict] = []
    drawn = 0
    limit = _MAX_DRAW_FACTOR * count
    while len(accepted) < count and drawn < limit:
        batch = min(max(4 * count, 16), limit - drawn)
        re = rng.random((batch, dim))
        im = rng.random((batch, dim)) * ctx.tau.imag
        drawn += batch
        pts = re + 1j * im
        for row in pts:
            asg = dict(zip(var_names, (complex(v) for v in row)))
            if _passes_guards(asg, guard_exprs, ctx):
                accepted.append(asg)
                if len(accepted) == count:
                    break
    if len(accepted) < count:
        raise SamplingExhaustedError(
            f"guards rejected {drawn} candidates for {count} requested points"
        )
    return accepted


def _passes_guards(assignment, guard_exprs, ctx) -> bool:
    for g in guard_exprs:
        try:
            v = ex.evaluate(g, assignment, ctx)
        except PoleError:
            return False
        if np.any(np.abs(v) < ctx.pole_guard):
            return False
    return True


def pair_guards(names: Sequence[str], theta_of=ex.theta1_of) -> list:
    """theta(a - b) for every pair of names: the coincidence poles."""
    return [theta_of(ex.aff(a, (-1, b))) for a, b in itertools.combinations(names, 2)]


def sampled_max(measure: Callable[[ex.Evaluator], float],
                var_names: Sequence[str],
                guard_exprs: Sequence[ex.MeroExpr],
                samples: int,
                seed: int,
                ctx: ThetaContext) -> float:
    """measure(evaluator of the stacked points) on the first seeded batch
    that does not pole.

    Batch k is drawn with seed + _RETRY_STRIDE*k and gets one Evaluator, so
    everything measure compares on the batch evaluates each node once.  A
    PoleError raised by measure discards the whole batch with its evaluator,
    so no partial value of a poled batch leaks into the result.  Raises
    PoleError when all 8 batches pole.
    """
    for attempt in range(_RETRY_BATCHES):
        pts = sample_points(samples, var_names, guard_exprs, seed + _RETRY_STRIDE * attempt, ctx)
        try:
            return measure(ex.Evaluator(stack_assignments(pts), ctx))
        except PoleError:
            continue
    raise PoleError(f"sampled values pole at all {_RETRY_BATCHES} seeded batches")


def stack_assignments(assignments: Sequence[Mapping]) -> dict:
    """Merge per-point assignments into one array-valued assignment."""
    if not assignments:
        return {}
    names = assignments[0].keys()
    return {n: np.array([a[n] for a in assignments]) for n in names}


def rel_residual(difference, *parts) -> float:
    """max |difference| / scale with scale = max(1, |parts|) elementwise."""
    scale = np.asarray(1.0)
    for p in parts:
        scale = np.maximum(scale, np.abs(p))
    return float(np.max(np.abs(difference) / scale))
