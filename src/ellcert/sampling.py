"""Deterministic sampling of complex points, and the one loop that measures on them.

A draw maps a batch seed to an assignment of variables to equally shaped
arrays; `box` draws seeded points of Re in [0,1), Im in [0, Im tau).  No point
is rejected: a division that meets a pole raises PoleError (expr.nonpole, or
a singular M^0 in cfdet).  sampled_max is the only code that draws a batch,
builds its Evaluator and redraws, for sampled points and tensor grids alike.
Seeds certified together are stacked into one draw, in groups of bounded
size (`stacked`, `seed_groups`).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .context import ThetaContext
from .errors import EvaluationOverflowError, PoleError
from . import expr as ex

_RETRY_BATCHES = 8
_RETRY_STRIDE = 7919

# A stack of seeds keeps its largest array at or under this many complex
# entries (1 MiB).  It bounds memory, not time: stacking every seed of a
# section at once raised the peak RSS of the benchmark's `dense` run (seed 42)
# from 40.4 to 67.0 MiB, and its certify_s did not fall (0.302 s in one run,
# against a median of 0.290 s over ten runs with this bound).
STACK_ENTRIES = 2 ** 16


def seed_groups(seeds: int, entries: int) -> list:
    """range(seeds) cut into consecutive ranges, each of as many seeds (at
    least one) as keep `entries` complex entries per seed within STACK_ENTRIES."""
    size = max(1, STACK_ENTRIES // entries)
    return [range(s, min(s + size, seeds)) for s in range(0, seeds, size)]


def box_rows(count: int, var_names: Sequence[str], seed: int, ctx: ThetaContext) -> np.ndarray:
    """`count` seeded box points as the rows of a (count, len(var_names)) array."""
    if count < 1 or len(var_names) < 1:
        raise ValueError("count and dimension must be >= 1")
    rng = np.random.default_rng(seed)
    # max(4*count, 16) rows, real parts then imaginary parts: the golden residuals depend on this layout
    shape = (max(4 * count, 16), len(var_names))
    re = rng.random(shape)
    im = rng.random(shape) * ctx.tau.imag
    return (re + 1j * im)[:count]


def sample_points(count: int, var_names: Sequence[str], seed: int, ctx: ThetaContext) -> list[dict]:
    """Return `count` assignments of var_names to seeded box points."""
    return [dict(zip(var_names, (complex(v) for v in row))) for row in box_rows(count, var_names, seed, ctx)]


def box(count: int, var_names: Sequence[str], ctx: ThetaContext) -> Callable[[int], dict]:
    """The draw of `count` seeded box points, stacked: batch seed -> {name: array},
    each array a column of `box_rows`."""
    return lambda seed: dict(zip(var_names, np.ascontiguousarray(box_rows(count, var_names, seed, ctx).T)))


def stacked(draw: Callable[[int], Mapping], constants: Sequence[Mapping]) -> Callable[[int], dict]:
    """The draws of several seeds as one: batch seed b -> {name: array}, seed
    s < len(constants) contributing draw(b + s) and, repeated over its
    points, its own constants[s] ({name: value})."""
    def draw_all(b):
        parts = [draw(b + s) for s in range(len(constants))]
        env = {v: np.concatenate([part[v] for part in parts]) for v in parts[0]}
        counts = [np.size(next(iter(part.values()))) for part in parts]
        for name in constants[0]:
            env[name] = np.repeat([c[name] for c in constants], counts)
        return env

    return draw_all


def sampled_max(measure: Callable[[ex.Evaluator], object],
                draw: Callable[[int], Mapping],
                seed: int,
                ctx: ThetaContext):
    """measure(evaluator of draw(batch seed)) on the first batch that does not pole.

    Batch k is draw(seed + _RETRY_STRIDE*k) and gets one Evaluator, so
    everything measure compares at the drawn points evaluates each node
    object and each distinct theta leaf once.
    measure may return any value: a residual, a constant, a matrix; it may
    read any drawn value, a stack of tensor grids too, through at.env, and evaluate
    at points derived from them on evaluators of its own (shiftops'
    sampled products do, at the batch shifted by a factor's monomials).  A
    PoleError raised by measure discards the whole batch with its evaluator,
    so no partial value of a poled batch leaks into the result.  A draw
    may stack several seeds (`stacked`, or the tensor checks' stacks of
    grids): then a pole anywhere redraws every seed of it, at batch seed +
    7919 as one, and `seed_groups` bounds how many seeds one draw holds.  Raises
    PoleError when all 8 batches pole, and EvaluationOverflowError at once
    when the value is not finite, which is never a residual.
    """
    for attempt in range(_RETRY_BATCHES):
        at = ex.Evaluator(draw(seed + _RETRY_STRIDE * attempt), ctx)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value = measure(at)
        except PoleError:
            continue
        if not np.all(np.isfinite(value)):
            raise EvaluationOverflowError("a sampled value is not finite")
        return value
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
