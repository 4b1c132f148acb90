"""Deterministic sampling of complex points.

Points are drawn from the box Re in [0,1), Im in [0, Im tau) with a seeded
PCG64 stream, so a batch depends only on the seed.  No point is rejected: a
pole is detected where the division happens (a Quotient or RatioBracket
denominator below ctx.pole_guard raises PoleError), and sampled_max then
redraws the whole batch.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .context import ThetaContext
from .errors import PoleError
from . import expr as ex

_RETRY_BATCHES = 8
_RETRY_STRIDE = 7919


def sample_points(count: int, var_names: Sequence[str], seed: int, ctx: ThetaContext) -> list[dict]:
    """Return `count` assignments of var_names to seeded box points."""
    if count < 1 or len(var_names) < 1:
        raise ValueError("count and dimension must be >= 1")
    rng = np.random.default_rng(seed)
    # max(4*count, 16) rows, real parts then imaginary parts: the golden residuals depend on this layout
    shape = (max(4 * count, 16), len(var_names))
    re = rng.random(shape)
    im = rng.random(shape) * ctx.tau.imag
    return [dict(zip(var_names, (complex(v) for v in row))) for row in (re + 1j * im)[:count]]


def sampled_max(measure: Callable[[ex.Evaluator], float],
                var_names: Sequence[str],
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
        pts = sample_points(samples, var_names, seed + _RETRY_STRIDE * attempt, ctx)
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
