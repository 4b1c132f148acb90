"""Span tracer that wraps `ellcert` layer functions from outside the library.

`Tracer.install()` replaces each function named in `SPANS` by a wrapper that
records one span (name, start, end, parent) per call.  A module-level
function is rebound in every `ellcert` module that holds it, which covers
names imported with `from ... import`; a method is replaced on its class.
Spans stay in memory, in flat arrays, and are written once by `write()`.

A layer's self time is the summed duration of its spans minus the time
covered by their child spans.  The smart constructors of `expr` (`add`,
`mul`, `quot`, ...) are deliberately not spans: they are the hottest calls
of every build and are cheap, so their time counts to the caller's self time.
The tracer's own per-call bookkeeping (hashing theta arguments, counting
terms, flops and sampled points) is recorded as `trace.hook` spans, so it is
reported as `trace.hook.self_s` and not charged to any layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter

import numpy as np

# layer (a module of ellcert) -> its functions and Class.methods recorded as spans
SPANS = {
    "theta": ["theta_value", "theta1", "theta_basis", "theta_odd"],
    "expr": ["evaluate", "diff", "substitute", "translate", "free_vars"],
    "sampling": ["sample_points", "stack_assignments"],
    "shiftops": [
        "shift_mul", "ShiftOp.__add__", "op_equal", "sum_to_zero_residual",
        "invert_multiplication", "ShiftOpBackend.norm",
    ],
    "cfdet": [
        "cf_det", "minors", "verify_commuting_family", "verify_triangle",
        "delta_family", "random_cf_matrix", "random_delta_grid",
        "TensorBackend.mul", "TensorBackend.invert", "TensorBackend.norm",
        "plucker_check", "plucker_residual", "decomposable_form", "form_apply",
    ],
    "transfer": [
        "build_T", "build_T_tilde", "build_sos_Taux",
        "vn_family", "btilde_family", "sos_family",
        "transfer_commutator_residual", "transfer_det_consistency_residual",
        "sos_vs_T_coefficient_ratio",
    ],
    "starprod": [
        "star", "phi_p", "theta_gen", "casimir", "build_fu_bosonized",
        "hom_welldefined_residual", "star_assoc_residual", "eta_flatness_ratio",
        "fu_commutator_residual", "SymThetaFun.__call__",
        "SymThetaFun.invariant_residual",
    ],
    "poisson": [
        "classical_delta_elements", "_hamiltonian_brackets", "_jacobi_delta_terms",
        "pbracket", "pbracket_halves", "psi_p",
        "PoissonElement.evaluate", "RatioBracket.residual_batch", "RatioBracket.residual_at",
        "classical_hamiltonians", "jacobi_delta_residual", "pbracket_residual",
        "psi2_pair_residual", "fay_residual", "fay_sweep",
    ],
}

# Span groups behind the per-layer metrics, by span name without the layer.
GROUPS = {
    "expr.build": ("diff", "substitute", "translate"),
    "shiftops.sum_to_zero": ("sum_to_zero_residual",),
    "shiftops.add": ("ShiftOp.__add__",),
    "cfdet.plucker": ("plucker_check", "plucker_residual", "decomposable_form", "form_apply"),
    "transfer.build": ("build_T", "build_T_tilde", "build_sos_Taux"),
    "transfer.residual": ("transfer_commutator_residual", "transfer_det_consistency_residual",
                          "sos_vs_T_coefficient_ratio"),
    "starprod.hom": ("hom_welldefined_residual",),
    "starprod.assoc": ("star_assoc_residual",),
    "poisson.bracket_build": ("classical_delta_elements", "_hamiltonian_brackets",
                              "_jacobi_delta_terms", "pbracket", "pbracket_halves", "psi_p"),
    "poisson.eval": ("PoissonElement.evaluate", "RatioBracket.residual_batch",
                     "RatioBracket.residual_at", "classical_hamiltonians",
                     "jacobi_delta_residual", "pbracket_residual", "psi2_pair_residual"),
    "poisson.fay": ("fay_residual", "fay_sweep"),
}

# Span of the tracer's own after-call hooks (theta argument keys, term and flop counts).
HOOK = "trace.hook"

# Functions that draw a fresh sample batch when the previous one hit a pole.
RETRYING = ("shiftops.op_equal", "shiftops.sum_to_zero_residual", "shiftops.ShiftOpBackend.norm",
            "starprod.star_assoc_residual", "poisson.pbracket_residual")


def _theta_key(kind, z, ctx, order=1, index=0, deriv=0):
    a = np.asarray(z, dtype=complex)
    return (kind, order, index, deriv, ctx, a.shape, a.tobytes()), a.size


class Tracer:
    """Records spans of one process; install() once, before the first check."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.theta_points = 0
        self.theta_keys: set = set()
        self.terms_out = 0
        self.matmul_flop = 0
        self.sampled_points = 0

    # recording ---------------------------------------------------------------

    def _ident(self, name) -> int:
        ident = self._ids.setdefault(name, len(self.names))
        if ident == len(self.names):
            self.names.append(name)
        return ident

    def wrap(self, name, fn, after=None):
        """fn wrapped to record a span; after(args, kwargs, result) on success.

        The hook runs in a span of its own, HOOK, next to fn's span, so the
        tracer's bookkeeping is not counted in the self time of fn's caller.
        """
        ident = self._ident(name)
        hook = self._ident(HOOK) if after is not None else -1
        stack, clock = self._stack, time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(ident)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                span = len(starts)
                names.append(hook)
                parents.append(stack[-1])
                ends.append(0.0)
                starts.append(clock())
                after(args, kwargs, result)
                ends[span] = clock()
            return result

        return traced

    def install(self):
        """Wrap every function in SPANS wherever an ellcert module binds it."""
        import ellcert

        modules = [ellcert] + [importlib.import_module(f"ellcert.{mod}") for mod in (*SPANS, "checks")]
        after = {
            "theta.theta_value": self._after_theta,
            "shiftops.shift_mul": self._after_shift_mul,
            "cfdet.TensorBackend.mul": self._after_matmul,
            "sampling.sample_points": self._after_sample,
        }
        for layer, quals in SPANS.items():
            home = importlib.import_module(f"ellcert.{layer}")
            for qual in quals:
                span = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self.wrap(span, cls.__dict__[attr], after.get(span)))
                    continue
                original = getattr(home, qual)
                wrapped = self.wrap(span, original, after.get(span))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def _after_theta(self, args, kwargs, result):
        key, size = _theta_key(*args, **kwargs)
        self.theta_keys.add(key)
        self.theta_points += size

    def _after_shift_mul(self, args, kwargs, result):
        self.terms_out += len(result.terms)

    def _after_matmul(self, args, kwargs, result):
        x, y = args[1], args[2]
        self.matmul_flop += 8 * x.shape[0] * x.shape[1] * y.shape[1]

    def _after_sample(self, args, kwargs, result):
        self.sampled_points += len(result)

    # reporting ---------------------------------------------------------------

    def write(self, path):
        """Write every span once: flat arrays plus the span-name table."""
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=np.array(json.dumps(self.names)))

    def metrics(self, certify_s: float) -> dict:
        """Per-layer metrics; certify_s is the traced run's wall time over all checks."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_by_name = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls_by_name = np.bincount(name, minlength=len(self.names))
        ids = self._ids
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)

        def names_of(prefix_or_names):
            if isinstance(prefix_or_names, str):
                return [i for n, i in ids.items() if n.split(".", 1)[0] == prefix_or_names]
            return [ids[n] for n in prefix_or_names if n in ids]

        def self_s(group):
            return float(sum(self_by_name[i] for i in names_of(group)))

        def calls(group):
            return int(sum(calls_by_name[i] for i in names_of(group)))

        def grouped(metric):
            layer = metric.split(".", 1)[0]
            return [f"{layer}.{q}" for q in GROUPS[metric]]

        def under(child_name, parent_names):
            """Spans named child_name whose direct parent is one of parent_names."""
            if child_name not in ids:
                return np.zeros(0, dtype=np.int64)
            wanted = np.isin(parent_name, names_of(parent_names))
            return np.flatnonzero((name == ids[child_name]) & wanted)

        theta_calls = calls(["theta.theta_value"])
        samples = under("sampling.sample_points", RETRYING)
        per_residual = Counter(parent[samples].tolist())
        guard_evals = len(under("expr.evaluate", ["sampling.sample_points"]))
        total_self = float(self_by_name.sum())

        out = {
            "theta.calls": (theta_calls, "count"),
            "theta.points": (self.theta_points, "count"),
            "theta.points_per_call": (self.theta_points / theta_calls if theta_calls else 0.0, "points/call"),
            "theta.distinct_ratio": (len(self.theta_keys) / theta_calls if theta_calls else 0.0, "ratio"),
            "theta.self_s": (self_s("theta"), "s"),
            "expr.evaluate.calls": (calls(["expr.evaluate"]), "count"),
            "expr.evaluate.self_s": (self_s(["expr.evaluate"]), "s"),
            "expr.build.calls": (calls(grouped("expr.build")), "count"),
            "expr.build.self_s": (self_s(grouped("expr.build")), "s"),
            "expr.self_s": (self_s("expr"), "s"),
            "sampling.sample_points.calls": (calls(["sampling.sample_points"]), "count"),
            "sampling.points": (self.sampled_points, "count"),
            "sampling.guard_evals_per_point": (
                guard_evals / self.sampled_points if self.sampled_points else 0.0, "evals/point"),
            "sampling.retry_batches": (sum(c - 1 for c in per_residual.values()), "count"),
            "sampling.self_s": (self_s("sampling"), "s"),
            "shiftops.shift_mul.calls": (calls(["shiftops.shift_mul"]), "count"),
            "shiftops.shift_mul.self_s": (self_s(["shiftops.shift_mul"]), "s"),
            "shiftops.shift_mul.terms_out": (self.terms_out, "count"),
            "shiftops.add.calls": (calls(grouped("shiftops.add")), "count"),
            "shiftops.add.self_s": (self_s(grouped("shiftops.add")), "s"),
            "shiftops.op_equal.calls": (calls(["shiftops.op_equal"]), "count"),
            "shiftops.op_equal.self_s": (self_s(["shiftops.op_equal"]), "s"),
            "shiftops.sum_to_zero.calls": (calls(grouped("shiftops.sum_to_zero")), "count"),
            "shiftops.sum_to_zero.self_s": (self_s(grouped("shiftops.sum_to_zero")), "s"),
            "shiftops.self_s": (self_s("shiftops"), "s"),
            "cfdet.cf_det.calls": (calls(["cfdet.cf_det"]), "count"),
            "cfdet.cf_det.self_s": (self_s(["cfdet.cf_det"]), "s"),
            "cfdet.backend_mul.calls": (calls(["cfdet.TensorBackend.mul"]), "count"),
            "cfdet.matmul_gflop_computed": (self.matmul_flop / 1e9, "GFLOP"),
            "cfdet.invert.calls": (calls(["cfdet.TensorBackend.invert"]), "count"),
            "cfdet.plucker.self_s": (self_s(grouped("cfdet.plucker")), "s"),
            "cfdet.self_s": (self_s("cfdet"), "s"),
            "transfer.build.calls": (calls(grouped("transfer.build")), "count"),
            "transfer.build.self_s": (self_s(grouped("transfer.build")), "s"),
            "transfer.residual.self_s": (self_s(grouped("transfer.residual")), "s"),
            "transfer.self_s": (self_s("transfer"), "s"),
            "starprod.star.calls": (calls(["starprod.star"]), "count"),
            "starprod.star.self_s": (self_s(["starprod.star"]), "s"),
            "starprod.phi_p.self_s": (self_s(["starprod.phi_p"]), "s"),
            "starprod.hom.self_s": (self_s(grouped("starprod.hom")), "s"),
            "starprod.assoc.self_s": (self_s(grouped("starprod.assoc")), "s"),
            "starprod.self_s": (self_s("starprod"), "s"),
            "poisson.bracket_build.self_s": (self_s(grouped("poisson.bracket_build")), "s"),
            "poisson.eval.self_s": (self_s(grouped("poisson.eval")), "s"),
            "poisson.pole_fallback_points": (
                len(under("poisson.RatioBracket.residual_at", ["poisson.classical_hamiltonians"])), "count"),
            "poisson.fay.self_s": (self_s(grouped("poisson.fay")), "s"),
            "poisson.self_s": (self_s("poisson"), "s"),
            "checks.self_s": (self_s("checks"), "s"),
            "trace.hook.self_s": (self_s([HOOK]), "s"),
            "trace.certify_s": (certify_s, "s"),
            "trace.self_sum_ratio": (total_self / certify_s if certify_s else 0.0, "ratio"),
            "trace.spans": (len(dur), "count"),
        }
        return out
