"""ellcert certification benchmark.

    python3 bench/run.py --workload {poisson,shift,dense} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The workload is generated from the
seed as a CLI-format config (see workloads.py) and every repetition runs in a
fresh interpreter (worker.py), the way a user runs `ellcert run <suite>`, so
caches start cold each time.  Repetitions run back to back for S seconds; the
last one is stopped at S and keeps the sections it finished.

--trace 0 reports the end-to-end metrics.  `certify_s` and `cpu_s` are sums
over the config's sections of the least time each section took in any
repetition, each time first scaled to the reference host speed: multiplied by
REFERENCE_CALIBRATION_S over the time a fixed calibration workload
(worker.calibrate) took just before and after the section.  On a shared host,
interference comes in short bursts, which the least of several timings
removes, and in spells that outlast a run and slow everything by up to half,
which the ratio to the calibration removes.  `setup_s` is the least set-up
time of every repetition and of set-up-only interpreters run before each
one, scaled by REFERENCE_CALIBRATION_S over the least calibration of the run
(a set-up has no calibration of its own around it).

--trace 1 alternates untraced and traced repetitions, none of them stopped,
and reports the per-layer metrics of the last traced one, whose spans it
writes to .bench_out/.
Every finished section of every repetition passes the correctness gate or
counts as failed.  Human-readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, config_text  # noqa: E402

PROBES_PER_REP = 2  # set-up-only interpreters before each repetition
MIN_SETUP_SAMPLES = 10  # more probes after the last repetition if there are fewer set-ups than this
RUN_LIMIT_S = 170  # every worker is stopped by then, so a run ends within 180 s
# Section times are reported as if the host ran worker.calibrate in this time
# (on the 2-vCPU Xeon of baseline.json: 9-10 ms when quiet, up to 20 ms when loaded).
REFERENCE_CALIBRATION_S = 0.01
DOUBLE_EPS = 2.220446049250313e-16  # floor for residuals in margin_min_decades

CHECK_NAMES = sorted(name for checks in WORKLOADS.values() for name in checks)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(root, config, stop_at, *extra) -> dict:
    """Run worker.py in a fresh interpreter until it ends or stop_at passes.

    Returns the worker's last line (`certify_s`, `cpu_s`, `peak_rss_mb`, and
    `layers` when traced) with `complete` true, or only `complete` false when
    it was stopped; either way `records` holds the sections it finished, and
    `setup_s`, from launch to ready, is None if it never got there.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), root, config, *extra]
    launched = _now()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(0.0, stop_at - launched))
            complete = True
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            complete = False
        except BaseException:
            proc.kill()
            raise
    if complete and proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{stderr}")
    lines = [json.loads(line) for line in stdout.split("\n")[:-1]]  # a cut-off last line is dropped
    out = lines[-1] if complete else {}
    out["complete"] = complete
    out["setup_s"] = lines[0]["ready"] - launched if lines else None
    out["records"] = [line["record"] for line in lines if "record" in line]
    return out


def gate(rep: dict, reference: dict) -> list[str]:
    """Reasons each check instance of `rep` fails; '' for one that passes.

    A check fails when it raises, is inconclusive, is gating and not PASS,
    has residual_max above its tolerance, or has a residual_max that differs
    bit for bit from the reference repetition at the same seed.
    """
    reasons = []
    for i, rec in enumerate(rep["records"]):
        if "error" in rec:
            why = "raised " + rec["error"].strip().splitlines()[-1]
        elif rec["inconclusive"]:
            why = "inconclusive"
        elif rec["gating"] and not rec["passed"]:
            why = "gating check not PASS"
        elif not rec["residual"] <= rec["tolerance"]:
            why = f"residual {rec['residual']!r} above tolerance {rec['tolerance']!r}"
        elif rec["residual"] != reference["records"][i].get("residual"):
            why = f"residual {rec['residual']!r} differs from first run {reference['records'][i].get('residual')!r}"
        else:
            why = ""
        reasons.append(why)
    return reasons


def margin_decades(rep: dict) -> float:
    """min over gating checks of log10(tolerance / residual_max), residual floored at DOUBLE_EPS."""
    margins = []
    for r in rep["records"]:
        if r["gating"] and "error" not in r and not r["inconclusive"]:
            residual = r["residual"] if r["residual"] == r["residual"] else math.inf
            margins.append(math.log10(r["tolerance"] / min(max(residual, DOUBLE_EPS), sys.float_info.max)))
    return min(margins, default=0.0)


def _tail(values):
    """(percentile, value) of the highest percentile with at least 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _fastest(reps, key, keep=lambda rec: True):
    """Sum over sections of the least `key` each took in any of `reps`, in
    seconds at the reference host speed."""
    best = {}
    for rep in reps:
        for i, rec in enumerate(rep["records"]):
            if keep(rec):
                scaled = rec[key] * REFERENCE_CALIBRATION_S / rec["calibration_s"]
                best[i] = min(best.get(i, math.inf), scaled)
    return sum(best.values())


def run(root: str, workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """One benchmark run; returns (correct, attempted, failed, metrics).

    scale < 1 shrinks the workload for smoke tests (see workloads.config_text).
    """
    stop_at = _now() + RUN_LIMIT_S
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    config = os.path.join(out_dir, f"{workload}-{seed}.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(config_text(workload, seed, scale))

    def probe_setup():
        setup_s = _spawn(root, config, stop_at, "--setup-only")["setup_s"]
        if setup_s is None:
            raise RuntimeError(f"a set-up probe did not finish within {RUN_LIMIT_S} s")
        return setup_s

    probe_setup()  # writes bytecode caches; not measured
    setups, plain, traced = [], [], []
    spans = os.path.join(out_dir, f"{workload}-{seed}.spans.npz")
    deadline = _now() + seconds
    while True:
        started = _now()
        setups += [probe_setup() for _ in range(PROBES_PER_REP)]
        # The first repetition is the gate's reference and always runs to the end;
        # with tracing on none is cut, so that untraced and traced ones pair up.
        cut_at = stop_at if trace or not plain else min(stop_at, deadline)
        plain.append(_spawn(root, config, cut_at))
        if trace:
            traced.append(_spawn(root, config, stop_at, "--spans", spans))
        now = _now()
        if now >= deadline or (trace and now + (now - started) > deadline):
            break
    setups += [r["setup_s"] for r in plain + traced if r["setup_s"] is not None]
    setups += [probe_setup() for _ in range(MIN_SETUP_SAMPLES - len(setups))]

    attempted = failed = 0
    for rep_no, rep in enumerate(plain + traced):
        for rec, why in zip(rep["records"], gate(rep, plain[0])):
            attempted += 1
            if why:
                failed += 1
                print(f"FAIL {rec['name']} (repetition {rep_no}): {why}", file=sys.stderr)

    full = [r for r in plain if r["complete"]]
    calibrations = [rec["calibration_s"] for r in plain for rec in r["records"]]
    e2e = {
        "certify_s": (_fastest(plain, "wall_s"), "s"),
        "cpu_s": (_fastest(plain, "cpu_s"), "s"),
        "setup_s": (min(setups) * REFERENCE_CALIBRATION_S / min(calibrations), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in full), "MiB"),
        "margin_min_decades": (statistics.median(margin_decades(r) for r in full), "log10"),
    }
    # What each figure summarizes, for the table: whole repetitions and every set-up, unscaled.
    samples = {"certify_s": [r["certify_s"] for r in full], "cpu_s": [r["cpu_s"] for r in full],
               "setup_s": setups, "peak_rss_mb": [r["peak_rss_mb"] for r in full],
               "margin_min_decades": [margin_decades(r) for r in full]}
    per_check = {f"checks.{name}.s": (_fastest(plain, "wall_s", lambda rec, n=name: rec["name"] == n), "s")
                 for name in CHECK_NAMES}

    print(f"workload {workload}  seed {seed}  repetitions {len(full)} whole and "
          f"{len(plain) - len(full)} stopped at {seconds:g} s untraced, {len(traced)} traced")
    print(f"  calibration {1e3 * statistics.median(calibrations):.4g} ms median, "
          f"{1e3 * min(calibrations):.4g} ms least, over {len(calibrations)} sections; "
          f"section times are scaled to {1e3 * REFERENCE_CALIBRATION_S:g} ms")
    for name, values in samples.items():
        value, unit = e2e[name]
        tail = _tail(values)
        tail_text = (f"p{tail[0]:.0f}={tail[1]:.6g}" if tail
                     else "no percentile with 10 samples above it")
        print(f"  {name:22s} {value:.6g} {unit}  (over {len(values)} samples: "
              f"median {statistics.median(values):.6g}, {tail_text})")
    print(f"  {'failed_ratio':22s} {failed / attempted:.6g} ratio  ({failed} failed of {attempted} check instances)")
    for name, (value, unit) in per_check.items():
        if value:
            print(f"  {name:40s} {value:.6g} {unit}")

    if trace:
        layers = {k: tuple(v) for k, v in traced[-1]["layers"].items()}
        overhead = (statistics.median(r["certify_s"] for r in traced)
                    / statistics.median(samples["certify_s"]) - 1.0)
        layers["trace.overhead_ratio"] = (overhead, "ratio")
        metrics = {**layers, **per_check}
        for name, (value, unit) in layers.items():
            print(f"  {name:40s} {value:.6g} {unit}")
    else:
        metrics = e2e
    return failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ellcert certification benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    # On SIGTERM, unwind through _spawn, which stops the running worker and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ellcert", "__init__.py")):
        print("run from the root of an ellcert checkout: src/ellcert is missing", file=sys.stderr)
        return 2
    try:
        correct, attempted, failed, metrics = run(root, args.workload, args.seed, args.seconds,
                                                  bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
