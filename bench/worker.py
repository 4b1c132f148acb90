"""One repetition of a workload, in the fresh interpreter the benchmark starts.

    python3 bench/worker.py ROOT CONFIG [--setup-only] [--spans PATH]

Imports `ellcert` from ROOT/src, parses CONFIG with the CLI's own loader and
runs every section through `ellcert.checks.run_check`, catching errors per
check so that one failure does not hide the rest.  Prints one JSON object a
line, each as soon as it is known, so that a repetition stopped part way
still yields the checks it finished: first `ready` (CLOCK_MONOTONIC when the
first check could start), then one `record` per section with its wall and
CPU time and `calibration_s`, the mean time of the calibration run just
before and just after it, then `certify_s`, `cpu_s` (sums over the sections)
and `peak_rss_mb`.  With --spans the layers are traced, the spans are written
to PATH and the last line also
holds `layers`, the per-layer metrics.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads() -> int:
    """Size of the OpenBLAS pool numpy loaded, or -1 when it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:  # no procfs: not Linux
        return -1
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


def calibrate() -> float:
    """Seconds that a fixed piece of work takes at this moment.

    The work is like ellcert's inner loops (numpy ufuncs on 20-point complex
    arrays, Python arithmetic, tuple-keyed dicts) but calls nothing of
    ellcert, so that it measures how fast the host runs, not the program.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 20) + 0.5j
    acc = 0j
    memo = {}
    t0 = time.perf_counter()
    for i in range(2000):
        y = np.exp(1j * x * (i % 17)) * x
        acc += complex(y.sum())
        memo[(i % 97, i % 13)] = acc
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("config")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import ellcert
    from ellcert.checks import REGISTRY, run_check
    from ellcert.cli import load_config

    if not os.path.abspath(ellcert.__file__).startswith(src + os.sep):
        print(f"ellcert imported from {ellcert.__file__}, not from {src}", file=sys.stderr)
        return 2
    specs = load_config(args.config)
    print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    run = run_check
    if args.spans:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    certify_s = cpu_s = 0.0
    calibration_s = calibrate()
    for spec in specs:
        c0, u0 = time.perf_counter(), _cpu_s()
        if tracer is not None:
            run = tracer.wrap(f"checks.{spec.name}", run_check)
        rec = {"name": spec.name, "gating": spec.name not in REGISTRY or REGISTRY[spec.name].gating}
        try:
            r = run(spec)
            rec.update(residual=r.residual_max, tolerance=r.tolerance, passed=r.passed,
                       inconclusive=r.inconclusive)
        except Exception:  # one failing check must not stop the workload
            rec["error"] = traceback.format_exc()
        rec["wall_s"] = time.perf_counter() - c0
        rec["cpu_s"] = _cpu_s() - u0
        after = calibrate()
        rec["calibration_s"] = (calibration_s + after) / 2
        calibration_s = after
        certify_s += rec["wall_s"]
        cpu_s += rec["cpu_s"]
        print(json.dumps({"record": rec}), flush=True)

    out = {
        "certify_s": certify_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.metrics(certify_s)
        layers["trace.blas_threads"] = (_blas_threads(), "count")
        out["layers"] = layers
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
