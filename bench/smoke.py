"""Smoke test of the benchmark at a tiny size.

    python3 bench/smoke.py          # from the root of a checkout
    python3 -m pytest bench/smoke.py

For every workload, shrunk to a tenth, one untraced and one traced run must
emit exactly the metrics BENCHMARK.json names, each with its unit, fail no
check instance, and give identical residuals with tracing on and off; and
cutting checks into one section per case must not change any residual.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

SCALE = 0.1
SEED = 3


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _check(workload, trace, kind):
    correct, attempted, failed, metrics = run.run(ROOT, workload, SEED, 0.1, trace, scale=SCALE)
    assert correct and failed == 0 and attempted > 0, (workload, trace, failed, attempted)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    assert emitted == _declared(kind), (workload, set(emitted) ^ set(_declared(kind)))
    return metrics


def test_end_to_end_metrics():
    for workload in WORKLOADS:
        metrics = _check(workload, False, "end_to_end")
        assert all(value > 0 for name, (value, _) in metrics.items()), metrics


def test_traced_run_matches_untraced():
    # run.run counts a traced residual that differs from the untraced one as failed
    for workload in WORKLOADS:
        metrics = _check(workload, True, "per_layer")
        assert metrics["trace.spans"][0] > 0
        assert 0.9 < metrics["trace.self_sum_ratio"][0] <= 1.0 + 1e-9, metrics["trace.self_sum_ratio"]


def test_cut_sections_keep_residuals():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ellcert.checks import run_check
    from ellcert.cli import load_config

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    for workload in WORKLOADS:
        worst = {}
        for cut in (True, False):
            path = os.path.join(out_dir, f"smoke-{workload}-{cut}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config_text(workload, SEED, SCALE, cut))
            for spec in load_config(path):
                key = (cut, spec.name)
                worst[key] = max(worst.get(key, 0.0), run_check(spec).residual_max)
        for name in WORKLOADS[workload]:
            assert worst[True, name] == worst[False, name], (workload, name, worst)


if __name__ == "__main__":
    os.chdir(ROOT)
    test_end_to_end_metrics()
    test_traced_run_matches_untraced()
    test_cut_sections_keep_residuals()
    print("smoke test passed")
