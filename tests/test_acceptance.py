"""Acceptance criteria: one test per criterion, stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -s` to see the one-line verdicts.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import ellcert
from ellcert import ThetaContext
from ellcert.checks import (
    REGISTRY,
    check_casimir_diagonal,
    check_cf_commute,
    check_cf_triangle,
    check_eta_flatness,
    check_fay,
    check_fu_commute,
    check_plucker,
    check_poisson_hamiltonians,
    check_poisson_jacobi,
    check_psi2,
    check_sos_commute,
    check_sos_ratio,
    check_star_assoc,
    check_star_closure,
    check_theta_quasiperiodicity,
    check_transfer_commute,
    check_transfer_det,
    check_ttilde_commute,
)
from ellcert.cli import main
from ellcert.starprod import hom_welldefined_residual

SEED = 42
GOLDEN = pathlib.Path(__file__).parent / "data" / "default_report.json"


def report(num, name, residual, tol, elapsed, budget):
    status = "PASS" if residual <= tol else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} "
          f"residual={residual:.3e} tol={tol:.0e} time={elapsed:.1f}s budget={budget:.0f}s")
    assert residual <= tol, f"criterion {num} ({name}): residual {residual:.3e} > {tol:.0e}"
    assert elapsed < budget, f"criterion {num} ({name}): {elapsed:.1f}s over budget {budget}s"


def golden_view(records):
    """A report in the form of tests/data/default_report.json: residuals as float.hex."""
    return [{"name": r["name"], "params": r["params"], "pass": r["pass"], "seed": r["seed"],
             "tolerance": r["tolerance"], "residual_max": float.hex(r["residual_max"])} for r in records]


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def test_01_theta_quasiperiodicity():
    params = {"n_max": 6, "points": 200, "taus": "0.8j;0.3+1.1j"}
    r, t = timed(check_theta_quasiperiodicity, params, SEED)
    report(1, "theta-quasiperiodicity", r, 1e-10, t, 5)


def test_02_cartier_foata():
    params = {"sizes": "2x2;2x3;3x2", "seeds": 20}
    t0 = time.perf_counter()
    r = max(check_cf_commute(params, SEED), check_cf_triangle(params, SEED))
    report(2, "cartier-foata", r, 1e-9, time.perf_counter() - t0, 30)


def test_03_plucker():
    # a CPU-time budget: wall time on a shared host also counts the other work on it
    c0 = time.process_time()
    r = check_plucker({"orders": "2,3,4", "seeds": 50}, SEED)
    report(3, "plucker", r, 1e-10, time.process_time() - c0, 5)


def test_04_poisson_families():
    t0 = time.perf_counter()
    r = max(check_poisson_hamiltonians({"n": "2,3,4", "seeds": 5, "points": 20}, SEED),
            check_poisson_jacobi({"points": 20}, SEED))
    report(4, "poisson-families", r, 1e-9, time.perf_counter() - t0, 60)


def test_05_transfer_commutation():
    t0 = time.perf_counter()
    r = max(check_transfer_commute({"n": "2,3,4,5", "seeds": 5, "samples": 20}, SEED),
            check_transfer_det({"n": "2,3", "samples": 15}, SEED))
    report(5, "transfer-commutation", r, 1e-8, time.perf_counter() - t0, 60)


def test_06_star_product():
    t0 = time.perf_counter()
    r = max(check_star_closure({"n": "2,3,4"}, SEED),
            check_star_assoc({"n": "2,3,4"}, SEED))
    flat = check_eta_flatness({"n": 3}, SEED)  # |log2(ratio/10)| <= 1: within factor 2
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 06 eta-flatness: {'PASS' if flat <= 1 else 'FAIL'} "
          f"log2-deviation={flat:.3f} (factor-2 bound)")
    assert flat <= 1.0
    report(6, "star-product", r, 1e-8, elapsed, 60)


def test_07_bosonization():
    t0 = time.perf_counter()
    worst = 0.0
    for n, p in ((3, 1), (3, 2), (4, 2), (5, 2)):
        worst = max(worst, hom_welldefined_residual(n, p, ThetaContext(), seed=SEED))
    report(7, "bosonization", worst, 1e-7, time.perf_counter() - t0, 120)


def test_08_psi2():
    r, t = timed(check_psi2, {"samples": 20}, SEED)
    report(8, "psi2-example", r, 1e-9, t, 5)


def test_09_degree_m_family():
    t0 = time.perf_counter()
    r = check_fu_commute({"m": "2,3", "seeds": 3, "samples": 12}, SEED)
    cas = check_casimir_diagonal({"m": "2,3"}, SEED)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 09 casimir-diagonal: {'PASS' if cas <= 1e-10 else 'FAIL'} "
          f"residual={cas:.3e} tol=1e-10")
    assert cas <= 1e-10
    report(9, "degree-m-family", r, 1e-7, elapsed, 120)


def test_10_chain_transfer():
    r, t = timed(check_ttilde_commute, {"p": "2,2", "seeds": 3, "samples": 10}, SEED)
    report(10, "chain-transfer", r, 1e-7, t, 60)


def test_11_face_model():
    t0 = time.perf_counter()
    r = max(check_sos_commute({"n": "2,3", "seeds": 3, "samples": 10}, SEED),
            check_sos_ratio({"n": "2,3"}, SEED))
    report(11, "face-model", r, 1e-8, time.perf_counter() - t0, 60)


def test_12_fay():
    r, t = timed(check_fay, {"count": 100, "taus": "0.8j;0.3+1.1j"}, SEED)
    report(12, "fay-identity", r, 1e-10, t, 5)


def test_13_harness_determinism(tmp_path):
    t0 = time.perf_counter()
    reports = []
    for k in (1, 2):
        out = str(tmp_path / f"run{k}.json")
        code = main(["run", "default", "--json", out])
        assert code == 0, f"default suite exit code {code}"
        reports.append(json.load(open(out)))
    strip = lambda rep: [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rep]
    assert strip(reports[0]) == strip(reports[1]), "residuals not byte-identical across runs"
    # and identical to the committed report: an intended drift updates tests/data/default_report.json
    assert golden_view(reports[0]) == json.loads(GOLDEN.read_text()), \
        "default suite drifted from tests/data/default_report.json"
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 13 harness-determinism: PASS "
          f"checks={len(reports[0])} identical-residuals exit=0 time={elapsed:.1f}s")


# The checks of the benchmark's poisson and shift workloads.
POISSON_AND_SHIFT = ("poisson-hamiltonians", "poisson-jacobi", "psi2", "quotient-rule",
                     "transfer-commute", "sos-commute", "ttilde-commute", "transfer-det",
                     "bosonization-rank", "fu-commute", "star-assoc", "star-closure",
                     "eta-flatness", "sos-ratio")


def test_14_report_independent_of_process_history(tmp_path):
    # Residual bits must not depend on what the process built before, as they
    # would with a process-global node table that keeps the first-built
    # operand order of a + b versus b + a.
    t0 = time.perf_counter()
    golden = json.loads(GOLDEN.read_text())
    src = str(pathlib.Path(ellcert.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = tmp_path / "fresh.json"
    subprocess.run([sys.executable, "-m", "ellcert.cli", "run", "default", "--json", str(fresh)],
                   env=env, cwd=tmp_path, check=True, capture_output=True)
    assert golden_view(json.loads(fresh.read_text())) == golden, "fresh interpreter drifted"
    for name in POISSON_AND_SHIFT:
        REGISTRY[name]({}, 7)
    warm = tmp_path / "warm.json"
    assert main(["run", "default", "--json", str(warm)]) == 0
    assert golden_view(json.loads(warm.read_text())) == golden, "drifted after other checks ran in-process"
    print(f"ACCEPTANCE 14 process-history: PASS fresh and warm reports equal the golden file "
          f"time={time.perf_counter() - t0:.1f}s")
