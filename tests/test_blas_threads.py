"""`import ellcert` pins OpenBLAS to one thread unless the caller chose a count.

Each test starts a fresh interpreter, since OpenBLAS reads the setting once,
when numpy is first imported, and this process has long since imported it.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import ellcert
from test_acceptance import GOLDEN, golden_view

SRC = str(pathlib.Path(ellcert.__file__).resolve().parents[1])
BENCH = str(pathlib.Path(__file__).resolve().parents[1] / "bench")


def _env(**values):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**env, **values}


def _python(code, env, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True)
    return proc.stdout.strip()


def test_import_sets_one_thread():
    code = "import os, ellcert; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, _env()) == "1"


def test_exported_count_is_kept():
    code = "import os, ellcert; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, _env(OPENBLAS_NUM_THREADS="2")) == "2"


def test_pool_holds_one_thread():
    # the benchmark worker's reader of the pool numpy loaded
    code = ("import sys, ellcert, numpy; sys.path.insert(0, sys.argv[1]); "
            "from worker import _blas_threads; print(_blas_threads())")
    threads = int(_python(code, _env(), BENCH))
    if threads == -1:
        pytest.skip("the OpenBLAS pool size cannot be read here")
    assert threads == 1


def test_default_report_without_the_variable(tmp_path):
    out = tmp_path / "default.json"
    subprocess.run([sys.executable, "-m", "ellcert.cli", "run", "default", "--json", str(out)],
                   env=_env(), cwd=tmp_path, check=True, capture_output=True)
    assert golden_view(json.loads(out.read_text())) == json.loads(GOLDEN.read_text())
