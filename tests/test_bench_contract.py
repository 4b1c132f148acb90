"""What the benchmark uses of the library must keep working.

bench/tracer.py wraps each entry of its SPANS table by name, and replaces a
Class.method entry through the class's own __dict__, so a refactor that
renames, removes or moves one of them into a base class breaks the traced
benchmark run (`--trace 1`).  bench/workloads.py writes configs in the CLI
format, and a check rejects any key it does not declare, so every section it
writes (and every section of `default.cfg`) must resolve against the check
specs.  bench/worker.py reads each check's `gating` flag.  These tests only
read bench/tracer.py and bench/workloads.py.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ellcert.checks import REGISTRY
from ellcert.cli import load_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    tracer = _bench_module("tracer")
    return [(layer, qual) for layer, quals in tracer.SPANS.items() for qual in quals]


@pytest.mark.parametrize("layer,qual", _spans())
def test_span_resolves(layer, qual):
    home = importlib.import_module(f"ellcert.{layer}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        assert attr in vars(getattr(home, cls_name)), f"{qual} is not defined on {cls_name} itself"
    else:
        assert callable(getattr(home, qual, None)), f"ellcert.{layer}.{qual} is gone"


WORKLOADS = _bench_module("workloads")


@pytest.mark.parametrize("suite", ["default", *WORKLOADS.WORKLOADS])
def test_suite_sections_resolve(suite, tmp_path):
    path = "default"
    if suite != "default":
        path = tmp_path / f"{suite}.cfg"
        path.write_text(WORKLOADS.config_text(suite, 42))
    specs = load_config(str(path))
    assert specs
    for spec in specs:
        REGISTRY[spec.name].resolve(spec.params)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_check_gates(name):
    assert REGISTRY[name].gating is True
