"""Every library name the benchmark tracer wraps must still resolve.

bench/tracer.py wraps each entry of its SPANS table by name, and replaces a
Class.method entry through the class's own __dict__, so a refactor that
renames, removes or moves one of them into a base class breaks the traced
benchmark run (`--trace 1`).  This test only reads bench/tracer.py.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, qual) for layer, quals in tracer.SPANS.items() for qual in quals]


@pytest.mark.parametrize("layer,qual", _spans())
def test_span_resolves(layer, qual):
    home = importlib.import_module(f"ellcert.{layer}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        assert attr in vars(getattr(home, cls_name)), f"{qual} is not defined on {cls_name} itself"
    else:
        assert callable(getattr(home, qual, None)), f"ellcert.{layer}.{qual} is gone"
