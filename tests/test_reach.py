"""Every function of the library runs, or is allowed not to for a stated reason.

A fresh interpreter sets `sys.setprofile` before `import ellcert`, then runs
the command line on `list`, on the default suite, on one usage error and on
the three benchmark workloads, and records the code object of every Python
call.  A fresh process, so no cache of another test hides a call.  Every
function defined in `src/ellcert` (a `def`, by its qualified name) must have
run, be named in bench/tracer.py's SPANS (read as test_bench_contract reads
it), or be in ALLOWED below under its reason.  ALLOWED is exact: a listed
function that runs fails the test too, so the list cannot go stale.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_bench_contract import WORKLOADS, _spans

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "ellcert"

# what is allowed not to run on the command line, by reason ("module:qualname")
ALLOWED = {
    "called only by a SPANS name": [
        "cfdet:delta_minors", "poisson:PoissonElement.__mul__", "poisson:PoissonElement.tree",
        "shiftops:ShiftOpBackend.norm.<locals>.measure", "shiftops:TermMap.__sub__",
        "shiftops:TermMap.is_multiplication", "shiftops:TermMap.is_zero",
    ],
    "a test reference": [
        "checks:CheckDef.__call__", "cli:_Parser.error", "errors:InconclusiveRankError.__init__",
        "shiftops:ShiftOpBackend.__init__", "shiftops:commutator_residual",
    ],
    "the generic expression API": [
        "expr:ExpLin._diff", "expr:ExpLin._subst", "expr:IntPow._diff", "expr:IntPow._subst",
        "expr:MeroExpr.__add__", "expr:MeroExpr.__mul__", "expr:MeroExpr.__neg__", "expr:MeroExpr.__radd__",
        "expr:MeroExpr.__rmul__", "expr:MeroExpr.__rsub__", "expr:MeroExpr.__rtruediv__",
        "expr:MeroExpr.__truediv__", "expr:MeroExpr._diff", "expr:MeroExpr._eval", "expr:MeroExpr._subst",
        "expr:Neg._diff", "expr:Neg._subst", "expr:Product._diff", "expr:Sum._diff", "expr:Var._collect_vars",
        "expr:Var._diff", "expr:Var._subst", "expr:_expr_of_affine", "expr:var",
    ],
    "a debug __repr__": ["expr:Affine.__repr__", "poisson:PoissonElement.__repr__", "shiftops:ShiftOp.__repr__"],
}

PROBE = """
import contextlib, json, os, sys
ran = set()
sys.setprofile(lambda frame, event, arg: ran.add(frame.f_code) if event == "call" else None)
import ellcert
from ellcert import cli
out, *commands = json.loads(sys.argv[1])
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
    codes = [cli.main(argv) for argv in commands]
sys.setprofile(None)
package = os.path.dirname(ellcert.__file__)
names = sorted({f"{os.path.basename(c.co_filename)[:-3]}:{c.co_qualname}"
                for c in ran if os.path.dirname(c.co_filename) == package})
with open(out, "w") as fh:
    json.dump({"codes": codes, "ran": names}, fh)
"""


def defined_functions() -> set:
    """"module:qualname" of every def in the package, methods and nested defs included."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}:{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return names


def test_every_function_runs_or_is_allowed(tmp_path):
    commands = [["list"], ["run", "default", "--json", str(tmp_path / "default.json")],
                ["check", "fay", "--param", "count=0"]]
    for workload in sorted(WORKLOADS.WORKLOADS):
        config = tmp_path / f"{workload}.cfg"
        config.write_text(WORKLOADS.config_text(workload, 42))
        commands.append(["run", str(config), "--json", str(tmp_path / f"{workload}.json")])
    out = tmp_path / "reach.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", PROBE, json.dumps([str(out), *commands])], env=env, check=True)
    probe = json.loads(out.read_text())
    assert probe["codes"] == [0, 0, 3, 0, 0, 0]  # the usage error exits 3, every suite passes

    defined = defined_functions()
    unreached = defined - set(probe["ran"]) - {f"{layer}:{qual}" for layer, qual in _spans()}
    allowed = {name for names in ALLOWED.values() for name in names}
    assert allowed <= defined, f"allowed but not defined: {sorted(allowed - defined)}"
    assert unreached <= allowed, f"never run and not allowed: {sorted(unreached - allowed)}"
    assert allowed <= unreached, f"allowed but run: {sorted(allowed - unreached)}"
