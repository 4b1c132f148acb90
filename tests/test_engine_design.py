"""The design of the sampling engine, read from the library's source.

`sampling.sampled_max` is the one loop that catches PoleError and redraws,
and `sampling.seeds_max` the one code that cuts a check's seeds into stacked
groups (`seed_groups`).  A check that kept a loop of its own beside them
would scale, stack or redraw its own way, so no other module of
`src/ellcert` may name PoleError in an `except` clause or call
`seed_groups`, and no check loops over `range(seeds)` except to draw.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ellcert"

# what a check may do in a loop over its seeds: draw the seed's inputs
SEED_LOOP_CALLS = {"_spectral_points"}


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def engine_uses(tree) -> list:
    """(what, line) of every `except` naming PoleError and every call of seed_groups."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            if any(_name(n) == "PoleError" for n in ast.walk(node.type)):
                found.append(("except PoleError", node.lineno))
        elif isinstance(node, ast.Call) and _name(node.func) == "seed_groups":
            found.append(("seed_groups()", node.lineno))
    return found


def seed_loop_calls(tree) -> set:
    """Names of the functions called inside a loop or comprehension over range(seeds)."""
    def over_seeds(it):
        return (isinstance(it, ast.Call) and _name(it.func) == "range"
                and any(_name(a) == "seeds" for a in it.args))

    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and over_seeds(node.iter):
            body = node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)) \
                and any(over_seeds(g.iter) for g in node.generators):
            body = [node.elt]
        else:
            continue
        called |= {_name(c.func) for b in body for c in ast.walk(b) if isinstance(c, ast.Call)}
    return called


def parsed(name):
    return ast.parse((PACKAGE / name).read_text())


def test_only_sampling_catches_poles_and_groups_seeds():
    outside = {path.name: engine_uses(ast.parse(path.read_text()))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "sampling.py"}
    assert {name: uses for name, uses in outside.items() if uses} == {}
    # and sampling does both, so the rule is not vacuous
    assert {what for what, _ in engine_uses(parsed("sampling.py"))} == {"except PoleError", "seed_groups()"}


def test_a_check_loops_over_its_seeds_only_to_draw():
    called = seed_loop_calls(parsed("checks.py"))
    assert called and called <= SEED_LOOP_CALLS
