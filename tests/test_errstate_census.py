"""Census of the replay rule: ``model.strict_errstate()`` is called in two
places only. ``model.exact_batch`` holds the rule (run a batch under it,
and where the batch raises, run the exact code under the caller's
settings), and every batched path calls that. The step kernel,
``simulate._simulate_batch``, enters it once per chunk and replays a step
itself, since entering it once per step would cost about a tenth of a
step.

The census reads the source of ``src/erwlab`` with ``ast`` and names the
function around each call of ``strict_errstate``, however it is reached
(a name, an attribute of the module, inside a conditional expression).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {("model", "exact_batch"), ("simulate", "_simulate_batch")}


def _callers(module: str, source: str) -> list:
    """(module, enclosing function) for each call of ``strict_errstate`` in
    ``source``; a call outside any function has None."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "strict_errstate":
                found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_strict_errstate_is_entered_only_by_the_replay_rule_and_the_kernel():
    callers = [caller for path in sorted((ROOT / "src" / "erwlab").glob("*.py"))
               for caller in _callers(path.stem, path.read_text())]
    assert sorted(callers, key=str) == sorted(ALLOWED, key=str), f"strict_errstate() callers: {callers}"


def test_the_census_sees_every_way_of_calling_it():
    source = (
        "def a():\n    with strict_errstate():\n        pass\n"
        "def b(strict):\n    with strict_errstate() if strict else contextlib.nullcontext():\n        pass\n"
        "def c():\n    def inner():\n        return model.strict_errstate()\n    return inner\n"
        "d = strict_errstate()\n"
    )
    assert _callers("probe", source) == [("probe", "a"), ("probe", "b"), ("probe", "inner"), ("probe", None)]
