"""Census of settable values: every defaulted parameter of ``src/erwlab``
must be passed by some call in the program (``src/``, ``perfbench/`` or
``scripts/``). A parameter that only tests pass is a knob the program never
turns; it becomes a module constant that the tests monkeypatch instead.

The census reads the source with ``ast``. A parameter counts as passed when
a call of a function or class of that name passes it by keyword or by
position, or passes a ``**`` mapping. A dataclass field with a default also
counts as set by ``replace(..., field=...)`` or by an attribute assignment.
"""

import ast
import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "perfbench", "scripts")

# parameters no program call passes, kept on purpose, with the reason
_RULE = "a statistical check's rule, kept with its check until ROADMAP item 17 gives each rule one home"
KEPT = {
    "presets._build_*(*)": "the preset builders are called as builder(**params) from the registry",
    "sa.run_sa(checkpoints)": "tests compare every step against tests/sa_reference.py",
    "sa.SAProcess(drift_derivs)": "the acceptance suite gives closed-form drift derivatives",
    "sa.noise_moment_check(min_count)": _RULE,
    "sa.sa_expansion_check(eval_ratio)": _RULE + "; the acceptance suite sets it",
    "sa.sa_expansion_check(converged_band)": _RULE + "; the acceptance suite sets it",
    "verify.fluctuation_test(ks)": _RULE + "; the acceptance suite sets it",
    "verify.lil_envelope_test(min_fraction)": _RULE + "; the acceptance suite sets it",
    "verify.expansion_residual_test(m)": _RULE,
    "verify.expansion_residual_test(eval_ratio)": _RULE,
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _defaulted(path: Path) -> list:
    """(label, callee name, parameter, position or None, is a dataclass field)."""
    found = []

    def visit(body, cls=None):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                shift = 1 if cls is not None and not static else 0  # self or cls
                name = cls if node.name == "__init__" else node.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((f"{path.stem}.{name}({arg.arg})", name, arg.arg, i - shift, False))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((f"{path.stem}.{name}({arg.arg})", name, arg.arg, None, False))
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [n for n in node.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
                    for i, f in enumerate(fields):
                        if f.value is not None:
                            found.append((f"{path.stem}.{node.name}({f.target.id})", node.name, f.target.id, i, True))
                visit(node.body, node.name)

    visit(ast.parse(path.read_text()).body)
    return found


def _program_uses():
    """Calls by callee name, fields given to ``replace``, attributes assigned."""
    calls, replaced, assigned = {}, set(), set()
    for folder in PROGRAM_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                    if name == "replace":
                        replaced.update(k.arg for k in node.keywords)
                    if name is not None:
                        calls.setdefault(name, []).append(node)
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                            if isinstance(t, ast.Attribute):
                                assigned.add(t.attr)
    return calls, replaced, assigned


def _passed(call: ast.Call, param: str, position) -> bool:
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def census() -> list:
    """The defaulted parameters of src/erwlab that no program call passes."""
    calls, replaced, assigned = _program_uses()
    unused = []
    for path in sorted((ROOT / "src" / "erwlab").glob("*.py")):
        for label, name, param, position, is_field in _defaulted(path):
            if is_field and (param in replaced or param in assigned):
                continue
            if not any(_passed(call, param, position) for call in calls.get(name, [])):
                unused.append(label)
    return unused


def test_every_defaulted_parameter_is_passed_by_the_program():
    unused = [label for label in census() if not any(fnmatch.fnmatchcase(label, pat) for pat in KEPT)]
    assert unused == [], f"defaulted parameters that only tests pass: {unused}"


def test_every_kept_parameter_is_still_unused():
    # an exception whose parameter the program now passes, or that no longer
    # exists, goes from the list
    unused = census()
    stale = [pat for pat in KEPT if not any(fnmatch.fnmatchcase(label, pat) for label in unused)]
    assert stale == []
