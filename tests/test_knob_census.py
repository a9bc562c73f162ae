"""Census of settable values: every defaulted parameter of ``src/erwlab``
must be passed by some call in the program (``src/``, ``perfbench/`` or
``scripts/``). A parameter that only tests pass is a knob the program never
turns; it becomes a module constant that the tests monkeypatch instead.

Two more rules keep each value in one place. A default that every program
call overrides is a second copy of the value, which nothing in the program
reads; and a parameter that every program call gives the same literal or
ALL_CAPS constant is a constant written at each call.

The census reads the source with ``ast``. A parameter counts as passed when
a call of a function or class of that name passes it by keyword or by
position, or passes a ``**`` mapping that may hold it (the CLI's tolerance
overrides hold only the parameters ``cli.TOLERANCES`` names). A dataclass
field with a default also counts as set by ``replace(..., field=...)`` or
by an attribute assignment.
The two stricter rules count only what a call passes by keyword or by
position: a ``**`` mapping, or a ``*`` sequence before the position, may
leave the parameter out.
"""

import ast
import fnmatch
import inspect
import re
from pathlib import Path

from erwlab import cli, sa, verify

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

# defaulted parameters that every program call passes, kept on purpose
KEPT_OVERRIDDEN = {}

# parameters that every program call gives the same value, kept on purpose
KEPT_SAME = {}

_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _parameters(path: Path) -> list:
    """(label, callee name, parameter, position or None, has a default, is a
    dataclass field) for every parameter of every function, method and
    dataclass field; ``self`` and ``cls`` are left out."""
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
                for i, arg in enumerate(positional[shift:], shift):
                    found.append((f"{path.stem}.{name}({arg.arg})", name, arg.arg, i - shift, i >= first, False))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    found.append((f"{path.stem}.{name}({arg.arg})", name, arg.arg, None, default is not None, False))
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [n for n in node.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
                    for i, f in enumerate(fields):
                        found.append((f"{path.stem}.{node.name}({f.target.id})", node.name, f.target.id, i,
                                      f.value is not None, True))
                visit(node.body, node.name)

    visit(ast.parse(path.read_text()).body)
    return found


def _source_parameters():
    for path in sorted((ROOT / "src" / "erwlab").glob("*.py")):
        yield from _parameters(path)


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


def _tolerance_keys(node) -> list:
    """The override keys of a ``_tol(overrides, key, ...)`` call, or None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_tol":
        return [arg.value for arg in node.args[1:]]
    return None


def _may_pass(mapping, param: str) -> bool:
    """Whether a ``**`` mapping may hold the parameter: any mapping may,
    except the CLI's tolerance overrides, which hold only the parameters
    ``cli.TOLERANCES`` names for their keys."""
    keys = _tolerance_keys(mapping)
    return keys is None or any(cli.TOLERANCES[key] == param for key in keys)


def _passed(call: ast.Call, param: str, position) -> bool:
    if any(k.arg == param or (k.arg is None and _may_pass(k.value, param)) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _explicit(call: ast.Call, param: str, position):
    """The expression a call passes for the parameter by keyword or by
    position, or None when it passes none or may pass it only through a
    ``*`` or ``**`` argument."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
    if position is None or len(call.args) <= position:
        return None
    if any(isinstance(a, ast.Starred) for a in call.args[: position + 1]):
        return None
    return call.args[position]


def _module_constants() -> set:
    """The ALL_CAPS names that some program module assigns at its top level."""
    names = set()
    for folder in PROGRAM_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.parse(path.read_text()).body:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
                names.update(t.id for t in targets if isinstance(t, ast.Name) and _CONSTANT.fullmatch(t.id))
    return names


def _value_key(node, constants):
    """The literal or module constant an argument expression is, or None."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        return ("constant", name) if name in constants else None
    return ("literal", type(value).__name__, repr(value))


def census() -> list:
    """The defaulted parameters of src/erwlab that no program call passes."""
    calls, replaced, assigned = _program_uses()
    unused = []
    for label, name, param, position, defaulted, is_field in _source_parameters():
        if not defaulted or (is_field and (param in replaced or param in assigned)):
            continue
        if not any(_passed(call, param, position) for call in calls.get(name, [])):
            unused.append(label)
    return unused


def overridden_census() -> list:
    """Defaulted parameters of functions and methods that every program call passes."""
    calls, _, _ = _program_uses()
    return [label for label, name, param, position, defaulted, is_field in _source_parameters()
            if defaulted and not is_field and calls.get(name)
            and all(_explicit(call, param, position) is not None for call in calls[name])]


def same_value_census() -> list:
    """Parameters of functions and methods that every program call gives the
    same literal or the same ALL_CAPS module constant."""
    calls, _, _ = _program_uses()
    constants = _module_constants()
    found = []
    for label, name, param, position, _, is_field in _source_parameters():
        if is_field or not calls.get(name):
            continue
        keys = {_value_key(arg, constants) if arg is not None else None
                for arg in (_explicit(call, param, position) for call in calls[name])}
        if len(keys) == 1 and None not in keys:
            found.append(label)
    return found


def _matches(label, patterns) -> bool:
    return any(fnmatch.fnmatchcase(label, pat) for pat in patterns)


def test_every_defaulted_parameter_is_passed_by_the_program():
    unused = [label for label in census() if not _matches(label, KEPT)]
    assert unused == [], f"defaulted parameters that only tests pass: {unused}"


def test_every_kept_parameter_is_still_unused():
    # an exception whose parameter the program now passes, or that no longer
    # exists, goes from the list
    unused = census()
    stale = [pat for pat in KEPT if not any(fnmatch.fnmatchcase(label, pat) for label in unused)]
    assert stale == []


def test_no_default_is_overridden_by_every_program_call():
    # a default that every call overrides is a second copy of the value that
    # the program never reads: drop it, or give the value one home
    found = [label for label in overridden_census() if not _matches(label, KEPT_OVERRIDDEN)]
    assert found == [], f"defaulted parameters that every program call passes: {found}"


def test_no_parameter_gets_the_same_value_from_every_program_call():
    # such a parameter is a constant written at each call: the function
    # should read the constant itself
    found = [label for label in same_value_census() if not _matches(label, KEPT_SAME)]
    assert found == [], f"parameters that every program call gives the same value: {found}"


def test_every_kept_exception_still_applies():
    found = overridden_census() + same_value_census()
    stale = [pat for pat in [*KEPT_OVERRIDDEN, *KEPT_SAME] if not any(fnmatch.fnmatchcase(label, pat) for label in found)]
    assert stale == []


def _tolerance_uses() -> list:
    """(check name, override key) for each key that ``cli`` hands a check
    through ``**_tol(overrides, key, ...)``."""
    uses = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        for k in node.keywords:
            if k.arg is None and _tolerance_keys(k.value) is not None:
                uses += [(node.func.attr, key) for key in _tolerance_keys(k.value)]
    return uses


def test_every_tolerance_key_names_a_parameter_of_its_checks():
    uses = _tolerance_uses()
    assert {key for _, key in uses} == set(cli.TOLERANCES)
    for check_name, key in uses:
        check = getattr(verify, check_name, None) or getattr(sa, check_name)
        assert cli.TOLERANCES[key] in inspect.signature(check).parameters, (check_name, key)
