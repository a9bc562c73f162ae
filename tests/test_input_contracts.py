"""Configuration errors that every entry point reports the same way.

The kernel names the range of the first out-of-range step, a LIL
window where the norm is undefined fails before any draw, and an initial
law whose atoms and probabilities do not align is a configuration error
(exit code 2) in every command. A model document with one field broken
is analyzed or refused with ``config-invalid``, never a traceback.
"""

import contextlib
import copy
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from erwlab import build_preset, ensemble, simulate, validate_model
from erwlab.cli import main
from erwlab.model import InitialLaw, ModelError, spec_to_dict
from erwlab.presets import list_presets
from erwlab.simulate import FunctionalConfig
from erwlab.theory import plain, report_dict
from erwlab.verify import VerificationReport
from test_simulate import _hacked_erw


def _message(model, n_max, N, seed):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ModelError) as info:
        ensemble(model, n_max, N, master_seed=seed)
    return str(info.value)


class TestKernelRangeMessages:
    """The kernel reports the P range of the first failing step."""

    def test_first_failing_step(self):
        # every walk starts at x in {0, 1}, so P in {0.5, 2.5} at step 1
        assert _message(_hacked_erw("0.5 + 2*x"), 100, 4, 42) == \
            "probability-out-of-range at runtime: P in [0.5, 2.5]"

    @pytest.mark.parametrize("text,q,message", [
        # NaN once a walk passes x = 0.71
        ("0.5 + 0*exp(1000*x)", 0.5, "probability-out-of-range at runtime: P in [0.5, 0.5] (NaN present)"),
        # out of range before a later gap raises mid-chunk
        ("piecewise(x < 0.9 : 0.5 + x)", 1e-300, "probability-out-of-range at runtime: P in [0.5, 1.16667]"),
    ], ids=["nan", "before-a-gap"])
    def test_message(self, text, q, message):
        assert _message(_hacked_erw(text, q=q), 200, 8, 3) == message

    @pytest.mark.parametrize("seed,span", [(0, "[0.842857, 1.01429]"), (3, "[0.961538, 1.00769]")])
    def test_failure_in_a_later_chunk(self, monkeypatch, seed, span):
        # walks start at 0 and x_t <= (t - 1)/t, so P = 0.5 + 0.6 x passes 1
        # no earlier than step 7: after the first 6-step chunk
        model = _hacked_erw("0.5 + 0.6*x", q=1e-300)
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", 6)
        ensemble(model, 6, 4, master_seed=seed)
        assert _message(model, 100, 4, seed) == f"probability-out-of-range at runtime: P in {span}"


class TestLilWindow:
    @staticmethod
    def _model():
        return validate_model(build_preset("quadratic-sym", p=0.75, q=0.5))

    @pytest.mark.parametrize("mode,window", [
        ("critical", (10, 299)),
        ("critical", (1, 5)),
        ("diffusive", (2, None)),
        ("diffusive", (0, 1)),
        ("bogus", (1000, None)),
    ])
    def test_rejected_before_any_draw(self, monkeypatch, mode, window):
        def no_draws(*args):
            raise AssertionError("drew uniforms")

        monkeypatch.setattr(simulate, "_uniform_chunks", no_draws)
        cfg = FunctionalConfig(center=np.array([0.0]), lil_mode=mode, lil_window=window)
        with pytest.raises(ModelError, match="LIL"):
            ensemble(self._model(), 300, 8, master_seed=1, functional_config=cfg)

    @pytest.mark.parametrize("mode,window", [("critical", (16, 299)), ("diffusive", (3, None)),
                                             ("critical", (10, 5))])  # an empty window evaluates no norm
    def test_windows_where_the_norm_is_defined_run(self, mode, window):
        cfg = FunctionalConfig(center=np.array([0.0]), lil_mode=mode, lil_window=window)
        stats = ensemble(self._model(), 300, 8, master_seed=1, functional_config=cfg)
        reached = window[1] is None or window[0] <= window[1]
        assert np.all(np.isfinite(stats.lil_max))
        assert np.all(stats.lil_max > 0) if reached else np.all(stats.lil_max == 0)


class TestMisalignedInitialLaw:
    def test_rejected(self):
        with pytest.raises(ModelError, match="atoms and probabilities must align"):
            InitialLaw([[1.0]], [0.5, 0.5])

    @pytest.mark.parametrize("probs", [[0.5, 0.5], 1.0])
    @pytest.mark.parametrize("argv", [["simulate", "--n", "100", "--N", "4"], ["oracle", "--n", "5"]])
    def test_cli_exit_2(self, tmp_path, capsys, argv, probs):
        doc = spec_to_dict(build_preset("erw", p=0.6, q=0.5))
        doc["initial"] = {"atoms": [[1.0]], "probs": probs}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(argv + ["--model", str(path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == "config-invalid: atoms and probabilities must align\n"


def test_report_json_is_plain_at_every_depth():
    details = {"pairs": [(np.int64(2), np.float64(0.5))], "mask": np.array([True, False]),
               "nested": {"n": np.int32(7), "flag": np.bool_(True)}}
    report = VerificationReport("T", np.float64(1.5), np.array([1.0, 2.0]), (0.3, 1.8), True, "m",
                                details=details)
    doc = report_dict(report)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["details"] == {"pairs": [[2, 0.5]], "mask": [True, False], "nested": {"n": 7, "flag": True}}
    assert doc["statistic"] == 1.5 and type(doc["statistic"]) is float
    assert plain((np.float32(0.25), None, "x")) == [0.25, None, "x"]


# Every preset's document at its defaults, the seeds of the model document fuzz.
PRESET_DOCUMENTS = {name: spec_to_dict(build_preset(name)) for name, _, _ in list_presets()}
DIMENSIONS = [("s",), ("d",), ("r",)]
BAD_NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 10 ** 400, -1.0, -1e-3, 0.0]
WRONG_TYPES = ["x", True, None, {}, [], 0.5, [["x"]]]


def _fields(value, at=()):
    """The path of every field below ``value``: dict keys and list indices, nested fields included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield at + (key,)
        yield from _fields(item, at + (key,))


@st.composite
def broken_documents(draw):
    """A preset's document with one field dropped, retyped, set to a bad
    number, emptied or made ragged, shifted by one (s, d, r and partition
    blocks) or, for an expression, broken."""
    name = draw(st.sampled_from(sorted(PRESET_DOCUMENTS)))
    doc = copy.deepcopy(PRESET_DOCUMENTS[name])
    path = draw(st.sampled_from(list(_fields(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kinds = ["drop", "type", "number"]
    if isinstance(value, list):
        kinds += ["empty", "ragged"]
    if path in DIMENSIONS or path[0] == "partition" and len(path) > 1:
        kinds.append("shift")
    if isinstance(value, str):
        kinds.append("expression")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "number":
        parent[key] = draw(st.sampled_from(BAD_NUMBERS))
    elif kind == "empty":
        parent[key] = []
    elif kind == "ragged" and value and all(isinstance(row, list) for row in value):
        i = draw(st.integers(0, len(value) - 1))
        value[i] = value[i][:-1] if draw(st.booleans()) else value[i] + [0.5]
    elif kind == "ragged":
        parent[key] = value + [[0.5]]
    elif kind == "shift":
        step = draw(st.sampled_from([-1, 1]))
        parent[key] = [j + step for j in value] if isinstance(value, list) else value + step
    else:
        parent[key] = draw(st.sampled_from([value + " +", "(" + value, value + ")", "", "y + " + value,
                                            "nope(" + value + ")", "1 / 0 + " + value, "piecewise(x < 0.5 : 1)",
                                            "x1 + x9", "0.5 +* x"]))
    return name, path, kind, doc


@settings(max_examples=1500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=broken_documents())
def test_broken_model_documents_analyze_or_exit_2(tmp_path, case):
    name, path, kind, doc = case
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as heard, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["analyze", "--model", str(model), "--out", str(tmp_path / "report.json")])
    assert code in (0, 1, 2)
    # a compiled map that overflows inside (tanh(2*x) on a rectangle reaching 1e308) warns under the
    # caller's settings, as the theory's warning tests require; nothing else warns
    assert [str(w.message) for w in heard if w.filename != "<string>"] == []
    if code == 2:
        assert err.getvalue().startswith("config-invalid"), (name, path, kind, err.getvalue())


@pytest.mark.parametrize("name, path, value, message", [
    ("erw", ("step_law", "atoms"), 10 ** 400, "model field 'step_law' holds a number past the float range"),
    ("kdim", ("domain", "upper", 0), 10 ** 400, "model field 'domain' holds a number past the float range"),
    ("erw", ("initial", "atoms"), [[[1.0]], [[0.0]]], "initial-law atoms must be a list of vectors"),
    ("erw", ("A",), [[1e200]], "observation-out-of-range: A Sigma A^T is not finite"),
    ("cubic-supercritical", ("A",), [[1e160]], "observation-out-of-range: residual_variance needs powers"),
    ("erw", ("A",), [[0.0]], "observation-out-of-range: expansion_beta needs powers of A[0,0] = 0.0"),
], ids=["int-past-float", "int-past-float-nested", "atoms-3d", "covariance-overflow", "residual-overflow",
        "A-zero"])
def test_broken_model_document_messages(tmp_path, capsys, name, path, value, message):
    doc = copy.deepcopy(PRESET_DOCUMENTS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert main(["analyze", "--model", str(model), "--out", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr().err.startswith(f"config-invalid: {message}")
