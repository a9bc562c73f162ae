"""Configuration errors that every entry point reports the same way.

The kernel names the range of the first out-of-range step, a LIL
window where the norm is undefined fails before any draw, and an initial
law whose atoms and probabilities do not align is a configuration error
(exit code 2) in every command.
"""

import json

import numpy as np
import pytest

from erwlab import build_preset, ensemble, simulate, validate_model
from erwlab.cli import main
from erwlab.model import InitialLaw, ModelError, spec_to_dict
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
