import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from erwlab import build_preset, funcdsl
from erwlab.cli import _parser, build_parser, main
from erwlab.model import spec_to_dict
from test_funcdsl import expression_trees


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("erw", "minimal", "kdim", "random-step", "market", "cubic-supercritical"):
        assert name in out
    # every row carries its parameter list and a source note
    assert "Harbola" in out and "Bercu" in out


REPEATED_COMMANDS = [
    ["simulate", "--preset", "erw", "--p", "0.6", "--n", "200", "--N", "16", "--seed", "7"],
    ["analyze", "--preset", "quadratic-sym", "--p", "0.75"],
    ["verify", "--preset", "erw", "--p", "0.6", "--suite", "slln", "--n", "300", "--N", "40", "--seed", "3"],
    ["oracle", "--preset", "erw", "--p", "0.75", "--n", "12"],
    ["sa", "--drift", "x", "--theta0", "0", "--n", "500", "--N", "50", "--seed", "2"],
    ["simulate", "--preset", "market", "--p", "0.5", "--n", "150", "--N", "9", "--seed", "4", "--threads", "2"],
]


def _artifacts(directory):
    """Every file the commands wrote, but the wall-clock sidecars."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if "runmeta" not in p.name}


def test_cached_parser_matches_a_fresh_one(tmp_path):
    # main() builds the parser once per process; parsing must leave it unchanged
    assert _parser() is _parser()
    cached, fresh = tmp_path / "cached", tmp_path / "fresh"
    cached.mkdir()
    fresh.mkdir()
    codes = {"cached": [], "fresh": []}
    for round_ in range(2):
        for i, argv in enumerate(REPEATED_COMMANDS):
            codes["cached"].append(main(argv + ["--out", str(cached / f"{round_}_{i}.out")]))
    for round_ in range(2):
        for i, argv in enumerate(REPEATED_COMMANDS):
            args = build_parser().parse_args(argv + ["--out", str(fresh / f"{round_}_{i}.out")])
            codes["fresh"].append(args.func(args))
    assert codes["cached"] == codes["fresh"]
    assert set(codes["cached"]) <= {0, 1}  # passed or a check failed: every command wrote its artifacts
    assert _artifacts(cached) == _artifacts(fresh)
    assert len(_artifacts(cached)) >= 2 * len(REPEATED_COMMANDS)


def test_analyze_critical(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "--preset", "erw", "--p", "0.75", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["regime_report"]["regime"] == "Critical"
    assert "config_hash" in doc
    # resolved model lands next to the outputs
    assert (tmp_path / "report_model.json").exists()
    assert (tmp_path / "report_runmeta.json").exists()


def test_analyze_deterministic_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["analyze", "--preset", "erw", "--p", "0.6", "--out", str(a)])
    main(["analyze", "--preset", "erw", "--p", "0.6", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "stats.csv"
    code = main([
        "simulate", "--preset", "erw", "--p", "0.6", "--n", "200", "--N", "16",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("checkpoint,component,mean,se,var")
    assert len(lines) > 3
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["config"]["seed"] == 7


def test_simulate_rerun_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--preset", "erw", "--p", "0.6", "--n", "300", "--N", "8", "--seed", "5"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_oracle_csv(tmp_path):
    out = tmp_path / "law.csv"
    code = main(["oracle", "--preset", "erw", "--p", "0.75", "--n", "12", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,probability,observed_value"
    assert len(lines) == 14  # header + 13 states

    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert abs(sum(probs) - 1.0) < 1e-12


def test_oracle_off_lattice_start_uses_enumeration(tmp_path):
    # V_1 = 0.4 used to be rounded into the dense DP, which wrote the law of a walk started at 0
    doc = spec_to_dict(build_preset("erw", p=0.6, q=0.5))
    doc["initial"] = {"atoms": [[0.4]], "probs": [1.0]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "law.csv"
    assert main(["oracle", "--model", str(path), "--n", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,probability"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.4", "1.4", "2.4"]


def test_oracle_kdim_k2_n12(tmp_path):
    # 4^12 paths but 455 states: the guard counts states per step, not paths
    out = tmp_path / "law.csv"
    assert main(["oracle", "--preset", "kdim", "--k", "2", "--p", "0.6", "--n", "12", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 455


@pytest.mark.parametrize("text", ["0.5 + 0.6*exp(-1e8*(x - 0.2857142857142857)^2)",
                                  "0.5 + 0*exp(1e12*(1e-9 - (x - 0.2857142857142857)^2))"], ids=["range", "nan"])
def test_oracle_runtime_abort_exit_2(tmp_path, capsys, text):
    # the map leaves [0, 1] only at x = 2/7, between the validation grid's
    # points, so the dense DP meets it at step 7, inside a batched map call
    doc = spec_to_dict(build_preset("erw", p=0.6, q=0.5))
    doc["prob_maps"] = [text]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "law.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["oracle", "--model", str(path), "--n", "50", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config-invalid: probability-out-of-range")
    assert not out.exists()


def test_verify_slln_passes(tmp_path, capsys):
    out = tmp_path / "verdicts.json"
    code = main([
        "verify", "--preset", "market", "--p", "0.5", "--suite", "slln",
        "--n", "4000", "--N", "300", "--seed", "42", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["theorem"] == "SLLN"
    assert doc["checks"][0]["passed"]


def test_verify_inapplicable_suite_is_config_error(tmp_path):
    # supercritical check on a diffusive model: nothing to run
    code = main([
        "verify", "--preset", "erw", "--p", "0.6", "--suite", "super",
        "--n", "500", "--N", "50", "--out", str(tmp_path / "v.json"),
    ])
    assert code == 2


def test_missing_model_file_exit_2(tmp_path, capsys):
    code = main(["analyze", "--model", str(tmp_path / "nope.json")])
    assert code == 2


def test_nan_probability_model_exit_2(tmp_path):
    # 0 * exp(1000 x) is NaN once exp overflows: the map must not validate
    doc = spec_to_dict(build_preset("erw", p=0.6))
    doc["prob_maps"] = ["0.5 + 0*exp(1000*x)"]
    path = tmp_path / "nan_model.json"
    path.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["simulate", "--model", str(path), "--n", "200", "--N", "8",
                     "--out", str(tmp_path / "stats.csv")])
    assert code == 2
    assert not (tmp_path / "stats.csv").exists()


def test_bad_preset_parameter_exit_2(tmp_path):
    code = main(["analyze", "--preset", "cubic-supercritical", "--p", "0.9", "--out", str(tmp_path / "r.json")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "erw", "--p", "0.6", "--n", "10", "--N", "4"],
    ["verify", "--preset", "erw", "--p", "0.6", "--suite", "slln", "--n", "100", "--N", "8"],
    ["sa", "--drift", "x", "--n", "100", "--N", "4"],
    ["sa", "--preset", "erw", "--p", "0.6", "--n", "100", "--N", "4"],
], ids=["simulate", "verify", "sa-drift", "sa-preset"])
def test_negative_seed_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--seed", "-3", "--out", str(out)])
    assert code == 2
    assert "config-invalid:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "erw", "--p", "0.6", "--n", "10", "--N", "4"],
    ["verify", "--preset", "erw", "--p", "0.6", "--suite", "slln", "--n", "100", "--N", "8"],
    ["analyze", "--preset", "erw", "--p", "0.6"],
    ["sa", "--drift", "x", "--n", "100", "--N", "4"],
    ["sa", "--preset", "erw", "--p", "0.6", "--n", "100", "--N", "4"],
], ids=["simulate", "verify", "analyze", "sa-drift", "sa-preset"])
def test_threads_below_one_exit_2(tmp_path, capsys, argv, threads):
    out = tmp_path / "out.json"
    code = main(argv + ["--threads", threads, "--out", str(out)])
    assert code == 2
    assert f"config-invalid: threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["analyze", "--preset", "erw", "--p", "0.6"], ["--seed", "3"]),
    (["analyze", "--preset", "erw", "--p", "0.6"], ["--tol-overrides", "tol.json"]),
    (["oracle", "--preset", "erw", "--p", "0.6", "--n", "5"], ["--seed", "3"]),
    (["oracle", "--preset", "erw", "--p", "0.6", "--n", "5"], ["--tol-overrides", "tol.json"]),
    (["oracle", "--preset", "erw", "--p", "0.6", "--n", "5"], ["--threads", "1"]),
    (["simulate", "--preset", "erw", "--p", "0.6", "--n", "10", "--N", "4"], ["--tol-overrides", "tol.json"]),
], ids=["analyze-seed", "analyze-tol", "oracle-seed", "oracle-tol", "oracle-threads", "simulate-tol"])
def test_flag_the_command_does_not_read_exit_2(tmp_path, argv, flag):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + flag + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("suite", ["slln", "clt"])
@pytest.mark.parametrize("N", ["1", "0"])
def test_verify_single_trajectory_exit_2(tmp_path, capsys, suite, N):
    # one trajectory has no sample variance: the checks' standard errors divide by N - 1
    out = tmp_path / "v.json"
    code = main(["verify", "--preset", "erw", "--p", "0.6", "--suite", suite, "--n", "100", "--N", N,
                 "--out", str(out)])
    assert code == 2
    assert "config-invalid:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("N", ["1", "0"])
def test_simulate_single_trajectory_exit_2(tmp_path, capsys, recwarn, N):
    # one trajectory has no sample variance: se, var and cov_* divide by N - 1
    out = tmp_path / "stats.csv"
    code = main(["simulate", "--preset", "erw", "--p", "0.6", "--n", "20", "--N", N, "--out", str(out)])
    assert code == 2
    assert "config-invalid:" in capsys.readouterr().err
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("text", ['{"lil_band": ', "[0.2, 2.5]", '{"lil_band": 5}', '{"lil_band": [0.2]}',
                                  '{"lil_band": [0.2, "x"]}', '{"slln_z": "x"}', '{"ks_alpha": true}',
                                  '{"slln_zz": 3}'],
                         ids=["truncated", "not-an-object", "band-number", "band-short", "band-string",
                              "z-string", "alpha-bool", "unknown-key"])
def test_malformed_tol_overrides_exit_2(tmp_path, capsys, text):
    overrides = tmp_path / "tol.json"
    overrides.write_text(text)
    code = main(["verify", "--preset", "erw", "--p", "0.6", "--suite", "slln", "--n", "100", "--N", "8",
                 "--tol-overrides", str(overrides), "--out", str(tmp_path / "v.json")])
    assert code == 2
    assert "config-invalid:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "poly-g", "--coeffs", "a,b"],
    ["analyze", "--preset", "random-step", "--z-values", "1,x"],
    ["analyze", "--preset", "random-step", "--z-probs", "0.5,"],
    ["sa", "--drift", "x", "--n", "0", "--N", "4"],
    ["sa", "--drift", "x", "--n", "100", "--N", "0"],
    ["sa", "--drift", "x", "--n", "100", "--N", "-1"],
    ["sa", "--preset", "erw", "--p", "0.6", "--n", "1", "--N", "4"],
    ["sa", "--drift", "x", "--theta0", "0", "--n", "100", "--N", "1"],
], ids=["coeffs", "z-values", "z-probs", "sa-n-0", "sa-N-0", "sa-N-negative", "sa-model-n-1", "sa-clt-N-1"])
def test_bad_argument_value_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    assert code == 2
    assert "config-invalid:" in capsys.readouterr().err
    assert not out.exists()


def test_sa_linear_drift(tmp_path, capsys):
    out = tmp_path / "sa.json"
    code = main([
        "sa", "--drift", "x", "--theta0", "0", "--noise", "gaussian:1.0",
        "--n", "4000", "--N", "2000", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["name"] == "sa-clt-variance"
    assert doc["checks"][0]["passed"]


def test_sa_model_noise_check(tmp_path):
    out = tmp_path / "sa.json"
    code = main([
        "sa", "--preset", "erw", "--p", "0.6", "--n", "2000", "--N", "150",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["name"] == "noise-moments"
    assert doc["checks"][0]["passed"]


def test_verify_lil_suite_with_overrides(tmp_path):
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({"lil_band": [0.2, 2.5]}))
    out = tmp_path / "v.json"
    code = main([
        "verify", "--preset", "erw", "--p", "0.5", "--suite", "lil",
        "--n", "20000", "--N", "300", "--seed", "15",
        "--tol-overrides", str(overrides), "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["theorem"] == "LIL-envelope"
    assert doc["checks"][0]["details"]["band"] == [0.2, 2.5]


def test_verify_multidimensional_model(tmp_path):
    out = tmp_path / "v.json"
    code = main([
        "verify", "--preset", "kdim", "--k", "2", "--p", "0.5", "--suite", "all",
        "--n", "2000", "--N", "400", "--seed", "6", "--out", str(out),
    ])
    assert code in (0, 1)  # statistical checks at this scale may be tight
    doc = json.loads(out.read_text())
    run_names = {c["theorem"] for c in doc["checks"]}
    assert "SLLN" in run_names and "CLT" in run_names
    skipped = {s["suite"] for s in doc["skipped"]}
    assert {"lil", "super", "expansion", "recurrence"} <= skipped


def test_model_roundtrip_through_cli(tmp_path):
    report = tmp_path / "report.json"
    main(["analyze", "--preset", "kdim", "--k", "2", "--p", "0.5", "--out", str(report)])
    model_file = tmp_path / "report_model.json"
    assert model_file.exists()
    out2 = tmp_path / "again.json"
    code = main(["analyze", "--model", str(model_file), "--out", str(out2)])
    assert code == 0
    a = json.loads(report.read_text())["regime_report"]
    b = json.loads(out2.read_text())["regime_report"]
    assert a["regime"] == b["regime"]
    assert a["tau"] == pytest.approx(b["tau"], abs=1e-9)


def _erw_doc(**changes) -> dict:
    return {**spec_to_dict(build_preset("erw", p=0.6)), **changes}


_NAN, _INF = float("nan"), float("inf")  # json.dumps writes them as NaN and Infinity

# case -> (model file text, a fragment of the config-invalid message)
MALFORMED_MODELS = {
    "parse-error": (lambda: json.dumps(_erw_doc(prob_maps=["0.2*x + ("])), "unexpected token"),
    "uncovered-piecewise": (lambda: json.dumps(_erw_doc(prob_maps=["piecewise(x < 0.3 : 0.4 ; x > 0.6 : 0.5)"])),
                            "piecewise evaluated outside its covered region"),
    "missing-key": (lambda: json.dumps({k: v for k, v in _erw_doc().items() if k != "A"}), "missing key 'A'"),
    "truncated-json": (lambda: json.dumps(_erw_doc())[:100], "Expecting ',' delimiter"),
    # nested past funcdsl.MAX_DEPTH: the compiled source would overflow Python's
    # parser, and the parser's own recursion the stack
    "sum-too-deep": (lambda: json.dumps(_erw_doc(prob_maps=["0.4 + 0.0001*x" + " + 0.0001*x" * 300])),
                     "expression nested deeper than 100 levels"),
    "parentheses-too-deep": (lambda: json.dumps(_erw_doc(prob_maps=["(" * 1200 + "0.5" + ")" * 1200])),
                             "expression nested deeper than 100 levels"),
    # wrongly typed fields: spec_from_dict and validate_model's meta check refuse them
    "top-level-array": (lambda: json.dumps([_erw_doc()]), "a model file must hold a JSON object, got list"),
    "partition-null": (lambda: json.dumps(_erw_doc(partition=None)), "model field 'partition' has the wrong type"),
    "partition-block-number": (lambda: json.dumps(_erw_doc(partition=[1, []])),
                               "model field 'partition' has the wrong type"),
    "prob-map-number": (lambda: json.dumps(_erw_doc(prob_maps=[0.5])), "model field 'prob_maps' has the wrong type"),
    "meta-list": (lambda: json.dumps(_erw_doc(meta=[])), "meta must be a JSON object"),
    "simplex-cap-list": (lambda: json.dumps(_erw_doc(meta={"simplex_cap": [1]})),
                         "meta.simplex_cap must be a number or null"),
    "exact-string": (lambda: json.dumps(_erw_doc(meta={"exact": "abc"})), "meta.exact must be a JSON object"),
    "exact-h-derivs-string": (lambda: json.dumps(_erw_doc(meta={"exact": {"h_derivs": "ab"}})),
                              "meta.exact.h_derivs must be a list of numbers"),
    "exact-tau-string": (lambda: json.dumps(_erw_doc(meta={"exact": {"tau": "ab"}})),
                         "meta.exact.tau must be a number"),
    "exact-x0-too-long": (lambda: json.dumps(_erw_doc(meta={"exact": {"x0": [0.5, 0.5]}})),
                          "meta.exact.x0 must be a list of 1 numbers"),
    "exact-max-order-float": (lambda: json.dumps(_erw_doc(meta={"exact": {"max_smooth_order": 2.0}})),
                              "meta.exact.max_smooth_order must be an integer or null"),
    # s, d, r and the partition indices are JSON integers, not floats or bools
    "s-float": (lambda: json.dumps(_erw_doc(s=1.9)), "model field 's' has the wrong type"),
    "s-integral-float": (lambda: json.dumps(_erw_doc(s=1.0)), "model field 's' has the wrong type"),
    "s-bool": (lambda: json.dumps(_erw_doc(s=True)), "model field 's' has the wrong type"),
    "s-string": (lambda: json.dumps(_erw_doc(s="1")), "model field 's' has the wrong type"),
    "d-float": (lambda: json.dumps(_erw_doc(d=1.5)), "model field 'd' has the wrong type"),
    "r-float": (lambda: json.dumps(_erw_doc(r=2.0)), "model field 'r' has the wrong type"),
    "partition-index-float": (lambda: json.dumps(_erw_doc(partition=[[1.0], []])),
                              "model field 'partition' has the wrong type: expected an integer, got 1.0"),
    "partition-index-bool": (lambda: json.dumps(_erw_doc(partition=[[True], []])),
                             "model field 'partition' has the wrong type: expected an integer, got True"),
    # well-typed fields that validate_model's structural checks refuse
    "r-zero": (lambda: json.dumps(_erw_doc(r=0, partition=[], prob_maps=[])), "dimensions s, d, r must be positive"),
    "A-shape": (lambda: json.dumps(_erw_doc(A=[[2.0, 1.0]])), "A must be 1x1, got (1, 2)"),
    "b-shape": (lambda: json.dumps(_erw_doc(b=[-1.0, 0.0])), "b must be a 1-vector"),
    "map-count": (lambda: json.dumps(_erw_doc(prob_maps=["0.5", "0.2"])), "need r-1=1 probability maps, got 2"),
    "step-law-dimension": (lambda: json.dumps(_erw_doc(step_law={"kind": "point-mass", "atoms": [[1.0, 1.0]],
                                                                 "probs": [1.0]})),
                           "step law dimension 2 != s=1"),
    "initial-law-dimension": (lambda: json.dumps(_erw_doc(initial={"atoms": [[1.0, 0.0], [0.0, 0.0]],
                                                                   "probs": [0.5, 0.5]})),
                              "initial-law atoms must be s-vectors"),
    "domain-dimension": (lambda: json.dumps(_erw_doc(domain={"lower": [0.0, 0.0], "upper": [1.0, 1.0]})),
                         "domain dimension mismatch"),
    "domain-order": (lambda: json.dumps(_erw_doc(domain={"lower": [1.0], "upper": [0.5]})),
                     "domain must satisfy 0 <= lower < upper per axis, got lower [1.0], upper [0.5]"),
    "partition-count": (lambda: json.dumps(_erw_doc(partition=[[1], [], []])), "partition has 3 blocks, expected r=2"),
    "partition-gap": (lambda: json.dumps(_erw_doc(partition=[[], [1]])),
                      "partition-overlap: only the last block may be empty (block 1)"),
    "partition-cover": (lambda: json.dumps(_erw_doc(partition=[[1, 2], []])),
                        "partition-overlap: blocks cover 1..2, expected 1..1"),
    # NaN and Infinity, which Python's json reads
    "A-nan": (lambda: json.dumps(_erw_doc(A=[[_NAN]])), "A must be finite, got [[nan]]"),
    "b-infinity": (lambda: json.dumps(_erw_doc(b=[_INF])), "b must be finite, got [inf]"),
    "step-atom-nan": (lambda: json.dumps(_erw_doc(step_law={"kind": "point-mass", "atoms": [[_NAN]], "probs": [1.0]})),
                      "step-law atoms must be finite"),
    "step-prob-nan": (lambda: json.dumps(_erw_doc(step_law={"kind": "finite-support", "atoms": [[1.0], [0.5]],
                                                            "probs": [_NAN, 0.5]})),
                      "step-law probabilities must be finite"),
    "initial-atom-infinity": (lambda: json.dumps(_erw_doc(initial={"atoms": [[_INF], [0.0]], "probs": [0.5, 0.5]})),
                              "initial-law atoms must be finite"),
    "initial-prob-infinity": (lambda: json.dumps(_erw_doc(initial={"atoms": [[1.0], [0.0]], "probs": [_INF, 0.5]})),
                              "initial-law probabilities must be finite"),
    "domain-lower-nan": (lambda: json.dumps(_erw_doc(domain={"lower": [_NAN], "upper": [1.0]})),
                         "domain must satisfy 0 <= lower < upper per axis, got lower [nan]"),
    "domain-upper-nan": (lambda: json.dumps(_erw_doc(domain={"lower": [0.0], "upper": [_NAN]})),
                         "domain must satisfy 0 <= lower < upper per axis, got lower [0.0], upper [nan]"),
    "domain-lower-infinity": (lambda: json.dumps(_erw_doc(domain={"lower": [_INF], "upper": [None]})),
                              "domain must satisfy 0 <= lower < upper per axis, got lower [inf]"),
}


@pytest.mark.parametrize("command", ["analyze", "oracle", "simulate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_file_exit_2(tmp_path, capsys, command, case):
    text, message = MALFORMED_MODELS[case]
    path = tmp_path / "bad_model.json"
    path.write_text(text())
    code = main([command, "--model", str(path), "--out", str(tmp_path / "out.json")] + MODEL_COMMANDS[command])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config-invalid:") and message in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("flag,value,message", [("--z-values", "1,inf", "step-law atoms must be finite"),
                                                ("--z-probs", "nan,0.5", "step-law probabilities must be finite")])
def test_non_finite_preset_flag_exit_2(tmp_path, capsys, command, flag, value, message):
    argv = [command, "--preset", "random-step", flag, value, "--out", str(tmp_path / "out.json")]
    assert main(argv + MODEL_COMMANDS[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config-invalid:") and message in err


MODEL_COMMANDS = {
    "analyze": [],
    "simulate": ["--n", "50", "--N", "4"],
    "oracle": ["--n", "5"],
    "verify": ["--n", "50", "--N", "4"],
    "sa": ["--n", "50", "--N", "4"],
}


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
@pytest.mark.parametrize("field,value", [("s", 1.9), ("d", True), ("r", 2.0)])
def test_non_integer_dimension_exit_2_naming_the_field(tmp_path, capsys, command, field, value):
    path = tmp_path / "bad_model.json"
    path.write_text(json.dumps(_erw_doc(**{field: value})))
    code = main([command, "--model", str(path), "--out", str(tmp_path / "out")] + MODEL_COMMANDS[command])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config-invalid:") and f"model field {field!r}" in err


GAP_COMMANDS = {
    "simulate": ["simulate", "--n", "20000", "--N", "64", "--out", "stats.csv"],
    "verify": ["verify", "--suite", "slln", "--out", "verdict.json"],
    "analyze": ["analyze", "--out", "report.json"],
}


@pytest.mark.parametrize("command", sorted(GAP_COMMANDS))
def test_piecewise_gap_off_the_validation_grid_exit_2(tmp_path, capsys, command):
    # no point of the 201-point validation grid falls in (0.5001, 0.5002], so the
    # model validates; walks and the fixed-point search near x = 1/2 reach the gap
    doc = spec_to_dict(build_preset("gerw-1d", f="x", p=0.6))
    doc["prob_maps"] = ["piecewise(x <= 0.5001 : 0.2 + 0.6 * x ; x > 0.5002 : 0.2 + 0.6 * x)"]
    path = tmp_path / "gap_model.json"
    path.write_text(json.dumps(doc))
    argv = GAP_COMMANDS[command]
    code = main(argv[:-1] + [str(tmp_path / argv[-1]), "--model", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config-invalid:")


SUITE_CASES = {
    "erw-diffusive": (
        ["--preset", "erw", "--p", "0.6"],
        ["SLLN", "CLT", "LIL-envelope", "Recurrence"],
        [("super", "not applicable in regime Diffusive"), ("expansion", "not applicable in regime Diffusive")],
    ),
    "quadratic-sym-critical": (
        ["--preset", "quadratic-sym", "--p", "0.75"],
        ["SLLN", "CLT", "LIL-envelope", "Recurrence"],
        [("super", "not applicable in regime Critical"), ("expansion", "not applicable in regime Critical")],
    ),
    "erw-supercritical": (
        ["--preset", "erw", "--p", "0.85"],
        ["SLLN", "SupercriticalLimit", "ExpansionResidual", "Recurrence"],
        [("clt", "not applicable in regime Supercritical"), ("lil", "not applicable (regime Supercritical, s=1)")],
    ),
    "random-step-fractional": (
        ["--preset", "random-step", "--p", "0.6", "--z-values", "0.5,1.5"],
        ["SLLN", "CLT"],
        [
            ("lil", "not applicable (regime Diffusive, s=3)"),
            ("super", "not applicable in regime Diffusive"),
            ("expansion", "not applicable in regime Diffusive"),
            ("recurrence", "not applicable: needs a d=1 integer-lattice model"),
        ],
    ),
    "kdim-3": (
        ["--preset", "kdim", "--k", "3"],
        ["SLLN", "CLT"],
        [
            ("lil", "not applicable (regime Diffusive, s=5)"),
            ("super", "not applicable in regime Diffusive"),
            ("expansion", "not applicable in regime Diffusive"),
            ("recurrence", "not applicable: needs a d=1 integer-lattice model"),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(SUITE_CASES))
def test_verify_all_suite_order_and_skip_reasons(tmp_path, case):
    model_args, theorems, skipped = SUITE_CASES[case]
    out = tmp_path / "v.json"
    code = main(["verify", "--suite", "all", "--n", "300", "--N", "32", "--seed", "1", "--out", str(out)] + model_args)
    assert code in (0, 1)
    doc = json.loads(out.read_text())
    assert [c["theorem"] for c in doc["checks"]] == theorems
    assert [(s["suite"], s["reason"]) for s in doc["skipped"]] == skipped


# main() on random input: an exit code of 0, 1 or 2, never a traceback
FUZZ = settings(max_examples=60, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(expression_trees([funcdsl.Var(0, "x")]))
def test_fuzz_model_file_maps(tmp_path, tree):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_erw_doc(prob_maps=[funcdsl.print_ast(tree)])))
    for argv in (["analyze"], ["simulate", "--n", "60", "--N", "4"]):
        assert main(argv + ["--model", str(path), "--out", str(tmp_path / "out.json")]) in (0, 1, 2)


_K = st.integers(min_value=0, max_value=3).map(lambda k: ["--k", str(k)])
PRESET_ARGS = {
    "cubic-supercritical": st.just([]),
    "erw": st.just([]),
    "gerw-1d": st.sampled_from([["--f", "x"], ["--f", "x^2"], ["--f", "sqrt(x)"]]),
    "kdim": _K,
    "linear": st.just([]),
    "market": st.just([]),
    "minimal": st.just([]),
    "phi-power": _K.map(lambda k: ["--phi", "tanh"] + k),
    "poly-g": st.just([]),
    "quadratic-sym": st.just([]),
    "random-step": st.just([]),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["simulate", "verify", "sa", "oracle", "analyze"]))
    if command == "sa" and draw(st.booleans()):
        argv = ["sa", "--drift", draw(st.sampled_from(["x", "0.3*x + x^2", "x - 1", "sgn(x)"]))]
    else:
        preset = draw(st.sampled_from(sorted(PRESET_ARGS)))
        p = draw(st.sampled_from(["0.3", "0.6", "0.75", "0.9"]))
        argv = [command, "--preset", preset, "--p", p] + draw(PRESET_ARGS[preset])
    if command != "analyze":
        argv += ["--n", str(draw(st.integers(min_value=-1, max_value=50)))]
    if command not in ("analyze", "oracle"):
        argv += ["--N", str(draw(st.integers(min_value=-1, max_value=8)))]
    return argv


@FUZZ
@given(_argv())
def test_fuzz_bounded_argv(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "out.json")]) in (0, 1, 2)
