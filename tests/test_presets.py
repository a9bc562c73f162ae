import inspect
import math
import re

import numpy as np
import pytest

from erwlab import build_preset, cli, presets, validate_model
from erwlab.presets import ParameterError, UnknownPresetError, list_presets


def _model(name, **kwargs):
    return validate_model(build_preset(name, **kwargs))


class TestRegistry:
    def test_listing_stable_and_annotated(self):
        rows = list_presets()
        names = [r[0] for r in rows]
        assert names == sorted(names)
        for expected in ("erw", "gerw-1d", "minimal", "random-step", "kdim", "market",
                         "linear", "quadratic-sym", "poly-g", "phi-power", "cubic-supercritical"):
            assert expected in names
        by_name = {r[0]: r for r in rows}
        assert "Harbola" in by_name["minimal"][2]
        assert "Bercu" in by_name["kdim"][2]
        assert "p, q" in by_name["erw"][1]

    def test_every_builder_default_has_its_flag_type(self):
        # the CLI types each flag by the first builder that takes it; no other builder may disagree
        for builder, _ in presets._REGISTRY.values():
            for name, param in inspect.signature(builder).parameters.items():
                kind = list if isinstance(param.default, tuple) else type(param.default)
                assert cli.PRESET_PARAMS[name] is kind, (builder.__name__, name)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError, match="unknown-preset"):
            build_preset("urn-of-mystery")

    @pytest.mark.parametrize("name,params,message", [
        ("erw", {"k": 2}, "unknown-parameter: preset 'erw' takes p, q; got k"),
        ("kdim", {"q": 0.3, "p": 0.6}, "unknown-parameter: preset 'kdim' takes k, f, p; got q"),
        ("minimal", {"a": 0.1, "b": 0.2}, "unknown-parameter: preset 'minimal' takes f, p, q, init; got a, b"),
    ])
    def test_unknown_parameter_is_named_with_the_presets_parameters(self, name, params, message, capsys, tmp_path):
        # a parameter the preset does not take is not out of range
        with pytest.raises(ParameterError, match=re.escape(message) + "$"):
            build_preset(name, **params)
        argv = ["analyze", "--preset", name, "--out", str(tmp_path / "r.json")]
        for key, value in params.items():
            argv += ["--" + key, str(value)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"config-invalid: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_parameter_range_errors(self):
        with pytest.raises(ParameterError):
            build_preset("cubic-supercritical", p=0.9)  # needs 11/30 < p < 19/30
        with pytest.raises(ParameterError):
            build_preset("poly-g", coeffs=(0.9, 0.3))  # sum i |a_i| >= 1
        with pytest.raises(ParameterError):
            build_preset("erw", p=1.5)
        with pytest.raises(ParameterError):
            build_preset("linear", a=0.9, b=0.5, p=0.6)  # a + b > 1


class TestClassicalWalk:
    def test_observation_map(self):
        spec = build_preset("erw", p=0.6, q=0.5)
        assert spec.s == 1 and spec.r == 2
        assert spec.A[0, 0] == 2.0 and spec.b[0] == -1.0
        # the single probability map is the step-up probability (1-p)+(2p-1)f
        model = validate_model(spec)
        probs = model.block_probs(np.array([0.5]))
        assert probs[0] == pytest.approx(0.5)

    def test_half_state_gives_half_probability(self):
        # with f(x) = x the step-up probability at state one-half is exactly
        # one-half for every memory strength
        for p in (0.55, 0.75, 0.95):
            model = _model("erw", p=p, q=0.5)
            assert float(model.block_probs(np.array([0.5]))[0]) == pytest.approx(0.5, abs=1e-15)


class TestMarket:
    def test_price_rule_midpoint(self):
        # hand evaluation: (U - pi(1/2) + pi(1/2)) / (U - L) = 0.5 / 1.0
        model = _model("market", p=0.5, q=0.5)
        f_val = (0.5 + 1.0) / 2.0  # h(1/2) = 1/2 regardless of p; f(1/2) = 1/2
        probs = model.block_probs(np.array([0.5]))
        assert float(probs[0]) == pytest.approx(0.5, abs=1e-15)

    def test_price_rule_endpoints(self):
        spec = build_preset("market", p=0.5, q=0.5)
        f = spec.meta["f"]
        from erwlab.funcdsl import parse

        expr = parse(f)
        assert expr(0.0) == pytest.approx(1.0, abs=1e-12)
        assert expr(1.0) == pytest.approx(0.0, abs=1e-12)


class TestKdim:
    def test_direction_vectors_by_enumeration(self):
        # observed increments: A e_j + b for occupied blocks, b for the
        # empty one; for k = 2 these are exactly the four unit directions
        spec = build_preset("kdim", k=2, p=0.5)
        A, b = spec.A, spec.b
        directions = [A @ np.eye(3)[j] + b for j in range(3)] + [b.copy()]
        expected = [
            np.array([1.0, 0.0]),
            np.array([-1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, -1.0]),
        ]
        for got, want in zip(directions, expected):
            assert np.allclose(got, want)

    def test_block_probability_formula(self):
        # component j of the drift equals p x_j + (1-p)(1 - x_j)/3 at k=2, f=x
        p = 0.6
        model = _model("kdim", k=2, p=p)
        x = np.array([0.2, 0.3, 0.1])
        H = np.asarray(model.eval_H(x))
        want = p * x + (1 - p) * (1 - x) / 3.0
        assert np.allclose(H, want, atol=1e-14)

    def test_k1_reduces_to_classical(self):
        spec = build_preset("kdim", k=1, f="x", p=0.7)
        assert spec.A[0, 0] == 2.0 and spec.b[0] == -1.0

    def test_probability_sum_on_simplex(self):
        model = _model("kdim", k=2, p=0.9)
        # anywhere on the reachable simplex the block probabilities sum below 1
        rng = np.random.default_rng(3)
        pts = rng.dirichlet([1, 1, 1, 1], size=200)[:, :3]
        probs = model.block_probs(pts)
        assert np.all(probs.sum(axis=0) <= 1.0 + 1e-12)


class TestRandomStep:
    def test_structure(self):
        spec = build_preset("random-step", p=0.6, q=0.5, z_values=(1.0, 2.0), z_probs=(0.5, 0.5))
        assert spec.s == 3 and spec.d == 1 and spec.r == 2
        assert spec.partition == ((1, 2), (3,))
        assert np.array_equal(spec.A, [[0.0, 1.0, -1.0]])
        law = spec.step_law
        assert np.allclose(law.mu, [1.0, 1.5, 1.5])

    def test_exact_meta(self):
        spec = build_preset("random-step", p=0.6, q=0.5)
        assert spec.meta["exact"]["tau"] == pytest.approx(0.2)


class TestExactMeta:
    def test_linear_tau(self):
        spec = build_preset("linear", a=0.5, b=0.25, p=0.8, q=0.5)
        assert spec.meta["exact"]["tau"] == pytest.approx(0.6 * 0.5)

    def test_poly_g_derivatives(self):
        # h^(i)(1/2) = (2p-1) 2^(i-1) i! a_i
        p = 0.7
        spec = build_preset("poly-g", coeffs=(0.3, 0.1), p=p, q=0.5)
        derivs = spec.meta["exact"]["h_derivs"]
        assert derivs[0] == pytest.approx((2 * p - 1) * 0.3)
        assert derivs[1] == pytest.approx((2 * p - 1) * 2 * 2 * 0.1)

    def test_phi_power_tau(self):
        assert build_preset("phi-power", phi="sin", k=2, p=0.9).meta["exact"]["tau"] == 0.0
        assert build_preset("phi-power", phi="tanh", k=1, p=0.9).meta["exact"]["tau"] == pytest.approx(0.8)

    def test_cubic_meta(self):
        spec = build_preset("cubic-supercritical", p=0.62, q=0.5)
        exact = spec.meta["exact"]
        assert exact["tau"] == pytest.approx(3 * 0.24)
        assert exact["eta1"] == pytest.approx(2 * 0.24)
        assert exact["max_smooth_order"] == 2


class TestMemoryMapRange:
    # market, minimal, random-step and kdim check f at 201 points of [0, 1] with tolerance 1e-9
    @pytest.mark.parametrize("name,params,message", [
        ("market", {"U": 0.1, "L": -0.1}, "price rule leaves [0,1] on the unit interval"),
        ("minimal", {"f": "2*x"}, "f must map [0,1] into [0,1]"),
        ("random-step", {"f": "x + 0.5"}, "f must map [0,1] into [0,1]"),
        ("kdim", {"f": "x - 0.5"}, "f must map [0,1] into [0,1]"),
    ])
    def test_map_leaving_the_unit_interval(self, name, params, message):
        with pytest.raises(ParameterError, match=re.escape(f"parameter-out-of-range: {message}") + "$"):
            build_preset(name, **params)

    @pytest.mark.parametrize("name", ["minimal", "random-step", "kdim"])
    @pytest.mark.parametrize("f,accepted", [
        ("x + 5e-10", True),
        ("x + 2e-9", False),
        ("x - 2e-9", False),
        ("piecewise(x < 0.004 : x ; x > 0.006 : x ; x >= 0 : 2)", False),  # 0.005 is a grid point
        ("piecewise(x < 0.0005 : x ; x > 0.001 : x ; x >= 0 : 2)", True),  # between grid points
    ], ids=["within-tolerance", "above", "below", "on-grid", "between-grid"])
    def test_tolerance_and_grid(self, name, f, accepted):
        if accepted:
            build_preset(name, f=f)
        else:
            with pytest.raises(ParameterError, match=re.escape("f must map [0,1] into [0,1]")):
                build_preset(name, f=f)


# each preset's block probability maps as printed; model files and run
# artifacts carry these strings, so a rewrite of a builder must keep them
DEFAULT_MAPS = {
    "cubic-supercritical": ["0.19999999999999996 * (((0.5 + 3.0 * (x - 0.5)) + (x - 0.5) ^ 2.0)"
                            " + sgn(x - 0.5) * (x - 0.5) ^ 3.0) + 0.4"],
    "erw": ["0.0 * x + 0.5"],
    "gerw-1d": ["0.0 * x + 0.5"],
    "kdim": [f"0.33333333333333337 * x{j} + 0.16666666666666666" for j in (1, 2, 3)],
    "linear": ["0.0 * (0.0 * x + 0.5) + 0.5"],
    "market": ["0.0 * ((0.5 - (x ^ 3.0 / 2.0 - ((1.0 - x) ^ 3.0 / 2.0))) / 1.0) + 0.5"],
    "minimal": ["0.0 * x + 0.5"],
    "phi-power": ["0.0 * ((tanh(2.0 * x - 1.0) + 1.0) / 2.0) + 0.5"],
    "poly-g": ["0.0 * ((0.5 * (2.0 * x - 1.0) + 1.0) / 2.0) + 0.5"],
    "quadratic-sym": ["0.0 * piecewise(x < 0.5 : x ^ 2.0 + 0.25 ; x >= 0.5 : 0.75 - (1.0 - x) ^ 2.0) + 0.5"],
    "random-step": ["0.0 * x1 + 0.5"],
}

SCALED_MAPS = [
    ("erw", {"p": 0.7, "q": 0.4}, ["0.3999999999999999 * x + 0.30000000000000004"]),
    ("gerw-1d", {"f": "x^2", "p": 0.7}, ["0.3999999999999999 * x ^ 2.0 + 0.30000000000000004"]),
    ("linear", {"a": 0.5, "b": 0.25, "p": 0.7},
     ["0.3999999999999999 * (0.5 * x + 0.25) + 0.30000000000000004"]),
    ("market", {"p": 0.7}, ["0.3999999999999999 * ((0.5 - (x ^ 3.0 / 2.0 - ((1.0 - x) ^ 3.0 / 2.0))) / 1.0)"
                            " + 0.30000000000000004"]),
    ("poly-g", {"coeffs": (0.4, 0.2), "p": 0.7},
     ["0.3999999999999999 * (((0.4 * (2.0 * x - 1.0) + 0.2 * (2.0 * x - 1.0) ^ 2.0) + 1.0) / 2.0)"
      " + 0.30000000000000004"]),
    ("cubic-supercritical", {"p": 0.55},
     ["0.10000000000000009 * (((0.5 + 3.0 * (x - 0.5)) + (x - 0.5) ^ 2.0) + sgn(x - 0.5) * (x - 0.5) ^ 3.0)"
      " + 0.44999999999999996"]),
    ("minimal", {"f": "x^2", "p": 0.7, "q": 0.4}, ["0.29999999999999993 * x ^ 2.0 + 0.4"]),
    ("random-step", {"f": "x^2", "p": 0.7}, ["0.3999999999999999 * x1 ^ 2.0 + 0.30000000000000004"]),
    ("kdim", {"k": 2, "f": "x^2", "p": 0.7}, [f"0.6 * x{j} ^ 2.0 + 0.10000000000000002" for j in (1, 2, 3)]),
]


@pytest.mark.parametrize("name", sorted(DEFAULT_MAPS))
def test_default_maps_as_printed(name):
    assert [m.to_string() for m in build_preset(name).prob_maps] == DEFAULT_MAPS[name]


@pytest.mark.parametrize("name,params,want", SCALED_MAPS, ids=[case[0] for case in SCALED_MAPS])
def test_scaled_maps_as_printed(name, params, want):
    assert [m.to_string() for m in build_preset(name, **params).prob_maps] == want
