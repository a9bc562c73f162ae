import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import erwlab
from erwlab import model as model_mod
from erwlab import (
    Domain,
    InitialLaw,
    ModelError,
    ModelSpec,
    StepLaw,
    funcdsl,
    load_model,
    parse,
    save_model,
    validate_model,
)
from erwlab.model import (
    DomainViolation,
    ValidatedModel,
    _grid_product,
    interior_grid,
    spec_from_dict,
    spec_to_dict,
    validation_grid,
)
from erwlab.presets import build_preset, list_presets
from test_funcdsl import expression_trees
from theory_reference import reference_validation_grid


def _grid_shape(monkeypatch, density, span=1.0):
    """Set the points per axis and the infinite-edge span that the model layer's grids read."""
    monkeypatch.setattr(model_mod, "GRID_DENSITY", density)
    monkeypatch.setattr(model_mod, "INFINITE_EDGE_SPAN", span)


def _erw_spec(p=0.75, q=0.5, prob_text=None):
    h = funcdsl.affine(parse("x"), 2.0 * p - 1.0, 1.0 - p) if prob_text is None else parse(prob_text)
    return ModelSpec(
        s=1, d=1, r=2,
        partition=((1,), ()),
        step_law=StepLaw.point_mass([1.0]),
        prob_maps=(h,),
        A=[[2.0]], b=[-1.0],
        initial=InitialLaw([[1.0], [0.0]], [q, 1 - q]),
        domain=Domain([0.0], [1.0]),
    )


def test_every_exported_name_resolves():
    namespace = {}
    exec("from erwlab import *", namespace)  # raises AttributeError for a stale name
    assert set(erwlab.__all__) <= set(namespace)


class TestStepLaw:
    def test_point_mass_moments(self):
        law = StepLaw.point_mass([1.0])
        assert law.mu[0] == 1.0
        assert law.second_moment[0, 0] == 1.0

    def test_finite_support_moments(self):
        law = StepLaw.finite([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0]], [0.5, 0.5])
        assert np.allclose(law.mu, [1.0, 1.5, 1.5])
        assert np.allclose(law.second_moment[1, 1], 0.5 * 1 + 0.5 * 4)
        assert np.allclose(law.second_moment, law.second_moment.T)

    def test_probabilities_validated(self):
        with pytest.raises(ModelError):
            StepLaw.finite([[1.0]], [0.7])
        with pytest.raises(ModelError):
            StepLaw.finite([[-1.0]], [1.0])

    @given(st.lists(st.tuples(st.floats(0.1, 3.0), st.integers(1, 5)), min_size=1, max_size=4))
    def test_moment_consistency(self, pairs):
        weights = np.array([w for _, w in pairs], dtype=float)
        probs = weights / weights.sum()
        atoms = [[v] for v, _ in pairs]
        law = StepLaw.finite(atoms, probs)
        mean = sum(p * v for (v,), p in zip(atoms, probs))
        assert law.mu[0] == pytest.approx(mean, rel=1e-12)
        m2 = sum(p * v * v for (v,), p in zip(atoms, probs))
        assert law.second_moment[0, 0] == pytest.approx(m2, rel=1e-12)


class TestValidation:
    def test_classical_walk_valid(self):
        model = validate_model(_erw_spec(p=0.75, q=0.5))
        assert model.mu[0] == 1.0
        # drift map equals the step-up probability for unit steps
        assert model.eval_H(np.array([0.5]))[0] == pytest.approx(0.5)

    def test_constant_overflow_rejected(self):
        spec = _erw_spec(prob_text="1.2")
        with pytest.raises(ModelError, match="probability-out-of-range"):
            validate_model(spec)

    def test_minimal_square_map_valid(self):
        spec = build_preset("minimal", f="x^2", p=0.9, q=0.3)
        model = validate_model(spec)
        assert model.eval_H(np.array([0.5]))[0] == pytest.approx(0.6 * 0.25 + 0.3)

    def test_partition_errors(self):
        spec = _erw_spec()
        bad = ModelSpec(**{**spec.__dict__, "partition": ((), (1,))})
        with pytest.raises(ModelError, match="partition"):
            validate_model(bad)

    def test_integer_lattice_is_exact(self):
        spec = _erw_spec(p=0.6)
        assert validate_model(spec).integer_lattice
        for field, value in (("b", [-1.0 + 1e-9]), ("A", [[2.0 + 1e-12]])):
            assert not validate_model(ModelSpec(**{**spec.__dict__, field: value})).integer_lattice

    def test_drift_norm_bound(self, monkeypatch):
        # |H(x)| <= |mu| holds everywhere on the grid
        models = [validate_model(build_preset(name, **kwargs)) for name, kwargs in [
            ("erw", dict(p=0.7)),
            ("minimal", dict(f="x^2", p=0.9, q=0.3)),
            ("kdim", dict(k=2, p=0.6)),
            ("random-step", dict(p=0.6)),
        ]]
        _grid_shape(monkeypatch, 21)
        for model in models:
            grid = validation_grid(model.spec)[0]
            H = model.eval_H(grid)
            norm_mu = np.linalg.norm(model.mu)
            assert np.all(np.linalg.norm(H, axis=-1) <= norm_mu + 1e-12)

    def test_domain_violation(self):
        model = validate_model(_erw_spec())
        from erwlab.model import DomainViolation

        with pytest.raises(DomainViolation):
            model.eval_H(np.array([1.5]))

    def test_runtime_probability_guard(self):
        model = validate_model(_erw_spec())
        hacked = ModelSpec(**{**model.spec.__dict__, "prob_maps": (parse("2*x"),)})
        from erwlab.model import ValidatedModel

        bad = ValidatedModel(
            spec=hacked, mu=model.mu, sigma=model.sigma, block_masks=model.block_masks
        )
        with pytest.raises(ModelError, match="probability-out-of-range"):
            bad.block_probs(np.array([0.9]))

    @pytest.mark.parametrize("values,message", [
        ([0.5, 1.1], r"P in \[0\.5, 1\.1\]$"),
        ([[-0.25, 0.75], [0.5, 0.6]], r"P in \[-0\.25, 0\.75\]$"),
        ([0.3, np.nan, 0.7], r"P in \[0\.3, 0\.7\] \(NaN present\)$"),
        ([np.nan], r"P in \[nan, nan\] \(NaN present\)$"),
    ])
    def test_runtime_range_report(self, values, message):
        from erwlab.model import check_runtime_probs

        with pytest.raises(ModelError, match=message):
            check_runtime_probs(np.array(values))

    @pytest.mark.parametrize("values", [[], [[], []], [0.0, 1.0, 1.0 + 1e-10], [-1e-10, 0.5]])
    def test_runtime_range_passes(self, values):
        from erwlab.model import check_runtime_probs

        check_runtime_probs(np.array(values, dtype=float))

    # (values, range check passes, sum check passes). The checks call the
    # reduction ufuncs directly; each outcome must also be that of the same
    # tests written with the ndarray methods
    PAST_TOP = np.nextafter(1.0 + 1e-9, 2.0)
    PAST_BOTTOM = np.nextafter(-1e-9, -1.0)

    @pytest.mark.parametrize("values,range_ok,sum_ok", [
        ([], True, True),
        ([[], []], True, True),
        ([[np.nan, np.nan], [np.nan, np.nan]], False, True),  # NaN totals are left to the range check
        ([0.3, np.nan, 0.7], False, True),
        ([np.nan, 1.5], False, True),
        ([[0.0, 1.0 + 5e-10], [-5e-10, 0.5]], True, True),
        ([-1e-9, 1.0 + 1e-9], True, False),  # 1 - (1 + 1e-9) rounds past -1e-9
        ([0.5, PAST_TOP], False, False),
        ([PAST_BOTTOM, 0.5], False, True),
    ], ids=["empty", "empty-rows", "all-nan", "nan-among-valid", "nan-and-past-one", "within-band",
            "band-edges", "just-past-top", "just-past-bottom"])
    def test_runtime_checks_match_the_method_reductions(self, values, range_ok, sum_ok):
        from erwlab.model import check_runtime_probs, check_runtime_sum

        values = np.array(values, dtype=float)
        tol = 1e-9
        assert range_ok == bool(values.min(initial=0.0) >= -tol and values.max(initial=0.0) <= 1.0 + tol)
        assert sum_ok == (not 1.0 - values.max(initial=0.0) < -tol)
        for check, ok in ((check_runtime_probs, range_ok), (check_runtime_sum, sum_ok)):
            if ok:
                check(values)
            else:
                with pytest.raises(ModelError, match="probability-out-of-range"):
                    check(values)

    def test_clip_ufunc_is_np_clip(self):
        # the kernel and block_probs clip through the ufunc behind np.clip; it keeps -0.0 as np.clip does
        from erwlab.model import clip_ufunc

        values = np.array([-0.0, 0.0, -1e-12, 0.25, 1.0 + 1e-12, np.nan, -np.inf, np.inf])
        got = clip_ufunc(values, 0.0, 1.0)
        assert np.array_equal(got, np.clip(values, 0.0, 1.0), equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(np.clip(values, 0.0, 1.0)))
        assert np.signbit(got[0]) and not np.signbit(got[1])

    @pytest.mark.parametrize("cap", [math.nan, -1.0, 0, 0.0, math.inf, -math.inf, 10 ** 400],
                             ids=["nan", "negative", "zero-int", "zero", "inf", "-inf", "huge-int"])
    def test_simplex_cap_range_refused(self, cap):
        # the lower corner of kdim's [0, 1]^3 sums to 0, and the cap must lie above it
        spec = build_preset("kdim", k=2, p=0.6)
        with pytest.raises(ModelError, match=r"^meta\.simplex_cap must be a finite number above 0\.0, the "
                                             r"coordinate sum of the rectangle's lower corner, got "):
            validate_model(ModelSpec(**{**spec.__dict__, "meta": {**spec.meta, "simplex_cap": cap}}))

    def test_simplex_cap_above_the_lower_corner(self):
        spec = _erw_spec()
        for lower, cap, ok in ((0.0, -0.0, False), (0.0, 1e-300, True), (0.25, 0.25, False), (0.25, 0.2500001, True),
                                 (0.0, 2, True)):
            shifted = ModelSpec(**{**spec.__dict__, "meta": {"simplex_cap": cap},
                                   "initial": InitialLaw([[lower]], [1.0]), "domain": Domain([lower], [1.0])})
            if ok:
                validate_model(shifted)
            else:
                with pytest.raises(ModelError, match=r"^meta\.simplex_cap must be a finite number above"):
                    validate_model(shifted)

    @pytest.mark.parametrize("name,changes,message", [
        ("erw", {"initial": InitialLaw([[1.0], [1.5]], [0.5, 0.5])},
         "initial-law atom [1.5] lies outside the model rectangle [[0.0], [1.0]]"),
        ("erw", {"initial": InitialLaw([[1.0], [-0.5]], [0.5, 0.5])},
         "initial-law atom [-0.5] lies outside the model rectangle [[0.0], [1.0]]"),
        ("erw", {"domain": Domain([0.1], [0.9])},
         "initial-law atom [1.0] lies outside the model rectangle [[0.1], [0.9]]"),
        ("kdim", {"initial": InitialLaw([[0.6, 0.0, 0.0], [0.6, 0.6, 0.0]], [0.5, 0.5])},
         "initial-law atom [0.6, 0.6, 0.0] sums past meta.simplex_cap 1.0"),
    ], ids=["above", "below", "narrow-rectangle", "past-cap"])
    def test_initial_atom_outside_refused(self, name, changes, message):
        spec = build_preset(name, p=0.6, **({"k": 2} if name == "kdim" else {}))
        with pytest.raises(ModelError) as exc:
            validate_model(ModelSpec(**{**spec.__dict__, **changes}))
        assert str(exc.value) == message

    def test_nan_probability_rejected(self):
        # exp overflows past x ~ 0.71, and 0 * inf is NaN
        spec = _erw_spec(prob_text="0.5 + 0*exp(1000*x)")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ModelError, match="probability-out-of-range"):
                validate_model(spec)
            bad = ValidatedModel(spec=spec, mu=np.array([1.0]), sigma=np.array([[1.0]]),
                                 block_masks=np.array([[1.0], [0.0]]))
            with pytest.raises(ModelError, match="probability-out-of-range"):
                bad.block_probs(np.array([0.9]))


@pytest.mark.parametrize("name,kwargs", [("erw", dict(p=0.7)), ("random-step", dict(p=0.6)), ("kdim", dict(k=3, p=0.6))],
                         ids=["erw-s1", "random-step-s3", "kdim3-s5"])
def test_point_layout(name, kwargs, monkeypatch):
    # every point is an (..., s) array, s = 1 included
    model = validate_model(build_preset(name, **kwargs))
    _grid_shape(monkeypatch, 7)
    grid = validation_grid(model.spec)[0]
    H = model.eval_H(grid)
    assert H.shape == grid.shape
    for i in range(grid.shape[0]):
        assert np.array_equal(H[i], model.eval_H(grid[i]))
    assert model.block_probs(grid).shape == (model.r, grid.shape[0])
    assert model.block_probs(grid[0]).shape == (model.r,)
    empty = np.empty((0, model.s))
    assert model.eval_H(empty).shape == (0, model.s)
    assert model.block_probs(empty).shape == (model.r, 0)
    for bad in (np.array(0.5), np.full((4, model.s + 1), 0.1), np.full(model.s + 1, 0.1)):
        for fn in (model.block_probs, model.eval_H):
            with pytest.raises(ModelError, match="points must have shape"):
                fn(bad)


class TestBlockProbs:
    """One (r, ...) array: the maps, clamped, then their complement."""

    @pytest.mark.parametrize("name,kwargs", [("erw", dict(p=0.7)), ("kdim", dict(k=3, p=0.6))],
                             ids=["erw-s1", "kdim3-s5"])
    def test_rows_are_the_maps_and_the_complement(self, name, kwargs, monkeypatch):
        model = validate_model(build_preset(name, **kwargs))
        _grid_shape(monkeypatch, 7)
        grid = _grid_product(model.domain.axes(), None)[:6]
        probs = model.block_probs(grid)
        assert probs.shape == (model.r, grid.shape[0])
        arg = grid[:, 0] if model.s == 1 else grid
        head = np.stack([np.clip(pm(arg), 0.0, 1.0) for pm in model.spec.prob_maps])
        assert np.array_equal(probs[:-1], head)
        assert np.array_equal(probs[-1], np.clip(1.0 - head.sum(axis=0), 0.0, 1.0))
        for j in range(grid.shape[0]):
            assert np.array_equal(model.block_probs(grid[j]), probs[:, j])
        assert np.array_equal(model.block_probs(grid.reshape(2, 3, model.s)), probs.reshape(model.r, 2, 3))

    def test_a_point_gives_the_bits_it_has_in_a_batch(self):
        # r = 10: numpy sums nine values of a single point pairwise, a batch's rows in order
        model = validate_model(build_preset("kdim", k=5, p=0.6))
        points = np.random.default_rng(0).dirichlet(np.ones(model.s + 1), 200)[:, : model.s]
        probs = model.block_probs(points)
        for j in range(points.shape[0]):
            assert np.array_equal(model.block_probs(points[j]), probs[:, j]), j
            assert np.array_equal(model.block_probs(points[j : j + 1]), probs[:, j : j + 1]), j

    def test_a_bare_point_is_a_batch_of_one(self):
        # on 0-d arrays the maps would run on numpy scalar math, whose ** is
        # libm pow: it differs from the array loop in the last bit at one of
        # these cubes (seed 0)
        model = validate_model(build_preset("cubic-supercritical"))
        points = np.random.default_rng(0).uniform(0.0, 1.0, (1000, 1))
        for x in points:
            assert model.block_probs(x).tobytes() == model.block_probs(x[None])[:, 0].tobytes(), x

    def test_no_maps_give_all_ones(self):
        spec = ModelSpec(
            s=1, d=1, r=1, partition=((1,),), step_law=StepLaw.point_mass([1.0]), prob_maps=(),
            A=[[1.0]], b=[0.0], initial=InitialLaw([[1.0]], [1.0]), domain=Domain([0.0], [1.0]),
        )
        model = validate_model(spec)
        assert np.array_equal(model.block_probs(np.array([0.3])), np.ones(1))
        assert np.array_equal(model.block_probs(np.linspace(0.0, 1.0, 4)[:, None]), np.ones((1, 4)))

    @pytest.mark.parametrize("text", ["0.3", "0.09 ^ 0.5"], ids=["compiled", "interpreted"])
    def test_constant_map_fills_every_point(self, text):
        model = validate_model(_erw_spec(prob_text=text))
        value = parse(text)(0.0)
        want = np.array([value, 1.0 - value])
        assert np.array_equal(model.block_probs(np.array([0.3])), want)
        assert np.array_equal(model.block_probs(np.full((4, 1), 0.3)), np.repeat(want[:, None], 4, axis=1))


def _relabel(data, node, s, j):
    """``node`` with each constant and variable index redrawn for member j
    of a family: kept, shifted by j (a variable) or drawn anew. Exponents
    and divisors are constants too, so some members keep them and some do
    not."""
    if isinstance(node, funcdsl.Const):
        return funcdsl.Const(data.draw(st.sampled_from([node.value, round(node.value + 0.25 * j, 3), 0.5, 2.0])))
    if isinstance(node, funcdsl.Var):
        index = data.draw(st.sampled_from([node.index, (node.index + j) % s, *range(s)]))
        return funcdsl.Var(index, f"x{index + 1}")
    if isinstance(node, tuple):
        return tuple(_relabel(data, v, s, j) for v in node)
    if dataclasses.is_dataclass(node):
        return type(node)(*(_relabel(data, getattr(node, f.name), s, j) for f in dataclasses.fields(node)))
    return node


def _family(data):
    """s in 2..5, a family of 2 to 4 maps on x1..xs that share one random tree's
    shape (every node kind: piecewise, sqrt, log, / and ^ included), and an
    (s, B) array of points, some on and past the domains' edges and some
    large or small enough to overflow or underflow."""
    s = data.draw(st.integers(min_value=2, max_value=5))
    tree = data.draw(expression_trees([funcdsl.Var(j, f"x{j + 1}") for j in range(s)], max_leaves=8))
    m = data.draw(st.integers(min_value=2, max_value=4))
    maps = [funcdsl.FuncExpr(tree, s)] + [funcdsl.FuncExpr(_relabel(data, tree, s, j), s) for j in range(1, m)]
    value = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 1e200, 1e-200]) | st.floats(min_value=-3.0, max_value=3.0)
    B = data.draw(st.integers(min_value=1, max_value=5))
    X = np.array(data.draw(st.lists(st.lists(value, min_size=B, max_size=B), min_size=s, max_size=s)))
    return maps, X


def _maps_model(maps, s):
    """An unvalidated model whose r - 1 maps are ``maps``: enough for eval_maps."""
    spec = ModelSpec(s=s, d=1, r=len(maps) + 1, partition=(), step_law=StepLaw.point_mass([1.0] * s),
                     prob_maps=tuple(maps), A=np.ones((1, s)), b=[0.0], initial=InitialLaw([[0.0] * s], [1.0]),
                     domain=Domain([0.0] * s, [1.0] * s))
    return ValidatedModel(spec=spec, mu=spec.step_law.mu, sigma=spec.step_law.second_moment,
                          block_masks=np.zeros((spec.r, s)))


def _one_by_one(maps, X, mode):
    """:func:`_run` of each map's fast in turn: the reference for a family."""
    def fill(out):
        for i, pm in enumerate(maps):
            out[i] = pm.fast(list(X))

    return _run(fill, len(maps), X, mode)


def _run(fill, m, X, mode):
    """``fill(out)`` for an (m, B) ``out`` under ``np.errstate(all="warn")`` and
    the warnings filter ``mode``: the warnings seen, then the exception or the values."""
    out = np.empty((m, X.shape[1]))
    with warnings.catch_warnings(record=True) as seen, np.errstate(all="warn"):
        warnings.simplefilter(mode)
        try:
            fill(out)
        except Exception as exc:  # noqa: BLE001 - compared with the maps' own
            return [(w.category, str(w.message)) for w in seen], (type(exc), str(exc))
    return [(w.category, str(w.message)) for w in seen], out.tobytes()


class TestMapGroups:
    """Same-shape maps evaluated as one template: each map's bits, errors and warnings."""

    @given(st.data())
    @settings(max_examples=300)
    def test_rows_are_each_maps_fast(self, data):
        maps, X = _family(data)
        groups = funcdsl.templates(maps)
        firsts = [members[0] for members, _ in groups]
        assert firsts == sorted(firsts)
        assert sorted(i for members, _ in groups for i in members) == list(range(len(maps)))
        with np.errstate(all="ignore"):
            for members, fn in groups:
                arg = X if len(members) > 1 else list(X)
                try:
                    want = [np.broadcast_to(maps[i].fast(list(X)), X.shape[1:]) for i in members]
                except Exception:  # noqa: BLE001 - a member's checked operation: the template's too
                    with pytest.raises(Exception):
                        fn(arg)
                    continue
                got = np.broadcast_to(fn(arg), (len(members),) + X.shape[1:])
                for row, value in zip(got, want):
                    assert row.tobytes() == value.tobytes(), members

    @given(st.data())
    @settings(max_examples=200)
    @pytest.mark.parametrize("mode", ["always", "error"], ids=["warn", "warnings-as-errors"])
    def test_errors_and_warnings_are_the_maps_own(self, mode, data):
        maps, X = _family(data)
        model = _maps_model(maps, X.shape[0])
        assert _run(lambda out: model.eval_maps(out, X), len(maps), X, mode) == _one_by_one(maps, X, mode)

    @pytest.mark.parametrize("mode", ["always", "error"], ids=["warn", "warnings-as-errors"])
    def test_each_map_warns_for_itself(self, mode):
        # the template warns once per operation for both maps; map by map
        # there are two overflows and an invalid subtraction per map
        maps = [parse(f"x{j} * 1e300 * 1e10 - x{j} * 1e300 * 1e10", arity=2) for j in (1, 2)]
        model = _maps_model(maps, 2)
        assert model.map_groups[0][2]
        X = np.full((2, 3), 0.5)
        seen, result = _run(lambda out: model.eval_maps(out, X), 2, X, mode)
        assert (seen, result) == _one_by_one(maps, X, mode)
        if mode == "always":
            per_map = 2 * ["overflow encountered in multiply"] + ["invalid value encountered in subtract"]
            assert [message for _, message in seen] == 2 * per_map
        else:
            assert result == (RuntimeWarning, "overflow encountered in multiply")

    def test_a_later_map_failing_first_does_not_speak_for_map_0(self):
        # the template computes each sqrt before any division: map 1's sqrt
        # fails there, but map by map, map 0's division fails first
        maps = [parse(f"0.2 + 0 * sqrt(x{j + 1} - {a}) / (x{j + 1} - {b})", arity=3)
                for j, (a, b) in enumerate([(0, 0.5), (1, 5), (0, 7)])]
        model = _maps_model(maps, 3)
        ((rows, fn, stacked),) = model.map_groups
        assert stacked and rows == slice(0, 3)
        X = np.full((3, 2), 0.5)
        with pytest.raises(funcdsl.EvalDomainError, match="sqrt of negative value"):
            fn(X)
        with pytest.raises(funcdsl.EvalDomainError, match="division by zero"):
            model.eval_maps(np.empty((3, 2)), X)


class TestJsonRoundTrip:
    def test_save_load(self, tmp_path):
        spec = build_preset("kdim", k=2, p=0.5)
        path = tmp_path / "model.json"
        save_model(spec, path)
        loaded = load_model(path)
        assert loaded.s == spec.s and loaded.r == spec.r
        assert np.array_equal(loaded.A, spec.A)
        assert [pm.to_string() for pm in loaded.prob_maps] == [pm.to_string() for pm in spec.prob_maps]
        m1, m2 = validate_model(spec), validate_model(loaded)
        x = np.array([0.2, 0.1, 0.3])
        assert np.array_equal(m1.eval_H(x), m2.eval_H(x))

    def test_dict_roundtrip_infinite_upper(self):
        spec = build_preset("erw", p=0.6)
        doc = spec_to_dict(spec)
        back = spec_from_dict(doc)
        assert spec_to_dict(back) == doc


class TestNoiseMoments:
    def test_scalar_noise_variance_formula(self):
        # sigma^2(x) = H(x) Sigma / mu - H(x)^2 reduces to h(1-h) for unit steps
        model = validate_model(_erw_spec(p=0.6))
        for x in (0.2, 0.5, 0.8):
            h = float(model.eval_H(np.array([x]))[0])
            sigma = model.noise_second_moment(np.array([x]))
            assert sigma.shape == (1, 1)
            assert sigma[0, 0] == pytest.approx(h * (1 - h), abs=1e-14)

    def test_sigma0_blockwise_kdim(self):
        model = validate_model(build_preset("kdim", k=2, p=0.5))
        x0 = np.array([0.25, 0.25, 0.25])
        sigma0 = model.noise_second_moment(x0)
        expected = np.diag([0.25] * 3) - np.outer(x0, x0)
        assert np.allclose(sigma0, expected, atol=1e-12)

    @pytest.mark.parametrize("name,kwargs", [("erw", dict(p=0.7)), ("random-step", dict(p=0.6)),
                                             ("kdim", dict(k=2, p=0.6)), ("kdim", dict(k=3, f="x^2", p=0.7))],
                             ids=["erw-s1", "random-step-s3", "kdim2-s3", "kdim3-s5"])
    def test_batches_give_the_bits_of_single_points(self, name, kwargs, monkeypatch):
        # (n, s), (1, s) and (2, 3, s) batches give (..., s, s), each point's
        # matrix as the per-point call gives it, and that matrix is the
        # block-by-block sum of P_i(x) times E[Y Y^T] on block i's square
        model = validate_model(build_preset(name, **kwargs))
        _grid_shape(monkeypatch, 7)
        points = validation_grid(model.spec)[0][-6:]
        s = model.s
        for fn in (model.sigma_blocks, model.noise_second_moment):
            single = [fn(x) for x in points]
            assert all(m.shape == (s, s) for m in single)
            assert fn(points).tobytes() == np.stack(single).tobytes()
            assert fn(points[:1]).tobytes() == single[0][None].tobytes()
            assert fn(points.reshape(2, 3, s)).tobytes() == np.stack(single).reshape(2, 3, s, s).tobytes()
        for x in points:
            probs, loop = model.block_probs(x), np.zeros((s, s))
            for i in range(model.r):
                mask = model.block_masks[i].astype(bool)
                block = np.zeros((s, s))
                block[np.ix_(mask, mask)] = model.sigma[np.ix_(mask, mask)]
                loop += float(probs[i]) * block
            assert model.sigma_blocks(x).tobytes() == loop.tobytes()
            H = model.eval_H(x)
            assert model.noise_second_moment(x).tobytes() == (loop - np.outer(H, H)).tobytes()


GRID_PRESETS = [(name, {}) for name, _, _ in list_presets()] + [
    ("kdim", dict(k=3, p=0.6)),
    ("kdim", dict(k=2, f="x^2", p=0.7)),
    ("random-step", dict(f="x^2", p=0.7)),
]


class TestValidationGrid:
    """The grid built row by row within the cap equals the whole meshgrid
    product filtered afterwards (``tests/theory_reference.py``), bit for bit."""

    @staticmethod
    def _assert_same(monkeypatch, spec, density, clip):
        _grid_shape(monkeypatch, density, clip)
        grid, interior = validation_grid(spec)
        ref_grid, ref_interior = reference_validation_grid(spec, density, clip)
        assert grid.shape == ref_grid.shape and grid.flags.c_contiguous
        assert grid.tobytes() == ref_grid.tobytes()
        assert np.array_equal(interior, ref_interior)
        inner, axes = interior_grid(spec)
        assert inner.tobytes() == ref_grid[ref_interior].tobytes()
        assert len(axes) == spec.domain.s
        return grid

    @pytest.mark.parametrize("name,kwargs", GRID_PRESETS,
                             ids=[f"{n}-{'-'.join(map(str, k.values()))}" for n, k in GRID_PRESETS])
    @pytest.mark.parametrize("density,clip", [(201, 1.0), (21, 1.0), (2, 0.5)])
    def test_presets(self, name, kwargs, density, clip, monkeypatch):
        self._assert_same(monkeypatch, build_preset(name, **kwargs), density, clip)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_random_domains(self, s, monkeypatch):
        rng = np.random.default_rng(100 + s)
        for trial in range(4):
            lower = rng.choice([0.0, 0.0, 0.3], size=s) * rng.random(s)
            upper = lower + rng.choice([0.2, 1.0, 3.0, math.inf], size=s)
            domain = Domain(lower, upper)
            # 201 per axis exceeds the 1e5-point cap for s >= 3
            for density in (201, 7):
                probe = self._assert_same(monkeypatch, SimpleNamespace(domain=domain, meta={}), density, 0.7)
                # caps at a row's own sum, between sums, at 0 and below every row
                row_sum = float(probe[rng.integers(len(probe))].sum())
                for cap in (row_sum, row_sum - 1e-12, 0.37 * s, 0.0, -1.0):
                    self._assert_same(monkeypatch, SimpleNamespace(domain=domain, meta={"simplex_cap": cap}), density,
                                      0.7)

    def test_caps_at_every_row_sum(self, monkeypatch):
        # the threshold cap + 1e-12 lands on, or an ulp beside, a row's sum
        domain = Domain([0.0] * 3, [0.4, 0.3, 1.0])
        _grid_shape(monkeypatch, 6)
        for total in np.unique(_grid_product(domain.axes(), None).sum(axis=1)):
            for cap in (float(total), float(total) - 1e-12):
                self._assert_same(monkeypatch, SimpleNamespace(domain=domain, meta={"simplex_cap": cap}), 6, 1.0)


class TestDomainCheck:
    """``eval_H`` names the lowest coordinate outside the rectangle."""

    def test_lowest_failing_coordinate_is_named(self):
        model = validate_model(build_preset("kdim", k=3, p=0.6))  # s = 5 on [0, 1]^5
        ok = np.full(model.s, 0.1)
        cases = [
            ({1: 1.5, 3: -0.5}, 2),
            ({3: -0.5, 4: 1.5}, 4),
            ({4: 2.0, 2: np.nan}, 3),
            ({0: np.nan, 1: np.nan}, 1),
            ({2: 1.0 + 2e-9, 4: np.nan}, 3),
        ]
        for bad, named in cases:
            pts = np.tile(ok, (4, 1))
            for j, value in bad.items():
                pts[(j + 1) % 4, j] = value  # each failure in a different row
            for batch in (pts, pts.reshape(2, 2, model.s)):
                with pytest.raises(DomainViolation, match=f"^coordinate {named} outside"):
                    model.eval_H(batch)

    def test_tolerance_and_empty_batches_pass(self):
        model = validate_model(build_preset("kdim", k=3, p=0.6))
        edge = np.array([[1.0 + 1e-9, 0.0, 0.0, 0.0, 0.0], [0.0, -1e-9, 0.0, 0.0, 0.0]])
        assert model.eval_H(edge).shape == (2, model.s)
        for shape in ((0, model.s), (2, 0, model.s)):
            assert model.eval_H(np.empty(shape)).shape == shape
