import json
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from erwlab import build_preset, ensemble, funcdsl, validate_model
from erwlab.funcdsl import EvalDomainError, parse
from erwlab.model import ModelError
from erwlab import sa as sa_mod
from erwlab.sa import (
    NoiseSpec,
    SAError,
    SAProcess,
    estimate_terminal_scale,
    noise_moment_check,
    run_sa,
    sa_clt_variance_check,
    sa_coeffs,
    sa_expansion_check,
    walk_theta0,
)
from erwlab.theory import expansion_coeffs, find_fixed_point, spectral_profile
from sa_reference import noise_moment_check_reference, run_sa_reference, sa_order_check
from walk_replay import trajectory_seed


def _model(name, **kwargs):
    return validate_model(build_preset(name, **kwargs))


class TestProcess:
    def test_theta0_must_be_root(self):
        with pytest.raises(SAError):
            SAProcess(drift=parse("x + 1"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0))

    def test_slope_must_be_positive(self):
        with pytest.raises(SAError):
            SAProcess(drift=parse("0 - x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0))

    def test_noise_spec_parsing(self):
        spec = NoiseSpec.parse("gaussian:0.5")
        assert spec.kind == "gaussian" and spec.s2 == 0.25
        with pytest.raises(SAError):
            NoiseSpec.parse("cauchy:1.0")

    @pytest.mark.parametrize("text", ["gaussian:1e200", "rademacher:1e308", "gaussian:nan", "gaussian:inf"])
    def test_noise_scale_without_a_finite_square_rejected(self, text):
        with pytest.raises(SAError, match="noise scale"):
            NoiseSpec.parse(text)

    @pytest.mark.parametrize("text,s2", [("gaussian:0", 0.0), ("rademacher:-0.05", 0.05 ** 2), ("gaussian:1e154", 1e308)])
    def test_noise_scale_with_a_finite_square_accepted(self, text, s2):
        assert NoiseSpec.parse(text).s2 == s2


class TestRunner:
    def test_zero_noise_telescopes(self):
        # theta_{n+1} = theta_n (1 - 1/(n+1)) collapses to theta_1 / n
        proc = SAProcess(
            drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 0.0), theta1=1.0, drift_derivs=[1.0]
        )
        paths = run_sa(proc, 10_000, N=1, master_seed=0)
        for j, n in enumerate(paths.checkpoints):
            assert paths.theta[0, j] == pytest.approx(1.0 / n, abs=1e-14)

    def test_deterministic_per_seed(self):
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        a = run_sa(proc, 500, N=8, master_seed=4)
        b = run_sa(proc, 500, N=8, master_seed=4)
        assert np.array_equal(a.theta, b.theta)

    def test_checked_drift_follows_the_recursion(self):
        # division by a non-constant compiles to the checked _div helper; the
        # runner evaluates the drift on the draws of stream (master_seed, 0)
        drift = parse("2 * x / (1 + x ^ 2)")
        assert funcdsl._emit(drift.ast).startswith("_div(")
        proc = SAProcess(drift=drift, theta0=0.0, noise=NoiseSpec("gaussian", 1.0), theta1=0.5)
        paths = run_sa(proc, 300, N=4, master_seed=4, checkpoints=[300])
        eps = np.random.Generator(np.random.Philox(trajectory_seed(4, 0))).standard_normal((299, 4))
        theta = np.full(4, 0.5)
        for n in range(1, 300):
            theta = theta - 1.0 / (n + 1.0) * (drift(theta) + eps[n - 1])
        assert np.array_equal(paths.theta[:, 0], theta)

    @pytest.mark.parametrize("checkpoints", [[50, 200], [0, 50], [-1]])
    def test_checkpoints_outside_horizon_rejected(self, checkpoints):
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        with pytest.raises(ModelError, match="checkpoints"):
            run_sa(proc, 100, N=3, master_seed=0, checkpoints=checkpoints)

    @pytest.mark.parametrize("n_max,N", [(0, 3), (-2, 3), (100, 0), (100, -1)])
    def test_bad_run_size_rejected(self, n_max, N):
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        with pytest.raises(ModelError, match="must be >= 1"):
            run_sa(proc, n_max, N=N, master_seed=0)

    @pytest.mark.parametrize("name,value,error", [
        ("n_max", 100.0, ModelError), ("n_max", True, ModelError), ("N", 3.0, SAError),
        ("N", True, SAError), ("N", np.bool_(True), SAError),
    ])
    def test_non_integer_run_size_rejected(self, name, value, error):
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        args = dict(n_max=100, N=3, master_seed=0) | {name: value}
        with pytest.raises(error, match=f"^{name} must be an integer, got"):
            run_sa(proc, **args)

    @pytest.mark.parametrize("checkpoints", [[2.7], [10, 50.0], [False]])
    def test_non_integer_checkpoint_rejected(self, checkpoints):
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        with pytest.raises(ModelError, match="checkpoints must be integers"):
            run_sa(proc, 100, N=3, master_seed=0, checkpoints=checkpoints)

    def test_numpy_integers_accepted(self):
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        ref = run_sa(proc, 100, N=3, master_seed=4, checkpoints=[10, 50])
        got = run_sa(proc, np.int64(100), N=np.int32(3), master_seed=np.uint8(4), checkpoints=np.array([10, 50]))
        assert got.checkpoints == ref.checkpoints
        assert np.array_equal(got.theta, ref.theta)

    @pytest.mark.parametrize("seed", [-3, 1.5, True])
    def test_bad_master_seed_rejected(self, seed):
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        with pytest.raises(ModelError, match="master_seed"):
            run_sa(proc, 100, N=3, master_seed=seed)

    def test_unit_slope_gaussian_variance(self):
        # Var(sqrt(n) Theta_n) -> s^2 / (2 psi' - 1) = 1
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        paths = run_sa(proc, 10_000, N=5000, master_seed=11)
        j = paths.checkpoints.index(10_000)
        var = float(np.var(math.sqrt(10_000) * paths.theta[:, j], ddof=1))
        assert var == pytest.approx(1.0, rel=0.05)

    def test_slow_regime_scaled_path_cauchy(self):
        # psi' = 0.3 < 1/2: n^0.3 Theta_n settles per path
        proc = SAProcess(drift=parse("0.3*x"), theta0=0.0, noise=NoiseSpec("gaussian", 0.3), drift_derivs=[0.3])
        paths = run_sa(proc, 2 ** 16, N=400, master_seed=3)
        j_hi = paths.checkpoints.index(2 ** 16)
        j_lo = paths.checkpoints.index(2 ** 13)
        d_hi = 2 ** (16 * 0.3) * paths.theta[:, j_hi]
        d_lo = 2 ** (13 * 0.3) * paths.theta[:, j_lo]
        iqr = np.subtract(*np.percentile(d_hi, [75, 25]))
        assert np.median(np.abs(d_hi - d_lo)) / iqr < 0.3

    def test_peak_memory(self):
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        run_sa(proc, 100, N=4, master_seed=0)  # compile the drift outside the trace
        tracemalloc.start()
        try:
            run_sa(proc, 10_000, N=256, master_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two noise buffers and a few (N,) arrays a step; a whole 4M-value
        # chunk of noise and its scaled copy took 20 MB
        assert peak < 4e6

    @pytest.mark.parametrize("drift,noise,n_max,N,error", [
        ("0.3*x + x^2", "gaussian:0.05", 3000, 64, None),
        ("0.3*x + x^2", "gaussian:0.05", 1, 64, None),  # nothing to draw
        ("log(1 + x)", "gaussian:5", 3000, 64, EvalDomainError),  # a path passes x = -1 partway
    ], ids=["returns", "no-step", "raises"])
    def test_noise_worker_joined(self, drift, noise, n_max, N, error):
        proc = SAProcess(drift=parse(drift), theta0=0.0, noise=NoiseSpec.parse(noise))
        before = threading.active_count()
        if error is None:
            run_sa(proc, n_max, N=N, master_seed=1)
        else:
            with pytest.raises(error):
                run_sa(proc, n_max, N=N, master_seed=1)
        assert threading.active_count() == before

    def test_divergence_guard_reports(self, monkeypatch):
        proc = SAProcess(drift=parse("0.3*x + x^2"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[0.3, 2.0])
        monkeypatch.setattr(sa_mod, "_GUARD", 100.0)
        with warnings.catch_warnings():
            # the escaped paths overflow only if they are not frozen
            warnings.simplefilter("error")
            paths = run_sa(proc, 4000, N=400, master_seed=2)
        assert paths.escaped.sum() > 0  # wide noise pushes paths past the unstable root
        assert np.all(np.abs(paths.theta[~paths.escaped, -1]) <= 100.0)


class TestRunnerMatchesReference:
    """``run_sa`` draws its noise into two buffers of about ``_SLICE`` doubles,
    which take turns, and, while no path has escaped, steps each buffer with no freeze into a
    path buffer, replaying it one step at a time with the freeze when some
    value passes the guard, is NaN, or the pass raises. It gives the same
    bits as the reference that applies the freeze on every step and draws
    up to 4M values at a time."""

    @pytest.mark.parametrize("drift,noise,n_max,N,guard,escapes", [
        ("0.3*x + x^2", "gaussian:0.05", 10_000, 256, 1e9, False),
        ("x", "rademacher:1.0", 3_000, 64, 1e9, False),
        ("0.3*x + x^2", "gaussian:3", 10_000, 256, 1e9, True),  # escapes mid-run
        ("x - 1 + exp(x)", "gaussian:2000", 200, 256, 1e9, True),  # exp overflows: paths jump to -inf
        ("x - 1 + exp(x)", "gaussian:2000", 200, 256, np.inf, False),  # no guard: paths reach inf, then NaN
        ("0.3*x + x^2", "gaussian:3", 10_000, 1000, 1e9, True),  # 4000-step noise chunks
        ("x", "rademacher:1.0", 3_000, 3000, 1e9, False),  # 21 steps a buffer: 3000 does not divide 2^16
        ("0.3*x + x^2", "rademacher:2.5", 3_000, 1000, 1e9, True),
        ("x", "rademacher:0.5", 10, 70_000, 1e9, False),  # more paths than the buffer's 2^16: one step
    ])
    def test_bit_identical(self, drift, noise, n_max, N, guard, escapes, monkeypatch):
        proc = SAProcess(drift=parse(drift), theta0=0.0, noise=NoiseSpec.parse(noise))
        checkpoints = [c for c in (1, 2, 3, 50, 3999, 4000, 4001, n_max // 2) if c <= n_max]
        monkeypatch.setattr(sa_mod, "_GUARD", guard)
        with np.errstate(all="ignore"):
            paths = run_sa(proc, n_max, N=N, master_seed=5, checkpoints=checkpoints)
            theta, escaped = run_sa_reference(proc, n_max, N, 5, checkpoints, guard)
        assert paths.theta.tobytes() == theta.tobytes()
        assert np.array_equal(paths.escaped, escaped)
        assert escaped.any() == escapes
        if drift.endswith("exp(x)"):
            assert not np.isfinite(theta[:, -1]).all()
            assert np.isnan(theta[:, -1]).any() == (guard == np.inf)

    @pytest.mark.parametrize("noise", ["gaussian:1", "rademacher:1"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_stream_is_trajectory_zero_of_the_seed(self, noise, seed):
        # run_sa keys Philox with philox_keys(seed, 0, 1)[0]; the reference
        # builds its generator from trajectory 0's SeedSequence
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec.parse(noise))
        paths = run_sa(proc, 1000, N=3, master_seed=seed, checkpoints=range(1, 1001))
        theta, _ = run_sa_reference(proc, 1000, 3, seed, range(1, 1001))
        assert paths.theta.tobytes() == theta.tobytes()

    @pytest.mark.parametrize("drift,noise,theta1,n_max,N,guard,escapes", [
        ("x", "gaussian:1", 150.0, 600, 64, 100.0, False),  # theta1 past the guard, every theta2 within it
        ("x", "gaussian:1", 1000.0, 600, 64, 100.0, True),  # every path escapes on the first step
        ("x", "rademacher:1.0", 0.0, 1000, 256, 1e9, False),  # 256-step buffers, the last one short
        ("0.3*x + x^2", "gaussian:3", 0.0, 1000, 256, 100.0, True),
        # the two noise buffers taking turns
        ("x", "gaussian:1", 0.0, 2, 256, 1e9, False),  # a single one-step buffer
        ("x", "gaussian:1", 1000.0, 2, 256, 100.0, True),
        ("0.3*x + x^2", "rademacher:0.05", -0.3, 257, 256, 100.0, False),  # one full buffer
        ("0.3*x + x^2", "gaussian:0.05", -0.3, 257, 256, 100.0, True),  # the first escape at n = 256
        ("0.3*x + x^2", "rademacher:0.05", -0.3, 514, 256, 100.0, False),  # three buffers, the last of one step
        ("0.3*x + x^2", "gaussian:0.05", -0.29, 514, 256, 100.0, True),  # one escape, at n = 329
    ])
    def test_buffer_edges(self, drift, noise, theta1, n_max, N, guard, escapes, monkeypatch):
        proc = SAProcess(drift=parse(drift), theta0=0.0, noise=NoiseSpec.parse(noise), theta1=theta1)
        rows = min(n_max - 1, sa_mod._SLICE // N)
        # theta after the first and the last step of each buffer
        checkpoints = sorted({1} | {c for b in range(0, n_max - 1, rows) for c in (b + 2, min(b + rows + 1, n_max))})
        monkeypatch.setattr(sa_mod, "_GUARD", guard)
        with np.errstate(all="ignore"):
            paths = run_sa(proc, n_max, N=N, master_seed=3, checkpoints=checkpoints)
            theta, escaped = run_sa_reference(proc, n_max, N, 3, checkpoints, guard)
        assert paths.checkpoints == checkpoints
        assert paths.theta.tobytes() == theta.tobytes()
        assert np.array_equal(paths.escaped, escaped)
        assert escaped.any() == escapes

    def test_domain_error_past_the_guard_is_replayed(self, monkeypatch):
        # the reference evaluates the drift at the frozen, finite values of
        # the escaped paths and never raises; the speculative pass runs them
        # on to -inf, where both branches give NaN and the piecewise raises
        drift = parse("piecewise(x < 0 : 0.3*x + x^2 ; x >= 0 : 0.3*x + x^2)")
        proc = SAProcess(drift=drift, theta0=0.0, noise=NoiseSpec.parse("gaussian:3"))
        fast, raised = drift.fast, []

        def counting(cols):
            try:
                return fast(cols)
            except EvalDomainError:
                raised.append(len(cols[0]))
                raise

        monkeypatch.setitem(drift.__dict__, "fast", counting)
        monkeypatch.setattr(sa_mod, "_GUARD", 100.0)
        with np.errstate(all="ignore"):
            paths = run_sa(proc, 3000, N=256, master_seed=5)
            theta, escaped = run_sa_reference(proc, 3000, 256, 5, None, 100.0)
        assert raised
        assert paths.theta.tobytes() == theta.tobytes()
        assert np.array_equal(paths.escaped, escaped) and escaped.any()

    def test_floating_point_events_reported_as_the_caller_asks(self):
        # exp(-x) overflows at theta1 = -1000 while 1 / (1 + exp(-x)) and
        # every path stay finite and within the guard
        proc = SAProcess(drift=parse("x + 1 / (1 + exp(-x)) - 0.5"), theta0=0.0, noise=NoiseSpec.parse("gaussian:1"),
                         theta1=-1000.0)
        runs = []
        for run in (lambda: run_sa(proc, 300, N=8, master_seed=2).theta,
                    lambda: run_sa_reference(proc, 300, 8, 2)[0]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                theta = run()
            runs.append((theta.tobytes(), [str(w.message) for w in caught]))
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                run()
        assert runs[0] == runs[1]
        assert runs[0][1] == ["overflow encountered in exp"]


class TestReduction:
    def test_drift_slope_and_noise_variance(self):
        model = _model("erw", p=0.6, q=0.5)
        theta0 = walk_theta0(model)
        assert theta0 == pytest.approx(0.5)
        # gamma'(theta0) = 1 - H'(theta0); the noise variance at the root is h(1-h)
        assert 1.0 - spectral_profile(model, np.array([theta0])).tau == pytest.approx(1.0 - 0.2)
        assert model.noise_second_moment(np.array([theta0]))[0, 0] == pytest.approx(0.25)

    def test_theta0_without_a_registered_root(self):
        model = _model("gerw-1d", f="x^2", p=0.6, q=0.5)
        assert "x0" not in model.meta["exact"]
        assert walk_theta0(model) == float(find_fixed_point(model)[0])

    def test_theta0_needs_one_dimension(self):
        with pytest.raises(SAError, match="s = 1"):
            walk_theta0(_model("kdim", k=2, p=0.5))

    def test_recursion_identity_algebraic(self):
        # Gamma_{n+1} = Gamma_n - a_n (gamma(Gamma_n) + e_{n+1}) holds along
        # simulated paths with the noise e_{n+1} = H(Gamma_n) - X_{n+1}
        model = _model("erw", p=0.7, q=0.5)
        from erwlab.simulate import FunctionalConfig

        stats = ensemble(model, 64, 4, 13, checkpoints=list(range(1, 65)),
                         functional_config=FunctionalConfig(collect_noise=True))
        gamma_path = (stats.snn[:, :, 0] + 1.0) / 2.0  # all times 1..64
        for i in range(4):
            for n in range(1, 64):
                g_n = gamma_path[i, n - 1]
                H = float(model.eval_H(np.array([g_n]))[0])
                e_next = H - stats.noise_step[i, n - 1]
                drift = g_n - H
                predicted = g_n - (drift + e_next) / (n + 1)
                assert predicted == pytest.approx(gamma_path[i, n], abs=1e-12)

    @staticmethod
    def _check_with_one_noise_value(monkeypatch, value):
        # the erw walk's noise bound is |mu| + max |Y| = 2; one recorded
        # increment is replaced by one that makes the first noise value e = H - X
        run = sa_mod.ensemble
        model = _model("erw", p=0.6, q=0.5)

        def one_noise_value(*args, **kwargs):
            stats = run(*args, **kwargs)
            H = model.eval_H(stats.noise_x[0, :1, None])[0, 0]
            stats.noise_step[0, 0] = H - value
            assert H - stats.noise_step[0, 0] == value
            return stats

        monkeypatch.setattr(sa_mod, "ensemble", one_noise_value)
        return noise_moment_check(model, n_max=200, N=20, master_seed=5, min_count=10)

    def test_noise_bound(self, monkeypatch):
        with pytest.raises(SAError, match="noise increment exceeded its a priori bound"):
            self._check_with_one_noise_value(monkeypatch, 2.0 + 1e-9)

    def test_noise_at_its_bound_is_accepted(self, monkeypatch):
        rep = self._check_with_one_noise_value(monkeypatch, 2.0)
        assert rep.details["max_abs_noise"] == rep.details["noise_bound"] == 2.0


class TestNoiseMoments:
    def test_standard_memory_model(self):
        model = _model("erw", p=0.6, q=0.5)
        rep = noise_moment_check(model, n_max=3000, N=150, master_seed=5)
        assert rep.passed
        assert rep.details["max_abs_noise"] <= rep.details["noise_bound"]
        assert rep.details["lindeberg_trend_ok"]
        # the final Lindeberg value is exactly zero for bounded steps
        last = max(rep.details["lindeberg"])
        assert rep.details["lindeberg"][last] == 0.0

    @pytest.mark.parametrize("name,params", [
        ("erw", {"p": 0.6, "q": 0.5}),
        ("gerw-1d", {"f": "x^2", "p": 0.6, "q": 0.5}),
        ("cubic-supercritical", {}),
        ("quadratic-sym", {"p": 0.75, "q": 0.5}),
        ("market", {"p": 0.5, "q": 0.5}),
    ])
    @pytest.mark.parametrize("n_max,N,min_count", [
        (701, 97, 500),  # 67,900 samples: a short second slice, and some bins skipped
        (3001, 37, 500),  # Lindeberg groups of 21 rows, the last of 16
        (50, 3, 10),  # fewer samples than one slice
    ])
    def test_matches_whole_array_reference(self, name, params, n_max, N, min_count):
        model = _model(name, **params)
        rep = noise_moment_check(model, n_max=n_max, N=N, master_seed=7, min_count=min_count)
        ref = noise_moment_check_reference(model, n_max, N, 7, min_count)
        assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(ref.to_dict(), sort_keys=True)
        assert 0 < rep.details["bins_used"] < 16

    def test_bins_are_digitize_clipped(self):
        # every edge, a hair to either side of it, and points past both ends
        edges = np.linspace(0.0, 1.0, 17)
        rng = np.random.default_rng(3)
        x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                            [-1.0, -1e-300, 1.0 + 1e-12, 2.0, 1e300], rng.uniform(-0.5, 1.5, 1000)])
        got = np.empty(x.size, dtype=np.uint8)
        sa_mod._bin_into(got, x, edges, np.empty(x.size, dtype=bool))
        want = np.clip(np.digitize(x, edges) - 1, 0, 15)
        assert np.array_equal(got, want)

    def test_insufficient_bins(self):
        model = _model("erw", p=0.6, q=0.5)
        with pytest.raises(SAError, match="insufficient-bin-counts"):
            noise_moment_check(model, n_max=50, N=2, master_seed=5, min_count=10_000)


class TestCoefficients:
    def test_quadratic_drift_b2(self):
        coeffs = sa_coeffs([0.3, 2.0], upto=2)
        assert coeffs[1] == pytest.approx(1.0 / 0.3, rel=1e-12)

    def test_linear_drift_all_vanish(self):
        coeffs = sa_coeffs([0.4], upto=5)
        assert coeffs[0] == 1.0
        assert all(c == 0.0 for c in coeffs[1:])

    def test_cross_check_with_auxiliary_scale(self):
        # gamma = x - H: psi' = 1 - tau, psi^(i) = -H^(i): the coefficient
        # recursions agree exactly
        rng = np.random.default_rng(19)
        for _ in range(50):
            tau = rng.uniform(0.05, 0.95)
            h_derivs = rng.uniform(-2, 2, size=4)
            b_aux, _ = expansion_coeffs(h_derivs, tau, 4)
            psi_derivs = [1.0 - tau] + list(-h_derivs)
            b_sa = sa_coeffs(psi_derivs, upto=5)
            for x, y in zip(b_aux, b_sa):
                assert x == pytest.approx(y, rel=1e-12, abs=1e-12)

    def test_terminal_inversion_consistency(self):
        coeffs = sa_coeffs([0.3, 2.0], upto=6)
        z_true = 0.8
        n, a = 4096, 0.3
        u = z_true / n ** a
        dev = sum(c * u ** j for j, c in enumerate(coeffs, start=1))
        z_hat = estimate_terminal_scale(dev, n, a, coeffs)
        assert z_hat == pytest.approx(z_true, rel=1e-10)


class TestExpansionCheck:
    def test_quadratic_drift_residual_variance(self):
        proc = SAProcess(
            drift=parse("0.3*x + x^2"), theta0=0.0, noise=NoiseSpec("gaussian", 0.05), drift_derivs=[0.3, 2.0]
        )
        paths = run_sa(proc, 2 ** 16, N=800, master_seed=21)
        rep = sa_expansion_check(proc, paths, eval_ratio=2.0 ** -12, converged_band=0.05, tolerance=0.25)
        assert rep.details["k"] == 1
        assert rep.passed

    def test_wrong_regime_rejected(self):
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        paths = run_sa(proc, 256, N=8, master_seed=1)
        with pytest.raises(SAError, match="wrong-derivative-regime"):
            sa_expansion_check(proc, paths)

    def test_clt_variance_needs_two_kept_paths(self):
        # a ddof-1 variance over one path is NaN, which is no verdict
        proc = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
        for N, escaped in ((1, [False]), (3, [True, True, False])):  # the second: all but one escaped
            paths = run_sa(proc, 256, N=N, master_seed=1)
            paths.escaped[:] = escaped
            with pytest.raises(SAError, match="at least 2 paths that did not escape, got 1"):
                sa_clt_variance_check(proc, paths)
        assert np.isfinite(sa_clt_variance_check(proc, run_sa(proc, 256, N=2, master_seed=1)).details["statistic"])

    @pytest.mark.parametrize("drift,check", [("0.3*x", sa_expansion_check), ("0.8*x", sa_clt_variance_check)],
                             ids=["expansion", "clt"])
    def test_paths_that_never_stepped_rejected(self, drift, check):
        # at n = 1 every path is theta1: there is nothing to check
        proc = SAProcess(drift=parse(drift), theta0=0.0, noise=NoiseSpec("gaussian", 1.0))
        with pytest.raises(SAError, match="needs n >= 2: at n = 1 the recursion has not stepped"):
            check(proc, run_sa(proc, 1, N=200, master_seed=1))

    def test_order_check_small_slope(self):
        proc = SAProcess(drift=parse("0.2*x"), theta0=0.0, noise=NoiseSpec("gaussian", 0.2), drift_derivs=[0.2])
        paths = run_sa(proc, 2 ** 15, N=300, master_seed=8)
        rep = sa_order_check(proc, paths, k=2)
        assert rep.passed
