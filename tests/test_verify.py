import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest

from erwlab import build_preset, classify, ensemble, validate_model
from erwlab.oracle import exact_dp_1d
from erwlab.simulate import FunctionalConfig
from erwlab.verify import (
    VerifyError,
    expansion_residual_test,
    fluctuation_test,
    lil_envelope_test,
    recurrence_report,
    slln_test,
    supercritical_limit_test,
)


def _model(name, **kwargs):
    return validate_model(build_preset(name, **kwargs))


@dataclass
class ExactStats:
    """Adapter feeding an exact small-n law through the same checks."""

    checkpoints: list
    means: list  # per checkpoint, d-vector
    covs: list  # per checkpoint, d x d
    N: int = 10 ** 12  # exact law: sampling error treated as nil
    snn: Optional[np.ndarray] = None
    d: int = 1

    def mean(self, j):
        return np.asarray(self.means[j], dtype=float)

    def cov(self, j):
        return np.atleast_2d(np.asarray(self.covs[j], dtype=float))

    def se(self, j):
        return np.zeros_like(self.mean(j))

    def scaled_cov(self, j):
        return self.checkpoints[j] * self.cov(j)


def _run(model, n, N, seed, **cfg_kwargs):
    report = classify(model)
    cfg = FunctionalConfig(center=np.asarray(report.limit, dtype=float), **cfg_kwargs)
    stats = ensemble(model, n, N, seed, functional_config=cfg)
    return report, stats


class TestSLLN:
    def test_symmetric_walk_converges_to_zero(self):
        model = _model("erw", p=0.6, q=0.5)
        report, stats = _run(model, 10_000, 400, 3)
        rep = slln_test(stats, report.limit, clt_cov=report.clt_variance)
        assert rep.passed
        assert abs(rep.statistic[0]) <= rep.tolerance[0]

    def test_drifting_map_limit(self):
        model = _model("linear", a=0.0, b=0.7, p=0.6, q=0.5)
        report, stats = _run(model, 10_000, 400, 5)
        rep = slln_test(stats, report.limit, clt_cov=report.clt_variance)
        assert rep.passed
        assert report.limit[0] == pytest.approx(0.08)

    def test_minimal_square_limit(self):
        model = _model("minimal", f="x^2", p=0.9, q=0.3)
        report, stats = _run(model, 20_000, 400, 7)
        rep = slln_test(stats, report.limit, clt_cov=report.clt_variance)
        assert rep.passed

    def test_report_recomputable(self):
        model = _model("erw", p=0.6, q=0.5)
        report, stats = _run(model, 2000, 100, 9)
        rep = slln_test(stats, report.limit, clt_cov=report.clt_variance)
        gap = np.abs(np.asarray(rep.statistic) - np.asarray(rep.predicted))
        assert rep.passed == bool(np.all(gap <= np.asarray(rep.tolerance)))


class TestFluctuation:
    def test_diffusive_variance_and_normality(self):
        model = _model("erw", p=0.6, q=0.5)
        report, stats = _run(model, 4000, 6000, 11)
        rep = fluctuation_test(stats, report, rel_tol=0.08)
        assert rep.passed
        assert rep.details["ks_pvalue"] >= 0.01

    def test_wrong_regime_raises(self):
        model = _model("erw", p=0.85, q=0.5)
        report, stats = _run(model, 256, 16, 1)
        with pytest.raises(VerifyError, match="wrong-regime"):
            fluctuation_test(stats, report)

    def test_exact_law_statistic_matches_dp(self):
        # feeding the exact law reproduces the DP variance exactly
        model = _model("erw", p=0.6, q=0.5)
        report = classify(model)
        n = 12
        law = exact_dp_1d(model, n)
        mean, var = law.moments_observed()
        stats = ExactStats(checkpoints=[n], means=[[mean / n]], covs=[[[var / n ** 2]]], d=1)
        rep = fluctuation_test(stats, report, rel_tol=10.0, ks=False)
        assert rep.statistic == pytest.approx(var / n, rel=1e-12)

    @pytest.mark.parametrize("name,kwargs", [("erw", {"p": 0.6, "q": 0.5}), ("kdim", {"k": 2, "p": 0.5})],
                             ids=["d1", "d2"])
    def test_zero_predicted_variance_raises(self, name, kwargs):
        # the relative gap divides by the predicted variance (d = 1) or its norm
        report, stats = _run(_model(name, **kwargs), 256, 16, 1)
        d = report.clt_variance.shape[0]
        degenerate = replace(report, clt_variance=np.zeros((d, d)))
        with pytest.raises(VerifyError, match="zero-clt-variance"):
            fluctuation_test(stats, degenerate)

    def test_small_sample_skips_ks(self):
        model = _model("erw", p=0.6, q=0.5)
        report, stats = _run(model, 1000, 200, 13)
        rep = fluctuation_test(stats, report, rel_tol=0.5)
        assert any("KS" in note for note in rep.notes)


class TestLILEnvelope:
    def test_simple_walk_envelope(self):
        model = _model("erw", p=0.5, q=0.5)
        report, stats = _run(
            model, 20_000, 400, 15, lil_mode="diffusive", lil_window=(1000, None)
        )
        rep = lil_envelope_test(stats, report)
        assert rep.passed
        assert 0.3 <= rep.details["median_ratio"] <= 1.8

    def test_degenerate_trajectory_flagged(self):
        model = _model("erw", p=0.5, q=0.5)
        report, stats = _run(model, 2000, 50, 17, lil_mode="diffusive", lil_window=(1000, None))
        stats.lil_max[0] = 0.0  # inject a constant-path degenerate
        rep = lil_envelope_test(stats, report)
        assert not rep.passed
        assert any("degenerate" in note for note in rep.notes)

    def test_missing_functional_raises(self):
        model = _model("erw", p=0.5, q=0.5)
        report, stats = _run(model, 500, 20, 19)
        with pytest.raises(VerifyError):
            lil_envelope_test(stats, report)


class TestSupercritical:
    def test_rescaled_deviation_settles(self):
        model = _model("erw", p=0.85, q=0.5)
        report, stats = _run(model, 20_000, 500, 21)
        rep = supercritical_limit_test(stats, report)
        assert rep.passed
        assert rep.statistic <= 0.15
        # the earlier checkpoint is the one nearest n_max / 10
        want = min(stats.checkpoints, key=lambda n: abs(n - stats.checkpoints[-1] / 10))
        assert rep.details["n_lo"] == want

    def test_exponent_value(self):
        report = classify(_model("erw", p=0.85, q=0.5))
        assert 1.0 - report.tau == pytest.approx(2 * (1 - 0.85), abs=1e-12)

    def test_center_stability_under_doubling(self):
        # doubling the horizon moves the center of D(n) by less than
        # 2 IQR / sqrt(N)
        model = _model("erw", p=0.85, q=0.5)
        report, stats = _run(model, 40_000, 500, 23)
        j2 = stats.checkpoints.index(40_000)
        j1 = stats.checkpoints.index(20_000)
        center = np.asarray(report.limit)
        d2 = stats.scaled_deviation(j2, report.tau, center)[:, 0]
        d1 = stats.scaled_deviation(j1, report.tau, center)[:, 0]
        iqr = np.subtract(*np.percentile(d2, [75, 25]))
        assert abs(np.median(d2) - np.median(d1)) <= 2 * iqr / math.sqrt(500)

    def test_degenerate_deviation_is_zero(self):
        model = _model("erw", p=0.85, q=0.5)
        report, stats = _run(model, 1000, 50, 25)
        j = stats.checkpoints.index(1000)
        stats.snn[:, :, 0] = float(report.limit[0])  # force S_n/n == limit
        d = stats.scaled_deviation(j, report.tau, np.asarray(report.limit))
        assert np.all(d == 0.0)

    def test_wrong_regime(self):
        model = _model("erw", p=0.6, q=0.5)
        report, stats = _run(model, 500, 20, 27)
        with pytest.raises(VerifyError, match="wrong-regime"):
            supercritical_limit_test(stats, report)

    def test_complex_top_eigenvalue_refused(self):
        # rotation-like drift Jacobian: the rescaled limit oscillates and is
        # reported symbolically only, never estimated
        from erwlab.theory import RegimeReport, spectral_profile_from_jacobian

        model = _model("erw", p=0.85, q=0.5)
        _, stats = _run(model, 500, 20, 28)
        profile = spectral_profile_from_jacobian([[0.6, -0.3], [0.3, 0.6]])
        synthetic = RegimeReport(
            x0=np.zeros(2), limit=np.zeros(2), regime="Supercritical",
            tau=profile.tau, kappa=profile.kappa, profile=profile,
        )
        with pytest.raises(VerifyError, match="complex-top-eigenvalue"):
            supercritical_limit_test(stats, synthetic)


class TestExpansionResidual:
    def test_affine_map_residual_equals_full(self):
        # with all higher coefficients zero the j=0 term is the whole
        # expansion: the residual test reduces to the plain CLT of the error
        model = _model("erw", p=0.85, q=0.5)
        report, stats = _run(model, 2 ** 17, 600, 29)
        rep = expansion_residual_test(stats, report, eval_ratio=2.0 ** -12, tolerance=0.3)
        assert rep.details["terms_subtracted"] == 1
        assert rep.passed

    def test_order_check_branch(self):
        # request fewer terms than m0 to exercise the slope branch
        model = _model("minimal", f="x^2", p=0.98, q=0.49)
        report = classify(model)
        assert report.regime == "Supercritical" and report.m0 >= 1
        cfg = FunctionalConfig(center=np.asarray(report.limit, dtype=float))
        stats = ensemble(model, 2 ** 15, 300, 31, functional_config=cfg)
        rep = expansion_residual_test(stats, report, m=0)
        assert rep.mode.startswith("one-sided slope")
        assert rep.passed
        assert rep.tolerance == 0.1
        assert rep.predicted == -(1.0 - report.tau) * (0 + 1)


class TestRecurrence:
    def test_zero_limit_keeps_returning(self):
        model = _model("erw", p=0.6, q=0.9)
        report, stats = _run(model, 10_000, 300, 33, track_returns=True)
        assert abs(report.limit[0]) < 1e-12
        rep = recurrence_report(stats, report)
        assert rep.passed
        assert rep.mode.startswith("recurrent")
        assert rep.predicted == 1.2
        assert rep.details["N0"] == 10_000 // 2

    def test_simple_walk_recurrent(self):
        model = _model("erw", p=0.5, q=0.5)
        report, stats = _run(model, 10_000, 300, 35, track_returns=True)
        rep = recurrence_report(stats, report)
        assert rep.passed

    def test_drift_kills_returns(self):
        model = _model("linear", a=0.0, b=0.7, p=0.6, q=0.5)
        report, stats = _run(model, 10_000, 300, 37, track_returns=True)
        rep = recurrence_report(stats, report)
        assert rep.passed
        assert rep.mode.startswith("transient")
        assert rep.details["N0"] == 10_000 // 2

    def test_conjecture_region_descriptive(self):
        model = _model("erw", p=0.85, q=0.5)
        report, stats = _run(model, 5000, 100, 39, track_returns=True)
        rep = recurrence_report(stats, report)
        assert any("conjecture-region" in n for n in rep.notes)

    def test_missing_functional(self):
        model = _model("erw", p=0.5, q=0.5)
        report, stats = _run(model, 500, 20, 41)
        with pytest.raises(VerifyError, match="non-lattice-model"):
            recurrence_report(stats, report)
