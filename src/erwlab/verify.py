"""Statistical verification of the limit theorems against ensembles.

Each check yields a self-contained :class:`VerificationReport`: statistic,
predicted value, tolerance, and the comparison rule, so pass/fail can be
recomputed from the stored numbers alone. Quantitative tolerances follow
the regime (critical-regime covariances converge only at logarithmic rate);
envelope and recurrence checks are property-style by construction and say
so in their notes.

The expansion-residual test computes its statistics with the residual core
in :mod:`erwlab.sa`, since the walk reduces to that scalar recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import ModelError
from .sa import residual_order_slope, residual_variance
from .simulate import EnsembleStats, nearest_checkpoint
from .theory import RegimeReport, _complex_top, report_dict


class VerifyError(ModelError):
    pass


@dataclass
class VerificationReport:
    theorem: str
    statistic: object
    predicted: object
    tolerance: object
    passed: bool
    mode: str  # how statistic/predicted/tolerance combine
    sample_size: int = 0
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return report_dict(self)


def slln_test(stats, predicted, clt_cov, z: float = 3.0) -> VerificationReport:
    """Mean of S_n/n at the final checkpoint against the predicted limit.

    Componentwise pass when |mean - predicted| <= z * SE + c/sqrt(n), with c
    the per-component fluctuation scale (drift allowance for the finite-n
    bias of the mean): from the predicted CLT covariance ``clt_cov``, or
    from the ensemble's scaled covariance where it is None.
    """
    j = len(stats.checkpoints) - 1
    n = stats.checkpoints[j]
    predicted = np.atleast_1d(np.asarray(predicted, dtype=float))
    mean = stats.mean(j)
    se = stats.se(j)
    if clt_cov is not None:
        c = np.sqrt(np.clip(np.diag(np.atleast_2d(clt_cov)), 0.0, None))
    else:
        c = np.sqrt(np.clip(np.diag(stats.scaled_cov(j)), 0.0, None))
    allowance = z * se + c / math.sqrt(n)
    gap = np.abs(mean - predicted)
    return VerificationReport(
        theorem="SLLN",
        statistic=mean,
        predicted=predicted,
        tolerance=allowance,
        passed=bool(np.all(gap <= allowance)),
        mode="componentwise |statistic - predicted| <= tolerance",
        sample_size=stats.N,
        details={"n": n, "gap": gap, "z": z},
    )


def fluctuation_test(stats, report: RegimeReport, alpha: float = 0.01,
                     rel_tol: Optional[float] = None, ks: bool = True) -> VerificationReport:
    """Scaled-deviation covariance against the predicted CLT covariance.

    Diffusive scaling sqrt(n); critical scaling sqrt(n)/(log n)^(kappa-1/2).
    Scalar comparisons are relative; matrix comparisons Frobenius-relative.
    For d = 1 a Kolmogorov-Smirnov normality check of the standardized
    values runs alongside (needs N >= 5000 to have power).
    """
    if report.regime not in ("Diffusive", "Critical"):
        raise VerifyError(f"wrong-regime: fluctuation test needs Diffusive or Critical, got {report.regime}")
    if report.clt_variance is None:
        raise VerifyError("report carries no CLT covariance")
    if rel_tol is None:
        rel_tol = 0.05 if report.regime == "Diffusive" else 0.12
    j = len(stats.checkpoints) - 1
    n = stats.checkpoints[j]
    log_factor = 1.0
    if report.regime == "Critical":
        log_factor = math.log(n) ** (2 * report.kappa - 1)
    emp = stats.scaled_cov(j) / log_factor
    pred = np.atleast_2d(np.asarray(report.clt_variance, dtype=float))
    if not np.any(pred):
        raise VerifyError("zero-clt-variance: the predicted CLT covariance is zero, so no relative gap exists")
    d = pred.shape[0]
    if d == 1:
        gap = abs(float(emp[0, 0]) - float(pred[0, 0])) / abs(float(pred[0, 0]))
    else:
        gap = float(np.linalg.norm(emp - pred) / np.linalg.norm(pred))
    passed = gap <= rel_tol
    notes = []
    details = {
        "n": n,
        "empirical": emp,
        "relative_gap": gap,
        "scaling": "sqrt(n)" if report.regime == "Diffusive" else f"sqrt(n)/(log n)^{report.kappa - 0.5}",
    }
    ks_p = None
    if ks and d == 1:
        N = stats.snn.shape[0]
        if N < 5000:
            notes.append("KS normality skipped: needs N >= 5000")
        else:
            dev = stats.snn[:, j, 0] - float(np.asarray(report.limit).reshape(-1)[0])
            scale = math.sqrt(n / log_factor)
            zvals = dev * scale / math.sqrt(float(pred[0, 0]))
            from scipy import stats as spstats  # loads in ~0.6 s; only this branch needs it

            ks_stat, ks_p = spstats.kstest(zvals, "norm")
            details["ks_statistic"] = float(ks_stat)
            details["ks_pvalue"] = float(ks_p)
            passed = passed and ks_p >= alpha
    return VerificationReport(
        theorem="CLT",
        statistic=float(emp[0, 0]) if d == 1 else emp,
        predicted=float(pred[0, 0]) if d == 1 else pred,
        tolerance=rel_tol if ks_p is None else {"relative": rel_tol, "ks_alpha": alpha},
        passed=bool(passed),
        mode="relative covariance gap (and KS p-value >= alpha when run)",
        sample_size=stats.N,
        notes=notes,
        details=details,
    )


def lil_envelope_test(stats: EnsembleStats, report: RegimeReport,
                      band=(0.3, 1.8), min_fraction: float = 0.9) -> VerificationReport:
    """Envelope diagnostic of the iterated-logarithm normalization.

    Property-based by design: the limsup is not observable at finite n, so
    the check asks that the running maxima of the normalized deviation land
    in a generous band around the predicted constant for most trajectories.
    """
    if stats.lil_max is None:
        raise VerifyError("ensemble was run without the envelope functional")
    if report.lil_constant is None or report.lil_constant <= 0:
        raise VerifyError("wrong-regime: no iterated-logarithm constant for this regime")
    ratios = stats.lil_max / report.lil_constant
    degenerate = int(np.sum(stats.lil_max == 0.0))
    inside = np.mean((ratios >= band[0]) & (ratios <= band[1]))
    return VerificationReport(
        theorem="LIL-envelope",
        statistic=float(inside),
        predicted=min_fraction,
        tolerance=0.0,
        passed=bool(inside >= min_fraction and degenerate == 0),
        mode="fraction in band >= predicted (one-sided); property-based diagnostic",
        sample_size=stats.N,
        notes=["envelope band diagnostic, not a quantitative limit reproduction"]
        + ([f"{degenerate} degenerate zero-deviation trajectories flagged"] if degenerate else []),
        details={"band": list(band), "median_ratio": float(np.median(ratios)), "degenerate": degenerate},
    )


def supercritical_limit_test(stats, report: RegimeReport, threshold: float = 0.15) -> VerificationReport:
    """Per-trajectory stabilization of the rescaled deviation.

    D(n) = n^(1-tau) (S_n/n - limit) must become a per-trajectory constant;
    the check compares D at the final checkpoint with D one decade earlier:
    median |D(n_max) - D(n_max/10)| / IQR(D(n_max)) <= threshold. Also
    returns the sample of terminal values (descriptive: the law of the
    limit variable is an open question).
    """
    if report.regime != "Supercritical":
        raise VerifyError(f"wrong-regime: got {report.regime}")
    if _complex_top(report.profile.clusters):
        raise VerifyError("complex-top-eigenvalue: oscillatory limits are reported symbolically only")
    if report.kappa != 1:
        raise VerifyError("defective top eigenvalue: per-trajectory limit check needs kappa = 1")
    n_max = stats.checkpoints[-1]
    n_lo, j_lo = nearest_checkpoint(stats.checkpoints, n_max / 10.0)
    center = np.asarray(report.limit, dtype=float)
    D_hi = stats.scaled_deviation(-1, report.tau, center)[:, 0]
    D_lo = stats.scaled_deviation(j_lo, report.tau, center)[:, 0]
    iqr = float(np.subtract(*np.percentile(D_hi, [75, 25])))
    med = float(np.median(np.abs(D_hi - D_lo)))
    stat = med / iqr if iqr > 0 else math.inf
    return VerificationReport(
        theorem="SupercriticalLimit",
        statistic=stat,
        predicted=0.0,
        tolerance=threshold,
        passed=bool(stat <= threshold),
        mode="one-sided: statistic <= tolerance",
        sample_size=stats.N,
        details={
            "n_hi": n_max,
            "n_lo": n_lo,
            "median_abs_change": med,
            "iqr": iqr,
            "L_estimates_quantiles": {
                q: float(np.percentile(D_hi, q)) for q in (5, 25, 50, 75, 95)
            },
        },
    )


def _invert_expansion(dev, n, exponent, coeffs):
    """Estimate the limit scale from the final checkpoint by inverting
    dev = sum_j c_j (u)^j, u = L / n^exponent (Newton, final value only).

    The per-path ``sa.estimate_terminal_scale`` has another step guard and
    stopping rule and differs in the last bit on some trajectories: merging
    the two would change verdict bytes.
    """
    u = np.asarray(dev, dtype=float).copy()
    if len(coeffs) > 1:
        for _ in range(60):
            f = -np.asarray(dev, dtype=float)
            fp = np.zeros_like(u)
            for j, c in enumerate(coeffs, start=1):
                f += c * u ** j
                fp += j * c * u ** (j - 1)
            step = np.where(np.abs(fp) > 1e-14, f / np.maximum(np.abs(fp), 1e-14) * np.sign(fp), 0.0)
            u = u - step
            if np.max(np.abs(step)) <= 1e-15:
                break
    return u * n ** exponent


def expansion_residual_test(stats, report: RegimeReport, m: Optional[int] = None,
                            eval_ratio: float = 2.0 ** -10, tolerance: float = 0.15) -> VerificationReport:
    """Residual checks of the superdiffusive expansion (1-d observed walk).

    The limit scale is estimated per trajectory from the final checkpoint;
    the residual after subtracting the expansion terms j <= min(m, m0) is
    evaluated at an earlier checkpoint. With m >= m0 the scaled residual
    variance is compared to the predicted value (the tolerance absorbs the
    estimator noise); with m < m0 only the almost-sure order is checked by
    a slope regression over the top decade, with a slack of 0.1 on the
    predicted slope.
    """
    if report.regime != "Supercritical":
        raise VerifyError(f"wrong-regime: got {report.regime}")
    if report.expansion_beta is None:
        raise VerifyError("missing-L-estimates: no expansion coefficients in the report")
    eta = report.tau
    beta = [float(b) for b in report.expansion_beta]
    avail_m = len(beta) - 1
    if m is None:
        m = avail_m
    if m > avail_m:
        raise VerifyError(f"report carries coefficients up to m={avail_m}, requested {m}")
    m0 = report.m0 if report.m0 is not None else 0
    center = float(np.asarray(report.limit).reshape(-1)[0])
    n_max = stats.checkpoints[-1]
    values = stats.snn[:, :, 0]
    exponent = 1.0 - eta
    L_hat = _invert_expansion(values[:, -1] - center, n_max, exponent, beta)

    n_sub = min(m, m0)
    if m >= m0:
        stat, n_e = residual_variance(values, center, stats.checkpoints, n_max, eval_ratio, L_hat, exponent,
                                      beta[: n_sub + 1])
        predicted = report.residual_variance
        rho2 = (n_e / n_max) ** (2.0 * eta - 1.0)
        passed = abs(stat - predicted) <= tolerance * predicted
        return VerificationReport(
            theorem="ExpansionResidual",
            statistic=stat,
            predicted=predicted,
            tolerance=tolerance,
            passed=bool(passed),
            mode="relative: |statistic - predicted| <= tolerance * predicted",
            sample_size=stats.N,
            notes=["limit scale estimated from the final checkpoint; tolerance absorbs estimator noise"],
            details={
                "n_eval": int(n_e),
                "m": m,
                "m0": m0,
                "terms_subtracted": n_sub + 1,
                "estimator_attenuation": 1.0 - rho2,
            },
        )

    # m < m0: almost-sure order check by slope regression
    slope, points = residual_order_slope(values, center, stats.checkpoints, n_max, L_hat, exponent, beta[: m + 1])
    if slope is None:
        raise VerifyError("not enough checkpoints in the top decade for the slope fit")
    target = -(1.0 - eta) * (m + 1) + 0.1
    return VerificationReport(
        theorem="ExpansionResidual",
        statistic=slope,
        predicted=-(1.0 - eta) * (m + 1),
        tolerance=0.1,
        passed=bool(slope <= target),
        mode="one-sided slope: statistic <= predicted + tolerance",
        sample_size=stats.N,
        details={"m": m, "m0": m0, "points": points},
    )


def recurrence_report(stats: EnsembleStats, report: RegimeReport) -> VerificationReport:
    """Qualitative return-to-origin behavior for d = 1 lattice models.

    Nonzero limit: returns must stop (no return after N0 = n_max // 2 in at
    least 99% of trajectories). Zero limit in the diffusive or critical
    regime: returns must keep occurring, tested through the return-count
    growth over the last decade, by a factor of at least 1.2 (a fixed
    after-time fraction cannot serve here: the arcsine law caps the chance
    of a return in the last decade near 80% even for the memoryless walk).
    The supercritical zero-limit case is outside the
    proven results and is reported descriptively only.
    """
    if stats.return_counts is None:
        raise VerifyError("non-lattice-model: ensemble was run without return tracking")
    n_max = stats.checkpoints[-1]
    N0 = n_max // 2
    s0 = float(np.asarray(report.limit).reshape(-1)[0])
    counts = stats.return_counts
    last = stats.last_return
    _, j_decade = nearest_checkpoint(stats.checkpoints, n_max / 10)
    mean_early = float(stats.returns_at[:, j_decade].mean())
    details = {
        "N0": int(N0),
        "mean_returns": float(counts.mean()),
        "mean_returns_decade_earlier": mean_early,
        "fraction_return_after_tenth": float(np.mean(last >= n_max / 10)),
        "return_count_quantiles": {q: float(np.percentile(counts, q)) for q in (5, 50, 95)},
        "last_return_quantiles": {q: float(np.percentile(last, q)) for q in (5, 50, 95)},
    }
    notes = ["qualitative: recurrence is an almost-sure tail event, not desk-provable"]
    if abs(s0) > 1e-12:
        frac = float(np.mean(last < N0))
        passed = frac >= 0.99
        mode = "transient: fraction with no return after N0 >= 0.99"
        stat = frac
        predicted = 0.99
    elif report.regime in ("Diffusive", "Critical"):
        if mean_early <= 0:
            raise VerifyError("return counts at the earlier decade unavailable")
        stat = float(counts.mean()) / mean_early
        predicted = 1.2
        passed = stat >= 1.2
        mode = "recurrent: mean return count grows by >= factor over the last decade"
    else:
        notes.append("conjecture-region: descriptive only")
        stat = float(np.mean(last >= n_max / 10))
        predicted = None
        passed = True
        mode = "descriptive only (open problem region)"
    return VerificationReport(
        theorem="Recurrence",
        statistic=stat,
        predicted=predicted,
        tolerance=0.0,
        passed=bool(passed),
        mode=mode,
        sample_size=stats.N,
        notes=notes,
        details=details,
    )
