"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not deferred: variance ratios, Cauchy
thresholds, envelope bands, and exact-agreement bounds all carry their
contract values. Seeds are fixed; the statistics are deterministic replays.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from erwlab import build_preset, classify, ensemble, validate_model
from erwlab.funcdsl import parse
from erwlab.oracle import exact_dp_1d, enumerate_small_multi
from erwlab.sa import NoiseSpec, SAProcess, noise_moment_check, run_sa, sa_expansion_check
from erwlab.simulate import FunctionalConfig
from erwlab.theory import (
    expansion_coeffs,
    solve_sigma1,
    spectral_profile_from_jacobian,
)
from erwlab.verify import (
    fluctuation_test,
    lil_envelope_test,
    slln_test,
    supercritical_limit_test,
)
from theory_reference import sigma1_quadrature


def _model(name, **kwargs):
    return validate_model(build_preset(name, **kwargs))


def _line(num, name, passed, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'} {name}: {detail}")
    return passed


def test_01_phase_boundary():
    t0 = time.time()
    sweep = [(0.70, "Diffusive"), (0.7499, "Diffusive"), (0.75, "Critical"),
             (0.7501, "Supercritical"), (0.80, "Supercritical")]
    got = [classify(_model("erw", p=p, q=0.5)).regime for p, _ in sweep]
    want = [r for _, r in sweep]
    elapsed = time.time() - t0
    ok = got == want and elapsed < 1.0
    assert _line(1, "phase boundary", ok, f"{got} in {elapsed:.3f}s")
    assert got == want
    assert elapsed < 1.0


def test_02_diffusive_clt():
    t0 = time.time()
    model = _model("erw", p=0.6, q=0.5)
    report = classify(model)
    stats = ensemble(model, 5000, 20000, 1002)
    check = fluctuation_test(stats, report, alpha=0.01, rel_tol=0.05)
    elapsed = time.time() - t0
    detail = (
        f"Var(sqrt(n) S_n/n) = {float(check.statistic):.4f} vs 5/3 "
        f"(gap {check.details['relative_gap']:.2%}), KS p = {check.details['ks_pvalue']:.3f}, {elapsed:.0f}s"
    )
    assert _line(2, "diffusive CLT", check.passed, detail)
    assert check.details["relative_gap"] <= 0.05
    assert check.details["ks_pvalue"] >= 0.01
    assert elapsed <= 120


def test_03_critical_clt():
    t0 = time.time()
    model = _model("erw", p=0.75, q=0.5)
    report = classify(model)
    stats = ensemble(model, 20000, 20000, 1003)
    # the criterion fixes the variance comparison only (critical-regime
    # normality emerges at logarithmic rate)
    check = fluctuation_test(stats, report, rel_tol=0.12, ks=False)
    elapsed = time.time() - t0
    detail = f"Var(sqrt(n/log n) S_n/n) = {float(check.statistic):.4f} vs 1 (gap {check.details['relative_gap']:.2%}), {elapsed:.0f}s"
    assert _line(3, "critical CLT", check.passed, detail)
    assert check.details["relative_gap"] <= 0.12
    assert elapsed <= 300


def test_04_supercritical_limit():
    model = _model("erw", p=0.85, q=0.5)
    report = classify(model)
    assert 1.0 - report.tau == pytest.approx(2 * (1 - 0.85), abs=1e-12)  # exponent 2(1-p)
    stats = ensemble(model, 100_000, 2000, 1004)
    check = supercritical_limit_test(stats, report, threshold=0.15)
    detail = f"Cauchy statistic {float(check.statistic):.4f} <= 0.15"
    assert _line(4, "supercritical limit", check.passed, detail)
    assert check.statistic <= 0.15


UNIT_STEP_PRESETS = [
    ("erw", dict(p=0.6, q=0.5)),
    ("gerw-1d", dict(f="x^2", p=0.8, q=0.5)),
    ("linear", dict(a=0.0, b=0.7, p=0.6, q=0.5)),
    ("quadratic-sym", dict(p=0.75, q=0.5)),
    ("market", dict(p=0.5, q=0.5)),
    ("minimal", dict(f="x^2", p=0.9, q=0.3)),
    ("poly-g", dict(coeffs=(0.4, 0.2), p=0.7, q=0.5)),
    ("phi-power", dict(phi="tanh", k=2, p=0.7, q=0.5)),
    ("cubic-supercritical", dict(p=0.62, q=0.5)),
]


def test_05_oracle_equivalence():
    t0 = time.time()
    N = 100_000
    n = 12
    worst_exact = 0.0
    worst_z = 0.0
    for name, kwargs in UNIT_STEP_PRESETS:
        model = _model(name, **kwargs)
        law = exact_dp_1d(model, n)
        sparse = enumerate_small_multi(model, n)
        lookup = {int(round(pos[0])): prob for pos, prob in sparse.items()}
        gap = max(abs(float(law.pmf[k]) - lookup.get(k, 0.0)) for k in range(n + 1))
        worst_exact = max(worst_exact, gap)
        stats = ensemble(model, n, N, master_seed=2024, checkpoints=[n])
        counts = np.bincount(np.round(stats.aux_final[:, 0]).astype(int), minlength=n + 1)
        for k in range(n + 1):
            p_exact = float(law.pmf[k])
            if p_exact < 1e-3:
                continue
            se = math.sqrt(p_exact * (1 - p_exact) / N)
            worst_z = max(worst_z, abs(counts[k] / N - p_exact) / se)
    elapsed = time.time() - t0
    ok = worst_exact <= 1e-12 and worst_z <= 4.0 and elapsed < 60
    detail = f"DP-vs-enum gap {worst_exact:.2e}, MC worst z {worst_z:.2f} SE, {elapsed:.0f}s"
    assert _line(5, "oracle equivalence", ok, detail)
    assert worst_exact <= 1e-12
    assert worst_z <= 4.0
    assert elapsed < 60


def test_06_coefficient_recursion_cross_check():
    rng = np.random.default_rng(106)
    pairs = []
    while len(pairs) < 20:
        p = rng.uniform(0.7, 0.99)
        q = rng.uniform(0.3, p - 0.2)
        if q * (p - q) > 3.0 / 16.0:
            pairs.append((p, q))
    worst = 0.0
    for p, q in pairs:
        d = p - q
        u = math.sqrt(1 - 4 * q * d)
        tau = 1 - u
        general, _ = expansion_coeffs([2 * d] + [0.0] * 4, tau=tau, m=5)
        closed = [1.0]
        for j in range(1, 6):
            acc = sum(closed[l - 1] * closed[j - l] for l in range(1, j + 1))
            closed.append(-d / (j * u) * acc)
        worst = max(worst, max(abs(a - b) for a, b in zip(general, closed)))
    ok = worst <= 1e-12 * max(1.0, max(abs(c) for c in closed))
    assert _line(6, "coefficient recursion", ok, f"20 (p,q) pairs, worst gap {worst:.2e}, j <= 6")
    assert ok


def test_07_lyapunov_sigma1():
    # scalar: exact division
    scalar = solve_sigma1(np.array([[0.2]]), np.array([[0.25]]))
    scalar_ok = abs(scalar[0, 0] - 0.25 / 0.6) <= 1e-12
    # ten random 2x2 cases vs quadrature
    rng = np.random.default_rng(107)
    worst_rel = 0.0
    worst_residual = 0.0
    for _ in range(10):
        while True:
            J = rng.uniform(-0.6, 0.6, size=(2, 2))
            if float(np.max(np.linalg.eigvals(J).real)) <= 0.45:
                break
        B = rng.uniform(-0.5, 0.5, size=(2, 2))
        Sigma0 = B @ B.T + 0.1 * np.eye(2)
        direct = solve_sigma1(J, Sigma0)
        quad = sigma1_quadrature(J, Sigma0)
        worst_rel = max(worst_rel, np.linalg.norm(direct - quad) / np.linalg.norm(direct))
        M = J - 0.5 * np.eye(2)
        worst_residual = max(
            worst_residual,
            np.linalg.norm(M @ direct + direct @ M.T + Sigma0) / np.linalg.norm(Sigma0),
        )
    ok = scalar_ok and worst_rel <= 1e-6 and worst_residual <= 1e-10
    detail = f"scalar exact, quadrature rel {worst_rel:.2e}, residual {worst_residual:.2e}"
    assert _line(7, "diffusive covariance", ok, detail)
    assert ok


def test_08_jordan_recovery():
    t0 = time.time()
    failures = []
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        total = int(rng.integers(2, 7))
        sizes = []
        left = total
        while left > 0:
            k = int(rng.integers(1, min(4, left) + 1))
            sizes.append(k)
            left -= k
        values = rng.choice([-0.45, -0.15, 0.1, 0.35, 0.6, 0.85], size=len(sizes), replace=False)
        J = np.zeros((total, total))
        at = 0
        for lam, k in zip(values, sizes):
            J[at : at + k, at : at + k] = np.eye(k) * lam + np.diag(np.ones(k - 1), 1)
            at += k
        q1, _ = np.linalg.qr(rng.standard_normal((total, total)))
        q2, _ = np.linalg.qr(rng.standard_normal((total, total)))
        T = q1 @ np.diag(rng.uniform(0.5, 2.0, size=total)) @ q2
        A = T @ J @ np.linalg.inv(T)
        tau_true = float(np.max(values))
        kappa_true = max(k for lam, k in zip(values, sizes) if lam == tau_true)
        try:
            prof = spectral_profile_from_jacobian(A)
            if abs(prof.tau - tau_true) > 1e-6 or prof.kappa != kappa_true:
                failures.append((seed, sizes, values.tolist(), prof.tau, prof.kappa))
        except Exception as exc:  # noqa: BLE001 - failure bookkeeping
            failures.append((seed, sizes, values.tolist(), repr(exc), None))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10
    detail = f"{100 - len(failures)}/100 recovered, {elapsed:.1f}s"
    if failures:
        detail += f"; first failure {failures[0]}"
    assert _line(8, "Jordan structure recovery", ok, detail)
    assert not failures
    assert elapsed < 10


def test_09_minimal_square_slln():
    p, q = 0.9, 0.3
    model = _model("minimal", f="x^2", p=p, q=q)
    report = classify(model)
    # recomputed closed form
    expected = (1 - math.sqrt(1 - 4 * q * (p - q))) / (2 * (p - q))
    assert report.limit[0] == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(0.392375, abs=5e-7)
    assert q * (p - q) < 3.0 / 16.0 and report.regime == "Diffusive"
    cfg = FunctionalConfig(center=np.asarray(report.limit, dtype=float))
    stats = ensemble(model, 20000, 4000, 1009, functional_config=cfg)
    check = slln_test(stats, report.limit, clt_cov=report.clt_variance)
    detail = (
        f"mean {float(check.statistic[0]):.6f} vs {expected:.6f} "
        f"(allowance {float(check.tolerance[0]):.5f}), regime {report.regime}"
    )
    assert _line(9, "minimal square-map SLLN", check.passed, detail)
    assert check.passed


def test_10_market_model():
    t0 = time.time()
    diff = classify(_model("market", p=0.5, q=0.5))
    crit = classify(_model("market", p=1.0 / 6.0, q=0.5))
    elapsed = time.time() - t0
    ok = (
        diff.regime == "Diffusive"
        and abs(diff.limit[0]) <= 1e-12
        and crit.regime == "Critical"
        and elapsed < 1.0
    )
    detail = f"p=0.5 -> {diff.regime} limit {diff.limit[0]:.1e}; p=1/6 -> {crit.regime}; {elapsed:.3f}s"
    assert _line(10, "market model", ok, detail)
    assert ok


def test_11_kdim_covariance():
    model = _model("kdim", k=2, p=0.5)
    report = classify(model)
    stats = ensemble(model, 5000, 20000, 1011)
    check = fluctuation_test(stats, report, rel_tol=0.10, ks=False)
    detail = f"Frobenius-relative gap {check.details['relative_gap']:.2%} <= 10%"
    assert _line(11, "k-dim covariance", check.passed, detail)
    assert check.details["relative_gap"] <= 0.10


def test_12_sa_theorems():
    # a) unit-slope drift with unit Gaussian noise: Var(sqrt(n) Theta) -> 1
    proc_lin = SAProcess(drift=parse("x"), theta0=0.0, noise=NoiseSpec("gaussian", 1.0), drift_derivs=[1.0])
    paths = run_sa(proc_lin, 10_000, N=5000, master_seed=1012)
    j = paths.checkpoints.index(10_000)
    var = float(np.var(math.sqrt(10_000) * paths.theta[:, j], ddof=1))
    lin_ok = abs(var - 1.0) <= 0.05
    # b) quadratic drift, slope 0.3: residual variance after the linear term
    # (k = 1 path) within 15% of s^2 / (1 - 0.6)
    proc_quad = SAProcess(
        drift=parse("0.3*x + x^2"), theta0=0.0, noise=NoiseSpec("gaussian", 0.05), drift_derivs=[0.3, 2.0]
    )
    qpaths = run_sa(proc_quad, 2 ** 18, N=2000, master_seed=1012)
    check = sa_expansion_check(proc_quad, qpaths, eval_ratio=2.0 ** -12, tolerance=0.15, converged_band=0.05)
    ok = lin_ok and check.passed and check.details["k"] == 1
    detail = (
        f"linear Var = {var:.4f} (5% of 1); quadratic residual "
        f"{check.details['statistic']:.5f} vs {check.details['predicted']:.5f} (15%)"
    )
    assert _line(12, "stochastic approximation", ok, detail)
    assert lin_ok
    assert check.passed


def test_13_lil_envelopes():
    results = []
    for p, mode in ((0.5, "diffusive"), (0.75, "critical")):
        model = _model("erw", p=p, q=0.5)
        report = classify(model)
        cfg = FunctionalConfig(
            center=np.asarray(report.limit, dtype=float), lil_mode=mode, lil_window=(1000, None)
        )
        stats = ensemble(model, 100_000, 2000, 1013, functional_config=cfg)
        check = lil_envelope_test(stats, report, band=(0.3, 1.8), min_fraction=0.9)
        results.append((p, check))
    ok = all(c.passed for _, c in results)
    detail = ", ".join(f"p={p}: {float(c.statistic):.3f} in band" for p, c in results)
    assert _line(13, "iterated-logarithm envelopes", ok, detail + " (>= 0.90 required)")
    assert ok


def test_14_noise_lemma():
    model = _model("erw", p=0.6, q=0.5)
    check = noise_moment_check(model, n_max=4000, N=300, master_seed=1014)
    detail = (
        f"{check.details['bins_used']} bins, mean within 3 SE of 0, second moment within "
        f"3 SE of h(1-h); bound {check.details['max_abs_noise']:.2f} <= {check.details['noise_bound']:.2f}"
    )
    assert _line(14, "noise moment lemma", check.passed, detail)
    assert check.passed
    assert not check.details["bad_mean_bins"]
    assert not check.details["bad_second_moment_bins"]
