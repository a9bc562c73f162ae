"""References that :mod:`erwlab.sa` is tested against, bit for bit, and a
check that only the tests run.

:func:`run_sa_reference` is the runner with the freeze applied on every
step: it keeps every escaped path's value with ``np.where`` and flags the
paths whose magnitude passes the guard, whether or not any path is near it.
It draws the same noise from stream (master_seed, 0) in chunks of up to 4M
draws, each a fresh array scaled into a second one, and does not check its
arguments.

:func:`noise_moment_check_reference` is the noise moment check computed
over whole arrays: the bin index, H, |e| and every Lindeberg tail span all
the samples at once.

:func:`sa_order_check` is a slope check of the expansion order.
"""

import math

import numpy as np

from erwlab.sa import (_GUARD, CheckReport, SAError, SAPaths, SAProcess, _converged_scales, residual_order_slope,
                       sa_coeffs)
from erwlab.simulate import FunctionalConfig, ensemble, resolve_checkpoints
from walk_replay import trajectory_seed


def run_sa_reference(proc, n_max, N, master_seed, checkpoints=None, guard=_GUARD):
    """``(theta, escaped)``: the (N, C) checkpoint values and the (N,) escape flags."""
    checkpoints = resolve_checkpoints(n_max, checkpoints)
    cp_index = {n: j for j, n in enumerate(checkpoints)}
    theta = np.full(N, float(proc.theta1))
    out = np.empty((N, len(checkpoints)))
    escaped = np.zeros(N, dtype=bool)
    gen = np.random.Generator(np.random.Philox(trajectory_seed(master_seed, 0)))
    if 1 in cp_index:
        out[:, cp_index[1]] = theta
    fast = proc.drift.fast
    chunk = max(1, min(n_max, 4_000_000 // max(1, N)))
    n = 1
    while n < n_max:
        span = min(chunk, n_max - n)
        if proc.noise.kind == "gaussian":
            eps = gen.standard_normal((span, N)) * proc.noise.sd
        else:
            eps = (2.0 * (gen.random((span, N)) < 0.5) - 1.0) * proc.noise.sd
        for i in range(span):
            a_n = 1.0 / (n + 1.0)
            moved = theta - a_n * (fast([theta]) + eps[i])
            theta = np.where(escaped, theta, moved)
            escaped |= np.abs(theta) > guard
            n += 1
            if n in cp_index:
                out[:, cp_index[n]] = theta
    return out, escaped


def noise_moment_check_reference(model, n_max, N, master_seed, min_count=500) -> CheckReport:
    """:func:`erwlab.sa.noise_moment_check` with full-length temporaries."""
    stats = ensemble(model, n_max, N, master_seed, functional_config=FunctionalConfig(collect_noise=True))
    xs = stats.noise_x.ravel()
    lo = float(model.domain.lower[0])
    hi = float(min(model.domain.upper[0], lo + 1.0))
    bins = 16
    edges = np.linspace(lo, hi, bins + 1)
    which = np.clip(np.digitize(xs, edges) - 1, 0, bins - 1)

    H = model.eval_H(xs[..., None])[..., 0]
    es = H - stats.noise_step.ravel()
    pred = H * float(model.sigma[0, 0]) / float(model.mu[0]) - H ** 2

    bad_mean, bad_var, used = [], [], 0
    for b_ in range(bins):
        mask = which == b_
        cnt = int(mask.sum())
        if cnt < min_count:
            continue
        used += 1
        e = es[mask]
        se_mean = e.std(ddof=1) / math.sqrt(cnt)
        if abs(e.mean()) > 3.0 * max(se_mean, 1e-12):
            bad_mean.append(b_)
        e2 = e ** 2
        se_m2 = e2.std(ddof=1) / math.sqrt(cnt)
        if abs(e2.mean() - pred[mask].mean()) > 3.0 * max(se_m2, 1e-12):
            bad_var.append(b_)
    if used == 0:
        raise SAError("insufficient-bin-counts: no bin reached the minimum sample size")

    bound = float(np.abs(model.mu).sum() + np.max(np.abs(model.spec.step_law.atoms)))
    if np.max(np.abs(es)) > bound + 1e-12:
        raise SAError("noise increment exceeded its a priori bound")
    grid = [n for n in stats.checkpoints if n > 1]
    lindeberg = []
    for n in grid:
        thr = 0.2 * math.sqrt(n)
        e_slice = es.reshape(stats.noise_step.shape)[:, : n - 1]
        tail = np.where(np.abs(e_slice) >= thr, e_slice ** 2, 0.0)
        lindeberg.append(float(tail.sum(axis=1).mean() / n))
    settled = [v for n, v in zip(grid, lindeberg) if n >= 16]
    trend_ok = bool(settled) and all(
        b2 <= a2 + 1e-12 for a2, b2 in zip(settled, settled[1:])
    ) and settled[-1] <= 1e-12

    passed = not bad_mean and not bad_var and trend_ok
    return CheckReport(
        name="noise-moments",
        passed=passed,
        details={
            "bins_used": used,
            "bad_mean_bins": bad_mean,
            "bad_second_moment_bins": bad_var,
            "noise_bound": bound,
            "max_abs_noise": float(np.max(np.abs(es))),
            "lindeberg": dict(zip(map(int, grid), lindeberg)),
            "lindeberg_trend_ok": trend_ok,
            "samples": int(xs.size),
        },
    )


def sa_order_check(proc: SAProcess, paths: SAPaths, k: int,
                   slope_slack: float = 0.1) -> CheckReport:
    """Slope check of the almost sure expansion order for psi' < 1/(2k).

    Regresses log median absolute residual on log n over the top decade of
    checkpoints; the fitted slope must be at most -(k) psi' + slack.
    """
    psi_p = proc.psi_prime()
    if not psi_p < 1.0 / (2.0 * k):
        raise SAError("wrong-derivative-regime: order check needs psi' < 1/(2k)")
    coeffs = sa_coeffs(proc.psi_derivs()[:k], upto=k)
    keep, z_hat = _converged_scales(proc, paths, psi_p, coeffs, 0.1)
    slope, _ = residual_order_slope(paths.theta[keep], proc.theta0, paths.checkpoints, paths.n_max,
                                    z_hat, psi_p, coeffs)
    if slope is None:
        raise SAError("not enough checkpoints in the top decade for the slope fit")
    target = -k * psi_p + slope_slack
    return CheckReport(
        name="sa-order",
        passed=slope <= target,
        details={"slope": slope, "target": target, "k": k},
    )
