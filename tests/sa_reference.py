"""The stochastic approximation runner with the freeze applied on every step.

The reference :func:`erwlab.sa.run_sa` is tested against, bit for bit: each
step keeps every escaped path's value with ``np.where`` and flags the paths
whose magnitude passes the guard, whether or not any path is near it. It
draws the same noise from stream (master_seed, 0), chunk by chunk, and does
not check its arguments.

:func:`sa_order_check` is a slope check of the expansion order that only
the tests run.
"""

import numpy as np

from erwlab.sa import (CheckReport, SAError, SAPaths, SAProcess, _converged_scales, residual_order_slope,
                       sa_coeffs)
from erwlab.simulate import resolve_checkpoints, trajectory_seed


def run_sa_reference(proc, n_max, N, master_seed, checkpoints=None, guard=1e9):
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


def sa_order_check(proc: SAProcess, paths: SAPaths, k: int,
                   slope_slack: float = 0.1) -> CheckReport:
    """Slope check of the almost sure expansion order for psi' < 1/(2k).

    Regresses log median absolute residual on log n over the top decade of
    checkpoints; the fitted slope must be at most -(k) psi' + slack.
    """
    psi_p = proc.psi_prime()
    if not psi_p < 1.0 / (2.0 * k):
        raise SAError("wrong-derivative-regime: order check needs psi' < 1/(2k)")
    coeffs = sa_coeffs(proc.psi_derivs(upto=k), upto=k)
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
