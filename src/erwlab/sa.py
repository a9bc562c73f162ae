"""One-dimensional stochastic approximation runner and the walk reduction.

The scaled auxiliary walk is itself a stochastic approximation process:
with Gamma_n the position average, drift gamma(x) = x - H(x), step size
1/(n+1), and martingale noise e_{n+1} = H(Gamma_n) - X_{n+1},

    Gamma_{n+1} = Gamma_n - (1/(n+1)) * (gamma(Gamma_n) + e_{n+1})

holds as an identity. This module runs generic scalar recursions of that
form with synthetic noise, finds the walk's root theta0 (``walk_theta0``),
and provides the noise moment checks, which read H and the step moments
straight from the validated model, and the expansion-coefficient
verification used by the test theorems, each a :class:`CheckReport`. By
the identity, the expansion-residual core here also serves
``verify.expansion_residual_test``; each caller keeps its own paths,
coefficients, target and error type.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .funcdsl import MAX_DERIV_ORDER, FuncExpr, derivatives, derive_at
from .model import INFINITE_EDGE_SPAN, ModelError, ValidatedModel, exact_batch
from .simulate import FunctionalConfig, check_integer, ensemble, nearest_checkpoint, philox_keys, resolve_checkpoints
from .theory import expansion_coeffs, fixed_point, report_dict


class SAError(ModelError):
    pass


_SLICE = 1 << 16  # doubles per noise buffer, samples per slice of the moment check
_GUARD = 1e9  # |theta| past which run_sa freezes a path as escaped


@dataclass(frozen=True)
class NoiseSpec:
    """Synthetic i.i.d. noise for the generic runner.

    kinds: ``gaussian`` (params: sd) and ``rademacher`` (params: scale).
    Both have conditional mean zero, constant conditional variance s2, and
    bounded (2+beta) moments.
    """

    kind: str
    sd: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "rademacher"):
            raise SAError(f"unknown noise kind {self.kind!r}")
        # s2 = sd^2 enters the checks' predicted variances
        if not (math.isfinite(self.sd) and math.isfinite(self.sd * self.sd)):
            raise SAError(f"noise scale {self.sd!r} must be finite, with a finite square")

    @property
    def s2(self) -> float:
        return self.sd ** 2

    @staticmethod
    def parse(text: str) -> "NoiseSpec":
        name, _, arg = text.partition(":")
        return NoiseSpec(name, float(arg) if arg else 1.0)


@dataclass
class SAProcess:
    """Scalar stochastic approximation process Theta_{n+1} = Theta_n - a_n (psi + eps)."""

    drift: FuncExpr
    theta0: float
    noise: NoiseSpec
    theta1: float = 0.0
    drift_derivs: Optional[list] = None  # psi', psi'', ... at theta0 (closed form)

    def __post_init__(self):
        root_val = self.drift(self.theta0)
        if abs(root_val) > 1e-12:
            raise SAError(f"theta0 is not a root: psi(theta0) = {root_val:.3e}")
        if self.psi_prime() <= 0:
            raise SAError("drift slope at the root must be positive")

    def psi_prime(self) -> float:
        if self.drift_derivs:
            return float(self.drift_derivs[0])
        value, _ = derive_at(self.drift, self.theta0, order=1)
        return value

    def psi_derivs(self) -> list:
        """psi', psi'', ... up to order ``MAX_DERIV_ORDER`` (closed form padded with zeros, or numeric)."""
        if self.drift_derivs is not None:
            out = [float(v) for v in self.drift_derivs[:MAX_DERIV_ORDER]]
            return out + [0.0] * (MAX_DERIV_ORDER - len(out))
        return derivatives(self.drift, self.theta0, MAX_DERIV_ORDER)


@dataclass
class SAPaths:
    checkpoints: list
    theta: np.ndarray  # (N, C)
    escaped: np.ndarray  # (N,) True where the divergence guard tripped
    n_max: int
    N: int
    master_seed: int
    s2: float


def run_sa(proc: SAProcess, n_max: int, N: int, master_seed: int, checkpoints=None) -> SAPaths:
    """Simulate N independent paths of the recursion, a_n = 1/(n+1).

    Paths whose magnitude passes ``_GUARD`` are frozen and reported in
    ``escaped`` (never silently clipped): with a locally attracting root the
    limit theorems condition on the convergence event, so escapes are
    excluded from theorem statistics but always reported.

    The noise is one Philox stream, keyed with ``philox_keys(master_seed,
    0, 1)[0]``: the key of trajectory 0 of an :func:`ensemble` of the same
    seed. It is drawn one buffer of about ``_SLICE`` doubles at a time, one
    buffer ahead of the steps, by one helper thread: two buffers take turns,
    and buffer i + 1 is asked for only once buffer i is taken, so the stream
    is read in order and every value is the one a single thread would draw.
    The helper only fills buffers. The Rademacher transform, the scaling and
    the steps run on the caller's thread, under its ``np.errstate`` and
    warning filters. The helper is joined before the call returns or raises.
    While no path has escaped, a buffer is first stepped speculatively by
    :func:`_step_clear`, which writes theta after every step into a row of a
    reused path buffer. If every value stays within the guard, its rows
    give the checkpoints and its last row the next theta. Otherwise, or if
    the speculative pass raised, the buffer is replayed from its first theta
    one step at a time with the freeze, which gives the same values, escape
    flags, warnings and exceptions as stepping every buffer that way.
    """
    gen = np.random.Generator(np.random.Philox(key=philox_keys(master_seed, 0, 1)[0]))
    check_integer("N", N, SAError)
    if N < 1:
        raise SAError("N must be >= 1")
    checkpoints = resolve_checkpoints(n_max, checkpoints)
    cp_index = {n: j for j, n in enumerate(checkpoints)}
    theta = np.full(N, float(proc.theta1))
    out = np.empty((N, len(checkpoints)))
    escaped = np.zeros(N, dtype=bool)
    if 1 in cp_index:
        out[:, cp_index[1]] = theta
    fast = proc.drift.fast
    gaussian = proc.noise.kind == "gaussian"
    fill = gen.standard_normal if gaussian else gen.random
    # the noise of steps n, n + 1, ... is drawn in place into one of two
    # buffers, which take turns; the stream continues across draws, so the
    # values do not depend on the buffer length
    rows = max(1, min(n_max - 1, _SLICE // N))
    bufs = (np.empty((rows, N)), np.empty((rows, N)))
    path = np.empty_like(bufs[0])

    def rows_from(at):
        return bufs[(at - 1) // rows % 2][:min(rows, n_max - at)]

    n = 1
    with ThreadPoolExecutor(1) as pool:
        drawn = pool.submit(fill, out=rows_from(1)) if n_max > 1 else None
        while n < n_max:
            eps = drawn.result()
            span = len(eps)
            if n + span < n_max:  # the worker fills the other buffer while this one is stepped
                drawn = pool.submit(fill, out=rows_from(n + span))
            if not gaussian:
                np.less(eps, 0.5, out=eps)
                eps *= 2.0
                eps -= 1.0
            eps *= proc.noise.sd
            if not escaped.any() and _step_clear(fast, theta, eps, n, path):
                for c, j in cp_index.items():
                    if n < c <= n + span:
                        out[:, j] = path[c - n - 1]
                theta = path[span - 1].copy()
                n += span
                continue
            for i in range(span):
                a_n = 1.0 / (n + 1.0)
                moved = theta - a_n * (fast([theta]) + eps[i])
                # escaped paths stay frozen at their flagged value
                theta = np.where(escaped, theta, moved)
                escaped |= np.abs(theta) > _GUARD
                n += 1
                if n in cp_index:
                    out[:, cp_index[n]] = theta
    return SAPaths(
        checkpoints=checkpoints,
        theta=out,
        escaped=escaped,
        n_max=n_max,
        N=N,
        master_seed=master_seed,
        s2=proc.noise.s2,
    )


def _step_clear(fast, theta, eps, n, path) -> bool:
    """Step every path from theta_n through the noise rows ``eps`` with no
    freeze, row i of ``path`` taking theta_{n+1+i}, as ``run_sa``'s per-step
    loop computes it (m counts n + 1.0, n + 2.0, ... with no rounding, so
    1 / m is its a_n). True when every value lies within ``_GUARD``; False
    when one does not, is NaN, or the pass raised on some path, which the
    freeze might have stopped before it got there. The pass is the batch of
    :func:`~erwlab.model.exact_batch`, and False its exact code, which sends
    ``run_sa`` to its per-step replay."""

    def speculate():
        prev, m = theta, n + 1.0
        for e, row in zip(eps, path):
            np.add(fast([prev]), e, row)
            np.multiply(row, 1.0 / m, row)
            np.subtract(prev, row, row)
            prev, m = row, m + 1.0
        return True

    if not exact_batch(speculate, lambda: False):
        return False
    moved = path[:len(eps)]
    return bool(moved.max() <= _GUARD and -moved.min() <= _GUARD)


# ---------------------------------------------------------------------------
# Walk reduction


def walk_theta0(model: ValidatedModel) -> float:
    """Root theta0 of the walk's drift gamma(x) = x - H(x), for an s = 1 model
    with a unique fixed point: :func:`theory.fixed_point`'s, which ``classify``
    reports too."""
    if model.s != 1:
        raise SAError("the scalar reduction needs s = 1")
    return float(fixed_point(model)[0][0])


# ---------------------------------------------------------------------------
# Checks


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return report_dict(self)


def _bin_into(out, x, edges, above):
    """Write into the uint8 array ``out`` the bin of each finite x among the
    intervals of the increasing ``edges``, values past either end in the
    first or last: the number of interior edges at or below x, which is
    ``np.clip(np.digitize(x, edges) - 1, 0, len(edges) - 2)``. ``above`` is a
    bool buffer of x's length. Two calls per edge over the slice cost about
    a third of ``np.digitize``'s binary searches."""
    out.fill(0)
    for edge in edges[1:-1]:
        np.add(out, np.greater_equal(x, edge, out=above), out=out)


def noise_moment_check(model: ValidatedModel, n_max: int, N: int, master_seed: int,
                       min_count: int = 500) -> CheckReport:
    """Empirical verification of the reduction noise moments (s = 1).

    Bins pairs (Gamma_n, e_{n+1}) by state into 16 equal bins of [lower,
    min(upper, lower + ``model.INFINITE_EDGE_SPAN``)]: conditional mean
    within 3 SE of zero and conditional second moment within 3 SE of the
    predicted H(x) Sigma / mu - H(x)^2, per bin with enough samples. The
    Lindeberg tail statistic is evaluated on a doubling time grid at
    delta = 0.2; with bounded steps it is zero once delta * sqrt(n) passes
    the noise bound. The noise e_{n+1} = H(Gamma_n) - X_{n+1} is written
    over the recorded increments in place, slice by slice, from the one
    ``eval_H`` call that also gives the slice's predicted second moment.
    """
    if model.s != 1:
        raise SAError("noise checks implemented for s = 1")
    cfg = FunctionalConfig(collect_noise=True)
    stats = ensemble(model, n_max, N, master_seed, functional_config=cfg)
    noise = stats.noise_step  # X_{n+1}, and e_{n+1} once the slice loop has passed
    xs = stats.noise_x.ravel()
    es = noise.ravel()
    lo = float(model.domain.lower[0])
    hi = float(min(model.domain.upper[0], lo + INFINITE_EDGE_SPAN))
    bins = 16
    edges = np.linspace(lo, hi, bins + 1)
    # the noise, the bin of each sample, its predicted second moment, the bin
    # counts and max |e|, one slice at a time so that no temporary spans every sample
    which = np.empty(xs.size, dtype=np.uint8)
    pred = np.empty(xs.size)
    counts = np.zeros(bins, dtype=np.int64)
    peaks = []
    above = np.empty(min(xs.size, _SLICE), dtype=bool)
    for at in range(0, xs.size, _SLICE):
        part = slice(at, at + _SLICE)
        _bin_into(which[part], xs[part], edges, above[:len(xs[part])])
        counts += np.bincount(which[part], minlength=bins)
        H = model.eval_H(xs[part, None])[..., 0]
        np.subtract(H, es[part], out=es[part])
        # Sigma(x) of an s = 1, r = 2 walk, written here rather than read from
        # model.noise_second_moment: that would evaluate the maps twice more per
        # slice, where this reuses the slice's one eval_H
        pred[part] = H * float(model.sigma[0, 0]) / float(model.mu[0]) - H ** 2
        peaks.append(np.abs(es[part]).max())

    bad_mean, bad_var, used = [], [], 0
    for b_ in range(bins):
        cnt = int(counts[b_])
        if cnt < min_count:
            continue
        used += 1
        mask = which == b_
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
    max_abs_noise = float(np.max(peaks))
    if max_abs_noise > bound + 1e-12:
        raise SAError("noise increment exceeded its a priori bound")
    grid = [n for n in stats.checkpoints if n > 1]
    lindeberg = []
    row_sums = np.empty(N)
    for n in grid:
        thr = 0.2 * math.sqrt(n)
        if thr > max_abs_noise:  # no |e| reaches the threshold, so every tail term is 0.0
            lindeberg.append(0.0)
            continue
        rows = max(1, _SLICE // (n - 1))
        for first in range(0, N, rows):
            e_slice = noise[first:first + rows, : n - 1]
            tail = np.where(np.abs(e_slice) >= thr, e_slice ** 2, 0.0)
            row_sums[first:first + rows] = tail.sum(axis=1)
        lindeberg.append(float(row_sums.mean() / n))
    # tiny horizons keep the indicator active; the trend requirement starts
    # once delta sqrt(n) can clear the (bounded) noise
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
            "max_abs_noise": max_abs_noise,
            "lindeberg": dict(zip(map(int, grid), lindeberg)),
            "lindeberg_trend_ok": trend_ok,
            "samples": int(xs.size),
        },
    )


def sa_coeffs(psi_derivs: list, upto: int) -> list:
    """Expansion coefficients from drift derivatives (positive-sign form).

    ``psi_derivs`` lists psi', psi'', ... at the root. Equivalent to the
    auxiliary-scale recursion applied to a drift map with derivatives
    H^(i) = -psi^(i) and top eigenvalue 1 - psi'.
    """
    if not psi_derivs:
        raise SAError("need at least psi' at the root")
    psi_p = float(psi_derivs[0])
    hs = [-float(v) for v in psi_derivs[1:]]
    hs += [0.0] * max(0, (upto - 1) - len(hs))
    coeffs, _ = expansion_coeffs(hs[: upto - 1], 1.0 - psi_p, upto - 1)
    return coeffs


def estimate_terminal_scale(value: float, n: int, exponent: float, coeffs: list) -> float:
    """Invert dev = sum_j c_j (z / n^a)^j for z from the final checkpoint.

    With only the linear coefficient this is the plain scaled terminal
    value; higher coefficients are inverted by Newton steps (still a
    function of the final checkpoint alone). The vectorized
    ``verify._invert_expansion`` has another step guard and stopping rule
    and differs in the last bit on some paths: merging would change bytes.
    """
    u = value  # first guess: linear inversion of dev = u + c2 u^2 + ...
    if len(coeffs) > 1:
        for _ in range(60):
            f = -value
            fp = 0.0
            for j, c in enumerate(coeffs, start=1):
                f += c * u ** j
                fp += j * c * u ** (j - 1)
            if abs(fp) < 1e-14:
                break
            step = f / fp
            u -= step
            if abs(step) <= 1e-15 * max(1.0, abs(u)):
                break
    return u * n ** exponent


# ---------------------------------------------------------------------------
# Expansion-residual core (also used by verify.expansion_residual_test)


def expansion_residual(dev, n: int, scale, exponent: float, coeffs) -> np.ndarray:
    """dev - sum_j c_j u^j with u = scale / n^exponent, j counted from 1."""
    u = scale / n ** exponent
    expansion = np.zeros_like(u)
    for j, c in enumerate(coeffs, start=1):
        expansion += c * u ** j
    return dev - expansion


def residual_variance(values, center: float, checkpoints, n_max: int, eval_ratio: float, scale,
                      exponent: float, coeffs) -> tuple:
    """Sample variance (ddof 1) of sqrt(n_e) times the expansion residual at
    n_e, the checkpoint nearest max(2, round(eval_ratio * n_max)).

    ``values[:, j]`` holds the paths at ``checkpoints[j]``. Returns
    (statistic, n_e).
    """
    n_e, j = nearest_checkpoint(checkpoints, max(2, int(round(eval_ratio * n_max))))
    residual = expansion_residual(values[:, j] - center, n_e, scale, exponent, coeffs)
    return float(np.var(math.sqrt(n_e) * residual, ddof=1)), n_e


def residual_order_slope(values, center: float, checkpoints, n_max: int, scale,
                         exponent: float, coeffs) -> tuple:
    """Slope of log median |residual| against log n over the top decade.

    Values as for :func:`residual_variance`; checkpoints below n_max/10 and
    n_max itself (which fixed ``scale``) are left out, as are zero medians.
    Returns (slope, points); the slope is None when fewer than two points
    remain.
    """
    xs, ys = [], []
    for j, n in enumerate(checkpoints):
        if n < n_max / 10 or n == n_max:
            continue
        residual = expansion_residual(values[:, j] - center, n, scale, exponent, coeffs)
        med = float(np.median(np.abs(residual)))
        if med > 0:
            xs.append(math.log(n))
            ys.append(math.log(med))
    return (float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else None), len(xs)


def _converged_scales(proc: SAProcess, paths: SAPaths, psi_p: float, coeffs: list, band: float):
    """Paths the residual checks keep (not escaped, final value within
    ``band`` of the root) and their terminal scale estimates."""
    theta_final = paths.theta[:, -1] - proc.theta0  # the last checkpoint is n_max
    keep = (~paths.escaped) & (np.abs(theta_final) < band)
    z_hat = np.array([estimate_terminal_scale(v, paths.n_max, psi_p, coeffs) for v in theta_final[keep]])
    return keep, z_hat


def sa_expansion_check(proc: SAProcess, paths: SAPaths, eval_ratio: float = 2.0 ** -10,
                       tolerance: float = 0.15, converged_band: float = 0.1) -> CheckReport:
    """Residual checks for the scalar expansion theorems (psi' < 1/2).

    Per path, the limit scale Z is estimated from the final checkpoint by
    inverting the truncated expansion; the residual after subtracting the
    expansion terms is evaluated at an earlier checkpoint n_e. For
    1/(2(k+1)) < psi' <= 1/(2k) the scaled residual variance is compared to
    s^2 / (1 - 2 psi'). Estimating Z from the same trajectory attenuates
    the residual variance by 1 - (n_e/n_max)^(1-2psi'), which drives the
    default evaluation ratio; paths outside the convergence band and
    escaped paths are excluded (the theorems condition on convergence).
    """
    psi_p = proc.psi_prime()
    if not 0.0 < psi_p < 0.5:
        raise SAError("wrong-derivative-regime: residual expansion needs 0 < psi' < 1/2")
    if paths.n_max < 2:  # every path is still theta1
        raise SAError(f"the residual expansion check needs n >= 2: at n = {paths.n_max} the recursion has not stepped")
    k = int(math.floor(1.0 / (2.0 * psi_p) + 1e-12))
    if abs(psi_p - 1.0 / (2.0 * (k + 1))) < 1e-12:
        k += 1  # boundary psi' = 1/(2k) belongs to the k path
    derivs = proc.psi_derivs()
    coeffs = sa_coeffs(derivs, upto=max(k, len(derivs)))
    n_max = paths.n_max
    keep, z_hat = _converged_scales(proc, paths, psi_p, coeffs, converged_band)
    n_keep = int(keep.sum())
    if n_keep < 100:
        raise SAError("too few converged paths for the residual check")

    stat, n_e = residual_variance(paths.theta[keep], proc.theta0, paths.checkpoints, n_max, eval_ratio,
                                  z_hat, psi_p, coeffs)
    rho2 = (n_e / n_max) ** (1.0 - 2.0 * psi_p)
    predicted = paths.s2 / (1.0 - 2.0 * psi_p)
    passed = abs(stat - predicted) <= tolerance * predicted

    # order check: the flagged boundary case converges at a log-slow rate
    slow_boundary = abs(psi_p - 1.0 / (2.0 * k)) < 1e-12
    return CheckReport(
        name="sa-expansion",
        passed=passed,
        details={
            "k": k,
            "psi_prime": psi_p,
            "coeffs": list(coeffs),
            "n_eval": int(n_e),
            "statistic": stat,
            "predicted": predicted,
            "tolerance": tolerance,
            "estimator_attenuation": 1.0 - rho2,
            "kept_paths": n_keep,
            "escaped_paths": int(paths.escaped.sum()),
            "slow_boundary_case": slow_boundary,
        },
    )


def sa_clt_variance_check(proc: SAProcess, paths: SAPaths, tolerance: float = 0.05) -> CheckReport:
    """Terminal CLT for psi' > 1/2: Var(sqrt(n) (Theta_n - theta0)) over the
    paths that did not escape, against s^2 / (2 psi' - 1), relative tolerance."""
    psi_p = proc.psi_prime()
    if not psi_p > 0.5:
        raise SAError("wrong-derivative-regime: the CLT variance check needs psi' > 1/2")
    if paths.n_max < 2:
        raise SAError(f"the CLT variance check needs n >= 2: at n = {paths.n_max} the recursion has not stepped")
    kept = ~paths.escaped
    if kept.sum() < 2:
        raise SAError(f"the CLT variance check needs at least 2 paths that did not escape, got {int(kept.sum())}")
    var = float(np.var(np.sqrt(paths.n_max) * (paths.theta[kept, -1] - proc.theta0), ddof=1))
    predicted = paths.s2 / (2.0 * psi_p - 1.0)
    return CheckReport(
        name="sa-clt-variance",
        passed=bool(abs(var - predicted) <= tolerance * predicted),
        details={"statistic": var, "predicted": predicted, "tolerance": tolerance},
    )
