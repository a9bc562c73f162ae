"""Limit theory computations for validated models.

Everything the asymptotic theorems need is derived here: the fixed point of
the drift map H, grid verification of the downcrossing condition, the
Jacobian spectrum with its dominant real part tau and largest block size
kappa, the noise covariance Sigma0 with its diffusive (Sigma1) and critical
(Sigma2) limits, law-of-iterated-logarithm constants, and the recursive
expansion coefficients for the superdiffusive deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import funcdsl
from .model import GRID_DENSITY, ModelError, ValidatedModel, interior_grid

# scipy.linalg is imported where it is called: the import costs about 0.25 s,
# and simulate, sa, oracle and presets import this module without ever
# reaching those calls.


class TheoryError(ModelError):
    pass


# ---------------------------------------------------------------------------
# Fixed point


_BISECT_DEPTH = 7  # halvings whose midpoints one eval_H call tabulates


def _feasible(model, x):
    """Clip points of shape (..., s) into the rectangle; a point whose
    coordinates sum past the model's ``simplex_cap`` is scaled back inside."""
    x = np.clip(x, model.domain.lower, model.domain.reach)
    cap = model.meta.get("simplex_cap")
    if cap is not None:
        sums = x.sum(axis=-1, keepdims=True)
        over = sums > cap
        x = np.where(over, x * (0.98 * float(cap) / np.where(over, sums, 1.0)), x)
    return x


def _midpoint_table(a, b, depth):
    """Midpoints of the 2**depth - 1 brackets the next ``depth`` halvings of
    [a, b] can reach, in heap order: node i halves into 2i + 1 (left) and
    2i + 2 (right). Each is ``0.5 * (lo + hi)`` of its own bracket."""
    ends, mids = np.array([a, b]), []
    for _ in range(depth):
        mid = 0.5 * (ends[:-1] + ends[1:])  # the brackets of one level, left to right
        mids.append(mid)
        split = np.empty(2 * len(ends) - 1)
        split[0::2], split[1::2] = ends, mid
        ends = split
    return np.concatenate(mids)


def find_fixed_point(model: ValidatedModel):
    """Solve H(x) = x on the model rectangle.

    s = 1 brackets every sign change of H(x) - x on a 1001-point grid and
    bisects each (``fa * fm <= 0`` keeps the left half; stop when the
    bracket is narrower than 1e-13, or after 200 halvings). One ``eval_H``
    call tabulates the midpoints the next few halvings can reach, and the
    bisection then reads its values from that table.

    s > 1 runs damped fixed-point iteration x <- x + (H(x) - x) / 2 from
    the domain center and 2**min(s, 3) corner starts at once: each round is
    one ``eval_H`` call on the starts still active, and a start stops once
    its step is below 1e-13 (20000 rounds at most). The root is the first
    converged start in list order.

    Raises on no root, or on roots farther apart than 1e-8.
    """
    dom = model.domain
    if model.s == 1:
        lo = float(dom.lower[0])
        hi = float(dom.upper[0]) if math.isfinite(dom.upper[0]) else lo + 1.0
        xs = np.linspace(lo, hi, 1001)
        vals = model.eval_H(xs[:, None])[:, 0] - xs
        signs = np.sign(vals)
        crossings = np.where(np.diff(signs) != 0)[0]
        roots = []
        for c in crossings:
            a, b_ = xs[c], xs[c + 1]
            fa = vals[c]
            halvings, done = 0, False
            while not done:
                mids = _midpoint_table(a, b_, _BISECT_DEPTH)
                fmids = model.eval_H(mids[:, None])[:, 0] - mids
                node = 0
                for _ in range(_BISECT_DEPTH):
                    if fa * fmids[node] <= 0:
                        b_, node = mids[node], 2 * node + 1
                    else:
                        a, fa, node = mids[node], fmids[node], 2 * node + 2
                    halvings += 1
                    done = b_ - a < 1e-13 or halvings == 200
                    if done:
                        break
            roots.append(0.5 * (a + b_))
        roots = [r for i, r in enumerate(roots) if all(abs(r - q) > 1e-8 for q in roots[:i])]
        if not roots:
            raise TheoryError("no-root-in-domain: H(x) - x has no sign change")
        if len(roots) > 1:
            raise TheoryError(f"multiple-roots: fixed points near {roots}")
        return np.array([roots[0]])

    span = np.minimum(dom.upper, dom.lower + 1.0) - dom.lower
    offs = np.array([[(corner >> j) & 1 for j in range(model.s)] for corner in range(2 ** min(model.s, 3))],
                    dtype=float)
    x = _feasible(model, np.vstack([dom.lower + 0.5 * span, dom.lower + (0.1 + 0.8 * offs) * span]))
    active = np.ones(len(x), dtype=bool)  # a converged start keeps the iterate of its last round
    for _ in range(20000):
        rows = np.flatnonzero(active)
        xr = x[rows]
        delta = model.eval_H(xr) - xr
        x[rows] = _feasible(model, xr + 0.5 * delta)
        active[rows[np.max(np.abs(delta), axis=1) < 1e-13]] = False
        if not active.any():
            break
    roots = x[~active]
    if not len(roots):
        raise TheoryError("no-root-in-domain: damped iteration did not converge from any start")
    base = roots[0]
    for r in roots[1:]:
        if np.max(np.abs(r - base)) > 1e-8:
            raise TheoryError(f"multiple-roots: fixed points {base.tolist()} and {r.tolist()}")
    return base


@dataclass(frozen=True)
class DowncrossingResult:
    verified: bool
    max_value: float
    argmax: np.ndarray


def check_downcrossing(model: ValidatedModel, x0, grid_density: int = GRID_DENSITY,
                       exclusion_radius: float = 1e-6) -> DowncrossingResult:
    """Grid check of sup (x - x0)^T (H(x) - x) < 0 away from x0.

    The sup in the condition runs over closed subsets of the open rectangle,
    so the grid keeps strictly interior points and excludes a small ball
    around x0. A nonnegative maximum reports the offending point.

    The grid is :func:`~erwlab.model.interior_grid`, built from the
    interior values of each axis: the interior rows of the validation grid,
    with no boundary row built. The ball drops the rows whose norm
    ``|x - x0|`` is at most ``exclusion_radius`` (r). That norm is the
    square root of a float sum of squares, never less than one of its
    terms, so a dropped row has ``sqrt(d_j * d_j) <= r`` on every axis j,
    where d_j is its deviation from x0 there. If some axis has no value
    that close to x0, no row can be dropped, and the norms are not taken.
    A NaN in x0 makes every norm NaN, and a NaN r makes every comparison
    false: in both cases the norms are taken and drop every row.
    """
    x0 = np.asarray(x0, dtype=float)
    grid, axes = interior_grid(model.spec, grid_density, 1.0)
    dev = grid - x0
    if np.isnan(x0).any() or not any(np.all(np.sqrt(d * d) > exclusion_radius)
                                     for d in map(np.subtract, axes, np.broadcast_to(x0, (len(axes),)))):
        keep = np.linalg.norm(dev, axis=1) > exclusion_radius
        grid, dev = grid[keep], dev[keep]
    if grid.shape[0] == 0:
        raise TheoryError("downcrossing grid is empty; raise grid_density")
    H = model.eval_H(grid)
    values = np.einsum("ij,ij->i", dev, H - grid)
    k = int(np.argmax(values))
    return DowncrossingResult(verified=bool(values[k] < 0.0), max_value=float(values[k]), argmax=grid[k])


# ---------------------------------------------------------------------------
# Jacobian and spectral structure


def _partial(fun, x0, axis, base_step):
    """Second-order central partial derivative with Richardson refinement."""
    best, best_err = None, math.inf
    prev = None
    for k in range(6):
        h = base_step * 2.0 ** (-k)
        xp, xm = x0.copy(), x0.copy()
        xp[axis] += h
        xm[axis] -= h
        d = (fun(xp) - fun(xm)) / (2.0 * h)
        if prev is not None:
            extrap = (4.0 * d - prev) / 3.0
            err = np.max(np.abs(extrap - d))
            if err < best_err:
                best, best_err = extrap, err
        prev = d
    return best


def jacobian(model: ValidatedModel, x0) -> np.ndarray:
    """Numeric Jacobian of the drift map H at x0 (column j = dH/dx_j)."""
    x0 = np.asarray(x0, dtype=float)
    dist = np.minimum(x0 - model.domain.lower, model.domain.reach - x0)
    cols = []
    for j in range(model.s):
        step = min(1e-3, max(float(dist[j]) / 2.0, 1e-7))
        cols.append(_partial(model.eval_H, x0, j, step))
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class SpectralProfile:
    """Spectral data of the drift Jacobian at the fixed point."""

    J: np.ndarray
    eigenvalues: np.ndarray  # with algebraic multiplicity
    tau: float
    kappa: int
    clusters: tuple  # of dicts: value, multiplicity, block_sizes
    # per top cluster when kappa = 1: right and left eigenvectors (V, W) with
    # W^T V = I, or the reason they cannot be paired
    top_pairs: tuple = ()
    exact_tau: bool = False


def _rank(mat, threshold):
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > threshold))


CLUSTER_TOL = 1e-7  # eigenvalue clustering; also matches the top clusters' eigenvectors


def _cluster_eigenvalues(eig, scale, rcond):
    """Agglomerative eigenvalue clustering.

    A defective eigenvalue of multiplicity m computed in finite precision
    splits into a ring of radius about (eps * scale)^(1/m), far wider than
    any fixed tight tolerance. Ring members carry near-zero reciprocal
    eigenvalue condition numbers, so clusters touching an ill-conditioned
    eigenvalue merge at the ring scale while well-conditioned (simple)
    eigenvalues keep the tight tolerance. The exponent is capped at 1/4:
    block sizes beyond 4 are outside the supported detection range.
    """
    eps = np.finfo(float).eps
    n = len(eig)
    ill = rcond < 1e-3
    groups = [[complex(eig[i]), [i]] for i in range(n)]

    ring_scale = 10.0 * (eps * max(1.0, scale)) ** 0.25

    def gap_threshold(a, b):
        touchy = any(ill[i] for i in groups[a][1]) or any(ill[i] for i in groups[b][1])
        return max(CLUSTER_TOL, ring_scale) if touchy else CLUSTER_TOL

    merged = True
    while merged and len(groups) > 1:
        merged = False
        best = None
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                ca = groups[a][0] / len(groups[a][1])
                cb = groups[b][0] / len(groups[b][1])
                gap = abs(ca - cb)
                if gap <= gap_threshold(a, b) and (best is None or gap < best[0]):
                    best = (gap, a, b)
        if best is not None:
            _, a, b = best
            groups[a][0] += groups[b][0]
            groups[a][1].extend(groups[b][1])
            del groups[b]
            merged = True
    out = [(grp[0] / len(grp[1]), grp[1]) for grp in groups]
    out.sort(key=lambda item: -item[0].real)
    return out


def _block_sizes_for_cluster(J, lam, members, eig):
    """Jordan block sizes for one eigenvalue cluster by rank gaps.

    Works on the cluster's invariant block of the complex Schur form, so
    eigenvalues from other clusters cannot contaminate the rank tests.
    """
    m = len(members)
    if m == 1:
        return [1]
    spread = max(abs(eig[i] - lam) for i in members)
    # the Schur recomputation spreads a defective ring slightly differently
    # than the eigensolver; widen the capture radius until the invariant
    # subspace has the right dimension
    import scipy.linalg

    Tc = None
    for factor in (2.0, 10.0, 50.0):
        sort_tol = max(CLUSTER_TOL, factor * spread + 1e3 * np.finfo(float).eps)
        T, Z, sdim = scipy.linalg.schur(
            J.astype(complex), output="complex", sort=lambda z: abs(z - lam) <= sort_tol
        )
        if sdim == m:
            Tc = T[:m, :m] - lam * np.eye(m)
            diag_spread = float(np.max(np.abs(np.diag(T)[:m] - lam)))
            spread = max(spread, diag_spread)
            break
    if Tc is None:
        return None
    sigma1 = max(1.0, float(np.linalg.norm(Tc, 2)))
    power = np.eye(m, dtype=complex)
    ranks = [m]
    for k in range(1, m + 1):
        power = power @ Tc
        threshold = max(50.0 * m * np.finfo(float).eps * sigma1 ** k, 10.0 * spread * sigma1 ** (k - 1))
        ranks.append(_rank(power, threshold))
    # blocks of size >= k: rank(N^{k-1}) - rank(N^k)
    counts = [ranks[k - 1] - ranks[k] for k in range(1, m + 1)]
    if any(c < 0 for c in counts) or sum(counts) == 0:
        return None
    sizes = []
    for k in range(m, 0, -1):
        exactly_k = counts[k - 1] - (counts[k] if k < m else 0)
        sizes.extend([k] * exactly_k)
    if sum(sizes) != m:
        return None
    return sorted(sizes, reverse=True)


def spectral_profile_from_jacobian(J) -> SpectralProfile:
    """Eigenvalues, tau, kappa, and per-eigenvalue Jordan block sizes.

    The eigenvalues are clustered once (:func:`_cluster_eigenvalues`) and
    each cluster is sized once (:func:`_block_sizes_for_cluster`). A
    cluster that cannot be sized, or whose blocks all have size 1 although
    it holds an eigenvalue with reciprocal condition number below 1e-3 (a
    member of a defective ring), raises ``jacobian-nonsmooth``: no verdict
    is read off an unresolved structure.

    When kappa = 1, ``top_pairs`` holds each top cluster's eigenvectors,
    or the reason they cannot be paired, for :func:`sigma2_critical`.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    import scipy.linalg

    eig, wl, vr = scipy.linalg.eig(J, left=True, right=True)
    scale = float(np.linalg.norm(J, 2))
    # reciprocal eigenvalue condition numbers; defective ring members have
    # values near zero
    rcond = np.abs(np.einsum("ij,ij->j", wl.conj(), vr))
    rcond /= np.linalg.norm(wl, axis=0) * np.linalg.norm(vr, axis=0)

    clusters = []
    for lam, members in _cluster_eigenvalues(eig, scale, rcond):
        sizes = _block_sizes_for_cluster(J, lam, members, eig)
        if sizes is None or (max(sizes) == 1 and any(rcond[i] < 1e-3 for i in members)):
            raise TheoryError(f"jacobian-nonsmooth: unresolved Jordan structure near eigenvalue {complex(lam)}")
        clusters.append({"value": complex(lam), "multiplicity": len(members), "block_sizes": tuple(sizes)})

    tau = max(c["value"].real for c in clusters)
    top = [c for c in clusters if abs(c["value"].real - tau) <= CLUSTER_TOL]
    kappa = max(max(c["block_sizes"]) for c in top)

    top_pairs = []
    if kappa == 1:
        (vals_r, vecs_r), (vals_l, vecs_l) = np.linalg.eig(J), np.linalg.eig(J.T)
        for c in top:
            lam, m = c["value"], c["multiplicity"]
            ridx = np.flatnonzero(np.abs(vals_r - lam) <= CLUSTER_TOL)
            lidx = np.flatnonzero(np.abs(vals_l - lam) <= CLUSTER_TOL)
            if len(ridx) != m or len(lidx) != m:
                top_pairs.append(f"eigenvector-pairing: {len(ridx)} right and {len(lidx)} left "
                                 f"eigenvectors for top eigenvalue {lam} of multiplicity {m}")
                continue
            V, W = vecs_r[:, ridx], vecs_l[:, lidx]
            # enforce the dual-basis condition W^T V = I on the whole
            # eigenspace (bilinear pairing; per-vector scaling is not
            # enough when the eigenvalue repeats)
            G = W.T @ V
            if abs(np.linalg.det(G)) < 1e-12:
                top_pairs.append(f"eigenvector-pairing: left and right eigenvectors of top eigenvalue {lam} "
                                 "are near orthogonal")
            else:
                top_pairs.append((V, W @ np.linalg.inv(G).T))

    return SpectralProfile(
        J=J,
        eigenvalues=eig,
        tau=float(tau),
        kappa=int(kappa),
        clusters=tuple(clusters),
        top_pairs=tuple(top_pairs),
    )


def spectral_profile(model: ValidatedModel, x0) -> SpectralProfile:
    """Spectral profile of the model drift at x0.

    Presets that registered a closed-form top eigenvalue override the
    numerically computed tau (floating-point classification at the exact
    phase boundary is meaningless otherwise).
    """
    exact = model.meta.get("exact", {})
    if model.s == 1 and exact.get("h_derivs"):
        J = np.array([[float(exact["h_derivs"][0])]])
    else:
        J = jacobian(model, x0)
    profile = spectral_profile_from_jacobian(J)
    if "tau" in exact:
        exact_tau = float(exact["tau"])
        if abs(exact_tau - profile.tau) > 1e-4:
            raise TheoryError(
                f"registered top eigenvalue {exact_tau} disagrees with numerics {profile.tau}"
            )
        profile = replace(profile, tau=exact_tau, exact_tau=True)
    return profile


# ---------------------------------------------------------------------------
# Asymptotic covariances


def solve_sigma1(J, Sigma0):
    """Diffusive covariance: (J - I/2) X + X (J - I/2)^T = -Sigma0.

    Valid when every eigenvalue of J has real part < 1/2. The scalar case is
    returned exactly as Sigma0 / (1 - 2 tau).
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    Sigma0 = np.atleast_2d(np.asarray(Sigma0, dtype=float))
    s = J.shape[0]
    M = J - 0.5 * np.eye(s)
    if np.max(np.linalg.eigvals(M).real) >= 0:
        raise TheoryError("lyapunov-singular: drift Jacobian has eigenvalue real part >= 1/2")
    if s == 1:
        return Sigma0 / (1.0 - 2.0 * J[0, 0])
    import scipy.linalg

    X = scipy.linalg.solve_continuous_lyapunov(M, -Sigma0)
    X = 0.5 * (X + X.T)
    residual = np.linalg.norm(M @ X + X @ M.T + Sigma0)
    if residual > 1e-10 * max(np.linalg.norm(Sigma0), 1e-300):
        raise TheoryError(f"lyapunov-singular: residual {residual:.3e} too large")
    return X


def sigma2_critical(profile: SpectralProfile, Sigma0):
    """Critical covariance from the top-eigenvalue eigenvector formula.

    Only the diagonalizable-at-top case (kappa = 1) is computed from
    numerical eigenvectors: cross terms pair eigenvectors belonging to the
    same top cluster, the (V, W) pairs of ``profile.top_pairs``. Defective
    tops need exact chain data, which numerics do not give, and are
    refused; so is a top cluster whose eigenvectors could not be paired.
    """
    if profile.kappa != 1:
        raise TheoryError("unavailable-numerically: critical covariance needs exact block data when kappa > 1")
    Sigma0 = np.atleast_2d(np.asarray(Sigma0, dtype=float))
    s = Sigma0.shape[0]
    out = np.zeros((s, s), dtype=complex)
    for pair in profile.top_pairs:
        if isinstance(pair, str):
            raise TheoryError(pair)
        V, W = pair
        for j1 in range(V.shape[1]):
            for j2 in range(V.shape[1]):
                out += np.outer(V[:, j1], V[:, j2]) * (W[:, j1] @ Sigma0 @ W[:, j2])
    if np.max(np.abs(out.imag)) > 1e-8 * max(1.0, np.max(np.abs(out.real))):
        raise TheoryError("critical covariance came out non-real; eigenvector pairing failed")
    return out.real


# ---------------------------------------------------------------------------
# Expansion coefficients


def enumerate_partitions(i: int, t: int) -> list:
    """Nondecreasing i-tuples of positive integers summing to t, with the
    count of distinct arrangements of each tuple."""
    if not 1 <= i <= t:
        return []

    def rec(parts, minimum, remaining):
        if parts == 1:
            if remaining >= minimum:
                yield (remaining,)
            return
        for c in range(minimum, remaining // parts + 1):
            for rest in rec(parts - 1, c, remaining - c):
                yield (c,) + rest

    out = []
    for tup in rec(i, 1, t):
        nu = math.factorial(i)
        for v in set(tup):
            nu //= math.factorial(tup.count(v))
        out.append((tup, nu))
    return out


def expansion_coeffs(derivs, tau: float, m: int):
    """Recursive coefficients of the superdiffusive deviation expansion.

    ``derivs`` lists the drift-map derivatives of orders 2..m+1 at the fixed
    point (auxiliary scale). Returns
    (coefficients c_1..c_{m+1} with c_1 = 1, m0) where m0 is the number of
    correction terms beyond the linear one in the supercritical regime.
    """
    if abs(1.0 - tau) < 1e-12:
        raise TheoryError("tau-equals-one: expansion undefined at the boundary")
    derivs = [float(v) for v in derivs]
    if len(derivs) < m:
        raise TheoryError(f"need derivatives of orders 2..{m + 1}, got {len(derivs)}")
    coeffs = [1.0]
    for j in range(1, m + 1):
        total = 0.0
        for i in range(2, j + 2):
            term = 0.0
            for tup, nu in enumerate_partitions(i, j + 1):
                prod = 1.0
                for c in tup:
                    prod *= coeffs[c - 1]
                term += nu * prod
            total += derivs[i - 2] / math.factorial(i) * term
        coeffs.append(-total / (j * (1.0 - tau)))
    m0 = None
    if 0.5 < tau < 1.0:
        m0 = int(math.floor((tau - 0.5) / (1.0 - tau) + 1e-12))
    return coeffs, m0


# ---------------------------------------------------------------------------
# Regime report


def plain(value):
    """``value`` with numpy arrays and scalars, also inside dicts, lists and
    tuples, turned into the Python objects JSON writes."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def report_dict(report, skip=()) -> dict:
    """A report dataclass as a JSON-ready dict: every field not in ``skip``,
    through :func:`plain`."""
    return {f.name: plain(getattr(report, f.name)) for f in fields(report) if f.name not in skip}


@dataclass
class RegimeReport:
    """Everything the limit theorems predict for one model."""

    x0: np.ndarray
    limit: np.ndarray  # A x0 + b
    regime: str  # Diffusive | Critical | Supercritical | Unsupported
    tau: float
    kappa: int
    eta: Optional[float] = None  # 1-d alias of tau
    eta1: Optional[float] = None  # 1-d second derivative at the fixed point
    sigma0: Optional[np.ndarray] = None
    sigma1: Optional[np.ndarray] = None
    sigma2: Optional[np.ndarray] = None
    clt_variance: Optional[np.ndarray] = None  # observed-walk covariance
    lil_constant: Optional[float] = None
    residual_variance: Optional[float] = None  # supercritical 1-d residual CLT
    expansion_b: Optional[list] = None  # auxiliary-scale coefficients
    expansion_beta: Optional[list] = None  # observed-walk coefficients
    m0: Optional[int] = None
    downcrossing: Optional[DowncrossingResult] = None
    profile: Optional[SpectralProfile] = None
    notes: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            **report_dict(self, skip=("downcrossing", "profile")),
            "downcrossing": None if self.downcrossing is None else report_dict(self.downcrossing),
            "eigenvalues": None
            if self.profile is None
            else [[z.real, z.imag] for z in np.atleast_1d(self.profile.eigenvalues)],
            "block_table": None
            if self.profile is None
            else [
                {"value": [c["value"].real, c["value"].imag], "block_sizes": list(c["block_sizes"])}
                for c in self.profile.clusters
            ],
        }


def _h_derivatives(model: ValidatedModel, x0, upto: int) -> list:
    """Drift-map derivatives H', H'', ... at x0 (s = 1), exact when known."""
    exact = model.meta.get("exact", {})
    max_order = exact.get("max_smooth_order", None)
    limit = upto if max_order is None else min(upto, max_order)
    listed = exact.get("h_derivs")
    if listed is not None:
        out = [float(v) for v in listed]
        if max_order is None:
            out += [0.0] * max(0, upto - len(out))
        return out[:limit]
    mu = float(model.mu[0])
    return [value * mu for value in funcdsl.derivatives(model.spec.prob_maps[0], float(x0[0]), limit)]


REGIME_TOL = 1e-9


def _regime(tau: float) -> str:
    """The regime of a top eigenvalue real part: the one statement of the
    thresholds 1/2 +- REGIME_TOL and 1 - REGIME_TOL."""
    if tau >= 1.0 - REGIME_TOL:
        return "Unsupported"
    if tau < 0.5 - REGIME_TOL:
        return "Diffusive"
    if tau <= 0.5 + REGIME_TOL:
        return "Critical"
    return "Supercritical"


def asymptotic_covariances(model: ValidatedModel, x0, profile: SpectralProfile):
    """Sigma0 plus the regime-appropriate limit covariance.

    Returns (sigma0, limit_sigma, clt_covariance, lil_constant): the limit
    covariance is the diffusive Lyapunov solution for tau < 1/2, the
    critical eigenvector form at tau = 1/2, and None otherwise;
    clt_covariance maps it through the observation matrix. The scalar
    iterated-logarithm constant comes back for s = 1 models in the
    diffusive and critical regimes.
    """
    x0 = np.asarray(x0, dtype=float)
    sigma0 = model.noise_second_moment(x0)
    regime = _regime(profile.tau)
    limit_sigma = clt_cov = lil_constant = None
    if regime == "Diffusive":
        limit_sigma = solve_sigma1(profile.J, sigma0)
    elif regime == "Critical":
        limit_sigma = sigma2_critical(profile, sigma0)
    if limit_sigma is not None:
        A = model.spec.A
        clt_cov = A @ limit_sigma @ A.T
        if model.s == 1:
            lil_constant = math.sqrt(max(float(clt_cov[0, 0]), 0.0))
    return sigma0, limit_sigma, clt_cov, lil_constant


def classify(model: ValidatedModel) -> RegimeReport:
    """Full analytic report: regime plus every applicable limit constant."""
    exact = model.meta.get("exact", {})
    notes = []
    if "x0" in exact:
        x0 = np.asarray(exact["x0"], dtype=float)
        notes.append("fixed point from closed form")
        numeric_x0 = find_fixed_point(model)
        if np.max(np.abs(numeric_x0 - x0)) > 1e-6:
            raise TheoryError(f"registered fixed point {x0} disagrees with numerics {numeric_x0}")
    else:
        x0 = find_fixed_point(model)
    down = check_downcrossing(model, x0)
    if not down.verified:
        notes.append(f"downcrossing violated on grid at {down.argmax.tolist()} (value {down.max_value:.3e})")

    profile = spectral_profile(model, x0)
    tau, kappa = profile.tau, profile.kappa
    if profile.exact_tau:
        notes.append("top eigenvalue from closed form")

    A = model.spec.A
    limit = A @ x0 + model.spec.b
    report = RegimeReport(
        x0=x0,
        limit=limit,
        regime=_regime(tau),
        tau=tau,
        kappa=kappa,
        downcrossing=down,
        profile=profile,
        notes=notes,
        provenance={
            "grid_density": GRID_DENSITY,
            "regime_tol": REGIME_TOL,
            "exact_tau": profile.exact_tau,
        },
    )
    if model.s == 1:
        report.eta = tau

    if report.regime == "Unsupported":
        notes.append("top eigenvalue real part at or above 1: outside the supported regimes")
        return report

    try:
        report.sigma0, limit_sigma, report.clt_variance, report.lil_constant = asymptotic_covariances(model, x0, profile)
    except TheoryError as exc:
        # a critical covariance that cannot be computed is only a note
        if report.regime != "Critical":
            raise
        notes.append(str(exc))
        report.sigma0, limit_sigma = model.noise_second_moment(x0), None
    if report.regime == "Diffusive":
        report.sigma1 = limit_sigma
    elif report.regime == "Critical":
        report.sigma2 = limit_sigma

    derivs = _h_derivatives(model, x0, upto=7) if model.s == 1 else []
    if model.s == 1 and len(derivs) >= 2:
        report.eta1 = derivs[1]

    if report.regime == "Supercritical":
        if model.s == 1:
            sig2_x0 = float(report.sigma0[0, 0])
            a2 = float(A[0, 0]) ** 2
            report.residual_variance = a2 * sig2_x0 / (2.0 * tau - 1.0)
        complex_top = [
            c["value"].imag
            for c in profile.clusters
            if abs(c["value"].real - tau) <= REGIME_TOL and abs(c["value"].imag) > REGIME_TOL
        ]
        if complex_top:
            freqs = ", ".join(f"{w:+.6g}" for w in sorted(set(round(w, 12) for w in complex_top)))
            notes.append(
                f"complex top eigenvalues: oscillatory corrections exp(i w log n), w in {{{freqs}}}, "
                "reported symbolically only (no stable estimator at finite horizons)"
            )

    if model.s == 1 and derivs:
        m_avail = max(0, min(len(derivs), 7) - 1)
        b_coeffs, m0 = expansion_coeffs(derivs[1 : m_avail + 1], tau, m_avail)
        report.expansion_b = b_coeffs
        a_scalar = float(A[0, 0])
        report.expansion_beta = [b / a_scalar ** j for j, b in enumerate(b_coeffs)]
        report.m0 = m0

    return report
