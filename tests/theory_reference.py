"""Independent cross-checks of the limit theory, kept for the tests.

:func:`reference_damped_search` is the s > 1 search of
:func:`erwlab.theory.find_fixed_point` written with a gather from and a
scatter into every start's row each round, and a fresh active set;
:func:`reference_midpoint_table` tabulates the bisection's midpoints with
numpy arrays, where :func:`erwlab.theory._midpoint_table` uses Python floats.
:func:`sigma1_quadrature` integrates the matrix exponential numerically,
where :func:`erwlab.theory.solve_sigma1` solves the Lyapunov equation.
:func:`reference_validation_grid` and :func:`reference_check_downcrossing`
build the whole Cartesian grid with ``np.meshgrid`` and filter it afterwards,
where :mod:`erwlab.model` builds only the rows it keeps.
:func:`reference_jacobian` evaluates the drift one stencil point at a time,
where :func:`erwlab.theory.jacobian` evaluates the whole stencil in one call.
:func:`observed_expansion_coeffs` runs the expansion recursion of
:func:`erwlab.theory.expansion_coeffs` on the scale of the observed +/-1
walk, whose coefficients are the auxiliary ones divided by 2^j.
"""

import math
from typing import Optional

import numpy as np
import scipy.linalg

from erwlab.theory import DowncrossingResult, TheoryError, _feasible_map, enumerate_partitions


def reference_damped_search(model):
    """The damped multistart iteration of :func:`erwlab.theory.find_fixed_point`
    (s > 1): each round gathers the active starts' rows of ``x``, scatters
    their new iterates back and recomputes the active set."""
    dom = model.domain
    span = np.minimum(dom.upper, dom.lower + 1.0) - dom.lower
    offs = np.array([[(corner >> j) & 1 for j in range(model.s)] for corner in range(2 ** min(model.s, 3))],
                    dtype=float)
    feasible = _feasible_map(model)
    x = feasible(np.vstack([dom.lower + 0.5 * span, dom.lower + (0.1 + 0.8 * offs) * span]))
    active = np.ones(len(x), dtype=bool)  # a converged start keeps the iterate of its last round
    for _ in range(20000):
        rows = np.flatnonzero(active)
        xr = x[rows]
        delta = model.eval_H(xr) - xr
        x[rows] = feasible(xr + 0.5 * delta)
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


def reference_midpoint_table(a, b, depth):
    """:func:`erwlab.theory._midpoint_table` on numpy arrays, one level of
    brackets at a time."""
    ends, mids = np.array([a, b]), []
    for _ in range(depth):
        mid = 0.5 * (ends[:-1] + ends[1:])  # the brackets of one level, left to right
        mids.append(mid)
        split = np.empty(2 * len(ends) - 1)
        split[0::2], split[1::2] = ends, mid
        ends = split
    return np.concatenate(mids)


def _axes(dom, density: int, clip: float) -> list:
    per_axis = min(density, max(2, int(1e5 ** (1.0 / dom.s))))
    return [np.linspace(lo, lo + clip if math.isinf(hi) else hi, per_axis) for lo, hi in zip(dom.lower, dom.upper)]


def reference_validation_grid(spec, density: int, clip: float) -> tuple:
    """``(grid, interior)`` of :func:`erwlab.model.validation_grid`: the
    whole meshgrid product, then the ``simplex_cap`` filter on its rows."""
    dom = spec.domain
    mesh = np.meshgrid(*_axes(dom, density, clip), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    cap = spec.meta.get("simplex_cap")
    if cap is not None:
        grid = grid[grid.sum(axis=1) <= float(cap) + 1e-12]
    interior = np.all((grid > dom.lower + 1e-12) & (grid < dom.reach - 1e-12), axis=1)
    return grid, interior


def reference_check_downcrossing(model, x0, grid_density: int = 201,
                                 exclusion_radius: float = 1e-6) -> DowncrossingResult:
    """:func:`erwlab.theory.check_downcrossing` on the interior rows of the
    whole grid, with the exclusion norm taken on every row."""
    x0 = np.asarray(x0, dtype=float)
    dom = model.domain
    grid, interior = reference_validation_grid(model.spec, grid_density, 1.0)
    grid = grid[interior]
    if grid.shape[0] == 0:
        axes = _axes(dom, grid_density, 1.0)
        if all(np.any((a > lo + 1e-12) & (a < hi - 1e-12)) for a, lo, hi in zip(axes, dom.lower, dom.reach)):
            cause = (f"no interior point of the {len(axes[0])}-per-axis grid (s = {model.s}) lies within "
                     f"simplex_cap {model.meta['simplex_cap']!r}")
        else:
            cause = f"the {len(axes[0])}-per-axis grid has no interior point"
        raise TheoryError(f"downcrossing grid is empty: {cause}")
    grid = grid[np.linalg.norm(grid - x0, axis=1) > exclusion_radius]
    if grid.shape[0] == 0:
        raise TheoryError(f"downcrossing grid is empty: the exclusion ball of radius {exclusion_radius!r} "
                          f"around x0 = {x0.tolist()} drops every interior point")
    H = model.eval_H(grid)
    values = np.einsum("ij,ij->i", grid - x0, H - grid)
    k = int(np.argmax(values))
    return DowncrossingResult(verified=bool(values[k] < 0.0), max_value=float(values[k]), argmax=grid[k])


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


def reference_jacobian(model, x0) -> np.ndarray:
    """:func:`erwlab.theory.jacobian` with one ``eval_H`` call per stencil
    point: x0 + h e_j, then x0 - h e_j, for each step h and each axis j."""
    x0 = np.asarray(x0, dtype=float)
    dist = np.minimum(x0 - model.domain.lower, model.domain.reach - x0)
    cols = []
    for j in range(model.s):
        step = min(1e-3, max(float(dist[j]) / 2.0, 1e-7))
        cols.append(_partial(model.eval_H, x0, j, step))
    return np.stack(cols, axis=1)


def sigma1_quadrature(J, Sigma0, horizon: Optional[float] = None, panels: int = 10000):
    """Independent check of the diffusive covariance by composite Simpson
    quadrature of the matrix-exponential integral.

    The default horizon grows like 16/(1-2 tau) so the truncated tail stays
    below the 1e-6 relative target for all tau <= 0.45.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    Sigma0 = np.atleast_2d(np.asarray(Sigma0, dtype=float))
    s = J.shape[0]
    M = J - 0.5 * np.eye(s)
    tau = float(np.max(np.linalg.eigvals(J).real))
    if horizon is None:
        horizon = max(40.0, 16.0 / max(1e-6, 1.0 - 2.0 * tau))
    nodes = 2 * panels + 1
    h = horizon / (nodes - 1)
    E_h = scipy.linalg.expm(M * h)
    E = np.eye(s)
    total = np.zeros((s, s))
    for i in range(nodes):
        weight = 1.0 if i in (0, nodes - 1) else (4.0 if i % 2 == 1 else 2.0)
        total += weight * (E @ Sigma0 @ E.T)
        if i < nodes - 1:
            E = E @ E_h
    return total * h / 3.0


def observed_expansion_coeffs(derivs, tau: float, m: int) -> list:
    """Coefficients beta_1..beta_{m+1} of the deviation expansion of the
    observed +/-1 walk: the recursion of
    :func:`erwlab.theory.expansion_coeffs` with ``derivs`` (orders 2..m+1)
    taken as derivatives of the step-up probability, hence the extra
    2^(i-1) in each order-i denominator."""
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
            total += float(derivs[i - 2]) / (math.factorial(i) * 2.0 ** (i - 1)) * term
        coeffs.append(-total / (j * (1.0 - tau)))
    return coeffs
