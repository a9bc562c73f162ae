"""Exact (non-Monte-Carlo) laws of the walk at small horizons.

The auxiliary walk is a time-inhomogeneous Markov chain in its own position,
so its exact law can be pushed forward step by step: a dense O(n^2) table for
one-dimensional unit-step models, and a sparse law over the reached
positions for any model. ``_MAX_STATES`` bounds both: at most that many
state x block x atom entries in a step, their only bound on n. Both
evaluate the maps in batches, and both return the float sums, in the same
order, that a scalar step-by-step or state-by-state loop gives
(``tests/oracle_reference.py`` holds those loops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelError, ValidatedModel


class OracleError(ModelError):
    pass


@dataclass(frozen=True)
class ExactLaw1D:
    """P(V_n = k), k = 0..n, for a unit-step one-dimensional model."""

    n: int
    pmf: np.ndarray
    A: float
    b: float

    def moments_observed(self):
        """Exact mean and variance of S_n = A V_n + n b."""
        ks = np.arange(self.n + 1, dtype=float)
        s_vals = self.A * ks + self.n * self.b
        mean = math.fsum((self.pmf * s_vals).tolist())
        var = math.fsum((self.pmf * (s_vals - mean) ** 2).tolist())
        return mean, var


def is_unit_step_1d(model: ValidatedModel) -> bool:
    """True for s = 1 with the single step atom 1 and every initial atom exactly
    0 or 1, the models :func:`exact_dp_1d` takes."""
    law = model.spec.step_law
    return (
        model.s == 1
        and law.atoms.shape == (1, 1)
        and law.atoms[0, 0] == 1.0
        and bool(np.isin(model.spec.initial.atoms, (0.0, 1.0)).all())
    )


_DP_POINTS = 32_768  # map points per block_probs call in exact_dp_1d: 256 KB per array
_MAX_STATES = 1_000_000  # state x block x atom entries one step of either oracle may hold


def exact_dp_1d(model: ValidatedModel, n: int) -> ExactLaw1D:
    """Exact law of V_n by forward dynamic programming, n >= 1.

    Transition: from V_t = k the next auxiliary increment is +1 with
    probability P_1(k/t), else 0. Time 1 is drawn from the initial law.
    The maps of consecutive steps are evaluated together, in
    ``block_probs`` calls of at most ``_DP_POINTS`` points (one step's
    points at least), written by one division per step into one reused
    buffer; the loop over steps then only moves the mass between two
    (n + 1,) buffers. The stay probability is ``block_probs``' last row,
    which at r = 2 is ``1 - P_1`` and at r = 1 (no map) is the move
    itself, so there it is ``1 - up``. The last step moves n states x r
    blocks: above ``_MAX_STATES`` that raises ``too-many-states``, as
    :func:`enumerate_small_multi` does, before any step runs.
    """
    if not is_unit_step_1d(model):
        raise OracleError("unsupported-model: exact DP needs s=1 with unit steps and V_1 in {0,1}")
    if n < 1:
        raise OracleError(f"exact DP horizon must be n >= 1, got {n}")
    if n > 1 and n * model.r > _MAX_STATES:
        raise OracleError(f"too-many-states: {n} states x {model.r} (block, atom) pairs at t={n - 1}")
    pmf, nxt, prod = np.zeros(n + 1), np.empty(n + 1), np.empty(n + 1)
    for atom, prob in zip(model.spec.initial.atoms, model.spec.initial.probs):
        pmf[int(atom[0])] += prob
    ks = np.arange(n, dtype=float)
    # steps 1..n-1 take 2..n points, (n - 1)(n + 2) / 2 in all; a call takes
    # at most _DP_POINTS of them, or one step's when that is more
    pts = np.empty(min(max(_DP_POINTS, n), (n - 1) * (n + 2) // 2))
    t = 1
    while t < n:
        stop, size = t + 1, t + 1  # steps t..stop-1 take `size` points
        while stop < n and size + stop + 1 <= _DP_POINTS:
            size += stop + 1
            stop += 1
        lo = 0
        for u in range(t, stop):  # step u evaluates the map at k/u, k = 0..u
            np.divide(ks[:u + 1], u, out=pts[lo:lo + u + 1])
            lo += u + 1
        probs = model.block_probs(pts[:size, None])
        up = probs[0]
        stay = probs[1] if model.r == 2 else 1.0 - up
        lo = 0
        for u in range(t, stop):
            hi = lo + u + 1
            np.multiply(pmf[:u + 1], stay[lo:hi], out=nxt[:u + 1])
            nxt[u + 1] = 0.0
            np.multiply(pmf[:u + 1], up[lo:hi], out=prod[:u + 1])
            np.add(nxt[1:u + 2], prod[:u + 1], out=nxt[1:u + 2])
            pmf, nxt, lo = nxt, pmf, hi
        t = stop
    total = math.fsum(pmf.tolist())
    if abs(total - 1.0) > 1e-12:
        raise OracleError(f"probability mass drifted to {total}")
    return ExactLaw1D(n=n, pmf=pmf, A=float(model.spec.A[0, 0]), b=float(model.spec.b[0]))


def _merge(keys: np.ndarray, probs: np.ndarray):
    """Sum ``probs`` over equal rows of ``keys``, as a dict would.

    Rows compare by value, so ``-0.0 == 0.0`` as for dict keys. The merged
    keys come in order of first appearance and keep the bits of that
    appearance; each sum is taken in row order, starting from 0.0.
    """
    order = np.lexsort(keys.T)  # stable: equal rows stay in row order
    ordered = keys[order]
    starts = np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
    first = order[starts]  # the first row of each distinct key
    label = np.empty(order.size, dtype=np.intp)
    label[order] = np.argsort(np.argsort(first))[np.cumsum(starts) - 1]
    sums = np.zeros(first.size)
    np.add.at(sums, label, probs)
    return keys[np.sort(first)], sums


def enumerate_small_multi(model: ValidatedModel, n: int) -> dict:
    """Exact sparse law of the auxiliary position at time n >= 1, any model.

    Returns a dict mapping position tuples to probabilities, in order of
    first appearance. The chain is Markov in its position, so the law is
    pushed forward one step at a time with equal positions merged: one
    ``block_probs`` call per step on all current states, a contribution
    ``(prob * P_i) * w`` for every (state, block, atom) with ``P_i != 0``,
    and the contributions summed per position in that order. Every
    probability is the float sum a dict of positions, filled state by
    state, gives. Before each step, states x r x atoms above ``_MAX_STATES``
    raises ``too-many-states``: that bounds the step's work and memory, and
    it is the only bound on n.
    """
    if n < 1:
        raise OracleError(f"exhaustive horizon must be n >= 1, got {n}")
    law = model.spec.step_law
    n_atoms = law.atoms.shape[0]
    n_entries = model.r * n_atoms
    steps = model.step_table  # (r, atoms, s)
    initial = model.spec.initial
    pos, probs = _merge(initial.atoms, initial.probs)
    for t in range(1, n):
        if len(pos) * n_entries > _MAX_STATES:
            raise OracleError(f"too-many-states: {len(pos)} states x {n_entries} (block, atom) pairs at t={t}")
        bp = model.block_probs(pos / t).T  # (K, r)
        keep = np.repeat(bp.ravel() != 0.0, n_atoms)
        keys = (pos[:, None, None, :] + steps).reshape(-1, model.s)
        contrib = ((probs[:, None] * bp)[:, :, None] * law.probs).ravel()
        pos, probs = _merge(keys[keep], contrib[keep])
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > 1e-12:
        raise OracleError(f"probability mass drifted to {total}")
    return dict(zip(map(tuple, pos.tolist()), probs.tolist()))


def exact_moments(law, A, b, n):
    """Exact mean vector and covariance of S_n = A s_aux + n b under the
    sparse law of :func:`enumerate_small_multi` (an :class:`ExactLaw1D`
    gives its own through ``moments_observed``)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    positions = np.array([list(k) for k in law.keys()], dtype=float)
    probs = np.array(list(law.values()))
    s_vals = positions @ A.T + float(n) * b
    mean = probs @ s_vals
    centered = s_vals - mean
    cov = (centered.T * probs) @ centered
    return mean, cov
