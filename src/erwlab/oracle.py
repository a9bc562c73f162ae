"""Exact (non-Monte-Carlo) laws of the walk at small horizons.

The auxiliary walk is a time-inhomogeneous Markov chain in its own position,
so its exact law can be pushed forward step by step: a dense O(n^2) table for
one-dimensional unit-step models, and a sparse state-space sum (grouped
path-probability summation) for small multidimensional models.
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
    """True for s = 1 with the single step atom 1, the models :func:`exact_dp_1d` takes."""
    law = model.spec.step_law
    return model.s == 1 and law.atoms.shape == (1, 1) and law.atoms[0, 0] == 1.0


def exact_dp_1d(model: ValidatedModel, n: int) -> ExactLaw1D:
    """Exact law of V_n by forward dynamic programming, n <= 2000.

    Transition: from V_t = k the next auxiliary increment is +1 with
    probability P_1(k/t), else 0. Time 1 is drawn from the initial law.
    """
    if not is_unit_step_1d(model):
        raise OracleError("unsupported-model: exact DP needs s=1 with unit steps")
    if not 1 <= n <= 2000:
        raise OracleError("exact DP horizon limited to 1 <= n <= 2000")
    pmf = np.zeros(2)
    for atom, prob in zip(model.spec.initial.atoms, model.spec.initial.probs):
        k = int(round(atom[0]))
        if k not in (0, 1):
            raise OracleError("unsupported-model: initial law must put V_1 in {0,1}")
        pmf[k] += prob
    for t in range(1, n):
        ks = np.arange(t + 1, dtype=float)
        up = model.block_probs((ks / t)[:, None])[0]
        nxt = np.zeros(t + 2)
        nxt[: t + 1] += pmf * (1.0 - up)
        nxt[1:] += pmf * up
        pmf = nxt
    total = math.fsum(pmf.tolist())
    if abs(total - 1.0) > 1e-12:
        raise OracleError(f"probability mass drifted to {total}")
    return ExactLaw1D(n=n, pmf=pmf, A=float(model.spec.A[0, 0]), b=float(model.spec.b[0]))


def enumerate_small_multi(model: ValidatedModel, n: int, max_paths: int = 10_000_000) -> dict:
    """Exact sparse law of the auxiliary position at time n <= 12.

    Returns a dict mapping position tuples to probabilities. Implemented as
    an exact path-probability summation with states merged by position (the
    chain is Markov in its position, so grouping loses nothing); the
    ``max_paths`` guard bounds the expanded work r^n * atoms^n.
    """
    if n < 1 or n > 12:
        raise OracleError("exhaustive horizon limited to n <= 12")
    law = model.spec.step_law
    n_atoms = law.atoms.shape[0]
    if (model.r * n_atoms) ** n > max_paths:
        raise OracleError("too-many-paths")
    states = {}
    for atom, prob in zip(model.spec.initial.atoms, model.spec.initial.probs):
        key = tuple(float(v) for v in atom)
        states[key] = states.get(key, 0.0) + float(prob)
    masks = model.block_masks
    for t in range(1, n):
        nxt = {}
        for pos, prob in states.items():
            x = np.asarray(pos) / t
            bp = model.block_probs(x)
            for i in range(model.r):
                pi = float(bp[i])
                if pi == 0.0:
                    continue
                for atom, w in zip(law.atoms, law.probs):
                    step = atom * masks[i]
                    key = tuple(float(v) for v in np.asarray(pos) + step)
                    nxt[key] = nxt.get(key, 0.0) + prob * pi * float(w)
        states = nxt
    total = math.fsum(states.values())
    if abs(total - 1.0) > 1e-12:
        raise OracleError(f"probability mass drifted to {total}")
    return states


def exact_moments(law, A=None, b=None, n=None):
    """Exact mean vector and covariance of S_n = A s_aux + n b.

    ``law`` is either an :class:`ExactLaw1D` or a sparse dict from
    :func:`enumerate_small_multi` (then A, b, n must be given).
    """
    if isinstance(law, ExactLaw1D):
        mean, var = law.moments_observed()
        return np.array([mean]), np.array([[var]])
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    positions = np.array([list(k) for k in law.keys()], dtype=float)
    probs = np.array(list(law.values()))
    s_vals = positions @ A.T + float(n) * b
    mean = probs @ s_vals
    centered = s_vals - mean
    cov = (centered.T * probs) @ centered
    return mean, cov


def observed_pmf(law, A=None, b=None, n=None, decimals: int = 9) -> dict:
    """Collapse an auxiliary law to the law of the observed position."""
    if isinstance(law, ExactLaw1D):
        out = {}
        for k, w in enumerate(law.pmf):
            key = (round(float(law.A * k + law.n * law.b), decimals),)
            out[key] = out.get(key, 0.0) + float(w)
        return out
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    out = {}
    for pos, w in law.items():
        s = np.asarray(pos) @ A.T + float(n) * b
        key = tuple(round(float(v), decimals) for v in s)
        out[key] = out.get(key, 0.0) + float(w)
    return out
