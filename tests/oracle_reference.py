"""Scalar reference oracles: one state, or one step, per ``block_probs`` call.

The references the vectorized oracles in :mod:`erwlab.oracle` are tested
against, bit for bit. :func:`dp_1d_pmf` pushes the one-dimensional law forward
one step per call; :func:`enumerate_states` pushes a dict of positions forward
one state per call, merging equal positions as dict keys do (the first
appearance keeps its bits) and skipping blocks of probability exactly 0.
Neither checks horizons, guards or models: the oracles do that.
:func:`observed_pmf` collapses either law to the law of the observed position.
"""

import numpy as np

from erwlab.model import ValidatedModel
from erwlab.oracle import ExactLaw1D


def dp_1d_pmf(model: ValidatedModel, n: int) -> np.ndarray:
    """P(V_n = k), k = 0..n, for a unit-step model with V_1 in {0, 1}."""
    pmf = np.zeros(2)
    for atom, prob in zip(model.spec.initial.atoms, model.spec.initial.probs):
        pmf[int(round(atom[0]))] += prob
    for t in range(1, n):
        ks = np.arange(t + 1, dtype=float)
        up = model.block_probs((ks / t)[:, None])[0]
        nxt = np.zeros(t + 2)
        nxt[: t + 1] += pmf * (1.0 - up)
        nxt[1:] += pmf * up
        pmf = nxt
    return pmf


def enumerate_states(model: ValidatedModel, n: int) -> dict:
    """Sparse law of the auxiliary position at time n, keyed by position tuple."""
    law = model.spec.step_law
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
    return states


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
