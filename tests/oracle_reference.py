"""Scalar reference oracles: one state, or one step, per ``block_probs`` call.

The references the vectorized oracles in :mod:`erwlab.oracle` are tested
against, bit for bit. :func:`dp_1d_pmf` pushes the one-dimensional law forward
one step per call; :func:`enumerate_states` pushes a dict of positions forward
one state per call, merging equal positions as dict keys do (the first
appearance keeps its bits) and skipping blocks of probability exactly 0.
Neither checks horizons, guards or models: the oracles do that.
"""

import numpy as np

from erwlab.model import ValidatedModel


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
