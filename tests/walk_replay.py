"""Scalar replay of the walk: one trajectory, one step at a time.

The reference the ensemble kernel is tested against. It draws from
a real ``SeedSequence``-built Philox generator, two uniforms per step, and
evaluates the block probabilities through the full
:meth:`ValidatedModel.block_probs`. :func:`replay_stats` adds the
functionals, updated after every step by :class:`StepRecorder`: the
reference for the kernel's functionals, which are flushed per block.
"""

from dataclasses import dataclass

import numpy as np

from erwlab.model import ModelError, ValidatedModel
from erwlab.simulate import _lil_norm, check_integer, check_master_seed, resolve_checkpoints


def trajectory_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Trajectory ``index``'s SeedSequence: the reference for
    ``simulate.philox_keys``, and through it for ``sa.run_sa``'s stream."""
    check_master_seed(master_seed)
    check_integer("index", index)
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))


@dataclass
class WalkState:
    """Single-trajectory state: time index, auxiliary position, stream.

    ``counts`` aliases the auxiliary position for one-dimensional unit-step
    models (the up-step tally). The stream identity is the (seed, index)
    pair; the generator is positioned right after draw pair ``n``.
    """

    n: int
    s_aux: np.ndarray
    rng: np.random.Generator
    stream: tuple = (0, 0)

    @property
    def counts(self):
        return self.s_aux

    @staticmethod
    def fresh(model: ValidatedModel, seed: int, index: int = 0) -> "WalkState":
        check_master_seed(seed)
        gen = np.random.Generator(np.random.Philox(trajectory_seed(seed, index)))
        return WalkState(n=0, s_aux=np.zeros(model.s), rng=gen, stream=(seed, index))

    def observed(self, model: ValidatedModel) -> np.ndarray:
        """The observed position A s_aux + n b."""
        return self.s_aux @ model.spec.A.T + float(self.n) * model.spec.b


def step(state: WalkState, model: ValidatedModel) -> WalkState:
    """Advance one time step, consuming exactly two uniforms.

    Time 1 draws from the initial law; afterwards the block index comes from
    the probabilities evaluated at the position average and the step atom
    from the step law (the second draw is burnt at time 1 so the budget
    stays fixed).
    """
    u1, u2 = state.rng.random(2)
    spec = model.spec
    if state.n == 0:
        idx = min(int(np.searchsorted(np.cumsum(spec.initial.probs), u1, side="right")),
                  len(spec.initial.probs) - 1)
        move = spec.initial.atoms[idx]
    else:
        probs = model.block_probs(state.s_aux / state.n)
        cum = np.cumsum(probs)
        block = min(int(np.sum(u1 >= cum)), model.r - 1)
        atom_cum = np.cumsum(spec.step_law.probs)
        aidx = min(int(np.searchsorted(atom_cum, u2, side="right")), len(atom_cum) - 1)
        move = spec.step_law.atoms[aidx] * model.block_masks[block]
    return WalkState(n=state.n + 1, s_aux=state.s_aux + move, rng=state.rng, stream=state.stream)


class StepRecorder:
    """Per-step functionals and checkpoint writes into ``out``'s arrays."""

    def __init__(self, model, n_max, checkpoints, cfg, out):
        spec = model.spec
        self.A, self.b = spec.A, spec.b
        if cfg.track_returns and not model.integer_lattice:
            raise ModelError("non-lattice-model: return counting needs d=1 integer-valued positions")
        self.cfg, self.out = cfg, out
        self.cp_set = {cp: j for j, cp in enumerate(checkpoints)}
        self.per_step = cfg.lil_mode is not None or cfg.track_returns
        lil_lo, lil_hi = cfg.lil_window
        self.lil_window = (lil_lo, n_max if lil_hi is None else lil_hi)
        self.center0 = 0.0 if cfg.center is None else np.asarray(cfg.center, dtype=float).reshape(-1)[0]

    def record(self, state, n_now):
        """Update the functionals with the (B, s) positions after step n_now."""
        cfg, out, A, b = self.cfg, self.out, self.A, self.b
        if self.per_step:
            prod = state[:, 0] * A[0, 0] if A.shape[1] == 1 else (state @ A.T)[:, 0]
            obs = prod + n_now * b[0]
            if cfg.track_returns:
                at_zero = obs == 0.0
                out["return_counts"] += at_zero
                out["last_return"][at_zero] = n_now
            if cfg.lil_mode is not None and self.lil_window[0] <= n_now <= self.lil_window[1]:
                z = np.abs(obs / n_now - self.center0) * _lil_norm(n_now, cfg.lil_mode)
                np.maximum(out["lil_max"], z, out=out["lil_max"])
        j = self.cp_set.get(n_now)
        if j is not None:
            out["snn"][:, j, :] = state @ A.T / n_now + b
            if cfg.track_returns:
                out["returns_at"][:, j] = out["return_counts"]


def replay_stats(model: ValidatedModel, n_max: int, seed: int, index: int, checkpoints, cfg) -> dict:
    """Every ``EnsembleStats`` array of trajectory ``index`` of master seed
    ``seed``, with a leading axis of length 1 (None where a functional is off).

    With noise collection, ``noise`` holds the reduction's noise of step t,
    H(x) - (the step), with H from the full ``block_probs`` at
    x = (position after step t - 1) / t.
    """
    checkpoints = resolve_checkpoints(n_max, checkpoints)
    C, lil, returns, noise = len(checkpoints), cfg.lil_mode is not None, cfg.track_returns, cfg.collect_noise
    out = {
        "snn": np.empty((1, C, model.d)),
        "aux_final": np.empty((1, model.s)),
        "lil_max": np.zeros(1) if lil else None,
        "return_counts": np.zeros(1, dtype=np.int64) if returns else None,
        "last_return": np.zeros(1, dtype=np.int64) if returns else None,
        "returns_at": np.zeros((1, C), dtype=np.int64) if returns else None,
        "noise_x": np.empty((1, n_max - 1)) if noise else None,
        "noise_step": np.empty((1, n_max - 1)) if noise else None,
        "noise": np.empty((1, n_max - 1)) if noise else None,
    }
    rec = StepRecorder(model, n_max, checkpoints, cfg, out)
    block_mu = model.block_masks * model.mu
    state = WalkState.fresh(model, seed, index)
    for t in range(n_max):
        after = step(state, model)
        if noise and t > 0:
            x = state.s_aux / t
            move = after.s_aux - state.s_aux
            out["noise_x"][0, t - 1] = x[0]
            out["noise_step"][0, t - 1] = move[0]
            out["noise"][0, t - 1] = (model.block_probs(x) @ block_mu - move)[0]
        state = after
        rec.record(state.s_aux[None], t + 1)
    out["aux_final"][0] = state.s_aux
    return out
