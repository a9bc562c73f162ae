"""Scalar replay of the walk: one trajectory, one step at a time.

The reference the general ensemble kernel is tested against. It draws from
a real ``SeedSequence``-built Philox generator, two uniforms per step, and
evaluates the block probabilities through the full
:meth:`ValidatedModel.block_probs`.
"""

from dataclasses import dataclass

import numpy as np

from erwlab.model import ValidatedModel
from erwlab.simulate import check_master_seed, trajectory_seed


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
        return model.observe(self.s_aux, self.n)


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
