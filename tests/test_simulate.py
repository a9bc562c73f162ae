import math
import warnings

import numpy as np
import pytest

from erwlab import build_preset, ensemble, funcdsl, parse, simulate, validate_model
from erwlab.model import (Domain, InitialLaw, ModelError, ModelSpec, StepLaw, ValidatedModel, check_runtime_probs,
                          clip_ufunc)
from erwlab.simulate import (
    MAX_TRAJECTORIES,
    FunctionalConfig,
    _lil_norm,
    _simulate_batch,
    _uniform_chunks,
    default_checkpoints,
    philox_keys,
)
from walk_replay import WalkState, replay_stats, step, trajectory_seed


def _model(name, **kwargs):
    return validate_model(build_preset(name, **kwargs))


UNIT_STEP_PRESETS = [
    ("erw", dict(p=0.6, q=0.5)),
    ("gerw-1d", dict(f="x^2", p=0.8, q=0.5)),
    ("linear", dict(a=0.0, b=0.7, p=0.6, q=0.5)),
    ("quadratic-sym", dict(p=0.75, q=0.5)),
    ("market", dict(p=0.5, q=0.5)),
    ("minimal", dict(f="x^2", p=0.9, q=0.3)),
    ("poly-g", dict(coeffs=(0.4, 0.2), p=0.7, q=0.5)),
    ("phi-power", dict(phi="tanh", k=2, p=0.7, q=0.5)),
    ("cubic-supercritical", dict(p=0.62, q=0.5)),
    ("gerw-1d", dict(f="x^1.5", p=0.8, q=0.5)),  # a map that does not compile
]

STATS_ARRAYS = ("snn", "aux_final", "lil_max", "return_counts", "last_return", "returns_at", "noise_x",
                "noise_step")


def _assert_matches_replay_stats(model, stats, cfg, indices):
    """Every array of the given trajectories equals the scalar replay's, bit
    for bit, and so does the noise e = H - X that ``sa.noise_moment_check``
    forms from the recorded states and increments."""
    for i in indices:
        ref = replay_stats(model, stats.n_max, stats.master_seed, i, stats.checkpoints, cfg)
        for field in STATS_ARRAYS:
            got = getattr(stats, field)
            if ref[field] is None:
                assert got is None, field
            else:
                assert got[i].dtype == ref[field].dtype, field
                assert got[i].tobytes() == ref[field][0].tobytes(), (i, field)
        if cfg.collect_noise:
            noise = model.eval_H(stats.noise_x[i][:, None])[:, 0] - stats.noise_step[i]
            assert noise.tobytes() == ref["noise"][0].tobytes(), i


def _small_chunks(monkeypatch, doubles, B):
    """Set the chunk length so that a batch of B trajectories draws at most
    ``doubles`` uniforms per chunk: an even number of steps, at least 2."""
    monkeypatch.setattr(simulate, "_CHUNK_STEPS", max(2, doubles // (2 * B) // 2 * 2))


GENERAL_MODELS = [
    ("kdim", dict(k=3, p=0.5)),  # one step atom, r = 6
    ("kdim", dict(k=2, f="x^2", p=0.7)),
    ("random-step", dict(p=0.7)),  # two step atoms: the atom draw
    ("random-step", dict(f="x^2", p=0.8, z_values=(2.5,), z_probs=(1.0,))),  # one atom, s = 3, r = 2
]


def _replay(model, n_max, seed, index):
    """The scalar replay's auxiliary positions after steps 1..n_max, (n_max + 1, s)."""
    state = WalkState.fresh(model, seed, index)
    positions = [state.s_aux]
    for _ in range(n_max):
        state = step(state, model)
        positions.append(state.s_aux)
    return np.array(positions)


def _first_replay_error(model, n_max, N, seed):
    """Replay N trajectories in lockstep; return (n, message) of the first error.

    A map's own errors (a ``piecewise`` gap) and the runtime aborts are all ValueErrors."""
    states = [WalkState.fresh(model, seed, i) for i in range(N)]
    for n in range(1, n_max + 1):
        for i, state in enumerate(states):
            try:
                states[i] = step(state, model)
            except ValueError as exc:
                return n, str(exc)
    return None


def _two_atom_line():
    """s = 1, r = 2 with step atoms {1, 2}."""
    spec = ModelSpec(s=1, d=1, r=2, partition=((1,), ()), step_law=StepLaw.finite([[1.0], [2.0]], [0.4, 0.6]),
                     prob_maps=(parse("0.2 + 0.3 * x", arity=1),), A=[[1.0]], b=[0.0],
                     initial=InitialLaw([[1.0], [0.0]], [0.5, 0.5]), domain=Domain([0.0], [2.0]))
    return validate_model(spec)


def _hand_built(atoms, probs, maps, initial=None):
    """A general-kernel model with A = I and b = 0: block i moves coordinate i
    by the drawn atom, and with r - 1 maps on s coordinates r is s or s + 1
    (the last block stays). The domain is [0, largest atom]^s, on which the
    callers' maps keep every sum of P below 1."""
    atoms = np.asarray(atoms, dtype=float)
    s = atoms.shape[1]
    r = len(maps) + 1
    partition = tuple((j + 1,) for j in range(s)) + (((),) if r == s + 1 else ())
    initial = initial or InitialLaw([[1.0] * s, [0.0] * s], [0.5, 0.5])
    spec = ModelSpec(s=s, d=s, r=r, partition=partition, step_law=StepLaw.finite(atoms, probs),
                     prob_maps=tuple(parse(text, arity=s) for text in maps), A=np.eye(s), b=np.zeros(s),
                     initial=initial, domain=Domain([0.0] * s, [float(atoms.max())] * s))
    return validate_model(spec)


# the cumulative sums of these step probabilities end one ulp below 1
SHORT_PROBS = (0.7, 0.2, 0.1)

HAND_BUILT_MODELS = {  # general-kernel branches no preset reaches
    # r * n_atoms table rows: up to simulate._COUNTED_TABLE_ROWS (8) the kernel
    # counts the atom, past it the kernel searches for it
    "r3-three-atoms": lambda: _hand_built([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], SHORT_PROBS,
                                          ["0.3 + 0.1 * x1", "0.2 + 0.1 * x2"]),  # 9 rows
    "r4-two-atoms": lambda: _hand_built([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], (0.4, 0.6),
                                        ["0.2 + 0.1 * x1", "0.2 + 0.1 * x2", "0.1 + 0.1 * x3"]),  # 8 rows
    "r2-three-atoms": lambda: _hand_built([[1.0], [2.0], [3.0]], SHORT_PROBS, ["0.5 + 0.1 * x"]),  # 6 rows
    "r1-two-atoms": lambda: _hand_built([[1.0], [2.0]], (0.4, 0.6), []),  # 2 rows
    "r2-twelve-atoms": lambda: _hand_built([[1.0 + j / 4] for j in range(12)], [1 / 12] * 12,
                                           ["0.5 + 0.1 * x"]),  # 24 rows
}


def _with_maps(model, *prob_texts):
    """``model`` with its probability maps replaced, bypassing validation."""
    maps = tuple(parse(text, arity=model.s) for text in prob_texts)
    spec = ModelSpec(**{**model.spec.__dict__, "prob_maps": maps})
    return ValidatedModel(spec=spec, mu=model.mu, sigma=model.sigma, block_masks=model.block_masks)


def _hacked_kdim(*prob_texts):
    """A kdim k=2 model (s = 3, r = 4) whose three maps bypass validation."""
    return _with_maps(_model("kdim", k=2, p=0.6), *prob_texts)


def _hacked_erw(prob_text, q=0.5):
    """An erw model whose probability map bypasses validation."""
    return _with_maps(_model("erw", p=0.75, q=q), prob_text)


class TestDeterminism:
    def test_rerun_bitwise_identical(self):
        model = _model("erw", p=0.6, q=0.5)
        a = ensemble(model, 500, 64, master_seed=7)
        b = ensemble(model, 500, 64, master_seed=7)
        assert np.array_equal(a.snn, b.snn)
        assert np.array_equal(a.aux_final, b.aux_final)

    def test_independent_of_batching_and_threads(self, monkeypatch):
        model = _model("erw", p=0.6, q=0.5)
        a = ensemble(model, 400, 100, master_seed=3)
        monkeypatch.setattr(simulate, "_BATCH", 17)
        b = ensemble(model, 400, 100, master_seed=3, threads=4)
        assert np.array_equal(a.snn, b.snn)

    def test_trajectory_matches_ensemble_index_zero(self):
        model = _model("erw", p=0.6, q=0.5)
        single = ensemble(model, 300, 1, master_seed=11)
        ens = ensemble(model, 300, 5, master_seed=11)
        assert np.array_equal(single.snn[0], ens.snn[0])

    def test_functionals_do_not_perturb_paths(self):
        model = _model("erw", p=0.6, q=0.5)
        plain = ensemble(model, 2000, 50, master_seed=9)
        loaded = ensemble(
            model,
            2000,
            50,
            master_seed=9,
            functional_config=FunctionalConfig(
                center=np.array([0.0]),
                lil_mode="diffusive",
                track_returns=True,
                collect_noise=True,
            ),
        )
        assert np.array_equal(plain.snn, loaded.snn)

    def test_dual_parameterization_same_paths(self):
        # mirrored memory map and strength: per-step probabilities agree to
        # the last bit on these maps, so seeded paths coincide
        a = ensemble(_model("gerw-1d", f="x", p=0.75, q=0.5), 2000, 32, master_seed=5)
        b = ensemble(_model("gerw-1d", f="1 - x", p=0.25, q=0.5), 2000, 32, master_seed=5)
        assert np.array_equal(a.snn, b.snn)


class TestStreams:
    """Trajectory i of master seed m consumes Philox(SeedSequence(m, spawn_key=(i,)))."""

    MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)

    @pytest.mark.parametrize("master", MASTERS)
    def test_bulk_keys_match_seed_sequence(self, master):
        for i in (0, 1, 2047, 2048, 2**20):
            expected = trajectory_seed(master, i).generate_state(2, np.uint64)
            assert np.array_equal(philox_keys(master, i, i + 1)[0], expected), i
        batch = philox_keys(master, 2040, 2056)
        for j, i in enumerate(range(2040, 2056)):
            assert np.array_equal(batch[j], trajectory_seed(master, i).generate_state(2, np.uint64)), i

    @staticmethod
    def _fresh(master, i, n_max):
        """The first n_max draw pairs of trajectory i's own stream."""
        gen = np.random.Generator(np.random.Philox(trajectory_seed(master, i)))
        return gen.random(2 * n_max).reshape(n_max, 2)

    @pytest.mark.parametrize("master", MASTERS)
    def test_batch_uniforms_match_fresh_streams(self, master, monkeypatch):
        # 6-step chunks: chunks after the first start on a Philox block
        B, n_max = 3, 25
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", 6)
        chunks = [(t, u.copy()) for t, u in _uniform_chunks(philox_keys(master, 7, 7 + B), n_max)]
        assert [t for t, _ in chunks] == [0, 6, 12, 18, 24]
        uniforms = np.concatenate([u for _, u in chunks])  # (n_max, 2, B)
        for j in range(B):
            assert np.array_equal(uniforms[:, :, j], self._fresh(master, 7 + j, n_max)), j

    def test_key_words_past_the_signed_range(self, monkeypatch):
        # the re-key hands the key words over as Python ints: a word >= 2**63
        # must reach Philox as the same unsigned value as one below it
        master, lo, B, n_max = 5, 0, 8, 25
        keys = philox_keys(master, lo, lo + B)
        assert (keys >= np.uint64(2**63)).any() and (keys < np.uint64(2**63)).any()
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", 2)
        uniforms = np.concatenate([u.copy() for _, u in _uniform_chunks(keys, n_max)])
        for j in range(B):
            assert np.array_equal(uniforms[:, :, j], self._fresh(master, lo + j, n_max)), j

    def test_generators_advanced_alternately_share_no_state(self, monkeypatch):
        # threads > 1 runs one generator per batch side by side. Each round
        # takes one 4-step chunk of every generator, and copies them only
        # when all have moved, so neither the Philox state nor the buffer
        # may be shared
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", 4)
        spans = {(3, 0): (3, 17), (3, 100): (3, 20), (9, 40): (4, 25)}  # (master, lo): (B, n_max)
        gens = {span: _uniform_chunks(philox_keys(*span, span[1] + B), n_max) for span, (B, n_max) in spans.items()}
        got = {span: [] for span in spans}
        while gens:
            views = {span: next(gen, None) for span, gen in gens.items()}
            for span, chunk in views.items():
                if chunk is None:
                    del gens[span]
                else:
                    got[span].append(chunk[1].copy())
        assert [len(got[span]) for span in spans] == [5, 5, 7]
        for (master, lo), (B, n_max) in spans.items():
            uniforms = np.concatenate(got[master, lo])
            for j in range(B):
                assert np.array_equal(uniforms[:, :, j], self._fresh(master, lo + j, n_max)), (master, lo, j)

    @pytest.mark.parametrize("B,chunk_steps,steps", [(256, None, 1024), (2048, None, 1024), (256, 512, 512)])
    def test_uniform_rows_are_not_a_page_multiple_apart(self, B, chunk_steps, steps, monkeypatch):
        # past a chunk, a chunk is _CHUNK_STEPS steps: unpadded, the B reads
        # of one step would be a power of two apart and share a few cache sets
        if chunk_steps is not None:
            monkeypatch.setattr(simulate, "_CHUNK_STEPS", chunk_steps)
        chunks = _uniform_chunks(philox_keys(5, 0, B), 10**6)
        _, uniforms = next(chunks)
        chunks.close()
        assert uniforms.shape == (steps, 2, B)
        assert uniforms.strides[2] % 4096 != 0
        # a row of an odd number of cache lines (12 steps: 3 lines) is not padded
        _, short = next(_uniform_chunks(philox_keys(5, 0, B), 12))
        assert short.strides[2] == 12 * 16

    @pytest.mark.parametrize("name,kwargs", [("erw", dict(p=0.6, q=0.5)), ("kdim", dict(k=2, p=0.6))])
    def test_small_chunks_do_not_change_paths(self, name, kwargs, monkeypatch):
        model = _model(name, **kwargs)
        ref = ensemble(model, 101, 9, master_seed=13)
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", 6)
        monkeypatch.setattr(simulate, "_BATCH", 3)
        small = ensemble(model, 101, 9, master_seed=13)
        assert np.array_equal(small.snn, ref.snn)
        assert np.array_equal(small.aux_final, ref.aux_final)

    def test_step_bound_does_not_change_paths(self, monkeypatch):
        model = _model("random-step", p=0.7)
        ref = ensemble(model, 2100, 5, master_seed=13)  # chunks of 1024, 1024 and 52 steps
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", 10**6)
        whole = ensemble(model, 2100, 5, master_seed=13)
        assert np.array_equal(whole.snn, ref.snn)
        assert np.array_equal(whole.aux_final, ref.aux_final)

    @pytest.mark.parametrize("name,kwargs", [("erw", dict(p=0.6, q=0.5)), ("kdim", dict(k=2, p=0.6))])
    def test_two_threads_match_one(self, name, kwargs, monkeypatch):
        model = _model(name, **kwargs)
        a = ensemble(model, 300, 100, master_seed=3, threads=1)
        monkeypatch.setattr(simulate, "_BATCH", 17)
        b = ensemble(model, 300, 100, master_seed=3, threads=2)
        assert np.array_equal(a.snn, b.snn)
        assert np.array_equal(a.aux_final, b.aux_final)

    def test_step_replay_at_index_five(self):
        # the scalar step draws from a real SeedSequence-built generator
        model = _model("kdim", k=2, p=0.6)
        state = WalkState.fresh(model, seed=19, index=5)
        for _ in range(64):
            state = step(state, model)
        stats = ensemble(model, 64, 8, master_seed=19)
        assert np.array_equal(state.s_aux, stats.aux_final[5])

    @pytest.mark.parametrize("seed", [-3, 1.5, 2.0, "7", None, True, np.bool_(False)])
    def test_bad_master_seed_rejected(self, seed):
        model = _model("erw", p=0.6, q=0.5)
        for run in (lambda: ensemble(model, 10, 4, master_seed=seed),
                    lambda: WalkState.fresh(model, seed),
                    lambda: philox_keys(seed, 0, 4),
                    lambda: trajectory_seed(seed, 0)):
            with pytest.raises(ModelError, match="master_seed"):
                run()

    @pytest.mark.parametrize("n_max,N", [(0, 2048), (-1, 2048), (10, 0), (10, -5)])
    def test_bad_run_size_rejected(self, n_max, N):
        model = _model("erw", p=0.6, q=0.5)
        with pytest.raises(ModelError, match=r"^(n_max must be >= 1|N must lie in \[1, )"):
            ensemble(model, n_max, N, master_seed=1)

    def test_zero_threads_rejected(self):
        # the CLI checks --threads itself; a library caller meets this check
        with pytest.raises(ModelError, match="^threads must be >= 1, got 0$"):
            ensemble(_model("erw", p=0.6, q=0.5), 10, 4, master_seed=1, threads=0)

    @pytest.mark.parametrize("name,value", [
        ("n_max", 5.0), ("n_max", True), ("N", 10.0), ("N", np.float64(10)), ("N", False),
        ("threads", 2.5), ("threads", True), ("threads", 1.0), ("threads", np.bool_(True)),
    ])
    def test_non_integer_run_size_rejected(self, name, value):
        model = _model("erw", p=0.6, q=0.5)
        args = dict(n_max=10, N=5, master_seed=1) | {name: value}
        with pytest.raises(ModelError, match=f"^{name} must be an integer, got"):
            ensemble(model, **args)

    @pytest.mark.parametrize("checkpoints", [[2.7], [3, 5.0], [True, 4], ["3"]])
    def test_non_integer_checkpoint_rejected(self, checkpoints):
        model = _model("erw", p=0.6, q=0.5)
        with pytest.raises(ModelError, match="checkpoints must be integers"):
            ensemble(model, 10, 4, master_seed=1, checkpoints=checkpoints)

    @pytest.mark.parametrize("lo,hi,name", [(0.0, 4, "lo"), (True, 4, "lo"), (0, 4.0, "hi"), (0, True, "hi")])
    def test_non_integer_trajectory_index_rejected(self, lo, hi, name):
        with pytest.raises(ModelError, match=f"^{name} must be an integer"):
            philox_keys(1, lo, hi)
        with pytest.raises(ModelError, match="^index must be an integer"):
            trajectory_seed(1, hi if name == "hi" else lo)

    def test_numpy_integers_accepted(self):
        model = _model("erw", p=0.6, q=0.5)
        ref = ensemble(model, 20, 6, master_seed=3, checkpoints=[5, 10], threads=2)
        got = ensemble(model, np.int64(20), np.int32(6), master_seed=np.uint64(3),
                       checkpoints=np.array([5, 10]), threads=np.int8(2))
        assert got.checkpoints == ref.checkpoints == [5, 10, 20]
        assert all(type(c) is int for c in got.checkpoints)
        assert np.array_equal(got.snn, ref.snn)
        assert np.array_equal(got.aux_final, ref.aux_final)
        assert np.array_equal(philox_keys(3, np.uint32(2), np.int64(6)), philox_keys(3, 2, 6))

    def test_trajectory_count_fits_one_spawn_word(self):
        model = _model("erw", p=0.6, q=0.5)
        with pytest.raises(ModelError, match="N must lie"):
            ensemble(model, 10, MAX_TRAJECTORIES + 1, master_seed=1)
        with pytest.raises(ModelError, match="trajectory indices"):
            philox_keys(1, 0, MAX_TRAJECTORIES + 1)
        last = philox_keys(1, MAX_TRAJECTORIES - 1, MAX_TRAJECTORIES)[0]
        assert np.array_equal(last, trajectory_seed(1, MAX_TRAJECTORIES - 1).generate_state(2, np.uint64))


class TestSingleStep:
    def test_step_matches_batch_kernel(self):
        # the public one-step operation replays the ensemble path exactly
        model = _model("kdim", k=2, p=0.6)
        state = WalkState.fresh(model, seed=19, index=0)
        for _ in range(64):
            state = step(state, model)
        stats = ensemble(model, 64, 1, master_seed=19)
        assert np.array_equal(state.s_aux, stats.aux_final[0])
        assert np.allclose(state.observed(model) / 64.0, stats.snn[0, -1])

    def test_step_matches_unit_step_kernel(self):
        model = _model("erw", p=0.6, q=0.5)
        state = WalkState.fresh(model, seed=19, index=0)
        for _ in range(200):
            state = step(state, model)
        stats = ensemble(model, 200, 1, master_seed=19)
        assert np.array_equal(state.s_aux, stats.aux_final[0])

    def test_step_matches_unit_step_kernel_on_a_checked_map(self):
        # x^1.5 compiles to the checked _pow helper in the step and the kernel;
        # TestUnitStepModels checks this model's functionals too
        model = _model("gerw-1d", f="x^1.5", p=0.8, q=0.5)
        assert "_pow(" in funcdsl._emit(model.spec.prob_maps[0].ast)
        stats = ensemble(model, 200, 3, master_seed=19)
        for i in range(3):
            state = WalkState.fresh(model, seed=19, index=i)
            for _ in range(200):
                state = step(state, model)
            assert np.array_equal(state.s_aux, stats.aux_final[i])

    def test_saturated_memory_keeps_direction(self):
        # with the up-probability at its ceiling the next step is up almost
        # surely: h(1) = p for the affine memory map
        model = _model("erw", p=0.999, q=0.5)
        p_up = float(model.block_probs(np.array([1.0]))[0])
        assert p_up == pytest.approx(0.999, abs=1e-12)

    def test_balanced_state_is_fair(self):
        model = _model("erw", p=0.8, q=0.5)
        p_up = float(model.block_probs(np.array([0.5]))[0])
        assert p_up == pytest.approx(0.5, abs=1e-15)

    def test_unit_step_counts_alias(self):
        model = _model("erw", p=0.6, q=0.5)
        state = WalkState.fresh(model, seed=5)
        for _ in range(10):
            state = step(state, model)
        assert state.counts is state.s_aux
        assert 0 <= state.counts[0] <= 10


class TestDynamics:
    def test_deterministic_up_drift(self):
        # once every past step went up, a map with h(1) = 1 keeps going up
        model = _model("gerw-1d", f="x", p=0.999, q=0.999)
        stats = ensemble(model, 50, 20, master_seed=1)
        assert np.all(stats.aux_final <= 50)

    def test_memoryless_limit_is_simple_walk(self):
        # p = 1/2 kills the memory: exact Bernoulli(1/2) increments
        model = _model("erw", p=0.5, q=0.5)
        stats = ensemble(model, 4000, 4000, master_seed=13)
        j = stats.checkpoints.index(4000)
        assert abs(stats.mean(j)[0]) < 4 * stats.se(j)[0] + 0.02
        assert stats.scaled_cov(j)[0, 0] == pytest.approx(1.0, rel=0.1)

    def test_minimal_collapses_when_p_equals_q(self):
        # equal branch probabilities make the steps i.i.d. Bernoulli(p)
        model = _model("minimal", f="x", p=0.3, q=0.3)
        stats = ensemble(model, 2000, 2000, master_seed=17)
        j = stats.checkpoints.index(2000)
        assert stats.mean(j)[0] == pytest.approx(0.3, abs=0.01)
        assert stats.scaled_cov(j)[0, 0] == pytest.approx(0.21, rel=0.15)

    def test_aux_positions_nondecreasing(self):
        model = _model("kdim", k=2, p=0.6)
        stats = ensemble(model, 64, 16, master_seed=23)
        assert np.all(stats.aux_final >= 0)
        assert np.all(stats.aux_final.sum(axis=1) <= 64)
        # coordinatewise monotonicity via the one-step operation
        state = WalkState.fresh(model, seed=23, index=0)
        prev = state.s_aux.copy()
        for _ in range(64):
            state = step(state, model)
            assert np.all(state.s_aux >= prev)
            prev = state.s_aux.copy()

    def test_market_drifts_to_zero(self):
        model = _model("market", p=0.5, q=0.5)
        stats = ensemble(model, 10_000, 64, master_seed=29)
        j = stats.checkpoints.index(10_000)
        assert np.max(np.abs(stats.snn[:, j, 0])) < 0.2

    def test_checkpoint_defaults_geometric(self):
        pts = default_checkpoints(1000)
        assert pts[-1] == 1000 and pts[0] == 1
        # integer halving: successive ratios stay near 2
        ratios = [b / a for a, b in zip(pts, pts[1:])]
        assert all(1.8 <= r <= 3.0 for r in ratios)


class TestFunctionals:
    def test_returns_counted_for_lattice_model(self):
        model = _model("erw", p=0.5, q=0.5)
        cfg = FunctionalConfig(track_returns=True)
        stats = ensemble(model, 1000, 200, master_seed=31, functional_config=cfg)
        assert stats.return_counts.mean() > 1.0  # simple walk revisits the origin
        assert np.all(stats.last_return <= 1000)

    def test_returns_rejected_for_non_lattice(self):
        model = _model("random-step", p=0.6, z_values=(1.0, 2.5), z_probs=(0.5, 0.5))
        with pytest.raises(ModelError, match="non-lattice-model"):
            ensemble(model, 100, 10, master_seed=1, functional_config=FunctionalConfig(track_returns=True))

    def test_lil_running_max_positive(self):
        model = _model("erw", p=0.5, q=0.5)
        cfg = FunctionalConfig(center=np.array([0.0]), lil_mode="diffusive", lil_window=(100, None))
        stats = ensemble(model, 2000, 100, master_seed=37, functional_config=cfg)
        assert np.all(stats.lil_max > 0)

    def test_functionals_match_scalar_replay(self):
        # replay the path with the scalar step and recompute both functionals
        model = _model("erw", p=0.6, q=0.5)
        cfg = FunctionalConfig(center=np.array([0.2]), lil_mode="diffusive", lil_window=(20, 300),
                               track_returns=True)
        stats = ensemble(model, 400, 1, master_seed=23, functional_config=cfg)
        state = WalkState.fresh(model, seed=23)
        returns, last, lil_max = 0, 0, 0.0
        for n in range(1, 401):
            state = step(state, model)
            obs = float(state.observed(model)[0])
            if obs == 0.0:
                returns, last = returns + 1, n
            if 20 <= n <= 300:
                lil_max = max(lil_max, abs(obs / n - 0.2) * _lil_norm(n, "diffusive"))
        assert returns > 0
        assert (stats.return_counts[0], stats.last_return[0]) == (returns, last)
        assert stats.lil_max[0] == lil_max

    def test_noise_collection_shapes(self):
        model = _model("erw", p=0.6, q=0.5)
        cfg = FunctionalConfig(collect_noise=True)
        stats = ensemble(model, 100, 8, master_seed=41, functional_config=cfg)
        assert stats.noise_x.shape == stats.noise_step.shape == (8, 99)
        assert set(np.unique(stats.noise_step)) <= {-1.0, 0.0, 1.0}  # the steps of the +/-1 walk

    def test_covariance_denominator(self):
        model = _model("erw", p=0.6, q=0.5)
        stats = ensemble(model, 10, 2, master_seed=43)
        j = stats.checkpoints.index(10)
        x = stats.snn[:, j, 0]
        manual = (x - x.mean()) @ (x - x.mean()) / 1.0  # N - 1 = 1
        assert stats.cov(j)[0, 0] == pytest.approx(manual, rel=1e-12)


class TestUnitStepModels:
    """The s = 1, r = 2 walks with one step atom, which every one-dimensional
    preset is, reproduce the scalar replay bit for bit, every functional on."""

    @pytest.mark.parametrize("batch_size", [17, 2048])
    @pytest.mark.parametrize("name,kwargs", UNIT_STEP_PRESETS)
    def test_matches_scalar_replay(self, name, kwargs, batch_size, monkeypatch):
        model = _model(name, **kwargs)
        assert (model.s, model.r, len(model.spec.step_law.atoms)) == (1, 2, 1)
        lil_mode = "critical" if name == "quadratic-sym" else "diffusive"
        cfg = FunctionalConfig(center=np.array([0.1]), lil_mode=lil_mode, lil_window=(20, 250),
                               track_returns=True, collect_noise=True)
        monkeypatch.setattr(simulate, "_BATCH", batch_size)
        stats = ensemble(model, 300, 40, master_seed=61, functional_config=cfg)
        _assert_matches_replay_stats(model, stats, cfg, (0, 16, 17, 39))  # the edges of the 17-trajectory batches

    def test_plain_ensemble_matches_scalar_replay(self, monkeypatch):
        model = _model("erw", p=0.85, q=0.5)
        monkeypatch.setattr(simulate, "_BATCH", 17)
        stats = ensemble(model, 500, 33, master_seed=67, checkpoints=[7, 100])
        _assert_matches_replay_stats(model, stats, FunctionalConfig(), (0, 16, 17, 32))

    @pytest.mark.parametrize("name,kwargs", UNIT_STEP_PRESETS)
    def test_trajectory_matches_scalar_replay(self, name, kwargs):
        model = _model(name, **kwargs)
        cfg = FunctionalConfig(lil_mode="diffusive", lil_window=(10, None), track_returns=True,
                               collect_noise=True)
        single = ensemble(model, 400, 1, master_seed=71, functional_config=cfg)
        _assert_matches_replay_stats(model, single, cfg, (0,))


class TestBlockFunctionals:
    """Functionals flushed per block reproduce the per-step update bit for bit."""

    # (name, kwargs, center, LIL mode, collect noise)
    CASES = [
        ("erw", dict(p=0.6, q=0.5), 0.2, "diffusive", True),
        ("quadratic-sym", dict(p=0.75, q=0.5), 0.0, "critical", False),
        ("random-step", dict(p=0.7), 0.3, "diffusive", False),  # s = 3: the matrix-product column
    ]
    # (N = batch size, n_max, checkpoints, LIL window, _BLOCK_DOUBLES, _CHUNK_STEPS); None keeps the default
    LAYOUTS = [
        # 128-row blocks: checkpoints on an edge, just past one, and on a later edge; horizon off the edges
        (256, 301, [128, 129, 257], (200, 290), None, None),
        (1, 301, None, (37, None), None, None),  # one trajectory: the block never fills
        (2100, 100, [15, 16, 45, 61], (20, None), None, None),  # B > 2048: 15-row blocks
        (5, 301, [6, 8, 9, 150], (17, 299), 20, 6),  # 4-row blocks, 6-step chunks and a last chunk of one
        (7, 203, [5, 10, 11, 100], (18, None), 35, None),  # 5-row blocks
    ]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name,kwargs,center,lil_mode,noise", CASES)
    def test_matches_per_step_replay(self, name, kwargs, center, lil_mode, noise, layout, monkeypatch):
        N, n_max, checkpoints, window, block_doubles, chunk_steps = layout
        model = _model(name, **kwargs)
        monkeypatch.setattr(simulate, "_BATCH", N)
        if block_doubles is not None:
            monkeypatch.setattr(simulate, "_BLOCK_DOUBLES", block_doubles)
        if chunk_steps is not None:
            monkeypatch.setattr(simulate, "_CHUNK_STEPS", chunk_steps)
        cfg = FunctionalConfig(center=np.array([center]), lil_mode=lil_mode, lil_window=window,
                               track_returns=True, collect_noise=noise)
        stats = ensemble(model, n_max, N, master_seed=97, checkpoints=checkpoints, functional_config=cfg)
        _assert_matches_replay_stats(model, stats, cfg, sorted({0, N // 2, N - 1}))
        assert stats.return_counts.max() > 0
        if lil_mode is not None:
            assert stats.lil_max.min() > 0

    def test_block_size_does_not_change_results(self, monkeypatch):
        model = _model("erw", p=0.6, q=0.5)
        cfg = FunctionalConfig(center=np.array([0.2]), lil_mode="diffusive", lil_window=(30, None),
                               track_returns=True, collect_noise=True)
        runs = []
        for block_doubles in (1, 3 * 40, simulate._BLOCK_DOUBLES):
            monkeypatch.setattr(simulate, "_BLOCK_DOUBLES", block_doubles)
            runs.append(ensemble(model, 500, 40, master_seed=101, functional_config=cfg))
        for field in STATS_ARRAYS:
            for other in runs[1:]:
                assert getattr(runs[0], field).tobytes() == getattr(other, field).tobytes(), field


class TestGeneralKernel:
    """Models off the one-dimensional unit step reproduce the scalar replay bit for bit."""

    @pytest.mark.parametrize("chunk_doubles", [None, 42])
    @pytest.mark.parametrize("batch_size", [5, 2048])
    @pytest.mark.parametrize("name,kwargs", GENERAL_MODELS)
    def test_matches_scalar_replay(self, name, kwargs, batch_size, chunk_doubles, monkeypatch):
        self._assert_matches_replay(_model(name, **kwargs), batch_size, chunk_doubles, monkeypatch)

    @pytest.mark.parametrize("chunk_doubles", [None, 42])
    @pytest.mark.parametrize("batch_size", [5, 2048])
    @pytest.mark.parametrize("build", HAND_BUILT_MODELS.values(), ids=HAND_BUILT_MODELS.keys())
    def test_hand_built_models_match_scalar_replay(self, build, batch_size, chunk_doubles, monkeypatch):
        self._assert_matches_replay(build(), batch_size, chunk_doubles, monkeypatch)

    @staticmethod
    def _assert_matches_replay(model, batch_size, chunk_doubles, monkeypatch):
        monkeypatch.setattr(simulate, "_BATCH", batch_size)
        if chunk_doubles is not None:
            _small_chunks(monkeypatch, chunk_doubles, min(batch_size, 17))
        stats = ensemble(model, 120, 17, master_seed=83)
        A, b = model.spec.A, model.spec.b
        for i in (0, 6, 16):
            positions = _replay(model, 120, 83, i)
            assert np.array_equal(stats.aux_final[i], positions[-1]), i
            for j, n in enumerate(stats.checkpoints):
                # integer and half-integer positions: the products are exact
                assert np.array_equal(stats.snn[i, j], positions[n] @ A.T / n + b), (i, n)

    @pytest.mark.parametrize("table_rows", [simulate._COUNTED_TABLE_ROWS, 0], ids=["counted", "searched"])
    def test_atom_draw_takes_the_last_atom_past_the_last_cut(self, table_rows, monkeypatch):
        # the cumulative step probabilities end one ulp below 1, at the largest
        # uniform; u2 at or past a cut takes the next atom, and at or past the
        # last cut the last atom, whichever way the kernel draws the atom
        monkeypatch.setattr(simulate, "_COUNTED_TABLE_ROWS", table_rows)
        model = _hand_built([[1.0], [2.0], [3.0]], SHORT_PROBS, ["0.5 + 0.1 * x"], initial=InitialLaw([[0.0]], [1.0]))
        atom_cum = np.cumsum(SHORT_PROBS)
        assert atom_cum[-1] == np.nextafter(1.0, 0.0)
        u2 = np.array([0.0, np.nextafter(atom_cum[0], 0.0), atom_cum[0], np.nextafter(atom_cum[1], 0.0),
                       atom_cum[1], atom_cum[2], atom_cum[2]])
        u1 = np.array([0.0] * 6 + [0.75])  # P = 0.5 at x = 0: block 1 (move), then block 2 (stay)
        B = len(u2)
        uniforms = np.stack([np.zeros((2, B)), np.stack([u1, u2])])  # step 0 draws the initial point mass
        monkeypatch.setattr(simulate, "_uniform_chunks", lambda keys, n_max: iter([(0, uniforms)]))
        out = {"snn": np.zeros((B, 1, 1)), "aux_final": np.zeros((B, 1))}
        _simulate_batch(model, 2, [2], philox_keys(0, 0, B), FunctionalConfig(), out)
        # the reference formula: searchsorted over every cut, capped at the last atom
        P = np.clip(model.spec.prob_maps[0].fast([np.zeros(B)]), 0.0, 1.0)
        block = (u1 >= P[None]).sum(axis=0)
        aidx = np.minimum(np.searchsorted(atom_cum, u2, side="right"), len(atom_cum) - 1)
        old_steps = model.spec.step_law.atoms[aidx] * model.block_masks[block]
        assert np.array_equal(out["aux_final"], old_steps)
        assert np.array_equal(out["aux_final"][:, 0], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 0.0])

    def test_noise_matches_scalar_replay(self, monkeypatch):
        model = _two_atom_line()
        n_max = 150
        monkeypatch.setattr(simulate, "_BATCH", 4)
        stats = ensemble(model, n_max, 9, master_seed=89, functional_config=FunctionalConfig(collect_noise=True))
        block_mu = model.block_masks * model.mu
        for i in (0, 4, 8):
            positions = _replay(model, n_max, 89, i)
            x = positions[1:-1] / np.arange(1, n_max)[:, None]  # the states fed to steps 2..n_max
            steps = np.diff(positions[1:], axis=0)
            H = np.array([model.block_probs(point) @ block_mu for point in x])
            assert np.array_equal(stats.noise_x[i], x[:, 0]), i
            assert np.array_equal(stats.noise_step[i], steps[:, 0]), i
            assert np.array_equal(model.eval_H(x)[:, 0] - stats.noise_step[i], (H - steps)[:, 0]), i
        assert np.array_equal(stats.aux_final[8], positions[-1])

    @pytest.mark.parametrize("atoms,probs", [([[1.0], [2.0]], [0.4, 0.6]), ([[1.0]], [1.0])],
                             ids=["two-atoms", "one-atom"])
    @pytest.mark.parametrize("text", ["-(0*x)", "-(0.4 * (0 - x))"], ids=["always", "at-zero"])
    def test_negative_zero_probability_matches_scalar_replay(self, text, atoms, probs, monkeypatch):
        # the map gives -0.0 (always, or where x = 0); every output must carry
        # the replay's bits, the sign of each zero included. With one atom
        # the model is a one-dimensional unit-step walk
        spec = ModelSpec(s=1, d=1, r=2, partition=((1,), ()), step_law=StepLaw.finite(atoms, probs),
                         prob_maps=(parse(text, arity=1),), A=[[1.0]], b=[0.0],
                         initial=InitialLaw([[1.0], [0.0]], [0.5, 0.5]), domain=Domain([0.0], [2.0]))
        model = validate_model(spec)
        assert np.signbit(model.spec.prob_maps[0].fast([np.zeros(1)]))[0]
        cfg = FunctionalConfig(collect_noise=True)
        monkeypatch.setattr(simulate, "_BATCH", 4)
        stats = ensemble(model, 60, 6, master_seed=13, functional_config=cfg)
        _assert_matches_replay_stats(model, stats, cfg, range(6))  # bytes: the sign of each zero too

    def test_noise_in_the_tolerance_band_matches_scalar_replay(self, monkeypatch):
        # P = x + 1e-9 (x - 1/2) leaves [0, 1] by 5e-10 at x = 0 and x = 1,
        # where walks that start at 0 or 1 stay: the drift takes the clipped P
        model = _hacked_erw("x + 1e-9 * (x - 0.5)")
        cfg = FunctionalConfig(collect_noise=True)
        monkeypatch.setattr(simulate, "_BATCH", 4)
        stats = ensemble(model, 60, 6, master_seed=13, functional_config=cfg)
        assert set(stats.noise_x.ravel()) == {0.0, 1.0}
        _assert_matches_replay_stats(model, stats, cfg, range(6))


class TestGeneralRuntimeAbort:
    """The kernel aborts on each step as ``block_probs`` would, r >= 3."""

    # P2 = P3 vanish at the simplex vertices, where every walk sits after
    # step 1, and sum to 3/2 at x2 = 1/2, which a walk can reach at step 2
    INTERIOR = "3 * x2 * (1 - x2)"

    def _kernel(self, model, n_max=40, N=8):
        return ensemble(model, n_max, N, master_seed=3)

    def test_sum_past_one(self):
        model = _hacked_kdim("x1", self.INTERIOR, self.INTERIOR)
        n, message = _first_replay_error(model, 40, 8, 3)
        assert n >= 2 and "sum past 1" in message
        with pytest.raises(ModelError, match="block probabilities sum past 1"):
            self._kernel(model)

    @pytest.mark.parametrize("p1,match", [("1.5 * x1", r"P in \[0, 1\.5\]"), ("0 * exp(1000 * x1)", r"P in \[0, 0\] \(NaN present\)$")],
                             ids=["range", "nan"])
    def test_range_and_nan_precede_a_later_sum_past_one(self, p1, match):
        # P1 leaves [0, 1] at step 1 on walks whose first step is in block 1;
        # with P1 = x1 the same walks abort later, with the sum past 1
        later, _ = _first_replay_error(_hacked_kdim("x1", self.INTERIOR, self.INTERIOR), 40, 8, 3)
        model = _hacked_kdim(p1, self.INTERIOR, self.INTERIOR)
        with np.errstate(over="ignore", invalid="ignore"):
            n, message = _first_replay_error(model, 40, 8, 3)
            assert n < later and "sum past 1" not in message
            with pytest.raises(ModelError, match=match):
                self._kernel(model)

    def test_within_tolerance_band_runs_and_matches_replay(self, monkeypatch):
        # maps up to 5e-10 outside [0, 1], and sums up to 5e-10 past 1, are clamped
        model = _hacked_kdim("x1 + 5e-10", "x2 - 5e-10", "x3 - 5e-10")
        monkeypatch.setattr(simulate, "_BATCH", 5)
        stats = ensemble(model, 60, 12, master_seed=7)
        for i in (0, 5, 11):
            assert np.array_equal(stats.aux_final[i], _replay(model, 60, 7, i)[-1]), i

    def test_a_later_map_failing_first_does_not_speak_for_map_0(self):
        # one template: it computes every map's sqrt before any division, and
        # map 2's sqrt fails at the walks' first states, where map by map
        # map 0's division by x1 = 0 fails first
        model = _hacked_kdim("0.1 + 0 * sqrt(x1 - 0) / (x1 - 0)", "0.1 + 0 * sqrt(x2 - 0) / (x2 - 7)",
                             "0.1 + 0 * sqrt(x3 - 0.9) / (x3 - 7)")
        ((rows, fn, stacked),) = model.map_groups
        assert stacked
        with pytest.raises(funcdsl.EvalDomainError, match="sqrt of negative value"):
            fn(np.zeros((3, 1)))
        _, message = _first_replay_error(model, 40, 8, 3)
        assert message == "division by zero"
        with pytest.raises(funcdsl.EvalDomainError, match="^division by zero$"):
            self._kernel(model)

    @pytest.mark.parametrize("mode", ["always", "error"], ids=["warn", "warnings-as-errors"])
    def test_warnings_are_each_maps_own(self, mode, monkeypatch):
        # every map underflows wherever its coordinate is positive: the
        # template would warn once a step, map by map each map warns
        model = _hacked_kdim(*(f"0.1 + x{j} * 1e-300 * 1e-300" for j in (1, 2, 3)))
        assert model.map_groups[0][2]

        def run():
            with warnings.catch_warnings(record=True) as seen, np.errstate(under="warn"):
                warnings.simplefilter(mode)
                try:
                    result = ensemble(model, 30, 8, 3).aux_final.tobytes()
                except RuntimeWarning as exc:
                    result = str(exc)
            return [str(w.message) for w in seen], result

        grouped = run()
        monkeypatch.setattr(simulate, "_quiet_steps", lambda model, n_max: False)  # the maps one by one
        assert grouped == run()
        if mode == "always":
            assert grouped[0]
        else:
            assert grouped[1] == "underflow encountered in multiply"

    def test_no_floating_point_event_outside_the_maps(self):
        # the step loop runs under a raising errstate: NaN and infinite P, the
        # kernel's comparisons, clip, cumulative sums and range checks signal nothing
        P = np.array([[np.nan, 0.3, np.inf], [-np.inf, 0.5, 1.0]])
        with np.errstate(all="raise"):
            clipped = clip_ufunc(P, 0.0, 1.0, out=np.empty_like(P))
            np.add(clipped[0], clipped[1], out=clipped[1])
            np.greater_equal(np.array([0.1, 0.9, 0.5]), P[:, None], out=np.empty((2, 1, 3), dtype=np.intp))
            np.greater_equal(0.5, P[0], out=np.empty(3, dtype=np.intp))
            with pytest.raises(ModelError, match="NaN present"):
                check_runtime_probs(P)
            # one template whose rows are NaN, inf and 0.5 (c + 0 * x_j) without an event of its own
            kdim = _model("kdim", k=2, p=0.6)
            zero_times = [funcdsl.BinOp("*", funcdsl.Const(0.0), funcdsl.Var(j, f"x{j + 1}")) for j in range(3)]
            maps = tuple(funcdsl.FuncExpr(funcdsl.BinOp("+", funcdsl.Const(c), term), 3)
                         for c, term in zip([math.nan, math.inf, 0.5], zero_times))
            model = ValidatedModel(spec=ModelSpec(**{**kdim.spec.__dict__, "prob_maps": maps}), mu=kdim.mu,
                                   sigma=kdim.sigma, block_masks=kdim.block_masks)
            assert model.map_groups[0][2]
            with pytest.raises(ModelError, match=r"at runtime: P in \[0\.5, inf\] \(NaN present\)$"):
                self._kernel(model)

    def test_positions_past_float_range_warn_as_before(self):
        # A = 1e306 takes the observed position past the float range once x1 passes
        # 180, near n = 900: the per-step product warns under the caller's settings
        spec = ModelSpec(s=2, d=1, r=3, partition=((1,), (2,), ()), step_law=StepLaw.point_mass([1.0, 1.0]),
                         prob_maps=(parse("0.2 + 0 * x1", arity=2), parse("0.3 + 0 * x2", arity=2)),
                         A=[[1e306, 0.0]], b=[0.0], initial=InitialLaw([[0.0, 0.0]], [1.0]),
                         domain=Domain([0.0, 0.0], [1.0, 1.0]), meta={"simplex_cap": 1.0})
        model = validate_model(spec)
        assert model.map_groups[0][2] and not simulate._quiet_steps(model, 2000)
        with pytest.raises(RuntimeWarning, match="overflow encountered in matmul"):
            ensemble(model, 2000, 4, 1, functional_config=FunctionalConfig(track_returns=True))


class TestMapGroupCensus:
    """The maps a kdim model compiles to one template, so its step makes one map call."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("f", ["x", "x^2"])
    def test_kdim_is_one_group(self, k, f):
        model = _model("kdim", k=k, f=f, p=0.6)
        ((rows, fn, stacked),) = model.map_groups
        assert (rows, stacked) == ((slice(0, 2 * k - 1), True) if k > 1 else (0, False))
        assert simulate._quiet_steps(model, 10**6)

    def test_a_different_operator_splits_a_group(self):
        model = _hacked_kdim("x1 + 5e-10", "x2 - 5e-10", "x3 - 5e-10")
        assert [(rows, stacked) for rows, _, stacked in model.map_groups] == [(0, False), (slice(1, 3), True)]


class TestRuntimeAbort:
    """Probabilities that leave [0, 1] at runtime abort the kernel, r = 2."""

    @staticmethod
    def _run(model, n_max=50, N=8):
        return ensemble(model, n_max, N, master_seed=3)

    def test_out_of_range_once_a_walk_passes_one_half(self):
        # P = 2x leaves [0, 1] as soon as a walk's up-fraction passes 1/2
        with pytest.raises(ModelError, match="probability-out-of-range"):
            self._run(_hacked_erw("2*x"))

    def test_range_abort_precedes_a_later_piecewise_gap(self):
        # walks start at x = 0; P = 1/2 + x > 1 past x = 1/2 then drives them
        # up into the uncovered region x >= 0.9. The range abort comes first
        with pytest.raises(ModelError, match="probability-out-of-range"):
            self._run(_hacked_erw("piecewise(x < 0.9 : 0.5 + x)", q=1e-300), n_max=200)

    def test_walks_below_one_half_do_not_abort(self):
        # every walk starts with a stay step, so x = 0 and P = 0 forever
        self._run(_hacked_erw("2*x", q=1e-300))

    def test_nan_probability(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ModelError, match="probability-out-of-range"):
            self._run(_hacked_erw("0.5 + 0*exp(1000*x)"), n_max=200)


def _cut(t):
    """A cut between (t - 2) / (t - 1) and (t - 1) / t, the states fed to
    steps t - 1 and t of a walk that starts at 0 and then moves at every step."""
    return ((t - 2) / (t - 1) + (t - 1) / t) / 2


def _out_from(t, var="x"):
    """1 before step t, then 1 + x: out of range, with a new value at each step."""
    return f"piecewise({var} < {_cut(t)!r} : 1 ; {var} >= {_cut(t)!r} : 1 + {var})"


def _nan_at(t, var="x"):
    """1, but NaN at step t alone, where it is 0 * exp(800)."""
    return f"1 + 0 * exp(1e8 * (8e-6 - ({var} - {(t - 1) / t!r})^2))"


def _sum_from(t):
    """0 before step t, then 0.5: with P_1 >= 1 the sum passes 1 from step t on."""
    return f"piecewise(x1 < {_cut(t)!r} : 0 ; x1 >= {_cut(t)!r} : 0.5)"


_GAP = f"piecewise(x1 < {_cut(6)!r} : 0)"  # no branch covers step 6 on
_SUM = _sum_from(6)

_EDGES = {"block-last": 13, "block-first": 14, "chunk-last": 19}
# (id, r = 2 or 3, maps, first failing step, maps whose first error is a later one at step 6)
DEFERRED_CASES = [
    *[(f"{kind}-{edge}-r2", 2, (bad(t),), t, None)
      for kind, bad in (("range", _out_from), ("nan", _nan_at)) for edge, t in _EDGES.items()],
    *[(f"{kind}-{edge}-r3", 3, (bad(t, "x1"), "0"), t, None)
      for kind, bad in (("range", _out_from), ("nan", _nan_at)) for edge, t in _EDGES.items()],
    ("range-before-gap-r2", 2, (f"piecewise(x < {_cut(4)!r} : 1 ; x < {_cut(6)!r} : 1 + x)",), 4,
     (f"piecewise(x < {_cut(6)!r} : 1)",)),
    ("range-before-gap-r3", 3, (_out_from(4, "x1"), _GAP), 4, ("1", _GAP)),
    ("nan-before-gap-r3", 3, (_nan_at(4, "x1"), _GAP), 4, ("1", _GAP)),
    ("range-before-sum-r3", 3, (_out_from(4, "x1"), _SUM), 4, ("1", _SUM)),
    ("nan-before-sum-r3", 3, (_nan_at(4, "x1"), _SUM), 4, ("1", _SUM)),
    ("range-with-sum-r3", 3, (_out_from(4, "x1"), _sum_from(4)), 4, None),  # block_probs checks the range first
]


class TestDeferredRangeCheck:
    """The range and NaN abort runs over a block of steps, and the first
    failing step still wins, as the scalar replay decides.

    P_1 >= 1 (out of range and NaN included) takes block 1 at every step,
    so every walk starts at 0, then moves by 1 and feeds x = (t - 1) / t to
    step t. With B = 2, 4-row blocks (_BLOCK_DOUBLES = 8), 10-step chunks
    (_CHUNK_STEPS = 10) and one checkpoint at n = 30, the blocks hold steps
    0-3, 4-7, 8-9 | 10-13, 14-17, 18-19 | 20-23, ...
    """

    @staticmethod
    def _walk(r, maps):
        if r == 2:
            return _hacked_erw(maps[0], q=1e-300)
        plane = _hand_built([[1.0, 1.0]], (1.0,), ["0.5", "0.25"], initial=InitialLaw([[0.0, 0.0]], [1.0]))
        return _with_maps(plane, *maps)

    @staticmethod
    def _errors(model):
        """The replay's first (n, message) and the kernel's message."""
        with np.errstate(over="ignore", invalid="ignore"):
            first = _first_replay_error(model, 30, 2, 5)
            with pytest.raises(ValueError) as info:
                ensemble(model, 30, 2, master_seed=5, checkpoints=[30])
        return first, str(info.value)

    @pytest.mark.parametrize("r,maps,t,later", [case[1:] for case in DEFERRED_CASES],
                             ids=[case[0] for case in DEFERRED_CASES])
    def test_first_failing_step_wins(self, r, maps, t, later, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK_DOUBLES", 8)
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", 10)
        (n, want), got = self._errors(self._walk(r, maps))
        assert n == t + 1 and want.startswith("probability-out-of-range at runtime: P in ")
        assert got == want
        if later is not None:  # the error the range abort must precede
            (n, want), got = self._errors(self._walk(r, later))
            assert n == 7 and "P in" not in want
            assert got == want
