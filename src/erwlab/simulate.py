"""Forward simulation of the walk dynamics with reproducible ensembles.

Trajectory i of master seed m always consumes the counter-based stream
``Philox(SeedSequence(m, spawn_key=(i,)))`` and exactly two uniforms per time
step: one for the block choice, one for the step atom. The fixed draw budget
means switching functionals on or off never perturbs paths, and ensembles
are bit-for-bit reproducible regardless of batching or thread count.
``sa.run_sa`` draws its noise from trajectory 0's stream.

A Philox stream is a key plus a block counter, so a batch needs no stream
objects: :func:`philox_keys` derives the keys of a whole batch in one
vectorized pass of numpy's ``SeedSequence`` algorithm, and one generator
per batch is re-keyed and positioned for each trajectory and chunk. Its
state words are handed over as Python ints, which numpy's ``state`` setter
reads faster than numpy scalars. Each trajectory's draws fill one
contiguous row of a trajectory-major buffer, which the kernel reads
through its transposed view. Chunks after the first start at an even time
step, on a Philox block (4 doubles, two steps).

One per-batch kernel runs every model, any s, r and step law. A step
evaluates the maps P_1..P_{r-1} at the position average, takes the block
as the count of cumulative block probabilities at or below the first
uniform and the step atom from the second, and reads the step from a
table of every (block, atom) pair. The one-dimensional +/-1 walk with
memory (s = 1, r = 2, one step atom: the presets erw, gerw-1d, linear,
quadratic-sym, market, minimal, poly-g, phi-power and
cubic-supercritical) is its s = 1, r = 2 case and needs no kernel of its
own: there a step is one map, one comparison and one table read. The
kernel keeps the runtime checks of ``block_probs`` (probability range and
NaN, sums past 1) and an overflow guard, and it is tested against a scalar
one-step replay kept in ``tests/``, which evaluates the full
``block_probs`` at every step.

:class:`_Recorder` holds the per-step rows and the functionals (LIL
maximum, return counts, the noise samples) and writes the checkpoint rows.
A step only writes one row of each of a few reused blocks of about 32K
doubles, sized to stay in cache. The range abort, the functionals'
elementwise operations and the copy of the noise samples then run once
over the block, when it fills, at every checkpoint and at every chunk end.
They are the per-step operations applied row by row, so the results are
the same bits as a per-step update, and an error reports the first failing
step.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (ModelError, ValidatedModel, check_runtime_probs, check_runtime_sum, clip_ufunc, is_integer,
                    strict_errstate)


def default_checkpoints(n_max: int) -> list:
    """Geometric checkpoint spacing {floor(n_max * 2^-j)} down to 1."""
    pts = set()
    value = n_max
    while value >= 1:
        pts.add(int(value))
        value //= 2
    return sorted(pts)


def nearest_checkpoint(checkpoints, target) -> tuple:
    """The checkpoint closest to ``target`` (the first one on ties) and its index."""
    j = min(range(len(checkpoints)), key=lambda i: abs(checkpoints[i] - target))
    return checkpoints[j], j


@dataclass
class FunctionalConfig:
    """Optional per-trajectory functionals tracked during simulation."""

    center: Optional[np.ndarray] = None  # predicted limit of S_n/n (d-vector)
    lil_mode: Optional[str] = None  # "diffusive" | "critical"
    lil_window: tuple = (1000, None)  # max taken over n in [lo, hi]
    track_returns: bool = False  # d = 1 integer-lattice models only
    collect_noise: bool = False  # retain each step's state and increment (s = 1 only)


@dataclass
class EnsembleStats:
    """Checkpointed ensemble summaries plus retained per-trajectory data.

    Noise collection keeps, in column n - 1, the state Gamma_n and the drawn
    increment X_{n+1}; the reduction's noise is e_{n+1} = H(Gamma_n) - X_{n+1}."""

    checkpoints: list
    n_max: int
    N: int
    master_seed: int
    d: int
    snn: np.ndarray  # (N, C, d) values of S_n/n at each checkpoint
    aux_final: np.ndarray  # (N, s) auxiliary position at n_max
    lil_max: Optional[np.ndarray] = None  # (N,)
    return_counts: Optional[np.ndarray] = None  # (N,)
    last_return: Optional[np.ndarray] = None  # (N,)
    returns_at: Optional[np.ndarray] = None  # (N, C) cumulative counts
    noise_x: Optional[np.ndarray] = None  # (N, n_max-1) states Gamma_n fed to the drift
    noise_step: Optional[np.ndarray] = None  # (N, n_max-1) drawn increments X_{n+1}

    def mean(self, cp_index: int) -> np.ndarray:
        return self.snn[:, cp_index, :].mean(axis=0)

    def se(self, cp_index: int) -> np.ndarray:
        return self.snn[:, cp_index, :].std(axis=0, ddof=1) / math.sqrt(self.N)

    def cov(self, cp_index: int) -> np.ndarray:
        x = self.snn[:, cp_index, :]
        centered = x - x.mean(axis=0)
        return centered.T @ centered / (self.N - 1)

    def scaled_cov(self, cp_index: int) -> np.ndarray:
        """Covariance of sqrt(n) * S_n/n at the checkpoint."""
        return self.checkpoints[cp_index] * self.cov(cp_index)

    def scaled_deviation(self, cp_index: int, tau: float, center) -> np.ndarray:
        """n^(1-tau) * (S_n/n - center) per trajectory, (N, d)."""
        n = self.checkpoints[cp_index]
        return n ** (1.0 - tau) * (self.snn[:, cp_index, :] - np.asarray(center))


def _is_int(value) -> bool:
    """An int or a numpy integer, not a bool."""
    return is_integer(value) or isinstance(value, np.integer)


def check_integer(name: str, value, error=ModelError) -> None:
    """Reject a run size or index that is not an integer (a float, a bool, a string)."""
    if not _is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")


def check_master_seed(master_seed) -> None:
    """Reject anything but a non-negative integer before a stream is derived."""
    if not _is_int(master_seed) or master_seed < 0:
        raise ModelError(f"master_seed must be a non-negative integer, got {master_seed!r}")


def resolve_checkpoints(n_max: int, checkpoints) -> list:
    """Sorted distinct checkpoints in [1, n_max] (geometric when ``checkpoints`` is None), n_max included."""
    check_integer("n_max", n_max)
    if n_max < 1:
        raise ModelError("n_max must be >= 1")
    checkpoints = default_checkpoints(n_max) if checkpoints is None else list(checkpoints)
    for c in checkpoints:
        if not _is_int(c):
            raise ModelError(f"checkpoints must be integers, got {c!r}")
    checkpoints = sorted({int(c) for c in checkpoints})
    if any(c < 1 or c > n_max for c in checkpoints):
        raise ModelError("checkpoints must lie in [1, n_max]")
    if n_max not in checkpoints:
        checkpoints.append(int(n_max))
        checkpoints.sort()
    return checkpoints


# numpy's SeedSequence constants (pool of four uint32 words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
MAX_TRAJECTORIES = 2**32  # a spawn key of one uint32 word


def _hashmix(value, hash_const):
    """SeedSequence's hashmix on a uint32 array; returns (value, next hash_const)."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays (uint32 arithmetic wraps)."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def philox_keys(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, 2) uint64 Philox keys of trajectories lo..hi-1.

    Row j equals ``SeedSequence(master_seed, spawn_key=(lo + j,))
    .generate_state(2, np.uint64)``: numpy's SeedSequence algorithm run
    once over uint32 arrays in which only the spawn-key word differs
    between trajectories. The run entropy is the seed's little-endian
    uint32 words, zero-padded to the pool size because a spawn key is
    present.
    """
    check_master_seed(master_seed)
    check_integer("lo", lo)
    check_integer("hi", hi)
    if not 0 <= lo <= hi <= MAX_TRAJECTORIES:
        raise ModelError(f"trajectory indices must lie in [0, {MAX_TRAJECTORIES}]")
    seed, run = int(master_seed), []
    while True:
        run.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.array([w], dtype=np.uint32) for w in run]
    entropy.append(np.arange(lo, hi, dtype=np.uint64).astype(np.uint32))

    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], value)
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[i_dst] = _mix(pool[i_dst], value)

    # generate_state(2, np.uint64): four uint32 words, read little-endian in pairs
    hash_const = _INIT_B
    words = []
    for word in pool:
        value = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    keys = np.empty((hi - lo, 2), dtype=np.uint64)
    keys[:, 0] = words[0] | words[1] << np.uint64(32)
    keys[:, 1] = words[2] | words[3] << np.uint64(32)
    return keys


_LIL_FIRST_N = {"diffusive": 3, "critical": 16}  # the least n at which each norm's logs are positive


def _lil_norm(n: int, mode: str) -> float:
    if mode == "diffusive":
        return math.sqrt(n / (2.0 * math.log(math.log(n))))
    return math.sqrt(n / (2.0 * math.log(n) * math.log(math.log(math.log(n)))))


_BATCH = 2048  # trajectories per kernel batch
_CHUNK_STEPS = 1024  # steps per chunk, even: 4 MB of uniforms at B = 256, 32 MB at B = _BATCH


def _uniform_chunks(keys, n_max):
    """Yield ``(t, uniforms)`` where ``uniforms[tt, :, j]`` is the draw pair of
    trajectory j (Philox key ``keys[j]``) at time t + tt.

    One generator serves the batch. For each trajectory and chunk it is keyed
    and set to block counter t // 2 with an empty buffer, so the next double
    is draw 2t of that trajectory's stream; hence a chunk that another
    follows has even length, and ``_CHUNK_STEPS`` is even. The re-key is a
    ``state`` assignment whose key, counter and buffer words are Python ints
    (the keys converted once per batch by ``tolist``): numpy's setter reads
    the ten words one at a time, and a word read from a uint64 array is
    first boxed as a numpy scalar, which made the setter take 2.3 times as
    long (1.3 against 0.6 µs, timeit, numpy 2.4.6, 2-core Xeon). The state
    is the same, and so are the draws.

    The draws fill a trajectory-major buffer, reused across chunks, and
    ``uniforms`` is its transposed view, not a copy. A step reads B doubles
    one row apart. When a row is an even number of 64-byte cache lines, as
    a full chunk for a power-of-two B is, those reads fall into a few cache
    sets, so the row is padded by 4 steps (one line) to an odd number of
    lines. The rule is measured, not derived: a pad on every row made the
    12-step rows (3 lines) of an n = 12 ensemble 16 steps, 256 bytes, apart
    and ran 3% slower, so only rows of an even number of lines are padded.

    A chunk holds at most ``_CHUNK_STEPS`` steps, which keeps the buffer of
    a long batch a few megabytes. A buffer of the whole horizon (10 MB at
    B = 256, n = 2500) came from wherever malloc's heap had a hole of that
    size, so the resident set of two runs of the same commands differed by
    a whole buffer. Each chunk past the first re-keys every trajectory once
    more: at 1024 steps that costs one re-key per 2048 draws of a
    trajectory.
    """
    B = len(keys)
    chunk = min(n_max, _CHUNK_STEPS)
    bit_gen = np.random.Philox(0)  # re-keyed before every fill
    gen = np.random.Generator(bit_gen)
    key_list = keys.tolist()  # [[k0, k1], ...] as Python ints
    inner = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": inner,
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    buf = np.empty((B, chunk + (4 if chunk % 8 == 0 else 0), 2))[:, :chunk]
    for t in range(0, n_max, chunk):
        rows = buf[:, :min(chunk, n_max - t)]
        inner["counter"] = [t // 2, 0, 0, 0]
        for key, row in zip(key_list, rows):
            inner["key"] = key
            bit_gen.state = state
            gen.random(out=row)
        yield t, rows.transpose(1, 2, 0)


def _initial_step(initial, u1):
    idx = np.searchsorted(np.cumsum(initial.probs), u1, side="right")
    np.clip(idx, 0, len(initial.probs) - 1, out=idx)
    return initial.atoms[idx]


def _overflow_guard(state, t, max_atom):
    if np.any(np.abs(state) > (t * max_atom) + 1e-9):
        raise ModelError("overflow-guard: auxiliary position exceeds n * max atom")


def _quiet_steps(model, n_max) -> bool:
    """Whether the step loop's own operations on positions cannot signal a
    floating-point event, so that the loop can run under
    :func:`~erwlab.model.strict_errstate`. A coordinate of a position is 0
    or a sum of at most n_max nonnegative atoms, the initial one included;
    the loop divides it by t <= n_max, adds a step to it and, for the
    functionals, takes its products with A and their sums. While every such
    result lies between 1e-300 and 1e300, none overflows or underflows."""
    spec = model.spec
    atoms = np.abs(np.concatenate([spec.step_law.atoms.ravel(), spec.initial.atoms.ravel()]))
    scale = np.abs(spec.A)
    # on Python floats, which overflow to inf and underflow to 0.0 without a warning
    top = n_max * float(atoms.max()) * spec.s * max(1.0, float(scale.max()))
    bottom = float(atoms[atoms > 0].min(initial=1.0)) / n_max * min(1.0, float(scale[scale > 0].min(initial=1.0)))
    return top < 1e300 and bottom > 1e-300


_BLOCK_DOUBLES = 32_768  # doubles per (K, B) block: 256 KB, well inside L2 (the P block holds r - 1)


class _Recorder:
    """The kernel's per-step rows and the functionals, flushed per block.

    Bound to the kernel's (B, s) ``state`` array, which the kernel updates in
    place. Each block has K rows of B entries, about ``_BLOCK_DOUBLES`` in
    all, and row k belongs to step k of the block. The kernel
    writes the raw P_1..P_{r-1} of a step into ``probs[k]`` (K, r - 1, B),
    its drawn row of the step table into ``rows[k]`` and, for noise
    collection, the state fed to the maps into ``noise_x[k]``; at a flush
    that state and the first coordinate of the drawn step go to the output's
    ``noise_x`` and ``noise_step``. Then
    :meth:`record` writes the first observed coordinate's product
    ``state[:, 0] * A[0, 0]`` (for s > 1 the column of ``state @ A.T``) into
    ``prod[k]`` and moves to the next row. The P block starts zeroed, so the
    row of step 0, which draws the initial position, is in range.

    :meth:`flush` runs when the block is full, at every checkpoint and at
    every chunk end, under the floating-point settings the recorder was
    made under (the kernel's step loop may run under
    :func:`~erwlab.model.strict_errstate`). It first runs the range and NaN abort of
    ``block_probs`` over the filled P rows, then each functional's
    elementwise operations once over the filled rows. They are the
    operations a per-step update runs on each row, and the maximum, the hit
    count and the last hit do not depend on the order of the rows, so the
    results are the same bits.
    """

    def __init__(self, model, n_max, checkpoints, cfg, out, state, steps):
        """``steps`` is the kernel's step table, indexed by ``rows``."""
        spec = model.spec
        self.A, self.b = spec.A, spec.b
        if cfg.track_returns and not model.integer_lattice:
            raise ModelError("non-lattice-model: return counting needs d=1 integer-valued positions")
        self.cfg, self.out, self.state = cfg, out, state
        self.errors = np.geterr()
        self.cp_set = {cp: j for j, cp in enumerate(checkpoints)}
        lil_lo, lil_hi = cfg.lil_window
        self.lil_window = (lil_lo, n_max if lil_hi is None else lil_hi)
        self.center0 = 0.0 if cfg.center is None else np.asarray(cfg.center, dtype=float).reshape(-1)[0]
        B = len(state)
        K = max(1, _BLOCK_DOUBLES // B)
        self.K, self.k, self.n = K, 0, 0  # rows, rows filled, step of the last row
        self.probs = np.zeros((K, model.r - 1, B))
        self.rows = np.zeros((K, B), dtype=np.intp)
        per_step = cfg.lil_mode is not None or cfg.track_returns
        self.prod = np.empty((K, B)) if per_step else None
        # both functionals read only the first observed coordinate. For s = 1
        # it is one product per trajectory, equal to the matrix product's
        # entry up to the sign of a zero, which == and abs ignore
        self.col = state[:, 0] if self.A.shape[1] == 1 else None
        self.noise_x = np.empty((K, B)) if cfg.collect_noise else None
        self.step0 = steps[:, 0]  # the increment X of each row of the step table (s = 1)

    def record(self, n):
        """Take the positions after step n, whose row the kernel has written."""
        if self.prod is not None:
            if self.col is not None:
                np.multiply(self.col, self.A[0, 0], out=self.prod[self.k])
            else:
                self.prod[self.k] = (self.state @ self.A.T)[:, 0]
        self.k += 1
        self.n = n
        j = self.cp_set.get(n)
        if j is None and self.k < self.K:
            return
        with np.errstate(**self.errors):
            self.flush()
            if j is not None:
                self.out["snn"][:, j, :] = self.state @ self.A.T / n + self.b
                if self.cfg.track_returns:
                    self.out["returns_at"][:, j] = self.out["return_counts"]

    def check_probs(self, k):
        """The range abort over P rows 0..k-1: one test of the whole, and on
        failure the report of the first failing row, as a per-step check
        would give."""
        P = self.probs[:k]
        try:
            check_runtime_probs(P)
        except ModelError:
            for row in P:
                check_runtime_probs(row)
            raise

    def flush(self):
        """Check the filled P rows, update the functionals and empty the block."""
        k, cfg, out = self.k, self.cfg, self.out
        if not k:
            return
        self.k = 0  # before the check, so a failure here is not checked again
        self.check_probs(k)
        n_lo = self.n - k + 1
        if self.prod is not None:
            ns = np.arange(n_lo, self.n + 1)[:, None]
            obs = self.prod[:k]
            obs += ns * self.b[0]
            if cfg.track_returns:
                at_zero = obs == 0.0
                out["return_counts"] += at_zero.sum(axis=0)
                np.maximum(out["last_return"], (at_zero * ns).max(axis=0), out=out["last_return"])
            lo, hi = max(self.lil_window[0], n_lo), min(self.lil_window[1], self.n)
            if cfg.lil_mode is not None and lo <= hi:
                z = obs[lo - n_lo:hi - n_lo + 1]
                z /= ns[lo - n_lo:hi - n_lo + 1]
                z -= self.center0
                np.abs(z, out=z)
                z *= np.array([_lil_norm(n, cfg.lil_mode) for n in range(lo, hi + 1)])[:, None]
                np.maximum(out["lil_max"], z.max(axis=0), out=out["lil_max"])
        if self.noise_x is not None:
            first = 1 if n_lo == 1 else 0  # step 0 draws the initial position: no noise
            if first < k:
                # noise column tc - 1 belongs to step tc
                span = slice(n_lo - 2 + first, self.n - 1)
                out["noise_x"][:, span] = self.noise_x[first:k].T
                out["noise_step"][:, span] = self.step0.take(self.rows[first:k]).T


# Step tables up to this many rows draw the (block, atom) row by comparisons
# alone. Past it a binary search for the atom costs less: at 2048
# trajectories the two draws cost about the same at 8 rows, and at 48 rows
# the comparisons take 3.4 times as long (numpy 2.4, 2-core Xeon).
_COUNTED_TABLE_ROWS = 8


def _simulate_batch(model, n_max, checkpoints, keys, cfg, out):
    """Advance one batch of trajectories through all n_max steps.

    The one kernel: any s, r and step law. Each step does the work of
    :meth:`ValidatedModel.block_probs` on reused buffers: the maps
    P_1..P_{r-1} go into the recorder's P row of the step, one call per
    group of :attr:`ValidatedModel.map_groups` (kdim's 2k - 1 maps are one
    call). A model with a stacked group runs each chunk's step loop under
    :func:`~erwlab.model.strict_errstate`, entered once per chunk, where a
    group that raises is evaluated again map by map under the caller's
    settings, so the first failing map's error and warnings surface as in
    a per-map loop. That holds only where the loop's own operations signal
    nothing, which :func:`_quiet_steps` checks; otherwise, and for a model
    whose maps are all alone, the maps run one by one under the caller's
    settings. Their range and
    NaN abort runs over the block's rows at each flush, and in an
    ``except`` around the step loop before any other error propagates, so
    the first failing step wins as it does in a per-step check. At r = 2
    the block is 1 iff u1 >= P, which for u1 in [0, 1) equals u1 >=
    clip(P, 0, 1), so the raw P is the cut. At r > 2 the clipped P go into
    the cumulative sums, added row by row, and the sum-past-1 abort runs on
    each step. The block is the number of cumulative sums at or below u1.
    They never decrease, so the tail row P_r, which ``block_probs`` would
    add last, cannot change it. The atom is the number of the step law's
    cumulative probabilities at or below u2, the last one left out, so the
    last atom also takes a u2 past a final sum that rounds below 1. The two
    counts index a table of every (block, atom) step, row block * n_atoms +
    atom, and the drawn row goes into the recorder's row block. While that
    table has at most :data:`_COUNTED_TABLE_ROWS` rows, one comparison per
    uniform and one sum give the row at once: each block cut is compared
    n_atoms times, and at r = 2 with one atom the block hit is the row. That
    work grows as r * n_atoms, so a larger law counts the block alone and
    finds the atom by binary search. Each stage is one numpy call into a
    reused buffer: at a few hundred trajectories the fixed cost of a call is
    most of a step. The scalar replay in ``tests/`` is the reference this
    kernel is tested against.
    """
    B = len(keys)
    s, r = model.s, model.r
    spec = model.spec
    atoms = spec.step_law.atoms  # (n_atoms, s)
    atom_cum = np.cumsum(spec.step_law.probs)
    n_atoms = len(atoms)
    counted = n_atoms > 1 and r * n_atoms <= _COUNTED_TABLE_ROWS
    searched = n_atoms > 1 and not counted
    single = r == 2 and not counted  # the block hit alone is the row
    steps = model.step_table.reshape(r * n_atoms, s)  # row block * n_atoms + atom
    max_atom = float(np.max(np.abs(atoms))) if atoms.size else 0.0

    state = np.zeros((B, s))
    rec = _Recorder(model, n_max, checkpoints, cfg, out, state, steps)
    # the recorder's rows as views made once: indexing a list costs less than an array
    P_rows, drawn_rows = list(rec.probs), list(rec.rows)
    cut_rows = list(rec.probs[:, 0]) if single else None
    x_rows = None if rec.noise_x is None else list(rec.noise_x)
    x = np.empty((B, s))
    cols = [x[:, j] for j in range(s)]
    # stacked groups need the step loop under strict_errstate; without them each map runs as it stands
    strict = len(model.map_groups) < r - 1 and _quiet_steps(model, n_max)
    groups = model.map_groups if strict else [(i, pm.fast, False) for i, pm in enumerate(spec.prob_maps)]
    evals = [(rows, fn, x.T if stacked else cols) for rows, fn, stacked in groups]
    aux = state[:, 0]
    cum = np.empty((r - 1, B))
    sums = list(zip(cum[:-1], cum[1:]))  # (sum before P_i, P_i and then the sum through it)
    # 1 where a cut is at or below its uniform. Counted: each block cut
    # n_atoms times, then the atom cuts, so the rows add up to the row of the
    # step table. Otherwise each block cut once: the rows add up to the block
    reps = n_atoms if counted else 1
    hits = np.empty(((r - 1) * reps + (n_atoms - 1) * counted, B), dtype=np.intp)
    block_hits = hits[:(r - 1) * reps].reshape(r - 1, reps, B)
    atom_hits = hits[(r - 1) * reps:]
    atom_cuts = atom_cum[:-1, None]
    for t, uniforms in _uniform_chunks(keys, n_max):
        try:
            with strict_errstate() if strict else contextlib.nullcontext():
                for tt in range(uniforms.shape[0]):
                    tc = t + tt
                    u1 = uniforms[tt, 0]
                    if tc == 0:
                        state += _initial_step(spec.initial, u1)
                    else:
                        k = rec.k
                        if x_rows is None:
                            np.divide(state, tc, out=x)
                        else:  # s = 1: the noise row is the map's input
                            cols[0] = np.divide(aux, tc, out=x_rows[k])
                        P, row = P_rows[k], drawn_rows[k]
                        try:
                            for rows, fn, arg in evals:
                                P[rows] = fn(arg)
                        except Exception:
                            if not strict:
                                raise
                            with np.errstate(**rec.errors):  # the caller's settings
                                model.maps_one_by_one(P, cols)
                        if r > 2:
                            clip_ufunc(P, 0.0, 1.0, out=cum)
                            for prev, through in sums:
                                np.add(prev, through, out=through)
                            try:
                                check_runtime_sum(cum[-1])
                            except ModelError:
                                rec.k += 1  # this step's P row is whole: its range abort goes first
                                raise
                        if single:
                            np.greater_equal(u1, cut_rows[k], out=row)
                        else:
                            np.greater_equal(u1, (cum if r > 2 else P)[:, None], out=block_hits)
                            if counted:
                                np.greater_equal(uniforms[tt, 1], atom_cuts, out=atom_hits)
                            np.add.reduce(hits, axis=0, out=row)  # block * n_atoms + atom, or the block
                        if searched:
                            atom = np.searchsorted(atom_cum, uniforms[tt, 1], side="right")
                            np.minimum(atom, n_atoms - 1, out=atom)
                            np.multiply(row, n_atoms, out=row)
                            np.add(row, atom, out=row)
                        state += steps.take(row, axis=0)
                    rec.record(tc + 1)
            rec.flush()
        except Exception:
            rec.check_probs(rec.k)
            raise
        _overflow_guard(state, t + uniforms.shape[0], max_atom)
    out["aux_final"][:, :] = state


def ensemble(model: ValidatedModel, n_max: int, N: int, master_seed: int,
             checkpoints=None, functional_config: Optional[FunctionalConfig] = None,
             threads: int = 1) -> EnsembleStats:
    """Monte Carlo ensemble of N independent trajectories, run in batches of
    ``_BATCH`` (on ``threads`` threads when there are several).

    Results are independent of the batching and of ``threads``: trajectory i
    always consumes the same stream (master_seed, i), and reductions happen
    on index-ordered arrays. One trajectory is the ensemble with N = 1.
    """
    for name, value in (("N", N), ("threads", threads)):
        check_integer(name, value)
    if not 1 <= N <= MAX_TRAJECTORIES:
        raise ModelError(f"N must lie in [1, {MAX_TRAJECTORIES}]")
    if threads < 1:
        raise ModelError(f"threads must be >= 1, got {threads}")
    check_master_seed(master_seed)
    cfg = functional_config or FunctionalConfig()
    checkpoints = resolve_checkpoints(n_max, checkpoints)
    C = len(checkpoints)
    d, s = model.d, model.s

    if cfg.lil_mode is not None:
        if cfg.lil_mode not in _LIL_FIRST_N:
            raise ModelError(f"unknown LIL mode {cfg.lil_mode!r}")
        lil_lo, lil_hi = cfg.lil_window
        first, last = max(lil_lo, 1), n_max if lil_hi is None else min(lil_hi, n_max)
        least = _LIL_FIRST_N[cfg.lil_mode]
        if first < least and first <= last:
            raise ModelError(f"LIL window reaches n = {first}; the {cfg.lil_mode} norm needs n >= {least}")
    if cfg.collect_noise:
        if model.s != 1:
            raise ModelError("noise collection is implemented for s = 1 models")
        if N * max(0, n_max - 1) > 200_000_000:
            raise ModelError("noise collection would retain too much data; shrink N or n_max")

    lil, returns, noise = cfg.lil_mode is not None, cfg.track_returns, cfg.collect_noise
    arrays = {  # keyed by EnsembleStats field; None where a functional is off
        "snn": np.empty((N, C, d)),
        "aux_final": np.empty((N, s)),
        "lil_max": np.zeros(N) if lil else None,
        "return_counts": np.zeros(N, dtype=np.int64) if returns else None,
        "last_return": np.zeros(N, dtype=np.int64) if returns else None,
        "returns_at": np.zeros((N, C), dtype=np.int64) if returns else None,
        "noise_x": np.empty((N, n_max - 1)) if noise else None,
        "noise_step": np.empty((N, n_max - 1)) if noise else None,
    }

    def run_batch(lo, hi):
        out = {name: None if a is None else a[lo:hi] for name, a in arrays.items()}
        _simulate_batch(model, n_max, checkpoints, philox_keys(master_seed, lo, hi), cfg, out)

    batches = [(lo, min(lo + _BATCH, N)) for lo in range(0, N, _BATCH)]
    if threads > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda span: run_batch(*span), batches))
    else:
        for lo, hi in batches:
            run_batch(lo, hi)

    return EnsembleStats(checkpoints=checkpoints, n_max=n_max, N=N, master_seed=master_seed, d=d, **arrays)


def stats_to_rows(stats: EnsembleStats) -> list:
    """Flatten checkpoint summaries into CSV rows.

    Columns: checkpoint, component, mean, se, var, cov_0..cov_{d-1}.
    """
    rows = []
    for j, n in enumerate(stats.checkpoints):
        mean = stats.mean(j)
        se = stats.se(j)
        cov = stats.cov(j)
        for comp in range(stats.d):
            rows.append(
                [n, comp, mean[comp], se[comp], cov[comp, comp]] + [cov[comp, k] for k in range(stats.d)]
            )
    return rows
