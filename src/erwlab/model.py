"""Model definitions for memory-reinforced random walks.

A model is an auxiliary walk on a rectangle in [0, inf)^s whose increment at
time n+1 picks one of r coordinate blocks of an i.i.d. draw Y according to
state-dependent block probabilities P_1..P_{r-1} evaluated at the running
average position, plus an affine output map S_n = A @ S_aux_n + n * b.

This module holds the data types (ModelSpec, StepLaw, InitialLaw, Domain),
grid validation, and the validated-model wrapper that caches moments and the
drift map H. Every map of a model, P_1..P_{r-1}, is a
:class:`~erwlab.funcdsl.FuncExpr`; the one-dimensional walks build theirs as
affine images of a memory map f (see :mod:`erwlab.presets`).

Point layout: the model's maps (``block_probs``, ``eval_H``,
``sigma_blocks``, ``noise_second_moment``) take a point as an array whose
last axis has length s, and a batch of points as ``(..., s)``. The one-dimensional walks
are the s = 1 case of the same layout: a point is ``[x]``, never a bare
scalar. Grid validation evaluates each P_i through ``FuncExpr.fast``, the
expression language's only evaluator. Those maps evaluate the same compiled
code, with maps of one shape stacked into one template whose rows have each
map's bits (``map_groups``), so validation checks the values that run.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .funcdsl import FuncExpr, parse, templates

# The ufunc np.clip ends in. Calling it directly only skips np.clip's Python
# wrappers, about 3 us a call; the values are the same. numpy keeps it in a
# private module, so if it moves the kernels fall back to np.clip itself.
try:
    from numpy._core.umath import clip as clip_ufunc
except ImportError:
    try:  # numpy < 2
        from numpy.core.umath import clip as clip_ufunc
    except ImportError:
        clip_ufunc = np.clip


def strict_errstate():
    """``np.errstate`` raising on every floating-point event that the
    caller's settings do not ignore. A batched fast path runs under it, and
    when it raises, the exact code it stands for runs again under the
    caller's settings, so the caller sees that code's warnings, errors and
    results."""
    return np.errstate(**{kind: "ignore" if mode == "ignore" else "raise" for kind, mode in np.geterr().items()})


class ModelError(ValueError):
    """Invalid model definition."""


class DomainViolation(ModelError):
    """A point handed to the drift map lies outside the model rectangle."""


# ---------------------------------------------------------------------------
# Step and initial laws


def _finite_law(law, name: str):
    """Store a finite law's atoms as an (n_atoms, s) float array and its
    probabilities as floats; they must align, the atoms must be finite, and
    the probabilities nonnegative (so not NaN) with a sum of 1 (so finite)."""
    atoms = np.atleast_2d(np.asarray(law.atoms, dtype=float))
    probs = np.asarray(law.probs, dtype=float)
    object.__setattr__(law, "atoms", atoms)
    object.__setattr__(law, "probs", probs)
    if probs.ndim != 1 or atoms.shape[0] != probs.shape[0]:
        raise ModelError("atoms and probabilities must align")
    if not np.isfinite(atoms).all():
        raise ModelError(f"{name} atoms must be finite")
    if not (np.all(probs >= 0) and abs(math.fsum(probs.tolist()) - 1.0) <= 1e-12):
        raise ModelError(f"{name} probabilities must be finite, nonnegative and sum to 1")


@dataclass(frozen=True)
class StepLaw:
    """Finite-support law of the i.i.d. draws Y on the model rectangle.

    kinds:
      * ``point-mass``     one atom, probability one
      * ``finite-support`` explicit atoms (s-vectors) and probabilities

    A model file's ``kind`` is a free-form label; there is no ``product``
    constructor, so a product law is written out as its joint atoms.

    Restricting to finite support keeps the mean ``mu`` and the second-moment
    matrix E[Y Y^T] exact, which the covariance formulas downstream require.
    """

    kind: str
    atoms: np.ndarray  # (n_atoms, s)
    probs: np.ndarray  # (n_atoms,)

    def __post_init__(self):
        _finite_law(self, "step-law")
        if np.any(self.atoms < 0):
            raise ModelError("step atoms must be nonnegative (walk lives in [0, inf)^s)")

    @property
    def s(self) -> int:
        return self.atoms.shape[1]

    @property
    def mu(self) -> np.ndarray:
        return self.probs @ self.atoms

    @property
    def second_moment(self) -> np.ndarray:
        """E[Y Y^T], exact under the finite support."""
        return (self.atoms.T * self.probs) @ self.atoms

    @staticmethod
    def point_mass(atom) -> "StepLaw":
        atom = np.atleast_1d(np.asarray(atom, dtype=float))
        return StepLaw("point-mass", atom[None, :], np.array([1.0]))

    @staticmethod
    def finite(atoms, probs) -> "StepLaw":
        return StepLaw("finite-support", np.atleast_2d(atoms), np.asarray(probs, dtype=float))


@dataclass(frozen=True)
class InitialLaw:
    """Law of the time-1 auxiliary increment (finite support)."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        _finite_law(self, "initial-law")


# ---------------------------------------------------------------------------
# Domain


GRID_DENSITY = 201  # grid points per axis in validation and the downcrossing check
# the grids and the s = 1 fixed-point scan span [lower, lower + INFINITE_EDGE_SPAN] on an axis whose upper
# edge is inf; the s > 1 fixed-point starts and the SA noise bins cap every edge at lower + INFINITE_EDGE_SPAN
INFINITE_EDGE_SPAN = 1.0


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle with the origin as one corner.

    ``upper`` entries may be ``inf``; validation grids never probe infinite
    edges and instead span [lo, lo + INFINITE_EDGE_SPAN] there. ``lower`` is
    finite, and no bound is NaN.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if not (lo.shape == hi.shape and np.all(lo >= 0) and np.all(hi > lo)):  # NaN and lower = inf fail
            raise ModelError(f"domain must satisfy 0 <= lower < upper per axis, got lower {lo.tolist()}, "
                             f"upper {hi.tolist()}")

    @property
    def s(self) -> int:
        return self.lower.shape[0]

    def axes(self) -> list:
        """The grid's values on each axis: ``GRID_DENSITY`` evenly spaced points
        from lower to upper (to lower + ``INFINITE_EDGE_SPAN`` on an infinite
        edge), fewer when that would give more than 1e5 points in all."""
        per_axis = min(GRID_DENSITY, max(2, int(1e5 ** (1.0 / self.s))))
        return [np.linspace(lo, lo + INFINITE_EDGE_SPAN if math.isinf(hi) else hi, per_axis)
                for lo, hi in zip(self.lower, self.upper)]

    @property
    def reach(self) -> np.ndarray:
        """``upper`` with an infinite edge cut at ``lower + 1e12``."""
        return np.minimum(self.upper, self.lower + 1e12)


# ---------------------------------------------------------------------------
# Model definition


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterization of a walk instance.

    partition blocks are contiguous 1-based index ranges covering 1..s in
    order; only the last block may be empty. ``prob_maps`` holds the r-1
    block probabilities P_1..P_{r-1} as expressions over x1..xs (or x when
    s == 1); the last block takes the complementary probability.
    """

    s: int
    d: int
    r: int
    partition: tuple  # of tuples of 1-based indices; () allowed only last
    step_law: StepLaw
    prob_maps: tuple  # of FuncExpr
    A: np.ndarray  # (d, s)
    b: np.ndarray  # (d,)
    initial: InitialLaw
    domain: Domain
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "partition", tuple(tuple(int(i) for i in blk) for blk in self.partition))
        object.__setattr__(self, "prob_maps", tuple(self.prob_maps))


def _check_partition(spec: ModelSpec, errors: list):
    if len(spec.partition) != spec.r:
        errors.append(f"partition has {len(spec.partition)} blocks, expected r={spec.r}")
        return
    expected = 1
    for i, blk in enumerate(spec.partition):
        if not blk:
            if i != spec.r - 1:
                errors.append(f"partition-overlap: only the last block may be empty (block {i + 1})")
            continue
        if list(blk) != list(range(expected, expected + len(blk))):
            errors.append(f"partition-overlap: block {i + 1} = {blk} is not the contiguous run starting at {expected}")
            return
        expected += len(blk)
    if expected != spec.s + 1:
        errors.append(f"partition-overlap: blocks cover 1..{expected - 1}, expected 1..{spec.s}")


def is_number(value) -> bool:
    """Whether a JSON value is a number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """Whether a JSON value is an integer, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_meta(spec: ModelSpec, errors: list):
    """``meta`` must be a dict whose ``simplex_cap`` is null or a finite
    number above the coordinate sum of the rectangle's lower corner (so the
    grids keep that corner), and whose ``exact`` entry is a dict; the keys
    of ``exact`` that :mod:`erwlab.theory` reads must have the types it
    reads them as, and the numbers in ``x0``, ``tau`` and ``h_derivs`` must
    be finite."""
    if not isinstance(spec.meta, dict):
        errors.append(f"meta must be a JSON object, got {spec.meta!r}")
        return
    cap = spec.meta.get("simplex_cap")
    corner = float(spec.domain.lower.sum())
    if not (cap is None or is_number(cap)):
        errors.append(f"meta.simplex_cap must be a number or null, got {cap!r}")
    elif cap is not None and not corner < cap <= sys.float_info.max:  # NaN fails, and an int past any float
        errors.append(f"meta.simplex_cap must be a finite number above {corner!r}, the coordinate sum of the "
                      f"rectangle's lower corner, got {cap!r}")
    exact = spec.meta.get("exact", {})
    if not isinstance(exact, dict):
        errors.append(f"meta.exact must be a JSON object, got {exact!r}")
        return
    wanted = {
        "x0": (f"a list of {spec.s} numbers",
               lambda v: isinstance(v, (list, tuple)) and len(v) == spec.s and all(map(is_number, v))),
        "tau": ("a number", is_number),
        "h_derivs": ("a list of numbers", lambda v: isinstance(v, (list, tuple)) and all(map(is_number, v))),
        "max_smooth_order": ("an integer or null", lambda v: v is None or is_integer(v)),
    }
    for key, (want, ok) in wanted.items():
        if key not in exact:
            continue
        value = exact[key]
        numbers = value if isinstance(value, (list, tuple)) else [value]
        if not ok(value):
            errors.append(f"meta.exact.{key} must be {want}, got {value!r}")
        elif key != "max_smooth_order" and not all(abs(v) <= sys.float_info.max for v in numbers):  # NaN fails too
            errors.append(f"meta.exact.{key} must be finite, got {value!r}")


CLAMP_TOL = 1e-9  # how far past [0, 1] a probability may stray at run time and be clamped back


def check_runtime_probs(values: np.ndarray):
    """Abort unless every value lies in [0 - CLAMP_TOL, 1 + CLAMP_TOL]; NaN fails too.

    The test itself is two plain reductions (0 joins them, so an empty input
    passes), called as ufuncs because it runs on every simulation step; the
    reported range is that of the non-NaN values.
    """
    if not (np.minimum.reduce(values, axis=None, initial=0.0) >= -CLAMP_TOL
            and np.maximum.reduce(values, axis=None, initial=0.0) <= 1.0 + CLAMP_TOL):
        nan = np.isnan(values)
        real = values[~nan]
        span = f"[{real.min():.6g}, {real.max():.6g}]" if real.size else "[nan, nan]"
        note = " (NaN present)" if nan.any() else ""
        raise ModelError(f"probability-out-of-range at runtime: P in {span}{note}")


def check_runtime_sum(totals: np.ndarray):
    """Abort when a sum of the clipped P_1..P_{r-1} passes 1 + CLAMP_TOL.

    Float subtraction is monotone, so this is ``min(1 - totals) < -CLAMP_TOL``.
    """
    if 1.0 - np.maximum.reduce(totals, axis=None, initial=0.0) < -CLAMP_TOL:
        raise ModelError("probability-out-of-range at runtime: block probabilities sum past 1")


@dataclass(frozen=True)
class ValidatedModel:
    """A validated spec with cached moments and the drift map H.

    Immutable after construction; safe to share across simulation workers.
    """

    spec: ModelSpec
    mu: np.ndarray
    sigma: np.ndarray  # E[Y Y^T]
    block_masks: np.ndarray  # (r, s) 0/1

    @property
    def s(self) -> int:
        return self.spec.s

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def r(self) -> int:
        return self.spec.r

    @property
    def domain(self) -> Domain:
        return self.spec.domain

    @property
    def meta(self) -> dict:
        return self.spec.meta

    @property
    def integer_lattice(self) -> bool:
        """d = 1 and A, b, every step atom and every initial atom are exact
        integers, so the observed position lives on Z and its returns to 0,
        where it equals 0.0, can be counted."""
        spec = self.spec
        return self.d == 1 and all(
            np.array_equal(v, np.round(v)) for v in (spec.A, spec.b, spec.step_law.atoms, spec.initial.atoms)
        )

    def _points(self, x) -> tuple:
        """The points as a float array (..., s), and as an (n, s) batch: a point (s,) is a batch of one."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.s:
            raise ModelError(f"points must have shape (..., {self.s}), got {x.shape}")
        return x, x if x.ndim == 2 else x.reshape(-1, x.shape[-1])

    @cached_property
    def map_groups(self) -> tuple:
        """The maps P_1..P_{r-1} split once into groups of one compiled
        template each (:func:`~erwlab.funcdsl.templates`), in order of each
        group's first map: ``(rows, f, stacked)`` triples. A group of one has
        its map's index as ``rows`` and its ``FuncExpr.fast`` as ``f``, which
        takes the list of coordinate arrays. A stacked group's ``f`` takes the
        (s, B) array of the points and gives its maps' rows, which ``rows``
        (a slice where they are consecutive) selects. kdim's 2k - 1 maps are
        one group, one ``a * x + b`` over a (2k - 1, B) array."""
        groups = []
        for members, fn in templates(self.spec.prob_maps):
            first, last = members[0], members[-1]
            if len(members) == 1:
                rows = first
            elif last - first == len(members) - 1:
                rows = slice(first, last + 1)
            else:
                rows = np.array(members)
            groups.append((rows, fn, len(members) > 1))
        return tuple(groups)

    def maps_one_by_one(self, out, cols):
        """``out[i] = P_{i+1}(cols)``, map by map, under the caller's
        settings: what the groups stand for, so where a group raises, this
        gives the first failing map's exception and warnings."""
        for i, pm in enumerate(self.spec.prob_maps):
            out[i] = pm.fast(cols)

    def eval_maps(self, out, X):
        """``out[i] = P_{i+1}`` at the points of the (s, B) array ``X``, one
        call per group of :attr:`map_groups`. Without a stacked group each map
        runs as it stands. Otherwise the groups run under
        :func:`strict_errstate`, and if one raises, :meth:`maps_one_by_one`
        evaluates every map again under the caller's settings, so the values,
        errors and warnings are those of a loop over the maps."""
        cols = list(X)
        groups = self.map_groups
        if len(groups) == len(out):  # every group a single map
            for rows, fn, _ in groups:
                out[rows] = fn(cols)
            return
        try:
            with strict_errstate():
                for rows, fn, stacked in groups:
                    out[rows] = fn(X if stacked else cols)
        except Exception:  # noqa: BLE001 - the maps raise it again one by one
            self.maps_one_by_one(out, cols)

    def block_probs(self, x):
        """All r block probabilities at points x of shape (..., s), as (r, ...).

        A 0-d x, or one whose last axis is not s, raises :class:`ModelError`:
        a leftover bare s = 1 point would otherwise be read as its first
        element. The maps P_1..P_{r-1} are evaluated by :meth:`eval_maps`
        into the first r - 1 rows of one array, and the last row takes the
        complement. Values outside [0 - CLAMP_TOL, 1 + CLAMP_TOL], and NaN,
        abort: that is model misuse, not noise.
        Within the tolerance band they are clamped. The complement sums the
        rows in order, and every shape is evaluated as an (n, s) batch, a
        single (s,) point as a batch of one, so a point's probabilities have
        the same bits alone as in any batch. Every map of the model outside
        the step kernel's hot loop is evaluated here.
        """
        x, pts = self._points(x)
        r = self.r
        probs = np.empty((r, len(pts)))
        head = probs[:-1]
        self.eval_maps(head, pts.T)
        check_runtime_probs(head)
        clip_ufunc(head, 0.0, 1.0, out=head)
        totals = head[0] if r > 1 else np.zeros(len(pts))
        for row in head[1:]:  # in row order, where numpy sums one point's rows pairwise
            totals = totals + row
        check_runtime_sum(totals)
        tail = probs[-1]
        np.subtract(1.0, totals, out=tail)
        clip_ufunc(tail, 0.0, 1.0, out=tail)
        return probs if pts is x else probs.reshape((r,) + x.shape[:-1])

    # Tables built from the spec once per model; the maps, the step kernel and the oracle read them.

    @cached_property
    def masked_mu(self) -> np.ndarray:
        """(r, s): row i is E[Y] on block i's coordinates and 0 elsewhere."""
        return self.block_masks * self.mu

    @cached_property
    def masked_sigma(self) -> np.ndarray:
        """(r, s, s): entry i is E[Y Y^T] on block i's square and 0.0 (never -0.0) elsewhere."""
        inside = self.block_masks.astype(bool)
        return np.where(inside[:, :, None] & inside[:, None, :], self.sigma, 0.0)

    @cached_property
    def step_table(self) -> np.ndarray:
        """(r, n_atoms, s): entry [i, a], step atom a masked to block i, is that (block, atom)'s step."""
        return self.block_masks[:, None, :] * self.spec.step_law.atoms

    @cached_property
    def _bounds(self) -> tuple:
        """The rectangle widened by 1e-9 on each side: the bounds of :meth:`eval_H`'s domain check."""
        dom = self.spec.domain
        return dom.lower - 1e-9, dom.upper + 1e-9

    def eval_H(self, x) -> np.ndarray:
        """Drift map H(x) = sum_i P_i(x) * mu masked to block i.

        Takes points of shape (..., s), a single point (s,) or points
        (n, s) included, and returns H at each in the same shape. A
        coordinate outside the model rectangle, or NaN, raises
        :class:`DomainViolation`. The masked mu and the domain bounds are
        computed once per model, so a call on a few points, as in each
        round of the fixed-point search, costs little more than the maps
        themselves.
        """
        x, pts = self._points(x)
        low, high = self._bounds
        # Each coordinate's values made contiguous: reduced over axis 0 of
        # pts, numpy's inner loop would run over one point's s values, 10
        # times slower on a large grid. The initial bounds let an empty batch
        # through; NaN still fails.
        coords = np.ascontiguousarray(pts.T)
        inside = ((np.minimum.reduce(coords, axis=1, initial=np.inf) >= low)
                  & (np.maximum.reduce(coords, axis=1, initial=-np.inf) <= high))
        if not inside.all():
            raise DomainViolation(f"coordinate {int(np.argmin(inside)) + 1} outside model rectangle")
        H = np.einsum("rn,rs->ns", self.block_probs(pts), self.masked_mu)
        return H if pts is x else H.reshape(x.shape)

    def sigma_blocks(self, x) -> np.ndarray:
        """sum_i P_i(x) Sigma^(pi_i) at points x of shape (..., s), as (..., s, s).

        Each entry has at most one nonzero term, P_i(x) E[Y_j Y_k] for the
        block i that holds both j and k, so the sum is that product exactly.
        """
        return np.einsum("r...,rij->...ij", self.block_probs(x), self.masked_sigma)

    def noise_second_moment(self, x) -> np.ndarray:
        """Sigma(x) = sum_i P_i(x) Sigma^(pi_i) - H(x) H(x)^T at points x of
        shape (..., s), as (..., s, s)."""
        H = self.eval_H(x)
        return self.sigma_blocks(x) - H[..., :, None] * H[..., None, :]


def _grid_product(axes, cap) -> np.ndarray:
    """The Cartesian product of the 1-d ``axes`` as (n, s) rows in
    lexicographic order, keeping only rows with ``row.sum() <= cap`` when
    the cap is not None.

    The product grows one axis at a time, and a row is dropped as soon as
    the running sum of its first coordinates passes the cap by more than
    the rounding of an s-term sum. The axes hold values >= 0, as a
    :class:`Domain`'s do, so the exact sum of the full row is at least that
    of its prefix, and numpy's float sum of the full row, in whatever order
    numpy adds it, still passes the cap: such a row would fail the final
    filter. That filter, ``rows.sum(axis=1) <= cap`` on the full rows,
    decides every row that is left, so the result equals the whole product
    filtered once, bit for bit.
    """
    rows, total = np.zeros((1, 0)), np.zeros(1)
    if cap is not None:
        limit = cap + abs(cap) * 8 * len(axes) * np.finfo(float).eps
    for values in axes:
        n, k = rows.shape
        if cap is None:
            grown = np.empty((n, len(values), k + 1))
            grown[..., :k] = rows[:, None]
            grown[..., k] = values
        else:
            sums = total[:, None] + values
            head, tail = np.nonzero(~(sums > limit))  # row-major: the order stays lexicographic
            total = sums[head, tail]
            grown = np.empty((len(head), k + 1))
            grown[:, :k] = rows[head]
            grown[:, k] = values[tail]
        rows = grown.reshape(-1, k + 1)
    if cap is not None:
        rows = rows[rows.sum(axis=1) <= cap]
    return rows


def _inside(values, lo, hi):
    """Which values lie more than 1e-12 inside the edges lo and hi of one axis."""
    return (values > lo + 1e-12) & (values < hi - 1e-12)


def _model_grid(spec: ModelSpec, axes) -> np.ndarray:
    """The product of ``axes``; models whose reachable states live on a
    simplex (one unit-mass block per step) declare a cap on the coordinate
    sum, and the grid keeps only the points within it (plus 1e-12)."""
    cap = spec.meta.get("simplex_cap")
    return _grid_product(axes, None if cap is None else float(cap) + 1e-12)


def validation_grid(spec: ModelSpec) -> tuple:
    """The grid that validation probes, and its interior.

    Returns ``(grid, interior)``: the Cartesian product of
    :meth:`Domain.axes`, at :data:`GRID_DENSITY` points per axis, as (n, s)
    rows in lexicographic order (the last coordinate varies fastest, as in
    ``np.meshgrid(..., indexing="ij")``), within the model's ``simplex_cap``
    and built by :func:`_grid_product` without the rows past the cap, and a
    mask of those more than 1e-12 inside every edge of [lower, reach].
    """
    dom = spec.domain
    grid = _model_grid(spec, dom.axes())
    # column by column: a comparison with the (s,) bounds would loop over the s values of each row
    interior = np.logical_and.reduce([_inside(col, lo, hi) for col, lo, hi in zip(grid.T, dom.lower, dom.reach)])
    return grid, interior


def interior_grid(spec: ModelSpec) -> tuple:
    """``grid[interior]`` of :func:`validation_grid`, and the axes it is built from.

    Being interior is a test on each coordinate alone, so this is the
    product of each axis's interior values, within the cap, in the same
    order, and no boundary row is built. Returns ``(grid, axes)``.
    """
    dom = spec.domain
    axes = [values[_inside(values, lo, hi)] for values, lo, hi in zip(dom.axes(), dom.lower, dom.reach)]
    return _model_grid(spec, axes), axes


def _check_initial_atoms(spec: ModelSpec, errors: list):
    """The walk's average position at time 1 is its initial atom, so each
    atom must lie in the set the maps are validated on: the rectangle, and
    within ``simplex_cap`` (plus 1e-12, as the grid). The first atom
    outside it is reported."""
    dom, cap = spec.domain, spec.meta.get("simplex_cap")
    for atom in spec.initial.atoms:
        if not (np.all(atom >= dom.lower) and np.all(atom <= dom.upper)):
            errors.append(f"initial-law atom {atom.tolist()} lies outside the model rectangle "
                          f"[{dom.lower.tolist()}, {dom.upper.tolist()}]")
            return
        if cap is not None and atom.sum() > float(cap) + 1e-12:
            errors.append(f"initial-law atom {atom.tolist()} sums past meta.simplex_cap {cap!r}")
            return


def validate_model(spec: ModelSpec):
    """Validate a spec on a finite grid of :data:`GRID_DENSITY` points per axis.

    Returns a :class:`ValidatedModel` or raises :class:`ModelError` carrying
    the full list of violations (with an offending grid point each, where
    applicable).
    """
    errors = []
    if spec.s < 1 or spec.d < 1 or spec.r < 1:
        errors.append("dimensions s, d, r must be positive")
    _check_partition(spec, errors)
    if spec.step_law.s != spec.s:
        errors.append(f"step law dimension {spec.step_law.s} != s={spec.s}")
    if spec.A.shape != (spec.d, spec.s):
        errors.append(f"A must be {spec.d}x{spec.s}, got {spec.A.shape}")
    if spec.b.shape != (spec.d,):
        errors.append(f"b must be a {spec.d}-vector")
    for name, value in (("A", spec.A), ("b", spec.b)):
        if not np.isfinite(value).all():
            errors.append(f"{name} must be finite, got {value.tolist()}")
    if len(spec.prob_maps) != spec.r - 1:
        errors.append(f"need r-1={spec.r - 1} probability maps, got {len(spec.prob_maps)}")
    if spec.initial.atoms.shape[1] != spec.s:
        errors.append("initial-law atoms must be s-vectors")
    if spec.domain.s != spec.s:
        errors.append("domain dimension mismatch")
    _check_meta(spec, errors)
    if errors:
        raise ModelError("; ".join(errors))

    _check_initial_atoms(spec, errors)
    grid, interior = validation_grid(spec)
    total = np.zeros(grid.shape[0])
    cols = [grid[:, j] for j in range(spec.s)]
    for i, pm in enumerate(spec.prob_maps):
        with np.errstate(all="ignore"):  # every non-finite or out-of-range value is reported below
            vals = np.broadcast_to(pm.fast(cols), (grid.shape[0],))
        bad = np.where(~((vals >= -1e-12) & (vals <= 1.0 + 1e-12)))[0]  # NaN is bad too
        if bad.size:
            errors.append(
                f"probability-out-of-range: P_{i + 1}({grid[bad[0]].tolist()}) = {vals[bad[0]]:.6g}"
            )
        total += vals
    over = np.where(total > 1.0 + 1e-12)[0]
    if over.size:
        errors.append(
            f"probability-out-of-range: block probabilities sum to {total[over[0]]:.6g} at {grid[over[0]].tolist()}"
        )
    at_one = np.where((total >= 1.0 - 1e-15) & interior)[0]
    if at_one.size:
        errors.append(
            f"probability-out-of-range: block probabilities reach 1 at interior point {grid[at_one[0]].tolist()}"
        )
    if errors:
        raise ModelError("; ".join(errors))

    masks = np.zeros((spec.r, spec.s))
    for i, blk in enumerate(spec.partition):
        for j in blk:
            masks[i, j - 1] = 1.0
    return ValidatedModel(
        spec=spec,
        mu=spec.step_law.mu,
        sigma=spec.step_law.second_moment,
        block_masks=masks,
    )


# ---------------------------------------------------------------------------
# JSON serialization (strings in the expression grammar, matrices as lists)


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "s": spec.s,
        "d": spec.d,
        "r": spec.r,
        "partition": [list(blk) for blk in spec.partition],
        "step_law": {
            "kind": spec.step_law.kind,
            "atoms": spec.step_law.atoms.tolist(),
            "probs": spec.step_law.probs.tolist(),
        },
        "prob_maps": [pm.to_string() for pm in spec.prob_maps],
        "A": spec.A.tolist(),
        "b": spec.b.tolist(),
        "initial": {
            "atoms": spec.initial.atoms.tolist(),
            "probs": spec.initial.probs.tolist(),
        },
        "domain": {
            "lower": spec.domain.lower.tolist(),
            "upper": [None if math.isinf(u) else u for u in spec.domain.upper],
        },
        "meta": spec.meta,
    }


def spec_from_dict(doc) -> ModelSpec:
    """The spec a model file's JSON document describes.

    A missing field raises ``KeyError``. A document that is not a JSON
    object, or a field of the wrong JSON type, raises :class:`ModelError`
    naming the field.
    """
    if not isinstance(doc, dict):
        raise ModelError(f"a model file must hold a JSON object, got {type(doc).__name__}")

    def read(key, build):
        try:
            return build(doc[key])
        except (TypeError, AttributeError) as exc:
            raise ModelError(f"model field {key!r} has the wrong type: {exc}") from exc

    def integer(value):
        if not is_integer(value):
            raise TypeError(f"expected an integer, got {value!r}")
        return value

    def expression(text):
        if not isinstance(text, str):
            raise TypeError(f"expected a string, got {text!r}")
        return parse(text, arity=s)

    def domain(value):
        upper = [math.inf if u is None else float(u) for u in value["upper"]]
        return Domain(np.asarray(value["lower"], dtype=float), np.asarray(upper, dtype=float))

    s = read("s", integer)
    return ModelSpec(
        s=s,
        d=read("d", integer),
        r=read("r", integer),
        partition=read("partition", lambda v: tuple(tuple(integer(i) for i in blk) for blk in v)),
        step_law=read("step_law", lambda v: StepLaw(v["kind"], np.asarray(v["atoms"]), np.asarray(v["probs"]))),
        prob_maps=read("prob_maps", lambda v: tuple(map(expression, v))),
        A=read("A", lambda v: np.asarray(v, dtype=float)),
        b=read("b", lambda v: np.asarray(v, dtype=float)),
        initial=read("initial", lambda v: InitialLaw(np.asarray(v["atoms"]), np.asarray(v["probs"]))),
        domain=read("domain", domain),
        meta=doc.get("meta", {}),
    )


def save_model(spec: ModelSpec, path):
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ModelSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))
