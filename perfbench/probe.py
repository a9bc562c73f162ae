"""Measurement from outside the package: wrap public functions where their
callers look them up, record spans and counts in memory, derive self times.

With tracing off only the ensemble entry points are wrapped, and only to
hash each ensemble's ``snn`` and ``aux_final``; with tracing on every
boundary below records a span (name, start, end, parent). Exiting the
context restores every original attribute.
"""

from __future__ import annotations

import hashlib
import inspect
import time
from collections import Counter

import erwlab.cli
from erwlab import funcdsl, model, oracle, presets, sa, simulate, theory, verify

LAYERS = ("funcdsl", "model", "presets", "simulate", "theory", "oracle", "verify", "sa", "cli")

VERIFY_CHECKS = ("slln_test", "fluctuation_test", "lil_envelope_test", "supercritical_limit_test",
                 "expansion_residual_test", "recurrence_report")

# (owner, attribute, span name). ``cli`` and ``sa`` bind some functions by
# name at import, so those bindings are wrapped as well as the defining module.
BOUNDARIES = (
    [
        (erwlab.cli, "main", "cli.main"),
        (erwlab.cli, "build_preset", "presets.build_preset"),
        (presets, "build_preset", "presets.build_preset"),
        (erwlab.cli, "validate_model", "model.validate_model"),
        (model, "validate_model", "model.validate_model"),
        (model.ValidatedModel, "block_probs", "model.block_probs"),
        (erwlab.cli, "ensemble", "simulate.ensemble"),
        (sa, "ensemble", "simulate.ensemble"),
        (simulate, "ensemble", "simulate.ensemble"),
        (erwlab.cli, "classify", "theory.classify"),
        (theory, "classify", "theory.classify"),
        (theory, "find_fixed_point", "theory.find_fixed_point"),
        (theory, "jacobian", "theory.jacobian"),
        (theory, "spectral_profile", "theory.spectral_profile"),
        (theory, "asymptotic_covariances", "theory.asymptotic_covariances"),
        (funcdsl, "evaluate", "funcdsl.evaluate"),
        (funcdsl, "derive_at", "funcdsl.derive_at"),
        (sa, "derive_at", "funcdsl.derive_at"),
        (oracle, "exact_dp_1d", "oracle.exact_dp_1d"),
        (oracle, "enumerate_small_multi", "oracle.enumerate_small_multi"),
        (sa, "run_sa", "sa.run_sa"),
        (sa, "sa_expansion_check", "sa.sa_expansion_check"),
        (sa, "noise_moment_check", "sa.noise_moment_check"),
    ]
    + [(verify, name, f"verify.{name}") for name in VERIFY_CHECKS]
)

_ENSEMBLE_ARGS = inspect.signature(simulate.ensemble)
_RUN_SA_ARGS = inspect.signature(sa.run_sa)


def ensemble_digest(stats) -> str:
    h = hashlib.sha256(stats.snn.tobytes())
    h.update(stats.aux_final.tobytes())
    return h.hexdigest()


class Probe:
    """Context manager installing the wrappers for one pass.

    ``on_ensemble(digest)`` receives the hash of every ensemble, traced or
    not. When ``trace`` is true, ``spans`` holds ``[name, start, end,
    parent]`` lists (parent is an index into ``spans`` or -1) and ``counts``
    the work done at the boundaries.
    """

    def __init__(self, on_ensemble, trace: bool):
        self.on_ensemble = on_ensemble
        self.trace = trace
        self.spans = []
        self.counts = Counter()
        self._stack = [-1]
        self._saved = []

    def _hook(self, name):
        if name == "simulate.ensemble":
            def hook(args, kwargs, result):
                bound = _ENSEMBLE_ARGS.bind(*args, **kwargs).arguments
                self.counts["simulate.step_traj"] += bound["n_max"] * bound["N"]
                self.on_ensemble(ensemble_digest(result))
            return hook
        if name == "sa.run_sa":
            def hook(args, kwargs, result):
                bound = _RUN_SA_ARGS.bind(*args, **kwargs).arguments
                self.counts["sa.step_paths"] += bound["n_max"] * bound.get("N", 1)
            return hook
        if name.startswith("oracle."):
            def hook(args, kwargs, result):
                self.counts["oracle.states"] += len(result.pmf) if hasattr(result, "pmf") else len(result)
            return hook
        return None

    def _wrap(self, fn, name):
        hook = self._hook(name)
        if not self.trace:
            def digest_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(args, kwargs, result)
                return result
            return digest_only

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name in BOUNDARIES:
            if not self.trace and name != "simulate.ensemble":
                continue
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def pass_metrics(spans, counts, wall: float) -> dict:
    """Per-layer figures of one traced pass.

    Self time is a span's duration minus its children's; the layers' self
    times plus ``bench.self_s`` (time outside every span) sum to ``wall``.
    """
    child = [0.0] * len(spans)
    total = Counter()
    calls = Counter()
    top = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            top += end - start
    self_s = Counter({layer: 0.0 for layer in LAYERS})
    for (name, start, end, parent), inner in zip(spans, child):
        self_s[name.split(".", 1)[0]] += end - start - inner
        calls[name] += 1
        # inclusive time, counted once when a function re-enters itself
        if parent < 0 or not _inside(spans, parent, name):
            total[name] += end - start
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m["bench.self_s"] = wall - top
    m["trace.wall_s"] = wall
    m["simulate.ensemble_s"] = total["simulate.ensemble"]
    m["simulate.step_traj"] = counts["simulate.step_traj"]
    m["model.block_probs_s"] = total["model.block_probs"]
    m["model.block_probs_calls"] = calls["model.block_probs"]
    m["funcdsl.evaluate_calls"] = calls["funcdsl.evaluate"]
    m["funcdsl.derive_at_calls"] = calls["funcdsl.derive_at"]
    m["funcdsl.derive_at_s"] = total["funcdsl.derive_at"]
    m["theory.classify_calls"] = calls["theory.classify"]
    for fn in ("classify", "find_fixed_point", "jacobian", "spectral_profile", "asymptotic_covariances"):
        m[f"theory.{fn}_s"] = total[f"theory.{fn}"]
    m["oracle.exact_dp_1d_s"] = total["oracle.exact_dp_1d"]
    m["oracle.enumerate_small_multi_s"] = total["oracle.enumerate_small_multi"]
    m["oracle.states"] = counts["oracle.states"]
    m["verify.checks_s"] = sum(total[f"verify.{name}"] for name in VERIFY_CHECKS)
    m["verify.expansion_residual_s"] = total["verify.expansion_residual_test"]
    m["sa.run_sa_s"] = total["sa.run_sa"]
    m["sa.step_paths"] = counts["sa.step_paths"]
    m["sa.expansion_check_s"] = total["sa.sa_expansion_check"]
    m["sa.noise_moment_check_s"] = total["sa.noise_moment_check"]
    m["presets.build_s"] = total["presets.build_preset"]
    m["model.validate_s"] = total["model.validate_model"]
    return m


def _inside(spans, idx, name) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False
