"""The four benchmark workloads: seeded inputs, operations and output checks.

A workload is built from a benchmark seed and a size. Building it creates and
validates every model its operations use and warms their compiled
``FuncExpr.fast`` evaluators; that is the set-up a user pays per process.
Each operation then returns the bytes that make up its digest and raises
``CheckFailed`` when an output disagrees with an exact answer. The program
only ever sees preset names, parameters and master seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import erwlab.cli
from erwlab import model as model_mod
from erwlab import oracle, presets, simulate, theory

# Sizes: "default" is what the benchmark measures; "tiny" keeps every
# operation but shrinks horizons and ensembles so the smoke test is quick.
# The sa expansion check needs at least 100 converged paths, hence sa_N.
SIZES = {
    "default": {"long_n": 2500, "long_N": 256, "sa_n": 10000, "sa_N": 256,
                "oracle_N": 4096, "dp_n": 2000, "grid_1d": 4, "grid_multi": 3},
    "tiny": {"long_n": 300, "long_N": 16, "sa_n": 300, "sa_N": 128,
             "oracle_N": 256, "dp_n": 50, "grid_1d": 1, "grid_multi": 1},
}

ORACLE_N = 12  # horizon of the acceptance oracle test
KDIM_ORACLE_N = 11  # largest horizon the kdim k=2 path guard (4^n <= 1e7) accepts
ORACLE_Z = 6.0  # ensemble mean vs exact mean, in standard errors
EXACT_GAP = 1e-12  # exact DP vs sparse enumeration

# The nine unit-step presets of the acceptance oracle test.
UNIT_STEP_PRESETS = (
    ("erw", {"p": 0.6, "q": 0.5}),
    ("gerw-1d", {"f": "x^2", "p": 0.8, "q": 0.5}),
    ("linear", {"a": 0.0, "b": 0.7, "p": 0.6, "q": 0.5}),
    ("quadratic-sym", {"p": 0.75, "q": 0.5}),
    ("market", {"p": 0.5, "q": 0.5}),
    ("minimal", {"f": "x^2", "p": 0.9, "q": 0.3}),
    ("poly-g", {"coeffs": (0.4, 0.2), "p": 0.7, "q": 0.5}),
    ("phi-power", {"phi": "tanh", "k": 2, "p": 0.7, "q": 0.5}),
    ("cubic-supercritical", {"p": 0.62, "q": 0.5}),
)


class CheckFailed(Exception):
    """An output disagreed with its exact reference."""


@dataclass
class Context:
    """Per-operation scratch: the artifact directory and the ensemble hashes."""

    out_dir: Path
    ensembles: list = field(default_factory=list)
    artifact_bytes: int = 0

    def reset(self):
        self.ensembles.clear()
        self.artifact_bytes = 0
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)


@dataclass
class Op:
    name: str
    run: Callable[[Context], list]


@dataclass
class Workload:
    name: str
    models: list
    ops: list
    extras: tuple = ()  # layer probes of the traced run: "thread_speedup", "stream_setup"


def build_model(preset: str, params: dict):
    vm = model_mod.validate_model(presets.build_preset(preset, **params))
    for pm in vm.spec.prob_maps:
        pm.fast  # compile once, as the simulator's first step would
    return vm


def _cli_argv(preset: str, params: dict) -> list:
    argv = ["--preset", preset]
    for key, value in params.items():
        flag = {"z_values": "--z-values", "z_probs": "--z-probs"}.get(key, f"--{key}")
        if isinstance(value, (tuple, list)):
            value = ",".join(repr(float(v)) for v in value)
        argv += [flag, str(value)]
    return argv


def cli_op(name: str, argv: list, out_name: str, allowed=(0, 1)) -> Op:
    """One in-process ``erw-lab`` call; exit 1 (a theorem check failed) is a
    completed operation whose verdicts enter the digest."""

    def run(ctx: Context) -> list:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = erwlab.cli.main(argv + ["--threads", "1", "--out", str(ctx.out_dir / out_name)])
        if rc not in allowed:
            raise CheckFailed(f"exit code {rc}")
        parts = [f"exit={rc}".encode()]
        for path in sorted(ctx.out_dir.iterdir()):
            ctx.artifact_bytes += path.stat().st_size
            if not path.name.endswith("_runmeta.json"):  # carries wall-clock time
                parts += [path.name.encode(), path.read_bytes()]
        return parts

    return Op(name, run)


def _seeds(rng: random.Random, count: int) -> list:
    return [rng.randrange(1, 2**31) for _ in range(count)]


# ---------------------------------------------------------------------------
# long-1d / long-multi: whole CLI commands at long horizons, n >> N


LONG_1D_VERIFY = (
    ("erw", {"p": 0.6, "q": 0.5}),  # diffusive: LIL and return functionals on
    ("quadratic-sym", {"p": 0.75, "q": 0.5}),  # critical
    ("erw", {"p": 0.85, "q": 0.5}),  # supercritical: super and expansion suites
)
LONG_1D_SIMULATE = ("market", {"p": 0.5, "q": 0.5})
SA_DRIFT = ("0.3*x + x^2", "gaussian:0.05")  # psi'(0) = 0.3 < 1/2
SA_MODEL = ("erw", {"p": 0.6, "q": 0.5})  # the walk's own noise-moment check

LONG_MULTI_VERIFY = (
    ("kdim", {"k": 3, "p": 0.5}),  # s=5, r=6
    ("kdim", {"k": 2, "f": "x^2", "p": 0.7}),  # no closed form, numeric theory
    ("random-step", {"p": 0.7}),  # two step atoms {1, 2}
)
LONG_MULTI_SIMULATE = ("random-step", {"f": "x^2", "p": 0.8})


def _long(name, verify_cases, simulate_case, with_sa, seed, size) -> Workload:
    sz = SIZES[size]
    n, N = str(sz["long_n"]), str(sz["long_N"])
    rng = random.Random(f"{name}:{seed}")
    ops = []
    for (preset, params), master in zip(verify_cases, _seeds(rng, len(verify_cases))):
        argv = ["verify"] + _cli_argv(preset, params) + ["--suite", "all", "--n", n, "--N", N,
                                                         "--seed", str(master)]
        ops.append(cli_op(f"verify:{preset}:{_label(params)}", argv, "verdicts.json"))
    preset, params = simulate_case
    argv = ["simulate"] + _cli_argv(preset, params) + ["--n", n, "--N", N, "--seed", str(_seeds(rng, 1)[0])]
    ops.append(cli_op(f"simulate:{preset}:{_label(params)}", argv, "stats.csv", allowed=(0,)))
    if with_sa:
        drift, noise = SA_DRIFT
        argv = ["sa", "--drift", drift, "--theta0", "0", "--noise", noise, "--n", str(sz["sa_n"]),
                "--N", str(sz["sa_N"]), "--seed", str(_seeds(rng, 1)[0])]
        ops.append(cli_op("sa:drift", argv, "sa_verdicts.json"))
        preset, params = SA_MODEL
        argv = ["sa"] + _cli_argv(preset, params) + ["--n", n, "--N", N, "--seed", str(_seeds(rng, 1)[0])]
        ops.append(cli_op(f"sa:{preset}:{_label(params)}", argv, "sa_verdicts.json"))
    models = [build_model(p, kw) for p, kw in verify_cases + (simulate_case,)]
    return Workload(name, models, ops, ("thread_speedup",) if with_sa else ())


def _label(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


# ---------------------------------------------------------------------------
# short-oracle: n = 12, N >> n, every ensemble mean against the exact law


def _z(mc_mean, exact_mean, exact_var, N) -> float:
    se = math.sqrt(max(exact_var, 0.0) / N)
    gap = abs(mc_mean - exact_mean)
    if se == 0.0:
        return 0.0 if gap <= 1e-12 else math.inf
    return gap / se


def _oracle_1d_op(label, vm, N, master) -> Op:
    def run(ctx: Context) -> list:
        law = oracle.exact_dp_1d(vm, ORACLE_N)
        sparse = oracle.enumerate_small_multi(vm, ORACLE_N)
        lookup = {int(round(pos[0])): prob for pos, prob in sparse.items()}
        gap = max(abs(float(law.pmf[k]) - lookup.get(k, 0.0)) for k in range(ORACLE_N + 1))
        if gap > EXACT_GAP:
            raise CheckFailed(f"exact DP and enumeration differ by {gap:.3e}")
        stats = simulate.ensemble(vm, ORACLE_N, N, master, checkpoints=[ORACLE_N])
        mean, var = law.moments_observed()
        z = _z(float(stats.snn[:, -1, 0].mean()) * ORACLE_N, mean, var, N)
        if z > ORACLE_Z:
            raise CheckFailed(f"ensemble mean is {z:.2f} SE from the exact mean")
        return [law.pmf.tobytes(), repr(sorted(sparse.items())).encode()]

    return Op(f"oracle:{label}", run)


def _oracle_kdim_op(vm, N, master) -> Op:
    def run(ctx: Context) -> list:
        n = KDIM_ORACLE_N
        sparse = oracle.enumerate_small_multi(vm, n)
        mean, cov = oracle.exact_moments(sparse, vm.spec.A, vm.spec.b, n)
        stats = simulate.ensemble(vm, n, N, master, checkpoints=[n])
        mc = stats.snn[:, -1, :].mean(axis=0) * n
        worst = max(_z(float(mc[j]), float(mean[j]), float(cov[j, j]), N) for j in range(vm.d))
        if worst > ORACLE_Z:
            raise CheckFailed(f"ensemble mean is {worst:.2f} SE from the exact mean")
        return [repr(sorted(sparse.items())).encode()]

    return Op("oracle:kdim:k=2", run)


def _dp_limit_op(vm, n) -> Op:
    def run(ctx: Context) -> list:
        law = oracle.exact_dp_1d(vm, n)
        return [law.pmf.tobytes()]

    return Op(f"exact_dp_1d:n={n}", run)


def _short_oracle(seed, size) -> Workload:
    sz = SIZES[size]
    rng = random.Random(f"short-oracle:{seed}")
    models, ops = [], []
    for (preset, params), master in zip(UNIT_STEP_PRESETS, _seeds(rng, len(UNIT_STEP_PRESETS))):
        vm = build_model(preset, params)
        models.append(vm)
        ops.append(_oracle_1d_op(preset, vm, sz["oracle_N"], master))
    kdim = build_model("kdim", {"k": 2, "p": 0.6})
    models.append(kdim)
    ops.append(_oracle_kdim_op(kdim, sz["oracle_N"], _seeds(rng, 1)[0]))
    ops.append(_dp_limit_op(models[0], sz["dp_n"]))
    return Workload("short-oracle", models, ops, ("stream_setup",))


# ---------------------------------------------------------------------------
# phase-sweep: classify over seeded parameter grids, no simulation


def _stratified(rng, lo, hi, k) -> list:
    """One point in each of k equal slices of [lo, hi): every seed covers the
    whole range, so the work per pass barely depends on the seed (theory
    costs grow with p)."""
    return [round(lo + (hi - lo) * (i + rng.random()) / k, 4) for i in range(k)]


# (preset, fixed parameters, exact boundary points of p, seeded range of p)
SWEEP_1D = (
    ("erw", {"q": 0.5}, (0.75,), (0.55, 0.95)),
    ("gerw-1d", {"f": "0.2 + 0.6*x^3", "q": 0.5}, (), (0.55, 0.95)),
    ("linear", {"a": 0.5, "b": 0.25, "q": 0.5}, (), (0.55, 0.95)),
    ("quadratic-sym", {"q": 0.5}, (0.75,), (0.55, 0.95)),
    ("market", {"q": 0.5}, (), (0.3, 0.7)),
    ("poly-g", {"coeffs": (0.4, 0.2), "q": 0.5}, (), (0.55, 0.95)),
    ("phi-power", {"phi": "tanh", "k": 2, "q": 0.5}, (), (0.55, 0.95)),
    ("cubic-supercritical", {"q": 0.5}, (), (0.38, 0.62)),
    ("minimal", {"f": "x^2", "q": 0.3}, (), (0.6, 0.95)),
)
SWEEP_MULTI = (
    ("kdim", {"k": 2, "f": "x^2"}, (0.55, 0.9)),
    ("kdim", {"k": 3}, (0.4, 0.8)),  # classify cost climbs steeply past p = 0.8
    ("random-step", {}, (0.55, 0.8)),
    ("random-step", {"f": "x^2"}, (0.55, 0.9)),
)
ANALYZE_CASES = (
    ("erw", {"p": 0.75, "q": 0.5}),
    ("kdim", {"k": 2, "f": "x^2", "p": 0.7}),
    ("random-step", {"p": 0.7}),
)


def _erw_regime(p: float) -> str:
    """Closed form for q = 1/2: tau = 2p - 1."""
    tau = 2.0 * p - 1.0
    return "Diffusive" if tau < 0.5 else "Critical" if tau == 0.5 else "Supercritical"


def _classify_op(label, preset, params, vm) -> Op:
    def run(ctx: Context) -> list:
        report = theory.classify(vm)
        if preset == "erw" and params["q"] == 0.5 and report.regime != _erw_regime(params["p"]):
            raise CheckFailed(f"regime {report.regime} at p={params['p']}")
        parts = [json.dumps(report.to_dict(), sort_keys=True, default=repr).encode()]
        if report.regime != "Unsupported":
            sigma0, limit_sigma, clt_cov, lil = theory.asymptotic_covariances(vm, report.x0, report.profile)
            parts += [sigma0.tobytes(), repr((limit_sigma, clt_cov, lil)).encode()]
        return parts

    return Op(f"classify:{label}", run)


def _phase_sweep(seed, size) -> Workload:
    sz = SIZES[size]
    rng = random.Random(f"phase-sweep:{seed}")
    cases = []
    for preset, fixed, exact_ps, (lo, hi) in SWEEP_1D:
        ps = list(exact_ps) + _stratified(rng, lo, hi, sz["grid_1d"])
        cases += [(preset, {**fixed, "p": p}) for p in ps]
    for preset, fixed, (lo, hi) in SWEEP_MULTI:
        cases += [(preset, {**fixed, "p": p}) for p in _stratified(rng, lo, hi, sz["grid_multi"])]
    models, ops = [], []
    for preset, params in cases:
        vm = build_model(preset, params)
        models.append(vm)
        ops.append(_classify_op(f"{preset}:{_label(params)}", preset, params, vm))
    for preset, params in ANALYZE_CASES:
        models.append(build_model(preset, params))
        ops.append(cli_op(f"analyze:{preset}:{_label(params)}", ["analyze"] + _cli_argv(preset, params),
                          "report.json", allowed=(0,)))
    return Workload("phase-sweep", models, ops)


def build(name: str, seed: int, size: str = "default") -> Workload:
    """Build a workload's models and operations from the benchmark seed."""
    if name == "long-1d":
        return _long(name, LONG_1D_VERIFY, LONG_1D_SIMULATE, True, seed, size)
    if name == "long-multi":
        return _long(name, LONG_MULTI_VERIFY, LONG_MULTI_SIMULATE, False, seed, size)
    if name == "short-oracle":
        return _short_oracle(seed, size)
    if name == "phase-sweep":
        return _phase_sweep(seed, size)
    raise ValueError(f"unknown workload {name!r}")
