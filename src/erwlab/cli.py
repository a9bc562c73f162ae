"""Command-line interface: simulate, analyze, oracle, verify, sa, presets.

Outputs are deterministic for a fixed config and seed: reports carry a
sha256 hash of the resolved configuration, and wall-clock metadata is
segregated into a ``*_runmeta.json`` sidecar so the main artifacts stay
byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from . import sa as sa_mod
from . import verify as verify_mod
from .funcdsl import DslError, parse
from .model import ModelError, is_number, load_model, save_model, spec_to_dict, validate_model
from .presets import build_preset, list_presets, parameter_defaults
from .simulate import FunctionalConfig, ensemble, stats_to_rows
from .theory import classify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

SUITES = ("slln", "clt", "lil", "super", "expansion", "recurrence")  # verify's order under --suite all

# every --tol-overrides key and the check parameter it sets; a key the file omits leaves the check's default
TOLERANCES = {
    "slln_z": "z",
    "ks_alpha": "alpha",
    "clt_rel_tol": "rel_tol",
    "lil_band": "band",
    "super_threshold": "threshold",
    "expansion_tolerance": "tolerance",
    "sa_var_tol": "tolerance",
}

# every preset parameter flag and its type, read off the builders' defaults; a tuple default makes a flag
# that takes a comma list of numbers
PRESET_PARAMS = {name: list if isinstance(default, tuple) else type(default)
                 for name, default in parameter_defaults().items()}


class ConfigError(Exception):
    pass


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()


def _write_json(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_sidecars(out_path: Path, spec):
    stem = out_path.with_suffix("")
    meta = {"wall_time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    _write_json(Path(f"{stem}_runmeta.json"), meta)
    save_model(spec, Path(f"{stem}_model.json"))


def _write_artifact(out_path: Path, resolved: dict, spec, body: dict) -> str:
    """Write ``body`` under the hash of the resolved config, and the sidecars unless
    ``spec`` is None; return the config hash."""
    digest = _config_hash(resolved)
    _write_json(out_path, {"config_hash": digest, **body})
    if spec is not None:
        _write_sidecars(out_path, spec)
    return digest


def _write_table(out_path: Path, header, rows, resolved: dict, spec) -> str:
    """Write a CSV table and, beside it, its config JSON and the sidecars; return the config hash."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return _write_artifact(out_path.with_suffix(".json"), resolved, spec, {"config": resolved})


def _resolve_model(args):
    """The validated model, its spec and the base of the resolved config: the command, the source and the model."""
    params = {}
    # ModelError, the DSL's errors, JSONDecodeError and a bad number in a
    # comma list are ValueErrors; a KeyError is a missing field of a model file
    try:
        for name, kind in PRESET_PARAMS.items():
            value = getattr(args, name)
            if kind is list:
                if value:
                    params[name] = [float(v) for v in value.split(",")]
            elif value is not None:
                params[name] = value
        if args.model:
            path = Path(args.model)
            if not path.exists():
                raise ConfigError(f"config-invalid: model file {path} does not exist")
            spec = load_model(path)
            source = {"model_file": str(path)}
        elif args.preset:
            spec = build_preset(args.preset, **params)
            source = {"preset": args.preset, "params": params}
        else:
            raise ConfigError("config-invalid: provide --model or --preset")
        model = validate_model(spec)
    except (ValueError, KeyError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"config-invalid: {detail}") from exc
    return model, spec, {"command": args.command, "source": source, "model": spec_to_dict(spec)}


def _add_model_args(parser):
    parser.add_argument("--model", help="model JSON file")
    parser.add_argument("--preset", help="preset name (see `erw-lab presets`)")
    for name, kind in PRESET_PARAMS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=str if kind is list else kind, default=None,
                            help="comma list of numbers" if kind is list else None)


def _load_tol_overrides(args) -> dict:
    if not args.tol_overrides:
        return {}
    path = Path(args.tol_overrides)
    if not path.exists():
        raise ConfigError(f"config-invalid: tolerance override file {path} does not exist")
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
        raise ConfigError(f"config-invalid: tolerance override file {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError(f"config-invalid: tolerance override file {path} must hold a JSON object")
    for key, value in overrides.items():
        if key not in TOLERANCES:
            raise ConfigError(f"config-invalid: unknown tolerance override {key!r}; known: {', '.join(TOLERANCES)}")
        if key == "lil_band":
            ok = isinstance(value, list) and len(value) == 2 and all(map(is_number, value))
        else:
            ok = is_number(value)
        if not ok:
            want = "a list of two numbers" if key == "lil_band" else "a number"
            raise ConfigError(f"config-invalid: tolerance override {key!r} must be {want}, got {value!r}")
        # json.load reads NaN and Infinity; a comparison refuses them, and ints past the float range too
        if not all(0 <= v <= sys.float_info.max for v in (value if key == "lil_band" else [value])):
            raise ConfigError(f"config-invalid: tolerance override {key!r} must be finite and >= 0, got {value!r}")
        if key == "ks_alpha" and value > 1:
            raise ConfigError(f"config-invalid: tolerance override 'ks_alpha' must lie in [0, 1], got {value!r}")
        if key == "lil_band" and value[0] > value[1]:
            raise ConfigError(f"config-invalid: tolerance override 'lil_band' must have low <= high, got {value!r}")
    return overrides


def _tol(overrides: dict, *keys) -> dict:
    """The keyword arguments that the override file sets among ``keys``."""
    return {TOLERANCES[k]: overrides[k] for k in keys if k in overrides}


def cmd_simulate(args) -> int:
    model, spec, resolved = _resolve_model(args)
    out_path = Path(args.out or "stats.csv")
    stats = ensemble(model, args.n, args.N, args.seed, threads=args.threads)
    resolved.update({"n": args.n, "N": args.N, "seed": args.seed, "checkpoints": stats.checkpoints})
    header = ["checkpoint", "component", "mean", "se", "var"] + [f"cov_{k}" for k in range(model.d)]
    digest = _write_table(out_path, header, stats_to_rows(stats), resolved, spec)
    print(f"wrote {out_path} ({args.N} trajectories to n={args.n}); config {digest[:12]}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    model, spec, resolved = _resolve_model(args)
    report = classify(model)
    out_path = Path(args.out or "report.json")
    _write_artifact(out_path, resolved, spec, {"regime_report": report.to_dict()})
    print(f"regime: {report.regime} (tau={report.tau:.6g}, kappa={report.kappa}); wrote {out_path}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    model, spec, resolved = _resolve_model(args)
    out_path = Path(args.out or "law.csv")
    resolved["n"] = args.n
    if oracle_mod.is_unit_step_1d(model):
        law = oracle_mod.exact_dp_1d(model, args.n)
        rows = [(k, float(p), float(law.A * k + law.n * law.b)) for k, p in enumerate(law.pmf)]
        header = ["k", "probability", "observed_value"]
    else:
        sparse = oracle_mod.enumerate_small_multi(model, args.n)
        rows = [list(pos) + [prob] for pos, prob in sorted(sparse.items())]
        header = [f"x{j + 1}" for j in range(model.s)] + ["probability"]
    digest = _write_table(out_path, header, rows, resolved, spec)
    print(f"wrote exact law at n={args.n} to {out_path}; config {digest[:12]}")
    return EXIT_OK


def _run_suites(model, report, args, overrides) -> list:
    suites = [args.suite] if args.suite != "all" else list(SUITES)
    regime = report.regime
    clt_regime = regime in ("Diffusive", "Critical")
    in_regime = f"not applicable in regime {regime}"
    skip_reason = {  # None where the suite applies
        "slln": None,
        "clt": None if clt_regime else in_regime,
        "lil": None if clt_regime and model.s == 1 else f"not applicable (regime {regime}, s={model.s})",
        "super": None if regime == "Supercritical" else in_regime,
        "expansion": None if regime == "Supercritical" and model.s == 1 else in_regime,
        "recurrence": None if model.integer_lattice else "not applicable: needs a d=1 integer-lattice model",
    }
    runs = {suite for suite in suites if skip_reason[suite] is None}
    cfg = FunctionalConfig(
        center=np.asarray(report.limit, dtype=float),
        lil_mode=("diffusive" if regime == "Diffusive" else "critical") if "lil" in runs else None,
        lil_window=(max(1000, args.n // 100), None),
        track_returns="recurrence" in runs,
    )
    stats = ensemble(model, args.n, args.N, args.seed, threads=args.threads, functional_config=cfg)
    checks = {
        "slln": lambda: verify_mod.slln_test(stats, report.limit, report.clt_variance, **_tol(overrides, "slln_z")),
        "clt": lambda: verify_mod.fluctuation_test(stats, report, **_tol(overrides, "ks_alpha", "clt_rel_tol")),
        "lil": lambda: verify_mod.lil_envelope_test(stats, report, **_tol(overrides, "lil_band")),
        "super": lambda: verify_mod.supercritical_limit_test(stats, report, **_tol(overrides, "super_threshold")),
        "expansion": lambda: verify_mod.expansion_residual_test(stats, report,
                                                                **_tol(overrides, "expansion_tolerance")),
        "recurrence": lambda: verify_mod.recurrence_report(stats, report),
    }
    reports = []
    skipped = []
    for suite in suites:
        if suite not in runs:
            skipped.append((suite, skip_reason[suite]))
            continue
        try:
            reports.append(checks[suite]())
        except verify_mod.VerifyError as exc:
            skipped.append((suite, str(exc)))
    return reports, skipped


def cmd_verify(args) -> int:
    model, spec, resolved = _resolve_model(args)
    overrides = _load_tol_overrides(args)
    report = classify(model)
    reports, skipped = _run_suites(model, report, args, overrides)
    out_path = Path(args.out or "verdicts.json")
    resolved.update({"suite": args.suite, "n": args.n, "N": args.N, "seed": args.seed, "tol_overrides": overrides})
    _write_artifact(out_path, resolved, spec, {
        "regime_report": report.to_dict(),
        "checks": [r.to_dict() for r in reports],
        "skipped": [{"suite": s, "reason": why} for s, why in skipped],
    })
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.theorem}: statistic={r.statistic} predicted={r.predicted}")
    for s, why in skipped:
        print(f"SKIP {s}: {why}")
    if not reports:
        print("config-invalid: no applicable checks for the requested suite", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_sa(args) -> int:
    overrides = _load_tol_overrides(args)
    out_path = Path(args.out or "sa_verdicts.json")
    resolved = {"command": "sa", "seed": args.seed, "n": args.n, "N": args.N}
    if args.model or args.preset:
        model, _, base = _resolve_model(args)
        resolved["source"] = base["source"]
        sa_mod.walk_theta0(model)  # the reduction needs s = 1 and a unique fixed point
        check = sa_mod.noise_moment_check(model, n_max=min(args.n, 4000), N=min(args.N, 500), master_seed=args.seed)
    elif args.drift:
        try:
            noise = sa_mod.NoiseSpec.parse(args.noise)
            proc = sa_mod.SAProcess(
                drift=parse(args.drift, 1),
                theta0=args.theta0,
                noise=noise,
                theta1=args.theta1,
            )
        except ValueError as exc:  # ModelError and the DSL's errors included
            raise ConfigError(f"config-invalid: {exc}") from exc
        resolved.update({"drift": args.drift, "theta0": args.theta0, "noise": args.noise})
        paths = sa_mod.run_sa(proc, args.n, N=args.N, master_seed=args.seed)
        if proc.psi_prime() > 0.5:
            check = sa_mod.sa_clt_variance_check(proc, paths, **_tol(overrides, "sa_var_tol"))
        else:
            check = sa_mod.sa_expansion_check(proc, paths, **_tol(overrides, "expansion_tolerance"))
    else:
        raise ConfigError("config-invalid: provide --drift or --model/--preset")
    _write_artifact(out_path, resolved, None, {"checks": [check.to_dict()]})  # sa writes no sidecars
    print(f"{'PASS' if check.passed else 'FAIL'} {check.name}")
    return EXIT_OK if check.passed else EXIT_CHECK_FAILED


def cmd_presets(args) -> int:
    rows = list_presets()
    width = max(len(r[0]) for r in rows)
    pwidth = max(len(r[1]) for r in rows)
    for name, params, note in rows:
        print(f"{name:<{width}}  {params:<{pwidth}}  {note}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="erw-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        """--out and the model flags, plus those of --seed, --threads and --tol-overrides named in flags."""
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=42, help="master seed (no wall-clock seeding)")
        if "threads" in flags:
            p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", type=str, default=None)
        if "tol_overrides" in flags:
            p.add_argument("--tol-overrides", dest="tol_overrides", type=str, default=None)
        _add_model_args(p)

    p_sim = sub.add_parser("simulate", help="run a seeded ensemble and write checkpoint statistics")
    common(p_sim, "seed", "threads")
    p_sim.add_argument("--n", type=int, default=10000)
    p_sim.add_argument("--N", type=int, default=1000)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="compute the full analytic regime report")
    common(p_an, "threads")  # checked but unused: analyze runs no ensemble
    p_an.set_defaults(func=cmd_analyze)

    p_or = sub.add_parser("oracle", help="exact small-horizon law")
    common(p_or)
    p_or.add_argument(
        "--n", type=int, default=12,
        help="horizon n >= 1: a 1-d unit-step model started in {0,1} gets the law of k = V_n from the "
        "dense DP, any other model the sparse enumeration's positions (either stopped with "
        "too-many-states past 1e6 state x block x atom entries in a step)",
    )
    p_or.set_defaults(func=cmd_oracle)

    p_ver = sub.add_parser("verify", help="statistical checks of the limit theorems")
    common(p_ver, "seed", "threads", "tol_overrides")
    p_ver.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p_ver.add_argument("--n", type=int, default=20000)
    p_ver.add_argument("--N", type=int, default=4000)
    p_ver.set_defaults(func=cmd_verify)

    p_sa = sub.add_parser("sa", help="stochastic approximation runner and checks")
    common(p_sa, "seed", "threads", "tol_overrides")  # threads checked but unused: perfbench passes it
    p_sa.add_argument("--drift", type=str, default=None, help="drift expression in x, e.g. '0.3*x + x^2'")
    p_sa.add_argument("--theta0", type=float, default=0.0)
    p_sa.add_argument("--theta1", type=float, default=0.0)
    p_sa.add_argument("--noise", type=str, default="gaussian:1.0")
    p_sa.add_argument("--n", type=int, default=100000)
    p_sa.add_argument("--N", type=int, default=2000)
    p_sa.set_defaults(func=cmd_sa)

    p_pre = sub.add_parser("presets", help="list registered presets")
    p_pre.set_defaults(func=cmd_presets)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"config-invalid: threads must be >= 1, got {args.threads}")
        if args.command in ("simulate", "verify") and args.N < 2:  # their standard errors divide by N - 1
            raise ConfigError(f"config-invalid: {args.command} needs --N >= 2 trajectories, got {args.N}")
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (ModelError, DslError) as exc:
        print(f"config-invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
