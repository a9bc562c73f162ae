"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload long-1d --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. A run
times the workload's set-up in this process and in fresh processes, runs one
untimed pass at the reference seed and compares its digests with
``reference_digests.json``, then repeats timed passes at ``--seed`` for
``--seconds``. A short calibration loop runs between a pass's operations,
and ``wall_s`` is the median pass time in units of that loop, scaled back to
seconds on the machine the benchmark was defined on. Every pass must
reproduce the digests of the first. With ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are printed instead of the
end-to-end ones. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
REFERENCE = HERE / "reference_digests.json"
REFERENCE_SEED = 42  # the CLI's default seed
SETUP_PROBES = 2  # fresh processes timing set-up, besides this one
MIN_PASSES = 3
REPEATS = 3  # samples per side for the stream-setup and thread probes
THREAD_PROBE = {"default": (1000, 4096), "tiny": (50, 4096)}  # n, N: two batches of 2048
STREAM_PROBE_N = {"default": 20000, "tiny": 2000}
# Median calibrate() times on the 2-core Xeon (KVM guest) where this benchmark
# was defined, so that wall_s and setup_s read as seconds on that machine:
# between a pass's operations (cold caches), and right after set-up.
CALIBRATION_REF_S = 0.0035
SETUP_CALIBRATION_REF_S = 0.0025
CALIBRATE_EVERY_S = 0.1  # between operations, at most this often
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("long-1d", "long-multi", "short-oracle", "phase-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="tiny shrinks every operation, for the smoke test")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the reference pass's digests instead of checking them")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(args):
    """Import the package, build and validate the models, warm the compiled
    evaluators. Returns (seconds, mean calibrate() time right after, workload)."""
    t0 = time.perf_counter()
    import erwlab  # noqa: F401
    import erwlab.cli  # noqa: F401
    import workloads

    wl = workloads.build(args.workload, args.seed, args.size)
    seconds = time.perf_counter() - t0
    import numpy as np

    small = np.random.default_rng(0).random(256)
    return seconds, statistics.fmean(calibrate(small) for _ in range(REPEATS)), wl


def setup_in_fresh_process(args) -> tuple:
    cmd = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["calibration_s"]


@dataclass
class Pass:
    wall: float  # without the calibration loops
    calibration: list  # calibrate() times sampled through the pass
    digests: dict  # operation name -> sha256 of its outputs
    errors: dict  # operation name -> why it failed
    probe: object  # the Probe, holding spans and counts when traced
    artifact_bytes: int


def run_pass(wl, ctx, trace: bool, calibrate_fn=None) -> Pass:
    """Run every operation once, timing the whole pass; ``calibrate_fn()``
    runs between operations, at most every CALIBRATE_EVERY_S."""
    from probe import Probe
    from workloads import CheckFailed

    digests, errors, artifact_bytes, calibration = {}, {}, 0, []
    with Probe(ctx.ensembles.append, trace) as probe:
        t0 = last = time.perf_counter()
        for op in wl.ops:
            if calibrate_fn is not None and (not calibration or time.perf_counter() - last >= CALIBRATE_EVERY_S):
                calibration.append(calibrate_fn())
                last = time.perf_counter()
            ctx.reset()
            try:
                parts = op.run(ctx)
            except CheckFailed as exc:
                errors[op.name] = f"check failed: {exc}"
                continue
            except Exception as exc:  # an operation that raises is a failed operation
                errors[op.name] = f"{type(exc).__name__}: {exc}"
                continue
            h = hashlib.sha256()
            for part in parts + [e.encode() for e in ctx.ensembles]:
                h.update(len(part).to_bytes(8, "little"))
                h.update(part)
            digests[op.name] = h.hexdigest()
            artifact_bytes += ctx.artifact_bytes
        wall = time.perf_counter() - t0 - sum(calibration)
    return Pass(wall, calibration, digests, errors, probe, artifact_bytes)


def calibrate(small) -> float:
    """Time a fixed loop of interpreter work and small-array numpy calls, the
    mix erwlab spends its time in, with no erwlab code in it.

    On a shared host the same pass can take twice as long from one minute to
    the next; this loop slows down with it, so pass time over calibration
    time measures the program rather than the host's current speed.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        acc += float((np.cumsum(small) > 0.5).sum())
        table = {j: j * 1.5 for j in range(20)}
        acc += sum(table.values())
    return time.perf_counter() - t0


def workload_digest(digests: dict) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ[BLAS_THREADS[0]],
    }


def timed_median(fn, repeats=REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def thread_speedup(wl, args):
    """``ensemble`` time at threads=1 over threads=2, and whether they agree."""
    from erwlab import simulate
    from probe import ensemble_digest

    n, N = THREAD_PROBE[args.size]
    runs = {1: [], 2: []}
    digests = set()
    for _ in range(REPEATS):
        for threads in (1, 2):
            t0 = time.perf_counter()
            stats = simulate.ensemble(wl.models[0], n, N, args.seed, threads=threads)
            runs[threads].append(time.perf_counter() - t0)
            digests.add(ensemble_digest(stats))
    return statistics.median(runs[1]) / statistics.median(runs[2]), len(digests) == 1


def stream_setup_us(wl, args) -> float:
    """Per-trajectory cost of ``ensemble`` at n_max=1, dominated by stream setup."""
    from erwlab import simulate

    N = STREAM_PROBE_N[args.size]
    return timed_median(lambda: simulate.ensemble(wl.models[0], 1, N, args.seed)) / N * 1e6


def setup_layers(args) -> dict:
    """Median time in ``build_preset`` and ``validate_model`` over traced rebuilds."""
    import workloads
    from probe import Probe, pass_metrics

    samples = []
    for _ in range(REPEATS):
        with Probe(lambda digest: None, trace=True) as probe:
            workloads.build(args.workload, args.seed, args.size)
        samples.append(pass_metrics(probe.spans, probe.counts, 0.0))
    return {key: statistics.median(s[key] for s in samples) for key in ("presets.build_s", "model.validate_s")}


def trace_metrics(traced, untraced) -> dict:
    from probe import pass_metrics

    per_pass = [pass_metrics(p.probe.spans, p.probe.counts, p.wall) for p in traced]
    m = {key: statistics.fmean(s[key] for s in per_pass) for key in per_pass[0]}
    m["simulate.step_traj_per_s"] = m["simulate.step_traj"] / m["simulate.ensemble_s"] if m["simulate.ensemble_s"] else 0.0
    m["sa.step_paths_per_s"] = m.pop("sa.step_paths") / m["sa.run_sa_s"] if m["sa.run_sa_s"] else 0.0
    m["cli.artifact_bytes"] = traced[0].artifact_bytes
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.fmean(p.wall for p in untraced)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "erwlab" / "__init__.py").is_file():
        print(f"no erwlab package under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        seconds, calibration, _ = timed_setup(args)
        print(json.dumps({"setup_s": seconds, "calibration_s": calibration}))
        return 0

    seconds, calibration, wl = timed_setup(args)
    setup_samples = [(seconds, calibration)]
    import erwlab
    import workloads

    if Path(erwlab.__file__).resolve().parent != (ROOT / "src" / "erwlab").resolve():
        print(f"erwlab was imported from {erwlab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    setup_samples += [setup_in_fresh_process(args) for _ in range(SETUP_PROBES)]

    ctx = workloads.Context(ROOT / ".perfbench_out" / args.workload)
    failures = []
    attempted = 0

    # Reference pass: also the warm-up. Its digests must equal the stored ones.
    ref_wl = wl if args.seed == REFERENCE_SEED else workloads.build(args.workload, REFERENCE_SEED, args.size)
    ref = run_pass(ref_wl, ctx, trace=False)
    ref_digests = ref.digests
    attempted += len(ref_wl.ops)
    failures += [f"reference pass {name}: {why}" for name, why in ref.errors.items()]
    stored = json.loads(args.reference.read_text()) if args.reference.exists() else {}
    if args.write_reference:
        stored.setdefault(args.size, {})[args.workload] = {
            "seed": REFERENCE_SEED, "digest": workload_digest(ref_digests), "ops": ref_digests}
        args.reference.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    want = stored.get(args.size, {}).get(args.workload, {}).get("ops", {})
    for name, digest in ref_digests.items():
        if want.get(name) != digest:
            failures.append(f"reference pass {name}: digest {digest[:16]} differs from the stored reference")

    # Timed passes at --seed; every pass must reproduce the first one's digests.
    import numpy as np

    small = np.random.default_rng(0).random(256)
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(run_pass(wl, ctx, trace=False, calibrate_fn=lambda: calibrate(small)))
        if args.trace:
            traced.append(run_pass(wl, ctx, trace=True))
        if len(untraced) >= MIN_PASSES and time.perf_counter() >= deadline:
            break
    first = ref_digests if args.seed == REFERENCE_SEED else untraced[0].digests
    for kind, passes in (("untraced", untraced), ("traced", traced)):
        for i, p in enumerate(passes):
            attempted += len(wl.ops)
            failures += [f"{kind} pass {i} {name}: {why}" for name, why in p.errors.items()]
            failures += [f"{kind} pass {i} {name}: digest differs from the first pass"
                         for name, digest in p.digests.items() if digest != first.get(name)]

    values = {}
    values["wall_s"] = CALIBRATION_REF_S * statistics.median(p.wall / statistics.fmean(p.calibration) for p in untraced)
    values["setup_s"] = SETUP_CALIBRATION_REF_S * statistics.median(s / c for s, c in setup_samples)
    if args.trace:
        values.update(trace_metrics(traced, untraced))
        last = traced[-1].probe
        spans_path = ROOT / ".perfbench_out" / f"{args.workload}_spans.json"
        spans_path.write_text(json.dumps({"wall_s": traced[-1].wall, "counts": last.counts, "spans": last.spans}))
        values.update(setup_layers(args))
        values["simulate.thread_speedup"] = 0.0
        values["simulate.stream_setup_us"] = 0.0
        if "thread_speedup" in wl.extras:
            attempted += 1
            values["simulate.thread_speedup"], agree = thread_speedup(wl, args)
            if not agree:
                failures.append("ensemble digests differ between threads=1 and threads=2")
        if "stream_setup" in wl.extras:
            values["simulate.stream_setup_us"] = stream_setup_us(wl, args)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    print(f"machine: {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} size {args.size}: {len(wl.ops)} operations per pass, "
          f"wall_s is the median of {len(untraced)} untraced passes, "
          f"{len(traced)} traced passes; set-up median of {len(setup_samples)} processes")
    print("untraced passes: wall " + " ".join(f"{p.wall:.3f}" for p in untraced)
          + " s; mean calibration " + " ".join(f"{1000 * statistics.fmean(p.calibration):.2f}" for p in untraced)
          + f" ms (reference {1000 * CALIBRATION_REF_S:.4g} ms)")
    print(f"raw median pass wall = {statistics.median(p.wall for p in untraced):.6g} s; "
          f"raw median set-up = {statistics.median(s for s, _ in setup_samples):.6g} s")
    print(f"digest {args.workload} seed={args.seed}: {workload_digest(untraced[0].digests)}")
    if args.trace:
        print(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"error_rate = {len(failures)}/{attempted}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
