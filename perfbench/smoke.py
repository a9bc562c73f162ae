"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py        # from the repository root; about a minute

Runs all four workloads at tiny sizes, untraced and traced, and checks that:
every metric named in ``BENCHMARK.json`` is printed with its unit; no
operation fails; the layers' self times plus the benchmark's own time add up
to the traced pass time; a corrupted reference digest is counted as a failed
operation; and without the package next to it the benchmark exits non-zero
without printing a result. Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_out" / "smoke"
LAYERS = ("funcdsl", "model", "presets", "simulate", "theory", "oracle", "verify", "sa", "cli", "bench")


def expect(cond: bool, message: str):
    if not cond:
        print(f"SMOKE FAIL: {message}")
        sys.exit(1)


def bench(workload: str, trace: int, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done, what: str) -> dict:
    expect(done.returncode == 0, f"{what}: exit code {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(done, result: dict, listed: list, what: str):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys {sorted(result)}")
    expect(set(result["metrics"]) == {m["name"] for m in listed}, f"{what}: metric names differ from BENCHMARK.json")
    printed = dict(line.split(" = ", 1) for line in done.stdout.splitlines() if " = " in line)
    for m in listed:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{what}: {m['name']} has unit {got['unit']}")
        expect(isinstance(got["value"], (int, float)), f"{what}: {m['name']} is not a number")
        expect(printed.get(m["name"], "").endswith(f" {m['unit']}"), f"{what}: {m['name']} not printed with its unit")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        done = bench(workload, 0)
        result = result_of(done, f"{workload} untraced")
        check_metrics(done, result, SPEC["end_to_end"], f"{workload} untraced")
        expect(result["correct"] and result["failed"] == 0, f"{workload} untraced: {done.stdout}")
        expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{workload}: an end-to-end metric is 0")

        done = bench(workload, 1)
        result = result_of(done, f"{workload} traced")
        check_metrics(done, result, SPEC["per_layer"], f"{workload} traced")
        expect(result["correct"] and result["failed"] == 0, f"{workload} traced: {done.stdout}")
        values = {name: m["value"] for name, m in result["metrics"].items()}
        accounted = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        expect(abs(accounted - values["trace.wall_s"]) <= 1e-9 * values["trace.wall_s"],
               f"{workload}: self times sum to {accounted}, traced wall is {values['trace.wall_s']}")
        print(f"smoke ok: {workload}")

    reference = json.loads((HERE / "reference_digests.json").read_text())
    ops = reference["tiny"]["long-1d"]["ops"]
    corrupted_op = sorted(ops)[0]
    ops[corrupted_op] = "0" * 64
    corrupted = SCRATCH / "corrupted_reference.json"
    corrupted.write_text(json.dumps(reference))
    done = bench("long-1d", 0, "--reference", str(corrupted))
    result = result_of(done, "corrupted reference")
    expect(not result["correct"] and result["failed"] == 1, f"corrupted reference: {result}")
    expect(f"FAILED reference pass {corrupted_op}: digest" in done.stdout, "corrupted reference: op not named")
    print("smoke ok: a corrupted reference digest counts as one failed operation")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = bench("long-1d", 0, cwd=bare)
    expect(done.returncode != 0 and '"metrics"' not in done.stdout, "benchmark ran without the package")
    print("smoke ok: refuses to run without the package")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
