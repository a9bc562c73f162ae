#!/usr/bin/env python3
"""Compare a base revision with this checkout on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py --base HEAD~1 --workload short-oracle --pairs 10 --seeds 41-50 --seconds 20

Run from the repository root. The base revision is checked out with
``git worktree add --detach`` in a temporary directory, which is removed at
the end. Pair i runs ``perfbench/run.py --trace 0`` once in each tree at the
i-th seed of ``--seeds``; the base runs first in even pairs and this
checkout first in odd ones. Only run.py's output is read: its last line
(``correct`` and the end-to-end metrics) and its raw median pass time.

For each end-to-end metric of ``BENCHMARK.json`` and the raw pass time it
prints each side's median and quartiles, the number of pairs this checkout
won, and the gap between the medians beside the base's IQR. It exits 1 if
any run was not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RAW_PASS = re.compile(r"^raw median pass wall = (\S+) s;", re.MULTILINE)
RAW_METRIC = {"name": "raw_pass_s", "unit": "s", "better": "lower"}  # unnormalised median pass time


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", required=True, help="A-B: pair i runs at seed A + i; B - A + 1 must equal --pairs")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    args.seeds = list(range(int(first), int(last or first) + 1))
    if args.pairs < 1 or len(args.seeds) != args.pairs:
        parser.error(f"--seeds {first}-{last} gives {len(args.seeds)} seeds for {args.pairs} pairs")
    return args


def read_run(stdout: str) -> dict:
    """``correct`` and every metric's value from one run.py output, the raw
    median pass time as ``raw_pass_s``."""
    result = json.loads(stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values[RAW_METRIC["name"]] = float(RAW_PASS.search(stdout).group(1))
    return {"correct": result["correct"], "values": values}


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list, change: list, metrics: list) -> list:
    """One line per metric from paired run results: medians, quartiles,
    wins of the change and the median gap against the base's IQR."""
    lines = []
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        b = [run["values"][name] for run in base]
        c = [run["values"][name] for run in change]
        bq, cq = quartiles(b), quartiles(c)
        wins = sum(sign * (x - y) > 0 for x, y in zip(b, c))
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better): base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}], "
            f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}], change better in {wins}/{len(b)} pairs, "
            f"median gap {bq[1] - cq[1]:+.6g} against base IQR {bq[2] - bq[0]:.6g}")
    return lines


def run_once(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--size", size]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return read_run(done.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"] + [RAW_METRIC]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_tree = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_tree), args.base],
                       cwd=root, check=True, capture_output=True)
        try:
            runs = {"base": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = [("base", base_tree), ("change", root)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(run_once(tree, args.workload, seed, args.seconds, args.size))
                print(f"pair {i + 1}/{args.pairs} seed {seed}: wall_s base {runs['base'][-1]['values']['wall_s']:.6g}"
                      f", change {runs['change'][-1]['values']['wall_s']:.6g}", flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)], cwd=root, capture_output=True)
    print(f"{args.workload}: {args.pairs} alternating pairs at seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"--seconds {args.seconds:g}, base {args.base}")
    for line in summarize(runs["base"], runs["change"], metrics):
        print(line)
    incorrect = [f"{side} seed {seed}" for side in runs for seed, run in zip(args.seeds, runs[side])
                 if not run["correct"]]
    for what in incorrect:
        print(f"NOT CORRECT: {what}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
