#!/usr/bin/env python3
"""Compare a base revision with this checkout on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py --base HEAD~1 --workload short-oracle --pairs 10 --seeds 41-50 --seconds 20

Run from the repository root. Both sides are written by one function
(:func:`export_tree`) into fresh directories under one temporary directory,
which is removed at the end: the base from the tree of ``--base``, the
change from a tree of this checkout's working files, tracked and untracked
but not ignored (:func:`working_tree`). The checkout's index, HEAD and
stash never move. Pair i runs ``perfbench/run.py --trace 0`` once in each
tree at the i-th seed of ``--seeds``; the base runs first in even pairs and
the change first in odd ones. Only run.py's output is read: its last line
(``correct`` and the end-to-end metrics) and its raw median pass time.

For each end-to-end metric of ``BENCHMARK.json`` and the raw pass time it
prints each side's median and quartiles, the number of pairs this checkout
won, and the gap between the medians beside the base's IQR. It exits 1 if
any run was not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
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


def _git(root: Path, *args, index: Path = None) -> str:
    """Run git in ``root``, on the index file ``index`` when given; return its stdout."""
    env = None if index is None else {**os.environ, "GIT_INDEX_FILE": str(index)}
    return subprocess.run(["git", *args], cwd=root, env=env, check=True, capture_output=True, text=True).stdout


def working_tree(root: Path, tmp: Path) -> str:
    """The id of a git tree of the working files of ``root``: tracked and
    untracked ones, not ignored ones. It is written through a temporary copy
    of the index, so the checkout's index, HEAD and stash do not move."""
    index = tmp / "working.index"
    user_index = root / _git(root, "rev-parse", "--git-path", "index").strip()
    if user_index.exists():
        shutil.copyfile(user_index, index)
    _git(root, "add", "-A", index=index)
    return _git(root, "write-tree", index=index).strip()


def export_tree(root: Path, treeish: str, dest: Path) -> Path:
    """Write the files of ``treeish`` (a revision or a tree id) of the
    repository at ``root`` into the new directory ``dest``."""
    index = dest.with_name(dest.name + ".index")
    _git(root, "read-tree", treeish, index=index)
    _git(root, "checkout-index", "--all", f"--prefix={dest}{os.sep}", index=index)
    return dest


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"] + [RAW_METRIC]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tmp = Path(tmp)
        trees = {"base": export_tree(root, args.base, tmp / "base"),
                 "change": export_tree(root, working_tree(root, tmp), tmp / "change")}
        runs = {"base": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                runs[side].append(run_once(trees[side], args.workload, seed, args.seconds, args.size))
            print(f"pair {i + 1}/{args.pairs} seed {seed}: wall_s base {runs['base'][-1]['values']['wall_s']:.6g}"
                  f", change {runs['change'][-1]['values']['wall_s']:.6g}", flush=True)
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
