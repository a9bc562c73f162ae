"""Smoke tests of the scripts under ``scripts/``."""

import csv
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_phase_sweep_tabulates_each_regime(monkeypatch, tmp_path, capsys):
    script = _load("phase_sweep")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["phase_sweep.py", "erw", "0.55", "0.95", "3"])
    script.main()
    with open(tmp_path / "phase_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "regime", "tau", "kappa", "limit", "clt_variance", "lil_constant", "m0"]
    table = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert [row["p"] for row in table] == ["0.55", "0.75", "0.95"]
    assert [row["regime"] for row in table] == ["Diffusive", "Critical", "Supercritical"]
    # erw: 1/(3 - 4p) below p = 3/4 and 1 at it; no CLT variance above it
    assert float(table[0]["clt_variance"]) == pytest.approx(1.25, rel=1e-12)
    assert float(table[1]["clt_variance"]) == 1.0
    assert table[2]["clt_variance"] == ""
    assert capsys.readouterr().out.endswith("wrote phase_sweep.csv\n")


def _run_output(wall, raw, rss, correct=True) -> str:
    """The lines of a run.py output that bench_pairs reads, among others it skips."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        'machine: {"nproc": 2}',
        "untraced passes: wall 0.150 0.149 s; mean calibration 3.50 3.51 ms (reference 3.5 ms)",
        f"raw median pass wall = {raw} s; raw median set-up = 0.14 s",
        "error_rate = 0/33",
        f"wall_s = {wall} s",
        json.dumps({"correct": correct, "attempted": 33, "failed": 0 if correct else 1, "metrics": metrics}),
    ]) + "\n"


METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
           {"name": "raw_pass_s", "unit": "s", "better": "lower"}]


def test_bench_pairs_reads_a_run():
    run = _load("bench_pairs").read_run(_run_output(0.1904, 0.1482, 43.8, correct=False))
    assert run == {"correct": False, "values": {"wall_s": 0.1904, "peak_rss_mb": 43.8, "raw_pass_s": 0.1482}}


def test_bench_pairs_summarizes_medians_quartiles_and_wins():
    script = _load("bench_pairs")
    base = [script.read_run(_run_output(w, w - 0.05, 44.0)) for w in (0.20, 0.21, 0.19, 0.22, 0.20)]
    change = [script.read_run(_run_output(w, w - 0.05, m)) for w, m in
              ((0.19, 44.0), (0.19, 43.0), (0.20, 43.5), (0.18, 43.9), (0.185, 45.0))]
    wall, rss, raw = script.summarize(base, change, METRICS)
    assert wall == ("wall_s (s, lower is better): base 0.2 [0.2, 0.21], change 0.19 [0.185, 0.19], "
                    "change better in 4/5 pairs, median gap +0.01 against base IQR 0.01")
    assert "change better in 3/5 pairs" in rss  # a tie is no win
    assert raw.startswith("raw_pass_s (s, lower is better): base 0.15 ") and "4/5 pairs" in raw
    higher = [{"name": "wall_s", "unit": "s", "better": "higher"}]
    assert "change better in 1/5 pairs" in script.summarize(base, change, higher)[0]


@pytest.mark.parametrize("argv,message", [(["--pairs", "3", "--seeds", "1-2"], "gives 2 seeds for 3 pairs"),
                                          (["--pairs", "0", "--seeds", "1-0"], "gives 0 seeds for 0 pairs")])
def test_bench_pairs_needs_one_seed_per_pair(capsys, argv, message):
    with pytest.raises(SystemExit):
        _load("bench_pairs").parse_args(["--base", "HEAD", "--workload", "short-oracle"] + argv)
    assert message in capsys.readouterr().err


def _files(tree: Path) -> dict:
    return {str(path.relative_to(tree)): path.read_text() for path in sorted(tree.rglob("*")) if path.is_file()}


def test_bench_pairs_trees_of_a_revision_and_of_the_working_files(tmp_path):
    script = _load("bench_pairs")
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    git("config", "user.email", "bench@example.org")
    git("config", "user.name", "bench")
    (repo / ".gitignore").write_text("out/\n")
    (repo / "kept.txt").write_text("committed\n")
    (repo / "edited.txt").write_text("committed\n")
    (repo / "deleted.txt").write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "stashed.txt").write_text("stashed\n")
    git("add", "stashed.txt")
    git("stash", "-q")
    (repo / "edited.txt").write_text("edited\n")
    (repo / "deleted.txt").unlink()
    (repo / "staged.txt").write_text("staged\n")
    git("add", "staged.txt")
    (repo / "sub").mkdir()
    (repo / "sub" / "untracked.txt").write_text("untracked\n")
    (repo / "out").mkdir()
    (repo / "out" / "ignored.txt").write_text("ignored\n")
    before = [git("status", "--porcelain", "--ignored"), git("rev-parse", "HEAD"), git("stash", "list"),
              git("ls-files", "--stage")]

    trees = tmp_path / "trees"
    trees.mkdir()
    base = script.export_tree(repo, "HEAD", trees / "base")
    change = script.export_tree(repo, script.working_tree(repo, trees), trees / "change")
    assert _files(base) == {".gitignore": "out/\n", "kept.txt": "committed\n", "edited.txt": "committed\n",
                            "deleted.txt": "committed\n"}
    assert _files(change) == {".gitignore": "out/\n", "kept.txt": "committed\n", "edited.txt": "edited\n",
                              "staged.txt": "staged\n", "sub/untracked.txt": "untracked\n"}
    after = [git("status", "--porcelain", "--ignored"), git("rev-parse", "HEAD"), git("stash", "list"),
             git("ls-files", "--stage")]
    assert after == before


@pytest.mark.skipif(not (SCRIPTS.parent / ".git").exists(), reason="needs a git checkout for the base tree")
def test_bench_pairs_smoke_against_head():
    # one tiny pair with the base at HEAD: both runs are correct, and no worktree is left behind
    root = SCRIPTS.parent
    cmd = [sys.executable, "scripts/bench_pairs.py", "--base", "HEAD", "--workload", "short-oracle",
           "--pairs", "1", "--seeds", "7-7", "--seconds", "0", "--size", "tiny"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[1] == "short-oracle: 1 alternating pairs at seeds 7-7, --seconds 0, base HEAD"
    assert [line.split(" ")[0] for line in lines[2:]] == ["wall_s", "setup_s", "peak_rss_mb", "raw_pass_s"]
    assert all("change better in " in line and "/1 pairs" in line for line in lines[2:])
    worktrees = subprocess.run(["git", "worktree", "list"], cwd=root, capture_output=True, text=True, check=True)
    assert "bench_pairs_" not in worktrees.stdout
