"""Pinned bytes of the CLI artifacts that no benchmark digest covers.

Each run writes into its own directory, entered with ``monkeypatch.chdir`` so
that a model file given by a relative path gives the same
``source.model_file``. Every artifact but the wall-clock ``*_runmeta.json``
sidecar is pinned by its sha256. A change to how the CLI builds a preset or
writes an artifact that moves one byte fails here.
"""

import hashlib
from pathlib import Path

import pytest

from erwlab import build_preset, cli
from erwlab.model import save_model
from erwlab.presets import list_presets

RUNS = {
    "oracle-dense": ["oracle", "--preset", "erw", "--p", "0.7", "--n", "20", "--out", "law.csv"],
    "oracle-sparse": ["oracle", "--preset", "kdim", "--k", "2", "--n", "6", "--out", "law.csv"],
    "analyze-model-file": ["analyze", "--model", "walk.json", "--out", "report.json"],
    "simulate-model-file": ["simulate", "--model", "walk.json", "--n", "200", "--N", "8", "--seed", "3",
                            "--out", "stats.csv"],
    "simulate-out-without-suffix": ["simulate", "--preset", "erw", "--p", "0.6", "--n", "200", "--N", "8",
                                    "--out", "stats"],
    "simulate-out-with-two-dots": ["simulate", "--preset", "kdim", "--k", "2", "--n", "150", "--N", "4",
                                   "--out", "run.v1.csv"],
    "sa-preset": ["sa", "--preset", "erw", "--p", "0.6", "--n", "1000", "--N", "20", "--seed", "4",
                  "--out", "sa.json"],
}

WANT = {
    "oracle-dense": {
        "law.csv": "935dd2f0480ba6fa6c1999408e8aa391ddfbcfce66784180353df0de024377a4",
        "law.json": "55ba448e94d37a9aa0adc5177b11aa693621d11655e52c82bc529e429eb3a5f3",
        "law_model.json": "21a1bd1e826c572e763a9f6e9d302db426ac5e8025bde804a669977cbcb0c2ee",
    },
    "oracle-sparse": {
        "law.csv": "1dca2aaa8807d6b834f032fd500663885ef1267eef60d15c25eb46313b854bdb",
        "law.json": "f43a92fc4823e8086b9349d3a0ac3a29b7bc682f2da09625d248b358ed0cec75",
        "law_model.json": "f1d311d601546a50371027f99132bb983ffdae91bb926af6645715f5f88328d9",
    },
    "analyze-model-file": {
        "report.json": "9f7b90426076aba021b0b12f37dd88d3fa5632b4f44b3a3c51c7a15c74259915",
        "report_model.json": "af693a70bb64bb6ea8220c3bdc7e9ce3c9d6f28175d564f53115f794e5cb64b7",
        "walk.json": "af693a70bb64bb6ea8220c3bdc7e9ce3c9d6f28175d564f53115f794e5cb64b7",
    },
    "simulate-model-file": {
        "stats.csv": "ed0177f58518670efccbff1bf1b6716fd74e308b5382faa9d0a74dbea9cd3564",
        "stats.json": "0f88acd62727d45a6a60c9a6a612b59dac15d95aab611cc1592ab2286e12fa7e",
        "stats_model.json": "af693a70bb64bb6ea8220c3bdc7e9ce3c9d6f28175d564f53115f794e5cb64b7",
        "walk.json": "af693a70bb64bb6ea8220c3bdc7e9ce3c9d6f28175d564f53115f794e5cb64b7",
    },
    "simulate-out-without-suffix": {
        "stats": "0c639b543936256a79677a18a4b63706dfd67b50eaaf5d5f64d1f18370643e25",
        "stats.json": "4b47dcd654a13d30ec100cef791fab4945c28948f6108c1c124113c18d46410f",
        "stats_model.json": "5abb13aa0d8846a0b6480f9bd144f290ed28736fe77bc44959822d3ad3070aaa",
    },
    "simulate-out-with-two-dots": {
        "run.v1.csv": "38b1d3fb5a24ac2854ab1650a0a47966e5aca3d280307ab2e379c4c6c5d3628f",
        "run.v1.json": "ba835946779aca802478e601f612ae168275da3a453ccaa5918ba25d1bb87e3f",
        "run.v1_model.json": "f1d311d601546a50371027f99132bb983ffdae91bb926af6645715f5f88328d9",
    },
    "sa-preset": {
        "sa.json": "fe3ef82b5b93506b9b228ca6d708ce2b01f51881b6fc47cc8a5a62c1f9f20e70",
    },
}


@pytest.mark.parametrize("run", RUNS)
def test_cli_artifacts_are_pinned(tmp_path, monkeypatch, run):
    monkeypatch.chdir(tmp_path)
    if "walk.json" in RUNS[run]:
        save_model(build_preset("erw", p=0.8), Path("walk.json"))
    assert cli.main(RUNS[run]) in (0, 1)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if not p.name.endswith("_runmeta.json")}
    assert got == WANT[run]


def test_preset_table_is_pinned():
    assert list_presets() == [
        ("cubic-supercritical", "p, q", "steep cubic memory map, 11/30 < p < 19/30"),
        ("erw", "p, q", "uniform-memory +/-1 walk (Schuetz & Trimper, 2004)"),
        ("gerw-1d", "f, p, q", "one-dimensional walk with a general memory map f"),
        ("kdim", "k, f, p", "k-dimensional walk over 2k directions (Bercu & Laulin, 2019)"),
        ("linear", "a, b, p, q", "affine memory map f(x) = a*x + b"),
        ("market", "p, q, U, L", "two-brand price-feedback market share model"),
        ("minimal", "f, p, q, init", "unidirectional walk, map (p-q) f + q (Harbola et al., 2014)"),
        ("phi-power", "phi, k, p, q", "location map g = phi^k, phi in {sin, tanh}"),
        ("poly-g", "coeffs, p, q", "odd-form polynomial location map g"),
        ("quadratic-sym", "p, q", "symmetric piecewise-quadratic memory map"),
        ("random-step", "f, p, q, z_values, z_probs", "random step magnitudes (Kumar et al., 2010 lineage)"),
    ]
    assert cli.PRESET_PARAMS == {
        "p": float, "q": float, "a": float, "b": float, "k": int, "f": str, "init": float, "phi": str,
        "U": float, "L": float, "coeffs": list, "z_values": list, "z_probs": list,
    }
