"""Smoke tests of the scripts under ``scripts/``."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_phase_sweep_tabulates_each_regime(monkeypatch, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("phase_sweep", SCRIPTS / "phase_sweep.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
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
