"""Which scipy modules each command loads, each run in a fresh interpreter.

The test process itself has scipy loaded already, so every case starts a
new Python that imports erwlab from the same place, runs one command with
``erwlab.cli.main`` and reports the scipy modules in ``sys.modules``.
``scipy.linalg`` is imported where ``theory`` calls it and ``scipy.stats``
only by the KS branch of ``verify.fluctuation_test`` (N >= 5000).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import erwlab

SRC = Path(erwlab.__file__).resolve().parents[1]

# Run in the child: argv[1] is a JSON list of CLI arguments, or null for a
# bare import of erwlab and erwlab.cli. Prints the exit code, the loaded
# scipy modules and the verdict file's CLT check, if one was written.
CHILD = """
import json, sys
argv = json.loads(sys.argv[1])
import erwlab, erwlab.cli
code = None if argv is None else erwlab.cli.main(argv)
clt = None
if argv is not None and argv[0] == "verify":
    with open("verdicts.json") as fh:
        clt = next((c for c in json.load(fh)["checks"] if c["theorem"] == "CLT"), None)
print(json.dumps({
    "code": code,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "clt": clt,
}))
"""


def _run(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded(result, package):
    return any(m == package or m.startswith(package + ".") for m in result["scipy"])


def test_import_loads_no_scipy(tmp_path):
    assert _run(tmp_path, None)["scipy"] == []


NO_SCIPY = {
    "presets": ["presets"],
    "simulate": ["simulate", "--preset", "erw", "--p", "0.6", "--n", "200", "--N", "8"],
    "oracle": ["oracle", "--preset", "erw", "--p", "0.6", "--n", "12"],
    "sa-model": ["sa", "--preset", "erw", "--p", "0.6", "--n", "300", "--N", "20"],
    "sa-drift": ["sa", "--drift", "x", "--noise", "gaussian:1", "--n", "300", "--N", "50"],
}


@pytest.mark.parametrize("case", sorted(NO_SCIPY))
def test_command_loads_no_scipy(tmp_path, case):
    result = _run(tmp_path, NO_SCIPY[case])
    assert result["code"] in (0, 1)
    assert result["scipy"] == []


LINALG_ONLY = {
    "analyze": ["analyze", "--preset", "kdim", "--k", "2"],
    "verify-below-ks": ["verify", "--preset", "erw", "--p", "0.6", "--n", "300", "--N", "200"],
}


@pytest.mark.parametrize("case", sorted(LINALG_ONLY))
def test_theory_loads_linalg_not_stats(tmp_path, case):
    result = _run(tmp_path, LINALG_ONLY[case])
    assert result["code"] in (0, 1)
    assert _loaded(result, "scipy.linalg")
    assert not _loaded(result, "scipy.stats")


def test_ks_branch_loads_stats_with_the_same_pvalue(tmp_path):
    argv = ["verify", "--preset", "erw", "--p", "0.6", "--suite", "clt", "--n", "500", "--N", "5000", "--seed", "3"]
    result = _run(tmp_path, argv)
    assert _loaded(result, "scipy.stats")
    details = result["clt"]["details"]
    # recorded with scipy.stats imported at module level
    assert float.hex(details["ks_pvalue"]) == "0x1.6b49c58048188p-4"
    assert float.hex(details["ks_statistic"]) == float.hex(0.017617627066219332)
    assert result["code"] == 0
