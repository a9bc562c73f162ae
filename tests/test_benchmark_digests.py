"""The phase-sweep benchmark workload reproduces its stored digests.

Runs one pass of ``perfbench``'s phase-sweep workload (classify and analyze
over parameter grids of every preset) at size tiny and the reference seed,
in this process, through the benchmark's own ``run_pass``. It only reads
``perfbench/``. A change to the theory layer that moves one byte of a
classify or analyze output fails here, not only in the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_phase_sweep_reproduces_reference_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run_pass imports probe and workloads by name
    import workloads

    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up there
    spec.loader.exec_module(run)
    want = json.loads((PERFBENCH / "reference_digests.json").read_text())["tiny"]["phase-sweep"]
    assert want["seed"] == run.REFERENCE_SEED == 42
    wl = workloads.build("phase-sweep", run.REFERENCE_SEED, "tiny")
    done = run.run_pass(wl, workloads.Context(tmp_path / "ops"), trace=False)
    assert done.errors == {}
    assert done.digests == want["ops"]
