"""Every benchmark workload reproduces its stored digests.

Runs one pass of each of ``perfbench``'s four workloads at sizes tiny and
default and the reference seed, in this process, through the benchmark's own
``run_pass``. It only reads ``perfbench/``. A change that moves one byte of
an ensemble, an oracle law, a classify or analyze output or a CLI artifact
fails here, not only in the benchmark; the default size is the one that
reaches the LIL window and the step kernel's full horizons.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("long-1d", "long-multi", "short-oracle", "phase-sweep")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("size", ["tiny", "default"])
def test_workload_reproduces_reference_digests(tmp_path, monkeypatch, size, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run_pass imports probe and workloads by name
    import workloads

    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up there
    spec.loader.exec_module(run)
    want = json.loads((PERFBENCH / "reference_digests.json").read_text())[size][workload]
    assert want["seed"] == run.REFERENCE_SEED == 42
    wl = workloads.build(workload, run.REFERENCE_SEED, size)
    done = run.run_pass(wl, workloads.Context(tmp_path / "ops"), trace=False)
    assert done.errors == {}
    assert done.digests == want["ops"]
