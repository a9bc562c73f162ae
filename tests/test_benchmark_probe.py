"""The benchmark's traced-only code runs in the test suite.

``perfbench/probe.py`` wraps functions by attribute name, also where ``cli``
and ``sa`` bind them at import, and a traced run of ``perfbench/run.py``
also times the set-up layers, the stream set-up and ``ensemble`` at one and
two threads. A renamed or dropped binding, or a broken probe, would only show
when the benchmark traces a run; these checks run them in this process at
size tiny. They only read ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_probe_wraps_and_restores_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probe

    original = [owner.__dict__[attr] for owner, attr, _ in probe.BOUNDARIES]
    with probe.Probe(lambda digest: None, trace=True):
        for (owner, attr, name), fn in zip(probe.BOUNDARIES, original):
            assert owner.__dict__[attr] is not fn, name
    for (owner, attr, name), fn in zip(probe.BOUNDARIES, original):
        assert owner.__dict__[attr] is fn, name


def _run_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports probe and workloads by name
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up there
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload", ["long-1d", "long-multi", "short-oracle", "phase-sweep"])
def test_traced_layer_probes_run(monkeypatch, workload):
    run = _run_module(monkeypatch)
    import workloads

    args = SimpleNamespace(workload=workload, seed=run.REFERENCE_SEED, size="tiny")
    layers = run.setup_layers(args)
    assert set(layers) == {"presets.build_s", "model.validate_s"}
    assert all(value > 0 for value in layers.values())
    wl = workloads.build(workload, args.seed, args.size)
    assert set(wl.extras) <= {"thread_speedup", "stream_setup"}
    if "thread_speedup" in wl.extras:
        speedup, agree = run.thread_speedup(wl, args)
        assert speedup > 0 and agree  # threads=1 and threads=2 give the same ensemble digest
    if "stream_setup" in wl.extras:
        assert run.stream_setup_us(wl, args) > 0


def test_traced_map_layer_counts_every_drift_evaluation(monkeypatch, tmp_path):
    # the probe wraps block_probs, the model's one map evaluator, so every
    # eval_H of a traced pass shows in the layer's call count
    run = _run_module(monkeypatch)
    import workloads
    from probe import pass_metrics

    from erwlab.model import ValidatedModel

    eval_H = ValidatedModel.eval_H
    calls = []
    monkeypatch.setattr(ValidatedModel, "eval_H", lambda self, x: calls.append(1) or eval_H(self, x))
    wl = workloads.build("phase-sweep", run.REFERENCE_SEED, "tiny")
    done = run.run_pass(wl, workloads.Context(tmp_path / "ops"), trace=True)
    assert done.errors == {}
    metrics = pass_metrics(done.probe.spans, done.probe.counts, done.wall)
    assert calls
    assert metrics["model.block_probs_calls"] >= len(calls)
