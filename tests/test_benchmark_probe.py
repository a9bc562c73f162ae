"""The benchmark's traced pass finds every boundary it wraps and restores it.

``perfbench/probe.py`` wraps functions by attribute name, also where ``cli``
and ``sa`` bind them at import. A renamed or dropped binding would only show
when the benchmark traces a pass; this check runs in the test suite. It only
reads ``perfbench/``.
"""

from pathlib import Path

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
