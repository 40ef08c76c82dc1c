"""The per-layer benchmark binds to taukit by name; every name it binds must resolve.

``perfbench/spans.py`` wraps each entry of ``TARGETS`` in place of the
original.  A rename or deletion in ``src/`` that one of them names breaks
the traced benchmark run, so this test installs the tracer and makes one
call through it.  A change in ``src/`` whose outputs a workload's own
checks refuse makes a benchmark run incorrect, so one round of each
in-process workload runs here too.  These tests only read ``perfbench/``.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import taukit.verify
    from taukit.rspec import RSpec

    with spans.installed(spans.Tracer()) as tracer:
        assert taukit.verify.check_hirota(RSpec(), 0, 2).passed
    assert tracer.calls["verify.check_hirota"] == 1


@pytest.mark.parametrize("workload", ["bilinear", "oracle", "series"])
def test_one_benchmark_round_passes_its_own_checks(monkeypatch, workload):
    # the checks a benchmark run makes of its outputs, on one round at seed 1
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import taukit
    import workloads

    ops, grades, validate = getattr(workloads, workload)(taukit, 1)
    assert workloads.warm_ok(workloads.warm(taukit, grades)) is None
    for op in ops:
        assert op.check(op.run()) is None, op.name
    assert validate is None or validate() is None
