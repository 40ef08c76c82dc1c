"""The per-layer benchmark binds to taukit by name; every name it binds must resolve.

``perfbench/spans.py`` wraps each entry of ``TARGETS`` in place of the
original.  A rename or deletion in ``src/`` that one of them names breaks
the traced benchmark run, so this test installs the tracer and makes one
call through it.  It only reads ``perfbench/``.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import taukit.verify
    from taukit.rspec import RSpec

    with spans.installed(spans.Tracer()) as tracer:
        assert taukit.verify.check_hirota(RSpec(), 0, 2).passed
    assert tracer.calls["verify.check_hirota"] == 1
