"""The per-layer benchmark binds to taukit by name; every name it binds must resolve.

``perfbench/spans.py`` wraps each entry of ``TARGETS`` in place of the
original.  A rename or deletion in ``src/`` that one of them names breaks
the traced benchmark run, so this test installs the tracer and makes one
call through it.  A change in ``src/`` whose outputs a workload's own
checks refuse makes a benchmark run incorrect, so one round of each
workload runs here too, ``cli``'s seventeen fresh ``taukit`` processes
among them.  These tests only read ``perfbench/``.
"""

import os
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_every_span_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import taukit.verify
    from taukit.rspec import RSpec

    with spans.installed(spans.Tracer()) as tracer:
        assert taukit.verify.check_hirota(RSpec(), 0, 2).passed
    assert tracer.calls["verify.check_hirota"] == 1


@pytest.mark.parametrize("workload", ["bilinear", "oracle", "series", "cli"])
def test_one_benchmark_round_passes_its_own_checks(monkeypatch, workload):
    # the checks a benchmark run makes of its outputs, on one round at seed 1; cli's fresh
    # taukit processes import it from this checkout's src/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    import taukit
    import workloads

    ops, grades, validate = getattr(workloads, workload)(taukit, 1)
    assert workloads.warm_ok(workloads.warm(taukit, grades)) is None
    for op in ops:
        assert op.check(op.run()) is None, op.name
    assert validate is None or validate() is None


def test_miwa_series_operations_form_no_content_product_cut_by_shape(monkeypatch):
    # each (lam, mu) a series forms pays for r_{lam/mu}(M); where s_{lam/mu} is 0 by shape at its layer's Miwa
    # times (Macdonald I.5) that product is multiplied by 0.  Seed 1's two Miwa operations, layer by layer.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import taukit
    import taukit.tau
    import workloads
    from taukit.schur import MiwaTimes, _miwa_zero

    calls, args = [], {}
    products = taukit.tau.content_products

    def counted(r, parts, m, inner=()):
        formed = []
        calls.append((inner, formed))

        def pairs():
            for lam, value in products(r, parts, m, inner):
                formed.append(lam)
                yield lam, value

        return pairs()

    def recorded(name):
        def call(*a):
            args[name] = a
            return getattr(taukit, name)(*a)

        return call

    monkeypatch.setattr(taukit.tau, "content_products", counted)
    tk = SimpleNamespace(**{**vars(taukit), **{name: recorded(name) for name in ("tau_series", "tau_general")}})
    ops = {op.name: op for op in workloads.series(tk, 1)[0]}
    sides_of = {  # each side as its layers' times
        "tau_series miwa x principal d=10": lambda: [[args["tau_series"][3:]]],
        "tau_general two layers d=9": lambda: [
            [(tm,) for _, tm in side] for side in (args["tau_general"][0].left, args["tau_general"][0].right)
        ],
    }
    for name, formed_count in (("tau_series miwa x principal d=10", 36), ("tau_general two layers d=9", 165)):
        calls.clear()
        assert ops[name].check(ops[name].run()) is None
        # a layer forms one call per entry the previous layer left, starting from the vacuum
        left = iter(calls)
        for side in sides_of[name]():
            held = {()}
            for times in side:
                reached = set()
                for _ in held:
                    inner, formed = next(left)
                    assert inner in held
                    miwa = [tm for tm in times if isinstance(tm, MiwaTimes)]
                    dead = [lam for lam in formed if any(_miwa_zero(lam, inner, tm) for tm in miwa)]
                    assert dead == [], (name, inner, dead)
                    reached.update(formed)
                held = reached
        assert next(left, None) is None
        assert sum(len(formed) for _, formed in calls) == formed_count, name
