"""Spans around taukit's public callables, installed from outside the package.

The modules import each other's functions by name (``from .poly import
derivative``), so a wrapper is bound in place of the original in every
loaded ``taukit`` module that holds it, and in the classes for methods.
Each call opens a span; on exit its duration is added to the callable's
total and its self time (duration minus the time of the spans it
caused).  Spans are folded into per-name totals in memory as they close,
and the totals are written out once, at the end of the run.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); a dotted attribute names a method.
TARGETS = [
    ("poly", "GradedPoly.__mul__", "poly.mul"),
    ("poly", "derivative", "poly.derivative"),
    ("poly", "log_series", "poly.log_series"),
    ("poly", "exp_series", "poly.exp_series"),
    ("poly", "hirota_D", "poly.hirota_D"),
    ("poly", "inverse", "poly.inverse"),
    ("schur", "schur_poly", "schur.schur_poly"),
    ("schur", "skew_schur_poly", "schur.skew_schur_poly"),
    ("schur", "power_sums_basis", "schur.power_sums_basis"),
    ("rspec", "content_product", "rspec.content_product"),
    ("rspec", "skew_content_product", "rspec.skew_content_product"),
    ("rspec", "poch_partition", "rspec.poch_partition"),
    ("rspec", "r_eval", "rspec.r_eval"),
    ("rspec", "rspec_from_json", "rspec.rspec_from_json"),
    ("partitions", "enumerate_up_to", "partitions.enumerate_up_to"),
    ("partitions", "hook_data", "partitions.hook_data"),
    ("tau", "TauExpansion.build", "tau.TauExpansion.build"),
    ("tau", "TauExpansion.render", "tau.TauExpansion.render"),
    ("tau", "pfs_multivar", "tau.pfs_multivar"),
    ("tau", "qphi_multivar", "tau.qphi_multivar"),
    ("tau", "tau_general", "tau.tau_general"),
    ("tau", "pfq_one_var_coeffs", "tau.pfq_one_var_coeffs"),
    ("tau", "qphi_one_var_coeffs", "tau.qphi_one_var_coeffs"),
    ("verify", "check_hirota", "verify.check_hirota"),
    ("verify", "check_toda", "verify.check_toda"),
    ("verify", "check_kp_bilinear", "verify.check_kp_bilinear"),
    ("verify", "check_ode", "verify.check_ode"),
    ("verify", "check_qdiff", "verify.check_qdiff"),
    ("verify", "check_remark1", "verify.check_remark1"),
    ("verify", "det_oracle_tau", "verify.det_oracle_tau"),
    ("verify", "compare_windowed", "verify.compare_windowed"),
    ("cli", "main", "cli.main"),
]

# schur_poly is reported in two parts, by the kind of times it is given.
SPAN_NAMES = [
    x
    for _, _, n in TARGETS
    for x in ([n + ".generic", n + ".numeric"] if n == "schur.schur_poly" else [n])
]


class Tracer:
    """Per-name call counts, total and self time, plus the poly.mul counters."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.term_pairs = 0
        self.result_terms = 0
        self._stack = []  # child time accumulated by each open span

    def span(self, name, fn, args, kwargs):
        self._stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - child

    def wrap(self, name, fn):
        if name == "schur.schur_poly":
            from taukit.schur import GenericTimes

            def schur_poly(lam, times, d):
                kind = "generic" if isinstance(times, GenericTimes) else "numeric"
                return self.span(f"schur.schur_poly.{kind}", fn, (lam, times, d), {})

            return schur_poly
        if name == "poly.mul":
            from taukit.poly import GradedPoly

            def mul(a, b):
                out = self.span(name, fn, (a, b), {})
                if isinstance(b, GradedPoly):
                    self.term_pairs += len(a.terms) * len(b.terms)
                    self.result_terms += len(out.terms)
                return out

            return mul

        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        return traced

    def totals(self):
        return {"calls": self.calls, "self_s": self.self_s,
                "term_pairs": self.term_pairs, "result_terms": self.result_terms}

    def merge(self, totals):
        """Add the totals another process wrote (see ``totals``)."""
        for name in SPAN_NAMES:
            self.calls[name] += totals["calls"][name]
            self.self_s[name] += totals["self_s"][name]
        self.term_pairs += totals["term_pairs"]
        self.result_terms += totals["result_terms"]

    def metrics(self, rounds, scale):
        """Per-round figures: <name>.calls and <name>.self_s (times ``scale``), plus the mul counters."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.self_s"] = (self.self_s[name] * scale / rounds, "s")
        out["poly.mul.term_pairs"] = (self.term_pairs / rounds, "count")
        out["poly.mul.yield"] = (self.result_terms / self.term_pairs if self.term_pairs else 0.0, "ratio")
        return out


_current = None


def current():
    """The tracer that ``installed`` has bound, or None."""
    return _current


def overhead(tracer, plain, traced, scale):
    """Per-module metrics of the traced rounds, plus the overhead against the plain ones.

    ``plain`` and ``traced`` are scaled round times; the span totals are
    raw, and ``scale`` turns them into seconds at the reference speed.
    """
    metrics = tracer.metrics(len(traced), scale)
    base = statistics.median(plain)
    metrics["trace.untraced_wall_s"] = (base, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - base, "s")
    return metrics


@contextmanager
def installed(tracer):
    """Bind a traced wrapper in place of every target, wherever taukit holds it;
    put the originals back on exit."""
    global _current
    import taukit.cli  # noqa: F401  (cli.main is a target)

    modules = [m for k, m in sys.modules.items() if k == "taukit" or k.startswith("taukit.")]
    undo = []
    for mod_name, attr, name in TARGETS:
        home = sys.modules[f"taukit.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = tracer.wrap(name, fn)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            # every attribute holding it, which catches aliases such as __rmul__
            holders = [(cls, key) for key, value in vars(cls).items() if value is raw]
        else:
            raw = getattr(home, attr)
            wrapped = tracer.wrap(name, raw)
            holders = [(mod, key) for mod in modules for key, value in vars(mod).items() if value is raw]
        for obj, key in holders:
            setattr(obj, key, wrapped)
            undo.append((obj, key, raw))
    _current = tracer
    try:
        yield tracer
    finally:
        _current = None
        for obj, key, raw in reversed(undo):
            setattr(obj, key, raw)
