"""One workload in a fresh interpreter.

Started by run.py.  It sets up (imports taukit, makes the inputs, fills the
Schur caches), prints ``ready``, and with ``--setup-only`` exits there.
In ``cli`` every operation is itself a fresh ``taukit`` process.
Otherwise it runs whole rounds of the workload's operations for about
``--seconds``, checks the outputs, and prints one JSON line.
With ``--trace 1`` untraced and traced rounds alternate, and the line
carries the per-module figures.  Every time it reports is scaled to the
reference machine's speed by probes run before each operation (calib.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from time import perf_counter

import taukit as tk

import calib
import spans
import workloads


def rounds(ops, seconds, first, errors, probe):
    """Whole rounds for about ``seconds`` (one round for 0).

    ``probe`` is a (probe, reference seconds) pair from calib; one probe
    runs before each operation, and each round's times are scaled by its
    probes.  Returns (scaled round times, scaled operation
    times, operations failed, probe times).  A failed operation's time
    counts like any other's.
    """
    probe_s, ref = probe
    round_s, op_s, failed, probes = [], [], 0, []
    start = perf_counter()
    while True:
        times, mine = [], []
        for i, op in enumerate(ops):
            mine.append(probe_s())
            t = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failing operation is counted, not fatal
                failed += 1
                print(f"failed: {op.name}: {exc!r}", file=sys.stderr)
                continue
            finally:
                times.append(perf_counter() - t)
            if i not in first:
                first[i] = out
            elif out != first[i]:
                errors.append(f"{op.name}: output changed between rounds")
        k = calib.scale(mine, ref)
        round_s.append(sum(times) * k)
        op_s += [t * k for t in times]
        probes += mine
        if not workloads.another_round(start, len(round_s), seconds):
            return round_s, op_s, failed, probes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops, grades, validate = getattr(workloads, args.workload)(tk, args.seed)
    warmed = workloads.warm(tk, grades)
    print("ready", flush=True)
    if args.setup_only:
        return

    # cli: each operation is a process, so the probe is one too
    cli = args.workload == "cli"
    probe = (calib.spawn_s, calib.REF_SPAWN_S) if cli else (calib.compute_s, calib.REF_COMPUTE_S)
    first, errors = {}, []
    result = {}
    if args.trace:
        # untraced and traced rounds alternate, so that drift in the machine's
        # speed does not show up as tracing overhead
        tracer, plain, traced, failed, probes = spans.Tracer(), [], [], 0, []
        start = perf_counter()
        while not traced or workloads.another_round(start, len(traced), args.seconds):
            round_s, _, f_plain, p_plain = rounds(ops, 0, first, errors, probe)
            plain += round_s
            with spans.installed(tracer):
                round_s, _, f_traced, p_traced = rounds(ops, 0, first, errors, probe)
            traced += round_s
            failed += f_plain + f_traced
            probes += p_plain + p_traced
        # span totals are scaled by the run's probes, the rounds by their own
        result["metrics"] = spans.overhead(tracer, plain, traced, calib.scale(probes, probe[1]))
        n_rounds = len(plain) + len(traced)
    else:
        round_s, op_s, failed, _ = rounds(ops, args.seconds, first, errors, probe)
        # cli: the largest of its taukit processes, not this one
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        result["metrics"] = {
            "wall_s": (statistics.median(round_s), "s"),
            "verdict_p50_s": (statistics.median(op_s), "s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        }
        n_rounds = len(round_s)

    for i, op in enumerate(ops):
        if i in first:
            err = op.check(first[i])
            if err:
                errors.append(f"{op.name}: {err}")
    for extra in (workloads.warm_ok(warmed), validate and validate()):
        if extra:
            errors.append(extra)
    result.update(attempted=n_rounds * len(ops), failed=failed, errors=errors)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
