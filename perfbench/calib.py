"""A fixed piece of reference work, timed beside taukit's, that scales times to one machine speed.

The machines the benchmark runs on change speed by up to a factor of two or
more between runs and within one (a shared host), and CPU time moves with
wall time, so no statistic over raw times repeats.  So every timed batch
(one round of operations, or the set-ups of a run) is interleaved with
probes of this work, and its times are reported as

    time * REF / mean(probe times of the batch)

that is, in seconds at the speed of the reference machine.  The mean, not
the median: the speed also changes within a second, and an operation's
time adds up the slowness over its whole span, as the mean of the probes
around it does.  The probe is standard library only and does not touch
taukit, so a change in taukit moves the scaled times as it moves the raw
ones.

Two probes, matched to what is timed:

* ``compute_s``: rational arithmetic in tuple-keyed dicts, in this
  process, as taukit's own work is; for in-process operations.
* ``spawn_s``: a fresh interpreter that imports argparse, json and
  fractions, as taukit's command line does, and does the same arithmetic
  once; for operations that are processes.

Run as a script, it is the body of ``spawn_s``.  With ``--measure N`` it
prints the mean of N probes of each kind, which is how REF was found.
"""

from __future__ import annotations

import argparse
import fractions
import gc
import json  # noqa: F401  (spawn_s times this import, as taukit.cli makes it)
import statistics
import subprocess
import sys
from time import perf_counter

# Probe times on the reference machine: 2 cores of an Intel Xeon at 2.1 GHz,
# Python 3.11.7, nothing else running.  They are medians of 300 probes; there
# the probe times spread by under 2 %, so the mean that ``--measure`` prints
# agrees with them.
REF_COMPUTE_S = 0.0128
REF_SPAWN_S = 0.0476


def compute():
    """Square a dense 9 x 9 bivariate polynomial with rational coefficients."""
    F = fractions.Fraction
    a = {(i, j): F(i + 1, j + 2) for i in range(9) for j in range(9)}
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in a.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return out


def compute_s():
    # without the cyclic collector, which would charge the probe for the caller's heap
    gc.disable()
    try:
        t = perf_counter()
        compute()
        return perf_counter() - t
    finally:
        gc.enable()


def spawn_s(env=None):
    t = perf_counter()
    subprocess.run([sys.executable, __file__], env=env, check=True)
    return perf_counter() - t


def scale(probes, ref):
    """Factor that turns this batch's times into seconds at the reference speed."""
    return ref / statistics.fmean(probes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--measure", type=int, help="print the mean of this many probes of each kind")
    args = ap.parse_args()
    if args.measure:
        for name, probe in (("REF_COMPUTE_S", compute_s), ("REF_SPAWN_S", spawn_s)):
            print(f"{name} = {statistics.fmean([probe() for _ in range(args.measure)]):.4g}")
    else:
        compute()


if __name__ == "__main__":
    main()
