"""taukit benchmark: one workload, one seed, one JSON line of results.

Run from the root of a taukit checkout:

    python3 perfbench/run.py --workload bilinear --seed 1 --seconds 20 --trace 0

Workloads: bilinear, oracle, series and cli, each in a fresh interpreter
(see worker.py); in cli every operation is one more fresh ``taukit``
process.  With ``--trace 0`` the line carries the end-to-end metrics, with
``--trace 1`` the per-module ones.  Times are in seconds at the reference
machine's speed (see calib.py).  The last line of stdout is the result;
progress and errors go to stderr.  See README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import workloads  # noqa: E402

SETUPS = 15  # fresh set-ups per run (and imports behind cli.import_s); reported as their scaled median


def child_env(root):
    # A fixed hash seed keeps dict and set order, and so the work done, the same
    # from run to run: monomials are tuples of strings and ints.
    path = os.pathsep.join([str(root / "src"), str(HERE)])
    return dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")


def scaled_median(time_one, env):
    """Median of SETUPS runs of ``time_one()``, each after a spawn probe, in seconds at the reference speed."""
    probes, times = [], []
    for _ in range(SETUPS):
        probes.append(calib.spawn_s(env))
        times.append(time_one())
    return statistics.median(times) * calib.scale(probes, calib.REF_SPAWN_S)


def import_time(env):
    """Seconds for one fresh interpreter to import taukit.cli."""
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "import taukit.cli"], env=env, check=True)
    return perf_counter() - t


def setup_time(cmd, env):
    """Seconds from spawning a ``--setup-only`` worker until it prints ``ready``."""
    start = perf_counter()
    proc = subprocess.Popen(cmd + ["--setup-only"], env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    took = perf_counter() - start
    proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker did not set up: {line!r}, exit {proc.returncode}")
    return took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "taukit" / "__init__.py").is_file():
        print(f"error: {root} is not a taukit checkout (no src/taukit)", file=sys.stderr)
        return 2
    env = child_env(root)
    # Compile the bytecode once, so that no timed process pays for it.
    subprocess.run([sys.executable, "-c", "import taukit.cli, calib, spans, workloads, worker"], env=env, check=True)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    extra = {}
    if args.trace:
        extra["cli.import_s"] = (scaled_median(lambda: import_time(env), env), "s")
    elif args.workload == "cli":
        extra["setup_s"] = (scaled_median(lambda: import_time(env), env), "s")
    else:
        extra["setup_s"] = (scaled_median(lambda: setup_time(cmd, env), env), "s")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"].update(extra)
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(result["metrics"].items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
