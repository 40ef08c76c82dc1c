"""Run two sets of benchmark runs of one commit and print how far they agree.

From the root of a taukit checkout:

    python3 perfbench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --one-set --runs 5 --workload bilinear

Each run takes another seed (set s, run i uses seed 1000 * s + i) and lasts
``run_seconds`` from BENCHMARK.json.  Results are kept in .perfbench/runs/.
For every workload and end-to-end metric it prints each set's median and
its spread (quartile distance over median), and the signed change of the
second median over the first, against the metric's bound.  It exits 1 if
any spread, or any change in either direction, is beyond its bound, if a
run is not correct, or if the share of failed operations differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--one-set", action="store_true", help="one set only, for tuning: spreads, no change")
    args = ap.parse_args()
    sets = 1 if args.one_set else 2

    out_dir = Path(".perfbench/runs")
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}  # (workload, set) -> list of result objects
    for s in range(1, sets + 1):
        for w in args.workload or names:
            for i in range(args.runs):
                seed = 1000 * s + i
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                (out_dir / f"set{s}-{w}-{seed}.json").write_text(json.dumps(res))
                results.setdefault((w, s), []).append(res)
                print(f"set {s} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':10} {'metric':14} {'bound':>6} " + " ".join(
        f"{'median' + str(s):>12} {'spread' + str(s):>8}" for s in range(1, sets + 1)) + f" {'change':>8}")
    for w in args.workload or names:
        runs = [results[(w, s)] for s in range(1, sets + 1)]
        for m in bench["end_to_end"]:
            cols, medians = [], []
            for rs in runs:
                vals = [r["metrics"][m["name"]]["value"] for r in rs]
                med, spr = statistics.median(vals), spread(vals)
                medians.append(med)
                cols.append(f"{med:12.6g} {spr:8.3f}")
                ok = ok and spr <= m["bound"]
            change = ""
            if len(medians) > 1:
                rel = (medians[1] - medians[0]) / medians[0]
                change = f"{rel:+8.3f}"
                ok = ok and abs(rel) <= m["bound"]
            print(f"{w:10} {m['name']:14} {m['bound']:6.2f} {' '.join(cols)} {change}")
        shares = {r["failed"] / r["attempted"] for rs in runs for r in rs}
        correct = all(r["correct"] for rs in runs for r in rs)
        print(f"{w:10} failed share per run: {sorted(shares)}; all correct: {correct}")
        ok = ok and len(shares) == 1 and correct
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
