"""Mutation sweep: plant one operator or constant change per site of a module and see what kills it.

Run from the repository root:

    python tools/mutation_sweep.py src/taukit/verify.py

Each site is one AST node of the module: a binary or augmented + / - / * / /
(+ and - swapped, * and / swapped), a comparison < / <= / > / >= / == / !=
(< and <=, > and >=, == and != swapped), or an int constant (plus 1).  A
mutant is the module with that one change, written back through
``ast.unparse`` (which drops comments) into a copy of the repository.  There
is one copy per CPU, each judging one mutant at a time, made afresh in a new
temporary directory that the sweep removes when it ends.  ``taukit suite``
runs first; a mutant it does not kill then runs the test suite with ``-x``.
Both run inside the copy, with bytecode writing off, so no bytecode, pytest
cache or hypothesis database lands in the repository.  A run that exits
non-zero or outlasts its timeout kills the mutant.

Before any mutant, the unmutated module is written through ``ast.unparse`` the
same way and must pass both stages; otherwise the sweep stops.  The sweep
prints every survivor as file:line, the change and the source line, then the
counts: sites, killed by the suite, killed by the tests, survivors.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SYMBOL = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}
IGNORED = {".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench", ".benchmarks"}
TIMEOUTS = (120, 600)  # seconds for taukit suite and for the tests; each takes well under a tenth of that
JOBS = os.cpu_count() or 1


def sites(tree: ast.AST) -> list:
    """(node index in ``ast.walk`` order, slot, line, description) for every change the sweep makes.

    The slot is None for a binary operator or an int constant, and the operator's position for a comparison.
    """
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            op = type(node.op)
            found.append((index, None, node.lineno, f"{SYMBOL[op]} -> {SYMBOL[SWAPS[op]]}"))
        elif isinstance(node, ast.Compare):
            for slot, op in enumerate(map(type, node.ops)):
                if op in SWAPS:
                    found.append((index, slot, node.lineno, f"{SYMBOL[op]} -> {SYMBOL[SWAPS[op]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((index, None, node.lineno, f"{node.value} -> {node.value + 1}"))
    return found


def mutant(source: str, site) -> str:
    """The module's source with the one change at ``site``, through ``ast.unparse``."""
    tree = ast.parse(source)
    index, slot, _, _ = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree) + "\n"


def copy_repo(root: Path, dest: Path) -> None:
    shutil.copytree(root, dest, ignore=lambda d, names: [n for n in names if n in IGNORED])


def run_stage(copy: Path, argv: list, timeout: float) -> str | None:
    """None if the command passes in the copy, else why it killed the mutant."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("TAUKIT_SEED", None)
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return None if done.returncode == 0 else f"exit {done.returncode}"


def judge(copy: Path, module: str, text: str) -> tuple:
    """(stage that killed the mutant or None, why) for one module text written into the copy."""
    (copy / module).write_text(text)
    suite = run_stage(copy, [sys.executable, "-m", "taukit.cli", "suite"], TIMEOUTS[0])
    if suite:
        return "suite", suite
    tests = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    tier1 = run_stage(copy, tests, TIMEOUTS[1])
    return ("tests", tier1) if tier1 else (None, None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", help="module to mutate, relative to the repository root")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    source = (root / args.module).read_text()
    lines = source.splitlines()
    todo = sorted(sites(ast.parse(source)), key=lambda site: site[2])
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as work:
        copies = [Path(work) / f"copy{k}" for k in range(JOBS)]
        for copy in copies:
            copy_repo(root, copy)
        start = time.perf_counter()
        stage, why = judge(copies[0], args.module, ast.unparse(ast.parse(source)) + "\n")
        if stage:
            print(f"the unmutated module, unparsed, fails the {stage} stage ({why}): no sweep", file=sys.stderr)
            return 2
        free = list(copies)

        def one(site):
            copy = free.pop()
            try:
                return site, judge(copy, args.module, mutant(source, site))
            finally:
                free.append(copy)

        counts = {"suite": 0, "tests": 0, None: 0}
        with ThreadPoolExecutor(JOBS) as pool:
            for (_, _, line, change), (stage, why) in pool.map(one, todo):
                counts[stage] += 1
                if stage is None:
                    print(f"SURVIVED {args.module}:{line}  {change}  {lines[line - 1].strip()}", flush=True)
    minutes = (time.perf_counter() - start) / 60
    print(f"{len(todo)} sites: {counts['suite']} killed by taukit suite, {counts['tests']} by the tests, "
          f"{counts[None]} survived ({minutes:.1f} min, {JOBS} job(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
