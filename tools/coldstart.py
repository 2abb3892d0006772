"""Time what fresh processes of two checkouts pay before their first op.

Every sweep cell, CLI call, fleet worker and perfbench set-up is a new
interpreter, so import time is paid again and again.  This tool times
fresh processes of a few entry points on two checkouts, A and B.  Run
it from anywhere::

    python tools/coldstart.py ab TREE_A TREE_B --rounds N

The entry points, each run from the checkout's root with its ``src``
first on ``PYTHONPATH`` (the rest of the caller's environment passes
through unchanged):

* the perfbench set-up probe of each workload
  (``perfbench/run.py --setup-probe``, seed 0, 15 s plan), which
  imports the program, builds the plan, lowers every kernel and builds
  the machines;
* ``python -c "import repro"``;
* ``python -m repro optimize matmul --fast``;
* ``python -c "import repro.sweep.worker"``.

Each process is timed in CPU seconds from ``RUSAGE_CHILDREN`` (user
plus system, unscaled).  Every round runs each entry point once on each
tree, and the tree that goes first alternates from round to round.  It
prints each side's median and quartiles, the ratio of the medians B/A
and in how many rounds B used less CPU.  It also prints whether
bytecode writing is off: then no ``.pyc`` is written and every process
compiles every module it imports, so compile time is in the numbers.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

#: (label, interpreter arguments) of every timed entry point.
ENTRY_POINTS: List[Tuple[str, List[str]]] = [
    *(
        (f"set-up probe {workload}", [
            "perfbench/run.py", "--setup-probe", "--workload", workload,
            "--seed", "0", "--seconds", "15",
        ])
        for workload in ("search", "price", "multistride")
    ),
    ("import repro", ["-c", "import repro"]),
    ("repro optimize matmul --fast",
     ["-m", "repro", "optimize", "matmul", "--fast"]),
    ("import repro.sweep.worker", ["-c", "import repro.sweep.worker"]),
]


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_s(tree: str, args: List[str]) -> float:
    """CPU seconds of one fresh interpreter running ``args`` in ``tree``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(tree, "src"), env.get("PYTHONPATH")])
    )
    started = _children_cpu_s()
    subprocess.run([sys.executable, *args], cwd=tree, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=600)
    return _children_cpu_s() - started


def bytecode_note() -> str:
    if sys.flags.dont_write_bytecode:
        return ("bytecode writing: off, so every process compiles every "
                "module it imports")
    return ("bytecode writing: on, so processes after the first of each "
            "tree load cached .pyc files")


def ab(tree_a: str, tree_b: str, rounds: int) -> None:
    trees = (os.path.abspath(tree_a), os.path.abspath(tree_b))
    print(bytecode_note())
    print(f"A = {trees[0]}, B = {trees[1]}; {rounds} rounds; CPU s per "
          f"process")
    samples: Dict[str, Tuple[List[float], List[float]]] = {
        label: ([], []) for label, _ in ENTRY_POINTS
    }
    for round_no in range(rounds):
        order = (0, 1) if round_no % 2 == 0 else (1, 0)
        for label, args in ENTRY_POINTS:
            for side in order:
                samples[label][side].append(cpu_s(trees[side], args))
    width = max(len(label) for label, _ in ENTRY_POINTS)
    print(f"{'entry point':{width}s}  {'A median [q1, q3]':>24s}  "
          f"{'B median [q1, q3]':>24s}   B/A  B wins")
    for label, (a, b) in samples.items():
        cells = []
        for values in (a, b):
            q1, _, q3 = statistics.quantiles(values, n=4)
            cells.append(f"{statistics.median(values):.3f} "
                         f"[{q1:.3f}, {q3:.3f}]")
        ratio = statistics.median(b) / statistics.median(a)
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{label:{width}s}  {cells[0]:>24s}  {cells[1]:>24s}  "
              f"{ratio:.3f}  {wins}/{rounds}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/coldstart.py",
        description="Time fresh processes of two checkouts' entry points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmp_ = sub.add_parser("ab", help="alternate the two checkouts")
    cmp_.add_argument("tree_a")
    cmp_.add_argument("tree_b")
    cmp_.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be >= 2 (quartiles need two samples)")
    ab(args.tree_a, args.tree_b, args.rounds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
