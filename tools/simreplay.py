"""Record the cache simulator's ``run()`` inputs and replay them A/B.

Perfbench passes mix optimize and simulate, and their host times are
noisy on shared machines.  This tool sizes a change to
:mod:`repro.cachesim` on the simulator's own inputs.  Run it from the
root of a checkout::

    python tools/simreplay.py record TREE WORKLOAD OUT
    python tools/simreplay.py ab TREE_A TREE_B OUT --rounds N

``record`` runs the first seed-0 perfbench pass of WORKLOAD (``price``
or ``multistride``) with the checkout TREE's ``perfbench/`` and
``src/``, and pickles to OUT every ``CacheHierarchy`` it builds (its
constructor arguments) and every ``CacheHierarchy.run`` call (the
hierarchy, ``lines``, ``refs`` and ``kinds``).  It only imports
perfbench's modules; it changes nothing there.  WORKLOAD
``price-noprefetch`` is the ``price`` pass with every hierarchy built
with ``enable_prefetch=False``: the all-numpy configuration the ablation
regenerators run, which no perfbench workload covers.

``ab`` imports the ``repro`` package of both checkouts into one process
and replays OUT on fresh hierarchies of each, round after round.  Within
a round it alternates the trees call by call, and the tree that goes
first alternates from round to round.  Each ``run`` is timed in CPU time
(``time.process_time``, unscaled).  It prints each round's ns per access
of both trees and their ratio, then the medians, and whether every
hierarchy ends each round in the same state on both trees: a digest of
``tests.helpers.hierarchy_state``, which covers every counter, the cache
contents in LRU order and the prefetch flags.  It exits 1 when a state
differs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pickle
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _forget_repro() -> None:
    """Drop every imported ``repro`` module, so the next import of
    ``repro`` comes from whatever ``sys.path`` then lists first."""
    for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[name]


def record(tree: str, workload: str, out: str) -> None:
    """Pickle the constructor arguments of every hierarchy and every
    ``run`` call of one seed-0 perfbench pass of ``workload``."""
    workload, _, variant = workload.partition("-")
    tree = os.path.abspath(tree)
    sys.path[:0] = [os.path.join(tree, "perfbench"), os.path.join(tree, "src")]
    import numpy as np

    from repro.cachesim import hierarchy

    cls = hierarchy.CacheHierarchy
    hiers, calls = [], []
    init, run = cls.__init__, cls.run

    def recording_init(self, arch, **kw):
        if variant == "noprefetch":
            kw["enable_prefetch"] = False
        self._recorded_as = len(hiers)
        hiers.append((arch, kw))
        init(self, arch, **kw)

    def recording_run(self, lines, refs, kinds, level_hits):
        calls.append((
            self._recorded_as,
            np.array(lines, dtype=np.int64),
            np.array(refs, dtype=np.int64),
            tuple(int(kind) for kind in kinds),
        ))
        return run(self, lines, refs, kinds, level_hits)

    cls.__init__, cls.run = recording_init, recording_run
    import plan
    from ops import Program, run_op

    program = Program()
    for kernel in plan.build_plan(program.corpus, workload, 0, 1.0).passes[0]:
        result = run_op(program, workload, kernel)
        if result.error:
            raise SystemExit(f"{kernel.key}: {result.error}")
    with open(out, "wb") as fh:
        pickle.dump((hiers, calls), fh)
    accesses = sum(call[1].size for call in calls)
    print(f"{out}: {len(hiers)} hierarchies, {len(calls)} run() calls, "
          f"{accesses:,} accesses")


class Tree:
    """One checkout's ``CacheHierarchy`` and the recording, unpickled
    against that checkout's classes."""

    def __init__(self, path: str, recording: str) -> None:
        self.path = os.path.abspath(path)
        _forget_repro()
        sys.path.insert(0, os.path.join(self.path, "src"))
        try:
            module = importlib.import_module("repro.cachesim.hierarchy")
            with open(recording, "rb") as fh:
                self.hiers, self.calls = pickle.load(fh)
        finally:
            sys.path.remove(os.path.join(self.path, "src"))
        self.cls = module.CacheHierarchy

    def fresh(self) -> list:
        return [self.cls(arch, **kw) for arch, kw in self.hiers]


def _digest(state) -> str:
    text = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def ab(tree_a: str, tree_b: str, recording: str, rounds: int) -> int:
    """Replay ``recording`` on both trees; returns the exit status."""
    trees = [Tree(tree_a, recording), Tree(tree_b, recording)]
    sys.path.insert(0, ROOT)
    from tests.helpers import hierarchy_state

    calls = trees[0].calls
    accesses = sum(call[1].size for call in calls)
    print(f"{len(calls)} run() calls, {accesses:,} accesses, "
          f"A = {trees[0].path}, B = {trees[1].path}")
    per_access = ([], [])
    same = True
    for round_no in range(rounds):
        order = (0, 1) if round_no % 2 == 0 else (1, 0)
        built = [tree.fresh() for tree in trees]
        spent = [0.0, 0.0]
        for call in range(len(calls)):
            for side in order:
                index, lines, refs, kinds = trees[side].calls[call]
                hier = built[side][index]
                level_hits = [0] * (hier.num_levels + 2)
                started = time.process_time()
                hier.run(lines, refs, kinds, level_hits)
                spent[side] += time.process_time() - started
        for side in (0, 1):
            per_access[side].append(spent[side] / accesses * 1e9)
        differ = [
            index for index, (a, b) in enumerate(zip(*built))
            if _digest(hierarchy_state(a)) != _digest(hierarchy_state(b))
        ]
        same = same and not differ
        a_ns, b_ns = per_access[0][-1], per_access[1][-1]
        print(f"round {round_no + 1}: A {a_ns:,.0f} ns/access, "
              f"B {b_ns:,.0f} ns/access, B/A {b_ns / a_ns:.3f}"
              + (f", state differs in hierarchies {differ}" if differ else ""))
    ratios = [b / a for a, b in zip(*per_access)]
    print(f"median: A {statistics.median(per_access[0]):,.0f} ns/access, "
          f"B {statistics.median(per_access[1]):,.0f} ns/access, "
          f"B/A {statistics.median(ratios):.3f} "
          f"(range {min(ratios):.3f}-{max(ratios):.3f})")
    print("state: " + ("equal on both trees" if same else "DIFFERS"))
    return 0 if same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/simreplay.py",
        description="Record CacheHierarchy.run inputs; replay them A/B.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record one seed-0 perfbench pass")
    rec.add_argument("tree", help="checkout whose perfbench and src run")
    rec.add_argument(
        "workload", choices=("price", "multistride", "price-noprefetch")
    )
    rec.add_argument("out", help="recording to write (pickle)")
    cmp_ = sub.add_parser("ab", help="replay a recording on two checkouts")
    cmp_.add_argument("tree_a")
    cmp_.add_argument("tree_b")
    cmp_.add_argument("out", help="recording written by 'record'")
    cmp_.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.tree, args.workload, args.out)
        return 0
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    return ab(args.tree_a, args.tree_b, args.out, args.rounds)


if __name__ == "__main__":
    raise SystemExit(main())
