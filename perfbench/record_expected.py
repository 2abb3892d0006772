"""Record the benchmark's expected outputs into ``expected.json``.

For every input any seed can generate, this runs the operation once
and records each stage's schedule digest (sha256 of the canonical
``schedule_to_dict`` JSON), the simulated time and, for the workloads
that simulate, every nest's simulated counters.  ``search`` and
``serve`` inputs are priced on the price machine here so the benchmark
can report the simulated time of a schedule it checked without
simulating it again.  Serve keys are recorded from the offline
optimizer; the benchmark checks every served schedule against them.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/record_expected.py [--only WORKLOAD]

The file is meant to be recorded once, on the commit that defines the
benchmark, and then left alone: a later change that moves any of these
values changes what the program computes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import plan as plans  # noqa: E402
from ops import EXPECTED_FORMAT, Program, expected_entry, run_op  # noqa: E402

PATH = os.path.join(HERE, "expected.json")


def record(program: Program, workload: str) -> dict:
    from repro.core.emu import clear_emu_cache

    # search and serve ops do not simulate; record them as price ops so
    # the entry carries the simulated time of the same schedules.
    op = workload if workload in ("price", "multistride") else "price"
    entries = {}
    for kernel in plans.all_kernels(program.corpus, workload):
        clear_emu_cache()
        started = time.perf_counter()
        result = run_op(program, op, kernel)
        if result.error is not None:
            raise SystemExit(f"{workload}/{kernel.key}: {result.error}")
        entry = expected_entry(result)
        if workload in ("search", "serve"):
            entry.pop("nests")
        entries[f"{workload}/{kernel.key}"] = entry
        print(f"{workload}/{kernel.key}: {time.perf_counter() - started:.2f} s",
              file=sys.stderr)
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=plans.PLANS)
    args = parser.parse_args()
    program = Program()
    ops = {}
    if args.only and os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as handle:
            ops = json.load(handle)["ops"]
        ops = {k: v for k, v in ops.items()
               if not k.startswith(f"{args.only}/")}
    for workload in (args.only,) if args.only else plans.PLANS:
        ops.update(record(program, workload))
    payload = {"format": EXPECTED_FORMAT, "platform": plans.PLATFORM,
               "ops": dict(sorted(ops.items()))}
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
