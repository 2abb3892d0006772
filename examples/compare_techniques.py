#!/usr/bin/env python3
"""Head-to-head: the five techniques of the paper's Fig. 4 on one kernel.

Runs the proposed optimizer, the Auto-Scheduler-style heuristic, the plain
baseline and the stochastic autotuner (with a small measurement budget) on
a benchmark chosen on the command line, and prints simulated times plus
throughput relative to the fastest — one row of the paper's Fig. 4.

Run:  python examples/compare_techniques.py [benchmark] [platform]
      python examples/compare_techniques.py gemm i7-6700
"""

import sys

from repro.arch import platform_by_name
from repro.baselines import Autotuner, autoschedule, baseline_schedule
from repro.bench import benchmark_names, make_benchmark, size_for
from repro.core import optimize
from repro.sim import Machine


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "matmul"
    platform = sys.argv[2] if len(sys.argv) > 2 else "i7-5930k"
    if bench not in benchmark_names():
        raise SystemExit(f"unknown benchmark {bench!r}; try {benchmark_names()}")

    arch = platform_by_name(platform)
    machine = Machine(arch, line_budget=60_000)

    def fresh():
        return make_benchmark(bench, **size_for(bench))

    times = {}

    case = fresh()
    schedules = {f: optimize(f, arch, use_nti=False).schedule for f in case.funcs}
    times["proposed"] = machine.time_pipeline(case.pipeline, schedules)

    case = fresh()
    schedules = {f: optimize(f, arch, use_nti=True).schedule for f in case.funcs}
    times["proposed+NTI"] = machine.time_pipeline(case.pipeline, schedules)

    case = fresh()
    schedules = {f: autoschedule(f, arch).schedule for f in case.funcs}
    times["auto-scheduler"] = machine.time_pipeline(case.pipeline, schedules)

    case = fresh()
    schedules = {f: baseline_schedule(f, arch) for f in case.funcs}
    times["baseline"] = machine.time_pipeline(case.pipeline, schedules)

    case = fresh()
    tuner = Autotuner(machine, evaluations=10, seed=1)
    schedules = {f: tuner.tune(f).schedule for f in case.funcs}
    times["autotuner(10 evals)"] = machine.time_pipeline(case.pipeline, schedules)

    fastest = min(times.values())
    print(f"\n{bench} ({case.problem_size}) on {arch.name}:")
    for name, ms in sorted(times.items(), key=lambda kv: kv[1]):
        bar = "#" * int(40 * fastest / ms)
        print(f"  {name:20s} {ms:9.2f} ms  rel {fastest / ms:4.2f}  {bar}")


if __name__ == "__main__":
    main()
