"""Ablation benches: which ingredients of the model matter?

Not a paper table — DESIGN.md calls these out as extensions.  Each
ablation disables one ingredient of the proposed temporal optimizer and
re-measures matmul at the paper's size:

* ``no-emu``: replace Algorithm 1's interference bounds with plain
  capacity bounds (prefetch- and conflict-blind tile limits);
* ``no-order``: skip Step 2 (the C_order loop-ordering search);
* ``no-prefetch-hw``: run the *full* method's schedule on a machine with
  the hardware prefetchers disabled, quantifying how much of the final
  performance the prefetchers themselves contribute.
"""

import pytest

from repro.arch import intel_i7_5930k
from repro.bench import make_benchmark
from repro.core import optimize_temporal
from repro.core.standard import build_schedule
from repro.sim import Machine


def _schedule_from(func, arch, **flags):
    result = optimize_temporal(func, arch, **flags)
    return build_schedule(
        func, arch, result.tiles, result.inter_order, result.intra_order
    )


def _measure(machine, name, n, **flags):
    case = make_benchmark(name, n=n)
    func = case.funcs[-1]
    schedule = _schedule_from(func, machine.arch, **flags)
    return machine.time_funcs([(func, schedule)])


def test_ablations_matmul(config):
    arch = intel_i7_5930k()
    machine = Machine(arch, line_budget=config.line_budget)
    out = {
        "full": _measure(machine, "matmul", 2048),
        "no_emu": _measure(machine, "matmul", 2048, use_emu=False),
        "no_order": _measure(machine, "matmul", 2048, order_step=False),
    }
    # Prefetchers off: same schedule, different machine.
    blind = Machine(arch, line_budget=config.line_budget,
                    enable_prefetch=False)
    out["no_prefetch_hw"] = _measure(blind, "matmul", 2048)
    print("\nAblation (matmul 2048, ms):")
    for key, ms in out.items():
        print(f"  {key:15s} {ms:9.2f}")
    # The full method is never worse than its ablations (small tolerance
    # for simulator sampling noise).
    assert out["full"] <= out["no_emu"] * 1.10
    assert out["full"] <= out["no_order"] * 1.10
    # Hardware prefetching matters: turning it off must hurt.
    assert out["no_prefetch_hw"] > out["full"] * 1.05
