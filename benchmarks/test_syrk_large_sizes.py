"""Bench: the paper's syrk/syr2k large-size follow-up (Sec. 5.1).

"However, as expected, after repeating the experiments for larger problem
sizes, the tiled version performed around 25% better than the baseline
schedule."  We re-run syrk at the paper size (tiling ~ baseline) and at a
larger size (tiling should pull ahead).
"""

from conftest import run_once
from repro.arch import intel_i7_5930k
from repro.baselines import baseline_schedule
from repro.bench import make_benchmark
from repro.core import optimize
from repro.sim import Machine


def _pair(machine, n):
    case = make_benchmark("syrk", n=n)
    func = case.funcs[-1]
    proposed = optimize(func, machine.arch, use_nti=False).schedule
    t_prop = machine.time_funcs([(func, proposed)])
    case2 = make_benchmark("syrk", n=n)
    func2 = case2.funcs[-1]
    t_base = machine.time_funcs([(func2, baseline_schedule(func2, machine.arch))])
    return t_prop, t_base


def test_syrk_tiling_pays_off_at_scale(benchmark, config):
    machine = Machine(intel_i7_5930k(), line_budget=config.line_budget)

    def run():
        small = _pair(machine, 2048)
        large = _pair(machine, 4096)
        print(f"\nsyrk 2048: proposed {small[0]:.1f} ms vs baseline {small[1]:.1f} ms")
        print(f"syrk 4096: proposed {large[0]:.1f} ms vs baseline {large[1]:.1f} ms")
        return {"small": small, "large": large}

    out = run_once(benchmark, run)
    small_gain = out["small"][1] / out["small"][0]
    large_gain = out["large"][1] / out["large"][0]
    # Larger problems benefit at least as much from tiling.
    assert large_gain >= small_gain * 0.9
    assert large_gain >= 1.0
