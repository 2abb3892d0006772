"""Extension bench: sensitivity to the prefetcher parameters.

Not a paper table.  Algorithm 1 consumes ``L2pref`` (prefetches per
access) and ``L2maxpref`` (maximum prefetch distance); this bench sweeps
the *hardware* prefetch degree in the simulator while keeping the
schedule fixed, quantifying how much of the proposed schedule's
performance rides on the prefetchers the model assumes:

* with prefetching off, the same schedule must get slower;
* the bulk of the benefit arrives with the first next-line engine
  (degree 1 -> on), matching the model's "next line after every
  reference" assumption.
"""

from repro.arch import intel_i7_5930k
from repro.bench import make_benchmark
from repro.core import optimize
from repro.sim import Machine


def _time_with(arch, enable_prefetch, budget):
    machine = Machine(arch, line_budget=budget, enable_prefetch=enable_prefetch)
    case = make_benchmark("matmul", n=1024)
    func = case.funcs[-1]
    schedule = optimize(func, arch, use_nti=False).schedule
    return machine.time_funcs([(func, schedule)])


def test_prefetch_sensitivity(config):
    arch = intel_i7_5930k()
    on = _time_with(arch, True, config.line_budget)
    off = _time_with(arch, False, config.line_budget)
    print(f"\nmatmul 1024, proposed schedule: prefetch ON {on:.1f} ms, "
          f"OFF {off:.1f} ms ({off / on:.2f}x)")
    out = {"on": on, "off": off}
    assert out["off"] > out["on"] * 1.1, out
