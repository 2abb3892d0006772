"""Bench: regenerate Fig. 7 — the ARM Cortex-A15 comparison.

Paper shape: the proposed algorithm outperforms the Auto-Scheduler and the
baseline on the ARM platform too (shared L2, no L3, no NT stores).
"""

from repro.experiments import fig7


def test_fig7(config):
    data = fig7.run(config=config)
    assert "copy" not in data and "mask" not in data  # excluded on ARM
    wins = 0
    near = 0
    for name, rel in data.items():
        assert set(rel) == {"proposed", "autoscheduler", "baseline"}
        if rel["proposed"] >= max(rel.values()) - 1e-9:
            wins += 1
        if rel["proposed"] >= max(rel.values()) - 0.1:
            near += 1
    # Proposed wins the dense linear-algebra kernels outright and stays
    # within 10% of the front on most others; the exceptions (ARM
    # doitgen/convlayer baselines, syr2k's power-of-two thrash) are
    # EXPERIMENTS.md deviations #6/#7.
    assert wins >= 4, data
    assert near >= 7, data
    for name in ("matmul", "gemm", "3mm", "trmm"):
        assert data[name]["proposed"] >= 0.99, data[name]
