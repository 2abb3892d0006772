"""Bench: regenerate Fig. 4 — relative throughput on both Intel platforms.

Shape assertions follow the paper's reading of the figure:

* the proposed method (with NTI where eligible) is the fastest — or within
  a whisker of the fastest — on the temporal and spatial benchmarks;
* the Auto-Scheduler trails the proposed method on the memory-intensive
  kernels but beats the plain baseline on reuse-rich ones;
* the one-hour autotuner does not beat the proposed method on matmul /
  gemm / convlayer (the paper's motivating cases);
* syrk/syr2k: proposed ~ baseline (references along the cache line — the
  paper's stated exception).
"""

from repro.experiments import fig4

#: Dense linear algebra: the paper's headline wins, asserted strictly.
TEMPORAL = ("matmul", "gemm")
SPATIAL = ("tpm", "tp")


def test_fig4(config):
    data = fig4.run(config=config)
    for platform in ("i7-6700", "i7-5930k"):
        rel = data[platform]
        for name in TEMPORAL:
            ours = rel[name]["proposed"]
            assert ours >= 0.9, (platform, name, rel[name])
            assert ours >= rel[name]["baseline"] - 0.05, (platform, name)
            assert ours >= rel[name]["autotuner"] - 0.1, (platform, name)
        # convlayer: proposed must stay near the front and ahead of the
        # 1-hour autotuner; our compute-bound timing model keeps the
        # baseline competitive here where the paper's silicon did not
        # (EXPERIMENTS.md deviation #6), so no baseline comparison.
        conv = rel["convlayer"]
        assert conv["proposed"] >= 0.85, (platform, conv)
        assert conv["proposed"] >= conv["autotuner"] - 0.1, (platform, conv)
        assert conv["proposed"] >= conv["autoscheduler"] - 0.1, (platform, conv)
        for name in SPATIAL:
            ours = rel[name]["proposed_nti"]
            assert ours >= 0.85, (platform, name, rel[name])
            assert ours > rel[name]["baseline"], (platform, name)
            assert ours >= rel[name]["autoscheduler"] - 0.15, (platform, name)
        # syrk/syr2k: no autotuner bar (excluded in the paper); proposed
        # at the front, baseline within ~2x (paper saw parity; our
        # simulator keeps a tiling edge — EXPERIMENTS.md deviation #1).
        for name in ("syrk", "syr2k"):
            assert "autotuner" not in rel[name]
            assert rel[name]["proposed"] >= 0.9, (platform, name)
            assert rel[name]["baseline"] >= 0.25, (platform, name)
        # NTI never hurts where eligible.
        for name in ("tpm", "tp", "copy", "mask"):
            assert rel[name]["proposed_nti"] >= rel[name]["proposed"] - 1e-9
