"""Bench: regenerate Fig. 5 — the one-day autotuner vs Proposed+NTI.

Paper shape: even with the day-long budget the autotuner does not beat the
proposed method on the four benchmarks of increasing loop depth, because
its space only tiles output-array dimensions.
"""

from repro.experiments import fig5


def test_fig5(config):
    data = fig5.run(config=config)
    assert set(data) == {"tpm", "convlayer", "matmul", "doitgen"}
    for name, rel in data.items():
        # Proposed is the reference winner (or ties within 10%).
        assert rel["proposed_nti"] >= rel["autotuner_day"] - 0.1, (name, rel)
