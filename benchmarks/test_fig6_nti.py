"""Bench: regenerate Fig. 6 — the effect of non-temporal stores.

Paper shape: +NTI exceeds 1.0 on all four write-once kernels (up to ~1.5x
on copy), because streaming stores eliminate the read-for-ownership and
stop output lines from polluting the caches.
"""

from repro.experiments import fig6


def test_fig6(config):
    data = fig6.run(config=config)
    assert set(data) == {"tpm", "tp", "copy", "mask"}
    for name, rel in data.items():
        assert rel["proposed"] == 1.0
        assert rel["proposed_nti"] > 1.05, (name, rel)
        assert rel["proposed_nti"] < 2.5, (name, rel)  # sane magnitude
    # copy benefits the most in the paper's figure (pure bandwidth).
    assert data["copy"]["proposed_nti"] >= data["tpm"]["proposed_nti"] - 0.15
