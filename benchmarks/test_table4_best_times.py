"""Bench: regenerate Table 4 — best execution time per benchmark/platform.

Paper-vs-measured notes land in EXPERIMENTS.md; here we assert only the
structural claims that must hold for the table to be meaningful.
"""

from repro.experiments import table4


def test_table4(config):
    data = table4.run(config=config)
    assert set(data) == {
        "convlayer", "doitgen", "matmul", "3mm", "gemm", "trmm",
        "syrk", "syr2k", "tpm", "tp", "copy", "mask",
    }
    for name, row in data.items():
        for platform, ms in row.items():
            assert ms > 0, (name, platform)
    # ARM excludes copy/mask, as in the paper.
    assert "arm-a15" not in data["copy"]
    assert "arm-a15" not in data["mask"]
    assert "arm-a15" in data["matmul"]
    # The ARM A15 is the slowest platform on every common benchmark, as in
    # Table 4.
    for name, row in data.items():
        if "arm-a15" in row:
            assert row["arm-a15"] >= max(row["i7-6700"], row["i7-5930k"]) * 0.8
