"""Tests for the benchmark suite definitions (repro.bench)."""

import pytest

from repro.bench import BENCHMARKS, benchmark_names, make_benchmark, size_for
from repro.ir import lower_pipeline


class TestRegistry:
    def test_all_twelve_present(self):
        assert len(benchmark_names()) == 12
        assert benchmark_names() == [
            "convlayer", "doitgen", "matmul", "3mm", "gemm", "trmm",
            "syrk", "syr2k", "tpm", "tp", "copy", "mask",
        ]

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_benchmark("fizzbuzz")

    def test_sizes_cover_every_benchmark(self):
        for kernel in BENCHMARKS:
            paper = size_for(kernel.name)
            assert set(size_for(kernel.name, small=True)) == set(paper)

    def test_size_for_unknown(self):
        with pytest.raises(KeyError):
            size_for("fizzbuzz")

    @pytest.mark.parametrize(
        ("name", "sizes"),
        [("convlayer", {"n": 16}), ("matmul", {"width": 16}),
         ("gemm", {"alpha": 2.0})],
    )
    def test_unknown_size_keyword_raises(self, name, sizes):
        with pytest.raises(TypeError, match="has no size"):
            make_benchmark(name, **sizes)


class TestPaperSizes:
    def test_table4_sizes(self):
        assert size_for("matmul") == {"n": 2048}
        assert size_for("doitgen") == {"n": 256}
        assert size_for("tp") == {"n": 4096}
        assert size_for("convlayer")["batch"] == 16
        assert size_for("convlayer")["ksize"] == 3


class TestCaseConstruction:
    @pytest.mark.parametrize("name", sorted(benchmark_names()))
    def test_builds_and_lowers(self, name):
        case = make_benchmark(name, **size_for(name, small=True))
        nests = lower_pipeline(case.pipeline)
        assert nests
        for nest in nests:
            assert nest.total_iterations() > 0

    def test_fresh_instances(self):
        a = make_benchmark("matmul", n=32)
        b = make_benchmark("matmul", n=32)
        assert a.funcs[0] is not b.funcs[0]

    def test_3mm_three_stages(self):
        case = make_benchmark("3mm", n=32)
        assert len(case.funcs) == 3
        # G reads E and F outputs.
        g = case.funcs[-1]
        input_names = {b.name for b in g.input_buffers()}
        assert input_names == {"E", "F"}

    def test_doitgen_two_stages(self):
        case = make_benchmark("doitgen", n=16)
        assert [f.name for f in case.funcs] == ["Sum", "Aout"]

    def test_convlayer_shapes(self):
        case = make_benchmark("convlayer", width=16, height=16, channels=4,
                              filters=4, batch=2, ksize=3)
        conv = case.funcs[0]
        assert conv.shape == (2, 4, 16, 16)
        image = [b for b in conv.input_buffers() if b.name == "In"][0]
        assert image.shape == (2, 4, 18, 18)  # padded by ksize-1

    def test_syrk_single_input_array(self):
        case = make_benchmark("syrk", n=32)
        names = {b.name for b in case.funcs[0].input_buffers()}
        assert names == {"A", "Cin"}

    def test_repr(self):
        case = make_benchmark("matmul", n=32)
        assert "matmul" in repr(case)
        assert case.output.name == "C"
