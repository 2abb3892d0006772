"""Tests for the Sec. 3.1 classifier across the whole benchmark suite."""

import pytest

from repro.bench import make_benchmark, size_for
from repro.core import Locality, classify
from repro.ir import Buffer, Func, RVar, Var, float32

from tests.helpers import make_copy, make_matmul, make_stencil, make_transpose_mask


class TestClassifierCore:
    def test_matmul_temporal(self):
        c, _, _ = make_matmul(16)
        decision = classify(c)
        assert decision.locality is Locality.TEMPORAL
        assert not decision.use_nti  # output is accumulated

    def test_transpose_mask_spatial_nti(self):
        f, _, _ = make_transpose_mask(16)
        decision = classify(f)
        assert decision.locality is Locality.SPATIAL
        assert decision.use_nti
        assert [r.name for r in decision.transposed] == ["A"]

    def test_copy_none_nti(self):
        f, _ = make_copy(16)
        decision = classify(f)
        assert decision.locality is Locality.NONE
        assert decision.use_nti

    def test_stencil_none(self):
        f, _ = make_stencil(16)
        decision = classify(f)
        assert decision.locality is Locality.NONE
        assert "stencil" in decision.reason

    def test_reason_strings(self):
        c, _, _ = make_matmul(16)
        assert "temporal" in repr(classify(c))

    def test_temporal_takes_priority_over_transpose(self):
        # A reduction with a transposed input: the extra index wins
        # (first test in Fig. 2's decision tree).
        n = 16
        i, j = Var("i"), Var("j")
        k = RVar("k", n)
        a = Buffer("A", (n, n), float32)
        f = Func("F")
        f[i, j] = 0.0
        f[i, j] = f[i, j] + a[j, k]  # j/i swapped AND reduction k
        f.set_bounds({i: n, j: n})
        assert classify(f).locality is Locality.TEMPORAL


#: Expected (locality, nti) per stage for every Table 4 benchmark.
EXPECTED = {
    "convlayer": [("temporal", False)],
    "doitgen": [("temporal", False), ("none", True)],
    "matmul": [("temporal", False)],
    "3mm": [("temporal", False)] * 3,
    "gemm": [("temporal", False)],
    "trmm": [("temporal", False)],
    "syrk": [("temporal", False)],
    "syr2k": [("temporal", False)],
    "tpm": [("spatial", True)],
    "tp": [("spatial", True)],
    "copy": [("none", True)],
    "mask": [("none", True)],
}


class TestBenchmarkSuiteClassification:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_expected_stage_classes(self, name):
        case = make_benchmark(name, **size_for(name, small=True))
        got = []
        for stage in case.pipeline:
            decision = classify(stage)
            got.append((decision.locality.value, decision.use_nti))
        assert got == EXPECTED[name]
