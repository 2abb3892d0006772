"""Tests for the C back end — including compile-and-run equivalence
against the numerical interpreter when a C compiler is available."""

import ctypes
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import optimize
from repro.ir import Schedule, lower
from repro.ir.codegen_c import c_type, codegen, codegen_nest
from repro.sim import execute

from tests.helpers import make_copy, make_matmul, make_transpose_mask

HAVE_CC = shutil.which("cc") is not None


class TestTextualOutput:
    def test_c_type_mapping(self):
        assert c_type("float32") == "float"
        assert c_type("int32") == "int32_t"
        with pytest.raises(KeyError):
            c_type("complex128")

    def test_function_signature(self):
        c, a, b = make_matmul(8)
        src = codegen(lower(c), function_name="mm")
        assert "void mm(" in src
        assert "const float *restrict A" in src
        assert "float *restrict C" in src

    def test_loops_and_statement(self):
        c, _, _ = make_matmul(8)
        src = codegen(lower(c))
        assert "for (int64_t k = 0; k < 8; k++)" in src
        assert "C[(i) * 8 + (j)]" in src

    def test_pragmas(self):
        c, _, _ = make_matmul(16)
        s = Schedule(c)
        s.reorder("j", "k", "i")
        s.vectorize("j", 8).parallel("i")
        src = codegen(lower(c, s))
        assert "#pragma omp parallel for" in src
        assert "#pragma omp simd" in src

    def test_guard_emitted(self):
        c, _, _ = make_matmul(10)
        s = Schedule(c)
        s.split("i", "io", "ii", 4)
        src = codegen(lower(c, s))
        assert "if (i >= 10) continue;" in src

    def test_nontemporal_macro(self):
        f, _ = make_copy(8)
        s = Schedule(f)
        s.store_nontemporal()
        src = codegen(lower(f, s))
        assert "REPRO_STREAM_STORE(&Copy[" in src

    def test_index_reconstruction(self):
        c, _, _ = make_matmul(16)
        s = Schedule(c)
        s.split("i", "io", "ii", 4)
        src = codegen(lower(c, s))
        assert "const int64_t i = (io * 4 + ii);" in src

    def test_needs_nests(self):
        with pytest.raises(ValueError):
            codegen([])


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
class TestCompileAndRun:
    def _build(self, src: str, tmpdir: str) -> ctypes.CDLL:
        c_path = Path(tmpdir) / "kernel.c"
        so_path = Path(tmpdir) / "kernel.so"
        c_path.write_text(src)
        subprocess.run(
            ["cc", "-O2", "-shared", "-fPIC", "-o", str(so_path), str(c_path)],
            check=True,
            capture_output=True,
        )
        return ctypes.CDLL(str(so_path))

    def test_matmul_matches_interpreter(self):
        n = 16
        c, a, b = make_matmul(n)
        s = Schedule(c)
        s.split("i", "io", "ii", 4).split("j", "jo", "ji", 4)
        s.reorder("ji", "ii", "k", "jo", "io")
        src = codegen(lower(c, s), function_name="mm")
        rng = np.random.default_rng(0)
        a_v = rng.standard_normal((n, n)).astype(np.float32)
        b_v = rng.standard_normal((n, n)).astype(np.float32)
        expected = execute(c, s, {a: a_v, b: b_v})

        with tempfile.TemporaryDirectory() as tmpdir:
            lib = self._build(src, tmpdir)
            out = np.zeros((n, n), dtype=np.float32)
            fptr = ctypes.POINTER(ctypes.c_float)
            lib.mm(
                a_v.ctypes.data_as(fptr),
                b_v.ctypes.data_as(fptr),
                out.ctypes.data_as(fptr),
            )
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_transpose_mask_matches_numpy(self):
        n = 32
        f, a, b = make_transpose_mask(n)
        schedule = None
        src = codegen(lower(f), function_name="tpm")
        rng = np.random.default_rng(1)
        a_v = rng.integers(0, 1 << 20, size=(n, n)).astype(np.int32)
        b_v = rng.integers(0, 1 << 20, size=(n, n)).astype(np.int32)

        with tempfile.TemporaryDirectory() as tmpdir:
            lib = self._build(src, tmpdir)
            out = np.zeros((n, n), dtype=np.int32)
            iptr = ctypes.POINTER(ctypes.c_int32)
            lib.tpm(
                a_v.ctypes.data_as(iptr),
                b_v.ctypes.data_as(iptr),
                out.ctypes.data_as(iptr),
            )
        np.testing.assert_array_equal(out, a_v.T & b_v)

    def test_optimizer_schedule_compiles(self, arch):
        n = 64
        c, a, b = make_matmul(n)
        schedule = optimize(c, arch).schedule
        src = codegen(lower(c, schedule), function_name="opt_mm")
        rng = np.random.default_rng(2)
        a_v = rng.standard_normal((n, n)).astype(np.float32)
        b_v = rng.standard_normal((n, n)).astype(np.float32)
        with tempfile.TemporaryDirectory() as tmpdir:
            lib = self._build(src, tmpdir)
            out = np.zeros((n, n), dtype=np.float32)
            fptr = ctypes.POINTER(ctypes.c_float)
            lib.opt_mm(
                a_v.ctypes.data_as(fptr),
                b_v.ctypes.data_as(fptr),
                out.ctypes.data_as(fptr),
            )
        expected = a_v.astype(np.float64) @ b_v
        np.testing.assert_allclose(out, expected, rtol=1e-3, atol=1e-4)

    def test_nontemporal_copy_compiles_and_runs(self):
        n = 32
        f, a = make_copy(n)
        s = Schedule(f)
        s.store_nontemporal()
        src = codegen(lower(f, s), function_name="ntcopy")
        rng = np.random.default_rng(3)
        a_v = rng.integers(0, 1 << 20, size=(n, n)).astype(np.int32)
        with tempfile.TemporaryDirectory() as tmpdir:
            lib = self._build(src, tmpdir)
            out = np.zeros((n, n), dtype=np.int32)
            iptr = ctypes.POINTER(ctypes.c_int32)
            lib.ntcopy(a_v.ctypes.data_as(iptr), out.ctypes.data_as(iptr))
        np.testing.assert_array_equal(out, a_v)


class TestSignatureBuffers:
    def test_order_matches_parameters(self):
        from repro.ir.codegen_c import signature_buffers
        from repro.bench import make_benchmark

        case = make_benchmark("gemm", n=8)
        func = case.funcs[0]
        nests = lower(func)
        inputs, outputs = signature_buffers(nests)
        src = codegen(nests, function_name="g")
        sig = src.split("void g(")[1].split(")")[0]
        names = [p.split()[-1].lstrip("*") for p in sig.split(",")]
        assert names == [b.name for b in inputs] + [f.name for f in outputs]

    def test_gemm_first_use_order(self):
        from repro.ir.codegen_c import signature_buffers
        from repro.bench import make_benchmark

        case = make_benchmark("gemm", n=8)
        nests = lower(case.funcs[0])
        inputs, outputs = signature_buffers(nests)
        assert [b.name for b in inputs] == ["Cin", "A", "B"]
        assert [f.name for f in outputs] == ["C"]
