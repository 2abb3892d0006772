"""Tests for the numerical interpreter (repro.sim.interpret).

The headline property: **schedules never change results** — any legal
schedule of a benchmark computes the same output (up to float reduction
re-association) as the unscheduled reference, which itself matches numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import optimize
from repro.ir import Buffer, Func, RVar, Schedule, Var, float32, int32
from repro.sim import BufferStore, execute, execute_pipeline
from repro.sim.interpret import execute_nest
from repro.ir.lower import lower

from tests.helpers import make_copy, make_matmul, make_stencil, make_transpose_mask


def rand(shape, seed, dtype=np.float32, ints=False):
    rng = np.random.default_rng(seed)
    if ints:
        return rng.integers(0, 1 << 20, size=shape, dtype=np.int64)
    return rng.standard_normal(shape).astype(dtype)


class TestAgainstNumpy:
    def test_matmul_default_schedule(self):
        n = 24
        c, a, b = make_matmul(n)
        a_v, b_v = rand((n, n), 1), rand((n, n), 2)
        out = execute(c, None, {a: a_v, b: b_v})
        expected = a_v.astype(np.float64) @ b_v.astype(np.float64)
        np.testing.assert_allclose(out, expected, rtol=1e-4)

    def test_copy(self):
        n = 16
        f, a = make_copy(n)
        a_v = rand((n, n), 3, ints=True)
        out = execute(f, None, {a: a_v})
        np.testing.assert_array_equal(out, a_v)

    def test_transpose_mask(self):
        n = 16
        f, a, b = make_transpose_mask(n)
        a_v, b_v = rand((n, n), 4, ints=True), rand((n, n), 5, ints=True)
        out = execute(f, None, {a: a_v, b: b_v})
        np.testing.assert_array_equal(out, a_v.T & b_v)

    def test_stencil(self):
        n = 12
        f, a = make_stencil(n)
        a_v = rand((n + 2, n + 2), 6)
        out = execute(f, None, {a: a_v})
        expected = (
            a_v[:n, :n] + a_v[1:n + 1, :n] + a_v[2:n + 2, :n]
            + a_v[1:n + 1, 1:n + 1] + a_v[1:n + 1, 2:n + 2]
        )
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_gemm_with_coefficients(self):
        n = 16
        from repro.bench import make_benchmark

        case = make_benchmark("gemm", n=n)  # alpha=1.5, beta=1.2
        func = case.funcs[0]
        buffers = {b.name: b for b in func.input_buffers()}
        a_v, b_v, c_v = rand((n, n), 7), rand((n, n), 8), rand((n, n), 9)
        out = execute(
            func, None,
            {buffers["A"]: a_v, buffers["B"]: b_v, buffers["Cin"]: c_v},
        )
        expected = 1.5 * (a_v.astype(np.float64) @ b_v) + 1.2 * c_v
        np.testing.assert_allclose(out, expected, rtol=1e-4)


class TestScheduledEquivalence:
    def test_tiled_matmul_matches_reference(self):
        n = 32
        c1, a1, b1 = make_matmul(n)
        a_v, b_v = rand((n, n), 10), rand((n, n), 11)
        reference = execute(c1, None, {a1: a_v, b1: b_v})

        c2, a2, b2 = make_matmul(n)
        s = Schedule(c2)
        s.split("i", "io", "ii", 8).split("j", "jo", "ji", 8)
        s.split("k", "ko", "ki", 4)
        s.reorder("ji", "ki", "ii", "jo", "ko", "io")
        out = execute(c2, s, {a2: a_v, b2: b_v})
        # Tiling re-associates the float32 reduction; tolerate rounding.
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_imperfect_tiles_match(self):
        n = 30  # not divisible by 8
        c1, a1, b1 = make_matmul(n)
        a_v, b_v = rand((n, n), 12), rand((n, n), 13)
        reference = execute(c1, None, {a1: a_v, b1: b_v})

        c2, a2, b2 = make_matmul(n)
        s = Schedule(c2)
        s.split("i", "io", "ii", 8).split("j", "jo", "ji", 7)
        s.reorder("ji", "ii", "k", "jo", "io")
        out = execute(c2, s, {a2: a_v, b2: b_v})
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_fused_schedule_matches(self):
        n = 16
        c1, a1, b1 = make_matmul(n)
        a_v, b_v = rand((n, n), 14), rand((n, n), 15)
        reference = execute(c1, None, {a1: a_v, b1: b_v})

        c2, a2, b2 = make_matmul(n)
        s = Schedule(c2)
        s.fuse("i", "j", "ij")
        out = execute(c2, s, {a2: a_v, b2: b_v})
        np.testing.assert_allclose(out, reference, rtol=1e-5)

    def test_optimizer_schedule_matches(self, arch):
        n = 64
        c1, a1, b1 = make_matmul(n)
        a_v, b_v = rand((n, n), 16), rand((n, n), 17)
        reference = execute(c1, None, {a1: a_v, b1: b_v})

        c2, a2, b2 = make_matmul(n)
        schedule = optimize(c2, arch).schedule
        out = execute(c2, schedule, {a2: a_v, b2: b_v})
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-4)

    def test_spatial_optimizer_schedule_matches(self, arch):
        n = 64
        f1, a1, b1 = make_transpose_mask(n)
        a_v, b_v = rand((n, n), 18, ints=True), rand((n, n), 19, ints=True)
        reference = execute(f1, None, {a1: a_v, b1: b_v})

        f2, a2, b2 = make_transpose_mask(n)
        schedule = optimize(f2, arch).schedule
        out = execute(f2, schedule, {a2: a_v, b2: b_v})
        np.testing.assert_array_equal(out, reference)


class TestPipelines:
    def test_3mm_matches_numpy(self):
        n = 16
        from repro.bench import make_benchmark

        case = make_benchmark("3mm", n=n)
        bufs = {}
        for stage in case.funcs:
            for b in stage.input_buffers():
                if isinstance(b, Buffer):
                    bufs[b.name] = b
        vals = {name: rand((n, n), 20 + idx) for idx, name in enumerate(sorted(bufs))}
        out = execute_pipeline(
            case.pipeline, None, {bufs[k]: v for k, v in vals.items()}
        )
        e = vals["A"].astype(np.float64) @ vals["B"]
        f = vals["Cm"].astype(np.float64) @ vals["D"]
        np.testing.assert_allclose(out, e @ f, rtol=1e-3)

    def test_doitgen_matches_numpy(self):
        n = 12
        from repro.bench import make_benchmark

        case = make_benchmark("doitgen", n=n)
        bufs = {b.name: b for b in case.funcs[0].input_buffers()}
        a_v = rand((n, n, n), 30)
        c4_v = rand((n, n), 31)
        out = execute_pipeline(
            case.pipeline, None, {bufs["A"]: a_v, bufs["C4"]: c4_v}
        )
        expected = np.einsum("rqs,sp->rqp", a_v.astype(np.float64), c4_v)
        np.testing.assert_allclose(out, expected, rtol=1e-4)


class TestBufferStore:
    def test_bind_shape_check(self):
        from repro.util import SimulationError

        store = BufferStore()
        b = Buffer("A", (4, 4), float32)
        with pytest.raises(SimulationError):
            store.bind(b, np.zeros((3, 3)))

    def test_materialize_zero_fills(self):
        store = BufferStore()
        b = Buffer("A", (4, 4), float32)
        arr = store.materialize(b)
        assert arr.shape == (4, 4)
        assert not arr.any()

    def test_array_of_unbound_raises(self):
        store = BufferStore()
        with pytest.raises(KeyError):
            store.array_of(Buffer("A", (4,), float32))


class TestRandomScheduleEquivalence:
    """Hypothesis: arbitrary split/reorder chains preserve the result."""

    @given(
        t_i=st.sampled_from([1, 2, 3, 5, 8]),
        t_j=st.sampled_from([1, 2, 4, 7]),
        t_k=st.sampled_from([1, 3, 4, 8]),
        perm_seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_matmul_any_tiling(self, t_i, t_j, t_k, perm_seed):
        import random as _random

        n = 16
        c1, a1, b1 = make_matmul(n)
        a_v, b_v = rand((n, n), 40), rand((n, n), 41)
        reference = execute(c1, None, {a1: a_v, b1: b_v})

        c2, a2, b2 = make_matmul(n)
        s = Schedule(c2)
        for var, tile in (("i", t_i), ("j", t_j), ("k", t_k)):
            if tile > 1:
                s.split(var, f"{var}_o", f"{var}_i", tile)
        names = s.loop_names()
        _random.Random(perm_seed).shuffle(names)
        s.reorder(*names)
        out = execute(c2, s, {a2: a_v, b2: b_v})
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)
