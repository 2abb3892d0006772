"""Tests for the extra PolyBench-style kernels (beyond Table 4)."""

import numpy as np
import pytest

from repro.bench import make_benchmark
from repro.__main__ import _resolve_case, build_parser
from repro.core import Locality, classify, optimize
from repro.ir import Buffer, lower
from repro.serve.identify import identify_request
from repro.serve.schema import build_request, parse_request
from repro.sim import Machine, execute_pipeline


EXPECTED_CLASSES = {
    "2mm": ["temporal", "temporal"],
    "atax": ["temporal", "temporal"],
    "bicg": ["temporal", "temporal"],
    "mvt": ["temporal", "temporal"],
    "jacobi2d": ["none"],
    "seidel": ["none"],
}


class TestExtrasClassification:
    @pytest.mark.parametrize("name", sorted(EXPECTED_CLASSES))
    def test_expected_locality(self, name):
        case = make_benchmark(name, n=64)
        got = [classify(stage).locality.value for stage in case.pipeline]
        assert got == EXPECTED_CLASSES[name]

    def test_stencils_marked_stencil_like(self):
        for name in ("jacobi2d", "seidel"):
            case = make_benchmark(name, n=32)
            decision = classify(case.funcs[0])
            assert "stencil" in decision.reason

    def test_unknown_extra(self):
        with pytest.raises(KeyError):
            make_benchmark("lu")


#: ``problem_size`` of each extra at its default and its ``--fast`` size.
SIZES = {
    "2mm": ("1024x1024", "128x128"),
    "atax": ("2048x2048", "256x256"),
    "bicg": ("2048x2048", "256x256"),
    "mvt": ("2048x2048", "256x256"),
    "jacobi2d": ("2048x2048", "256x256"),
    "seidel": ("2048x2048", "256x256"),
}


class TestExtrasFastSizes:
    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_serve_request_honours_fast(self, name, fast):
        request = parse_request(build_request(name, "i7-5930k", fast=fast))
        case, _arch, _key = identify_request(request)
        assert case.problem_size == SIZES[name][fast]

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_cli_honours_fast(self, name, fast):
        argv = ["optimize", name] + (["--fast"] if fast else [])
        case = _resolve_case(build_parser().parse_args(argv))
        assert case.problem_size == SIZES[name][fast]


class TestExtrasOptimizeAndLower:
    @pytest.mark.parametrize("name", sorted(EXPECTED_CLASSES))
    def test_every_stage_schedules_and_lowers(self, arch, name):
        case = make_benchmark(name, n=64)
        for stage in case.pipeline:
            result = optimize(stage, arch)
            assert lower(stage, result.schedule)

    def test_mvt_transposed_stage_still_temporal(self, arch):
        # x2 += A^T y2 reads A with swapped indices AND a reduction var:
        # the first test of Fig. 2 wins.
        case = make_benchmark("mvt", n=64)
        decision = classify(case.funcs[1])
        assert decision.locality is Locality.TEMPORAL


class TestExtrasNumerics:
    def _inputs(self, case):
        out = {}
        for stage in case.funcs:
            for b in stage.input_buffers():
                if isinstance(b, Buffer):
                    out[b.name] = b
        return out

    def test_atax_matches_numpy(self):
        n = 24
        case = make_benchmark("atax", n=n)
        bufs = self._inputs(case)
        rng = np.random.default_rng(0)
        a_v = rng.standard_normal((n, n)).astype(np.float32)
        x_v = rng.standard_normal(n).astype(np.float32)
        out = execute_pipeline(
            case.pipeline, None, {bufs["A"]: a_v, bufs["x"]: x_v}
        )
        expected = a_v.T.astype(np.float64) @ (a_v @ x_v)
        np.testing.assert_allclose(out, expected, rtol=1e-3)

    def test_mvt_matches_numpy(self):
        n = 24
        case = make_benchmark("mvt", n=n)
        bufs = self._inputs(case)
        rng = np.random.default_rng(1)
        vals = {
            "A": rng.standard_normal((n, n)).astype(np.float32),
            "x1in": rng.standard_normal(n).astype(np.float32),
            "x2in": rng.standard_normal(n).astype(np.float32),
            "y1": rng.standard_normal(n).astype(np.float32),
            "y2": rng.standard_normal(n).astype(np.float32),
        }
        out = execute_pipeline(
            case.pipeline, None, {bufs[k]: v for k, v in vals.items()}
        )
        expected = vals["x2in"] + vals["A"].T.astype(np.float64) @ vals["y2"]
        np.testing.assert_allclose(out, expected, rtol=1e-3)

    def test_jacobi_matches_numpy(self):
        n = 20
        case = make_benchmark("jacobi2d", n=n)
        bufs = self._inputs(case)
        rng = np.random.default_rng(2)
        a_v = rng.standard_normal((n + 2, n + 2)).astype(np.float32)
        out = execute_pipeline(case.pipeline, None, {bufs["Ain"]: a_v})
        expected = 0.2 * (
            a_v[1:n + 1, 1:n + 1] + a_v[1:n + 1, :n] + a_v[1:n + 1, 2:n + 2]
            + a_v[:n, 1:n + 1] + a_v[2:n + 2, 1:n + 1]
        )
        np.testing.assert_allclose(out, expected, rtol=1e-4)


class TestExtrasOnSimulator:
    def test_2mm_proposed_beats_baseline(self, arch):
        from repro.baselines import baseline_schedule
        from repro.core.optimizer import optimize_pipeline

        machine = Machine(arch, line_budget=20_000)
        case = make_benchmark("2mm", n=256)
        schedules = optimize_pipeline(case.pipeline, arch)
        t_prop = machine.time_pipeline(case.pipeline, schedules)

        case2 = make_benchmark("2mm", n=256)
        base = {f: baseline_schedule(f, arch) for f in case2.funcs}
        t_base = machine.time_pipeline(case2.pipeline, base)
        assert t_prop <= t_base * 1.05

    def test_stencils_left_untiled_run(self, arch):
        machine = Machine(arch, line_budget=10_000)
        case = make_benchmark("jacobi2d", n=256)
        result = optimize(case.funcs[0], arch)
        assert result.locality is Locality.NONE
        assert machine.time_pipeline(case.pipeline, {case.funcs[0]: result.schedule}) > 0
