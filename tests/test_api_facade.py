"""Tests for the stable entry point (``repro.api``)."""

import dataclasses

import pytest

import repro
from repro.api import (
    MODE_AUTO,
    MODE_SAFE,
    MODE_SPATIAL,
    MODE_TEMPORAL,
    OptimizeOptions,
    OptimizeRequest,
    OptimizeResult,
    optimize,
)
from repro.core import optimize as core_optimize
from repro.ir import Pipeline
from repro.ir.serialize import schedule_to_dict
from repro.robust import FallbackPolicy, RUNG_CACHE, RUNG_PROPOSED

from tests.helpers import make_matmul, make_transpose_mask


def _pipeline(n=64):
    func, _, _ = make_matmul(n)
    return Pipeline([func])


class TestRequestValidation:
    def test_needs_exactly_one_target(self, arch):
        func, _, _ = make_matmul(64)
        with pytest.raises(ValueError, match="exactly one"):
            OptimizeRequest(arch=arch)
        with pytest.raises(ValueError, match="exactly one"):
            OptimizeRequest(arch=arch, func=func, pipeline=_pipeline())

    def test_unknown_mode(self, arch):
        with pytest.raises(ValueError, match="unknown mode"):
            OptimizeRequest(
                arch=arch, func=make_matmul(64)[0], mode="turbo"
            )

    def test_pipeline_rejects_search_modes(self, arch):
        for mode in (MODE_TEMPORAL, MODE_SPATIAL):
            with pytest.raises(ValueError, match="single Func"):
                OptimizeRequest(arch=arch, pipeline=_pipeline(), mode=mode)

    def test_negative_jobs(self, arch):
        # Removed in 2.0 with the in-search process pool: any value,
        # negative or not, is a TypeError.
        func = make_matmul(64)[0]
        with pytest.raises(TypeError, match="jobs"):
            OptimizeRequest(
                arch=arch, func=func, options=OptimizeOptions(jobs=-2)
            )
        with pytest.raises(TypeError, match="jobs"):
            OptimizeOptions(jobs=2)
        with pytest.raises(TypeError, match="jobs"):
            OptimizeRequest(arch=arch, func=func, jobs=2)
        with pytest.raises(TypeError, match="jobs"):
            core_optimize(func, arch, jobs=2)

    def test_non_positive_deadline(self, arch):
        with pytest.raises(ValueError, match="deadline_ms"):
            OptimizeRequest(
                arch=arch, func=make_matmul(64)[0], deadline_ms=0
            )

    def test_policy_requires_safe_mode(self, arch):
        with pytest.raises(ValueError, match="mode='safe'"):
            OptimizeRequest(
                arch=arch,
                func=make_matmul(64)[0],
                policy=FallbackPolicy.lenient(),
            )

    def test_request_is_frozen(self, arch):
        request = OptimizeRequest(arch=arch, func=make_matmul(64)[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.mode = MODE_SAFE

    def test_with_overrides_revalidates(self, arch):
        request = OptimizeRequest(arch=arch, func=make_matmul(64)[0])
        bumped = request.with_overrides(options=OptimizeOptions(use_nti=False))
        assert bumped.options.use_nti is False
        assert request.options.use_nti is True
        with pytest.raises(ValueError):
            request.with_overrides(mode="turbo")

    def test_with_overrides_rejects_loose_option_keywords(self, arch):
        # The per-keyword spellings were removed in 2.0.
        request = OptimizeRequest(arch=arch, func=make_matmul(64)[0])
        for name in ("use_nti", "jobs", "tracer"):
            with pytest.raises(TypeError, match=name):
                request.with_overrides(**{name: None})


class TestDispatch:
    def test_auto_matches_legacy_optimize(self, arch):
        result = optimize(
            OptimizeRequest(arch=arch, func=make_matmul(64)[0])
        )
        legacy = core_optimize(make_matmul(64)[0], arch)
        assert result.mode == MODE_AUTO
        assert schedule_to_dict(result.schedule) == schedule_to_dict(
            legacy.schedule
        )
        assert result.stats.to_dict() == legacy.temporal.stats.to_dict()
        assert result.cost == legacy.temporal.cost

    def test_temporal_mode_runs_algorithm_2_only(self, arch):
        result = optimize(
            OptimizeRequest(
                arch=arch, func=make_matmul(64)[0], mode=MODE_TEMPORAL
            )
        )
        assert result.schedule is None
        assert result.temporal is not None
        assert result.spatial is None
        assert set(result.temporal.tiles) == {"i", "j", "k"}

    def test_spatial_mode_runs_algorithm_3_only(self, arch):
        result = optimize(
            OptimizeRequest(
                arch=arch,
                func=make_transpose_mask(64)[0],
                mode=MODE_SPATIAL,
            )
        )
        assert result.schedule is None
        assert result.spatial is not None
        assert result.stats is result.spatial.stats

    def test_safe_mode_reports_rung(self, arch):
        result = optimize(
            OptimizeRequest(arch=arch, func=make_matmul(64)[0], mode=MODE_SAFE)
        )
        assert result.rung == RUNG_PROPOSED
        assert not result.fell_back
        assert result.schedule is not None
        assert result.diagnostics is not None

    def test_pipeline_auto_returns_readonly_mapping(self, arch):
        result = optimize(OptimizeRequest(arch=arch, pipeline=_pipeline()))
        assert result.schedules is not None
        assert len(result.schedules) == 1
        with pytest.raises(TypeError):
            result.schedules[make_matmul(64)[0]] = None

    def test_pipeline_safe_mode(self, arch):
        result = optimize(
            OptimizeRequest(arch=arch, pipeline=_pipeline(), mode=MODE_SAFE)
        )
        assert len(result.schedules) == 1
        assert not result.fell_back


class TestCachePath:
    def test_auto_mode_round_trip(self, arch, tmp_path):
        path = str(tmp_path / "schedules.jsonl")
        request = OptimizeRequest(
            arch=arch, func=make_matmul(64)[0], cache_path=path
        )
        cold = optimize(request)
        warm = optimize(
            OptimizeRequest(
                arch=arch, func=make_matmul(64)[0], cache_path=path
            )
        )
        assert schedule_to_dict(cold.schedule) == schedule_to_dict(
            warm.schedule
        )
        # The warm run skipped the search entirely.
        assert warm.temporal is None

    def test_safe_mode_uses_the_cache(self, arch, tmp_path):
        path = str(tmp_path / "schedules.jsonl")
        first = optimize(
            OptimizeRequest(
                arch=arch,
                func=make_matmul(64)[0],
                mode=MODE_SAFE,
                cache_path=path,
            )
        )
        second = optimize(
            OptimizeRequest(
                arch=arch,
                func=make_matmul(64)[0],
                mode=MODE_SAFE,
                cache_path=path,
            )
        )
        assert first.rung == RUNG_PROPOSED
        assert second.rung == RUNG_CACHE
        assert not second.fell_back


class TestReExports:
    def test_package_level_names(self):
        assert repro.OptimizeRequest is OptimizeRequest
        assert repro.OptimizeResult is OptimizeResult
        assert repro.api.optimize is optimize

    def test_result_is_frozen(self, arch):
        result = optimize(
            OptimizeRequest(arch=arch, func=make_matmul(64)[0])
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.schedule = None
