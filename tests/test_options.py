"""Tests for :class:`repro.options.OptimizeOptions`, the one option
surface of :class:`repro.api.OptimizeRequest` (the loose per-keyword
spellings and ``jobs`` were removed in 2.0)."""

from __future__ import annotations

import warnings

import pytest

from repro import OptimizeOptions
from repro.api import OptimizeRequest
from repro.cache.fingerprint import options_fingerprint

from tests.helpers import make_matmul


class TestOptimizeOptions:
    def test_defaults_match_legacy_surface(self):
        options = OptimizeOptions()
        assert options.cache_dict() == {
            "use_nti": True,
            "parallelize": True,
            "vectorize": True,
            "exhaustive": False,
            "use_emu": True,
            "order_step": True,
        }
        assert options.tracer is None

    def test_tracer_does_not_change_the_fingerprint(self):
        base = OptimizeOptions()
        assert (
            base.fingerprint()
            == OptimizeOptions(tracer=object()).fingerprint()
        )
        assert (
            base.fingerprint()
            != OptimizeOptions(use_nti=False).fingerprint()
        )

    def test_is_the_single_fingerprint_source(self):
        # The cache key, coalesce key and shard key all hash cache_dict().
        assert OptimizeOptions().fingerprint() == options_fingerprint(
            OptimizeOptions().cache_dict()
        )
        # The deprecated name the benchmark harness imports delegates here.
        from repro.cache import optimize_options

        assert optimize_options(use_nti=False) == OptimizeOptions(
            use_nti=False
        ).cache_dict()

    def test_replace_validates(self):
        assert OptimizeOptions().replace(multistride=4).multistride == 4
        for unknown in ("speed", "jobs"):
            with pytest.raises(TypeError, match="unknown option"):
                OptimizeOptions().replace(**{unknown: 1})
        with pytest.raises(ValueError, match="multistride"):
            OptimizeOptions().replace(multistride=1)

    def test_frozen(self):
        with pytest.raises(Exception):
            OptimizeOptions().use_nti = False


class TestFingerprintNeutrality:
    """Golden gate: the multistride option must be invisible when off.

    Every deployed ScheduleCache entry, coalescing key, shard ring slot
    and tune_id hashes the options fingerprint; the pinned value below
    is the pre-multistride one, so a change here is a fleet-wide cache
    invalidation and must be deliberate.
    """

    GOLDEN_DEFAULT = (
        "367e4fa135788a064bf1d4f386358904a7a664295b475975221d41841f4a51bd"
    )

    def test_default_fingerprint_is_byte_identical_to_pre_multistride(self):
        assert OptimizeOptions().fingerprint() == self.GOLDEN_DEFAULT
        assert (
            OptimizeOptions(multistride="off").fingerprint()
            == self.GOLDEN_DEFAULT
        )

    def test_disabled_multistride_never_enters_the_cache_dict(self):
        assert "multistride" not in OptimizeOptions().cache_dict()
        assert "multistride" not in OptimizeOptions(
            multistride="off"
        ).cache_dict()

    def test_enabled_multistride_forks_the_fingerprint(self):
        enabled = OptimizeOptions(multistride="auto")
        assert enabled.cache_dict()["multistride"] == "auto"
        assert enabled.fingerprint() != self.GOLDEN_DEFAULT
        assert (
            OptimizeOptions(multistride=4).fingerprint()
            != enabled.fingerprint()
        )


class TestRequestOptions:
    def test_canonical_spelling_is_warning_free(self, arch):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            request = OptimizeRequest(
                arch=arch,
                func=make_matmul(48)[0],
                options=OptimizeOptions(use_nti=False),
            )
            assert request.options.use_nti is False

    @pytest.mark.parametrize(
        "legacy",
        [
            {"use_nti": False},
            {"use_emu": False},
            {"order_step": False},
            {"jobs": 2},
            {"parallelize": False},
            {"vectorize": False},
            {"exhaustive": True},
            {"tracer": None},
        ],
    )
    def test_loose_keywords_are_rejected(self, arch, legacy):
        with pytest.raises(TypeError, match=next(iter(legacy))):
            OptimizeRequest(arch=arch, func=make_matmul(48)[0], **legacy)

    def test_options_survive_with_overrides(self, arch):
        request = OptimizeRequest(
            arch=arch,
            func=make_matmul(48)[0],
            options=OptimizeOptions(use_nti=False),
        )
        copied = request.with_overrides(deadline_ms=100.0)
        assert copied.options.use_nti is False
        assert copied.deadline_ms == 100.0
