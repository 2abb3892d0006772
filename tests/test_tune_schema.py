"""The repro-tune-v1 wire formats: golden pins + validator coverage.

These are the documents `POST /v1/tune` and `repro tune` exchange; the
goldens pin the exact layout (field names, folding rules, the
deterministic ``tune_id``) so an accidental wire change fails loudly
here before it breaks a deployed client.
"""

import pytest

from repro.options import CACHE_KEYS
from repro.serve.http import ChunkDecoder
from repro.tune import (
    CELL_OK,
    CELL_QUARANTINED,
    CELL_RESUMED,
    TUNE_FORMAT,
    TUNE_REPORT_FORMAT,
    build_tune_request,
    cell_record,
    tune_id,
    tune_report,
    validate_tune_record,
    validate_tune_report,
    validate_tune_request,
)
from repro.util import ServeError


def options_dict(**overrides):
    base = {
        "use_nti": True,
        "parallelize": True,
        "vectorize": True,
        "exhaustive": False,
        "use_emu": True,
        "order_step": True,
    }
    base.update(overrides)
    return base


class TestRequest:
    def test_build_golden(self):
        request = build_tune_request(
            kernels=["matmul", "mxv"],
            grid=[{}, {"use_nti": False}],
            fast=True,
        )
        assert request == {
            "format": TUNE_FORMAT,
            "platforms": ["i7-5930k"],
            "grid": [{}, {"use_nti": False}],
            "fast": True,
            "deadline_ms": None,
            "kernels": ["matmul", "mxv"],
        }
        assert validate_tune_request(request) == []

    def test_tune_id_pinned(self):
        # The id is the journal/resume key; it must never drift for an
        # unchanged request.
        request = build_tune_request(
            kernels=["matmul", "mxv"],
            grid=[{}, {"use_nti": False}],
            fast=True,
        )
        assert tune_id(request) == "d4cd58516221d078"
        by_family = build_tune_request(
            families=["micro"], platforms=["i7-5930k", "arm-a15"]
        )
        assert tune_id(by_family) == "10e302d96bca66fe"

    def test_tune_id_ignores_kernel_order_and_deadline(self):
        a = build_tune_request(kernels=["matmul", "mxv"])
        b = build_tune_request(kernels=["mxv", "matmul"], deadline_ms=50.0)
        assert tune_id(a) == tune_id(b)

    def test_kernels_xor_families(self):
        with pytest.raises(ValueError, match="exactly one"):
            build_tune_request(kernels=["matmul"], families=["micro"])
        with pytest.raises(ValueError, match="exactly one"):
            build_tune_request()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown families"):
            build_tune_request(families=["nope"])

    def test_grid_rejects_unknown_and_non_bool_options(self):
        with pytest.raises(ValueError, match="unknown option"):
            build_tune_request(kernels=["matmul"], grid=[{"turbo": True}])
        with pytest.raises(ValueError, match="must be a boolean"):
            build_tune_request(kernels=["matmul"], grid=[{"use_nti": 1}])

    def test_validator_catches_extra_field_and_bad_deadline(self):
        request = build_tune_request(kernels=["matmul"])
        request["surprise"] = 1
        assert any(
            "surprise" in problem
            for problem in validate_tune_request(request)
        )
        bad = build_tune_request(kernels=["matmul"])
        bad["deadline_ms"] = -1
        assert validate_tune_request(bad) != []

    def test_empty_platforms_rejected(self):
        with pytest.raises(ValueError, match="platforms"):
            build_tune_request(kernels=["matmul"], platforms=[])


class TestCellRecord:
    def test_golden_ok_record(self):
        record = cell_record(
            key="tune:matmul:i7-5930k:optabc:fast",
            status=CELL_OK,
            kernel="matmul",
            platform="i7-5930k",
            options=options_dict(),
            ms=2.0,
            baseline_ms=6.0,
        )
        assert record == {
            "format": TUNE_FORMAT,
            "kind": "cell",
            "key": "tune:matmul:i7-5930k:optabc:fast",
            "status": CELL_OK,
            "kernel": "matmul",
            "platform": "i7-5930k",
            "options": options_dict(),
            "ms": 2.0,
            "baseline_ms": 6.0,
            "speedup": 3.0,
            "error": None,
        }
        assert validate_tune_record(record) == []

    def test_quarantined_needs_error_and_null_ms(self):
        record = cell_record(
            key="k", status=CELL_QUARANTINED, kernel="matmul",
            platform="i7-5930k", options=options_dict(), ms=None,
            baseline_ms=None, error="ConnectionError: boom",
        )
        assert validate_tune_record(record) == []
        record["error"] = None
        assert any(
            "error" in problem for problem in validate_tune_record(record)
        )
        record["error"] = "x"
        record["ms"] = 1.0
        assert any(
            "ms=null" in problem for problem in validate_tune_record(record)
        )

    def test_ok_needs_positive_ms_and_full_option_set(self):
        record = cell_record(
            key="k", status=CELL_OK, kernel="m", platform="p",
            options=options_dict(), ms=1.5, baseline_ms=None,
        )
        assert validate_tune_record(record) == []
        record["ms"] = 0
        assert validate_tune_record(record) != []
        record["ms"] = 1.5
        del record["options"]["use_nti"]
        assert any(
            str(list(CACHE_KEYS)) in problem
            for problem in validate_tune_record(record)
        )


class TestReport:
    def outcomes(self):
        slow = cell_record(
            key="tune:matmul:i7-5930k:opta", status=CELL_OK,
            kernel="matmul", platform="i7-5930k",
            options=options_dict(), ms=4.0, baseline_ms=8.0,
        )
        # Resumed cells fold into ok — the resume-bit-identity contract.
        fastest = cell_record(
            key="tune:matmul:i7-5930k:optb", status=CELL_RESUMED,
            kernel="matmul", platform="i7-5930k",
            options=options_dict(use_nti=False), ms=2.0, baseline_ms=8.0,
        )
        dead = cell_record(
            key="tune:mxv:i7-5930k:opta", status=CELL_QUARANTINED,
            kernel="mxv", platform="i7-5930k",
            options=options_dict(), ms=None, baseline_ms=None,
            error="ConnectionError: gone",
        )
        return [slow, fastest, dead]

    def test_golden_report(self):
        report = tune_report(
            tune_id_value="d4cd58516221d078",
            platforms=["i7-5930k"],
            outcomes=self.outcomes(),
        )
        assert report["format"] == TUNE_REPORT_FORMAT
        assert report["tune_id"] == "d4cd58516221d078"
        assert (report["cells"], report["ok"], report["quarantined"]) == (
            3, 2, 1
        )
        # The winner is the fastest ok/resumed cell for the slot.
        assert report["winners"] == {
            "matmul@i7-5930k": {
                "options": options_dict(use_nti=False),
                "ms": 2.0,
                "baseline_ms": 8.0,
                "speedup": 4.0,
            }
        }
        # Table rows sort by (kernel, platform, canonical options JSON):
        # use_nti=false sorts before use_nti=true.
        assert [row["ms"] for row in report["table"]] == [2.0, 4.0]
        assert report["quarantined_cells"] == ["tune:mxv:i7-5930k:opta"]
        assert validate_tune_report(report) == []

    def test_validator_catches_count_mismatch_and_bad_slot(self):
        report = tune_report(
            tune_id_value="d4cd58516221d078",
            platforms=["i7-5930k"],
            outcomes=self.outcomes(),
        )
        report["cells"] = 7
        assert any(
            "cells" in problem for problem in validate_tune_report(report)
        )
        report["cells"] = 3
        report["winners"]["broken"] = {"ms": 1.0, "options": {}}
        assert any(
            "kernel@platform" in problem
            for problem in validate_tune_report(report)
        )

    def test_validator_rejects_short_tune_id(self):
        report = tune_report(
            tune_id_value="short", platforms=[], outcomes=[]
        )
        assert any(
            "tune_id" in problem
            for problem in validate_tune_report(report)
        )


class TestChunkDecoder:
    """The chunked-transfer grammar the tune stream client rides on."""

    def test_single_feed(self):
        decoder = ChunkDecoder()
        out = decoder.feed(b"5\r\nhello\r\n3\r\nabc\r\n0\r\n\r\n")
        assert out == [b"hello", b"abc"]
        assert decoder.done

    def test_byte_at_a_time(self):
        decoder = ChunkDecoder()
        wire = b"b\r\nhello world\r\n0\r\n\r\n"
        out = []
        for index in range(len(wire)):
            out.extend(decoder.feed(wire[index:index + 1]))
        assert out == [b"hello world"]
        assert decoder.done

    def test_nothing_after_terminator(self):
        decoder = ChunkDecoder()
        decoder.feed(b"0\r\n\r\n")
        assert decoder.done
        assert decoder.feed(b"ignored") == []

    def test_malformed_size_raises(self):
        decoder = ChunkDecoder()
        with pytest.raises(ServeError, match="malformed chunk size"):
            decoder.feed(b"zz\r\nboom\r\n")
