"""The consolidated ``SweepCell.options`` field (the historical loose
option keywords were removed in 2.0)."""

import json
import warnings

import pytest

from repro.options import OptimizeOptions
from repro.sweep import KIND_TUNE, SweepCell


def measure_cell(**kwargs):
    defaults = dict(
        benchmark="matmul",
        technique="proposed",
        platform="i7-5930k",
        line_budget=0,
        fast=True,
    )
    defaults.update(kwargs)
    return SweepCell(**defaults)


class TestOptionsField:
    def test_no_options_stays_silent_and_none(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cell = measure_cell()
        assert cell.options is None
        assert cell.options_dict() is None

    def test_options_object_is_the_identity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cell = measure_cell(
                options=OptimizeOptions().replace(use_nti=False)
            )
        assert cell.options.use_nti is False
        assert f"opt{cell.options.fingerprint()[:12]}" in cell.key()

    def test_loose_keywords_are_rejected(self):
        with pytest.raises(TypeError, match="use_nti"):
            measure_cell(use_nti=False)

    def test_journal_identity_is_unchanged(self):
        # Pinned from 1.x: resume must keep matching old journal lines.
        cell = measure_cell(
            line_budget=2000, options=OptimizeOptions(use_nti=False)
        )
        line = (
            '{"autotune_evals": null, "benchmark": "matmul", "fast": true, '
            '"kind": "measure", "line_budget": 2000, "options": '
            '{"exhaustive": false, "order_step": true, "parallelize": true, '
            '"use_emu": true, "use_nti": false, "vectorize": true}, '
            '"platform": "i7-5930k", "seed": 0, "size_overrides": {}, '
            '"technique": "proposed"}'
        )
        assert json.dumps(cell.to_dict(), sort_keys=True) == line
        assert SweepCell.from_dict(json.loads(line)) == cell
        assert cell.key() == "matmul:proposed:i7-5930k:lb2000:fast:opt9163b7ba341c"
        assert cell.memo_key() == (
            "matmul", "proposed", "i7-5930k", 2000, 0, True, 0, ()
        )


class TestTuneCells:
    def tune_cell(self, **overrides):
        return SweepCell(
            benchmark="matmul",
            technique="proposed",
            platform="i7-5930k",
            line_budget=0,
            fast=True,
            kind=KIND_TUNE,
            options=OptimizeOptions().replace(**overrides),
        )

    def test_tune_cells_require_options(self):
        with pytest.raises(ValueError, match="require options"):
            measure_cell(kind=KIND_TUNE)

    def test_key_and_memo_key_carry_the_fingerprint(self):
        defaults = self.tune_cell()
        variant = self.tune_cell(use_nti=False)
        assert defaults.key() != variant.key()
        assert defaults.key().startswith("tune:matmul:i7-5930k:opt")
        assert defaults.key().endswith(":fast")
        assert defaults.memo_key()[0] == "tune"
        assert defaults.memo_key() != variant.memo_key()

    def test_roundtrip_preserves_identity(self):
        cell = self.tune_cell(use_nti=False, exhaustive=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = SweepCell.from_dict(cell.to_dict())
        assert back == cell
        assert back.key() == cell.key()
        assert back.options == cell.options

    def test_roundtrip_of_optionless_measure_cell(self):
        cell = measure_cell()
        back = SweepCell.from_dict(cell.to_dict())
        assert back == cell
        assert back.options is None
