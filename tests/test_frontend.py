"""Tests for the kernel spec frontend: parser and lowering."""

from __future__ import annotations

import pytest

from repro.frontend import DTYPES, lower_spec, parse_spec
from repro.frontend.parser import Bin, Name, Num, Ref
from repro.ir import float64, int32
from repro.util import ValidationError


class TestParser:
    def test_matmul_shape(self):
        stmts = parse_spec("C[i,j] += A[i,k] * B[k,j]")
        assert len(stmts) == 1
        stmt = stmts[0]
        assert stmt.lhs_name == "C"
        assert stmt.op == "+="
        assert isinstance(stmt.rhs, Bin) and stmt.rhs.op == "*"
        assert isinstance(stmt.rhs.lhs, Ref) and stmt.rhs.lhs.name == "A"

    def test_multi_statement_and_trailing_semicolon(self):
        stmts = parse_spec("T[i] += A[i,j] * x[j]; y[i2] = T[i2];")
        assert [s.lhs_name for s in stmts] == ["T", "y"]

    def test_numbers_keep_their_kind(self):
        stmts = parse_spec("B[i] = 2 * A[i] + 0.5 * A[i]")
        two = stmts[0].rhs.lhs.lhs
        half = stmts[0].rhs.rhs.lhs
        assert isinstance(two, Num) and two.value == 2
        assert isinstance(two.value, int)
        assert isinstance(half, Num) and half.value == 0.5

    def test_named_scalars(self):
        stmts = parse_spec("B[i] = a * A[i]")
        assert isinstance(stmts[0].rhs.lhs, Name)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "C[i,j]",
            "C[i,j] = ",
            "C[i,j] =+ A[i,j]",
            "C[i,j] += A[i,j",
            "C += A[i]",
            "[i] = A[i]",
            "C[i] = A[i] ** 2",
            42,
        ],
    )
    def test_malformed_specs_raise_validation_error(self, bad):
        with pytest.raises(ValidationError):
            parse_spec(bad)

    def test_error_carries_position(self):
        with pytest.raises(ValidationError, match="position"):
            parse_spec("C[i] = A[i] @ B[i]")


class TestLowering:
    def test_matmul_lowers_to_init_plus_update(self):
        lowered = lower_spec(
            "C[i,j] += A[i,k] * B[k,j]", {"i": 32, "j": 32, "k": 32}
        )
        func = lowered.output
        assert func.name == "C"
        assert len(func.definitions) == 2  # pure init + reduction update
        assert repr(func.definitions[0].rhs) == "Const(0.0)"

    def test_stencil_offsets_shift_to_padded_buffer(self):
        lowered = lower_spec(
            "B[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1]",
            {"i": 16, "j": 16},
        )
        buffers = {
            buf.name: buf for buf in lowered.output.input_buffers()
        }
        # offsets -1..+1 over extent 16 need an 18-wide padded plane
        assert buffers["A"].shape == (18, 18)

    def test_dtypes_apply(self):
        lowered = lower_spec(
            "C[i] = A[i]",
            {"i": 8},
            dtypes={"C": "float64", "A": "float64"},
        )
        assert lowered.output.dtype == float64

    def test_int_accumulator_initializes_with_int_zero(self):
        lowered = lower_spec(
            "C[i] += A[i]", {"i": 8}, dtypes={"C": "int32", "A": "int32"}
        )
        assert lowered.output.dtype == int32
        assert repr(lowered.output.definitions[0].rhs) == "Const(0)"

    def test_params_substitute_as_constants(self):
        lowered = lower_spec(
            "B[i] = a * A[i]", {"i": 8}, params={"a": 0.25}
        )
        assert "Const(0.25)" in repr(lowered.output.definitions[0].rhs)

    def test_multi_stage_becomes_pipeline(self):
        lowered = lower_spec(
            "T[i,j] += A[i,k] * B[k,j]; D[i2,j2] += T[i2,k2] * Cc[k2,j2]",
            {"i": 16, "j": 16, "k": 16, "i2": 16, "j2": 16, "k2": 16},
        )
        assert [f.name for f in lowered.funcs] == ["T", "D"]
        assert lowered.output.name == "D"

    def test_later_self_read_lowers_as_update(self):
        lowered = lower_spec(
            "C[i,j] = Cin[i,j]; C[i,j] = C[i,j] + X[i,j] + Y[i,j]",
            {"i": 8, "j": 8},
        )
        pure, update = lowered.output.definitions
        assert not pure.is_update and update.is_update
        # The factory shape `(C + X) + Y`, not `C + (X + Y)`.
        assert repr(update.rhs).startswith(
            "BinOp('+', BinOp('+', Access(C, "
        )

    @pytest.mark.parametrize(
        "spec", ["C[i] = C[i] + A[i]", "C[i] += C[i] * A[i]"]
    )
    def test_first_statement_self_read_is_rejected(self, spec):
        with pytest.raises(
            ValidationError, match="reads itself in its pure definition"
        ):
            lower_spec(spec, {"i": 8})

    def test_known_dtypes_table(self):
        assert "float32" in DTYPES and "int32" in DTYPES

    @pytest.mark.parametrize(
        ("spec", "dims", "kwargs", "match"),
        [
            ("C[i] = A[i]", {}, {}, "non-empty"),
            ("C[i] = A[i]", {"i": 0}, {}, "positive"),
            ("C[i] = A[i]", {"i": 8, "zz": 4}, {}, "never appear"),
            ("C[i] = A[i*i]", {"i": 8}, {}, "affine"),
            ("C[i] = A[i/2]", {"i": 8}, {}, "affine|division"),
            ("C[i] = A[j]", {"i": 8}, {}, "no extent"),
            ("C[i] = A[i]", {"i": 8}, {"dtypes": {"C": "f8"}}, "dtype"),
            ("C[i] = A[i]", {"i": 8}, {"dtypes": {"X": "float32"}},
             "never appear"),
            ("C[i] = a * A[i]", {"i": 8}, {}, "param"),
            (
                "C[i] = a * A[i]",
                {"i": 8},
                {"params": {"a": 1.0, "b": 2.0}},
                "never appear",
            ),
            ("C[i] = C[i+1]", {"i": 8}, {}, "plain loop variable"),
            ("A[i] = A2[i]; A[j] = A2[j]", {"i": 8, "j": 8}, {},
             "pure variables"),
        ],
    )
    def test_bad_inputs_raise_validation_error(
        self, spec, dims, kwargs, match
    ):
        with pytest.raises(ValidationError, match=match):
            lower_spec(spec, dims, **kwargs)

    def test_lowering_is_deterministic_in_process(self):
        spec = "B[i,j] = a*A[i,j] + b*(A[i-1,j]+A[i+1,j]+A[i,j-1]+A[i,j+1])"
        dims = {"i": 64, "j": 64}
        params = {"a": 0.5, "b": 0.125}
        first = lower_spec(spec, dims, params=params)
        second = lower_spec(spec, dims, params=params)
        assert first.fingerprints == second.fingerprints
