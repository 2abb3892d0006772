"""A Halide-like mini-DSL and loop-nest IR.

This package is the reproduction's substitute for the Halide front end:

* :mod:`repro.ir.expr` — the expression AST (constants, loop variables,
  arithmetic, array accesses).
* :mod:`repro.ir.func` — ``Var``/``RVar``/``Buffer``/``Func``: algorithm
  definitions in the two-part Halide style (pure definition + updates).
* :mod:`repro.ir.schedule` — the scheduling language: ``split``, ``tile``,
  ``reorder``, ``fuse``, ``vectorize``, ``parallel`` and the paper's new
  ``store_nontemporal`` directive.
* :mod:`repro.ir.lower` — lowering of a (Func, Schedule) pair into the
  explicit :mod:`loop-nest IR <repro.ir.loopnest>` that the trace generator
  and the printers consume.
* :mod:`repro.ir.analysis` — the static access-pattern analysis the paper's
  classifier relies on: per-reference index sets, strides, transposition
  detection and footprints.

The DSL follows C layout conventions: the **last** index of an access is the
contiguous (unit-stride, "column") dimension, exactly as in the paper's C
listings. (Halide proper orders arguments the other way; we stick to the
paper's listings to keep the equations readable.)
"""

from repro.ir.expr import (
    Expr,
    Const,
    VarRef,
    BinOp,
    Access,
    Cast,
    wrap,
)
from repro.ir.expr import minimum, maximum
from repro.ir.func import Var, RVar, DType, Buffer, Func, Definition, Pipeline
from repro.ir.func import float32, float64, int32, int64, uint8, uint16
from repro.ir.schedule import Schedule, LoopKind, LoopSpec
from repro.ir.loopnest import Stmt, LoopNest
from repro.ir.lower import lower, lower_pipeline
from repro.ir.analysis import (
    AffineIndex,
    RefInfo,
    StatementInfo,
    analyze_definition,
    analyze_func,
)
from repro.ir.validate import validate_func, validate_schedule
from repro.ir.serialize import (
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)
from repro._lazy import lazy_exports

# The printers and code generators serve the CLI, not the optimizer.
__getattr__, __dir__ = lazy_exports(__name__, {
    "print_nest": "repro.ir.printer",
    "print_expr": "repro.ir.printer",
    "codegen": "repro.ir.codegen_c",
    "codegen_nest": "repro.ir.codegen_c",
    "signature_buffers": "repro.ir.codegen_c",
    "emit_halide": "repro.ir.halide_out",
})

__all__ = [
    "Expr",
    "Const",
    "VarRef",
    "BinOp",
    "Access",
    "Cast",
    "wrap",
    "Var",
    "RVar",
    "DType",
    "Buffer",
    "Func",
    "Definition",
    "float32",
    "float64",
    "int32",
    "int64",
    "uint8",
    "uint16",
    "minimum",
    "maximum",
    "Pipeline",
    "Schedule",
    "LoopKind",
    "LoopSpec",
    "Stmt",
    "LoopNest",
    "lower",
    "lower_pipeline",
    "AffineIndex",
    "RefInfo",
    "StatementInfo",
    "analyze_definition",
    "analyze_func",
    "print_nest",
    "print_expr",
    "validate_func",
    "validate_schedule",
    "codegen",
    "codegen_nest",
    "signature_buffers",
    "emit_halide",
    "schedule_from_dict",
    "schedule_from_json",
    "schedule_to_dict",
    "schedule_to_json",
]
