"""Lowering: spec string + dims → :class:`repro.ir.Func` pipeline.

The contract that makes the frontend a *wire format* rather than sugar:
lowering is **deterministic and fingerprint-stable**.  Two lowerings of
the same ``(spec, dims, dtypes, params)`` — in the same process, in two
interpreters, on two machines — produce Funcs with identical
:func:`repro.cache.fingerprint.func_fingerprint` hashes, and a spec that
describes the same kernel as a hand-written Func produces the *same*
fingerprint as that Func.  That is what lets spec-submissions coalesce,
cache-hit, and shard together with ``repro.ir`` submissions.

How the stability is achieved:

* **Canonical index ordering** — every affine index is decomposed into
  ``{var: coeff} + const`` and rebuilt in first-appearance order with
  the constant last (``1 + y`` and ``y + 1`` both lower to ``y + 1``),
  using exactly the expression shapes Python operator overloading builds
  (``y + 1`` is ``BinOp('+', Var('y'), Const(1))``).
* **Offset normalization** — stencil specs are written with natural
  negative neighbors (``A[i-1, j]``); lowering shifts each buffer
  dimension so the smallest reachable index is 0 and pads the inferred
  shape accordingly, which reproduces the hand-padded form of
  stencils exactly (the suite's ``jacobi2d`` reads ``Ain`` of shape
  ``(n + 2, n + 2)``).
* **Inferred shapes** — buffer shapes are the tightest extent every
  access can reach given ``dims`` (after the shift), so the same spec
  never lowers to two different shapes.
* **Literal fidelity** — numeric literals keep their written int/float
  type and scalar parameters are substituted as ``Const`` values, so
  constants fingerprint identically to hand-written code.

Scope (mirrors the paper's: dense affine loop nests): indices must be
affine in the loop variables; reads of *earlier stages* must use plain
loop variables (no stencil over a stage — same restriction the repo's
hand-written pipelines obey); a stage may read itself only at the
current point (classic reduction updates).  Everything out of scope
raises :class:`~repro.util.ValidationError` with an actionable message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.frontend.parser import (
    Bin,
    Name,
    Neg,
    Num,
    Ref,
    Statement,
    parse_spec,
)
from repro.ir.expr import Access, BinOp, Const, Expr
from repro.ir.func import (
    Buffer,
    DType,
    Func,
    Pipeline,
    RVar,
    Var,
    float32,
    float64,
    int32,
    int64,
    uint8,
    uint16,
)
from repro.util import ReproError, ValidationError

__all__ = ["DTYPES", "Lowered", "lower_spec"]

#: Element types a spec's ``dtypes`` mapping may name.
DTYPES: Dict[str, DType] = {
    "float32": float32,
    "float64": float64,
    "int32": int32,
    "int64": int64,
    "uint16": uint16,
    "uint8": uint8,
}

Number = Union[int, float]


@dataclass(frozen=True)
class Lowered:
    """One lowered spec: the pipeline plus its identity.

    ``fingerprints`` carries one
    :func:`repro.cache.fingerprint.func_fingerprint` per stage, in
    pipeline order — the exact hashes the serve layer coalesces and
    shards on, so a ``Lowered`` is directly comparable with hand-written
    Funcs.
    """

    pipeline: Pipeline
    spec: str
    dims: Mapping[str, int]
    fingerprints: Tuple[str, ...]

    @property
    def name(self) -> str:
        return self.pipeline.name

    @property
    def funcs(self) -> List[Func]:
        return list(self.pipeline)

    @property
    def output(self) -> Func:
        return self.pipeline.output


# --- affine index decomposition -------------------------------------------


def _affine(node, where: str) -> Tuple[Dict[str, int], int]:
    """Decompose an index AST into ``({var: coeff}, const)``.

    Coefficients and the constant must be integers; anything non-affine
    (products of variables, division, bitwise ops, float offsets) is a
    :class:`~repro.util.ValidationError` naming the access.
    """
    if isinstance(node, Num):
        if not isinstance(node.value, int):
            raise ValidationError(
                f"index of {where} uses the non-integer constant "
                f"{node.value!r}; indices must be affine in the loop "
                f"variables with integer coefficients"
            )
        return {}, node.value
    if isinstance(node, Name):
        return {node.id: 1}, 0
    if isinstance(node, Neg):
        coeffs, const = _affine(node.operand, where)
        return {v: -c for v, c in coeffs.items()}, -const
    if isinstance(node, Bin):
        if node.op in ("+", "-"):
            lc, lk = _affine(node.lhs, where)
            rc, rk = _affine(node.rhs, where)
            sign = 1 if node.op == "+" else -1
            out = dict(lc)
            for v, c in rc.items():
                out[v] = out.get(v, 0) + sign * c
            return {v: c for v, c in out.items() if c != 0}, lk + sign * rk
        if node.op == "*":
            lc, lk = _affine(node.lhs, where)
            rc, rk = _affine(node.rhs, where)
            if lc and rc:
                raise ValidationError(
                    f"index of {where} multiplies two loop variables; "
                    f"indices must be affine"
                )
            coeffs, scale = (lc, rk) if lc else (rc, lk)
            return {v: c * scale for v, c in coeffs.items() if c * scale}, (
                lk * rk
            )
        raise ValidationError(
            f"index of {where} uses operator {node.op!r}; only affine "
            f"'+', '-' and '*'-by-constant are allowed in indices"
        )
    if isinstance(node, Ref):
        raise ValidationError(
            f"index of {where} nests the access {node.name!r}[...]; "
            f"indirect (gather) indexing is outside the affine scope"
        )
    raise ValidationError(f"index of {where} is not an affine expression")


def _term_order(node, order: List[str]) -> None:
    """First-appearance order of variables in one index AST."""
    if isinstance(node, Name):
        if node.id not in order:
            order.append(node.id)
    elif isinstance(node, Neg):
        _term_order(node.operand, order)
    elif isinstance(node, Bin):
        _term_order(node.lhs, order)
        _term_order(node.rhs, order)


def _rebuild_index(
    coeffs: Dict[str, int],
    const: int,
    order: List[str],
    env: Dict[str, object],
) -> Expr:
    """Canonical expression for one affine index.

    Terms in first-appearance order, constant last — exactly the shapes
    the IR's operator overloading produces, so ``repr`` (and therefore
    the fingerprint) matches hand-written definitions.
    """
    expr: Optional[Expr] = None
    for name in order:
        coeff = coeffs.get(name, 0)
        if coeff == 0:
            continue
        var = env[name]
        term = var if abs(coeff) == 1 else BinOp("*", Const(abs(coeff)), var)
        if expr is None:
            expr = BinOp("-", Const(0), term) if coeff < 0 else term
        else:
            expr = BinOp("-" if coeff < 0 else "+", expr, term)
    if expr is None:
        return Const(const)
    if const > 0:
        expr = BinOp("+", expr, Const(const))
    elif const < 0:
        expr = BinOp("-", expr, Const(-const))
    return expr


# --- collected access bookkeeping -----------------------------------------


@dataclass
class _BufferInfo:
    """Everything seen about one (not-yet-built) input buffer."""

    rank: int
    #: per dimension: (min reachable index, max reachable index)
    lo: List[int] = field(default_factory=list)
    hi: List[int] = field(default_factory=list)
    shift: List[int] = field(default_factory=list)
    shape: Tuple[int, ...] = ()


class _Lowering:
    def __init__(
        self,
        spec: str,
        dims: Mapping[str, int],
        dtypes: Optional[Mapping[str, str]],
        params: Optional[Mapping[str, Number]],
        name: Optional[str],
    ) -> None:
        self.spec = spec
        self.dims = self._check_dims(dims)
        self.dtypes = self._check_dtypes(dtypes)
        self.params = self._check_params(params)
        self.pipeline_name = name
        self.statements = parse_spec(spec)
        #: stage name -> its statements, in first-definition order
        self.stages: Dict[str, List[Statement]] = {}
        self.buffers: Dict[str, _BufferInfo] = {}
        self.built_buffers: Dict[str, Buffer] = {}
        self.built_funcs: Dict[str, Func] = {}
        #: per stage: {var name -> Var|RVar} (role differs per stage)
        self.envs: Dict[str, Dict[str, object]] = {}
        self._vars: Dict[str, Var] = {}
        self._rvars: Dict[str, RVar] = {}
        self.used_dims: Dict[str, bool] = {d: False for d in self.dims}
        self.used_params: Dict[str, bool] = {p: False for p in self.params}

    # -- input validation ---------------------------------------------

    @staticmethod
    def _check_dims(dims) -> Dict[str, int]:
        if not isinstance(dims, Mapping) or not dims:
            raise ValidationError(
                "dims must be a non-empty mapping of loop-variable "
                "extents, e.g. {'i': 512, 'j': 512, 'k': 512}"
            )
        out: Dict[str, int] = {}
        for key, value in dims.items():
            if not isinstance(key, str) or not key.isidentifier():
                raise ValidationError(
                    f"dims key {key!r} is not a loop-variable name"
                )
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value <= 0
            ):
                raise ValidationError(
                    f"dims[{key!r}] must be a positive integer, got "
                    f"{value!r}"
                )
            out[key] = int(value)
        return out

    @staticmethod
    def _check_dtypes(dtypes) -> Dict[str, DType]:
        if dtypes is None:
            return {}
        if not isinstance(dtypes, Mapping):
            raise ValidationError(
                f"dtypes must be a mapping of name -> element type, got "
                f"{type(dtypes).__name__}"
            )
        out: Dict[str, DType] = {}
        for key, value in dtypes.items():
            if value not in DTYPES:
                raise ValidationError(
                    f"dtypes[{key!r}] names unknown element type "
                    f"{value!r}; known: {sorted(DTYPES)}"
                )
            out[str(key)] = DTYPES[value]
        return out

    @staticmethod
    def _check_params(params) -> Dict[str, Number]:
        if params is None:
            return {}
        if not isinstance(params, Mapping):
            raise ValidationError(
                f"params must be a mapping of name -> number, got "
                f"{type(params).__name__}"
            )
        out: Dict[str, Number] = {}
        for key, value in params.items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise ValidationError(
                    f"params[{key!r}] must be a number, got {value!r}"
                )
            out[str(key)] = value
        return out

    # -- pass 1: roles, ranks, reachable index ranges -------------------

    def analyze(self) -> None:
        for statement in self.statements:
            name = statement.lhs_name
            if name in self.stages:
                if list(self.stages).index(name) != len(self.stages) - 1:
                    raise ValidationError(
                        f"statements for stage {name!r} must be "
                        f"consecutive (pure definition, then its updates)"
                    )
            else:
                if name in self.buffers:
                    raise ValidationError(
                        f"{name!r} is read before its first definition; "
                        f"define a stage before any stage reads it"
                    )
                if name in self.dims or name in self.params:
                    raise ValidationError(
                        f"{name!r} is defined as a stage but also named "
                        f"in dims/params"
                    )
                self.stages[name] = []
            self.stages[name].append(statement)
            self._analyze_statement(statement)

    def _lhs_var_names(self, statement: Statement) -> List[str]:
        names: List[str] = []
        for index in statement.lhs_indices:
            if not isinstance(index, Name):
                raise ValidationError(
                    f"left-hand side of {statement.lhs_name!r} must index "
                    f"with plain loop variables, e.g. "
                    f"'{statement.lhs_name}[i, j]'"
                )
            if index.id in names:
                raise ValidationError(
                    f"duplicate variable {index.id!r} on the left-hand "
                    f"side of {statement.lhs_name!r}"
                )
            names.append(index.id)
        return names

    def _analyze_statement(self, statement: Statement) -> None:
        lhs_names = self._lhs_var_names(statement)
        for var in lhs_names:
            self._dim_of(var, f"left-hand side of {statement.lhs_name!r}")
        self._analyze_value(statement.rhs, statement.lhs_name, lhs_names)

    def _dim_of(self, var: str, where: str) -> int:
        if var not in self.dims:
            raise ValidationError(
                f"loop variable {var!r} (used in the {where}) has no "
                f"extent; add it to dims"
            )
        self.used_dims[var] = True
        return self.dims[var]

    def _analyze_value(self, node, stage: str, lhs_names: List[str]) -> None:
        if isinstance(node, Num):
            return
        if isinstance(node, Name):
            if node.id not in self.params:
                known = sorted(self.params) or "none declared"
                raise ValidationError(
                    f"{node.id!r} is used as a scalar value in stage "
                    f"{stage!r} but is not in params (known: {known}); "
                    f"loop variables may only appear inside [...] indices"
                )
            self.used_params[node.id] = True
            return
        if isinstance(node, Neg):
            self._analyze_value(node.operand, stage, lhs_names)
            return
        if isinstance(node, Bin):
            self._analyze_value(node.lhs, stage, lhs_names)
            self._analyze_value(node.rhs, stage, lhs_names)
            return
        if isinstance(node, Ref):
            self._analyze_ref(node, stage, lhs_names)
            return
        raise ValidationError(
            f"unsupported expression in stage {stage!r}"
        )

    def _analyze_ref(self, ref: Ref, stage: str, lhs_names: List[str]) -> None:
        where = f"access {ref.name!r} in stage {stage!r}"
        if ref.name == stage or ref.name in self.stages:
            # Stage reads (self-reference or an earlier stage): plain
            # loop variables only — the same restriction the repo's
            # hand-written pipelines obey (no stencil over a stage).
            for index in ref.indices:
                coeffs, const = _affine(index, where)
                if const != 0 or sorted(coeffs.values()) != [1]:
                    raise ValidationError(
                        f"{where} must use plain loop variables "
                        f"(stage outputs cannot be read at an offset)"
                    )
                self._dim_of(next(iter(coeffs)), where)
            if ref.name == stage:
                names = [
                    next(iter(_affine(ix, where)[0])) for ix in ref.indices
                ]
                if names != lhs_names:
                    raise ValidationError(
                        f"stage {stage!r} may only read itself at the "
                        f"current point {lhs_names}, got {names}"
                    )
            return
        if ref.name in self.dims or ref.name in self.params:
            raise ValidationError(
                f"{ref.name!r} is indexed like a buffer in stage "
                f"{stage!r} but is named in dims/params"
            )
        info = self.buffers.get(ref.name)
        if info is None:
            info = _BufferInfo(rank=len(ref.indices))
            info.lo = [0] * info.rank
            info.hi = [0] * info.rank
            self.buffers[ref.name] = info
        if len(ref.indices) != info.rank:
            raise ValidationError(
                f"buffer {ref.name!r} is accessed with "
                f"{len(ref.indices)} indices in stage {stage!r} but "
                f"{info.rank} elsewhere"
            )
        for d, index in enumerate(ref.indices):
            coeffs, const = _affine(index, where)
            lo = hi = const
            for var, coeff in coeffs.items():
                extent = self._dim_of(var, where)
                span = coeff * (extent - 1)
                lo += min(0, span)
                hi += max(0, span)
            info.lo[d] = min(info.lo[d], lo)
            info.hi[d] = max(info.hi[d], hi)

    # -- pass 2: build buffers, Funcs, pipeline -------------------------

    def build(self) -> Lowered:
        self.analyze()
        unused_dims = [d for d, used in self.used_dims.items() if not used]
        if unused_dims:
            raise ValidationError(
                f"dims entr{'y' if len(unused_dims) == 1 else 'ies'} "
                f"{unused_dims} never appear in the spec (typo?)"
            )
        unused_params = [
            p for p, used in self.used_params.items() if not used
        ]
        if unused_params:
            raise ValidationError(
                f"params entr{'y' if len(unused_params) == 1 else 'ies'} "
                f"{unused_params} never appear in the spec (typo?)"
            )
        tensors = set(self.buffers) | set(self.stages)
        unused_dtypes = sorted(set(self.dtypes) - tensors)
        if unused_dtypes:
            raise ValidationError(
                f"dtypes entr{'y' if len(unused_dtypes) == 1 else 'ies'} "
                f"{unused_dtypes} never appear in the spec (typo?)"
            )
        for bname, info in self.buffers.items():
            info.shift = [max(0, -lo) for lo in info.lo]
            info.shape = tuple(
                hi + shift + 1 for hi, shift in zip(info.hi, info.shift)
            )
            self.built_buffers[bname] = Buffer(
                bname, info.shape, self.dtypes.get(bname, float32)
            )
        for sname, statements in self.stages.items():
            self._build_stage(sname, statements)
        funcs = list(self.built_funcs.values())
        pipeline = Pipeline(
            funcs, name=self.pipeline_name or funcs[-1].name
        )
        from repro.cache.fingerprint import func_fingerprint

        return Lowered(
            pipeline=pipeline,
            spec=self.spec,
            dims=dict(self.dims),
            fingerprints=tuple(func_fingerprint(f) for f in funcs),
        )

    def _env_for(self, sname: str, lhs_names: List[str]) -> Dict[str, object]:
        env: Dict[str, object] = {}
        for var in lhs_names:
            if var not in self._vars:
                self._vars[var] = Var(var)
            env[var] = self._vars[var]
        # Any other variable this stage reads is a reduction variable
        # with its extent taken from dims.
        for var, extent in self.dims.items():
            if var not in env:
                if var not in self._rvars:
                    self._rvars[var] = RVar(var, extent)
                env[var] = self._rvars[var]
        return env

    def _build_stage(self, sname: str, statements: List[Statement]) -> None:
        lhs_names = self._lhs_var_names(statements[0])
        for statement in statements[1:]:
            if self._lhs_var_names(statement) != lhs_names:
                raise ValidationError(
                    f"update of {sname!r} must use the pure variables "
                    f"{lhs_names}, got "
                    f"{self._lhs_var_names(statement)}"
                )
        env = self._env_for(sname, lhs_names)
        self.envs[sname] = env
        dtype = self.dtypes.get(sname, float32)
        func = Func(sname, dtype)
        lhs_vars = tuple(env[v] for v in lhs_names)
        first = statements[0]
        if first.op == "+=":
            # `C[i,j] += ...` on a fresh stage is the classic reduction
            # idiom: a zero pure definition plus one update.
            func[lhs_vars] = 0.0 if dtype.name.startswith("float") else 0
        for position, statement in enumerate(statements):
            rhs = self._build_value(statement.rhs, sname, env, lhs_vars)
            if statement.op == "+=" and (position > 0 or first.op == "+="):
                rhs = BinOp("+", Access(func, lhs_vars), rhs)
            elif statement.op == "+=":
                raise ValidationError(  # pragma: no cover - unreachable
                    f"stage {sname!r}: '+=' before a pure definition"
                )
            try:
                func[lhs_vars] = rhs
            except ReproError as exc:
                raise ValidationError(
                    f"stage {sname!r} does not lower: {exc}"
                ) from None
            # Once defined, later statements may read the stage: a later
            # `C[i,j] = C[i,j] + ...` lowers as an update.
            self.built_funcs[sname] = func
        func.set_bounds(
            {env[v]: self.dims[v] for v in lhs_names}
        )

    def _build_value(
        self,
        node,
        sname: str,
        env: Dict[str, object],
        lhs_vars: Tuple[object, ...],
    ) -> Expr:
        if isinstance(node, Num):
            return Const(node.value)
        if isinstance(node, Name):
            return Const(self.params[node.id])
        if isinstance(node, Neg):
            return BinOp(
                "-",
                Const(0),
                self._build_value(node.operand, sname, env, lhs_vars),
            )
        if isinstance(node, Bin):
            return BinOp(
                node.op,
                self._build_value(node.lhs, sname, env, lhs_vars),
                self._build_value(node.rhs, sname, env, lhs_vars),
            )
        assert isinstance(node, Ref)
        where = f"access {node.name!r} in stage {sname!r}"
        if node.name == sname:
            return Access(self.built_funcs.get(sname) or self._self(sname), lhs_vars)
        if node.name in self.built_funcs:
            stage = self.built_funcs[node.name]
            indices = tuple(
                env[next(iter(_affine(ix, where)[0]))] for ix in node.indices
            )
            return Access(stage, indices)
        info = self.buffers[node.name]
        buffer = self.built_buffers[node.name]
        indices = []
        for d, index in enumerate(node.indices):
            coeffs, const = _affine(index, where)
            order: List[str] = []
            _term_order(index, order)
            indices.append(
                _rebuild_index(coeffs, const + info.shift[d], order, env)
            )
        return Access(buffer, tuple(indices))

    def _self(self, sname: str) -> Func:
        # A stage's first statement cannot read the stage: it is not in
        # ``built_funcs`` until that statement is defined.
        raise ValidationError(
            f"stage {sname!r} reads itself in its pure definition"
        )


def lower_spec(
    spec: str,
    dims: Mapping[str, int],
    *,
    dtypes: Optional[Mapping[str, str]] = None,
    params: Optional[Mapping[str, Number]] = None,
    name: Optional[str] = None,
) -> Lowered:
    """Compile one spec string into a :class:`Lowered` pipeline.

    Parameters
    ----------
    spec:
        The kernel, e.g. ``"C[i,j] += A[i,k] * B[k,j]"``; multiple
        ``;``-separated statements build multi-stage pipelines.
    dims:
        Extent of every loop variable, e.g. ``{"i": 512, "j": 512,
        "k": 512}``.  Unused entries are rejected (typo protection).
    dtypes:
        Optional element types by stage/buffer name (default
        ``float32``); see :data:`DTYPES`.
    params:
        Values for scalar parameters appearing in value positions
        (``B[i,j] = a*A[i,j] + ...`` with ``params={"a": 0.5}``).
    name:
        Pipeline name (default: the final stage's name).

    Raises :class:`~repro.util.ValidationError` on any malformed input —
    the serve layer maps these to HTTP 400 with
    ``reason="invalid_spec"``.
    """
    return _Lowering(spec, dims, dtypes, params, name).build()
