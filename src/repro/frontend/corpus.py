"""The generated kernel corpus: the workload ring beyond Table 4.

Every kernel is *one spec string* — the same notation `repro.api`, the
CLI and the serve wire format accept — plus its extents, so the corpus
doubles as a conformance suite for the frontend: the committed golden
manifest (``benchmarks/corpus_manifest.json``) pins every kernel's
per-stage fingerprints and classification, and CI fails on any lowering
or classifier drift.

Four families:

* **polybench** — PolyBench kernels beyond the Table 4 suite (bicg,
  atax, mvt, gemver, gesummv, doitgen, 2mm/3mm, jacobi-1d/2d, seidel...);
* **dl** — DL-shaped ops (batched matmul, convolutions with channels,
  depthwise, attention-shaped chains, a 2-layer MLP);
* **micro** — streaming/transposition micro-kernels that pin the
  classifier's SPATIAL/NONE boundaries;
* **mef** — the multi-striding evaluation family (Blom et al.): long
  streaming reductions, column-major walks, stencils and convolutions
  sized so the three-way strategy classifier
  (:mod:`repro.multistride.strategy`) has something real to decide —
  its sweep (:mod:`repro.experiments.mef`) shows every verdict (tile /
  multistride / combined) at least once.

Sizing: ``dims`` are the measurement sizes (modest — the corpus trades
per-kernel size for breadth); ``fast_dims`` are the smoke sizes used by
``--fast`` runs and CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.frontend.lowering import Lowered, lower_spec
from repro.ir.func import Func, Pipeline

__all__ = [
    "BenchmarkCase",
    "CORPUS",
    "CorpusKernel",
    "MANIFEST_FORMAT",
    "corpus_case",
    "corpus_kernel",
    "corpus_manifest",
    "corpus_names",
    "spec_case",
]

#: Format tag of the committed golden manifest.
MANIFEST_FORMAT = "repro-frontend-corpus-v1"

Number = Union[int, float]


@dataclass
class BenchmarkCase:
    """One runnable benchmark: a pipeline plus metadata."""

    name: str
    description: str
    pipeline: Pipeline
    problem_size: str

    @property
    def funcs(self) -> List[Func]:
        return list(self.pipeline)

    @property
    def output(self) -> Func:
        return self.pipeline.output

    def __repr__(self) -> str:
        return f"BenchmarkCase({self.name}, {self.problem_size})"


def spec_case(
    spec: str,
    dims: Mapping[str, int],
    *,
    dtypes: Optional[Mapping[str, str]] = None,
    params: Optional[Mapping[str, Number]] = None,
    pipeline: Optional[str] = None,
    name: Optional[str] = None,
    description: str = "kernel spec",
    problem_size: Optional[str] = None,
) -> BenchmarkCase:
    """Lower one spec into a fresh :class:`BenchmarkCase`.

    ``pipeline`` names the pipeline (default: its final stage), ``name``
    the case (default: the pipeline's name) and ``problem_size``
    defaults to the extents joined by ``x``.  A spec that does not lower
    raises :class:`~repro.util.ValidationError`.
    """
    lowered = lower_spec(
        spec, dims, dtypes=dtypes, params=params, name=pipeline
    )
    return BenchmarkCase(
        name=name or lowered.name,
        description=description,
        pipeline=lowered.pipeline,
        problem_size=problem_size
        or "x".join(str(v) for v in lowered.dims.values()),
    )


@dataclass(frozen=True)
class CorpusKernel:
    """One kernel row: a spec plus everything needed to lower it.

    Corpus rows are lowered at ``dims`` (measurement) or ``fast_dims``
    (smoke) extents.  Benchmark-suite rows (:mod:`repro.bench.suite`)
    hold their paper and small sizes there and add ``sizes``, which maps
    each ``make_benchmark`` size keyword to the loop variables it sets,
    and ``label``, the ``problem_size`` template over those keywords.
    """

    name: str
    family: str  # "polybench" | "dl" | "micro" | "mef" | "table4" | "extra"
    description: str
    spec: str
    dims: Mapping[str, int]
    fast_dims: Mapping[str, int]
    dtypes: Optional[Mapping[str, str]] = None
    params: Optional[Mapping[str, Number]] = None
    sizes: Optional[Mapping[str, Tuple[str, ...]]] = None
    label: Optional[str] = None

    def lower(self, *, fast: bool = False) -> Lowered:
        """Lower at measurement (default) or smoke (``fast``) sizes."""
        return lower_spec(
            self.spec,
            self.fast_dims if fast else self.dims,
            dtypes=self.dtypes,
            params=self.params,
            name=self.name,
        )

    def case(self, *, fast: bool = False) -> BenchmarkCase:
        """The kernel as a :class:`BenchmarkCase`."""
        return spec_case(
            self.spec,
            self.fast_dims if fast else self.dims,
            dtypes=self.dtypes,
            params=self.params,
            pipeline=self.name,
            description=f"[{self.family}] {self.description}",
        )


def _k(
    name: str,
    family: str,
    description: str,
    spec: str,
    dims: Dict[str, int],
    fast_dims: Dict[str, int],
    dtypes: Optional[Dict[str, str]] = None,
    params: Optional[Dict[str, Number]] = None,
) -> CorpusKernel:
    return CorpusKernel(
        name=name,
        family=family,
        description=description,
        spec=spec,
        dims=dims,
        fast_dims=fast_dims,
        dtypes=dtypes,
        params=params,
    )


def _square(n: int, *names: str) -> Dict[str, int]:
    return {name: n for name in names}


#: The corpus, in presentation order (stable: the manifest and the
#: win/loss table iterate this list).
CORPUS: Tuple[CorpusKernel, ...] = (
    # ---- polybench: linear algebra (temporal reuse) -------------------
    _k(
        "mxv", "polybench", "matrix-vector product",
        "y[i] += A[i,k] * x[k]",
        _square(1024, "i", "k"), _square(96, "i", "k"),
    ),
    _k(
        "matmul", "polybench", "square matrix product (hand-written twin)",
        "C[i,j] += A[i,k] * B[k,j]",
        _square(256, "i", "j", "k"), _square(48, "i", "j", "k"),
    ),
    _k(
        "gemm", "polybench", "C = beta*C + alpha*A.B",
        "C[i,j] = beta * Cin[i,j]; C[i,j] += alpha * A[i,k] * B[k,j]",
        _square(256, "i", "j", "k"), _square(48, "i", "j", "k"),
        params={"alpha": 1.5, "beta": 1.2},
    ),
    _k(
        "syrk", "polybench", "symmetric rank-k update",
        "C[i,j] += A[i,k] * A[j,k]",
        _square(256, "i", "j", "k"), _square(48, "i", "j", "k"),
    ),
    _k(
        "syr2k", "polybench", "symmetric rank-2k update",
        "C[i,j] += A[i,k] * B[j,k] + B[i,k] * A[j,k]",
        _square(192, "i", "j", "k"), _square(48, "i", "j", "k"),
    ),
    _k(
        "gesummv", "polybench", "scalar, vector and matrix multiplication",
        "y[i] += alpha * A[i,j] * x[j] + beta * B[i,j] * x[j]",
        _square(768, "i", "j"), _square(96, "i", "j"),
        params={"alpha": 1.5, "beta": 1.2},
    ),
    _k(
        "atax", "polybench", "A^T times A times x",
        "T[i] += A[i,j] * x[j]; y[j2] += A[i2,j2] * T[i2]",
        _square(768, "i", "j", "i2", "j2"),
        _square(96, "i", "j", "i2", "j2"),
    ),
    _k(
        "bicg", "polybench", "BiCG sub-kernel of BiCGStab",
        "s[j] += A[i,j] * r[i]; q[i2] += A[i2,j2] * p[j2]",
        _square(768, "i", "j", "i2", "j2"),
        _square(96, "i", "j", "i2", "j2"),
    ),
    _k(
        "mvt", "polybench", "matrix-vector product and transpose",
        "x1[i] += A[i,j] * y1[j]; x2[i2] += A[j2,i2] * y2[j2]",
        _square(768, "i", "j", "i2", "j2"),
        _square(96, "i", "j", "i2", "j2"),
    ),
    _k(
        "gemver", "polybench", "rank-2 update then matrix-vector product",
        "Ah[i,j] = A[i,j] + u1[i] * v1[j] + u2[i] * v2[j];"
        " w[i2] += alpha * Ah[i2,j2] * x[j2]",
        _square(512, "i", "j", "i2", "j2"),
        _square(64, "i", "j", "i2", "j2"),
        params={"alpha": 1.5},
    ),
    _k(
        "2mm", "polybench", "two chained matrix products",
        "T[i,j] += alpha * A[i,k] * B[k,j];"
        " D[i2,j2] += T[i2,k2] * C[k2,j2]",
        _square(160, "i", "j", "k", "i2", "j2", "k2"),
        _square(32, "i", "j", "k", "i2", "j2", "k2"),
        params={"alpha": 1.5},
    ),
    _k(
        "3mm", "polybench", "three chained matrix products",
        "E[i,j] += A[i,k] * B[k,j]; F[j,l] += C[j,m] * D[m,l];"
        " G[i2,l2] += E[i2,j2] * F[j2,l2]",
        _square(128, "i", "j", "k", "l", "m", "i2", "j2", "l2"),
        _square(32, "i", "j", "k", "l", "m", "i2", "j2", "l2"),
    ),
    _k(
        "doitgen", "polybench", "multi-resolution analysis kernel",
        "Acc[r,q,p] += A[r,q,s] * C4[s,p];"
        " Out[r2,q2,p2] = Acc[r2,q2,p2]",
        {"r": 64, "q": 64, "p": 64, "s": 64,
         "r2": 64, "q2": 64, "p2": 64},
        {"r": 16, "q": 16, "p": 16, "s": 16,
         "r2": 16, "q2": 16, "p2": 16},
    ),
    _k(
        "ttm", "polybench", "tensor-times-matrix contraction",
        "Y[i,j,l] += X[i,j,k] * M[k,l]",
        {"i": 64, "j": 64, "k": 128, "l": 128},
        {"i": 12, "j": 12, "k": 32, "l": 32},
    ),
    # ---- dl: batched / channelled shapes (temporal reuse) -------------
    _k(
        "bmm", "dl", "batched matrix product",
        "C[b,i,j] += A[b,i,k] * B[b,k,j]",
        {"b": 16, "i": 96, "j": 96, "k": 96},
        {"b": 4, "i": 32, "j": 32, "k": 32},
    ),
    _k(
        "bmxv", "dl", "batched matrix-vector product",
        "y[b,i] += A[b,i,k] * x[b,k]",
        {"b": 32, "i": 256, "k": 256},
        {"b": 4, "i": 48, "k": 48},
    ),
    _k(
        "conv3x3", "dl", "3x3 convolution with input/output channels",
        "Out[f,y,x] += In[c,y+ky,x+kx] * W[f,c,ky,kx]",
        {"f": 32, "c": 32, "y": 28, "x": 28, "ky": 3, "kx": 3},
        {"f": 8, "c": 8, "y": 14, "x": 14, "ky": 3, "kx": 3},
    ),
    _k(
        "conv1x1", "dl", "pointwise (1x1) convolution",
        "Out[f,y,x] += In[c,y,x] * W[f,c]",
        {"f": 64, "c": 64, "y": 28, "x": 28},
        {"f": 16, "c": 16, "y": 14, "x": 14},
    ),
    _k(
        "depthwise3x3", "dl", "depthwise 3x3 convolution",
        "Out[c,y,x] += In[c,y+ky,x+kx] * W[c,ky,kx]",
        {"c": 64, "y": 28, "x": 28, "ky": 3, "kx": 3},
        {"c": 16, "y": 14, "x": 14, "ky": 3, "kx": 3},
    ),
    _k(
        "attn-qk", "dl", "attention scores: Q.K^T per batch",
        "S[b,i,j] += Q[b,i,d] * K[b,j,d]",
        {"b": 8, "i": 96, "j": 96, "d": 64},
        {"b": 2, "i": 32, "j": 32, "d": 16},
    ),
    _k(
        "attn-av", "dl", "attention values: P.V per batch",
        "O[b,i,d] += P[b,i,j] * V[b,j,d]",
        {"b": 8, "i": 96, "j": 96, "d": 64},
        {"b": 2, "i": 32, "j": 32, "d": 16},
    ),
    _k(
        "attn-chain", "dl", "attention-shaped chain: scores then values",
        "S[b,i,j] += Q[b,i,d] * K[b,j,d];"
        " O[b2,i2,d2] += S[b2,i2,j2] * V[b2,j2,d2]",
        {"b": 8, "i": 64, "j": 64, "d": 48,
         "b2": 8, "i2": 64, "j2": 64, "d2": 48},
        {"b": 2, "i": 24, "j": 24, "d": 12,
         "b2": 2, "i2": 24, "j2": 24, "d2": 12},
    ),
    _k(
        "mlp2", "dl", "two dense layers (no nonlinearity)",
        "H[i,j] += X[i,k] * W1[k,j]; Y[i2,l] += H[i2,j2] * W2[j2,l]",
        {"i": 128, "j": 128, "k": 128, "i2": 128, "j2": 128, "l": 128},
        {"i": 32, "j": 32, "k": 32, "i2": 32, "j2": 32, "l": 32},
    ),
    # ---- micro: transposed inputs (spatial reuse) ---------------------
    _k(
        "transpose", "micro", "out-of-place transposition",
        "B[i,j] = A[j,i]",
        _square(1024, "i", "j"), _square(96, "i", "j"),
    ),
    _k(
        "transpose-bitmask", "micro",
        "elementwise AND against a transposed operand (int32)",
        "C[x,y] = A[x,y] & B[y,x]",
        _square(1024, "x", "y"), _square(96, "x", "y"),
        dtypes={"C": "int32", "A": "int32", "B": "int32"},
    ),
    _k(
        "transpose-add", "micro", "add a transposed operand",
        "C[i,j] = A[i,j] + B[j,i]",
        _square(1024, "i", "j"), _square(96, "i", "j"),
    ),
    _k(
        "transpose-scale", "micro", "scaled transposition",
        "B[i,j] = 2.0 * A[j,i]",
        _square(1024, "i", "j"), _square(96, "i", "j"),
    ),
    # ---- micro + polybench stencils: streaming (no transformation) ----
    _k(
        "copy2d", "micro", "plane copy",
        "B[i,j] = A[i,j]",
        _square(1024, "i", "j"), _square(96, "i", "j"),
    ),
    _k(
        "axpy", "micro", "scaled vector addition",
        "y[i] = a * x[i] + y0[i]",
        {"i": 262144}, {"i": 4096},
        params={"a": 2.5},
    ),
    _k(
        "scale2d", "micro", "uniform scaling",
        "B[i,j] = 3.0 * A[i,j]",
        _square(1024, "i", "j"), _square(96, "i", "j"),
    ),
    _k(
        "jacobi1d", "polybench", "3-point Jacobi smoothing",
        "B[i] = 0.33333 * (A[i-1] + A[i] + A[i+1])",
        {"i": 262144}, {"i": 4096},
    ),
    _k(
        "jacobi2d", "polybench",
        "5-point Jacobi stencil (hand-written twin)",
        "Jac[y,x] = 0.2 * (Ain[y,x] + Ain[y,x-1] + Ain[y,x+1]"
        " + Ain[y-1,x] + Ain[y+1,x])",
        _square(512, "x", "y"), _square(64, "x", "y"),
    ),
    _k(
        "seidel9", "polybench", "9-point box smoothing",
        "B[y,x] = (A[y-1,x-1] + A[y-1,x] + A[y-1,x+1]"
        " + A[y,x-1] + A[y,x] + A[y,x+1]"
        " + A[y+1,x-1] + A[y+1,x] + A[y+1,x+1]) / 9.0",
        _square(512, "x", "y"), _square(64, "x", "y"),
    ),
    _k(
        "stencil5w", "micro",
        "weighted 5-point stencil (the spec-language example)",
        "B[i,j] = a*A[i,j] + b*(A[i-1,j]+A[i+1,j]+A[i,j-1]+A[i,j+1])",
        _square(512, "i", "j"), _square(64, "i", "j"),
        params={"a": 0.5, "b": 0.125},
    ),
    _k(
        "blur1d3", "micro", "horizontal 3-tap blur",
        "B[y,x] = 0.25 * A[y,x-1] + 0.5 * A[y,x] + 0.25 * A[y,x+1]",
        _square(512, "x", "y"), _square(64, "x", "y"),
    ),
    # ---- mef: multi-striding evaluation family (Blom et al.) ----------
    # Sized so one vectorized stream cannot hide the prefetch latency
    # (long contiguous reduction axes) — the regime where interleaved
    # sub-streams pay — alongside shapes where they cannot (stencils
    # whose engines a split would thrash, nests with no serial stream
    # loop left).  The three-strategy table over this family is
    # regenerated by ``python -m repro.experiments.mef``.
    _k(
        "mef-mxv", "mef", "matrix-vector product, long reduction rows",
        "y[i] += A[i,k] * x[k]",
        {"i": 2048, "k": 8192}, {"i": 128, "k": 512},
    ),
    _k(
        "mef-mxvt", "mef",
        "transposed matrix-vector product (column-major walk)",
        "z[j] += A[i,j] * w[i]",
        {"i": 4096, "j": 4096}, {"i": 256, "j": 256},
    ),
    _k(
        "mef-rowsum", "mef", "row-wise reduction over a wide matrix",
        "acc[i] += A[i,k]",
        {"i": 2048, "k": 16384}, {"i": 128, "k": 1024},
    ),
    _k(
        "mef-bicg", "mef", "BiCG sub-kernel at multi-striding sizes",
        "s[j] += A[i,j] * r[i]; q[i2] += A[i2,j2] * p[j2]",
        _square(2048, "i", "j", "i2", "j2"),
        _square(128, "i", "j", "i2", "j2"),
    ),
    _k(
        "mef-gemver", "mef",
        "rank-2 update then matrix-vector product, multi-striding sizes",
        "Ah[i,j] = A[i,j] + u1[i] * v1[j] + u2[i] * v2[j];"
        " w[i2] += alpha * Ah[i2,j2] * x[j2]",
        _square(2048, "i", "j", "i2", "j2"),
        _square(128, "i", "j", "i2", "j2"),
        params={"alpha": 1.5},
    ),
    _k(
        "mef-doitgen", "mef",
        "multi-resolution contraction (temporal reuse keeps tiling ahead)",
        "Acc[r,q,p] += A[r,q,s] * C4[s,p]",
        _square(64, "r", "q", "p", "s"),
        _square(16, "r", "q", "p", "s"),
    ),
    _k(
        "mef-jacobi2d", "mef",
        "5-point Jacobi stencil with very long rows",
        "Jac[y,x] = 0.2 * (Ain[y,x] + Ain[y,x-1] + Ain[y,x+1]"
        " + Ain[y-1,x] + Ain[y+1,x])",
        {"x": 8192, "y": 512}, {"x": 512, "y": 64},
    ),
    _k(
        "mef-conv3x3", "mef",
        "3x3 convolution with long rows (engine pool already saturated)",
        "Out[f,y,x] += In[c,y+ky,x+kx] * W[f,c,ky,kx]",
        {"f": 16, "c": 16, "y": 64, "x": 2048, "ky": 3, "kx": 3},
        {"f": 4, "c": 4, "y": 16, "x": 256, "ky": 3, "kx": 3},
    ),
)

_BY_NAME: Dict[str, CorpusKernel] = {k.name: k for k in CORPUS}
assert len(_BY_NAME) == len(CORPUS), "duplicate corpus kernel name"


def corpus_names() -> List[str]:
    """Kernel names in corpus order."""
    return [k.name for k in CORPUS]


def corpus_kernel(name: str) -> CorpusKernel:
    """Look one kernel up by name (KeyError message lists the corpus)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown corpus kernel {name!r}; known: {corpus_names()}"
        ) from None


def corpus_case(name: str, *, fast: bool = False) -> BenchmarkCase:
    """Lower one corpus kernel into a :class:`BenchmarkCase`."""
    return corpus_kernel(name).case(fast=fast)


def corpus_manifest() -> Dict:
    """The golden manifest: per-kernel stage fingerprints at measurement
    sizes, plus the classifier's verdict per stage.

    Committed as ``benchmarks/corpus_manifest.json``; CI regenerates it
    and fails on any drift (lowering change, fingerprint change, or
    classification change are all API breaks for the serve layer, which
    coalesces and shards on exactly these hashes).
    """
    from repro.core.classify import classify

    kernels = {}
    for kernel in CORPUS:
        lowered = kernel.lower()
        stages = []
        for func, fingerprint in zip(lowered.funcs, lowered.fingerprints):
            verdict = classify(func)
            stages.append(
                {
                    "stage": func.name,
                    "fingerprint": fingerprint,
                    "locality": verdict.locality.value,
                    "use_nti": verdict.use_nti,
                }
            )
        kernels[kernel.name] = {
            "family": kernel.family,
            "dims": dict(kernel.dims),
            "stages": stages,
        }
    return {"format": MANIFEST_FORMAT, "kernels": kernels}
