"""The paper's Table 4 benchmarks and six extra PolyBench kernels as spec rows.

Every benchmark is one :class:`~repro.frontend.corpus.CorpusKernel` row:
a spec in the frontend's notation, lowered by
:func:`repro.frontend.lower_spec`, so every use gets fresh ``Func``
objects.  Each row keeps its paper (``dims``) and small (``fast_dims``)
extents and maps its size keywords (``n``; ``width``, ``height``,
``channels``, ``filters``, ``batch`` and ``ksize`` for convlayer) to
loop variables.  Index conventions follow the paper's C listings: the
**last** index of every access is the contiguous dimension.

Expected classifier outcomes (asserted by the test suite):

=============  ==========  ====
benchmark      locality    NTI
=============  ==========  ====
convlayer      temporal    no   (accumulating output)
doitgen        temporal    no/yes per stage
matmul/3mm     temporal    no
gemm           temporal    no
trmm           temporal    no
syrk/syr2k     temporal    no
tpm, tp        spatial     yes
copy, mask     none        yes
2mm, atax,     temporal    no   (the extras)
bicg, mvt
jacobi2d,      none        -    (stencils)
seidel
=============  ==========  ====

Deviations from PolyBench documented here:

* **trmm** is rectangularized: the DSL has no triangular iteration domains
  (neither does Halide, which the paper used), so the access *pattern*
  matches matmul and only the op count differs by a constant factor.
* **doitgen**'s copy-back stage writes to a separate output array instead
  of in-place over ``A`` (no aliasing analysis in the simulator); traffic
  is identical.
* **seidel** is expressed Jacobi-style (reads the input plane, writes a
  fresh plane): in-place wavefront dependences are not expressible in a
  Halide-like pure DSL.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.frontend.corpus import BenchmarkCase, CorpusKernel, spec_case

__all__ = [
    "BENCHMARKS",
    "BenchmarkCase",
    "benchmark_names",
    "make_benchmark",
    "size_for",
]


def _row(
    name: str,
    family: str,
    description: str,
    spec: str,
    sizes: Dict[str, Tuple[str, ...]],
    paper: Dict[str, int],
    small: Dict[str, int],
    *,
    label: str = "{n}x{n}",
    dtypes: Optional[Dict[str, str]] = None,
    params: Optional[Dict[str, float]] = None,
) -> CorpusKernel:
    return CorpusKernel(
        name=name,
        family=family,
        description=description,
        spec=spec,
        dims=_extents(sizes, paper),
        fast_dims=_extents(sizes, small),
        dtypes=dtypes,
        params=params,
        sizes=sizes,
        label=label,
    )


def _extents(
    sizes: Mapping[str, Tuple[str, ...]], values: Mapping[str, int]
) -> Dict[str, int]:
    return {var: values[kw] for kw, names in sizes.items() for var in names}


def _n(*names: str) -> Dict[str, Tuple[str, ...]]:
    return {"n": names}


_ALPHA = {"alpha": 1.5}

#: Every benchmark: Table 4 in the paper's order, then the extras.
BENCHMARKS: Tuple[CorpusKernel, ...] = (
    _row(
        "convlayer", "table4",
        "{ksize}x{ksize}x{channels}x{filters} Convolution Layer",
        "Conv[n,f,y,x] += In[n,c,y+ky,x+kx] * W[f,c,ky,kx]",
        {"width": ("x",), "height": ("y",), "channels": ("c",),
         "filters": ("f",), "batch": ("n",), "ksize": ("ky", "kx")},
        {"width": 256, "height": 256, "channels": 64, "filters": 64,
         "batch": 16, "ksize": 3},
        {"width": 32, "height": 32, "channels": 8, "filters": 8,
         "batch": 2, "ksize": 3},
        label="{width}x{height}x{channels}x{batch}",
    ),
    _row(
        "doitgen", "table4", "Multiresolution Analysis Kernel",
        "Sum[r,q,p] += A[r,q,s] * C4[s,p]; Aout[r,q,p] = Sum[r,q,p]",
        _n("r", "q", "p", "s"), {"n": 256}, {"n": 32},
        label="{n}x{n}x{n}",
    ),
    _row(
        "matmul", "table4", "Matrix Multiplication",
        "C[i,j] += A[i,k] * B[k,j]",
        _n("i", "j", "k"), {"n": 2048}, {"n": 256},
    ),
    _row(
        "3mm", "table4",
        "Linear Algebra Kernel - three matrix multiplications",
        "E[i1,j1] += A[i1,k1] * B[k1,j1];"
        " F[i2,j2] += Cm[i2,k2] * D[k2,j2];"
        " G[i3,j3] += E[i3,k3] * F[k3,j3]",
        _n("i1", "j1", "k1", "i2", "j2", "k2", "i3", "j3", "k3"),
        {"n": 2048}, {"n": 128},
    ),
    _row(
        "gemm", "table4", "Generalized Matrix Matrix Multiplication",
        "C[i,j] = beta * Cin[i,j]; C[i,j] += alpha * A[i,k] * B[k,j]",
        _n("i", "j", "k"), {"n": 2048}, {"n": 256},
        params={"alpha": 1.5, "beta": 1.2},
    ),
    _row(
        "trmm", "table4", "In-place Triangular Matrix Matrix Multiplication",
        "B[i,j] = Bin[i,j]; B[i,j] += A[i,k] * Bin[k,j]",
        _n("i", "j", "k"), {"n": 2048}, {"n": 256},
    ),
    _row(
        "syrk", "table4", "Symmetric rank k update",
        "C[i,j] = Cin[i,j]; C[i,j] += alpha * A[i,k] * A[j,k]",
        _n("i", "j", "k"), {"n": 2048}, {"n": 256},
        params=_ALPHA,
    ),
    _row(
        "syr2k", "table4", "Symmetric rank 2k update",
        "C[i,j] = Cin[i,j];"
        " C[i,j] = C[i,j] + alpha * A[i,k] * B[j,k]"
        " + alpha * B[i,k] * A[j,k]",
        _n("i", "j", "k"), {"n": 2048}, {"n": 256},
        params=_ALPHA,
    ),
    _row(
        "tpm", "table4", "Matrix Transposition and Masking",
        "Tpm[y,x] = A[x,y] & B[y,x]",
        _n("x", "y"), {"n": 4096}, {"n": 512},
        dtypes={"Tpm": "int32", "A": "int32", "B": "int32"},
    ),
    _row(
        "tp", "table4", "Matrix Transposition",
        "Tp[y,x] = A[x,y]",
        _n("x", "y"), {"n": 4096}, {"n": 512},
        dtypes={"Tp": "int32", "A": "int32"},
    ),
    _row(
        "copy", "table4", "Array Copy",
        "Copy[y,x] = A[y,x]",
        _n("x", "y"), {"n": 4096}, {"n": 512},
        dtypes={"Copy": "int32", "A": "int32"},
    ),
    _row(
        "mask", "table4", "Array Mask",
        "Mask[y,x] = A[y,x] & B[y,x]",
        _n("x", "y"), {"n": 4096}, {"n": 512},
        dtypes={"Mask": "int32", "A": "int32", "B": "int32"},
    ),
    _row(
        "2mm", "extra", "Two chained matrix multiplications",
        "Tmp[i1,j1] += alpha * A[i1,k1] * B[k1,j1];"
        " D[i2,j2] += Tmp[i2,k2] * Cm[k2,j2]",
        _n("i1", "j1", "k1", "i2", "j2", "k2"), {"n": 1024}, {"n": 128},
        params=_ALPHA,
    ),
    _row(
        "atax", "extra", "Matrix transpose and vector multiplication",
        "TmpV[i] += A[i,j] * x[j]; y[i2] += A[j2,i2] * TmpV[j2]",
        _n("i", "j", "i2", "j2"), {"n": 2048}, {"n": 256},
    ),
    _row(
        "bicg", "extra", "BiCG sub-kernel of BiCGStab",
        "s[i] += A[k,i] * r[k]; q[i2] += A[i2,k2] * p[k2]",
        _n("i", "k", "i2", "k2"), {"n": 2048}, {"n": 256},
    ),
    _row(
        "mvt", "extra", "Matrix-vector product and transpose",
        "x1[i] = x1in[i]; x1[i] += A[i,j] * y1[j];"
        " x2[i2] = x2in[i2]; x2[i2] += A[j2,i2] * y2[j2]",
        _n("i", "j", "i2", "j2"), {"n": 2048}, {"n": 256},
    ),
    _row(
        "jacobi2d", "extra", "Jacobi 2-D five-point stencil sweep",
        "Jac[y,x] = 0.2 * (Ain[y,x] + Ain[y,x-1] + Ain[y,x+1]"
        " + Ain[y-1,x] + Ain[y+1,x])",
        _n("x", "y"), {"n": 2048}, {"n": 256},
    ),
    _row(
        "seidel", "extra", "Nine-point neighborhood average",
        "Seidel[y,x] = (Ain[y-1,x-1] + Ain[y-1,x] + Ain[y-1,x+1]"
        " + Ain[y,x-1] + Ain[y,x] + Ain[y,x+1]"
        " + Ain[y+1,x-1] + Ain[y+1,x] + Ain[y+1,x+1]) / 9.0",
        _n("x", "y"), {"n": 2048}, {"n": 256},
    ),
)

_BY_NAME: Dict[str, CorpusKernel] = {k.name: k for k in BENCHMARKS}


def benchmark_names(family: str = "table4") -> List[str]:
    """The Table 4 benchmark names in the paper's order, or those of
    the ``"extra"`` kernels."""
    return [k.name for k in BENCHMARKS if k.family == family]


def _kernel(name: str) -> CorpusKernel:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = sorted(benchmark_names()) + sorted(benchmark_names("extra"))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


def size_for(name: str, *, small: bool = False) -> Dict[str, int]:
    """A benchmark's size keywords at its paper (default) or small size."""
    kernel = _kernel(name)
    dims = kernel.fast_dims if small else kernel.dims
    return {kw: dims[names[0]] for kw, names in kernel.sizes.items()}


def make_benchmark(name: str, **sizes: int) -> BenchmarkCase:
    """Instantiate a benchmark by name, at its paper size unless
    overridden (``make_benchmark("matmul", n=256)``)."""
    kernel = _kernel(name)
    unknown = sorted(set(sizes) - set(kernel.sizes))
    if unknown:
        raise TypeError(
            f"benchmark {name!r} has no size {unknown[0]!r}; "
            f"its sizes: {list(kernel.sizes)}"
        )
    values = {**size_for(name), **sizes}
    case = spec_case(
        kernel.spec,
        _extents(kernel.sizes, values),
        dtypes=kernel.dtypes,
        params=kernel.params,
        name=name,
        description=kernel.description.format(**values),
        problem_size=kernel.label.format(**values),
    )
    if len(case.pipeline) > 1:
        # Multi-stage pipelines carry the benchmark's name; single-stage
        # ones keep their stage's.
        case.pipeline.name = name
    return case
