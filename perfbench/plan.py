"""Workload definitions and the seeded input plan of the layer-ledger bench.

Everything here is plain data plus a deterministic expansion: a workload
name and a seed go in, the list of operations the run performs comes
out.  The program under test only ever sees the generated inputs (spec
strings, extents, option overlays, arrival times), never the seed.

What the seed decides:

* the order of the kernels in every pass of an offline workload;
* the extents of one *seeded kernel* per workload, drawn from a short
  table of variants.  The seeded kernel is chosen so its host cost does
  not depend on the variant (a search-free or budget-capped kernel), so
  the seed moves the simulated results without moving the host cost;
* for ``serve``: where the cold keys sit in the stream, their order,
  each request's instant inside its arrival slot and the hot key's
  extents.

Module import does no work; the plan is built by :func:`build_plan`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

PLATFORM = "i7-5930k"

#: The workloads BENCHMARK.json names, each measured end to end.
WORKLOADS = ("search", "price", "multistride")
#: Every plan the benchmark builds: the workloads plus ``serve``, the
#: request stream the search workload's traced run sends to a fleet.
PLANS = WORKLOADS + ("serve",)

#: Simulator line budget of the ``price`` machine (the multistride
#: machine uses the classifier's own pricing budget).
PRICE_LINE_BUDGET = 20_000
MULTISTRIDE_LINE_BUDGET = 40_000

#: Per-operation latency limit of ``slo_met_frac``, per workload: about
#: twice the slowest kernel's latency.  Mirrored in the workload
#: descriptions of BENCHMARK.json.
SLO_MS = {"search": 6000.0, "price": 8000.0, "multistride": 15000.0}

#: Corpus kernels at measurement sizes with the costliest search.
SEARCH_KERNELS = (
    "conv3x3", "bmm", "attn-qk", "attn-av", "attn-chain", "ttm",
    "doitgen", "syr2k", "2mm", "depthwise3x3", "conv1x1",
)
#: Corpus kernels at measurement sizes whose search is cheap but whose
#: simulation is heavy.
PRICE_KERNELS = (
    "mxv", "matmul", "gemver", "transpose", "transpose-add", "copy2d",
    "jacobi2d", "seidel9", "mef-mxv",
)
#: The mef family at smoke sizes.
MULTISTRIDE_KERNELS = (
    "mef-mxv", "mef-mxvt", "mef-rowsum", "mef-gemver", "mef-doitgen",
    "mef-jacobi2d", "mef-conv3x3",
)

#: The seeded kernel of each workload: (corpus kernel, smoke sizes?,
#: extents of each variant).  ``search`` varies mxv, whose search takes a
#: few ms; ``price`` varies axpy, whose simulation is capped by the line
#: budget; ``multistride`` varies the rows of mef-bicg; ``serve`` varies
#: its hot key.
SEEDED: Dict[str, Tuple[str, bool, Tuple[Dict[str, int], ...]]] = {
    "search": ("mxv", False, tuple(
        {"i": 1024 + 64 * v, "k": 1024} for v in range(8))),
    "price": ("axpy", False, tuple(
        {"i": 262144 + 8192 * v} for v in range(8))),
    "multistride": ("mef-bicg", True, tuple(
        {"i": 128, "j": 128 + 8 * v, "i2": 128, "j2": 128}
        for v in range(8))),
    "serve": ("matmul", True, tuple(
        {"i": 52 + 4 * v, "j": 52 + 4 * v, "k": 48} for v in range(8))),
}

#: The serve stream's cold pool: polybench/dl kernels at smoke sizes
#: whose search takes tens of milliseconds, each under every option
#: overlay below.  Every run sends every cold key once, so the mix of
#: search costs is the same for every seed.
SERVE_COLD_KERNELS = (
    "matmul", "gemm", "syrk", "syr2k", "atax", "mvt", "2mm", "3mm",
    "doitgen", "ttm", "bmm", "conv1x1", "depthwise3x3", "attn-qk",
    "attn-av", "mlp2",
)
SERVE_OVERLAYS: Tuple[Tuple[Tuple[str, bool], ...], ...] = (
    (),
    (("use_nti", False),),
)
#: Share of requests that re-ask the hot key.  The stream spreads the
#: cold keys and the hot requests evenly over the run: at the
#: benchmark's 15 s that is 14 requests/s, and the one worker spends
#: about a sixth of the run searching.  Busier, a hot request waits
#: behind a search so often that a slower minute of the shared machine
#: doubles the median latency instead of stretching it in proportion.
SERVE_HOT_FRACTION = 0.85


@dataclass(frozen=True)
class KernelInput:
    """One kernel as the program receives it: a spec plus its extents."""

    name: str
    spec: str
    dims: Tuple[Tuple[str, int], ...]
    dtypes: Optional[Tuple[Tuple[str, str], ...]] = None
    params: Optional[Tuple[Tuple[str, float], ...]] = None
    overlay: Tuple[Tuple[str, bool], ...] = ()

    @property
    def key(self) -> str:
        """Stable identity used by the expected-output file."""
        dims = ",".join(f"{d}={v}" for d, v in self.dims)
        opts = ",".join(f"{k}={int(v)}" for k, v in self.overlay)
        return f"{self.name}[{dims}]" + (f"{{{opts}}}" if opts else "")


@dataclass(frozen=True)
class Request:
    """One serve arrival: when it is due and what it asks for."""

    due_s: float
    kernel: KernelInput
    hot: bool


@dataclass
class Plan:
    """Everything one run does, derived from (workload, seed, seconds)."""

    workload: str
    seed: int
    seconds: float
    #: Offline workloads: the kernel order of each pass, pass by pass.
    #: Passes beyond the list reuse it cyclically.
    passes: List[List[KernelInput]] = field(default_factory=list)
    #: Serve: the arrival stream.
    requests: List[Request] = field(default_factory=list)

    def kernels(self) -> List[KernelInput]:
        """Distinct kernels of the run, in first-use order."""
        seen: Dict[str, KernelInput] = {}
        for batch in self.passes:
            for kernel in batch:
                seen.setdefault(kernel.key, kernel)
        for request in self.requests:
            seen.setdefault(request.kernel.key, request.kernel)
        return list(seen.values())


def kernel_input(
    corpus_kernel,
    *,
    fast: bool,
    dims: Optional[Mapping[str, int]] = None,
    overlay: Tuple[Tuple[str, bool], ...] = (),
) -> KernelInput:
    """Freeze a :class:`repro.frontend.corpus.CorpusKernel` as an input."""
    extents = dict(corpus_kernel.fast_dims if fast else corpus_kernel.dims)
    if dims is not None:
        extents.update(dims)
    return KernelInput(
        name=corpus_kernel.name,
        spec=corpus_kernel.spec,
        dims=tuple(extents.items()),
        dtypes=(None if corpus_kernel.dtypes is None
                else tuple(corpus_kernel.dtypes.items())),
        params=(None if corpus_kernel.params is None
                else tuple(corpus_kernel.params.items())),
        overlay=tuple(overlay),
    )


def _rng(workload: str, seed: int, salt: str = "") -> random.Random:
    return random.Random(f"perfbench#{workload}#{seed}#{salt}")


def seeded_variant(workload: str, seed: int) -> int:
    """Index of the seeded kernel's extents variant for this seed."""
    variants = SEEDED[workload][2]
    return _rng(workload, seed, "variant").randrange(len(variants))


def _seeded_kernel(corpus, workload: str, seed: int) -> KernelInput:
    name, fast, variants = SEEDED[workload]
    return kernel_input(
        corpus(name), fast=fast, dims=variants[seeded_variant(workload, seed)]
    )


def offline_kernels(corpus, workload: str, seed: int) -> List[KernelInput]:
    """The kernels one pass of an offline workload optimizes."""
    if workload == "search":
        names, fast = SEARCH_KERNELS, False
    elif workload == "price":
        names, fast = PRICE_KERNELS, False
    elif workload == "multistride":
        names, fast = MULTISTRIDE_KERNELS, True
    else:
        raise ValueError(f"{workload!r} is not an offline workload")
    kernels = [kernel_input(corpus(name), fast=fast) for name in names]
    kernels.append(_seeded_kernel(corpus, workload, seed))
    return kernels


def all_kernels(corpus, workload: str) -> List[KernelInput]:
    """Every input any seed can give this workload (what
    ``record_expected.py`` records)."""
    name, fast, variants = SEEDED[workload]
    seeded = [kernel_input(corpus(name), fast=fast, dims=v) for v in variants]
    if workload == "serve":
        return [
            kernel_input(corpus(kernel), fast=True, overlay=overlay)
            for kernel in SERVE_COLD_KERNELS
            for overlay in SERVE_OVERLAYS
        ] + seeded
    return offline_kernels(corpus, workload, 0)[:-1] + seeded


#: Offline passes planned up front; a run that needs more cycles them.
MAX_PASSES = 16


def build_plan(corpus, workload: str, seed: int, seconds: float) -> Plan:
    """Expand (workload, seed, seconds) into the run's inputs.

    ``corpus`` maps a kernel name to its
    :class:`~repro.frontend.corpus.CorpusKernel`
    (:func:`repro.frontend.corpus.corpus_kernel`); it is a parameter so
    this module stays importable without the program.
    """
    if workload not in PLANS:
        raise ValueError(
            f"unknown workload {workload!r}; known: {', '.join(PLANS)}"
        )
    if seconds <= 0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    plan = Plan(workload=workload, seed=seed, seconds=float(seconds))
    if workload != "serve":
        kernels = offline_kernels(corpus, workload, seed)
        for index in range(MAX_PASSES):
            order = list(kernels)
            _rng(workload, seed, f"pass{index}").shuffle(order)
            plan.passes.append(order)
        return plan

    rng = _rng(workload, seed, "stream")
    cold = [
        kernel_input(corpus(name), fast=True, overlay=overlay)
        for name in SERVE_COLD_KERNELS
        for overlay in SERVE_OVERLAYS
    ]
    rng.shuffle(cold)
    hot = _seeded_kernel(corpus, workload, seed)
    total = int(round(len(cold) / (1.0 - SERVE_HOT_FRACTION)))
    # Cold keys sit evenly among the hot ones (a seeded phase), and each
    # request is due at a seeded instant inside its own slot of a
    # constant-rate schedule: open loop, and every seed offers the same
    # load without the bursts that make one seed's queue unlike another's.
    phase = rng.random()
    cold_slots = {int((k + phase) * total / len(cold)) for k in range(len(cold))}
    slot_s = seconds / total
    cold_iter = iter(cold)
    for slot in range(total):
        is_hot = slot not in cold_slots
        plan.requests.append(Request(
            due_s=(slot + rng.random()) * slot_s,
            kernel=hot if is_hot else next(cold_iter),
            hot=is_hot,
        ))
    return plan
