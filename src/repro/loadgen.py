"""Load generation and serving-performance measurement (``repro loadgen``).

An **open-loop** arrival process against the serve/fleet HTTP surface:
inter-arrival gaps are drawn from a seeded exponential distribution at a
target rate and every request fires at its scheduled instant whether or
not earlier ones have finished — the discipline that actually measures a
service under load (a closed loop would slow its own arrivals down to
whatever the service can absorb and hide every queueing delay).  For
the same reason, each request's latency is measured from its *scheduled*
arrival, not from when a thread got around to sending it, so
coordinated omission cannot flatter the percentiles.

The key mix is hot/cold: a ``hot_fraction`` of requests re-ask one fixed
identity (exercising coalescing and the schedule cache — these must come
back warm), the rest walk a deterministic pool of distinct
benchmark/option combinations (exercising cold searches and shard
spread).  ``corpus_family`` swaps the built-in identity pool for one
drawn from the kernel-spec corpus (:data:`repro.frontend.corpus.CORPUS`):
the family's first kernel becomes the hot identity and the remaining
kernels the cold pool, every request travelling as a ``spec`` payload —
the mix ``repro tune`` warms, so a post-tune loadgen run measures a warm
fleet.  Latency percentiles are derived from the same log-spaced
histogram the servers export (:class:`repro.serve.LatencyHistogram`), so
loadgen-side and server-side distributions are directly comparable.

``BENCH_serve.json`` is this module's committed baseline, gated by CI's
``bench-serve`` job exactly like ``BENCH_search.json``: absolute
milliseconds are informational (machine properties), while the gated
quantities are machine-independent code properties —

* ``errors`` must stay zero (every admitted request gets an answer);
* ``responses_identical`` — every response for one identity carries
  bit-identical schedules, across shards, coalescing and failover;
* ``warm_duplicate_fraction`` — repeat requests must be served without
  a search (``cache``/``coalesced``), within tolerance of the baseline.
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.client import ServeClient
from repro.serve.metrics import LatencyHistogram
from repro.serve.schema import (
    SERVED_BY,
    SERVED_BY_CACHE,
    SERVED_BY_COALESCED,
)
from repro.util.gate import floor_failures, like_with_like

#: Schema tag of BENCH_serve.json; bump on incompatible layout change.
BENCH_SERVE_FORMAT = "repro-bench-serve-v1"

#: The identity every hot request re-asks.
HOT_SPEC = ("matmul", ())
#: The cold pool: distinct identities walked round-robin (benchmark ×
#: option flips — each is a different coalesce/cache/shard key).
COLD_SPECS: Tuple[Tuple[str, Tuple[Tuple[str, bool], ...]], ...] = (
    ("syrk", ()),
    ("tpm", ()),
    ("copy", ()),
    ("matmul", (("use_nti", False),)),
    ("syrk", (("use_nti", False),)),
    ("tpm", (("vectorize", False),)),
)

__all__ = [
    "BENCH_SERVE_FORMAT",
    "GATED_QUANTITIES",
    "check_serve_regression",
    "percentiles_from_histogram",
    "run_loadgen",
]


def percentiles_from_histogram(
    snapshot: Dict, quantiles: Sequence[float] = (0.5, 0.9, 0.99)
) -> Dict[str, float]:
    """Upper-bound percentile estimates from one histogram snapshot.

    Each quantile resolves to the upper edge of the bucket containing
    it (the conservative read every fixed-bucket pipeline reports); a
    quantile landing in the overflow bucket reports the observed max.
    """
    bounds = snapshot["bounds_ms"]
    counts = snapshot["counts"]
    total = sum(counts)
    out: Dict[str, float] = {}
    for q in quantiles:
        label = f"p{q * 100:g}_ms"
        if total == 0:
            out[label] = 0.0
            continue
        target = q * total
        seen = 0
        value = float(snapshot.get("max_ms", bounds[-1]))
        for index, count in enumerate(counts):
            seen += count
            if seen >= target:
                if index < len(bounds):
                    value = float(bounds[index])
                break
        out[label] = value
    return out


def _identity_pool(corpus_family: Optional[str]):
    """The (hot, cold-pool) identity mix one run walks.

    Default: the built-in named-benchmark mix.  With ``corpus_family``:
    the family's kernels from the spec corpus, hot = the first one.
    """
    if corpus_family is None:
        return HOT_SPEC, COLD_SPECS
    from repro.frontend.corpus import CORPUS

    kernels = [k for k in CORPUS if k.family == corpus_family]
    if not kernels:
        known = sorted({k.family for k in CORPUS})
        raise ValueError(
            f"unknown corpus family {corpus_family!r}; known: {known}"
        )
    hot = (kernels[0], ())
    cold = tuple((kernel, ()) for kernel in kernels[1:]) or (hot,)
    return hot, cold


def _build_plan(
    requests: int,
    rate_rps: float,
    hot_fraction: float,
    seed: int,
    corpus_family: Optional[str] = None,
) -> List[Tuple[float, object, Dict[str, bool]]]:
    """The deterministic arrival schedule: (at_s, identity, options).

    An identity is a benchmark name or a
    :class:`~repro.frontend.corpus.CorpusKernel` (``corpus_family``
    mode).
    """
    rng = random.Random(f"repro-loadgen#{seed}")
    hot_spec, cold_specs = _identity_pool(corpus_family)
    plan = []
    at = 0.0
    cold_index = 0
    for _ in range(requests):
        at += rng.expovariate(rate_rps)
        if rng.random() < hot_fraction:
            identity, options = hot_spec
        else:
            identity, options = cold_specs[cold_index % len(cold_specs)]
            cold_index += 1
        plan.append((at, identity, dict(options)))
    return plan


def _spec_key(benchmark: str, options: Dict[str, bool]) -> str:
    return json.dumps([benchmark, sorted(options.items())])


def run_loadgen(
    *,
    host: str = "127.0.0.1",
    port: int,
    requests: int = 20,
    rate_rps: float = 2.0,
    hot_fraction: float = 0.5,
    seed: int = 0,
    platform: str = "i7-5930k",
    fast: bool = True,
    timeout_s: float = 120.0,
    retries: int = 4,
    corpus_family: Optional[str] = None,
) -> Dict:
    """Run one measured open-loop load against a serve/fleet endpoint.

    Returns the ``repro-bench-serve-v1`` payload (sans the ``target``
    block the CLI adds).  Each in-flight request gets its own
    one-shot :class:`~repro.serve.ServeClient` thread; the per-thread
    ``backoff_seed`` keeps even the retry schedules reproducible.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}"
        )
    plan = _build_plan(requests, rate_rps, hot_fraction, seed, corpus_family)
    histogram = LatencyHistogram()
    lock = threading.Lock()
    served_by_counts: Dict[str, int] = {name: 0 for name in SERVED_BY}
    schedules_by_key: Dict[str, set] = {}
    occurrences: Dict[str, int] = {}
    duplicates = 0
    warm_duplicates = 0
    errors: List[str] = []

    epoch = time.perf_counter()

    def fire(index: int, at_s: float, identity, options) -> None:
        nonlocal duplicates, warm_duplicates
        delay = epoch + at_s - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        client = ServeClient(
            host,
            port,
            timeout_s=timeout_s,
            retries=retries,
            backoff_seed=seed * 10_000 + index,
        )
        name = identity if isinstance(identity, str) else identity.name
        key = _spec_key(name, options)
        try:
            if isinstance(identity, str):
                result = client.optimize(
                    identity, platform, fast=fast, **options
                )
            else:
                kernel = identity
                result = client.optimize(
                    platform=platform,
                    fast=fast,
                    spec=kernel.spec,
                    dims=dict(kernel.fast_dims if fast else kernel.dims),
                    dtypes=(
                        None if kernel.dtypes is None else dict(kernel.dtypes)
                    ),
                    params=(
                        None if kernel.params is None else dict(kernel.params)
                    ),
                    **options,
                )
        except Exception as exc:
            with lock:
                # Latency of a failed request still counts — dropping it
                # would be coordinated omission by another name.
                histogram.observe(
                    (time.perf_counter() - epoch - at_s) * 1000.0
                )
                errors.append(f"request {index} ({name}): {exc}")
                if occurrences.get(key, 0) > 0:
                    duplicates += 1
                occurrences[key] = occurrences.get(key, 0) + 1
            return
        latency_ms = (time.perf_counter() - epoch - at_s) * 1000.0
        canonical = json.dumps(result["schedules"], sort_keys=True)
        with lock:
            histogram.observe(latency_ms)
            served = result.get("served_by", "?")
            if served in served_by_counts:
                served_by_counts[served] += 1
            schedules_by_key.setdefault(key, set()).add(canonical)
            if occurrences.get(key, 0) > 0:
                duplicates += 1
                if served in (SERVED_BY_CACHE, SERVED_BY_COALESCED):
                    warm_duplicates += 1
            occurrences[key] = occurrences.get(key, 0) + 1

    threads = [
        threading.Thread(
            target=fire,
            args=(index, at_s, benchmark, options),
            name=f"repro-loadgen-{index}",
            daemon=True,
        )
        for index, (at_s, benchmark, options) in enumerate(plan)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_ms = (time.perf_counter() - epoch) * 1000.0

    snapshot = histogram.snapshot()
    identical = all(len(v) == 1 for v in schedules_by_key.values())
    return {
        "format": BENCH_SERVE_FORMAT,
        "seed": seed,
        "requests": requests,
        "rate_rps": rate_rps,
        "hot_fraction": hot_fraction,
        "platform": platform,
        "fast": fast,
        "corpus_family": corpus_family,
        "wall_ms": round(wall_ms, 3),
        "latency_ms": {
            **snapshot,
            **percentiles_from_histogram(snapshot),
        },
        "served_by": served_by_counts,
        "distinct_keys": len(schedules_by_key),
        "duplicates": {
            "total": duplicates,
            "warm": warm_duplicates,
            "warm_duplicate_fraction": (
                round(warm_duplicates / duplicates, 4) if duplicates else 1.0
            ),
        },
        "errors": len(errors),
        "error_samples": errors[:5],
        "responses_identical": identical,
    }


# ---------------------------------------------------------------------
# Regression gate (shares repro.util.gate with repro.bench.perf)
# ---------------------------------------------------------------------

#: What the CI bench-serve gate protects.  Latency percentiles and wall
#: time are machine properties and stay informational.
GATED_QUANTITIES = ("errors", "responses_identical", "warm_duplicate_fraction")


def check_serve_regression(
    current: Dict, baseline: Dict, *, tolerance: float = 0.2
) -> List[str]:
    """Compare a fresh loadgen run against the committed baseline.

    Returns human-readable failures (empty = gate passes).  Gated:
    zero errors, cross-response schedule identity, and the
    warm-duplicate fraction within one-sided ``tolerance`` of the
    baseline's.
    """
    failures = like_with_like(
        current,
        baseline,
        ("seed", "requests", "hot_fraction"),
        "workload mismatch on {key!r}",
    )
    if failures:
        return failures
    errors = current.get("errors", -1)
    if errors != 0:
        samples = "; ".join(current.get("error_samples", [])[:2])
        failures.append(
            f"{errors} request(s) failed (must be 0): {samples or 'n/a'}"
        )
    if not current.get("responses_identical", False):
        failures.append(
            "responses for one identity are not bit-identical across "
            "shards/coalescing — determinism regression"
        )
    failures += floor_failures(
        "warm_duplicate_fraction",
        current.get("duplicates", {}).get("warm_duplicate_fraction"),
        baseline.get("duplicates", {}).get("warm_duplicate_fraction"),
        tolerance,
        consequence=" — repeat requests are re-searching",
    )
    return failures
