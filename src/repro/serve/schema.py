"""The ``repro-serve-v1``/``v1.1`` wire schema: requests, results,
errors, metrics.

Everything the optimization service speaks is versioned JSON.  One
request names a benchmark (the service builds the Funcs server-side from
:mod:`repro.bench`, so the wire never carries executable code), the
platform, and exactly the optimizer options that are part of the
schedule-cache key (:meth:`repro.options.OptimizeOptions.cache_dict`)::

    {"format": "repro-serve-v1", "benchmark": "matmul", "fast": true,
     "platform": "i7-5930k", "options": {"use_nti": true, ...},
     "deadline_ms": 2000.0}

``repro-serve-v1.1`` adds the kernel spec language as a first-class
target: instead of ``benchmark``, a request may carry a ``spec`` string
plus its ``dims`` (and optional ``dtypes``/``params``), lowered
server-side by :mod:`repro.frontend`::

    {"format": "repro-serve-v1.1", "spec": "C[i,j] += A[i,k] * B[k,j]",
     "dims": {"i": 512, "j": 512, "k": 512}, "platform": "i7-5930k"}

Exactly one of ``benchmark`` / ``spec`` is required in a v1.1 body
(v1 bodies are unchanged byte-for-byte — same fields, same defaults,
same rejections).  Responses to v1.1 requests echo
``"schema_version": "1.1"`` plus the request's spec/dims; responses to
v1 requests are bit-identical to what a v1-only server produced.
Because :mod:`repro.serve.identify` fingerprints the *lowered* Func,
spec- and benchmark-submissions of the same kernel coalesce, cache-hit
and shard together.

``jobs`` is a documented no-op kept for wire compatibility: both formats
accept it (an integer ``>= 0`` or ``"auto"``; anything else is a 400)
and ignore its value.  Since 3.0 the client no longer sends it; a 2.x
client's ``"jobs": 1`` gets the same response as a body without it.

One result carries the serialized schedule of every pipeline stage
(:func:`repro.ir.serialize.schedule_to_dict` — replayable on any machine
with :func:`repro.ir.serialize.schedule_from_dict`), the coalescing key
the server computed from the :mod:`repro.cache.fingerprint` hashes, and
``served_by`` — how the response was produced:

* ``search`` — this request ran the Algorithm 2/3 searches;
* ``cache`` — every stage replayed from the persistent
  :class:`repro.cache.ScheduleCache` without searching;
* ``coalesced`` — an identical request was already in flight and this
  one shared its computation.

Error responses are ``{"format": ..., "kind": "error", "status": <int>,
"error": "<friendly message>"}`` with the HTTP status mirrored in the
body, and 429/503 responses carry a ``Retry-After`` header (echoed as
``retry_after_s``) so clients can back off deterministically.

The ``/metrics`` endpoint returns a ``repro-serve-metrics-v1`` snapshot;
:func:`validate_metrics` is the machine-checkable contract CI's
serve-smoke job holds the server to.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cache.fingerprint import options_fingerprint
from repro.options import OPTION_KEYS, OptimizeOptions
from repro.util import ServeError, resolve_workers

#: Request/response schema tag; bump on any incompatible layout change.
SERVE_FORMAT = "repro-serve-v1"
#: The v1.1 extension: spec-string targets; v1 bodies stay byte-valid.
SERVE_FORMAT_V11 = "repro-serve-v1.1"
#: Every format a server accepts, oldest first.
SERVE_FORMATS = (SERVE_FORMAT, SERVE_FORMAT_V11)
#: The ``schema_version`` echoed in responses to v1.1 requests.
SCHEMA_VERSION_V11 = "1.1"
#: Metrics snapshot schema tag, versioned independently of the wire.
METRICS_FORMAT = "repro-serve-metrics-v1"

#: The ways a response can be produced (see module docstring).
#: ``failover`` is applied by the fleet router, never by a worker: it
#: marks a response computed by the deterministic sibling shard because
#: the key's home shard was down/draining (:mod:`repro.fleet`).
SERVED_BY_SEARCH = "search"
SERVED_BY_CACHE = "cache"
SERVED_BY_COALESCED = "coalesced"
SERVED_BY_FAILOVER = "failover"
SERVED_BY = (
    SERVED_BY_SEARCH,
    SERVED_BY_CACHE,
    SERVED_BY_COALESCED,
    SERVED_BY_FAILOVER,
)
#: What a worker itself may claim (the router adds ``failover``).
WORKER_SERVED_BY = (SERVED_BY_SEARCH, SERVED_BY_CACHE, SERVED_BY_COALESCED)

#: Machine-readable ``reason`` tags an error response may carry (the
#: human-facing ``error`` message stays free-form).  ``deadline_expired``
#: marks a 504 whose end-to-end budget ran out — at a worker's
#: admission gate, mid-search, or at the router between failover legs;
#: ``deadline_exhausted`` is the client-side cousin attached to a
#: :class:`~repro.util.ServeOverloaded` when the caller's own budget
#: forbids another retry.
REASON_DEADLINE_EXPIRED = "deadline_expired"
REASON_DEADLINE_EXHAUSTED = "deadline_exhausted"
#: A 400 whose spec failed to lower (parse error, non-affine index,
#: missing dims...) — :class:`~repro.util.ValidationError` territory,
#: never a 500 from the worker.
REASON_INVALID_SPEC = "invalid_spec"

#: Counter names every metrics snapshot must carry (all >= 0 integers).
METRIC_COUNTERS = (
    "requests_total",
    "responses_ok",
    "responses_error",
    "shed",
    "coalesced",
    "cache_hits",
    "cache_misses",
    "searches",
    "deadline_expired",
    "faults_injected",
)

__all__ = [
    "METRICS_FORMAT",
    "METRIC_COUNTERS",
    "OPTION_KEYS",
    "REASON_DEADLINE_EXHAUSTED",
    "REASON_DEADLINE_EXPIRED",
    "REASON_INVALID_SPEC",
    "SCHEMA_VERSION_V11",
    "SERVED_BY",
    "SERVED_BY_CACHE",
    "SERVED_BY_COALESCED",
    "SERVED_BY_FAILOVER",
    "SERVED_BY_SEARCH",
    "SERVE_FORMAT",
    "SERVE_FORMATS",
    "SERVE_FORMAT_V11",
    "WORKER_SERVED_BY",
    "ServeRequest",
    "build_request",
    "coalesce_key",
    "error_payload",
    "healthz_payload",
    "parse_request",
    "render_for",
    "result_payload",
    "validate_healthz",
    "validate_metrics",
]


@dataclass(frozen=True)
class ServeRequest:
    """One parsed, validated optimization request.

    ``options`` is always the complete canonical dict
    (:meth:`repro.options.OptimizeOptions.cache_dict` of the request's
    switches), so fingerprints computed from it match the persistent
    cache's.

    The target is either a ``benchmark`` name (both formats) or, for
    ``repro-serve-v1.1``, a kernel ``spec`` string with its ``dims``
    (plus optional ``dtypes``/``params``) — exactly one of the two.
    ``format`` records which wire format the request arrived in, so the
    server can render the response in kind.
    """

    benchmark: Optional[str] = None
    platform: str = ""
    fast: bool = False
    options: Dict[str, bool] = field(
        default_factory=lambda: OptimizeOptions().cache_dict()
    )
    deadline_ms: Optional[float] = None
    format: str = SERVE_FORMAT
    spec: Optional[str] = None
    dims: Optional[Mapping[str, int]] = None
    dtypes: Optional[Mapping[str, str]] = None
    params: Optional[Mapping[str, Union[int, float]]] = None

    @property
    def label(self) -> str:
        """Attribution name: the benchmark, or ``spec:<output>`` for a
        spec target (used in traces, metrics and error bodies)."""
        if self.benchmark is not None:
            return self.benchmark
        match = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)", self.spec or "")
        return f"spec:{match.group(1) if match else '?'}"

    def to_dict(self) -> Dict:
        payload = {"format": self.format}
        if self.benchmark is not None:
            payload["benchmark"] = self.benchmark
        if self.spec is not None:
            payload["spec"] = self.spec
            payload["dims"] = dict(self.dims or {})
            if self.dtypes:
                payload["dtypes"] = dict(self.dtypes)
            if self.params:
                payload["params"] = dict(self.params)
        payload.update(
            platform=self.platform,
            fast=self.fast,
            options=dict(self.options),
        )
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload


def build_request(
    benchmark: Optional[str] = None,
    platform: str = "",
    *,
    fast: bool = False,
    deadline_ms: Optional[float] = None,
    spec: Optional[str] = None,
    dims: Optional[Mapping[str, int]] = None,
    dtypes: Optional[Mapping[str, str]] = None,
    params: Optional[Mapping[str, Union[int, float]]] = None,
    **options,
) -> Dict:
    """Client-side sugar: a wire-ready request dict with defaults filled.

    ``options`` accepts exactly the :data:`OPTION_KEYS` switches
    (``use_nti=False`` and friends), parsed by
    :meth:`~repro.options.OptimizeOptions.from_dict`; anything else is
    rejected here, with the server's 400 text, before a round-trip to
    the server can bounce it.

    A ``benchmark`` target produces a ``repro-serve-v1`` body —
    byte-identical to what pre-v1.1 clients sent; a ``spec`` target
    (with ``dims``, optional ``dtypes``/``params``) produces a
    ``repro-serve-v1.1`` body.  Exactly one of the two is required.
    """
    try:
        canonical = OptimizeOptions.from_dict(options).cache_dict()
    except ValueError as exc:
        raise ServeError(str(exc)) from None
    if (benchmark is None) == (spec is None):
        raise ServeError(
            "a request needs exactly one of benchmark= or spec="
        )
    if benchmark is not None and (
        dims is not None or dtypes is not None or params is not None
    ):
        raise ServeError(
            "dims=/dtypes=/params= are only meaningful with spec="
        )
    if spec is not None and dims is None:
        raise ServeError(
            "spec= needs dims= (loop extents, e.g. "
            "{'i': 512, 'j': 512, 'k': 512})"
        )
    return ServeRequest(
        benchmark=benchmark,
        platform=platform,
        fast=bool(fast),
        options=canonical,
        deadline_ms=deadline_ms,
        format=SERVE_FORMAT if spec is None else SERVE_FORMAT_V11,
        spec=spec,
        dims=dict(dims) if dims is not None else None,
        dtypes=dict(dtypes) if dtypes is not None else None,
        params=dict(params) if params is not None else None,
    ).to_dict()


def _require(payload: Dict, key: str, kind, kindname: str):
    value = payload.get(key)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ServeError(
            f"request field {key!r} must be a {kindname}, got {value!r}"
        )
    return value


def parse_request(payload) -> ServeRequest:
    """Validate one wire payload into a :class:`ServeRequest`.

    Raises :class:`~repro.util.ServeError` with a friendly,
    actionable message on any violation — the server maps these
    straight to 400 responses.

    Both :data:`SERVE_FORMATS` are accepted; a ``repro-serve-v1`` body
    is validated exactly as a v1-only server validated it (same fields,
    same defaults, same rejections — ``spec`` is an unknown field
    there), and ``repro-serve-v1.1`` additionally accepts the
    spec-target fields.
    """
    if not isinstance(payload, dict):
        raise ServeError(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    fmt = payload.get("format")
    if fmt not in SERVE_FORMATS:
        raise ServeError(
            f"unsupported request format {fmt!r} "
            f"(this server speaks {SERVE_FORMAT!r})"
        )
    known = {
        "format",
        "benchmark",
        "platform",
        "fast",
        "options",
        "jobs",
        "deadline_ms",
    }
    if fmt == SERVE_FORMAT_V11:
        known |= {"spec", "dims", "dtypes", "params"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ServeError(
            f"unknown request field(s) {unknown}; known: {sorted(known)}"
        )
    spec = dims = dtypes = params = None
    if fmt == SERVE_FORMAT_V11:
        benchmark = payload.get("benchmark")
        spec = payload.get("spec")
        if (benchmark is None) == (spec is None):
            raise ServeError(
                f"a {SERVE_FORMAT_V11} request needs exactly one of "
                f"'benchmark' or 'spec'"
            )
        if benchmark is not None:
            benchmark = _require(payload, "benchmark", str, "string")
            for key in ("dims", "dtypes", "params"):
                if payload.get(key) is not None:
                    raise ServeError(
                        f"request field {key!r} is only meaningful "
                        f"with 'spec'"
                    )
        else:
            spec = _require(payload, "spec", str, "string")
            dims = _require(payload, "dims", dict, "object")
            for key, value in dims.items():
                if (
                    isinstance(value, bool)
                    or not isinstance(value, int)
                    or value <= 0
                ):
                    raise ServeError(
                        f"dims[{key!r}] must be a positive integer, "
                        f"got {value!r}"
                    )
            dtypes = payload.get("dtypes")
            if dtypes is not None:
                if not isinstance(dtypes, dict) or not all(
                    isinstance(v, str) for v in dtypes.values()
                ):
                    raise ServeError(
                        f"request field 'dtypes' must map names to "
                        f"element-type strings, got {dtypes!r}"
                    )
            params = payload.get("params")
            if params is not None:
                if not isinstance(params, dict) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in params.values()
                ):
                    raise ServeError(
                        f"request field 'params' must map names to "
                        f"numbers, got {params!r}"
                    )
    else:
        benchmark = _require(payload, "benchmark", str, "string")
    platform = _require(payload, "platform", str, "string")
    fast = payload.get("fast", False)
    if not isinstance(fast, bool):
        raise ServeError(f"request field 'fast' must be a boolean, got {fast!r}")
    raw_options = payload.get("options", {})
    if not isinstance(raw_options, dict):
        raise ServeError(
            f"request field 'options' must be an object, got {raw_options!r}"
        )
    try:
        options = OptimizeOptions.from_dict(raw_options).cache_dict()
    except ValueError as exc:
        raise ServeError(str(exc)) from None
    try:
        # Validated for wire compatibility, then ignored (a no-op).
        resolve_workers(payload.get("jobs", 1), name="jobs")
    except ValueError as exc:
        raise ServeError(str(exc)) from None
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or deadline_ms <= 0
        ):
            raise ServeError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        deadline_ms = float(deadline_ms)
    return ServeRequest(
        benchmark=benchmark,
        platform=platform,
        fast=fast,
        options=options,
        deadline_ms=deadline_ms,
        format=fmt,
        spec=spec,
        dims=dims,
        dtypes=dtypes,
        params=params,
    )


def coalesce_key(
    stage_fingerprints: Sequence[str], arch_fingerprint: str, options: Dict
) -> str:
    """The in-flight/coalescing identity of one request.

    Built from exactly what determines the chosen schedules — the
    content fingerprints of every pipeline stage, the platform
    fingerprint, and the options fingerprint.  Deadlines and tracers
    are deliberately excluded (they cannot change the result;
    see :mod:`repro.cache.fingerprint`), so differently-budgeted
    identical requests still share one computation.
    """
    body = ",".join(stage_fingerprints)
    return hashlib.sha256(
        f"{body}:{arch_fingerprint}:{options_fingerprint(options)}".encode(
            "utf-8"
        )
    ).hexdigest()


def healthz_payload(
    *,
    draining: bool,
    queue_depth: int,
    queue_limit: int,
    in_flight: int,
    admitted: int,
) -> Dict:
    """Assemble one enriched ``GET /healthz`` body (``repro-serve-v1``).

    This is more than a liveness probe: the fleet router health-gates on
    ``draining`` (route around, don't restart), and the queue/in-flight
    gauges let a supervisor tell a busy worker from a hung one.  The
    layout is versioned as part of the wire schema; see
    :func:`validate_healthz`.
    """
    return {
        "format": SERVE_FORMAT,
        "status": "draining" if draining else "ok",
        "draining": bool(draining),
        "queue": {"depth": int(queue_depth), "limit": int(queue_limit)},
        "in_flight": int(in_flight),
        "admitted": int(admitted),
    }


def validate_healthz(body) -> List[str]:
    """Check one ``/healthz`` body against the documented schema.

    Returns every problem found (empty list = valid), in the style of
    :func:`validate_metrics`.
    """
    problems: List[str] = []
    if not isinstance(body, dict):
        return [f"healthz body is {type(body).__name__}, not an object"]
    if body.get("format") != SERVE_FORMAT:
        problems.append(
            f"format is {body.get('format')!r} (expected {SERVE_FORMAT!r})"
        )
    if body.get("status") not in ("ok", "draining"):
        problems.append(
            f"status must be 'ok' or 'draining', got {body.get('status')!r}"
        )
    if not isinstance(body.get("draining"), bool):
        problems.append(
            f"draining must be a boolean, got {body.get('draining')!r}"
        )
    elif (body.get("status") == "draining") != body["draining"]:
        problems.append("status and the draining flag disagree")
    queue = body.get("queue")
    if not isinstance(queue, dict):
        problems.append(f"queue must be an object, got {queue!r}")
    for key in ("in_flight", "admitted"):
        value = body.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            problems.append(
                f"{key} must be a non-negative integer, got {value!r}"
            )
    if isinstance(queue, dict):
        for key in ("depth", "limit"):
            value = queue.get(key)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < 0
            ):
                problems.append(
                    f"queue.{key} must be a non-negative integer, "
                    f"got {value!r}"
                )
    return problems


def result_payload(
    request: ServeRequest,
    key: str,
    schedules: Sequence[Tuple[str, Dict]],
    *,
    served_by: str,
    elapsed_ms: float,
    stage_sources: Optional[Sequence[str]] = None,
) -> Dict:
    """Assemble one success response body (server-side).

    The body is always the canonical v1 layout — for a v1.1 request the
    server re-stamps it per-request with :func:`render_for`, which is
    what lets coalesced spec- and benchmark-submissions share one
    computed payload.
    """
    assert served_by in WORKER_SERVED_BY
    return {
        "format": SERVE_FORMAT,
        "kind": "result",
        "benchmark": request.label,
        "platform": request.platform,
        "key": key,
        "served_by": served_by,
        "schedules": [
            {"stage": stage, "schedule": payload}
            for stage, payload in schedules
        ],
        "stage_sources": list(
            stage_sources
            if stage_sources is not None
            else [served_by] * len(schedules)
        ),
        "elapsed_ms": round(elapsed_ms, 3),
    }


def error_payload(
    status: int,
    message: str,
    *,
    retry_after_s: Optional[float] = None,
    reason: Optional[str] = None,
) -> Dict:
    """Assemble one error response body (server-side).

    ``reason`` is the optional machine-readable tag
    (:data:`REASON_DEADLINE_EXPIRED` and friends) clients and the chaos
    harness key on; the ``error`` message stays free-form prose.
    """
    payload = {
        "format": SERVE_FORMAT,
        "kind": "error",
        "status": int(status),
        "error": str(message),
    }
    if retry_after_s is not None:
        payload["retry_after_s"] = retry_after_s
    if reason is not None:
        payload["reason"] = str(reason)
    return payload


def render_for(request: Optional[ServeRequest], payload: Dict) -> Dict:
    """Re-stamp one canonical (v1-layout) response body for the wire
    format ``request`` arrived in.

    For a v1 request (or before a request could be parsed,
    ``request=None``) this is the identity — v1 responses stay
    bit-identical to a v1-only server's.  For a v1.1 request the copy
    gains the v1.1 format tag, the explicit ``schema_version`` echo,
    and (for spec targets) the request's ``spec``/``dims`` so a caller
    can correlate responses without keeping request state.
    """
    if request is None or request.format == SERVE_FORMAT:
        return payload
    out = dict(payload)
    out["format"] = SERVE_FORMAT_V11
    out["schema_version"] = SCHEMA_VERSION_V11
    if request.spec is not None:
        out["spec"] = request.spec
        out["dims"] = dict(request.dims or {})
    return out


# -- metrics snapshot contract -----------------------------------------


def counter_problems(counters, names: Sequence[str]) -> List[str]:
    """Check a ``/metrics`` ``counters`` block: an object holding a
    non-negative integer under each of ``names``.  Shared by the serve
    and fleet snapshot validators."""
    if not isinstance(counters, dict):
        return [f"counters must be an object, got {counters!r}"]
    problems: List[str] = []
    for name in names:
        value = counters.get(name)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            problems.append(
                f"counters.{name} must be a non-negative integer, "
                f"got {value!r}"
            )
    return problems


def validate_metrics(snapshot) -> List[str]:
    """Check one ``/metrics`` snapshot against the documented schema.

    Returns every problem found (empty list = valid), in the style of
    :func:`repro.obs.validate_trace`.  CI's serve-smoke job fails on a
    non-empty return, which is what keeps the snapshot layout an actual
    contract rather than documentation drift.
    """
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return [f"snapshot is {type(snapshot).__name__}, not an object"]
    if snapshot.get("format") != METRICS_FORMAT:
        problems.append(
            f"format is {snapshot.get('format')!r} "
            f"(expected {METRICS_FORMAT!r})"
        )

    def _nonneg_number(key, value) -> Optional[str]:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"{key} must be a number, got {value!r}"
        if value < 0:
            return f"{key} must be >= 0, got {value!r}"
        return None

    for key in ("uptime_ms", "in_flight"):
        note = _nonneg_number(key, snapshot.get(key))
        if note:
            problems.append(note)
    if not isinstance(snapshot.get("draining"), bool):
        problems.append(
            f"draining must be a boolean, got {snapshot.get('draining')!r}"
        )
    queue = snapshot.get("queue")
    if not isinstance(queue, dict):
        problems.append(f"queue must be an object, got {queue!r}")
    else:
        for key in ("depth", "limit"):
            note = _nonneg_number(f"queue.{key}", queue.get(key))
            if note:
                problems.append(note)
    problems += counter_problems(snapshot.get("counters"), METRIC_COUNTERS)
    latency = snapshot.get("latency_ms")
    if not isinstance(latency, dict):
        problems.append(f"latency_ms must be an object, got {latency!r}")
    else:
        bounds = latency.get("bounds_ms")
        counts = latency.get("counts")
        if not isinstance(bounds, list) or not all(
            isinstance(b, (int, float)) and not isinstance(b, bool)
            for b in bounds
        ):
            problems.append(f"latency_ms.bounds_ms must be numbers, got {bounds!r}")
        elif sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            problems.append(
                f"latency_ms.bounds_ms must increase strictly: {bounds!r}"
            )
        if not isinstance(counts, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0
            for c in counts
        ):
            problems.append(
                f"latency_ms.counts must be non-negative integers, got {counts!r}"
            )
        elif isinstance(bounds, list) and len(counts) != len(bounds) + 1:
            problems.append(
                f"latency_ms.counts needs len(bounds_ms)+1 buckets "
                f"(one overflow), got {len(counts)} for {len(bounds)} bounds"
            )
        for key in ("count", "sum_ms"):
            note = _nonneg_number(f"latency_ms.{key}", latency.get(key))
            if note:
                problems.append(note)
    return problems
