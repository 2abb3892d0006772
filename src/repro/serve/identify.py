"""Request identity: from a wire request to its coalescing/shard key.

Both the worker server (for coalescing and the schedule cache) and the
fleet router (for consistent-hash shard routing) must compute the *same*
identity for one request, or shard-local caches stop being
warm-by-construction.  Centralizing the computation here is what makes
that an invariant instead of a convention: the key is built from the
content fingerprints of every pipeline stage, the platform fingerprint,
and the canonical options fingerprint — exactly the inputs that
determine the chosen schedules (see :mod:`repro.cache.fingerprint`).

Spec targets (repro-serve-v1.1) are lowered here with
:func:`repro.frontend.lower_spec` and fingerprinted from the *lowered*
Funcs — a spec-submission and a benchmark/ir-submission of the same
kernel therefore produce the same key, coalesce onto one in-flight
computation, hit the same cache entries, and route to the same shard.
A malformed spec raises :class:`~repro.util.ValidationError`, which
:func:`rejection` maps to HTTP 400 with ``reason="invalid_spec"`` (never
a 500) for the worker and the router alike.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from repro.arch import platform_by_name
from repro.bench import make_benchmark, size_for
from repro.cache.fingerprint import func_fingerprint
from repro.frontend.corpus import spec_case
from repro.serve.schema import (
    REASON_INVALID_SPEC,
    ServeRequest,
    coalesce_key,
    error_payload,
    render_for,
)
from repro.util import ServeError, ValidationError

__all__ = ["REQUEST_ERRORS", "identify_request", "rejection"]

#: What parsing and identifying a request body raise for a caller's bug.
REQUEST_ERRORS = (
    json.JSONDecodeError,
    UnicodeDecodeError,
    ServeError,
    ValidationError,
)


def rejection(
    request: Optional[ServeRequest], exc: Exception
) -> Tuple[int, Dict, None]:
    """The 400 answer for one of :data:`REQUEST_ERRORS`.

    ``request`` is the parsed request, or ``None`` if parsing failed.
    """
    if isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError)):
        return 400, error_payload(400, f"request is not JSON: {exc}"), None
    reason = REASON_INVALID_SPEC if isinstance(exc, ValidationError) else None
    payload = error_payload(400, str(exc), reason=reason)
    return 400, render_for(request, payload), None


def identify_request(request: ServeRequest) -> Tuple[object, object, str]:
    """Build the benchmark case, platform, and identity key of a request.

    Returns ``(case, arch, key)``.  Raises
    :class:`~repro.util.ServeError` with an actionable message for an
    unknown benchmark or platform (a 400), and
    :class:`~repro.util.ValidationError` for a spec that does not lower
    (also a 400, tagged ``invalid_spec``).
    """
    if request.spec is not None:
        # A ValidationError propagates untouched: the serve layers map
        # it to a 400 tagged ``invalid_spec``.
        case = spec_case(
            request.spec,
            request.dims or {},
            dtypes=request.dtypes,
            params=request.params,
            name=request.label,
        )
    else:
        name = request.benchmark
        try:
            case = make_benchmark(name, **size_for(name, small=request.fast))
        except KeyError as exc:
            raise ServeError(exc.args[0]) from None
        except ValueError as exc:
            raise ServeError(
                f"cannot build benchmark {name!r}: {exc}"
            ) from None
    try:
        arch = platform_by_name(request.platform)
    except KeyError:
        raise ServeError(
            f"unknown platform {request.platform!r}; see "
            f"`python -m repro list`"
        ) from None
    key = coalesce_key(
        [func_fingerprint(stage) for stage in case.pipeline],
        arch.fingerprint(),
        request.options,
    )
    return case, arch, key
