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
A malformed spec raises :class:`~repro.util.ValidationError`, which the
server maps to HTTP 400 with ``reason="invalid_spec"`` (never a 500).
"""

from __future__ import annotations

from typing import Tuple

from repro.arch import platform_by_name
from repro.bench import make_benchmark, size_for
from repro.cache.fingerprint import func_fingerprint
from repro.frontend.corpus import spec_case
from repro.serve.schema import ServeRequest, coalesce_key
from repro.util import ServeError

__all__ = ["identify_request"]


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
