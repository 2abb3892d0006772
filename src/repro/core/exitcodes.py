"""The one CLI exit-code protocol, shared by every entry point.

Every ``repro`` surface — ``python -m repro`` and its subcommands,
``python -m repro.experiments``, the serve/fleet/chaos/loadgen/tune
commands — maps outcomes onto this single table (also documented in
docs/API.md, "Exit codes"):

======  ==================  ==============================================
code    name                meaning
======  ==================  ==============================================
0       EXIT_OK             success
1       —                   invalid input found after parsing
                            (``SystemExit(message)``; no constant)
2       EXIT_USAGE          bad arguments (argparse's own convention)
3       EXIT_FALLBACK       completed, but degraded (lenient fallback ran)
4       EXIT_HARD           hard failure (ReproError: bad spec, no result)
5       EXIT_UNAVAILABLE    service unavailable / quarantined cells remain
6       EXIT_BIND           could not bind the requested host:port
======  ==================  ==============================================

``EXIT_QUARANTINED`` is an alias of ``EXIT_UNAVAILABLE``: a sweep or
tune that finishes with quarantined cells is *partially* unavailable in
exactly the sense a shed request is — retrying later may succeed.

Import them from here: this module is their only public home.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FALLBACK = 3
EXIT_HARD = 4
EXIT_UNAVAILABLE = 5
EXIT_BIND = 6

#: Alias: quarantined cells leave the run in the same "retry later may
#: help" state as an unavailable service.
EXIT_QUARANTINED = EXIT_UNAVAILABLE

__all__ = [
    "EXIT_BIND",
    "EXIT_FALLBACK",
    "EXIT_HARD",
    "EXIT_OK",
    "EXIT_QUARANTINED",
    "EXIT_UNAVAILABLE",
    "EXIT_USAGE",
]
