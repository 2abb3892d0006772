"""Host-speed reference: scale offline host times to one nominal speed.

The benchmark runs on shared virtual machines whose speed moves by up to
60% from one minute to the next (another tenant on the sibling
hyperthread, frequency changes).  Left alone, that drift swamps any
change the benchmark is meant to see.  So an offline run also times a
fixed reference workload — pure Python set-associative cache probing
and dict updates, the same kind of work as the program's search and
simulator, and none of the program's code — before and after every
operation, and scales the operation's CPU time by

    REFERENCE_S / mean(the two reference times around it)

i.e. expresses it in seconds of a machine on which the reference takes
``REFERENCE_S``.  The reference never changes with the program, so a
change that speeds the program up still shows in full.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List

#: CPU seconds the reference workload takes on the machine the bounds
#: were set on (a 2-vCPU Xeon VM, near its median speed).
REFERENCE_S = 0.030

_ADDRESSES: List[int] = []


def _addresses() -> List[int]:
    if not _ADDRESSES:
        rng = random.Random(20180224)
        _ADDRESSES.extend(rng.randrange(1 << 16) for _ in range(40_000))
    return _ADDRESSES


def reference_s() -> float:
    """CPU seconds of one run of the fixed reference workload."""
    addresses = _addresses()
    started = time.process_time()
    sets: List[List[int]] = [[] for _ in range(64)]
    for address in addresses:
        ways = sets[address & 63]
        tag = address >> 6
        if tag in ways:
            ways.remove(tag)
        elif len(ways) >= 8:
            ways.pop(0)
        ways.append(tag)
    counts = {}
    for index, address in enumerate(addresses):
        key = (address, index & 7)
        counts[key] = counts.get(key, 0) + 1
    return time.process_time() - started


class HostSpeed:
    """Reference samples of one run and the scale factors they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time the reference once; returns its CPU seconds."""
        seconds = reference_s()
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Scale of a host time measured between two reference samples."""
        return 2.0 * REFERENCE_S / (before + after)

    @property
    def factor(self) -> float:
        """Scale of a host time measured anywhere in this run."""
        return REFERENCE_S / statistics.median(self.samples)
