"""Striped locks: the compare-and-swap substitute.

CPython offers no user-level compare-and-swap, so — per the substitution
table in DESIGN.md — a CAS is encoded as a read-modify-write under a lock:
compare the slot with the expected value and write the new one while
holding the lock.  This is *semantically* identical to a hardware CAS (it
is atomic with respect to every other CAS on the same slot and supports
the usual retry-loop idioms); what it costs is the lock acquisition, which
we keep cheap by striping a fixed pool of locks across slots instead of
allocating one lock per slot.

Plain loads and stores of Python object references are already atomic under
the GIL, so readers take no lock.
"""

from __future__ import annotations

import threading

#: Number of striped locks shared by every CAS site.  64 matches a
#: plausible cache-line-sharding factor and keeps contention negligible for
#: the thread counts this library runs (≤ ~32).
_NUM_STRIPES = 64
_STRIPES = [threading.Lock() for _ in range(_NUM_STRIPES)]


def stripe_lock_for(index: int) -> threading.Lock:
    """A deterministic striped lock for an integer key (e.g. a vertex id).

    >>> stripe_lock_for(3) is stripe_lock_for(3 + _NUM_STRIPES)
    True
    >>> stripe_lock_for(3) is stripe_lock_for(4)
    False
    """
    return _STRIPES[index % _NUM_STRIPES]
