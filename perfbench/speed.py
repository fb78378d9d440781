"""A clock that runs at a fixed reference speed on a host whose speed drifts.

On a shared 2-core x86_64 VM the same pure-Python loop took 0.06 s or
0.11 s from one second to the next, on either core, as other tenants
loaded the host.  ``ReferenceClock`` runs a fixed calibration loop (the probe) every
``PERIOD_S`` from a SIGALRM handler and integrates elapsed time divided
by the probe's slowdown, so a stretch of work reads about the same
whichever speed the host had while it ran.  Probe time is left out of
both the reference time and the plain wall time it reports.

The handler runs in the main thread between bytecodes of the measured
code, which uses no signals and no threads.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.05
REF_PROBE_S = 0.001   # probe duration that defines the reference speed
PROBE_LOOPS = 5000


def probe() -> float:
    """Run a fixed loop once; return its duration in seconds.

    The loop allocates small tuples, stores them in a 64-key dict and
    does integer arithmetic: interpreter work of the kind it calibrates,
    which tracked slowdowns of defram's own calls better than a bare
    arithmetic loop.  Its data stay in the first-level cache, so its
    speed follows the host, not the caches the measured code leaves
    behind: a probe over a large table runs slower when the measured
    code uses more memory, and so would hide that cost."""
    start = perf_counter()
    table = {}
    total = 0
    for i in range(PROBE_LOOPS):
        pair = (i, i & 7)
        table[i & 63] = pair
        total += len(table) + pair[1]
    return perf_counter() - start


class ReferenceClock:
    """``now()`` returns (wall seconds without probes, reference seconds),
    both counted from the clock's creation."""

    def __init__(self):
        self.scale = REF_PROBE_S / probe()   # reference seconds per second, now
        # (wall, reference, scale, when the last probe ended); replaced as a
        # whole by the handler, so now() always reads a consistent state
        self._state = (0.0, 0.0, self.scale, perf_counter())

    def _tick(self, signum, frame) -> None:
        wall, ref, scale, last = self._state
        start = perf_counter()
        d = probe()
        # each stretch between probes runs at the speed of the probe that
        # opened it, so now() never jumps when a probe ends
        span = start - last
        self._state = (wall + span, ref + span * scale, REF_PROBE_S / d, perf_counter())

    def now(self) -> tuple[float, float]:
        wall, ref, scale, last = self._state
        span = perf_counter() - last
        return wall + span, ref + span * scale

    def reference(self) -> float:
        _, ref, scale, last = self._state
        return ref + (perf_counter() - last) * scale

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
