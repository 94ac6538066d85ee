"""The reference kernel, fixed pure-Python work, and the host-speed sampler.

On a shared 2-vCPU Intel Xeon virtual machine (CPython 3.11), the same
Python code was measured to run up to twice as fast in some stretches of
seconds as in others, in every process alike.  Timing this kernel next to the engine's work gives the host's speed
at that moment, and dividing the engine's wall time by it cancels most of
the swing.  The kernel mixes what the engine spends its time on: Fraction
arithmetic and pretty-printed JSON encoding of nested dicts and lists.
``reference_kernel`` and ``_DOC`` must stay exactly as they are, or every
normalised metric shifts.

Imports ``fractions`` and ``json``, which the engine also imports, so the
set-up child imports this module only after its timed import.
"""

from __future__ import annotations

import json
import signal
import time
from fractions import Fraction

SAMPLE_INTERVAL = 0.05  # seconds between kernel samples while a Speed is entered
_clock = time.perf_counter

_DOC = {"rows": [{"id": i, "values": [i, 2 * i, str(i)], "even": i % 2 == 0}
                 for i in range(40)]}


def reference_kernel() -> int:
    x = Fraction(1, 3)
    for i in range(60):
        x = x * Fraction(i + 1, i + 2) + 1
    return len(json.dumps(_DOC, indent=2)) + x.denominator % 7


def reference_seconds(repeats: int = 3) -> float:
    """Fastest of ``repeats`` back-to-back runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = _clock()
        reference_kernel()
        best = min(best, _clock() - start)
    return best


class Speed:
    """The host's speed over time, as the reference kernel's time.

    Entering samples the kernel once; while inside, a timer signal samples it
    every SAMPLE_INTERVAL, also in the middle of a long engine call.  The
    handler runs whole between two bytecodes of the main thread, so each
    sample lies entirely inside or entirely outside a timed call, and its own
    time is taken out of the call's.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel s)
        self._busy = False
        self._sample()

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = _clock()
        ref = reference_seconds()
        self.samples.append((start, _clock(), ref))
        self._busy = False

    def __enter__(self) -> "Speed":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def refs(self) -> list[float]:
        return [ref for _, _, ref in self.samples]
