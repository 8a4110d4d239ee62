"""The host's speed, sampled while the commands run.

On a shared host the speed one thread sees changes by up to 2x, in episodes
lasting from a fraction of a second to minutes, and nothing inside the guest
shows it (steal time stays near 0).  A 30 s run cannot average such an
episode away, so the benchmark reports its times at a fixed reference speed:
while a command runs, a ``Sampler`` interrupts it every ``INTERVAL_S``
seconds (SIGALRM, handled in the main thread between bytecodes) and times
``probe()``, a fixed mix of interpreted and numpy work like the program's
own.  A command's time is then scaled by ``PROBE_REF_S`` over the mean probe
time it met, after its time in the probes is taken out.  A fresh interpreter
timed for set-up runs the probe itself after its import, on whichever CPU it
ran on, and its time is scaled the same way.

The probe is the benchmark's own code and touches no dualsim code, so a
change to dualsim changes the commands' times and not the probes'.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds between two probes while a command runs.
INTERVAL_S = 0.1
#: The reference speed: the host at which one probe takes this long.  The
#: median, over 21 runs, of a run's mean probe time on the 2-core host this
#: benchmark was written on.
PROBE_REF_S = 2.6e-3

_DATA = np.random.default_rng(0).random(4096)


def probe() -> float:
    """Fixed work: float arithmetic, dict and list updates and formatting in
    the interpreter, then small numpy sorts and reductions."""
    acc, table, parts = 0.0, {}, []
    for i in range(6000):
        x = i * 0.37
        acc += x * x - acc * 1e-9
        table[i & 63] = x
        if i % 16 == 0:
            parts.append(f"{x:.6g}")
    for _ in range(16):
        acc += float(np.sort(_DATA)[7]) + float((_DATA * 1.5 + 2.0).sum())
    return acc + len(",".join(parts)) + len(table)


def timed_probe() -> float:
    """Seconds one ``probe()`` takes."""
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


class Sampler:
    """Times ``probe()`` once on entry and then every ``INTERVAL_S`` seconds
    inside the ``with`` block; ``probes_s`` collects the times, the entry
    probe first, so that even a command shorter than the interval has one."""

    def __init__(self):
        self.probes_s: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        self.probes_s.append(timed_probe())

    def __enter__(self) -> "Sampler":
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference_speed(seconds: float, probes_s: list[float]) -> float:
    """``seconds`` of work timed at the speed the probes met, scaled to the
    reference speed."""
    return seconds * PROBE_REF_S / statistics.fmean(probes_s)
