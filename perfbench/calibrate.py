"""Host-speed calibration: a fixed pure-Python loop timed between cells.

The benchmark's host is a shared 2-vCPU virtual machine whose speed
drifts by a quarter within seconds as neighbours load it: the same pass
of a workload takes 11 s or 14.5 s.  The drift slows the simulator and
this loop mostly alike, so each measured interval is rescaled by
``NOMINAL_S / loop time``, the loop timed just before and just after the
interval.  A rescaled second is a second on a host where the loop takes
``NOMINAL_S``.  The loop is the same on every commit, so a change to the
simulator moves rescaled times in the same proportion as raw ones.

Between two probes the speed can change, so while a cell runs a
:class:`Sampler` also times one loop every ``INTERVAL_S`` from a timer
signal; the cell's time excludes the samples' own time.

Standard library only: the launcher imports it too.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Loop time that defines a reference-speed host second.
NOMINAL_S = 0.005

#: Loop repetitions per probe; the probe reports their median.
REPEATS = 9

#: Seconds between in-cell samples.
INTERVAL_S = 0.2


def _loop() -> int:
    # Dict, integer and call traffic, the interpreter work the simulator
    # is made of.
    table: dict = {}
    total = 0
    get = table.get
    for i in range(20_000):
        key = i & 1023
        table[key] = get(key, 0) + i
        total += i * 3 % 7
    return total


def probe() -> float:
    """Median seconds of one calibration loop, now."""
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _loop()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def rescale(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, in
    reference-speed seconds."""
    return seconds * NOMINAL_S / loop_s


class Sampler:
    """Times one loop every ``INTERVAL_S`` while the block runs.

    Signal handlers run between bytecodes of the main thread, so a sample
    delays the interrupted code by the loop's time and touches none of its
    state.  ``samples`` holds the loop times; ``spent`` the seconds the
    handler took, to subtract from the block's time.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _loop()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "Sampler":
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
