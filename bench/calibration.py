"""Reading the host's speed while the benchmark runs, to take its drift out.

The benchmark runs on shared vCPUs whose speed drifts by up to two
thirds, within seconds and in spells of minutes, and every op slows with
it.  CPU time drifts as much as wall time, so the cause is the core's
speed, not stolen time.  A fixed slice of pure-Python work timed while an
op runs gives the speed at that moment; the op's time divided by the
slice's time no longer carries the drift.  Multiplied by ``REF_SECONDS``
it reads as the op's seconds on a host where the slice takes
``REF_SECONDS``.

The slice does the kinds of work designcount's inner loops do (integer
bit tricks, a small dict, calls) and nothing designcount provides, so a
change to the program cannot move it.  Pool workers run in other
processes and are not sampled: an op that waits on them is scaled by the
speed of the main process's core.
"""

from __future__ import annotations

import signal
from time import perf_counter

# A round figure near the slice's time on the measuring machine (a mean
# of 0.75-0.9 ms in the baseline runs, BASELINE.md).  A fixed constant: it sets
# the unit, not the comparison.
REF_SECONDS = 0.001
# CPU seconds of this process between two samples while a Sampler is on.
SAMPLE_INTERVAL = 0.05
# A time normalized by fewer samples than this uses a wider window's.
MIN_SAMPLES = 5


def _bit(x: int) -> int:
    return x & -x


def _work() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(1500):
        m = (i * 2654435761) & 0xFFFF
        acc ^= _bit(m | 1 << 16)
        table[m & 1023] = acc
        acc += len(table)
    return acc


def slice_seconds() -> float:
    """Wall time of one fixed slice of work."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def normalized(seconds: float, slice_s: float) -> float:
    """``seconds`` measured while the slice took ``slice_s``, at reference speed."""
    return seconds * REF_SECONDS / slice_s


class Sampler:
    """Times the slice every ``interval`` seconds of this process's CPU time.

    It runs from ``SIGPROF``, between bytecodes of the main thread, so it
    samples the speed of the core the work is running on and never while
    the process only waits for its pool workers.  Interval timers are not
    inherited across ``fork``, so the workers are never interrupted.
    ``samples`` holds each slice's start and duration; the caller
    subtracts the slices that fell inside what it timed.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _work()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def between(self, t0: float, t1: float) -> list[float]:
        """Durations of the slices that started in [t0, t1)."""
        return [d for t, d in self.samples if t0 <= t < t1]
