"""Host-speed reference: a fixed slice of pure-Python work, timed alongside the program.

The benchmark runs on shared hosts whose speed drifts by tens of percent over
minutes, far more than the bounds it must hold. Each worker therefore times a
fixed reference slice (integer bit operations, list indexing and float
arithmetic, the operations hivqe's Hamiltonian assembly is made of) before
and after set-up and, driven by an interval timer, every ``INTERVAL_S``
seconds during the timed call. The slice depends on nothing in hivqe, so a
change to the program cannot move it.

A timing is reported at the reference host's speed:

    normalized = (wall - time spent in slices) * NOMINAL_SLICE_S / mean(slice)

The timer samples the slice at even intervals of wall time, so its mean slice
time follows the host's average slow-down over the call. It follows
interpreter-bound work (the H8 workloads) closely; work that allocates and
walks large tables (the H12 sampler) speeds up and slows down more than the
slice does, so there the correction is partial. The wall times are reported
alongside.
"""

from __future__ import annotations

import signal
import statistics
import time

SLICE_ITERATIONS = 20_000
# A typical mean slice time on a 2-vCPU Xeon host at 2.0 GHz with Python 3.11.
# It only sets the scale of the reported times; changing it rescales them all.
NOMINAL_SLICE_S = 0.0085
INTERVAL_S = 0.25

_TABLE = [((i * 37) % 101) * 0.01 for i in range(256)]


def _slice() -> float:
    table = _TABLE
    acc = 0.0
    x = 0x5A5A5A5A
    for _ in range(SLICE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        m = x & 0xFFFF
        if m.bit_count() & 1:
            acc += table[m & 0xFF]
        else:
            acc -= table[(m >> 8) & 0xFF]
    return acc


class HostSpeed:
    """Slice timings of one process; also counts the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.on_timer_slice = None  # called with each timer-driven slice's seconds
        _slice()  # warm the code path; not recorded

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter()
            _slice()
            duration = time.perf_counter() - start
            self.samples.append(duration)
            self.spent_s += duration

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        if self.on_timer_slice is not None:
            self.on_timer_slice(self.samples[-1])

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self) -> None:
        # The handler stays installed: a signal already pending when the timer
        # stops still runs one harmless slice.
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def factor(self, first: int = 0) -> float:
        """NOMINAL_SLICE_S over the mean slice time of samples[first:]."""
        return NOMINAL_SLICE_S / statistics.fmean(self.samples[first:])
