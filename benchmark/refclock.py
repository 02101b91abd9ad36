"""Wall time converted to the time of a fixed reference computation.

The shared host this benchmark runs on changes speed by up to 1.5x for tens
of seconds at a time, and the process's CPU time changes with it, so a
wall-clock throughput measures the host as much as the program.  A
``RefClock`` runs ``reference()``, a fixed computation of the same kind as
the program's (small numpy arrays driven from a Python loop, no program
code), every ``INTERVAL_S`` from a ``SIGALRM`` handler in the workload's own
thread.  Each interval of workload time is divided by the reference time
measured around it, and scaled to ``NOMINAL_MS``: the result reads as
seconds on a host that runs the reference in exactly ``NOMINAL_MS``.  The
handler's own time is not counted as workload time.
"""

import signal
from time import perf_counter

import numpy as np

#: Seconds of workload between two reference measurements.
INTERVAL_S = 0.25
#: Reference time (ms) that one normalized second is scaled to.
NOMINAL_MS = 6.0
_REF_ITERATIONS = 150


def reference() -> float:
    """Milliseconds taken by a fixed loop of 6x6 and 3x3 numpy arithmetic."""
    t0 = perf_counter()
    a = np.eye(6) * 0.5 + 0.01
    b = np.ones(6)
    eye = np.eye(6)
    for _ in range(_REF_ITERATIONS):
        c = a @ a.T + eye
        x = np.linalg.solve(c, b)
        r = np.cross(x[:3], x[3:])
        b = np.sin(x) + np.concatenate([r, r]) * 1e-3 + 1.0
    return (perf_counter() - t0) * 1e3


class RefClock:
    """Context manager that records (workload seconds, reference ms) pairs."""

    def __init__(self) -> None:
        self.work_s: list[float] = []
        self.ref_ms: list[float] = []
        self._last = 0.0
        self._old_handler = None

    def _tick(self, *_) -> None:
        self.work_s.append(perf_counter() - self._last)
        self.ref_ms.append(reference())
        self._last = perf_counter()

    def __enter__(self) -> "RefClock":
        self.ref_ms.append(reference())
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.work_s.append(perf_counter() - self._last)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.ref_ms.append(reference())

    @property
    def wall_s(self) -> float:
        """Workload seconds, without the reference measurements."""
        return float(sum(self.work_s))

    @property
    def normalized_s(self) -> float:
        """Workload seconds scaled to a host that runs the reference in
        ``NOMINAL_MS``.  Each reference time is first replaced by the median
        of it and its neighbours, so one interrupted measurement does not
        count; an interval uses the mean of the values at its two ends."""
        r = np.pad(np.asarray(self.ref_ms), 1, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(r, 3), axis=1)
        per_interval = 0.5 * (smooth[:-1] + smooth[1:])
        return float(np.sum(np.asarray(self.work_s) * NOMINAL_MS / per_interval))
