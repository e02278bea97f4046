"""The host's speed, sampled while a task runs, and times corrected for it.

The benchmark runs on a few vCPUs of a shared host whose speed changes by
itself: the same fresh-process family builds took 1.1 s and 1.85 s a few
seconds apart, and a fixed loop switches between two speeds every few
seconds.  So each stage time is reported twice: as measured (``wall``) and in
reference seconds (``norm``), the time the same work would have taken on a
host that runs :func:`reference` in ``NOMINAL_S``.

While a task runs, a SIGALRM handler fires every ``PERIOD_S`` seconds and
times :func:`reference` in thread CPU time.  The task's time between two
samples is weighted by the host's speed there, ``NOMINAL_S`` over the
reference time; the handler's own time counts in neither figure.  Processes
the package forks (``run_suite``'s pool) sample their own cores and append
their samples to a log file, since the pool kills them when it closes; a span
they ran in is weighted by their mean speed over it.  The reference never
calls the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

PERIOD_S = 0.05
NOMINAL_S = 0.001
_REFERENCE_N = 3000
_REFERENCE_KEYS = 8 * 11 * 3

clock = time.perf_counter


def reference() -> float:
    """Thread CPU seconds of a fixed loop shaped like the package's hot paths:
    small tuples counted in a dict."""
    start = time.thread_time()
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(_REFERENCE_N):
        key = (i & 7, i % 11, i % 3)
        counts[key] = counts.get(key, 0) + 1
    elapsed = time.thread_time() - start
    if len(counts) != _REFERENCE_KEYS:
        raise AssertionError(f"reference loop made {len(counts)} keys")
    return elapsed


class Sampler:
    """Samples the host's speed every ``PERIOD_S`` between :meth:`start` and :meth:`stop`."""

    def __init__(self, log_path: str):
        # (start, end, speed): the task's time from start to end, and the
        # host's speed measured right after it; forked processes' segments
        # come from the log
        self.segments: list[tuple[float, float, float]] = []
        self.forked: list[tuple[float, float, float]] = []
        self.log_path = log_path
        self._log: int | None = None
        self._active = False
        self._since = 0.0

    def _sample(self, *_args) -> None:
        now = clock()
        segment = (self._since, now, NOMINAL_S / reference())
        if self._log is None:
            self.segments.append(segment)
        else:
            os.write(self._log, ("%r %r %r\n" % segment).encode())
        self._since = clock()

    def _start_forked(self) -> None:
        if self._active:
            self._log = os.open(self.log_path, os.O_WRONLY | os.O_APPEND)
            self._since = clock()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def start(self) -> None:
        open(self.log_path, "w").close()
        os.register_at_fork(after_in_child=self._start_forked)
        self._active = True
        self.segments = []
        self._since = clock()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        # the handler stays installed: a signal already raised may still
        # reach it, and only adds a segment after the task
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        self._sample()
        with open(self.log_path) as log:
            self.forked = [tuple(map(float, line.split())) for line in log]
        os.unlink(self.log_path)

    def times(self, begin: float, end: float) -> tuple[float, float]:
        """(wall, norm) seconds of the task's own time between two ``clock()`` readings."""
        forked = [(min(hi, end) - max(lo, begin), speed) for lo, hi, speed in self.forked]
        forked = [(overlap, speed) for overlap, speed in forked if overlap > 0]
        if forked:
            wall = end - begin
            return wall, wall * sum(o * v for o, v in forked) / sum(o for o, _ in forked)
        # one reference is noisy, while the host keeps a speed for seconds:
        # each segment takes the median speed of the samples within two of it
        speeds = [speed for _, _, speed in self.segments]
        wall = norm = 0.0
        for i, (lo, hi, _) in enumerate(self.segments):
            overlap = min(hi, end) - max(lo, begin)
            if overlap > 0:
                wall += overlap
                norm += overlap * statistics.median(speeds[max(0, i - 2):i + 3])
        return wall, norm
