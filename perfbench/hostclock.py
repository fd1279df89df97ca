"""Host time in reference seconds, for a shared host whose speed drifts.

The benchmark runs on a few cores of a shared machine.  How fast those
cores run changes by a quarter or more from one minute to the next, with
the load of other tenants, and no median within a run removes that.  So
the benchmark times its spans against a fixed probe: a small pure-Python
workload (a heap of small objects drawn in random order from a few MB of
them, and a dict tally, like an event loop) timed in a separate, pristine
interpreter that never imports the program.

A :class:`HostClock` takes a *mark* at every span boundary and, within
long spans, about every :data:`MARK_GAP_S` of host time.  A mark runs the
probe once.  One probe is noisy, so each mark's probe time is read as the
median over the :data:`SMOOTH_MARKS` marks around it.  The host time between
two marks, probe time excluded, is scaled by ``REFERENCE_PROBE_S / p`` where
``p`` is the mean of that smoothed probe time at the two marks.  A span's
reference seconds are the sum over its segments:
what it would have taken on a host where the probe takes
:data:`REFERENCE_PROBE_S`.  The program cannot speed up or slow down the
probe, because the probe runs in its own process.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

#: Probe time, in seconds, on the reference host.  A span that takes ``t``
#: host seconds while the probe takes ``p`` seconds reads
#: ``t * REFERENCE_PROBE_S / p`` reference seconds.
REFERENCE_PROBE_S = 0.006

#: Host time between marks inside a long span, in seconds.
MARK_GAP_S = 0.1

#: Marks (centred on a mark, so far as they exist) whose median probe time
#: stands for that mark's.
SMOOTH_MARKS = 5

#: The probe server: one probe per line read from stdin, its time written
#: back, until a ``quit`` line or the end of stdin.  Run with ``-I -S`` so it
#: loads nothing beyond the standard library.
PROBE_SERVER = r'''
import heapq
import random
import sys
import time


class Event:
    __slots__ = ("at", "kind", "size")

    def __init__(self, at, kind, size):
        self.at = at
        self.kind = kind
        self.size = size


# Objects spread over a few MB, visited in random order, so that the probe
# feels the cache and memory contention the program's object graph does.
TABLE = [Event(i, i & 15, i % 1500) for i in range(50000)]
RNG = random.Random(7)
ORDER = [RNG.randrange(len(TABLE)) for _ in range(4000)]


def probe(steps):
    queue, tally = [], {}
    for i in range(steps):
        event = TABLE[ORDER[i % len(ORDER)]]
        heapq.heappush(queue, (event.at * 7919 % 10007, i, event))
        if len(queue) > 64:
            at, _, event = heapq.heappop(queue)
            tally[event.kind] = tally.get(event.kind, 0.0) + at * 0.5 + event.size
    return tally


for line in sys.stdin:
    if line.strip() == "quit":
        break
    probe(500)  # warm the caches the program's process left cold
    start = time.perf_counter()
    probe(4000)
    sys.stdout.write(repr(time.perf_counter() - start) + "\n")
    sys.stdout.flush()
'''


class HostClock:
    """Marks on a probe-excluded host timeline, each with its probe time.

    With ``probe=False`` (traced runs, where a probe would be profiled) every
    mark reads :data:`REFERENCE_PROBE_S`, so reference seconds equal host
    seconds.  Marks taken in a forked child (a pool worker) are ignored.
    """

    def __init__(self, probe: bool = True) -> None:
        self.marks: List[Tuple[float, float]] = []  # (clock time, probe s)
        self._excluded = 0.0  # host time spent in probes so far
        self._last = 0.0
        self._pid = os.getpid()
        self._server = None
        if probe:
            self._server = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", PROBE_SERVER],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )

    def close(self) -> None:
        server, self._server = self._server, None
        if server is None or os.getpid() != self._pid:
            return
        # Forked pool workers may still hold the pipe open, so end of input
        # alone might not reach the server.
        try:
            server.stdin.write("quit\n")
            server.stdin.close()
        except OSError:
            pass
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def _probe(self) -> float:
        if self._server is None:
            return REFERENCE_PROBE_S
        self._server.stdin.write("\n")
        self._server.stdin.flush()
        line = self._server.stdout.readline()
        if not line:
            raise RuntimeError("host probe server exited")
        return float(line)

    def mark(self) -> int:
        """Probe now; return the mark's index (``-1`` in a forked child)."""
        if os.getpid() != self._pid:
            return -1
        before = time.perf_counter()
        self.marks.append((before - self._excluded, self._probe()))
        self._last = time.perf_counter()
        self._excluded += self._last - before
        return len(self.marks) - 1

    def tick(self) -> None:
        """Mark if :data:`MARK_GAP_S` of host time passed since the last mark."""
        if time.perf_counter() - self._last >= MARK_GAP_S:
            self.mark()

    def host_s(self, a: int, b: int) -> float:
        """Host seconds from mark ``a`` to mark ``b``, probes excluded."""
        return self.marks[b][0] - self.marks[a][0]

    def _smoothed(self, i: int) -> float:
        half = SMOOTH_MARKS // 2
        window = self.marks[max(0, i - half):i + half + 1]
        return statistics.median(p for _, p in window)

    def ref_s(self, a: int, b: int) -> float:
        """Reference seconds from mark ``a`` to mark ``b``."""
        total = 0.0
        p0 = self._smoothed(a)
        for i in range(a + 1, b + 1):
            p1 = self._smoothed(i)
            total += (self.marks[i][0] - self.marks[i - 1][0]) * 2 * REFERENCE_PROBE_S / (p0 + p1)
            p0 = p1
        return total

    def speed(self, a: int, b: int) -> float:
        """Reference seconds per host second from mark ``a`` to mark ``b``."""
        host = self.host_s(a, b)
        return self.ref_s(a, b) / host if host > 0 else 1.0
