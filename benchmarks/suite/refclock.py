"""Reference seconds: host time corrected for the host's current speed.

On a shared virtual machine the same pure-Python work can take twice
as long for seconds at a time, because the physical core is shared.
Such swings are as large as the changes the benchmark must detect.
So the suite pairs its measurements with a reference: after every
chunk of work (~50 ms) it times a short, fixed pure-Python loop
that touches no code of the program.  The ratio of the reference
loop's speed to :data:`REFERENCE_RATE` is the host's current speed,
and a chunk's wall time times that speed is its time in *reference
seconds*: what the chunk would have taken on a host running the
reference loop at :data:`REFERENCE_RATE`.  This is the pairing idea of
``benchmarks/bench_obs_overhead.py`` applied across a whole run.

A chunk's speed is the mean of the probes taken just before and just
after it, and only its busy (CPU) time is scaled.  A probe takes ~6 ms,
a chunk ~50 ms.
"""

from __future__ import annotations

from time import perf_counter, process_time

#: Reference-loop iterations per second on the host that defines one
#: reference second: a typical rate on the 2-core shared VM the baseline
#: was taken on, where it swung between 2.9M and 7.1M/s from phase to
#: phase.  Changing it rescales every time-based metric.
REFERENCE_RATE = 5.0e6

#: Iterations of one probe (~6 ms at the reference rate).
PROBE_ITERATIONS = 40_000


def reference_loop(n: int) -> int:
    """Dict updates, list appends and integer arithmetic: the same mix
    of interpreter work the workloads spend their time in."""
    table = {}
    out = []
    for i in range(n):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + 1
        out.append(key)
    return len(out)


def probe() -> float:
    """The host's current speed relative to the reference host."""
    start = perf_counter()
    reference_loop(PROBE_ITERATIONS)
    return PROBE_ITERATIONS / (perf_counter() - start) / REFERENCE_RATE


class RefClock:
    """Converts consecutive chunks of host time to reference seconds.

    Only a chunk's busy time (process CPU time) is scaled by the host's
    speed.  Time the process spent idle, such as the serving path
    waiting out its batching deadline, passes at the same rate on any
    host.
    """

    def __init__(self):
        self.speed = probe()
        self.ref_s = 0.0   #: reference seconds of every chunk so far
        self.wall_s = 0.0  #: host seconds of every chunk so far
        self._started = (0.0, 0.0)

    def start(self) -> None:
        """Begin a chunk."""
        self._started = (perf_counter(), process_time())

    def stop(self):
        """End the chunk begun by :meth:`start`, probe the host, and
        return the chunk's ``(host seconds, reference seconds)``."""
        wall0, cpu0 = self._started
        wall = perf_counter() - wall0
        busy = min(wall, process_time() - cpu0)
        after = probe()
        ref = wall - busy + busy * (self.speed + after) / 2
        self.speed = after
        self.ref_s += ref
        self.wall_s += wall
        return wall, ref
