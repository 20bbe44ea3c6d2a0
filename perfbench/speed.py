"""Machine-speed probe: samples a fixed reference loop while a timed call runs.

On a shared host the CPU a process gets can run at very different speeds
from one second to the next (a busy sibling hyperthread, cache pressure),
and CPU time slows down with wall time, so neither measures the program
alone. ``SpeedProbe`` arms an interval timer; on every tick the signal
handler times ``reference_loop``, a fixed piece of pure-Python work that no
change to cdpmix can alter. The mean of those samples is the reference
loop's duration at the machine's speed during the call, and

    normalized time = (call wall time - time spent in the probe)
                      * NOMINAL_REF_NS / mean sample

is the call's wall time at a fixed nominal speed, the one at which the
reference loop takes ``NOMINAL_REF_NS``. A program change moves it like the
raw wall time; a change of machine speed during the call mostly cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

# Reference loop length and the nominal duration it is scaled to (its speed
# on an unloaded 2-vCPU Xeon VM with Python 3.11).
REF_ITERS = 2000
NOMINAL_REF_NS = 500_000
PERIOD_S = 0.02


def reference_loop(n: int = REF_ITERS) -> float:
    """Interpreter-bound work of the kind the sampler does: calls, floats, lists, dicts."""
    acc, table, seen = 0.0, [0.5, 1.5, 2.5, 3.5], {}
    for i in range(n):
        x = table[i & 3] * 1.0001 + i
        seen[i & 15] = seen.get(i & 15, 0.0) + x
        acc += abs(x - acc) ** 0.5
    return acc + len(seen)


class SpeedProbe:
    """Context manager sampling ``reference_loop`` every ``PERIOD_S`` seconds.

    Only the main thread of a process can use it (SIGALRM handlers run
    there). Calls interrupted by the signal are retried by Python itself.
    """

    def __init__(self):
        self.samples_ns: list[int] = []
        self.probe_ns = 0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        reference_loop()
        t1 = time.perf_counter_ns()
        self.samples_ns.append(t1 - t0)
        self.probe_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        # One sample before the call, so a call shorter than a period has one.
        self._tick(None, None)
        self.probe_ns = 0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def ref_ns(self) -> float:
        """Mean reference-loop duration over the call.

        Ticks are evenly spaced in time, so the mean weights each stretch of
        the call by its length, as the call's own wall time does.
        """
        return float(statistics.fmean(self.samples_ns))

    def own(self, wall_s: float) -> float:
        """``wall_s`` of a call timed inside the probe, less the probe's own time."""
        return wall_s - self.probe_ns / 1e9

    def normalize(self, wall_s: float) -> float:
        """The call's own wall time at the nominal machine speed."""
        return self.own(wall_s) * NOMINAL_REF_NS / self.ref_ns()
