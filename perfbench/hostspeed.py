"""Host-speed probe, and times scaled to a reference host speed.

On a shared 2-vCPU VM the speed this process gets swings between 1x and
about 1.8x, switching within a second and sometimes staying slow for
minutes; CPU time swings with wall time. A fixed probe of small numpy calls
and Python object work, like the program's own inner loops, slows down in
step with the program: over 10-s windows the raw time of one synthesize
call moved by 57% while its ratio to the adjacent probes moved by 1%.

So every timed region is bracketed by probes (one every 10 ms between
short operations, three on each side of a long one), and each time is
reported as

    raw time * REFERENCE_PROBE_S / mean(the three probes before and after it)

that is, in seconds at the host speed where the probe takes
REFERENCE_PROBE_S (about this VM's fast state). Raw times are kept in the
run record next to the scaled ones.
"""

import bisect
import statistics
import time

import numpy as np

REFERENCE_PROBE_S = 1.0e-3
PROBE_INTERVAL_S = 0.01
_NEIGHBOURS = 3

_rng = np.random.default_rng(0)
_S = _rng.normal(size=(4, 4))
_S = _S @ _S.T + np.eye(4)
_V = _rng.normal(size=4)


class _Item:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def probe():
    """Seconds taken by a fixed mix of small numpy calls and Python objects."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(75):
        w = np.linalg.eigvalsh(_S)
        x = np.linalg.solve(_S, _V)
        y = _S @ x
        acc += float(w[0]) + float(y @ x) + _Item(i).value
    return time.perf_counter() - t0


class HostClock:
    """Probes taken between operations, and the scale factor for any interval."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def tick(self, force=False):
        """Probe between operations.

        One probe when the last one ended PROBE_INTERVAL_S ago or more; a
        burst of _NEIGHBOURS probes after a long gap (a long operation) or
        when forced, so that long operations are bracketed on both sides.
        """
        now = time.perf_counter()
        gap = now - self.starts[-1] - self.durations[-1] if self.starts else float("inf")
        if force or gap >= _NEIGHBOURS * PROBE_INTERVAL_S:
            count = _NEIGHBOURS
        elif gap >= PROBE_INTERVAL_S:
            count = 1
        else:
            return
        for _ in range(count):
            self.starts.append(time.perf_counter())
            self.durations.append(probe())

    def factor(self, t0, t1):
        """REFERENCE_PROBE_S over the mean of the probes around [t0, t1]."""
        before = bisect.bisect_right(self.starts, t0)
        after = bisect.bisect_left(self.starts, t1)
        near = self.durations[max(0, before - _NEIGHBOURS):before]
        near += self.durations[after:after + _NEIGHBOURS]
        return REFERENCE_PROBE_S / statistics.fmean(near)

    def scaled(self, t0, t1):
        return (t1 - t0) * self.factor(t0, t1)

    def summary_ms(self):
        d = sorted(self.durations)
        return {
            "probes": len(d),
            "median": 1e3 * statistics.median(d),
            "min": 1e3 * d[0],
            "max": 1e3 * d[-1],
        }
