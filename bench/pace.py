"""Host speed, from a fixed reference task timed between requests.

The speed of the host this benchmark was built on drifts by up to 2x, for
seconds to minutes, with the load of other tenants.  Requests slow down with
it, and so does a fixed numpy Sturm-type recurrence of the kind the kernels
run.  Over 20 s windows, raw request times spread 0.19-0.22 (quartile
distance over median), and their ratios to the reference time spread
0.03-0.04.  So end-to-end timings are reported at a reference host speed:
a latency times ``REFERENCE_S`` over the reference time measured around it.
A program that does more work still reads slower in full; a host that runs
faster for a while does not read as a faster program.
"""

import time

import numpy as np

# The reference task's time at the reference host speed: close to its median
# on the machine whose figures the README gives.  Changing it rescales every
# end-to-end timing, so it is fixed.
REFERENCE_S = 0.008

# Request time between two reference samples.
SAMPLE_EVERY_S = 0.25

_N, _K = 1000, 200
_DIAG = np.cos(np.arange(_N, dtype=float))
_OFF2 = 1.5 + np.sin(np.arange(_N, dtype=float))
_SHIFTS = np.linspace(-2.5, 2.5, _K)


def reference_task():
    """Sturm counts of a fixed tridiagonal matrix at fixed shifts, vectorized."""
    p = _DIAG[0] - _SHIFTS
    count = (p < 0.0).astype(np.int64)
    for i in range(1, _N):
        p = _DIAG[i] - _SHIFTS - _OFF2[i - 1] / p
        p = np.where(p == 0.0, 1e-300, p)
        count += p < 0.0
    return count


def time_reference():
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


class Pacer:
    """Reference timings taken between the requests of one round."""

    def __init__(self):
        self.samples = []  # (index of the request that follows, seconds)
        self._since = SAMPLE_EVERY_S

    def before(self, i):
        """Time the reference before request ``i`` once ``SAMPLE_EVERY_S`` of
        request time has passed since the last sample (and before the first)."""
        if self._since >= SAMPLE_EVERY_S:
            self.samples.append((i, time_reference()))
            self._since = 0.0

    def ran(self, latency):
        self._since += latency

    def scaled(self, latencies):
        """``latencies`` at the reference speed.  Each is scaled by the mean
        of the reference timings just before and just after its request."""
        self.samples.append((len(latencies), time_reference()))
        out, k = [], 0
        for i, latency in enumerate(latencies):
            while self.samples[k + 1][0] <= i:
                k += 1
            ref = 0.5 * (self.samples[k][1] + self.samples[k + 1][1])
            out.append(latency * REFERENCE_S / ref)
        return out
