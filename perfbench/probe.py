"""Machine-speed probe: a fixed reference kernel timed between jobs.

The benchmark host is a shared virtual machine whose speed switches
between regimes: the same work takes up to 1.7x longer for tens of
seconds at a time.  Measured on a 2-vCPU Xeon VM, the wall time of 400
split-corpus calls had a coefficient of variation of 0.18 across such
switches, and 0.06 once divided by the time of a reference kernel like
this one taken just before (both averaged over blocks of ten).  Over ten
runs per workload, the spread (IQR / median) of the job-time metrics was
up to 0.22 raw and at most 0.08 scaled.  So every job time is reported
at reference speed:

    reported = measured * REFERENCE_S / (kernel time just before the job)

The kernel mixes what the workloads do (Python bytecode, dict and str
work, small complex LAPACK calls, JSON encoding) and calls no ncframes
code, so a change to ncframes cannot move it.  REFERENCE_S is the
kernel's time in the fast regime of that VM; reported times are close to
raw times there.  Raw times are printed beside them in the details line.
"""

from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_S = 0.0030

_BLOCKS = [
    a + 1j * b
    for a, b in np.random.default_rng(0).standard_normal((40, 2, 8, 8))
]


def kernel() -> float:
    """Seconds taken by one pass of the fixed reference work."""
    start = time.perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    table = {i: str(i) for i in range(1000)}
    for a in _BLOCKS:
        np.linalg.svd(a, compute_uv=False)
        np.einsum("ij,jk->ik", a, a)
        json.dumps(a.real.ravel().tolist())
    return time.perf_counter() - start


class SpeedProbe:
    """Re-times the kernel when a job starts and `every_s` has passed."""

    def __init__(self, every_s: float = 0.2):
        self.every_s = every_s
        self.scale = 1.0
        self._last = float("-inf")
        kernel()  # the first pass pays one-time numpy set-up

    def before_job(self) -> float:
        """The scale factor to apply to the job about to start."""
        if time.perf_counter() - self._last >= self.every_s:
            self.scale = REFERENCE_S / kernel()
            self._last = time.perf_counter()
        return self.scale
