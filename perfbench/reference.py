"""Fixed reference slices, timed after every operation to track host speed.

Host speed on shared machines drifts by tens of percent, in stretches of a
second or more (the same pure-Python loop runs 47 to 71 times a second on
the host this was built on).  A slice is a few milliseconds of fixed work in
code that is not the package's, of the same kind as the workload's
operations, so it slows with them:

- ``interpreter`` (in-process workloads): an interpreter loop and a loop of
  small einsum convolutions.  Against pass times over 90 s, these tracked the
  drift best (log-log correlation 0.93 to 0.95, slope 0.9 to 1.06); FFTs,
  LAPACK solves and a streaming sum tracked it worse.
- ``subprocess`` (the cli workload, whose operations are subprocesses): one
  ``python -S -c pass``.  The interpreter slice did not track CLI passes at
  all (correlation 0.14); this one did (0.81).

``speed`` turns a pass's mean slice time into a factor against the slice's
nominal time.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

NOMINAL_S = {"interpreter": 0.0025, "subprocess": 0.015}
KIND = {"cli": "subprocess"}  # every other workload runs in process

_B = np.random.default_rng(0).standard_normal((64, 6, 6))


def _interpreter() -> None:
    acc = 0.0
    for i in range(24_000):
        acc += (i % 7) * 0.5
    out = np.zeros((40, 6, 6))
    for i in range(12):
        out[i : i + 16] += np.einsum("rn,tnc->trc", _B[i], _B[:16])


def _subprocess() -> None:
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


class Reference:
    """The slice for one workload and the host speed it measures."""

    def __init__(self, workload: str):
        self.kind = KIND.get(workload, "interpreter")
        self._run = _subprocess if self.kind == "subprocess" else _interpreter

    def timed(self) -> float:
        """Wall time of one slice."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def speed(self, slice_times: list[float]) -> float:
        """Host slowness during a pass: mean slice time over the nominal one."""
        return sum(slice_times) / len(slice_times) / NOMINAL_S[self.kind]
