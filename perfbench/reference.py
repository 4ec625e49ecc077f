"""Host-speed references that make timings comparable across speed regimes.

Shared hosts switch between speed regimes that last tens of seconds and
differ by up to 1.5x. Timing a fixed reference task right before and right
after a measured region gives the host speed during it, and the benchmark
scales every raw time to the reference's nominal duration. Two references
exist because the regimes move different kinds of work by different factors:

- the loop reference, fixed pure-Python arithmetic, tracks in-process work;
- the process reference, a fresh interpreter that imports numpy, timed from
  the parent, tracks work made of interpreter start-up and imports.

Neither touches owcsim, so a faster owcsim lowers a normalised time one for
one.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from typing import Callable

LOOP_NOMINAL_S = 0.010
LOOP_ITERATIONS = 30_000
PROCESS_NOMINAL_S = 0.200


def loop_seconds() -> float:
    """Wall seconds of one pass of the reference loop."""
    start = time.perf_counter()
    total = 0.0
    for i in range(LOOP_ITERATIONS):
        x = (i % 97) * 0.013
        total += math.sqrt(x + 1.0) * math.erf(x) / (1.0 + x * x)
    return time.perf_counter() - start


def process_seconds(env: dict) -> float:
    """Wall seconds to start an interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60
    )
    return time.perf_counter() - start


class HostSpeed:
    """Times regions between reference passes and scales them afterwards.

    One pass ends a region and begins the next, so back-to-back regions
    cost one pass each. A region's scale comes from the mean of the passes
    on either side of it.
    """

    def __init__(self, reference: Callable[[], float], nominal_s: float) -> None:
        self.reference = reference
        self.nominal_s = nominal_s
        self.passes: list[float] = []
        self._fresh = False

    def timed(self, fn: Callable, *args):
        """Return fn(*args), its raw seconds, and the index of the pass before it."""
        if not self._fresh:
            self.passes.append(self.reference())
        before = len(self.passes) - 1
        self._fresh = False
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        self.passes.append(self.reference())
        self._fresh = True
        return result, seconds, before

    def scale(self, before: int) -> float:
        """Factor from raw seconds to seconds at nominal speed for a region."""
        return self.nominal_s / ((self.passes[before] + self.passes[before + 1]) / 2.0)
