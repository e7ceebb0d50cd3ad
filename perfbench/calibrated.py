"""Host time scaled to a reference host speed.

On a shared machine the host's speed drifts by tens of percent over seconds
to minutes, for every process alike, so raw timings taken minutes apart do
not compare.  The benchmark therefore runs a fixed pure-Python kernel just
before and after every timed pass, and at regular intervals inside a
simulation, and scales the pass's host time by the kernel's reference time
over its mean time in that pass: the result is the time the pass would take
on the reference host.  Kernels run inside a pass are taken out of its time.
Raw host times are kept next to the scaled ones.

Contention from other tenants slows different kinds of work by different
amounts, so each pass is scaled by a kernel of its own kind: an arithmetic
loop for the simulation and the set-up path, float-to-text formatting for
the artifact phase, which is mostly ``write_csv`` turning floats into text,
and a CSV parse for the report rebuild, which mostly parses the CSV back
with ``np.loadtxt``.  On a contended 2-core host these text kernels
followed their phases two to five times as closely as the loop did.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

clock = time.perf_counter

CAL_ITERATIONS = 20_000
_rng = random.Random(0)
TEXT_ROWS = [[_rng.uniform(-400.0, 700.0) for _ in range(36)] for _ in range(60)]
CSV_LINES = 2 * [",".join(repr(c) for c in row) for row in TEXT_ROWS]


def loop_time() -> float:
    """An arithmetic loop."""
    t0 = clock()
    s = 0.0
    for i in range(CAL_ITERATIONS):
        s += i * 0.5
    return clock() - t0


def text_time() -> float:
    """Rows of floats formatted as ``write_csv`` formats them."""
    t0 = clock()
    for row in TEXT_ROWS:
        ",".join(repr(float(c)) for c in row)
    return clock() - t0


def parse_time() -> float:
    """Lines of floats parsed as ``pvisland report`` parses the CSV."""
    t0 = clock()
    np.loadtxt(CSV_LINES, delimiter=",")
    return clock() - t0


#: Each kernel's time on the reference host: 2.0 GHz Xeon vCPU, CPython 3.11.
REFERENCE_S = {loop_time: 1.5e-3, text_time: 1.95e-3, parse_time: 1.6e-3}


class Pass:
    """Calibration samples of one timed pass; the first ``ends`` are taken
    on creation, as many more when it finishes."""

    def __init__(self, kernel=loop_time, ends: int = 1):
        self.kernel = kernel
        self.ends = ends
        self.samples = [kernel() for _ in range(ends)]
        self.inside = 0.0   # seconds of kernels run inside the pass

    def probe(self):
        t0 = clock()
        self.samples.append(self.kernel())
        self.inside += clock() - t0

    def finish(self) -> float:
        """Takes the closing samples; returns the factor from raw to scaled time."""
        self.samples += [self.kernel() for _ in range(self.ends)]
        return REFERENCE_S[self.kernel] / statistics.fmean(self.samples)
