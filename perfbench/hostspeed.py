"""Host-speed normalization of measured times.

The shared 2-CPU VM this benchmark was tuned on changes speed by up to 1.5x
within minutes: a fixed pure-Python loop took 53 to 96 ms per one-second
bucket, and a fixed mix of library ops took 300 to 520 ms per iteration
within one minute.  No run length that fits the time budget averages that
out.  So a fixed reference is timed between ops, and each op's latency is
divided by the host's speed factor around it: the mean of the reference
times before and after the op, over the reference's nominal time.  Times
then read as on the reference host at its nominal speed; a change to the
library moves them, a slow phase of the host does not.  The raw times and
the factors stay in the run record.

In-process workloads use a CPU kernel.  Cold CLI calls are dominated by
interpreter start-up and imports, which the CPU kernel tracks worse than no
correction at all (CV of 8-call window means 0.076, against 0.065 raw), so
they use a cold interpreter that imports numpy (CV 0.017).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

_SOURCE = "\n".join(f"def f{i}(x):\n    return [x * {i} + j for j in range(10)]"
                    for i in range(40))


def _kernel():
    """The kinds of work the workloads do: Fraction arithmetic, tuple-keyed
    dicts, small numpy linear algebra, and compiling source (as imports do)."""
    import numpy as np

    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, i * i + 1)
    d = {}
    for i in range(2000):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + i
    m = np.eye(3) + 0.1
    for _ in range(150):
        m = np.linalg.inv(m) + 0.01
    compile(_SOURCE, "<kernel>", "exec")


def kernel_time():
    """Median of three timed runs of the CPU kernel after one untimed run
    (which pays for lazy initialization), in seconds."""
    _kernel()
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def spawn_time():
    """Wall time of a cold interpreter that imports numpy, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, fractions, json, numpy"],
                   check=True, capture_output=True, timeout=60,
                   env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return time.perf_counter() - t0


# (measure, its median seconds on the reference host, busy seconds between points)
CPU_KERNEL = (kernel_time, 0.0037, 0.5)
COLD_SPAWN = (spawn_time, 0.18, 1.5)


class Normalizer:
    """Collects raw op latencies and yields them at reference speed."""

    def __init__(self, reference):
        self.measure, self.nominal_s, self.interval_s = reference
        self.last = self.measure()
        self.pending = []
        self.since = 0.0
        self.normalized = []
        self.factors = []

    def add(self, seconds):
        self.pending.append(seconds)
        self.since += seconds
        if self.since >= self.interval_s:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        now = self.measure()
        factor = (self.last + now) / (2 * self.nominal_s)
        self.normalized.extend(x / factor for x in self.pending)
        self.factors.append(factor)
        self.pending, self.since, self.last = [], 0.0, now
