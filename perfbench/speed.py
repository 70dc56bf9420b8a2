"""Speed of the benchmark's CPU while a child runs, to normalise its times.

The benchmark's host is shared: other work on the same physical core makes
the CPU up to 70 % slower, in phases that last from seconds to minutes.  On
a 2-vCPU Xeon sandbox the same ``seed`` child took 8.3 s in one phase and
12.9 s in another, in CPU time as much as in wall time.  Raw times spread
more across runs than any bound a regression check could use.

A sampler process shares the children's CPU.  Every ``PERIOD_S`` it runs a
fixed pure-Python kernel and records when it ran and the CPU time it took.
The kernel does integer arithmetic in a loop, then splits and parses the
next ``LINES_PER_RUN`` lines of a table too large to stay in the caches
between visits, much as the package parses coefficient files.
A child's speed factor is ``REFERENCE_NS`` over the mean kernel cost while
the child ran; the driver multiplies the child's times by it, which gives
seconds at the speed at which the kernel costs ``REFERENCE_NS``.  On the
sandbox above, over 13 children of each workload, this cut the spread (IQR
over median) of single children from 16-25 % to 3-7 %; the arithmetic
alone tracked the file-parsing ``density`` children worse (15 %).

The sampler and the children never run at once, and the lines the kernel
parses are cold on every visit, so the factor follows the host, not what
the program under test left in the caches.  The sampler takes about 1 % of
the CPU.

Run as ``python3 speed.py OUT PARENT_PID`` this file is the sampler: it
appends ``<perf_counter> <cost ns>`` lines to OUT and exits when it is no
longer the child of PARENT_PID.  ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, the same clock in every
process, so the driver can compare its own timestamps with these.
"""

from __future__ import annotations

import bisect
import os
import random
import statistics
import subprocess
import sys
import time

#: seconds between kernel runs
PERIOD_S = 0.05
#: kernel cost (CPU ns) at which normalised seconds equal raw seconds: the
#: median cost on the sandbox above
REFERENCE_NS = 300_000
#: lines of the parsed table, and lines parsed per kernel run: a sweep of the
#: table takes TABLE_LINES / LINES_PER_RUN * PERIOD_S = 100 s
TABLE_LINES = 300_000
LINES_PER_RUN = 150
#: a child's factor averages at least this many samples, the nearest ones
#: to the child when it was too short to span them
MIN_SAMPLES = 20


def table():
    rnd = random.Random(0)
    return [f"{n} {rnd.randint(-10**6, 10**6)}" for n in range(TABLE_LINES)]


def kernel(lines, start):
    total = 0
    for i in range(2000):
        total += i * i % 7
    for line in lines[start:start + LINES_PER_RUN]:
        _, value = line.split()
        total += int(value)
    return total


def sample_forever(out_path, parent):
    lines = table()
    start = 0
    with open(out_path, "a", encoding="ascii") as out:
        while os.getppid() == parent:
            started = time.process_time_ns()
            kernel(lines, start)
            cost = time.process_time_ns() - started
            start = (start + LINES_PER_RUN) % (TABLE_LINES - LINES_PER_RUN)
            out.write(f"{time.perf_counter():.6f} {cost}\n")
            out.flush()
            time.sleep(PERIOD_S)


class Sampler:
    """The sampler process, started on entry and stopped on exit."""

    def __init__(self, path):
        self.path = path
        self.times, self.costs = [], []
        self._offset = 0
        self._proc = None

    def __enter__(self):
        self.path.touch()
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.path), str(os.getpid())],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        # the first sample comes once the table is built; children wait for it
        deadline = time.monotonic() + 10.0
        while self.path.stat().st_size == 0 and time.monotonic() < deadline:
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._proc.kill()
        self._proc.wait()

    def _read(self):
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            data = fh.read()
        whole = data.rfind(b"\n") + 1
        self._offset += whole
        for line in data[:whole].splitlines():
            at, cost = line.split()
            self.times.append(float(at))
            self.costs.append(int(cost))

    def factor(self, start, end):
        """REFERENCE_NS over the mean kernel cost between ``start`` and ``end``
        (perf_counter seconds), widened to the nearest MIN_SAMPLES samples."""
        deadline = time.monotonic() + 10 * MIN_SAMPLES * PERIOD_S
        self._read()
        while len(self.times) < MIN_SAMPLES and time.monotonic() < deadline:
            time.sleep(PERIOD_S)
            self._read()
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        if hi - lo < MIN_SAMPLES:
            raise RuntimeError(f"speed sampler wrote {len(self.times)} samples, fewer than {MIN_SAMPLES}")
        return REFERENCE_NS / statistics.fmean(self.costs[lo:hi])


if __name__ == "__main__":
    sample_forever(sys.argv[1], int(sys.argv[2]))
