"""How fast the CPU runs Python right now, to turn seconds into steadier seconds.

The virtual CPUs this benchmark was tuned on change speed by up to 1.8x,
for stretches from under a second to tens of seconds (another tenant on the
same core), which no median over a few passes averages away.  So while a
pass runs, a background thread times a small fixed kernel every PERIOD_S
seconds, and each query's seconds are multiplied by the kernel's reference
time over its median time during the query (during the whole pass for a
query too short to hold MIN_SAMPLES kernel runs): the time the query would
take with the kernel at its reference time.  The worker pins itself to one
CPU first; otherwise the probe thread may time the other CPU.

The kernels do the kinds of work the library spends its time in (Fraction
arithmetic, dict relabelling, list-indexed recursion) and use only the
standard library, so a change to ribboncalc moves the scaled seconds as it
moves the raw ones.  Contention slows different code by different factors,
so scaling narrows the run-to-run spread but does not remove it.
"""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from statistics import median
from time import perf_counter

PERIOD_S = 0.2
MIN_SAMPLES = 3


def _mixed():
    """Fraction sums, dict relabelling and list-indexed loops."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
    sigma = {i: (i * 7 + 3) % 601 for i in range(601)}
    for _ in range(8):
        relabel = {}
        for x in sigma:
            relabel[sigma[x]] = len(relabel)
        code = tuple(relabel[sigma[x]] for x in sigma)
    parent = list(range(4000))
    for i in range(1, 4000):
        parent[i] = parent[(i * 5) // 7]
    return acc, code


def _pairings():
    """Count one-face matchings of two 5-cycles by recursion over a partner list."""
    n = 10
    rot = [(i + 1) % 5 + 5 * (i // 5) for i in range(n)]
    partner = [-1] * n
    count = 0

    def go(lo):
        nonlocal count
        while lo < n and partner[lo] >= 0:
            lo += 1
        if lo == n:
            seen = [False] * n
            faces = 0
            for s in range(n):
                if not seen[s]:
                    faces += 1
                    x = s
                    while not seen[x]:
                        seen[x] = True
                        x = rot[partner[x]]
            count += faces == 1
            return
        for y in range(lo + 1, n):
            if partner[y] < 0:
                partner[lo], partner[y] = y, lo
                go(lo + 1)
                partner[lo] = partner[y] = -1

    go(0)
    return count


# kernel per workload and its time in seconds on the tuning machine (Intel
# Xeon 2.0 GHz vCPU, Python 3.11.7) in its fast state.  The pairing search
# that dominates euler slows about 1.2x under contention where the mixed
# kernel slows about 1.5x, so euler times a search of the same kind.
KERNELS = {"euler": (_pairings, 0.0023)}
DEFAULT_KERNEL = (_mixed, 0.0027)


def time_kernel(workload) -> float:
    kernel, _ = KERNELS.get(workload, DEFAULT_KERNEL)
    start = perf_counter()
    kernel()
    return perf_counter() - start


def reference(workload) -> float:
    return KERNELS.get(workload, DEFAULT_KERNEL)[1]


def speed(workload, samples=25) -> float:
    """Reference seconds per second now, from back-to-back kernel runs."""
    return reference(workload) / median(time_kernel(workload) for _ in range(samples))


class SpeedProbe:
    """Times the workload's kernel every PERIOD_S seconds on a background thread.

    The switch interval is raised while it runs, so the query thread does not
    preempt a kernel run, and restored on exit.
    """

    def __init__(self, workload):
        self.workload = workload
        self.samples = []  # (start, seconds) of each kernel run
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._interval = None

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            start = perf_counter()
            self.samples.append((start, time_kernel(self.workload)))

    def __enter__(self):
        self._interval = sys.getswitchinterval()
        sys.setswitchinterval(0.05)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._interval)

    def speed(self, start=None, end=None) -> float:
        """Reference seconds per second between start and end, if MIN_SAMPLES
        kernel runs fall there, else over the probe's life (else back-to-back)."""
        inside = [t for s, t in self.samples if start is not None and start <= s and s + t <= end]
        if len(inside) >= MIN_SAMPLES:
            return reference(self.workload) / median(inside)
        if self.samples:
            return reference(self.workload) / median(t for _, t in self.samples)
        return speed(self.workload)
