"""Host speed, sampled while a workload runs, so that times can be reported
at one fixed reference speed.

On a shared host the speed of a core changes by as much as 1.7x from one
few-second stretch to the next, and CPU time changes with it.  So a worker
interrupts itself every INTERVAL_S seconds (SIGALRM) and times a fixed
pure-Python kernel that does not touch copa: small and big integer
arithmetic, method calls, list, dict and tuple work, sorting: the kinds of
work copa does.
A measured stretch of time is then reported as

    reference seconds = (wall time - sampling time inside it)
                        * REF_KERNEL_S / median kernel time around it

that is, the time the same work takes on a host that runs the kernel in
REF_KERNEL_S.  copa's own speed does not enter the kernel, so a slower copa
reads slower in full.  The sampling time is taken out of every interval the
benchmark measures, so it is not charged to copa.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Median kernel time on the host the benchmark was defined on (2-vCPU x86
# VM, Python 3.11.7).
REF_KERNEL_S = 0.0030
INTERVAL_S = 0.08
# Samples this far either side of an interval count towards its speed, so
# even a 1 ms interval is judged by about six samples.  Wider windows follow
# the host's changes of speed less closely and measured steadier runs worse.
PAD_S = 0.25


class _Cell:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def plus(self, y):
        return self.x + y


def kernel() -> int:
    """About 2 ms of mixed work.  Each part alone follows copa's speed less
    closely than their sum does: the bytecode-heavy parts swing more than
    copa on a busy host, the sort and set part less."""
    acc = [0] * 64
    seen = {}
    for i in range(2000):
        j = i & 63
        acc[j] = (acc[j] + i * 7) % 1000003
        seen[(j, i & 7)] = acc[j]
    total = sum(acc) + len(seen)
    for i in range(800):
        total += _Cell(i).plus(i) + len([j for j in range(4)])
    a, b = 3 ** 900, 7 ** 800
    for i in range(80):
        total += (a * b + i) % 1000000007
        a += b
    v = [(i * 7919) % 1009 for i in range(6000)]
    t = tuple(sorted(v))
    return total + len(set(t)) + sum(t[::7])


def kernel_time() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


class SpeedSampler:
    """Times the kernel every INTERVAL_S seconds while active.

    A sample runs inside a signal handler, so it never overlaps the start or
    end of an interval measured by the interrupted code: it falls wholly
    inside or wholly outside, and clean() removes it exactly."""

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._spent: list[float] = [0.0]  # sampling time before sample i

    def _sample(self, *_):
        # The kernel frees all it allocates; with the collector off it does
        # not trigger collections of the workload's heap either.
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        kernel()
        cost = time.perf_counter() - t
        if enabled:
            gc.enable()
        self.starts.append(t)
        self.costs.append(cost)
        self._spent.append(self._spent[-1] + cost)

    def __enter__(self):
        kernel()  # warm
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def clean(self, t: float) -> float:
        """Time t on a clock that stands still while sampling."""
        return t - self._spent[bisect.bisect_left(self.starts, t)]

    def factor(self, t0: float, t1: float) -> float:
        """REF_KERNEL_S over the median kernel time around [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - PAD_S)
        hi = bisect.bisect_right(self.starts, t1 + PAD_S)
        near = self.costs[lo:hi] or self.costs
        return REF_KERNEL_S / statistics.median(near)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] of the interrupted code, sampling taken
        out, in reference seconds.  A long interval is cut at the samples
        inside it and each piece scaled by the speed around that piece, so
        the host may change speed within it."""
        lo = bisect.bisect_right(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        cuts = [t0, *self.starts[lo:hi], t1]
        return sum((self.clean(b) - self.clean(a)) * self.factor(a, b)
                   for a, b in zip(cuts, cuts[1:]))

    def run_factor(self) -> float:
        return REF_KERNEL_S / statistics.median(self.costs)


def bracket_factor(samples: int = 5) -> float:
    """REF_KERNEL_S over the median of a few kernel times taken now, for
    intervals measured without a sampler (another process doing the work)."""
    kernel()
    return REF_KERNEL_S / statistics.median(kernel_time() for _ in range(samples))
