"""Timings scaled to a reference host speed.

On a shared host the same pure-Python code runs up to half again as slow
from one second to the next and from one minute to the next, as other
tenants load the machine.  A bare wall-clock time then measures the
neighbours as much as the program.  `Clock` therefore samples the host's
speed while a timed region runs: a timer interrupts the region every
INTERVAL seconds and runs a small fixed kernel of the benchmark's own,
written like arithjet's inner loops (p-adic-sized integers reduced
modulo p^M, a dict of monomials).  The region's wall time less the time
spent in the kernel, times REF_KERNEL_S over the kernel's mean time, is
the time the region would have taken had the host run at the speed at
which the kernel takes REF_KERNEL_S.  A change to arithjet moves the
region's time and not the kernel's, so it shows in full; a slowdown of
the host moves both, so it cancels.

Only a process that does nothing else while a region runs may use a
Clock: it owns SIGALRM for that time.
"""

import signal
import time

INTERVAL = 0.01
# The kernel's mean time on the reference host (a shared 2-vCPU Intel Xeon
# Linux VM, CPython 3.11.7) when other load was light, so that scaled
# times read about as that host's wall times.
REF_KERNEL_S = 0.0003

_MOD = 5 ** 35


def kernel(n: int = 400) -> int:
    x, acc, monomials = 1234567891234567, 0, {}
    for i in range(n):
        x = (x * 1103515245 + 12345) % _MOD
        key = (i & 15, (i >> 4) & 15)
        monomials[key] = (monomials.get(key, 0) + x * acc) % _MOD
        acc = (acc + x) % _MOD
    return acc


class Clock:
    """Times a `with` block: `wall_s` is its wall time and `ref_s` its time
    at the reference speed, both with the kernel's own time taken out.  The
    kernel also runs once as the block starts and once as it ends, so a
    block shorter than INTERVAL is still sampled."""

    def __init__(self):
        self.kernel_s = 0.0
        self.samples = 0

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.kernel_s += time.perf_counter() - t0
        self.samples += 1

    def __enter__(self):
        kernel()  # warm
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self.start = time.perf_counter()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        self.wall_s = time.perf_counter() - self.start - self.kernel_s
        signal.signal(signal.SIGALRM, self._old)
        return False

    @property
    def ref_s(self) -> float:
        mean = self.kernel_s / self.samples
        return self.wall_s * REF_KERNEL_S / mean
