"""Host-speed probe: fixed kernels timed at a steady wall-clock rate while the
program runs, so that a timing can be rescaled to a reference host speed.

The host is a virtual machine that shares its cores; the same solver call
speeds up and slows down by a third within seconds.  A probe taken only
before and after a unit misses most of that.  ``HostProbe.sampling`` instead
runs the kernels from a SIGALRM handler every ``interval`` seconds of wall
time, so the probes fall uniformly over the timed interval and their mean is
the interval's time-weighted slowdown.

Each kernel imitates one kind of work and uses none of the program's code, so
a change to the program moves the timing, never the probe.  Each probe runs
the kernel once untimed and once timed, so the timed run finds its data in
cache whatever the program left there.  Which kernels track a workload best
was measured (README.md): ``rows`` for the loop-bound diffusion solver,
``stream`` for the memory-bound Burgers solver, both for the oracle's
diffusion solves on arrays far larger than L2, ``python`` for set-up, which
is imports.  This module imports numpy only when an array kernel is used, so
that set-up can be probed from its first import on.
"""

import functools
import math
import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.05


def python_kernel() -> float:
    """Seconds of a pure-Python loop, like the interpreter work of imports."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1500):
        s += i * i % 7
    return time.perf_counter() - t0


@functools.cache
def _arrays():
    import numpy as np

    matrix = np.linspace(1.0, 2.0, 24 * 2048).reshape(24, 2048)
    # 3 MiB each, together more than L2; under 4 MiB, numpy asks for no huge
    # pages, whose availability would change the kernel's speed per process
    stream = np.linspace(0.0, 1.0, 3 << 17)
    return np, matrix, np.empty_like(matrix), stream, np.empty_like(stream)


def rows_kernel() -> float:
    """Seconds of a Python loop of row operations on a small matrix, like a
    Thomas sweep over the rows of a batch."""
    _, matrix, sweep, _, _ = _arrays()
    t0 = time.perf_counter()
    for _ in range(4):
        sweep[0] = matrix[0]
        for i in range(1, matrix.shape[0]):
            sweep[i] = matrix[i] * 0.5 + 0.25 * sweep[i - 1]
    return time.perf_counter() - t0


def stream_kernel() -> float:
    """Seconds of two passes over arrays larger than L2 together, like a
    Godunov step; it allocates nothing, so no page faults."""
    np, _, _, stream, out = _arrays()
    t0 = time.perf_counter()
    np.multiply(stream, 0.5, out=out)
    np.sqrt(out, out=out)
    return time.perf_counter() - t0


# kernel, and its median time as a probe on the reference host (see
# README.md): a rescaled timing reads as the seconds the work would take there
KERNELS = {"python": (python_kernel, 1.4e-4),
           "rows": (rows_kernel, 7.5e-4),
           "stream": (stream_kernel, 1.1e-3)}


class HostProbe:
    def __init__(self, kernels: tuple, interval: float = INTERVAL_S):
        self.kernels = [KERNELS[k] for k in kernels]
        self.interval = interval
        self.probes: list = []      # (start, end, seconds of each kernel) of each probe
        for kernel, _ in self.kernels:
            kernel()                # builds the arrays outside the probes

    def _fire(self, signum, frame):
        start = time.perf_counter()
        seconds = []
        for kernel, _ in self.kernels:
            kernel()                # warm-up, untimed
            seconds.append(kernel())
        self.probes.append((start, time.perf_counter(), seconds))

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def paused(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent in probes."""
        return sum(max(0.0, min(e, end) - max(s, start)) for s, e, _ in self.probes)

    def slowdown(self, start: float, end: float) -> float:
        """Geometric mean over the kernels of their mean time in the probes
        in [start, end] over their nominal time."""
        inside = [k for s, e, k in self.probes if s >= start and e <= end]
        if not inside:
            raise ValueError("no probe fell inside the interval")
        ratios = [sum(k[j] for k in inside) / len(inside) / nominal
                  for j, (_, nominal) in enumerate(self.kernels)]
        return math.prod(ratios) ** (1.0 / len(ratios))
