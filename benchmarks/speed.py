"""CPU time, and a gauge that scales it to a reference machine speed.

The benchmark's host is a share of a busy machine.  Its wall-clock speed
swings by a factor of two within minutes, mostly while the CPU is taken
from the process; ``cpu_seconds`` leaves those gaps out.  What is left
still drifts by 20-40 % in phases of seconds to minutes, as other tenants
contend for the core's caches and memory, and it slows the program's
numpy work and a Python interpreter's start-up alike.  So ``Gauge`` times
``kernel``, a fixed piece of work of the kinds the program does most,
between the timed calls, once for every ``PERIOD`` seconds of calls.  The
kernel has three parts of about equal time: complex matrices updated
through index arrays, as in the Jacobi sweeps, at a size where numpy's
per-call overhead dominates (40) and one larger than the core's own caches
(256), and a pure-Python loop.  Timed apart during runs of certificates,
these three each followed the certificates' slowdowns better than a
128-dimensional update did, and together they cut the spread of the
certificates' times over 30-op windows from 0.108 to 0.039 (IQR of the
window means of log time).

Each call's CPU time is scaled by ``REFERENCE_MS`` over the mean of the
kernel's median timings just before and just after it: the call's time on
a machine where the kernel takes ``REFERENCE_MS``.  The kernel touches no toepbrack
code, so a change to the program moves the scaled times as it moves the
raw ones.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

#: The kernel's CPU time, in ms, on the 2-core machine of the reference figures.
REFERENCE_MS = 7.0
#: CPU seconds of timed calls per kernel timing.
PERIOD = 0.2
#: Most kernel timings taken in one go, after a long call.
MAX_AT_ONCE = 16

#: (dimension, sweeps) of each matrix; each takes about a third of the kernel.
_SWEEPS = ((40, 45), (256, 1))
#: Iterations of the Python loop, the last third of the kernel.
_LOOP = 13500


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and by its subprocesses that have ended.

    The program is single-threaded (BLAS/OpenMP pinned to one thread) and
    every timed call runs either in this process or as one subprocess that
    has been waited for, so a call's CPU time is its latency on an
    otherwise idle core.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _hermitian(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


_rng = np.random.default_rng(0)
_MATRICES = {dim: _hermitian(_rng, dim) for dim, _ in _SWEEPS}


def kernel() -> None:
    """Rotation-like updates of complex matrices of dimension 40 and 256, and a Python loop."""
    for dim, sweeps in _SWEEPS:
        h = _MATRICES[dim].copy()
        ps, qs = np.arange(0, dim, 2), np.arange(1, dim, 2)
        for _ in range(sweeps):
            piv = h[ps, qs]
            mag = np.abs(piv) + 1.0
            c = 1.0 / np.hypot(1.0, mag)
            cols_p = h[:, ps].copy()
            cols_q = h[:, qs].copy()
            h[:, ps] = c * cols_p - (piv / mag * c) * cols_q
            h[:, qs] = c * cols_q + (np.conj(piv) / mag * c) * cols_p
            h *= 0.7
    table: dict[int, float] = {}
    for i in range(_LOOP):
        table[i % 97] = table.get(i % 97, 0.0) + 0.5 * i


def sample_ms() -> float:
    """The shorter CPU time of two kernel calls in a row, in ms.

    The first call after a timed call often finds its arrays evicted from
    the caches; the shorter of two reads the speed of the machine rather
    than the state the call left behind.
    """
    times = []
    for _ in range(2):
        t0 = cpu_seconds()
        kernel()
        times.append(cpu_seconds() - t0)
    return 1e3 * min(times)


class Gauge:
    """Kernel timings between timed calls, and the calls scaled to reference speed.

    After calls that add up to ``PERIOD`` seconds or more, the kernel is
    timed once per ``PERIOD`` (at most ``MAX_AT_ONCE`` times); ``blocks``
    holds the median of each such group of timings.
    """

    def __init__(self):
        kernel()  # warm up: the first call pays for numpy's lazy set-up
        self.samples: list[float] = []
        self.blocks: list[float] = []
        self._calls: list[tuple[int, float]] = []
        self._unsampled = 0.0
        self._block(1)

    def add(self, seconds: float) -> None:
        """Record a call of ``seconds`` CPU seconds that has just ended; time the kernel if due."""
        self._calls.append((len(self.blocks), seconds))
        self._unsampled += seconds
        if self._unsampled >= PERIOD:
            self._block(min(int(self._unsampled / PERIOD), MAX_AT_ONCE))

    def _block(self, count: int) -> None:
        timings = [sample_ms() for _ in range(count)]
        self.samples += timings
        self.blocks.append(statistics.median(timings))
        self._unsampled = 0.0

    def scaled(self) -> list[float]:
        """The calls recorded since the last ``scaled``, in order, at reference speed."""
        if self._calls and self._calls[-1][0] == len(self.blocks):
            self._block(max(1, min(int(self._unsampled / PERIOD), MAX_AT_ONCE)))
        out = [
            seconds * 2 * REFERENCE_MS / (self.blocks[after - 1] + self.blocks[after])
            for after, seconds in self._calls
        ]
        self._calls = []
        return out
