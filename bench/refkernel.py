"""A fixed reference kernel that measures how fast the host runs right now.

This class of host runs the same code up to 1.8x slower in phases that
last from seconds to many minutes, one CPU at a time; a wall time alone
then says more about the neighbours than about the code.  The kernel is a
frozen copy of the shape of nslab's hot loops (bitmask sumset and colon on
small frozen dataclasses), kept here and never imported from src/, so a
change to nslab cannot move it.  Measured on one host, the raw time of an
nslab operation moved by 80% between the host's fast and slow phases, and
its time divided by the kernel's by 8% (verify suites) to 15% (tree walk),
because code slows by different amounts; run.py prefers the samples taken
while the host ran fastest for that reason.

:class:`HostSampler` gives the kernel's time while an operation runs over
REFERENCE_S, its time on the reference host in its fast phase; run.py
divides every time it reports by the factor measured during it, so the
figures read as seconds on that reference.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from dataclasses import dataclass

# one kernel run on the reference host (Intel Xeon, Sapphire Rapids class,
# 2 vCPUs, Python 3.11) in its fast phase
REFERENCE_S = 0.0029


@dataclass(frozen=True)
class _Ideal:
    lo: int
    mask: int

    def __post_init__(self) -> None:
        if not self.mask & 1:
            raise ValueError("least element must be a member")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sum(a: _Ideal, b: _Ideal, width: int) -> _Ideal:
    full = (1 << width) - 1
    w = 0
    for i in _bits(a.mask):
        w |= (b.mask << i) & full
    return _Ideal(a.lo + b.lo, w | 1)


def _colon(a: _Ideal, b: _Ideal, width: int) -> _Ideal:
    not_a = ~(a.mask | (((1 << (2 * width)) - 1) ^ ((1 << width) - 1)))
    w = 0
    for j in range(width):
        if (b.mask << j) & not_a == 0:
            w |= 1 << j
    return _Ideal(a.lo - b.lo, w | 1)


_IDEALS = [_Ideal(0, m | 1) for m in range(1, 1 << 12, 37)]


def kernel() -> int:
    acc = 0
    for a in _IDEALS[:40]:
        for b in _IDEALS[:12]:
            acc ^= _sum(a, b, 24).mask ^ _colon(a, b, 24).mask
    return acc


def kernel_seconds() -> float:
    """One kernel run's time, with the garbage collector off: the samples
    run inside the process being measured, and a collection they set off
    would be nslab's heap's work counted as the host's slowness."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Measures the host factor during a with-block: how much slower than
    REFERENCE_S the kernel runs, the median over three runs before the
    block, three after, and one every INTERVAL seconds inside it (from a SIGALRM
    handler, so the samples follow the host's speed while the block runs).
    ``spent`` is the time the handler took inside the block, which the
    caller subtracts from the block's wall time.  Main thread only.

    With ``cpus`` given, the block runs work in other processes on those
    CPUs, where a sample taken inside the block would compete with it: five
    runs before and five after are then made on each of the CPUs, and none
    inside."""

    INTERVAL = 0.1

    def __init__(self, cpus=None) -> None:
        self.cpus = cpus
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        dt = kernel_seconds()
        self.samples.append(dt)
        self.spent += dt

    def _edge(self) -> None:
        if self.cpus is None:
            self.samples += [kernel_seconds() for _ in range(3)]
            return
        mask = os.sched_getaffinity(0)
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                self.samples += [kernel_seconds() for _ in range(5)]
        finally:
            os.sched_setaffinity(0, mask)

    def __enter__(self) -> "HostSampler":
        self._edge()
        if self.cpus is None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        if self.cpus is None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._edge()

    @property
    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_S


def fastest_cpu(cpus) -> int:
    """The CPU on which the kernel runs fastest right now; leaves this
    process pinned to it."""
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = min(kernel_seconds() for _ in range(2))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[1]
