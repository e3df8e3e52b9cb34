"""Timings at a reference machine speed.

The 2-vCPU VM this benchmark was set up on runs interpreter-bound code up to
1.7x slower at some times than at others, in states that last from a fraction
of a second to tens of seconds, whatever the measured process does (see
README.md, "Noise"). A wall time alone then says more about the machine's
state than about the program. So while an operation runs, a timer interrupts
it every TICK_S seconds to time a fixed unit of calibration work, of the
kind gallaikit spends its time in; a few units also run right before and
right after it. The operation's wall time, less the time spent in
calibration, is rescaled by how long the units took:

    scaled = (wall - calibration) * UNIT_REF_S / mean(unit times)

A scaled time is in seconds at the speed where one unit takes UNIT_REF_S; on
this VM that is about its usual speed. The calibration work is fixed
benchmark code, so a faster program gives a proportionally smaller scaled
time.
"""
from __future__ import annotations

import signal
import time

UNIT_REF_S = 0.0002     # one calibration unit at the reference speed
TICK_S = 0.025          # interval of the calibrations during an operation
BRACKET_UNITS = 8       # units right before and right after each operation


def _partitions(i: int, blocks: list[list[int]]) -> int:
    """Number of ways to place elements i..6 into blocks, or into new ones."""
    if i == 7:
        return 1
    total = 0
    for b in blocks:
        b.append(i)
        total += _partitions(i + 1, blocks)
        b.pop()
    blocks.append([i])
    total += _partitions(i + 1, blocks)
    blocks.pop()
    return total


def unit() -> float:
    """Wall time of one unit of calibration work: counting the 877 set
    partitions of a 7-element set by recursion. Function calls, loops and
    list updates are what gallaikit's hot loops spend their time on, its
    numpy calls included (they are on short rows, so the interpreter's
    overhead outweighs the arithmetic)."""
    t0 = time.perf_counter()
    _partitions(0, [])
    return time.perf_counter() - t0


def calibrate(units: int = 40) -> float:
    """Mean wall time of a unit over the given number of units."""
    return sum(unit() for _ in range(units)) / units


class Clock:
    """Times calls at the reference speed. Not reentrant: it owns SIGALRM
    and the real-time interval timer while a call runs."""

    def __init__(self):
        calibrate()                     # warm-up
        self.units: list[float] = []    # every unit timed, for the log

    def _tick(self, signum, frame) -> None:
        self._during.append(unit())

    def time(self, fn) -> tuple[float, float]:
        """Runs fn(); returns its time at the reference speed and its wall
        time less the calibrations made during it."""
        before = [unit() for _ in range(BRACKET_UNITS)]
        self._during: list[float] = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        during = self._during
        units = before + during + [unit() for _ in range(BRACKET_UNITS)]
        self.units += units
        seconds = wall - sum(during)
        return seconds * UNIT_REF_S * len(units) / sum(units), seconds
