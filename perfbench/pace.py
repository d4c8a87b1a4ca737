"""Reference-speed clock for the benchmark's timings.

On a shared host the speed of the same code drifts by 20-50% over seconds to
minutes, for every operation at once, and no amount of work in one run
averages that out.  While a run measures, an interval timer (``SIGALRM``, so
no thread) runs a fixed slice of interpreter and small-array numpy work every
``INTERVAL_S``.  Each timed block's program time (wall time minus the slices)
is then scaled by ``REF_SLICE_S`` over the mean duration of the slices taken
during the block: the result is the block's time at the reference speed, the
speed at which a slice takes ``REF_SLICE_S``.  The slice does not call the
program, so a change to the program moves the scaled times by the same share
as the program time.

Use :func:`start` and :func:`stop` around the measured part of a run and
:class:`Timer` around each timed operation.  When the pacer is stopped, a
:class:`Timer` reports plain program time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Median slice duration on the machine the reference figures come from
# (2-core virtual machine, Python 3.11.7); it only fixes the unit.
REF_SLICE_S = 0.0007
INTERVAL_S = 0.025
# A block with fewer slices than this is scaled by the last MIN_SLICES taken,
# i.e. the ones during it and just before it.
MIN_SLICES = 4

_FIELDS = ("0.5", "1.25", "-3.75", "12.0625")
_COUNTS = [0] * 64
_A = np.linspace(-1.0, 1.0, 1024)
_B = np.cos(_A)
_C = np.empty_like(_A)
_M = np.eye(8) + 0.5
_V = np.ones(8)
_W = np.empty(8)

# The state is module-level because the interval timer and SIGALRM belong to
# the process: only one pacer can run in it.
# Slice durations, preallocated so that a slice allocates no memory that
# outlives it (an allocation in the middle of the program's own would change
# the heap's layout and so the program's peak memory).  A run takes about 40 a
# second; the buffer is reused as a ring.
_durations = np.zeros(1 << 16)
_taken = 0
_spent = 0.0
_running = False


def reference_slice() -> float:
    """Fixed work: string-to-float parsing, float arithmetic and list updates
    in the interpreter, then numpy calls on small preallocated arrays."""
    total = 0.0
    counts = _COUNTS
    for i in range(1000):
        total += float(_FIELDS[i & 3]) * i
        counts[i & 63] = (counts[i & 63] + 1) & 0xFF
    for _ in range(40):
        np.multiply(_A, _B, out=_C)
        np.add(_C, _A, out=_C)
        np.abs(_C, out=_C)
        np.dot(_M, _V, out=_W)
        total += float(_C.sum()) + float(_W[0])
    return total


def _tick(signum=None, frame=None) -> None:
    global _spent, _taken
    start = time.perf_counter()
    reference_slice()
    seconds = time.perf_counter() - start
    _durations[_taken % len(_durations)] = seconds
    _taken += 1
    _spent += seconds


def start() -> None:
    """Start taking slices; the first MIN_SLICES are taken at once."""
    global _running, _taken
    _taken = 0
    for _ in range(MIN_SLICES):
        _tick()
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    _running = True


def stop() -> None:
    global _running
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    _running = False


def clock() -> float:
    """``time.perf_counter()`` minus the time spent in slices so far."""
    while True:
        spent = _spent
        now = time.perf_counter()
        if spent == _spent:  # no slice ran in between
            return now - spent


def slices() -> np.ndarray:
    """Durations of the slices taken since the last :func:`start` (at most
    the ring's length, the latest)."""
    return np.roll(_durations, -_taken)[-min(_taken, len(_durations)):].copy()


class Timer:
    """``with Timer() as t: ...`` sets ``t.program_s`` (the block's wall time
    without slices) and ``t.seconds`` (that time at the reference speed),
    also when the block raises."""

    def __enter__(self) -> "Timer":
        self._first = _taken
        self._start = clock()
        return self

    def __exit__(self, *exc) -> bool:
        self.program_s = clock() - self._start
        self.seconds = self.program_s * self._scale()
        return False

    def _scale(self) -> float:
        if not _running:
            return 1.0
        last = _taken
        first = min(self._first, last - MIN_SLICES)
        first = max(first, last - len(_durations))
        index = np.arange(first, last) % len(_durations)
        return REF_SLICE_S / float(_durations[index].mean())
