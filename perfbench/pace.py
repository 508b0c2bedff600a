"""Paced time: wall time rescaled to a fixed speed of the machine.

The benchmark shares a few vCPUs with other work on the host.  That load
slows this process by 10 to 80% for seconds to minutes at a time.  CPU time
slows with it, and it is not counted as steal time.  So raw wall times of the
same code, run a few minutes apart, spread by more than the benchmark's bounds.

The pacer times a fixed reference computation, ``reference()``, before and
after each timed stretch and every INTERVAL seconds inside it (from a SIGALRM
handler, so between two bytecodes of the program).  The reference does the
kind of work the library does: row reductions over GF(3), on Python ints and
on small numpy arrays, and small matrix products; the dense one adds a pass
over a large array and a BLAS product.  A stretch's paced time is its wall
time, less the time spent in the reference, times REFERENCE_S over the mean
reference time measured across it.  A paced second is a wall second on a
machine that runs the reference in REFERENCE_S, which is about this machine's
speed when nothing else loads it.  The reference is the benchmark's own code,
so a change to the program moves paced time just as it moves wall time.
"""

from __future__ import annotations

import functools
import gc
import signal
import statistics
import time

import numpy as np

# seconds between two reference runs inside a timed stretch
INTERVAL = 0.1
# reference runs discarded when a pacer starts
WARMUP = 5

_P = 3
_INVERSE = np.array([0, 1, 2], dtype=np.int64)  # x * _INVERSE[x] = 1 mod 3
_RNG = np.random.default_rng(20140808)
_WIDE = _RNG.integers(0, _P, (10, 14)).astype(np.int64)
_SQUARE = _RNG.integers(0, _P, (12, 12)).astype(np.int64)
_ROWS = [[int(x) for x in row] for row in _RNG.integers(0, _P, (12, 12))]


def _reduce_rows(rows: list[list[int]]) -> int:
    """Rank of rows over GF(_P), by Gauss-Jordan elimination on Python ints."""
    m = [r[:] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] % _P), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], _P - 2, _P)
        m[rank] = [x * inv % _P for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % _P for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _reduce_array(a: np.ndarray) -> int:
    """The same elimination on a numpy array, one small numpy call per step."""
    m = a.copy()
    rank = 0
    for c in range(m.shape[1]):
        hits = np.flatnonzero(m[rank:, c])
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] * _INVERSE[m[rank, c]] % _P
        rows = np.flatnonzero(m[:, c])
        rows = rows[rows != rank]
        m[rows] = (m[rows] - m[rows, c, None] * m[rank]) % _P
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def _small() -> None:
    for _ in range(14):
        _reduce_array(_WIDE)
        _reduce_rows(_ROWS)
        b = _SQUARE
        for _ in range(4):
            b = (b @ _SQUARE) % _P


@functools.cache
def _dense_arrays() -> tuple[np.ndarray, np.ndarray]:
    """8 MB, more than a core's share of cache, and a BLAS-sized matrix; made
    on first use, so the small reference leaves peak memory alone."""
    rng = np.random.default_rng(20140808)
    return rng.random(1 << 20), rng.random((256, 256))


def _dense() -> None:
    for _ in range(7):
        _reduce_array(_WIDE)
        _reduce_rows(_ROWS)
    stream, square = _dense_arrays()
    np.negative(stream, out=stream)
    square @ square


KINDS = {"small": _small, "dense": _dense}
# each reference's duration on a 2-vCPU host (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31) when nothing else loads it: about its fastest of 500 runs
REFERENCE_S = {"small": 0.0044, "dense": 0.0032}


def reference(kind: str = "small") -> float:
    """Run a reference computation once, with the garbage collector off so
    that the program's garbage is never collected inside it; its seconds."""
    work = KINDS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Reference samples around and inside timed stretches.

    Call ``begin()`` before a stretch and ``end(wall)`` after it.  To sample
    inside the stretch as well, use the pacer as a context manager, which
    installs the SIGALRM handler, and bracket the timed calls with
    ``arm()``/``disarm()``; ``disarm`` returns the seconds the reference took
    inside them, for the caller to subtract.
    """

    def __init__(self, kind: str = "small", interval: float = INTERVAL):
        self.kind = kind
        self.interval = interval
        self.samples: list[float] = []
        self._mark = 0
        self._inside = 0.0
        self._busy = False
        self._old_handler = None
        for _ in range(WARMUP):  # first runs touch fresh memory and caches
            reference(kind)

    def __enter__(self) -> "Pacer":
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def sample(self) -> float:
        self._busy = True
        try:
            t = reference(self.kind)
        finally:
            self._busy = False
        self.samples.append(t)
        return t

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._inside += self.sample()

    def arm(self) -> None:
        self._inside = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def disarm(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self._inside

    def begin(self) -> None:
        self._mark = len(self.samples)
        self.sample()

    def end(self, wall: float) -> float:
        """Paced seconds of a stretch that took ``wall`` seconds, less the
        reference's own time, since ``begin()``."""
        self.sample()
        return wall * REFERENCE_S[self.kind] / statistics.fmean(self.samples[self._mark:])
