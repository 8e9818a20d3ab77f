"""Machine-speed calibration: a fixed pure-Python kernel timed in short chunks.

The benchmark runs on shared virtual machines whose speed is not constant:
on the 2-vCPU machine of the baseline it switches, machine-wide, between a
fast and a slow state about 1.5 times slower, staying in each for half a
second to several seconds, so a 6-second command took anywhere from 4.9 to
7.3 seconds.  A chunk of this kernel does the same work every time and
shares no code with faadibruno, so the ratio of its time to
REFERENCE_CHUNK_S (its slowdown) says how slow the machine is at that
moment.  The kernel does what the package does most: it builds small
immutable expression trees, memoizes on them in a dict, and evaluates them
recursively on floats.

`Sampler` times a chunk every SAMPLE_INTERVAL_S of wall time while the
measured call runs, from a timer signal in the same process.  Work done in
an interval takes (interval / slowdown) seconds at the reference speed, so
`reference_seconds` turns a measured time into seconds at the reference
speed with the mean of 1 / slowdown over the call.  The time the handler
takes is subtracted first.
"""

from __future__ import annotations

import math
import signal
import statistics
import sys
import time

# About the chunk time of the slower state of the 2-vCPU Intel Xeon virtual
# machine of the baseline in README.md, with Python 3.11.7.  Times are
# reported as seconds on a machine of that speed.
REFERENCE_CHUNK_S = 0.0014
SAMPLE_INTERVAL_S = 0.05


class _Node:
    __slots__ = ("kind", "args", "value", "_hash")

    def __init__(self, kind, args=(), value=0.0):
        self.kind = kind
        self.args = args
        self.value = value
        self._hash = hash((kind, args, value))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (self is other or (self._hash == other._hash and self.kind == other.kind
                                  and self.value == other.value and self.args == other.args))


_X = _Node("var")


def _const(c):
    return _Node("const", (), c)


def _d(e, memo):
    """Derivative in x, memoized on the node."""
    hit = memo.get(e)
    if hit is not None:
        return hit
    k = e.kind
    if k == "var":
        out = _const(1.0)
    elif k == "const":
        out = _const(0.0)
    elif k == "add":
        out = _Node("add", (_d(e.args[0], memo), _d(e.args[1], memo)))
    elif k == "mul":
        a, b = e.args
        out = _Node("add", (_Node("mul", (_d(a, memo), b)), _Node("mul", (a, _d(b, memo)))))
    else:  # sin
        out = _Node("mul", (_Node("cos", e.args), _d(e.args[0], memo)))
    memo[e] = out
    return out


def _eval(e, x):
    k = e.kind
    if k == "var":
        return x
    if k == "const":
        return e.value
    if k == "add":
        return _eval(e.args[0], x) + _eval(e.args[1], x)
    if k == "mul":
        return _eval(e.args[0], x) * _eval(e.args[1], x)
    if k == "sin":
        return math.sin(_eval(e.args[0], x))
    return math.cos(_eval(e.args[0], x))


def _tree(depth: int, offset: int) -> _Node:
    e = _X
    for i in range(depth):
        e = _Node("add", (_Node("mul", (_const(float(i + offset)), e)), _Node("sin", (e,))))
    return e


def chunk() -> float:
    """One fixed unit of work; returns a checksum so it cannot be skipped."""
    memo: dict = {}
    total = 0.0
    for i in range(4):
        total += _eval(_d(_d(_tree(4, i), memo), memo), 0.1 * i)
    return total


def chunk_seconds() -> float:
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


def sample() -> float:
    """The slowdown now.  The first chunk brings the kernel back into caches
    the measured program has filled; the second one is timed."""
    chunk()
    return chunk_seconds() / REFERENCE_CHUNK_S


def reference_seconds(seconds: float, slowdowns: list[float]) -> float:
    """`seconds` measured while the machine ran at `slowdowns`, evenly spaced
    in time, as seconds at the reference speed."""
    return seconds * statistics.fmean(1 / s for s in slowdowns)


class Sampler:
    """Takes a slowdown sample every SAMPLE_INTERVAL_S of wall time, from a
    SIGALRM handler, between `start()` and `stop()`; `spent` is the time the
    handler took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        # the handler runs on top of the measured program's stack
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 100)
        try:
            self.samples.append(sample())
        finally:
            sys.setrecursionlimit(limit)
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # a signal already delivered must not end the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
