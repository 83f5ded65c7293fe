"""A fixed reference computation that measures how fast the host runs now.

The shared 2-vCPU hosts the benchmark runs on change speed by up to 1.6x
within a second (the same operation on the same input, with CPU time
tracking wall time).  The benchmark therefore times ``reference()``
between every two operations, and every ``PERIOD_S`` seconds inside an
operation (from a ``SIGALRM`` handler, which Python runs in the main
thread between two bytecodes), and reports each operation's latency
scaled to a host on which one reference takes ``REFERENCE_NOMINAL_MS``:

    scaled_ms = (measured_ms - reference time inside) * NOMINAL / local_ms

where ``local_ms`` is the median of the reference timings inside the
operation and the ``NEIGHBOURS`` on either side of it.  The reference uses
only the standard library and none of the program's code, so a change to
the program cannot change it; its mix (exact ``Fraction`` arithmetic,
dict and tuple traffic, sorting and small function calls) is the mix of
the program's hot paths, so it slows down with them when the host does.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

#: reference time, in ms, of the host the scaled figures are expressed on
#: (a 2-vCPU x86 machine under Python 3.11, at a typical moment)
REFERENCE_NOMINAL_MS = 8.0
#: an operation is scaled by the reference timings inside it and this many
#: on either side of it
NEIGHBOURS = 2
#: seconds between two reference timings inside an operation
PERIOD_S = 0.25

_TERMS = [Fraction(i, (i * 7) % 13 + 1) for i in range(1, 120)]


def reference() -> Fraction:
    """The fixed reference computation (about 8 ms on the nominal host)."""
    acc = Fraction(0)
    table = {}
    xs = list(_TERMS)
    for rnd in range(5):
        for i, x in enumerate(xs):
            acc += x * x - acc / (i + 1)
            table[(i, rnd)] = acc.numerator % 97
        xs.sort(key=lambda f: (f.numerator % 31, f.denominator))
    return acc


class HostClock:
    """Reference timings in time order, and operations timed against them."""

    def __init__(self):
        for _ in range(5):  # warm-up
            reference()
        self.starts: list[float] = []
        self.refs: list[float] = []  # ms

    def sample(self) -> None:
        """Time one reference with the garbage collector off, so that the
        size of the program's heap cannot slow the reference down."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        self.starts.append(t0)
        self.refs.append((time.perf_counter() - t0) * 1e3)
        if enabled:
            gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def timed(self, fn):
        """Run ``fn()`` with the reference sampled every ``PERIOD_S``;
        returns (result, seconds net of the samples taken inside, span),
        where ``span`` is the slice of ``refs`` taken during the call."""
        lo = len(self.refs)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(ms for start, ms in zip(self.starts[lo:], self.refs[lo:])
                     if start < t1) / 1e3
        return result, t1 - t0 - inside, (lo, len(self.refs))

    def local_reference(self, span: tuple[int, int]) -> float:
        """The reference time, in ms, around an operation timed over
        ``span``; wants ``NEIGHBOURS`` samples taken after it."""
        lo, hi = span
        return statistics.median(self.refs[max(0, lo - NEIGHBOURS):
                                           hi + NEIGHBOURS])


def scale(ms: float, reference_ms: float) -> float:
    return ms * REFERENCE_NOMINAL_MS / reference_ms
