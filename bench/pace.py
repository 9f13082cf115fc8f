"""Machine-speed reference for timings on a shared host.

On a host whose cores are shared with other tenants, the same Python
code runs up to 1.7 times slower for stretches of seconds to minutes,
so a wall time says as much about the neighbours as about the code.
``Pace`` runs a fixed reference kernel (interpreter loop plus big-int
multiplication, the two costs of heightlab) from a SIGALRM handler
every ``PERIOD`` seconds while a workload runs, on the same CPU and
in the same process, and records when each kernel run started and how
long it took.  ``Pace.ref(a, b)`` expresses the interval [a, b] of
``perf_counter`` time in units of the kernel's duration around it:
the interval's wall time, less the kernel runs inside it, over the
mean kernel duration from ``WINDOW`` seconds before to ``WINDOW``
seconds after.  When the host slows, both the interval and the kernel
stretch, and the quotient stays put.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD = 0.05
WINDOW = 0.1
_BIG = 7**3000


def kernel() -> None:
    s = 0
    for i in range(2000):
        s += i * i % 7
    for i in range(20):
        _BIG * _BIG + i


class Pace:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter() - t0))

    # one kernel run on entry and one on exit bracket even a workload
    # shorter than PERIOD
    def __enter__(self):
        self._tick(None, None)
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self._tick(None, None)

    def busy(self, a: float, b: float) -> float:
        """Seconds of [a, b] spent in the kernel."""
        return sum(d for s, d in self.samples if a <= s and s + d <= b)

    def ref(self, a: float, b: float) -> float:
        """The interval [a, b] in kernel durations."""
        near = [d for s, d in self.samples if a - WINDOW <= s <= b + WINDOW]
        if not near:
            raise RuntimeError(f"no reference kernel ran near [{a}, {b}]")
        return (b - a - self.busy(a, b)) * len(near) / sum(near)
