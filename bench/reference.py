"""A fixed reference computation that measures the interpreter's current speed.

Shared hosts change speed by tens of percent, for a second or for minutes
at a time, and can switch between two speeds several times a second.
Timing this computation many times during a cold run gives the speed of
the machine in the same seconds, so a cold run's cost can also be stated in
reference units.  The computation uses no tilingkit code, so a change to the
package cannot move it; it mixes the kinds of interpreter work the package
does: generator recursion and tuple building, dict-memoised big-integer
recurrences, and ``Fraction`` arithmetic.  It takes about 5-8 ms.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

SAMPLE_PERIOD_S = 0.1


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def reference_work() -> int:
    count = sum(len(c) for c in _compositions(12))
    memo: dict[tuple[int, int], int] = {}
    for i in range(40):
        for j in range(40):
            memo[(i, j)] = (1 if i == 0 or j == 0 else
                            memo[(i - 1, j)] + 2 * memo[(i, j - 1)] - memo[(i - 1, j - 1)])
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(i, i + 1) * Fraction(1, i)
    return count + memo[(39, 39)] % 1000 + acc.denominator % 1000


def reference_time() -> float:
    """Seconds taken by one run of :func:`reference_work`."""
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class Sampler:
    """Times :func:`reference_work` every ``SAMPLE_PERIOD_S`` inside a block.

    A ``SIGALRM`` handler runs it between two bytecodes of whatever the
    block is doing, so the samples fall in the same seconds as the block's
    own work.  ``times`` holds them; their sum is time the block did not
    spend on its own work.
    """

    def __init__(self) -> None:
        self.times: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.times.append(reference_time())

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
