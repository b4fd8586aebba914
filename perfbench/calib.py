"""Machine-speed sampling for the benchmark.

The CPUs of a shared machine change speed by a quarter and more within
seconds to minutes, on CPU time as much as on wall time.  ``Sampler`` runs
a small fixed kernel from a SIGALRM handler at a fixed interval while the
child does its work, so the speed is sampled on the same CPU, spread evenly
over the very time being measured.  The kernel never changes with the
program, so a ratio of its time to the reference time measures the machine.
"""

from __future__ import annotations

import signal
import time
from statistics import mean

# One kernel round takes this long at the reference speed.
ROUND_REF_S = 45e-6


def _reduce_mod_p(rows: list[list[int]], p: int) -> None:
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1


def kernel(rounds: int) -> float:
    """Seconds taken by ``rounds`` rounds of the two kinds of work the
    program does: a product of small dict-keyed polynomials and a small row
    reduction mod p."""
    start = time.perf_counter()
    for s in range(rounds):
        poly = {(s % 5, j): j + 1 for j in range(6)}
        product: dict[tuple[int, int], int] = {}
        for (a, b), c in poly.items():
            for (d, e), f in poly.items():
                key = (a + d, b + e)
                product[key] = product.get(key, 0) + c * f
        _reduce_mod_p([[(s * r + c * c + 1) % 31 for c in range(6)] for r in range(5)], 31)
    return time.perf_counter() - start


class Sampler:
    """Runs ``kernel(rounds)`` every ``every`` seconds of wall time.

    ``spent`` is the total time spent in the handler; callers subtract it
    from the time of the work it interrupted.
    """

    def __init__(self, every: float, rounds: int) -> None:
        self.every = every
        self.rounds = rounds
        self.times: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(kernel(self.rounds))
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def slowdown(self) -> float | None:
        """Mean kernel time over its reference time; above 1 is slower."""
        if not self.times:
            return None
        return mean(self.times) / (self.rounds * ROUND_REF_S)
