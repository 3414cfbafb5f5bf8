"""Seeded kernel probes: operations per second of the Z[tau] and quartic layers.

Operand sizes follow what the hot paths see.  The rotation scan works on
Euler-Rodrigues entries (coefficients up to about 64) and divides by
squared quaternion norms (small coefficients); the principality search
multiplies Z[i,sqrt2] box elements with coefficients up to about 6.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from simsub.quadratic import QuadInt, TAU, canonical_associate, gcd
from simsub.quartic import ISQRT2, QuarticInt

OPERANDS = 500
REPEATS = 5


def _rate(op, pairs, rounds) -> float:
    """Median over REPEATS of operations per second of op over the pairs."""
    rates = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(rounds):
            for x, y in pairs:
                op(x, y)
        rates.append(rounds * len(pairs) / (perf_counter() - start))
    return statistics.median(rates)


def _quad(rng, bound):
    while True:
        x = QuadInt(rng.randint(-bound, bound), rng.randint(-bound, bound), TAU)
        if x:
            return x


def _quartic(rng, bound):
    while True:
        x = QuarticInt(tuple(rng.randint(-bound, bound) for _ in range(4)), ISQRT2)
        if x:
            return x


def probe_rates(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    entries = [(_quad(rng, 64), _quad(rng, 8)) for _ in range(OPERANDS)]
    quartics = [(_quartic(rng, 6), _quartic(rng, 6)) for _ in range(OPERANDS)]
    return {
        "quadratic.mul_per_s": _rate(lambda x, y: x * y, entries, 8),
        "quadratic.divmod_per_s": _rate(divmod, entries, 4),
        "quadratic.gcd_per_s": _rate(gcd, entries, 1),
        "quadratic.canonical_associate_per_s":
            _rate(lambda x, y: canonical_associate(x), entries, 1),
        "quartic.mul_per_s": _rate(lambda x, y: x * y, quartics, 2),
        "quartic.abs_norm_per_s": _rate(lambda x, y: x.abs_norm(), quartics, 4),
    }
