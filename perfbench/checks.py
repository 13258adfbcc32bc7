"""Correctness gate and counter bounds, run outside every timed region."""

from __future__ import annotations

import math
import random

SCHOOLBOOK_MAX_N = 2048
EVAL_POINTS = 2


def next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


class ProductCheck:
    """Reference for one product, built lazily from the first result it sees.

    Products of length n <= 2048 are compared with the schoolbook oracle.
    Longer ones must agree across every engine that computed them (and with
    `reference()`, another engine's result, when given), and the agreed
    result must satisfy c(x) == a(x) * b(x) at seeded random points.
    """

    def __init__(self, modconv, a, b, seed: int, reference=None):
        self._m = modconv
        self.a, self.b = a, b
        self._reference = reference
        self.n = len(a.coeffs) + len(b.coeffs) - 1
        self._rng = random.Random(seed)
        self.expected: tuple[int, ...] | None = None

    def ok(self, coeffs: tuple[int, ...]) -> bool:
        if self.expected is None:
            if self.n <= SCHOOLBOOK_MAX_N:
                self.expected = self._m.mul_schoolbook(self.a, self.b).coeffs
            else:
                first = self._reference() if self._reference is not None else coeffs
                if not self._evaluates(first):
                    return False
                self.expected = first
        return coeffs == self.expected

    def _evaluates(self, coeffs) -> bool:
        m, fp = self._m, self.a.field
        c = m.DensePoly(fp, coeffs)
        for _ in range(EVAL_POINTS):
            x = fp.felt(self._rng.randrange(fp.p))
            if m.eval_poly(c, x).value != (m.eval_poly(self.a, x) * m.eval_poly(self.b, x)).value:
                return False
        return True


def counter_violation(engine: str, n: int, butterflies: int, pointwise: int) -> str | None:
    """The documented OpCounters bound an engine broke, or None."""
    size = next_pow2(n)
    lg = size.bit_length() - 1
    if engine == "fft_pad":
        want = 3 * (size >> 1) * lg
        if butterflies != want or pointwise != size:
            return f"fft_pad n={n}: {butterflies} butterflies/{pointwise} products, want {want}/{size}"
    elif engine == "tft":
        cap = 3 * (n * lg / 2 + size)
        if butterflies > cap or pointwise != n:
            return f"tft n={n}: {butterflies} butterflies/{pointwise} products, want <= {cap}/{n}"
    elif engine == "definition":
        if butterflies or pointwise:
            return f"definition n={n}: counted {butterflies}/{pointwise}, want 0/0"
    return None


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_rank(count: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if count - math.ceil(q / 100 * count) >= 10:
            return q
    return 50.0
