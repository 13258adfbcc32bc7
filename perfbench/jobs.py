"""Seeded job lists for the three workloads.

Every input the program sees is generated here from (workload, seed, size).
Sizes and split ratios are drawn by stratified sampling (one draw from the
middle of each equal-width stratum of their logarithm), and the size strata are paired with
the ratio strata by a fixed permutation. So the total work of a pass, linear
and quadratic alike, barely moves between seeds while the shapes do.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

P_NTT = 998244353  # 2-adicity 23
P_WIDE = 2305843009448574977  # 62-bit, 2-adicity 25
P_LOW = 2305843009213704193  # 62-bit, 2-adicity 11

WORKLOADS = ("pow2_edge", "small_many", "cli_auto")
SIZES = ("full", "smoke")

POW2_EDGE_ENGINES = ("tft", "fft_pad", "split")
SMALL_MANY_ENGINES = ("definition", "fft_pad", "tft", "split")

# Largest plan per prime written by the cli_auto set-up, by size.
CLI_PLANS = {
    "full": ((P_NTT, 16384), (P_LOW, 2048)),
    "smoke": ((P_NTT, 1024), (P_LOW, 256)),
}


@dataclass(frozen=True)
class Product:
    """One product: modulus, the two coefficient lists, and the engines to run."""

    p: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    engines: tuple[str, ...]
    repeat: bool = False  # cli_auto: same shape as an earlier job, new coefficients

    @property
    def n(self) -> int:
        return len(self.a) + len(self.b) - 1


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:")


def _coeffs(rng: random.Random, p: int, count: int) -> tuple[int, ...]:
    # Nonzero leading coefficient, so the product length is exactly z1+z2-1.
    return tuple([rng.randrange(p) for _ in range(count - 1)] + [rng.randrange(1, p)])


def _stratified_log(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One log-uniform draw from the middle half of each of `count` equal strata of [lo, hi]."""
    span = math.log(hi) - math.log(lo)
    return [math.exp(math.log(lo) + span * (i + 0.25 + rng.random() / 2) / count) for i in range(count)]


def _split(rng: random.Random, n: int, ratio: float) -> tuple[int, int]:
    """Input lengths (z1, z2) with z1 + z2 = n + 1 and z_small/z_big near ratio."""
    small = max(1, min((n + 1) // 2, round((n + 1) * ratio / (1 + ratio))))
    big = n + 1 - small
    return (small, big) if rng.random() < 0.5 else (big, small)


def _unbalanced(rng, p, count, n_lo, n_hi, engines):
    sizes = _stratified_log(rng, count, n_lo, n_hi)
    ratios = _stratified_log(rng, count, 1 / 50, 1.0)
    # Size stratum i gets ratio stratum pairing[i]: golden-ratio order, the same for every seed.
    pairing = sorted(range(count), key=lambda i: (i * 0.6180339887) % 1)
    out = []
    for x, r in zip(sizes, (ratios[k] for k in pairing)):
        n = max(n_lo, min(n_hi, round(x)))
        z1, z2 = _split(rng, n, r)
        out.append(Product(p, _coeffs(rng, p, z1), _coeffs(rng, p, z2), engines))
    return out


def pow2_edge(seed: int, size: str) -> list[Product]:
    """Balanced shapes at 7/8*2^k, 2^k and 2^k+1 for each k, every fixed engine."""
    rng = rng_for("pow2_edge", seed)
    ks = range(10, 16) if size == "full" else range(10, 11)
    out = []
    for k in ks:
        for n in (7 * (1 << k) // 8, 1 << k, (1 << k) + 1):
            z1 = (n + 2) // 2
            z2 = n + 1 - z1
            out.append(
                Product(P_NTT, _coeffs(rng, P_NTT, z1), _coeffs(rng, P_NTT, z2), POW2_EDGE_ENGINES)
            )
    return out


def small_many(seed: int, size: str) -> list[Product]:
    """Many small unbalanced products, half over each prime, on every engine."""
    rng = rng_for("small_many", seed)
    half = 64 if size == "full" else 3
    out = _unbalanced(rng, P_NTT, half, 8, 1024, SMALL_MANY_ENGINES)
    out += _unbalanced(rng, P_WIDE, half, 8, 1024, SMALL_MANY_ENGINES)
    rng.shuffle(out)
    return out


def cli_auto(seed: int, size: str) -> list[Product]:
    """CLI jobs: 60% unique shapes, 20% shape repeats, 20% on the low-adicity prime."""
    rng = rng_for("cli_auto", seed)
    unique, low, repeats = (24, 8, 8) if size == "full" else (3, 1, 1)
    n_hi = CLI_PLANS[size][0][1]
    shapes = _unbalanced(rng, P_NTT, unique, 32, n_hi, ("auto",))
    # Every third size stratum is repeated, so the repeats' sizes do not depend on the seed.
    again = [Product(P_NTT, _coeffs(rng, P_NTT, len(j.a)), _coeffs(rng, P_NTT, len(j.b)),
                     ("auto",), repeat=True) for j in shapes[:: unique // repeats]]
    low_lo = 1024 if size == "full" else 64
    jobs = shapes + _unbalanced(rng, P_LOW, low, low_lo, 4 * low_lo, ("auto",))
    rng.shuffle(jobs)
    for rep in again:
        # Each repeat goes somewhere after the job whose shape it repeats.
        src = next(i for i, j in enumerate(jobs) if (len(j.a), len(j.b), j.p) == (len(rep.a), len(rep.b), rep.p))
        jobs.insert(rng.randint(src + 1, len(jobs)), rep)
    return jobs


def products(workload: str, seed: int, size: str) -> list[Product]:
    return {"pow2_edge": pow2_edge, "small_many": small_many, "cli_auto": cli_auto}[workload](seed, size)
