"""Acceptance suite: one test per criterion, printed pass lines included.

Criteria 1-5, 7, 8 are exact (zero tolerance). Criterion 6 is timing-based
and machine-local by nature: it asserts the truncated engine's smoothness
advantage on this build machine, not portable cycle counts.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.
"""

import functools
import itertools
import random
import statistics
import time

import pytest

from modconv import (
    ConvRequest,
    DensePoly,
    FourierPrime,
    OpCounters,
    PlanEntry,
    PlanKey,
    PlanSession,
    PlanStore,
    bit_reverse_permute,
    circ_conv_def,
    circ_conv_split,
    conv_tft,
    get_table,
    itft,
    lin_conv_def,
    lin_conv_fft_pad,
    moddft,
    plan_mirror,
    poly_mul,
    store_load,
    store_save,
    tft,
)
from modconv.poly import schoolbook_raw

SMALL_PRIME = 257
LARGE_PRIME = 998244353


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def fp_small():
    return FourierPrime.from_modulus(SMALL_PRIME)


@pytest.fixture(scope="module")
def fp_large():
    return FourierPrime.from_modulus(LARGE_PRIME)


@pytest.fixture(scope="module")
def truncated_sweep(fp_large):
    """Shared (L, n) sweep for criteria 2 and 4: every n for every L <= 1024.

    Returns (L, n, roundtrip_ok, tft_butterflies, itft_butterflies) rows.
    """
    rng = random.Random(0x5EED)
    rows = []
    p = fp_large.p
    for lg in range(1, 11):
        size = 1 << lg
        table = get_table(fp_large, size)
        for n in range(1, size + 1):
            x = [rng.randrange(p) for _ in range(n)]
            fwd_counters = OpCounters()
            spectral = tft(table, x, n, fwd_counters)
            inv_counters = OpCounters()
            back = itft(table, spectral, inv_counters)
            ok = back == [v * size % p for v in x]
            rows.append((size, n, ok, fwd_counters.butterflies, inv_counters.butterflies))
    return rows


def test_criterion_1_oracle_equivalence(fp_small, fp_large):
    """Engines agree bit-for-bit with the schoolbook oracle on (1..128)^2."""
    rng = random.Random(0xACCE55)
    checked = 0
    for fp in (fp_small, fp_large):
        p = fp.p
        req = ConvRequest(fp, engine="fft_pad")
        for z1 in range(1, 129):
            for z2 in range(1, 129):
                u = [rng.randrange(p) for _ in range(z1)]
                v = [rng.randrange(p) for _ in range(z2)]
                want = schoolbook_raw(u, v, p)
                assert lin_conv_fft_pad(u, v, req) == want, (p, z1, z2, "fft_pad")
                assert conv_tft(u, v, req) == want, (p, z1, z2, "tft")
                out_len = z1 + z2 - 1
                size = max(2, 1 << (out_len - 1).bit_length())
                padded = circ_conv_split(
                    u + [0] * (size - z1), v + [0] * (size - z2), req
                )[:out_len]
                assert padded == want, (p, z1, z2, "split")
                if checked % 500 == 0:
                    assert lin_conv_def(u, v, fp) == want, (p, z1, z2, "lin_conv_def")
                checked += 1
    _report(1, f"{checked} size pairs x 2 primes, 3 engines vs schoolbook, exact")


def test_criterion_2_transform_roundtrips(fp_large, truncated_sweep):
    """moddft inverse of forward is the identity; itft recovers L*x everywhere."""
    rng = random.Random(0x0DD5)
    p = fp_large.p
    for lg in range(1, 17):
        size = 1 << lg
        table = get_table(fp_large, size)
        x = [rng.randrange(p) for _ in range(size)]
        assert moddft(moddft(x, table, "fwd"), table, "inv") == x, size
    bad = [(size, n) for size, n, ok, _, _ in truncated_sweep if not ok]
    assert bad == []
    _report(
        2,
        f"moddft roundtrip N in 2..2^16; itft(tft(x)) == L*x on all "
        f"{len(truncated_sweep)} (L, n) pairs with L <= 1024, exact",
    )


def test_criterion_3_convolution_theorem(fp_large):
    """Transforming a circular convolution equals the pointwise spectral product."""
    rng = random.Random(0x7E00)
    p = fp_large.p
    cases = 0
    for lg in range(1, 9):
        size = 1 << lg
        table = get_table(fp_large, size)
        for _ in range(200):
            u = [rng.randrange(p) for _ in range(size)]
            v = [rng.randrange(p) for _ in range(size)]
            lhs = moddft(circ_conv_def(u, v, fp_large), table)
            rhs = [a * b % p for a, b in zip(moddft(u, table), moddft(v, table))]
            assert lhs == rhs, size
            cases += 1
    _report(3, f"{cases} random pairs across N in 2..256, exact")


def test_criterion_4_butterfly_bounds(fp_large, truncated_sweep):
    """Full transforms count exactly (L/2)log2(L); truncated stay under n*log2(L)/2 + L."""
    rng = random.Random(0xB0B5)
    p = fp_large.p
    for lg in range(1, 17):
        size = 1 << lg
        table = get_table(fp_large, size)
        counters = OpCounters()
        moddft([rng.randrange(p) for _ in range(size)], table, "fwd", counters)
        assert counters.butterflies == (size // 2) * lg, size
    worst = 0.0
    for size, n, _, fwd_bf, inv_bf in truncated_sweep:
        bound = n * (size.bit_length() - 1) / 2 + size
        assert fwd_bf <= bound, ("tft", size, n, fwd_bf, bound)
        assert inv_bf <= bound, ("itft", size, n, inv_bf, bound)
        worst = max(worst, fwd_bf / bound, inv_bf / bound)
    _report(
        4,
        f"exact full-transform counts to 2^16; truncated bound held on the "
        f"full sweep (worst ratio {worst:.3f})",
    )


def test_criterion_5_pointwise_contrast(fp_large):
    """Just past each power of two, tft does n pointwise products, fft_pad 2^(k+1)."""
    for k in range(4, 13):
        n = (1 << k) + 1
        z1 = (1 << (k - 1)) + 1
        z2 = n + 1 - z1
        rng = random.Random(k)
        a = DensePoly(fp_large, tuple(rng.randrange(fp_large.p) for _ in range(z1)))
        b = DensePoly(fp_large, tuple(rng.randrange(fp_large.p) for _ in range(z2)))
        tft_counters = OpCounters()
        poly_mul(a, b, ConvRequest(fp_large, engine="tft", counters=tft_counters))
        fft_counters = OpCounters()
        poly_mul(a, b, ConvRequest(fp_large, engine="fft_pad", counters=fft_counters))
        assert tft_counters.pointwise_muls == n, k
        assert fft_counters.pointwise_muls == 1 << (k + 1), k
    _report(5, "tft pointwise == n and fft_pad pointwise == 2^(k+1) for k in 4..12")


def _interleaved_medians(calls, reps=5):
    # One sample of every call per round, so that a burst of load from
    # elsewhere on the host lands on all of them rather than on one call's
    # back-to-back samples.
    samples = {name: [] for name in calls}
    for _ in range(reps):
        for name, fn in calls.items():
            t0 = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - t0)
    return {name: statistics.median(s) for name, s in samples.items()}


@pytest.mark.slow
def test_criterion_6_smoothness_timing(fp_large):
    """Machine-local: the truncated engine is faster just past each boundary,
    and its boundary-crossing ratio is far below the padded engine's jump."""
    rng = random.Random(0x71337)
    p = fp_large.p

    def inputs(total):
        z1 = (total + 1) // 2
        z2 = total + 1 - z1
        a = DensePoly(fp_large, tuple(rng.randrange(p) for _ in range(z1)))
        b = DensePoly(fp_large, tuple(rng.randrange(p) for _ in range(z2)))
        return a, b

    lines = []
    for threads in (1, 4):
        for k in range(12, 17):
            at_pow = inputs(1 << k)
            past_pow = inputs((1 << k) + 1)
            calls = {}
            for engine in ("tft", "fft_pad"):
                req = ConvRequest(fp_large, engine=engine, threads=threads)
                for shape, pair in (("past", past_pow), ("at", at_pow)):
                    poly_mul(*pair, req)  # warm twiddle caches before timing
                    calls[engine, shape] = functools.partial(poly_mul, *pair, req)
            timings = _interleaved_medians(calls)
            tft_past = timings["tft", "past"]
            fft_past = timings["fft_pad", "past"]
            assert tft_past < fft_past, (
                f"tft not faster at n=2^{k}+1, threads={threads}: "
                f"{tft_past:.3f}s vs {fft_past:.3f}s"
            )
            tft_ratio = tft_past / timings["tft", "at"]
            fft_ratio = fft_past / timings["fft_pad", "at"]
            assert tft_ratio <= 0.5 * fft_ratio + 1, (k, threads, tft_ratio, fft_ratio)
            lines.append(
                f"k={k} threads={threads}: tft {tft_past:.3f}s < fft_pad "
                f"{fft_past:.3f}s; ratios {tft_ratio:.2f} vs {fft_ratio:.2f}"
            )
    _report(6, "smoothness held on this machine; " + "; ".join(lines))


def test_criterion_7_planner_contracts(fp_large, tmp_path):
    """Lookup tiers, mirror involution, bit-correct replay, store round-trips."""
    ticks = itertools.count(step=3)
    session = PlanSession(
        PlanStore(), signature="host-a", timer=lambda: next(ticks), reps=3
    )
    p = fp_large.p
    # Tier 3: fresh search.
    key = PlanKey("dft", p, 16, 0, 16, 1)
    session.lookup(key)
    assert session.search_count > 0
    searches = session.search_count
    # Tier 1: exact hit.
    session.lookup(key)
    assert session.search_count == searches
    # Tier 2: signature miss clones and leaves the original untouched.
    other = PlanSession(session.store, signature="host-b", timer=lambda: next(ticks))
    original = session.store.get(key, "host-a")
    clone = other.lookup(key)
    assert other.search_count == 0
    assert clone.exec_signature == "host-b" and clone.splits == original.splits
    assert session.store.get(key, "host-a") == original

    # Mirror involution on searched truncated plans.
    fwd = session.lookup(PlanKey("tft", p, 64, 40, 40, 1))
    assert plan_mirror(plan_mirror(fwd)) == fwd

    # Every stored plan replays to a bit-correct transform.
    rng = random.Random(0xEE)
    session.store.add(plan_mirror(fwd))
    for entry in session.store:
        kind = entry.key.kind
        size = entry.key.L
        table = get_table(fp_large, size)
        if kind == "dft":
            x = [rng.randrange(p) for _ in range(size)]
            assert session.replay(entry, x) == moddft(x, table)
        elif kind == "tft":
            x = [rng.randrange(p) for _ in range(entry.key.z)]
            padded = x + [0] * (size - len(x))
            want = bit_reverse_permute(moddft(padded, table))[: entry.key.n]
            assert session.replay(entry, x) == want
        else:
            n = entry.key.n
            x = [rng.randrange(p) for _ in range(n)]
            spectral = tft(table, x, n)
            assert session.replay(entry, spectral) == [v * size % p for v in x]

    # 100 fuzzed stores round-trip bit-exactly through the file format.
    fuzz = random.Random(0xF02)
    for trial in range(100):
        store = PlanStore()
        for _ in range(fuzz.randint(0, 14)):
            lg = fuzz.randint(1, 9)
            splits, rest = [], lg
            while rest > 3 or (rest > 1 and fuzz.random() < 0.5):
                step = fuzz.choice([s for s in (1, 2, 3) if s <= rest - 1])
                splits.append(1 << step)
                rest -= step
            entry = PlanEntry(
                PlanKey(
                    fuzz.choice(("dft", "tft", "itft")),
                    fuzz.choice((17, SMALL_PRIME, LARGE_PRIME)),
                    1 << lg,
                    fuzz.randint(0, 1 << lg),
                    fuzz.randint(0, 1 << lg),
                    fuzz.randint(1, 8),
                ),
                tuple(splits),
                1 << rest,
                fuzz.randrange(10**10),
                f"host-{fuzz.randint(0, 3)};cores={fuzz.randint(1, 32)}",
            )
            try:
                store.add(entry)
            except ValueError:
                continue
        path = tmp_path / f"fuzz-{trial}.plan"
        store_save(store, str(path))
        assert store_load(str(path)) == store, trial
    _report(7, "three-tier lookup, mirror involution, bit-correct replay, 100 round-trips")


def test_criterion_8_split_engine(fp_large):
    """CRT split equals the circular definition; residue maps invert each other."""
    from modconv import recombine_residues, split_residues

    rng = random.Random(0x5117)
    p = fp_large.p
    req = ConvRequest(fp_large, engine="fft_pad")
    sizes = []
    for lg in range(2, 9):
        size = 1 << lg
        for _ in range(3):
            u = [rng.randrange(p) for _ in range(size)]
            v = [rng.randrange(p) for _ in range(size)]
            assert circ_conv_split(u, v, req) == circ_conv_def(u, v, fp_large), size
            a, b = split_residues(u, p)
            assert recombine_residues(a, b, p) == u, size
        sizes.append(size)
    _report(8, f"split == definition and residue maps inverted for 2n in {sizes}")
