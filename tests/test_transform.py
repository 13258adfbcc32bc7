import contextlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modconv import (
    FourierPrime,
    OpCounters,
    UnsupportedSizeError,
    bit_reverse_permute,
    get_table,
    itft,
    itft_butterflies,
    moddft,
    moddft_naive,
    tft,
    tft_butterflies,
)
from modconv import transform
from modconv.transform import TwiddleTable

from conftest import random_vec


class TestTwiddleTable:
    def test_invariants(self, fp998):
        for size in (1, 2, 8, 64, 1024):
            t = get_table(fp998, size)
            p = fp998.p
            assert len(t.fwd_stages) == len(t.inv_stages) == size.bit_length() - 1
            for s, (fwd, inv) in enumerate(zip(t.fwd_stages, t.inv_stages)):
                w = pow(t.root, size >> (s + 1), p)  # root of order 2**(s+1)
                assert fwd == [pow(w, j, p) for j in range(1 << s)]
                assert all(a * b % p == 1 for a, b in zip(fwd, inv))
            if size > 1:
                assert pow(t.root, size // 2, p) == p - 1
            assert t.inv_size * size % p == 1

    def test_cache_returns_shared_instance(self, fp998):
        assert get_table(fp998, 128) is get_table(fp998, 128)

    def test_cache_is_bounded(self, fp17, fp257, fp998):
        fp62 = FourierPrime.from_modulus(2305843009448574977)
        fields = (fp17, fp257, fp998, fp62)
        keys = [(fp, 1 << lg) for fp in fields for lg in range(min(fp.two_adicity, 10) + 1)]
        assert len(keys) > transform._CACHE_SIZE
        transform._build_table.cache_clear()
        with mock.patch.object(transform, "TwiddleTable", wraps=TwiddleTable) as build:
            tables = [get_table(fp, size) for fp, size in keys]
            assert build.call_count == len(keys)
            assert transform._build_table.cache_info().currsize <= transform._CACHE_SIZE
            assert get_table(*keys[-1]) is tables[-1]
            assert build.call_count == len(keys)
            assert get_table(*keys[0]) is not tables[0]  # evicted, built again
            assert build.call_count == len(keys) + 1

    def test_cache_thread_safety(self, fp257):
        seen = []

        def grab():
            seen.append(get_table(fp257, 64))

        workers = [threading.Thread(target=grab) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert all(t is seen[0] for t in seen)

    def test_too_large_for_field(self, fp17):
        with pytest.raises(UnsupportedSizeError):
            get_table(fp17, 32)
        with pytest.raises(ValueError):
            TwiddleTable(fp17, 12)


class TestBitReverse:
    def test_examples(self):
        assert bit_reverse_permute(list("abcd")) == list("acbd")
        assert bit_reverse_permute([5, 9]) == [5, 9]

    def test_involution(self, rng):
        x = [rng.randrange(1000) for _ in range(64)]
        assert bit_reverse_permute(bit_reverse_permute(x)) == x

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bit_reverse_permute([1, 2, 3])


class TestModDft:
    def test_p5_examples(self):
        fp5 = FourierPrime.from_modulus(5)
        t = get_table(fp5, 4)
        assert t.root == 2
        assert moddft([1, 0, 0, 0], t) == [1, 1, 1, 1]
        assert moddft([1, 1, 1, 1], t) == [4, 0, 0, 0]
        assert moddft([0, 1, 0, 0], t) == [1, 2, 4, 3]

    def test_matches_multipoint_evaluation(self, fp17, rng):
        # Forward transform evaluates the polynomial at the root powers.
        from modconv import DensePoly, Felt, eval_poly

        t = get_table(fp17, 8)
        coeffs = random_vec(rng, fp17, 8)
        poly = DensePoly(fp17, tuple(coeffs))
        spectrum = moddft(coeffs, t)
        for k in range(8):
            point = Felt(t.root, fp17) ** k
            assert spectrum[k] == eval_poly(poly, point).value

    def test_matches_naive_and_roundtrip(self, fp257, fp998, rng):
        for fp in (fp257, fp998):
            size = 1
            while size <= min(256, 1 << fp.two_adicity):
                t = get_table(fp, size)
                x = random_vec(rng, fp, size)
                fwd = moddft(x, t)
                assert fwd == moddft_naive(x, t)
                assert moddft(fwd, t, "inv") == x
                assert moddft_naive(fwd, t, "inv") == x
                size <<= 1

    def test_roundtrip_larger_sizes(self, fp998, rng):
        for lg in range(9, 13):
            t = get_table(fp998, 1 << lg)
            x = random_vec(rng, fp998, 1 << lg)
            assert moddft(moddft(x, t), t, "inv") == x

    def test_exact_butterfly_count(self, fp998, rng):
        for size in (2, 8, 64, 512):
            t = get_table(fp998, size)
            counters = OpCounters()
            moddft(random_vec(rng, fp998, size), t, "fwd", counters)
            assert counters.butterflies == (size // 2) * (size.bit_length() - 1)
            moddft(random_vec(rng, fp998, size), t, "inv", counters)
            assert counters.butterflies == 2 * (size // 2) * (size.bit_length() - 1)

    def test_usage_errors(self, fp257, rng):
        t = get_table(fp257, 8)
        with pytest.raises(ValueError):
            moddft([1, 2, 3], t)
        with pytest.raises(ValueError):
            moddft(random_vec(rng, fp257, 8), t, "sideways")


class TestTft:
    def test_full_size_is_reordered_dft(self, fp998, rng):
        for size in (2, 16, 128):
            t = get_table(fp998, size)
            x = random_vec(rng, fp998, size)
            assert tft(t, x, size) == bit_reverse_permute(moddft(x, t))

    def test_dc_term_of_constant(self, fp17):
        t = get_table(fp17, 4)
        assert tft(t, [9], 1) == [9]

    def test_prefix_of_reordered_padded_dft(self, fp17, rng):
        t = get_table(fp17, 8)
        x = random_vec(rng, fp17, 5)
        want = bit_reverse_permute(moddft(x + [0, 0, 0], t))[:5]
        assert tft(t, x, 5) == want

    def test_sweep_against_reorder_oracle(self, fp998, rng):
        # Exhaustive (n, z) lattice for small sizes, sampled z above.
        for size in (2, 4, 8, 16, 32, 64):
            t = get_table(fp998, size)
            for n in range(1, size + 1):
                zs = range(1, n + 1) if size <= 16 else {1, n, max(1, n // 2)}
                for z in zs:
                    x = random_vec(rng, fp998, z)
                    want = bit_reverse_permute(moddft(x + [0] * (size - z), t))[:n]
                    assert tft(t, x, n) == want, (size, n, z)

    def test_usage_errors(self, fp257, rng):
        t = get_table(fp257, 8)
        with pytest.raises(ValueError):
            tft(t, random_vec(rng, fp257, 5), 3)  # z > n
        with pytest.raises(ValueError):
            tft(t, random_vec(rng, fp257, 5), 9)  # n > L
        with pytest.raises(ValueError):
            tft(t, [], 1)


class TestItft:
    def test_full_size_is_scaled_inverse(self, fp998, rng):
        size = 64
        t = get_table(fp998, size)
        x = random_vec(rng, fp998, size)
        spectral = bit_reverse_permute(moddft(x, t))
        assert itft(t, spectral) == [v * size % fp998.p for v in x]

    def test_roundtrip_scales_by_size(self, fp998, rng):
        for size in (2, 8, 64, 256):
            t = get_table(fp998, size)
            for n in {1, 2, size // 2, size // 2 + 1, size}:
                if n < 1:
                    continue
                x = random_vec(rng, fp998, n)
                assert itft(t, tft(t, x, n)) == [v * size % fp998.p for v in x]

    def test_division_by_size_recovers_input(self, fp257, rng):
        t = get_table(fp257, 8)
        x = random_vec(rng, fp257, 5)
        scaled = itft(t, tft(t, x, 5))
        assert [v * t.inv_size % fp257.p for v in scaled] == x

    def test_usage_errors(self, fp257):
        t = get_table(fp257, 8)
        with pytest.raises(ValueError):
            itft(t, [1] * 9)
        with pytest.raises(ValueError):
            itft(t, [])


class TestButterflyBounds:
    def test_truncated_bounds_sampled(self, fp998, rng):
        for size in (16, 64, 256, 1024):
            t = get_table(fp998, size)
            lg = size.bit_length() - 1
            for n in sorted({1, 2, size // 2, size // 2 + 1, size - 1, size}):
                x = random_vec(rng, fp998, n)
                fc = OpCounters()
                spectral = tft(t, x, n, fc)
                assert fc.butterflies <= n * lg / 2 + size, (size, n)
                ic = OpCounters()
                itft(t, spectral, ic)
                assert ic.butterflies <= n * lg / 2 + size, (size, n)

    def test_counters_accumulate_monotonically(self, fp998, rng):
        t = get_table(fp998, 64)
        counters = OpCounters()
        trail = []
        for n in (1, 17, 64):
            tft(t, random_vec(rng, fp998, n), n, counters)
            trail.append(counters.butterflies)
        assert trail == sorted(trail)

    def test_count_functions_match_kernels(self, fp998, rng):
        # Every 1 <= n <= L <= 1024, with z in {1, n//2 or 1, n}. The Python
        # kernels count inline; the numpy ones report the formulas themselves.
        size = 1
        while size <= 1024:
            t = get_table(fp998, size)
            for n in range(1, size + 1):
                for z in {1, n // 2 or 1, n}:
                    fc = OpCounters()
                    transform._tft(t, random_vec(rng, fp998, z), n, fc)
                    assert tft_butterflies(size, z, n) == fc.butterflies, (size, z, n)
                ic = OpCounters()
                transform._itft(t, random_vec(rng, fp998, n), ic)
                assert itft_butterflies(size, n) == ic.butterflies, (size, n)
            size <<= 1

    def test_count_functions_full_size(self):
        # Closed forms: no table is built, so 2**40 costs as little as 2.
        for size in (2, 64, 1 << 20, 1 << 40):
            full = (size // 2) * (size.bit_length() - 1)
            assert tft_butterflies(size, size, size) == full
            assert itft_butterflies(size, size) == full


# Primes of 5, 9, 30 and 62 bits with 2-adicity 4, 8, 23, 25 and 11.
PROPERTY_FIELDS = [
    FourierPrime.from_modulus(p)
    for p in (17, 257, 998244353, 2305843009448574977, 2305843009213704193)
]


@st.composite
def truncated_shapes(draw):
    fp = draw(st.sampled_from(PROPERTY_FIELDS))
    size = 1 << draw(st.integers(0, min(fp.two_adicity, 10)))
    n = draw(st.integers(1, size))
    z = draw(st.integers(1, n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return fp, size, n, [rng.randrange(fp.p) for _ in range(z)]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(truncated_shapes())
def test_truncated_transforms_property(shape):
    fp, size, n, x = shape
    t = get_table(fp, size)
    fc = OpCounters()
    spectral = tft(t, x, n)
    assert spectral == bit_reverse_permute(moddft(x + [0] * (size - len(x)), t))[:n]
    # The counts come from the cores on lists, the Python kernels, which
    # count inline whichever backend the public call took.
    assert transform._tft(t, x, n, fc) == spectral
    assert fc.butterflies == tft_butterflies(size, len(x), n)
    ic = OpCounters()
    scaled = itft(t, spectral)
    assert scaled == [v * size % fp.p for v in x + [0] * (n - len(x))]
    assert transform._itft(t, spectral, ic) == scaled
    assert ic.butterflies == itft_butterflies(size, n)


HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

# The primes below 2**32 the numpy kernels serve: 2-adicity 4, 8, 23, 30 and
# 20, the last 2**32 - 2**20 + 1, whose residue products come closest to 2**64.
NUMPY_FIELDS = [FourierPrime.from_modulus(p) for p in (17, 257, 998244353, 3221225473, 4293918721)]


@st.composite
def numpy_shapes(draw, size):
    fp = draw(st.sampled_from([fp for fp in NUMPY_FIELDS if size <= 1 << fp.two_adicity]))
    n = draw(st.integers(1, size))
    z = draw(st.integers(1, n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return fp, n, z, [rng.randrange(fp.p) for _ in range(size)]
    # Ints outside [0, p): negative, in [p, 2**32), in [2**32, 2**64), from 2**64 up.
    spans = ((-(1 << 70), 0), (fp.p, 1 << 32), (1 << 32, 1 << 64), (1 << 64, 1 << 70))
    return fp, n, z, [rng.randrange(*rng.choice(spans)) for _ in range(size)]


@needs_numpy
# Every size up to 2**14: tft and itft run rows of min(_ROW, L/2) points,
# moddft rows of min(_ROW, L), so 2**10..2**12 meet each side of _ROW.
@pytest.mark.parametrize("size", [1 << k for k in range(15)])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_numpy_kernels_match_python(size, data):
    import numpy

    from modconv import _ntt_numpy

    fp, n, z, x = data.draw(numpy_shapes(size))
    t = get_table(fp, size)
    # The kernels take uint64 arrays of residues only.
    a = numpy.array([v % fp.p for v in x], dtype=numpy.uint64)
    # The Python loops reduce every value they compute, but pass an input they
    # never combine through (at size 1, or tft's input when z = 1), so they
    # are compared as residues; on canonical input that is equality.
    residues = lambda out: [v % fp.p for v in out]

    def run(call):
        counters = OpCounters()
        return call(counters), counters

    for direction in ("fwd", "inv"):
        assert _ntt_numpy.moddft(a, t, direction).tolist() == residues(transform._moddft(x, t, direction))
    assert _ntt_numpy.tft(t, a[:z], n).tolist() == residues(transform._tft(t, x[:z], n))
    assert _ntt_numpy.itft(t, a[:n]).tolist() == residues(transform._itft(t, x[:n]))
    # Lengths above size/2, where itft inverts full halves with _dit.
    for m in {size // 2 + 1, size - size // 8, size - 1 or 1, size}:
        assert _ntt_numpy.itft(t, a[:m]).tolist() == residues(transform._itft(t, x[:m]))
    # The largest residues at the primes nearest 2**32 meet the uint64 bounds,
    # at the drawn n and at the shapes of balanced products.
    for big in NUMPY_FIELDS[-2:]:
        top = [big.p - 1] * size
        tb = get_table(big, size)
        ab = numpy.array(top, dtype=numpy.uint64)
        for direction in ("fwd", "inv"):
            assert _ntt_numpy.moddft(ab, tb, direction).tolist() == transform._moddft(top, tb, direction)
        for m in {n, size // 2 + 1, size - size // 8, size}:
            zm = min(z, m)
            assert _ntt_numpy.tft(tb, ab[:zm], m).tolist() == transform._tft(tb, top[:zm], m)
            assert _ntt_numpy.itft(tb, ab[:m]).tolist() == transform._itft(tb, top[:m])
    # Through the public dispatch, outputs and counters of both backends agree.
    calls = [
        (lambda c: moddft(x, t, "fwd", c)),
        (lambda c: moddft(x, t, "inv", c)),
        (lambda c: tft(t, x[:z], n, c)),
        (lambda c: itft(t, x[:n], c)),
    ]
    with mock.patch.object(transform, "_NUMPY_CROSSOVER", 1 << 62):
        python = [(residues(out), counters) for out, counters in map(run, calls)]
    # numpy is loaded here, so the crossover alone sends every size to numpy.
    with mock.patch.object(transform, "_NUMPY_CROSSOVER", 1):
        assert transform._numpy_kernels(t.field.p, t.size) is _ntt_numpy
        assert [run(call) for call in calls] == python


@needs_numpy
# The kernels' row and chunk sizes as they are, and shrunk so that at these
# sizes moddft gathers rows, tft and itft run stages on blocks longer than a
# row, and a batch of rows goes one row at a time.
@pytest.mark.parametrize("row, chunk", [(None, None), (4, 4), (8, 1)])
def test_numpy_kernels_match_python_at_every_n(row, chunk):
    import numpy

    from modconv import _ntt_numpy

    patches = {k: v for k, v in (("_ROW", row), ("_CHUNK", chunk)) if v is not None}
    rng = random.Random(64)
    with mock.patch.multiple(_ntt_numpy, **patches) if patches else contextlib.nullcontext():
        for fp in NUMPY_FIELDS:
            for size in (1 << k for k in range(7)):
                if size > 1 << fp.two_adicity:
                    continue
                # A fresh table, whose numpy arrays follow the patched row size.
                t = TwiddleTable(fp, size)
                for x in ([rng.randrange(fp.p) for _ in range(size)], [fp.p - 1] * size):
                    a = numpy.array(x, dtype=numpy.uint64)
                    for direction in ("fwd", "inv"):
                        assert _ntt_numpy.moddft(a, t, direction).tolist() == transform._moddft(x, t, direction)
                    for n in range(1, size + 1):
                        for z in {1, n // 2 or 1, rng.randint(1, n), n}:
                            assert _ntt_numpy.tft(t, a[:z], n).tolist() == transform._tft(t, x[:z], n)
                        assert _ntt_numpy.itft(t, a[:n]).tolist() == transform._itft(t, x[:n])


@needs_numpy
def test_kernels_restore_the_callers_buffer_size():
    import numpy as np

    from modconv import _ntt_numpy

    t = get_table(FourierPrime.from_modulus(998244353), 1 << 12)
    x = np.arange(1 << 12, dtype=np.uint64)
    before = np.setbufsize(4096)
    try:
        for call in (lambda: _ntt_numpy.moddft(x, t, "inv"), lambda: _ntt_numpy.tft(t, x[:9], 3000),
                     lambda: _ntt_numpy.itft(t, x[:2049])):
            call()
            assert np.getbufsize() == 4096
        # A vector of the wrong length fails inside the kernel's scope.
        with pytest.raises(ValueError):
            _ntt_numpy.moddft(x[:1000], get_table(FourierPrime.from_modulus(998244353), 1 << 9), "fwd")
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(before)


def test_large_prime_stays_on_python():
    fp = FourierPrime.from_modulus(2305843009448574977)
    t = get_table(fp, 1 << 15)
    assert transform._numpy_kernels(t.field.p, t.size) is None
    rng = random.Random(15)
    x = [rng.randrange(fp.p) for _ in range(1 << 15)]
    assert moddft(moddft(x, t), t, "inv") == x
    assert t.numpy_arrays is None


@needs_numpy
def test_loaded_numpy_takes_transforms_from_the_crossover():
    import numpy  # noqa: F401  loaded, as after any transform of 2**15 points
    from modconv import _ntt_numpy

    fp = FourierPrime.from_modulus(998244353)
    assert transform._numpy_kernels(fp.p, transform._NUMPY_CROSSOVER) is _ntt_numpy
    # Fresh tables, so that no earlier call has filled numpy_arrays.
    small = TwiddleTable(fp, transform._NUMPY_CROSSOVER >> 1)
    wide = TwiddleTable(FourierPrime.from_modulus(2305843009448574977), 1 << 10)
    rng = random.Random(16)
    for t in (small, wide):
        assert transform._numpy_kernels(t.field.p, t.size) is None
        x = [rng.randrange(t.field.p) for _ in range(t.size)]
        assert moddft(moddft(x, t), t, "inv") == x
        assert itft(t, tft(t, x, t.size)) == [v * t.size % t.field.p for v in x]
        assert t.numpy_arrays is None


@needs_numpy
@pytest.mark.parametrize("size", [1, 8, 1 << 10])
def test_transforms_keep_uint64_arrays(size):
    # The cores take uint64 arrays of residues and give them back, equal,
    # with equal counts, to the doors on lists; at the primes nearest 2**32,
    # on random residues and on all p - 1, the widest the kernels multiply.
    import numpy as np

    rng = random.Random(size)
    for p in (3221225473, 4293918721):
        t = get_table(FourierPrime.from_modulus(p), size)
        n = size // 2 + 1
        # The inverse moddft core returns size times x; its door divides once.
        calls = [
            (moddft, transform._moddft, lambda f, v, c: f(v, t, "fwd", c), False),
            (moddft, transform._moddft, lambda f, v, c: f(v, t, "inv", c), True),
            (tft, transform._tft, lambda f, v, c: f(t, v[: n // 2 or 1], n, c), False),
            (itft, transform._itft, lambda f, v, c: f(t, v[:n], c), False),
        ]
        for x in ([rng.randrange(p) for _ in range(size)], [p - 1] * size):
            for door, core, call, scaled in calls:
                listed, array_counts = OpCounters(), OpCounters()
                a = np.array(x, dtype=np.uint64)
                out = call(core, a, array_counts)
                assert isinstance(out, np.ndarray) and out.dtype == np.uint64
                if scaled:
                    out = transform._div_size(out, t)
                assert out.tolist() == call(door, x, listed)
                assert array_counts == listed
                assert a.tolist() == x


@needs_numpy
@pytest.mark.parametrize("p", [17, 998244353, 4293918721])
def test_converter_reduces_every_int_like(p):
    import numpy as np

    ints = [0, 1, p - 1, p, 2 * p + 3, (1 << 64) - 1, True, False, np.uint64((1 << 64) - 1),
            np.int64(5), np.int32(p - 1) if p < 1 << 31 else np.uint32(p - 1)]
    outside = [-1, -(1 << 70), np.int64(-3), 1 << 64, (1 << 70) + 5]
    # The first list converts in one buffer pass and is then reduced; each of
    # the others holds an int array.array("Q") cannot take.
    cases = [ints] + [ints + [v] for v in outside] + [[v] * 3 for v in outside]
    for x in cases + [tuple(ints)]:
        got = transform._as_residues(x, p)
        assert got.dtype == np.uint64 and got.ndim == 1
        assert np.array_equal(got, np.array([v % p for v in x], dtype=np.uint64)), x


def _run_python(code):
    src = Path(transform.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("engine", ["tft", "fft_pad", "split"])
def test_first_product_below_2_15_leaves_numpy_unloaded(engine):
    # A fresh process's first product of length 2**14 runs the Python loops
    # and never pays for importing numpy.
    out = _run_python(
        f"""
import random, sys
from modconv import ConvRequest, DensePoly, FourierPrime, poly_mul
fp = FourierPrime.from_modulus(998244353)
rng = random.Random(14)
a = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(1 << 13)))
b = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range((1 << 13) + 1)))
assert len(poly_mul(a, b, ConvRequest(fp, engine={engine!r}))) == 1 << 14
print("numpy" in sys.modules)
"""
    )
    assert out.strip() == "False"


_PRODUCT_PAST_THE_BUDGET = """
import json, random, sys
from modconv import ConvRequest, DensePoly, FourierPrime, OpCounters, convolve, poly_mul, transform
fp = FourierPrime.from_modulus(998244353)
rng = random.Random(21)
poly = lambda z: DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(z)))
# Products of length 2**11 on the Python loops, each 3 * 1024 * 11 butterflies,
# until the process has spent the budget.
while transform._python_butterflies < transform._BUDGET:
    poly_mul(poly(1024), poly(1025), ConvRequest(fp, engine="tft"))
before = sys.modules.get("numpy") is not None
pointwise, seen = convolve._pointwise, []
def spy(x, y, p, req):
    seen.append([type(x).__name__, type(y).__name__])
    return pointwise(x, y, p, req)
convolve._pointwise = spy
ops = OpCounters()
c = poly_mul(poly(600), poly(424), ConvRequest(fp, engine="tft", counters=ops))
print(json.dumps({"c": list(c.coeffs), "ops": [ops.butterflies, ops.pointwise_muls], "seen": seen,
                  "before": before, "after": sys.modules.get("numpy") is not None}))
"""


@needs_numpy
def test_products_past_the_budget_run_in_arrays():
    # Once earlier products have run _BUDGET butterflies on the Python loops,
    # the next product at 2**10 imports numpy and runs in arrays, with the
    # coefficients and counters of a process that cannot import numpy.
    with_numpy = json.loads(_run_python(_PRODUCT_PAST_THE_BUDGET))
    without = json.loads(_run_python('import sys\nsys.modules["numpy"] = None\n' + _PRODUCT_PAST_THE_BUDGET))
    assert [with_numpy.pop(k) for k in ("before", "after", "seen")] == [False, True, [["ndarray", "ndarray"]]]
    assert [without.pop(k) for k in ("before", "after", "seen")] == [False, False, [["list", "list"]]]
    assert with_numpy == without
    assert len(without["c"]) == 1023


def test_ineligible_products_leave_numpy_unloaded():
    # Products the numpy kernels cannot take (a 62-bit prime) or would not
    # (transforms below 2**9) never count, however many run.
    out = _run_python(
        """
import random, sys
from modconv import ConvRequest, DensePoly, FourierPrime, poly_mul, transform
rng = random.Random(22)
for p, z in ((2305843009448574977, 200), (998244353, 100)):
    fp = FourierPrime.from_modulus(p)
    for i in range(200):
        a = DensePoly(fp, tuple(rng.randrange(1, p) for _ in range(z)))
        b = DensePoly(fp, tuple(rng.randrange(1, p) for _ in range(z + 1)))
        poly_mul(a, b, ConvRequest(fp, engine=("tft", "fft_pad", "split")[i % 3]))
print(transform._python_butterflies, "numpy" in sys.modules)
"""
    )
    assert out.split() == ["0", "False"]


def test_planning_leaves_numpy_unloaded(tmp_path):
    # The planner's timings never count, so `modconv plan` keeps timing the
    # Python loops that a fresh `modconv mul` process below 2**15 runs.
    store = tmp_path / "plans.txt"
    out = _run_python(
        f"""
import sys
from modconv import cli, transform
assert cli.main(["plan", "--max-l", "16384", "--prime", "998244353", "--store", {str(store)!r}]) == 0
print(transform._python_butterflies, "numpy" in sys.modules)
"""
    )
    assert out.split()[-2:] == ["0", "False"]


@needs_numpy
def test_the_tally_counts_what_ran_on_lists():
    # In a process that has not loaded numpy: what each caller adds, and the
    # budget's edge. No modconv code reads a clock on the way.
    out = _run_python(
        """
import random, sys, time
from modconv import ConvRequest, DensePoly, FourierPrime, get_table, moddft, planner, poly_mul, transform
fp = FourierPrime.from_modulus(998244353)
rng = random.Random(23)
assert transform._BUDGET == ((1 << 15) // 2) * 15 == 245760
clock_reads = []
def watch(clock):
    def read():
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("modconv"):
            clock_reads.append(caller)
        return clock()
    return read
clocks = {name: getattr(time, name) for name in
          ("time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
           "process_time", "process_time_ns", "thread_time", "thread_time_ns")}
def added(call):
    before = transform._python_butterflies
    call()
    return transform._python_butterflies - before
def product(size):
    # A tft product whose transforms have `size` points.
    z = size // 2
    a = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(z)))
    b = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(z + 1)))
    return lambda: poly_mul(a, b, ConvRequest(fp, engine="tft"))
for name, clock in clocks.items():
    setattr(time, name, watch(clock))
assert [added(product(1 << k)) for k in (8, 9, 14)] == [0, 3 * 256 * 9, 3 * 8192 * 14]
transform._python_butterflies = 0
x = [rng.randrange(fp.p) for _ in range(1 << 10)]
assert added(lambda: moddft(x, get_table(fp, 1 << 10))) == 512 * 10
for name, clock in clocks.items():
    setattr(time, name, clock)
session = planner.PlanSession(reps=1)
for key in planner.planned_keys(fp.p, 1 << 10):
    assert added(lambda: session.search(key)) == 0
for name, clock in clocks.items():
    setattr(time, name, watch(clock))
transform._python_butterflies = transform._BUDGET - 1
assert transform._numpy_kernels(fp.p, 1 << 9) is None and "numpy" not in sys.modules
transform._python_butterflies = transform._BUDGET
assert transform._numpy_kernels(fp.p, 1 << 9).__name__ == "modconv._ntt_numpy"
assert not clock_reads, clock_reads
print("numpy" in sys.modules)
"""
    )
    assert out.strip() == "True"


def test_a_failed_numpy_import_is_tried_once():
    # Without numpy, every eligible call would otherwise run _ntt_numpy up to
    # its failing `import numpy` again.
    out = _run_python(
        """
import random, sys
sys.modules["numpy"] = None
from modconv import ConvRequest, DensePoly, FourierPrime, poly_mul, transform
attempts = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "modconv._ntt_numpy":
            attempts.append(name)
        return None
sys.meta_path.insert(0, Spy())
fp = FourierPrime.from_modulus(998244353)
rng = random.Random(24)
transform._python_butterflies = transform._BUDGET
for _ in range(10):
    a = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(300)))
    b = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(301)))
    poly_mul(a, b, ConvRequest(fp, engine="tft"))
    assert transform._numpy_kernels(fp.p, 1 << 16) is None
print(len(attempts))
"""
    )
    assert int(out) <= 1


def test_missing_numpy_falls_back_to_python():
    out = _run_python(
        """
import random, sys
sys.modules["numpy"] = None
from dataclasses import replace
from modconv import ConvRequest, DensePoly, Felt, FourierPrime, eval_poly, get_table, poly_mul
from modconv import transform
fp = FourierPrime.from_modulus(998244353)
assert transform._numpy_kernels(fp.p, 1 << 16) is None
rng = random.Random(15)
a = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(1 << 14)))
b = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(1 << 14 | 2)))
req = ConvRequest(fp, engine="tft")
c = poly_mul(a, b, req)
assert len(c) == (1 << 15) + 1
assert poly_mul(a, b, replace(req, engine="fft_pad")) == c
x = Felt(rng.randrange(fp.p), fp)
assert eval_poly(c, x) == eval_poly(a, x) * eval_poly(b, x)
print("ok")
"""
    )
    assert out.strip() == "ok"


_PRODUCT_NEAR_2_10 = """
import json, random, sys
from modconv import ConvRequest, DensePoly, FourierPrime, OpCounters, get_table, poly_mul
fp = FourierPrime.from_modulus(998244353)
rng = random.Random(18)
a = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(600)))
b = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(424)))
out = {}
for engine in ("tft", "fft_pad", "split"):
    ops = OpCounters()
    c = poly_mul(a, b, ConvRequest(fp, engine=engine, counters=ops))
    out[engine] = [list(c.coeffs), ops.butterflies, ops.pointwise_muls]
# tft and fft_pad transform at 2**10, split at 2**9 with a 2**10 twist.
out["numpy_arrays"] = [get_table(fp, s).numpy_arrays is not None for s in (512, 1024)]
print(json.dumps(out))
"""


@needs_numpy
def test_loaded_numpy_runs_small_products_in_numpy():
    # The same product of length 1023 in a process that imported numpy first
    # and in one that cannot import it.
    with_numpy = json.loads(_run_python("import numpy\n" + _PRODUCT_NEAR_2_10))
    without = json.loads(_run_python('import sys\nsys.modules["numpy"] = None\n' + _PRODUCT_NEAR_2_10))
    assert with_numpy.pop("numpy_arrays") == [True, True]
    assert without.pop("numpy_arrays") == [False, False]
    assert with_numpy == without
    assert len(without["tft"][0]) == 1023


_FIRST_PRODUCT_PAST_2_15 = """
import json, random
from modconv import ConvRequest, DensePoly, FourierPrime, OpCounters, convolve, poly_mul
fp = FourierPrime.from_modulus(998244353)
rng = random.Random(19)
a = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range(1 << 14)))
b = DensePoly(fp, tuple(rng.randrange(1, fp.p) for _ in range((1 << 14) + 2)))
pointwise, seen = convolve._pointwise, []
def spy(x, y, p, req):
    seen.append([type(x).__name__, type(y).__name__])
    return pointwise(x, y, p, req)
convolve._pointwise = spy
ops = OpCounters()
c = poly_mul(a, b, ConvRequest(fp, engine="tft", counters=ops))
print(json.dumps({"c": list(c.coeffs), "ops": [ops.butterflies, ops.pointwise_muls], "seen": seen}))
"""


@needs_numpy
def test_first_product_past_2_15_runs_in_arrays():
    # n = 2**15 + 1: the process's first product that large imports numpy and
    # already keeps its spectra in arrays, like every product after it.
    with_numpy = json.loads(_run_python(_FIRST_PRODUCT_PAST_2_15))
    without = json.loads(_run_python('import sys\nsys.modules["numpy"] = None\n' + _FIRST_PRODUCT_PAST_2_15))
    assert with_numpy.pop("seen") == [["ndarray", "ndarray"]]
    assert without.pop("seen") == [["list", "list"]]
    assert with_numpy == without
    assert len(without["c"]) == (1 << 15) + 1


@pytest.mark.parametrize("loaded", [False, True])
def test_numpy_rule_is_one_inequality(loaded):
    # max(tally, one transform's butterflies) >= _BUDGET decides exactly as
    # the two conditions it replaced: a transform of 2**15 points or more,
    # or a tally of _BUDGET, or numpy loaded, over p < 2**32 from 2**9 up.
    def two_conditions(p, size, tally):
        if p >= 1 << 32 or size < 1 << 9:
            return False
        return size >= 1 << 15 or tally >= transform._BUDGET or loaded

    sizes = [1 << k for k in range(8, 17)] + [300, 511, 513, 1000, 3 << 13, (1 << 15) - 1, (1 << 15) + 1, 40000]
    # A stand-in for the kernels module and for numpy, so that no import
    # runs and the remembered import result is left alone.
    with mock.patch.object(transform, "_load_numpy_kernels", lambda: "kernels"), \
            mock.patch.dict(sys.modules, {"numpy": object() if loaded else None}):
        for tally in (0, transform._BUDGET - 1, transform._BUDGET):
            with mock.patch.object(transform, "_python_butterflies", tally):
                for p in (998244353, 4293918721, 2305843009448574977):
                    for size in sizes:
                        got = transform._numpy_kernels(p, size)
                        assert (got == "kernels") == two_conditions(p, size, tally), (p, size, tally)
                        assert got in ("kernels", None)


def test_op_counters_are_a_plain_value():
    c = OpCounters(3, 4)
    assert (c.butterflies, c.pointwise_muls) == (3, 4)
    assert repr(c) == "OpCounters(butterflies=3, pointwise_muls=4)"
    assert c == OpCounters(butterflies=3, pointwise_muls=4) != OpCounters()
    assert c.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError):
        hash(c)
    with pytest.raises(AttributeError):
        c.extra = 1
