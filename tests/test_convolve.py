import contextlib
import importlib.util
import math
import random
import sys
import threading
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modconv import (
    ENGINES,
    ConvRequest,
    DensePoly,
    FieldMismatchError,
    FourierPrime,
    OpCounters,
    UnsupportedSizeError,
    circ_conv_def,
    circ_conv_fft,
    circ_conv_split,
    conv_tft,
    lin_conv_def,
    lin_conv_fft_pad,
    lin_conv_kronecker,
    moddft,
    moddft_naive,
    mul_schoolbook,
    nega_conv,
    get_table,
    itft,
    poly_mul,
    recombine_residues,
    split_residues,
    tft,
)
from modconv import transform
from modconv.planner import PlanSession
from modconv.poly import schoolbook_raw

from conftest import random_vec


class TestDefinitionOracles:
    def test_circular_delta_identity(self, fp17, rng):
        v = random_vec(rng, fp17, 8)
        delta = [1] + [0] * 7
        assert circ_conv_def(delta, v, fp17) == v

    def test_circular_shift(self, fp17):
        assert circ_conv_def([0, 1, 0, 0], [1, 2, 3, 4], fp17) == [4, 1, 2, 3]

    def test_circular_annihilation_mod5(self):
        fp5 = FourierPrime.from_modulus(5)
        assert circ_conv_def([1, 1, 1, 1], [1, 2, 3, 4], fp5) == [0, 0, 0, 0]

    def test_circulant_matrix_equivalence(self, fp257, rng):
        # The definition must equal the circulant matrix-vector product.
        n = 6
        u = random_vec(rng, fp257, n)
        v = random_vec(rng, fp257, n)
        p = fp257.p
        want = [
            sum(u[(i - j) % n] * v[j] for j in range(n)) % p for i in range(n)
        ]
        assert circ_conv_def(u, v, fp257) == want

    def test_linear_identity(self, fp17, rng):
        v = random_vec(rng, fp17, 6)
        assert lin_conv_def([1], v, fp17) == v

    def test_linear_hand_example(self):
        fp7 = FourierPrime.from_modulus(7)
        assert lin_conv_def([1, 2], [3, 4], fp7) == [3, 3, 1]

    def test_linear_matches_schoolbook_sweep(self, fp998, rng):
        # The defining sum against Kronecker's product, which shares no loop with it.
        for _ in range(80):
            u = random_vec(rng, fp998, rng.randint(1, 32))
            v = random_vec(rng, fp998, rng.randint(1, 32))
            assert lin_conv_def(u, v, fp998) == lin_conv_kronecker(u, v, fp998)


# The engine functions that take the field itself; the others take a ConvRequest.
FIELD_ENGINES = (circ_conv_def, lin_conv_def, lin_conv_kronecker)
ALL_ENGINES = (*FIELD_ENGINES, circ_conv_fft, lin_conv_fft_pad, nega_conv, circ_conv_split, conv_tft)
CIRCULAR = (circ_conv_def, circ_conv_fft, nega_conv, circ_conv_split)


def _engine_arg(engine, fp):
    return fp if engine in FIELD_ENGINES else ConvRequest(fp)


# (engine, len(u), len(v), raises): every engine refuses an empty operand and
# the circular ones unequal lengths; the transform-backed circular engines
# refuse lengths their table cannot have, and the split a 2n of 1.
USAGE_CASES = [
    *((e, a, b, True) for e in ALL_ENGINES for a, b in ((0, 1), (1, 0), (0, 0))),
    *((e, 2, 1, True) for e in CIRCULAR),
    *((e, n, n, True) for e in CIRCULAR[1:] for n in (3, 6)),
    (circ_conv_split, 1, 1, True),
    (circ_conv_def, 6, 6, False),
]


@pytest.mark.parametrize(
    "engine, a, b, raises",
    USAGE_CASES,
    ids=[f"{e.__name__}-{a}x{b}" for e, a, b, _ in USAGE_CASES],
)
def test_usage_errors(fp998, engine, a, b, raises):
    u, v = list(range(1, a + 1)), list(range(2, b + 2))
    if raises:
        with pytest.raises(ValueError):
            engine(u, v, _engine_arg(engine, fp998))
        return
    # The circulant sum of test_circulant_matrix_equivalence.
    want = [sum(u[(i - j) % a] * v[j] for j in range(a)) % fp998.p for i in range(a)]
    assert engine(u, v, _engine_arg(engine, fp998)) == want


class TestCircularFft:
    def test_matches_definition(self, fp998, fp257, rng):
        for fp in (fp257, fp998):
            req = ConvRequest(fp, engine="fft_pad")
            size = 2
            while size <= 256:
                u = random_vec(rng, fp, size)
                v = random_vec(rng, fp, size)
                assert circ_conv_fft(u, v, req) == circ_conv_def(u, v, fp), size
                size <<= 1

    def test_delta_identity(self, fp998, rng):
        req = ConvRequest(fp998, engine="fft_pad")
        v = random_vec(rng, fp998, 16)
        assert circ_conv_fft([1] + [0] * 15, v, req) == v

    def test_pointwise_counter_is_size(self, fp998, rng):
        counters = OpCounters()
        req = ConvRequest(fp998, engine="fft_pad", counters=counters)
        circ_conv_fft(random_vec(rng, fp998, 64), random_vec(rng, fp998, 64), req)
        assert counters.pointwise_muls == 64
        assert counters.butterflies == 3 * 32 * 6

    def test_unsupported_size(self, fp17, rng):
        req = ConvRequest(fp17, engine="fft_pad")
        with pytest.raises(UnsupportedSizeError):
            circ_conv_fft(random_vec(rng, fp17, 32), random_vec(rng, fp17, 32), req)


class TestLinearFftPad:
    def test_hand_example(self):
        fp7 = FourierPrime.from_modulus(7)
        # p=7 cannot host the padded transform; use a compatible prime instead.
        fp = FourierPrime.from_modulus(17)
        req = ConvRequest(fp, engine="fft_pad")
        assert lin_conv_fft_pad([1, 2], [3, 4], req) == [3, 10, 8]
        assert [v % 7 for v in (3, 10, 8)] == [3, 3, 1]

    def test_matches_definition(self, fp998, rng):
        req = ConvRequest(fp998, engine="fft_pad")
        for _ in range(50):
            u = random_vec(rng, fp998, rng.randint(1, 48))
            v = random_vec(rng, fp998, rng.randint(1, 48))
            assert lin_conv_fft_pad(u, v, req) == lin_conv_def(u, v, fp998)

    def test_padded_size_jump_at_boundary(self, fp998, rng):
        # Crossing the power-of-two boundary doubles the padded transform,
        # so the butterfly count jumps while correctness is unchanged.
        half = 64
        u = random_vec(rng, fp998, half)
        v = random_vec(rng, fp998, half)
        at = OpCounters()
        lin_conv_fft_pad(u, v, ConvRequest(fp998, counters=at, engine="fft_pad"))
        over = OpCounters()
        u2 = random_vec(rng, fp998, half + 1)
        v2 = random_vec(rng, fp998, half + 1)
        lin_conv_fft_pad(u2, v2, ConvRequest(fp998, counters=over, engine="fft_pad"))
        assert at.butterflies == 3 * 64 * 7  # L = 128
        assert over.butterflies == 3 * 128 * 8  # L = 256
        assert at.pointwise_muls == 128 and over.pointwise_muls == 256

    def test_zero_input(self, fp998, rng):
        req = ConvRequest(fp998, engine="fft_pad")
        v = random_vec(rng, fp998, 10)
        assert lin_conv_fft_pad([0] * 4, v, req) == [0] * 13


class TestNegacyclic:
    def test_delta_identity(self, fp998, rng):
        req = ConvRequest(fp998)
        v = random_vec(rng, fp998, 16)
        assert nega_conv([1] + [0] * 15, v, req) == v

    def test_x_squared_wraps_to_minus_one(self, fp17):
        req = ConvRequest(fp17)
        assert nega_conv([0, 1], [0, 1], req) == [16, 0]

    def test_matches_reduced_schoolbook(self, fp998, rng):
        req = ConvRequest(fp998)
        size = 2
        while size <= 64:
            u = random_vec(rng, fp998, size)
            v = random_vec(rng, fp998, size)
            full = schoolbook_raw(u, v, fp998.p) + [0]
            want = [(full[i] - full[i + size]) % fp998.p for i in range(size)]
            assert nega_conv(u, v, req) == want, size
            size <<= 1

    def test_needs_double_adicity(self, fp17, rng):
        req = ConvRequest(fp17)
        with pytest.raises(UnsupportedSizeError):
            nega_conv(random_vec(rng, fp17, 16), random_vec(rng, fp17, 16), req)


class TestSplitEngine:
    def test_residue_maps_hand_example(self, fp17):
        a, b = split_residues([1, 2, 3, 4], 17)
        assert a == [4, 6]
        assert b == [(1 - 3) % 17, (2 - 4) % 17] == [15, 15]

    def test_residue_maps_are_mutually_inverse(self, fp998, rng):
        for size in (2, 8, 64, 256):
            u = random_vec(rng, fp998, size)
            a, b = split_residues(u, fp998.p)
            assert recombine_residues(a, b, fp998.p) == u

    def test_matches_definition(self, fp998, fp257, rng):
        for fp in (fp257, fp998):
            req = ConvRequest(fp)
            size = 4
            while size <= 256:
                u = random_vec(rng, fp, size)
                v = random_vec(rng, fp, size)
                assert circ_conv_split(u, v, req) == circ_conv_def(u, v, fp), size
                size <<= 1

    def test_delta_identity(self, fp998, rng):
        req = ConvRequest(fp998)
        v = random_vec(rng, fp998, 32)
        assert circ_conv_split([1] + [0] * 31, v, req) == v


class TestConvTft:
    def test_hand_example_mod17(self, fp17):
        req = ConvRequest(fp17, engine="tft")
        assert conv_tft([1, 2], [3, 4], req) == [3, 10, 8]

    def test_unsupported_on_low_adicity_prime(self):
        fp7 = FourierPrime.from_modulus(7)
        req = ConvRequest(fp7, engine="tft")
        with pytest.raises(UnsupportedSizeError):
            conv_tft([1, 2], [3, 4], req)

    def test_scalar_product(self, fp17):
        req = ConvRequest(fp17, engine="tft")
        assert conv_tft([5], [7], req) == [1]

    def test_full_sweep_matches_schoolbook(self, fp998):
        rng = random.Random(31337)
        req = ConvRequest(fp998, engine="tft")
        for z1 in range(1, 65):
            for z2 in range(1, 65):
                g = random_vec(rng, fp998, z1)
                h = random_vec(rng, fp998, z2)
                assert conv_tft(g, h, req) == schoolbook_raw(g, h, fp998.p), (z1, z2)

    def test_exactly_n_pointwise_muls(self, fp998, rng):
        for z1, z2 in ((17, 17), (64, 3), (100, 100)):
            counters = OpCounters()
            req = ConvRequest(fp998, engine="tft", counters=counters)
            conv_tft(random_vec(rng, fp998, z1), random_vec(rng, fp998, z2), req)
            assert counters.pointwise_muls == z1 + z2 - 1

    def test_butterfly_budget(self, fp998, rng):
        for z1, z2 in ((33, 33), (100, 28), (256, 256)):
            n = z1 + z2 - 1
            size = 1 << (n - 1).bit_length()
            lg = size.bit_length() - 1
            counters = OpCounters()
            req = ConvRequest(fp998, engine="tft", counters=counters)
            conv_tft(random_vec(rng, fp998, z1), random_vec(rng, fp998, z2), req)
            assert counters.butterflies <= 3 * (n * lg / 2 + size)


class TestConvolutionTheorem:
    def test_transform_of_convolution_is_pointwise_product(self, fp998, rng):
        size = 2
        while size <= 128:
            table = get_table(fp998, size)
            for _ in range(10):
                u = random_vec(rng, fp998, size)
                v = random_vec(rng, fp998, size)
                lhs = moddft(circ_conv_def(u, v, fp998), table)
                rhs = [
                    a * b % fp998.p
                    for a, b in zip(moddft(u, table), moddft(v, table))
                ]
                assert lhs == rhs
            size <<= 1


class TestPolyMul:
    @pytest.fixture()
    def engines(self):
        return tuple(e for e in ENGINES if e != "auto")

    def test_engines_agree_on_length_100(self, fp998, rng, engines):
        a = DensePoly(fp998, tuple(random_vec(rng, fp998, 100)))
        b = DensePoly(fp998, tuple(random_vec(rng, fp998, 100)))
        results = {e: poly_mul(a, b, ConvRequest(fp998, engine=e)) for e in engines}
        assert len(set(results.values())) == 1
        assert results["tft"] == mul_schoolbook(a, b).normalize()

    def test_identity_and_zero_shortcut(self, fp998, rng):
        counters = OpCounters()
        req = ConvRequest(fp998, engine="tft", counters=counters)
        b = DensePoly(fp998, tuple(random_vec(rng, fp998, 9)))
        assert poly_mul(DensePoly.one(fp998), b, req) == b.normalize()
        before = counters.butterflies
        assert poly_mul(DensePoly.zero(fp998), b, req).is_zero()
        assert counters.butterflies == before  # no transform ran for the zero case

    def test_high_degree_stays_modular(self, fp17, rng):
        # deg(ab) reaches p-1 here; coefficients are residues, nothing lifts.
        a = DensePoly(fp17, tuple(random_vec(rng, fp17, 9)))
        b = DensePoly(fp17, tuple(random_vec(rng, fp17, 8)))
        req = ConvRequest(fp17, engine="tft")
        assert poly_mul(a, b, req) == mul_schoolbook(a, b).normalize()

    def test_mismatched_fields(self, fp17, fp257):
        with pytest.raises(FieldMismatchError):
            poly_mul(DensePoly.one(fp17), DensePoly.one(fp257), ConvRequest(fp17))
        with pytest.raises(FieldMismatchError):
            poly_mul(DensePoly.one(fp17), DensePoly.one(fp17), ConvRequest(fp257))

    def test_threads_do_not_change_results(self, fp998, rng, engines):
        a = DensePoly(fp998, tuple(random_vec(rng, fp998, 70)))
        b = DensePoly(fp998, tuple(random_vec(rng, fp998, 55)))
        for engine in engines:
            serial = poly_mul(a, b, ConvRequest(fp998, engine=engine, threads=1))
            threaded = poly_mul(a, b, ConvRequest(fp998, engine=engine, threads=4))
            assert serial == threaded

    def test_chunked_pointwise_schedule_independent(self, fp998, rng):
        u = random_vec(rng, fp998, 4100)
        v = random_vec(rng, fp998, 4100)
        serial = conv_tft(u, v, ConvRequest(fp998, engine="tft", threads=1))
        threaded = conv_tft(u, v, ConvRequest(fp998, engine="tft", threads=4))
        assert serial == threaded

    def test_threaded_counters_match_serial(self, fp998, rng):
        a = DensePoly(fp998, tuple(random_vec(rng, fp998, 90)))
        b = DensePoly(fp998, tuple(random_vec(rng, fp998, 90)))
        c1 = OpCounters()
        poly_mul(a, b, ConvRequest(fp998, engine="tft", threads=1, counters=c1))
        c4 = OpCounters()
        poly_mul(a, b, ConvRequest(fp998, engine="tft", threads=4, counters=c4))
        assert c1 == c4

    def test_threads_setting_runs_serially(self, fp998, rng, monkeypatch):
        # Large enough (n = 8199, L = 16384) that a size-gated parallel stage
        # would engage; no engine may start a thread at any setting.
        a = DensePoly(fp998, tuple(random_vec(rng, fp998, 4100)))
        b = DensePoly(fp998, tuple(random_vec(rng, fp998, 4100)))
        serial = {}
        for engine in ("tft", "fft_pad", "split"):
            counters = OpCounters()
            req = ConvRequest(fp998, engine=engine, threads=1, counters=counters)
            serial[engine] = (poly_mul(a, b, req), counters)

        def no_threads(*args, **kwargs):
            raise AssertionError("engines must not start threads")

        monkeypatch.setattr(threading, "Thread", no_threads)
        for engine, expected in serial.items():
            counters = OpCounters()
            req = ConvRequest(fp998, engine=engine, threads=4, counters=counters)
            assert (poly_mul(a, b, req), counters) == expected, engine

    def test_auto_requires_planner(self, fp998):
        a = DensePoly.one(fp998)
        with pytest.raises(ValueError):
            poly_mul(a, a, ConvRequest(fp998, engine="auto"))

    def test_auto_with_planner_matches_oracle(self, fp998, rng):
        session = PlanSession(reps=1)
        req = ConvRequest(fp998, engine="auto", planner=session)
        a = DensePoly(fp998, tuple(random_vec(rng, fp998, 40)))
        b = DensePoly(fp998, tuple(random_vec(rng, fp998, 30)))
        assert poly_mul(a, b, req) == mul_schoolbook(a, b).normalize()

    def test_rejects_unknown_engine(self, fp998):
        with pytest.raises(ValueError):
            ConvRequest(fp998, engine="fancy")


# Kronecker substitution against the quadratic oracle: a small prime, a word
# prime, and two 62-bit primes (2-adicity 25 and 11, whose products reach the
# widest slots). Shapes run from 1 x 1 through lopsided 1:1000 products.
KRONECKER_FIELDS = [
    FourierPrime.from_modulus(p) for p in (17, 998244353, 2305843009448574977, 2305843009213704193)
]


@st.composite
def kronecker_cases(draw):
    fp = draw(st.sampled_from(KRONECKER_FIELDS))
    short = draw(st.integers(1, 12))
    long = draw(st.sampled_from((short, draw(st.integers(1, 60)), 1000 * short)))
    z1, z2 = (short, long) if draw(st.booleans()) else (long, short)
    rng = random.Random(draw(st.integers(0, 2**32)))
    # p - 1 gives the largest products, so it is drawn often.
    vec = lambda k: [rng.choice((0, fp.p - 1, rng.randrange(fp.p))) for _ in range(k)]
    return fp, vec(z1), vec(z2)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(kronecker_cases())
def test_kronecker_matches_definition(case):
    fp, u, v = case
    assert lin_conv_kronecker(u, v, fp) == lin_conv_def(u, v, fp)
    counters = OpCounters()
    a, b = DensePoly(fp, tuple(u)), DensePoly(fp, tuple(v))
    got = poly_mul(a, b, ConvRequest(fp, engine="kronecker", counters=counters))
    assert got == mul_schoolbook(a, b).normalize()
    assert counters == OpCounters()


def test_kronecker_reduces_ints_outside_the_field(fp17):
    u, v = [-1, 17, 40, 2**70], [3, -20]
    assert lin_conv_kronecker(u, v, fp17) == lin_conv_def(u, v, fp17)


def test_kronecker_slots_hold_the_widest_sums():
    # min(z1, z2) products of (p - 1)**2 each: the largest coefficient there is.
    for p in (17, 2305843009213704193):
        fp = FourierPrime.from_modulus(p)
        for z in (1, 2, 3, 4, 255, 256):
            u = [p - 1] * z
            assert lin_conv_kronecker(u, u, fp) == lin_conv_def(u, u, fp), (p, z)


# Primes of both numpy multiplies. Below 2**32: 2-adicity 4, 8, 23, 30 and
# 20, the last 2**32 - 2**20 + 1, whose residue products come closest to
# 2**64. From 2**32 up: 2-adicity 25, 11 and 20, the last
# 2**62 - 21 * 2**20 + 1, whose sums come closest to 2**64.
ARRAY_FIELDS = [
    FourierPrime.from_modulus(p)
    for p in (17, 257, 998244353, 3221225473, 4293918721, 2305843009448574977, 2305843009213704193,
              4611686018405367809)
]


@st.composite
def array_cases(draw):
    fp = draw(st.sampled_from(ARRAY_FIELDS))
    # nega_conv needs a root of order 2 * size.
    size = 1 << draw(st.integers(1, min(fp.two_adicity - 1, 10)))
    z1 = draw(st.integers(1, size))
    z2 = draw(st.integers(1, size + 1 - z1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        vec = lambda k: [rng.randrange(fp.p) for _ in range(k)]
    else:
        # Ints outside [0, p): negative, in [p, p + 2**32), in [p, 2**64), from 2**64 up.
        spans = ((-(1 << 70), 0), (fp.p, fp.p + (1 << 32)), (fp.p, 1 << 64), (1 << 64, 1 << 70))
        vec = lambda k: [rng.randrange(*rng.choice(spans)) for _ in range(k)]
    return fp, vec(size), vec(size), vec(z1), vec(z2)


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@settings(derandomize=True, max_examples=120, deadline=None)
@given(array_cases())
def test_array_path_matches_list_path(case):
    # Each door on lists, on either backend, and its core on lists and on
    # uint64 arrays return the same values and count the same operations.
    import numpy as np

    from modconv import convolve

    fp, u, v, g, h = case
    residues = lambda x: [y % fp.p for y in x]
    # Each door with its core, the size L of the table the door runs it on,
    # and whether the door hands it the twist's table.
    padded = 1 << (len(g) + len(h) - 2).bit_length()
    calls = [
        (conv_tft, convolve._ENGINES["tft"].core, padded, (g, h), False),
        (lin_conv_fft_pad, convolve._ENGINES["fft_pad"].core, padded, (g, h), False),
        (circ_conv_fft, convolve._circ_conv_fft, len(u), (u, v), False),
        (nega_conv, convolve._circ_conv_fft, len(u), (u, v), True),
        (circ_conv_split, convolve._circ_conv_split, len(u) >> 1, (u, v), True),
    ]

    def run(engine, args, size=None, twists=False):
        counters = OpCounters()
        req = ConvRequest(fp, counters=counters)
        if size is None:
            return engine(*args, req), counters
        # A core runs on the table it is handed and returns L times its
        # product; one scale by that same table divides it, as the door does.
        table = get_table(fp, size)
        # A core that twists takes the 2L table, as `_product` hands it.
        tables = {"twist": get_table(fp, 2 * size)} if twists else {}
        return transform._div_size(engine(table, *args, req, **tables), table), counters

    for door, core, size, args, twists in calls:
        canonical = [residues(x) for x in args]
        with mock.patch.object(transform, "_NUMPY_CROSSOVER", 1 << 62):
            listed = run(door, args)
            assert run(door, canonical) == listed, door.__name__
        assert run(core, canonical, size, twists) == listed, door.__name__
        # numpy is loaded here, so the crossover alone moves every size to arrays.
        with mock.patch.object(transform, "_NUMPY_CROSSOVER", 1):
            assert run(door, args) == listed, door.__name__
        arrays = [np.array(x, dtype=np.uint64) for x in canonical]
        out, counters = run(core, arrays, size, twists)
        assert isinstance(out, np.ndarray) and out.dtype == np.uint64, door.__name__
        assert (out.tolist(), counters) == listed, door.__name__
        assert [x.tolist() for x in arrays] == canonical
    a, b = split_residues(np.array(residues(u), dtype=np.uint64), fp.p)
    assert [a.tolist(), b.tolist()] == list(split_residues(u, fp.p))
    assert recombine_residues(a, b, fp.p).tolist() == residues(u)


# Every public function that takes coefficient vectors refuses an ndarray:
# the eight doors over array cores and the three list-only engines.
TRANSFORMS = (moddft, tft, itft)
DOORS = (*TRANSFORMS, *ALL_ENGINES)


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("length", [10, 600])
@pytest.mark.parametrize("engine", DOORS, ids=lambda e: e.__name__)
def test_array_operands_run_or_raise(fp998, engine, length):
    # Lists run or are refused by length; a uint64 array of residues (p - 1
    # and p - 2, the widest products) in either position raises ValueError
    # whatever the length: only the cores and the residue maps take arrays.
    import numpy as np

    p = fp998.p
    size = 1 << (length - 1).bit_length()
    n = size if engine is moddft else length
    listed = ([p - 1] * n, [p - 2] * n)
    arrays = [np.full(n, x[0], dtype=np.uint64) for x in listed]
    table = get_table(fp998, size)
    call = {
        moddft: lambda x, y: moddft(x, table),
        tft: lambda x, y: tft(table, x, size),
        itft: lambda x, y: itft(table, x),
    }.get(engine, lambda x, y: engine(x, y, _engine_arg(engine, fp998)))
    try:
        want = call(*listed)
    except ValueError:
        want = None
    pairs = [(arrays[0], listed[1]), arrays]
    if engine not in TRANSFORMS:
        pairs.append((listed[0], arrays[1]))
    for pair in pairs:
        with pytest.raises(ValueError, match="ndarray"):
            call(*pair)
    if want is not None:
        assert type(want) is list and call(*listed) == want


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
def test_arrays_must_hold_residues(fp998):
    # The residue maps take an ndarray, as the split core hands them, and
    # only one that holds residues: 1-D uint64, every value below p, over
    # any prime. Their lengths are checked for lists and arrays alike.
    import numpy as np

    p = fp998.p
    ones = np.ones(4, dtype=np.uint64)
    bad = (np.array([2**40] * 4, dtype=np.uint64), np.full(4, p, dtype=np.uint64),
           np.full(4, -1, dtype=np.int64), np.ones(4, dtype=np.float64), np.ones((4, 4), dtype=np.uint64))
    for x in bad:
        with pytest.raises(ValueError, match="residues"):
            split_residues(x, p)
        with pytest.raises(ValueError, match="residues"):
            recombine_residues(x, ones, p)
        with pytest.raises(ValueError, match="residues"):
            recombine_residues(ones, x, p)
    # A 62-bit prime's arrays are residues like any other's.
    wide = 2305843009448574977
    assert [x.tolist() for x in split_residues(np.full(4, wide - 1, dtype=np.uint64), wide)] == \
        [[wide - 2] * 2, [0] * 2]
    with pytest.raises(ValueError, match="residues"):
        split_residues(np.full(4, wide, dtype=np.uint64), wide)
    for u in ([1, 2, 3, 4, 5], [1], [], ones[:3], ones[:0]):
        with pytest.raises(ValueError, match="even nonzero"):
            split_residues(u, 17)
    for a, b in (([1, 2, 3], [4]), ([], []), (ones[:3], ones[:1]), (ones[:2], [1])):
        with pytest.raises(ValueError, match="equal nonempty"):
            recombine_residues(a, b, 17)
    # Residues up to p - 1 still run, and equal the list path.
    top = [p - 1] * 4
    halves = split_residues(np.array(top, dtype=np.uint64), p)
    assert [x.tolist() for x in halves] == list(split_residues(top, p))


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("p", [998244353, 4293918721])
def test_mixed_inputs_follow_the_array_rule(p):
    # An ndarray among the residue maps' inputs puts them in arrays: each
    # input is then read by _ntt_numpy.residues, which reduces a list and
    # checks an array, and the result is an array equal to the list result.
    import numpy as np

    rng = random.Random(p)
    for length in (2, 256):
        # Residues of p - 1 make the widest sums the maps form.
        for u in ([rng.randrange(p) for _ in range(length)], [p - 1] * length):
            a, b = split_residues(u, p)
            halves = split_residues(np.array(u, dtype=np.uint64), p)
            assert [x.tolist() for x in halves] == [a, b]
            wide = [x + p for x in a]
            for pair in ((halves[0], b), (a, halves[1]), (wide, halves[1]), halves):
                out = recombine_residues(*pair, p)
                assert isinstance(out, np.ndarray) and out.tolist() == u
            assert recombine_residues(a, b, p) == u
        negatives = np.full(length >> 1, -1, dtype=np.int64)
        with pytest.raises(ValueError, match="residues"):
            recombine_residues(a, negatives, p)
        # Beside an array, a list is still read by the lists' integer rule.
        with pytest.raises(ValueError, match="integers"):
            recombine_residues(halves[0], [0.5] * len(b), p)
        with pytest.raises(ValueError, match="residues"):
            recombine_residues(negatives, b, p)


def test_every_engine_sees_integer_coefficients(fp998):
    # A float coefficient would reach every engine's arithmetic (and come out
    # as floats, or raise in kronecker); int-likes are stored as ints, so all
    # engines agree.
    for bad in ((1.5, 2), (2, 0.5)):
        with pytest.raises(ValueError, match="not an integer"):
            DensePoly(fp998, bad)
    a = DensePoly(fp998, (True, 2, False, fp998.p - 1))
    b = DensePoly.from_ints(fp998, (3, 1))
    if importlib.util.find_spec("numpy") is not None:
        import numpy as np

        b = DensePoly(fp998, (np.int64(3), np.uint64(1)))
    want = mul_schoolbook(DensePoly(fp998, (1, 2, 0, fp998.p - 1)), DensePoly(fp998, (3, 1)))
    for engine in (e for e in ENGINES if e != "auto"):
        got = poly_mul(a, b, ConvRequest(fp998, engine=engine))
        assert got == want and {type(c) for c in got.coeffs} == {int}, engine


def _traced_call(call, fp, engine):
    """call(req)'s result, req's OpCounters, and (name, ran on an ndarray) per transform and residue map.

    Each is seen through its name in convolve, which perfbench's spans wrap:
    a numpy kernel or numpy residue step that runs outside those names
    fails the call.
    """
    from modconv import _ntt_numpy, convolve

    seen = []
    depth = [0]

    def on_arrays(args):
        # Whether an argument, or the first row of a stack, is an ndarray.
        rows = [a[0] for a in args if isinstance(a, (tuple, list)) and a]
        return transform._array_kernels(*args, *rows) is not None

    def spy(name, real):
        def wrapped(*args, **kwargs):
            seen.append((name, on_arrays(args)))
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapped

    def inside(real):
        def wrapped(*args, **kwargs):
            assert depth[0], f"{real.__name__} ran outside convolve's names"
            return real(*args, **kwargs)

        return wrapped

    counters = OpCounters()
    names = ("moddft", "tft", "itft", "split_residues", "recombine_residues")
    with mock.patch.multiple(convolve, **{k: spy(k, getattr(convolve, k)) for k in names}), \
            mock.patch.multiple(_ntt_numpy, **{k: inside(getattr(_ntt_numpy, k)) for k in ("moddft", "tft", "itft")}), \
            mock.patch.object(_ntt_numpy, "pair", inside(_ntt_numpy.pair)):
        out = call(ConvRequest(fp, engine=engine, counters=counters))
    return out, counters, seen


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("p", [998244353, 4293918721])
# Product lengths around 2**8, where every engine's transforms cross into
# numpy at n = 129 (split's half-size ones by its twist's size), around
# 2**9 and 2**10, and around 2**15.
@pytest.mark.parametrize("n", [128, 129, 256, 257, 512, 513, 777, 1024, 1025, 1 << 15, (1 << 15) + 1])
def test_poly_mul_crosses_once_and_matches_python_loops(p, n):
    import numpy  # noqa: F401  loaded, so the crossover alone puts sizes in numpy

    from modconv import convolve

    fp = FourierPrime.from_modulus(p)
    rng = random.Random(n)
    z1 = (n + 2) // 2
    # The transforms and residue maps each engine runs, by convolve's names:
    # one forward call on the stack of both inputs (of split's four halves)
    # and one inverse call.
    runs = {
        "tft": ["tft", "itft"],
        "fft_pad": ["moddft"] * 2,
        "split": ["split_residues"] * 2 + ["moddft"] * 2 + ["recombine_residues"],
    }
    for coeffs in (lambda z: [rng.randrange(1, p) for _ in range(z)], lambda z: [p - 1] * z):
        a, b = DensePoly(fp, coeffs(z1)), DensePoly(fp, coeffs(n + 1 - z1))
        product = lambda req: poly_mul(a, b, req)
        for engine in ("tft", "fft_pad", "split"):
            with mock.patch.object(transform, "_NUMPY_CROSSOVER", 1 << 62):
                want, want_counters, python = _traced_call(product, fp, engine)
            assert not any(array for _, array in python)
            got, counters, backends = _traced_call(product, fp, engine)
            assert (got, counters) == (want, want_counters), (engine, n)
            assert {type(c) for c in got.coeffs} == {int}
            assert [name for name, _ in backends] == [name for name, _ in python] == runs[engine]
            assert any(array for _, array in backends) == (n > 128)
            # Each transform runs on the backend the engine picks when it is
            # handed the operands as lists, and returns a list.
            listed = list(a.coeffs), list(b.coeffs)
            out, _, own = _traced_call(lambda req: transform._listed(convolve._ENGINES[engine].run(*listed, req)), fp, engine)
            assert backends == own, (engine, n)
            assert isinstance(out, list) and tuple(out) == want.coeffs


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("p", [2305843009448574977, 2305843009213704193, 4611686018405367809])
def test_wide_products_in_numpy_match_definition(p):
    # With numpy loaded, products over 62-bit primes from 2**9 up run the
    # limb product in numpy. Each engine equals the pure-Python schoolbook
    # (`mul_schoolbook`, which no engine runs) on all p - 1, the widest
    # residues, and on random ones, and counts what the Python loops count.
    import numpy  # noqa: F401  loaded, so the crossover alone puts sizes in numpy

    fp = FourierPrime.from_modulus(p)
    rng = random.Random(p)
    for n in (513, 1025):
        z1 = (n + 2) // 2
        for coeffs in (lambda z: [p - 1] * z, lambda z: [rng.randrange(p) for _ in range(z)]):
            a, b = DensePoly(fp, coeffs(z1)), DensePoly(fp, coeffs(n + 1 - z1))
            want = mul_schoolbook(a, b).normalize()
            for engine in ("fft_pad", "tft", "split", "kronecker"):
                python = OpCounters()
                with mock.patch.object(transform, "_NUMPY_CROSSOVER", 1 << 62):
                    assert poly_mul(a, b, ConvRequest(fp, engine=engine, counters=python)) == want, engine
                counters = OpCounters()
                assert poly_mul(a, b, ConvRequest(fp, engine=engine, counters=counters)) == want, engine
                assert counters == python, engine
        # The transforms ran in numpy: they filled their tables' arrays.
        assert get_table(fp, 1 << (n - 1).bit_length()).numpy_arrays is not None


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("p", [998244353, 2305843009448574977])
def test_four_threads_multiply_at_once(p):
    # Four threads run fft_pad, tft, split and definition products in numpy
    # at once, on tables none of them has built yet: each gets the
    # coefficients and the counts of the same products run by one thread.
    import numpy  # noqa: F401  loaded, so the products run in arrays

    fp = FourierPrime.from_modulus(p)
    rng = random.Random(p)
    a = DensePoly(fp, tuple(rng.randrange(p) for _ in range(2100)))
    b = DensePoly(fp, tuple(rng.randrange(p) for _ in range(2107)))
    engines = ("fft_pad", "tft", "split", "definition")

    def products(order):
        out = {}
        for engine in order:
            counters = OpCounters()
            out[engine] = poly_mul(a, b, ConvRequest(fp, engine=engine, counters=counters)), counters
        return out

    want = products(engines)
    transform._build_table.cache_clear()
    start = threading.Barrier(4, timeout=60)
    got = [None] * 4

    def worker(i):
        start.wait()
        got[i] = products(engines[i:] + engines[:i])

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [want] * 4


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("p", [998244353, 2305843009448574977])
def test_four_threads_run_deep_itft_paths_at_once(p):
    # Four threads run tft products in numpy at once, on tables none of
    # them has filled, whose itft walks a deep path (n = 3L/4 - 1 and 7L/8
    # + 5 at L = 2**9..2**11) and so makes its cross twiddles on the table:
    # each thread's products equal the pure-Python schoolbook.
    import numpy  # noqa: F401  loaded, so the products run in arrays

    fp = FourierPrime.from_modulus(p)
    rng = random.Random(p)
    pairs = [(DensePoly(fp, tuple(rng.randrange(p) for _ in range(64))),
              DensePoly(fp, tuple(rng.randrange(p) for _ in range(n - 63))))
             for size in (1 << 9, 1 << 10, 1 << 11) for n in (3 * size // 4 - 1, 7 * size // 8 + 5)]
    want = {i: mul_schoolbook(a, b).normalize() for i, (a, b) in enumerate(pairs)}
    transform._build_table.cache_clear()
    start = threading.Barrier(4, timeout=60)
    got = [None] * 4

    def worker(i):
        start.wait()
        order = list(range(i, len(pairs))) + list(range(i))
        got[i] = {j: poly_mul(*pairs[j], ConvRequest(fp, engine="tft")) for j in order}

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [want] * 4


# Primes of each arithmetic of the numpy kernels: `_Lazy` below 2**30, `_Word`
# below 2**32 (3 * 2**30 + 1 and 2**32 - 2**20 + 1, whose products come
# closest to 2**64) and `_Wide` up to 2**62 (2**62 - 21 * 2**20 + 1 comes
# closest to 2**62).
SCHOOLBOOK_PRIMES = [17, 257, 998244353, 3221225473, 4293918721, 2305843009448574977, 2305843009213704193,
                     4611686018405367809]


def _schoolbook_shapes(p):
    # 1 x 1, 1 x n and n x 1, lopsided and balanced shapes just below, at
    # and past the switch, a longer side of several pieces of rows, and the
    # kernel's edges over p's arithmetic: short sides on both sides of
    # `limbs_from`, where the limb convolutions take over from the rows,
    # against longer sides of `rows_ratio` times them, the shortest the
    # rows take, and one value short of it; a longer side one value past a
    # piece (`_PIECE`); and, where it is in reach (512 with `_Wide`), the
    # exact-sum bound `piece` and one past it, where the shorter side goes
    # in two pieces.
    from modconv import _ntt_numpy, convolve

    f = _ntt_numpy._arith(p)
    switch, chunk, piece = convolve._SCHOOLBOOK_NUMPY, _ntt_numpy._CHUNK, _ntt_numpy._PIECE
    root = math.isqrt(switch)
    edge, rows = f.limbs_from, max(f.rows_ratio * (f.limbs_from - 1), 300)
    shapes = [(1, 1), (1, 40), (40, 1), (1, switch), (switch, 1), (3, switch // 3), (4, switch // 4),
              (root - 1, root + 1), (root, root), (root + 1, root + 1), (9, 300), (300, 9),
              (edge - 1, rows), (rows, edge - 1), (edge, rows + 1), (edge, edge), (edge + 1, 400),
              (edge, piece + 1), (2, chunk + 3)]
    if f.rows_ratio > 1:
        shapes += [(edge - 1, rows - 1), (1, f.rows_ratio), (f.rows_ratio - 1, 1)]
    if f.piece <= 1024:
        shapes += [(f.piece, f.piece + 3), (f.piece + 1, f.piece + 1), (700, f.piece + 1)]
    return shapes


def _schoolbook_inputs(rng, p, z1, z2):
    # Random residues, all p - 1, and all the widest limbs (`widest`).
    from modconv import _ntt_numpy

    yield [rng.randrange(p) for _ in range(z1)], [rng.randrange(p) for _ in range(z2)]
    for x in (p - 1, _ntt_numpy._arith(p).widest()):
        yield [x] * z1, [x] * z2


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("p", SCHOOLBOOK_PRIMES)
def test_definition_in_numpy_is_the_python_sum(p):
    # With numpy loaded, lin_conv_def runs the kernel from the switch up and
    # the Python loop below it, and both give schoolbook_raw's list, on
    # random residues, on all p - 1 and on the widest limbs, at every
    # arithmetic.
    import numpy  # noqa: F401  loaded, so lin_conv_def may run in numpy

    from modconv import _ntt_numpy, convolve

    fp = FourierPrime.from_modulus(p)
    rng = random.Random(p)
    ran = []
    real = _ntt_numpy.schoolbook

    def spy(u, v, q):
        ran.append((len(u), len(v)))
        return real(u, v, q)

    with mock.patch.object(_ntt_numpy, "schoolbook", spy):
        for z1, z2 in _schoolbook_shapes(p):
            for u, v in _schoolbook_inputs(rng, p, z1, z2):
                ran.clear()
                want = schoolbook_raw(u, v, p)
                assert lin_conv_def(u, v, fp) == want, (z1, z2)
                assert ran == ([(z1, z2)] if z1 * z2 >= convolve._SCHOOLBOOK_NUMPY else []), (z1, z2)
                assert real(_ntt_numpy.residues(u, p), _ntt_numpy.residues(v, p), p).tolist() == want


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("p", SCHOOLBOOK_PRIMES)
def test_definition_in_numpy_adds_up_pieces_of_both_sides(p):
    # Both operands go in pieces, and each pair's outputs are added into the
    # product mod p. Below 2**32 the exact-sum bound (524304) is out of a
    # test's reach, so the shorter side's pieces are shrunk to 40 values
    # (`piece`) and the longer side's to 64 (`_PIECE`) at every arithmetic:
    # a short side of one piece, of one piece and one value, and of several
    # pieces and a short last one, against longer sides of two and of
    # several pieces.
    from modconv import _ntt_numpy

    f = _ntt_numpy._arith(p)
    rng = random.Random(p)
    with mock.patch.object(type(f), "piece", 40), mock.patch.object(_ntt_numpy, "_PIECE", 64):
        for z1, z2 in ((40, 90), (41, 90), (90, 41), (123, 300)):
            for u, v in _schoolbook_inputs(rng, p, z1, z2):
                got = _ntt_numpy.schoolbook(_ntt_numpy.residues(u, p), _ntt_numpy.residues(v, p), p)
                assert got.tolist() == schoolbook_raw(u, v, p), (z1, z2)


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
def test_limb_convolutions_stay_below_2_53():
    # Every float64 value the defining sum's convolutions make must be an
    # integer below 2**53, so that it is exact in any summation order. The
    # largest is a convolution of two sums of two limbs over a piece: at most
    # piece * (2 * (2**limb - 1))**2. At each word width the limbs must
    # cover the residues, and the chosen limb width and piece size keep
    # that bound below 2**53. Over the 62-bit prime closest to 2**62, the
    # widest limbs at the bound reach it, and stay below 2**53.
    import numpy as np

    from modconv import _ntt_numpy

    for cls, bits in ((_ntt_numpy._Lazy, 30), (_ntt_numpy._Word, 32), (_ntt_numpy._Wide, 62)):
        assert cls.limb * cls.limbs >= bits, cls
        assert cls.piece * (2 * ((1 << cls.limb) - 1)) ** 2 < 1 << 53, cls
        assert 1 <= cls.limbs_from <= cls.piece, cls
    p = 4611686018405367809
    f = _ntt_numpy._arith(p)
    x = np.full(f.piece, f.widest(), dtype=np.uint64)
    weights, _ = _ntt_numpy._karatsuba(f.limbs)
    rows = _ntt_numpy._limb_rows(x, f, weights)
    top = max(np.convolve(row, row).max() for row in rows)
    assert top == f.piece * (2 * ((1 << f.limb) - 1)) ** 2
    assert top < 1 << 53


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("p", [998244353, 2305843009448574977])
def test_definition_in_numpy_reads_ints_by_the_door_rule(p):
    # Past the switch the door still reads ints by DensePoly's rule: ints
    # outside [0, p), negative ints and numpy integers give the list the
    # Python sum gives on the same values.
    import numpy as np

    from modconv import convolve

    fp = FourierPrime.from_modulus(p)
    rng = random.Random(p)
    z = convolve._SCHOOLBOOK_NUMPY // 8
    ints = [rng.choice((rng.randrange(p), -rng.randrange(1, p), p + rng.randrange(p), -1, p)) for _ in range(z)]
    v = [rng.randrange(-p, 2 * p) for _ in range(9)]
    likes = list(ints)
    likes[:4] = [np.uint64(p - 1), np.int64(-3), np.int32(7), True]
    for x, y in ((ints, v), (v, ints)):
        assert lin_conv_def(x, y, fp) == schoolbook_raw(x, y, p)
    got = lin_conv_def(likes, v, fp)
    assert got == schoolbook_raw([p - 1, -3, 7, 1, *ints[4:]], v, p)
    assert all(type(c) is int for c in got)


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
def test_definition_in_numpy_runs_no_transform(fp998):
    # The definition engine in numpy is the kernel alone: no transform,
    # pointwise product or 1/L scale runs, and it counts nothing.
    import numpy  # noqa: F401  loaded, so lin_conv_def runs in numpy

    from modconv import _ntt_numpy, convolve

    ran = []
    real = _ntt_numpy.schoolbook

    def kernel(u, v, p):
        ran.append("schoolbook")
        return real(u, v, p)

    def refuse(*args, **kwargs):
        raise AssertionError("the definition engine ran a transform step")

    rng = random.Random(8)
    a = DensePoly(fp998, tuple(rng.randrange(1, fp998.p) for _ in range(300)))
    b = DensePoly(fp998, tuple(rng.randrange(1, fp998.p) for _ in range(214)))
    patches = [mock.patch.object(_ntt_numpy, "schoolbook", kernel), mock.patch.object(transform, "_div_size", refuse)]
    patches += [mock.patch.object(convolve, name, refuse) for name in ("moddft", "tft", "itft", "_pointwise", "_div_size")]
    counters = OpCounters()
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        got = poly_mul(a, b, ConvRequest(fp998, engine="definition", counters=counters))
    assert ran == ["schoolbook"]
    assert counters == OpCounters()
    assert got == mul_schoolbook(a, b)


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("p", [998244353, 2305843009448574977])
@pytest.mark.parametrize("z1, z2", [(1 << 12, 1 << 12), (16, 1 << 16)])
def test_definition_in_numpy_allocates_blocks_not_the_matrix(p, z1, z2):
    # The kernel works in pieces: a product's peak allocation through
    # lin_conv_def, numpy's buffers and the lists included, stays far below
    # the z1 * z2 words of a whole skew matrix (256 MB at 2**12 x 2**12).
    import tracemalloc

    import numpy  # noqa: F401  loaded, so lin_conv_def runs in numpy

    fp = FourierPrime.from_modulus(p)
    rng = random.Random(z1)
    u, v = [rng.randrange(p) for _ in range(z1)], [rng.randrange(p) for _ in range(z2)]
    tracemalloc.start()
    try:
        out = lin_conv_def(u, v, fp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == z1 + z2 - 1
    assert peak < 16 << 20, peak


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("p", [998244353, 2305843009448574977])
def test_definition_in_numpy_scratch_stays_below_four_chunks(p):
    # Beside its output the kernel allocates below 4 * _CHUNK words (1 MiB),
    # numpy's buffers included, whatever the shape: against a longer side
    # of 2**20 on the rows and on the limb convolutions (`limbs_from`), and
    # on shorter sides of several pieces.
    import tracemalloc

    import numpy as np

    from modconv import _ntt_numpy

    f = _ntt_numpy._arith(p)
    rng = np.random.default_rng(p)
    for z1, z2 in ((1, 1 << 20), (f.limbs_from - 1, 1 << 20), (f.limbs_from, 1 << 20), (600, 1 << 16),
                   (5000, 5001)):
        u, v = (rng.integers(0, p, z, dtype=np.uint64) for z in (z1, z2))
        tracemalloc.start()
        try:
            out = _ntt_numpy.schoolbook(u, v, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == z1 + z2 - 1
        assert peak - out.nbytes < 4 * _ntt_numpy._CHUNK * 8, (z1, z2, peak)


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
@pytest.mark.parametrize("engine", ["tft", "fft_pad", "split"])
def test_arrays_are_checked_at_the_entry_only(fp998, engine):
    # poly_mul converts its two operands and checks its product: three
    # passes of _ntt_numpy.residues. split's residue maps check the arrays
    # the core hands them: one pass per split and two per recombine. The
    # cores and transforms check nothing. A door converts each list it is
    # handed once.
    import numpy  # noqa: F401  loaded, so the crossover alone puts sizes in numpy

    from modconv import _ntt_numpy

    calls = []
    real = _ntt_numpy.residues

    def counted(x, p):
        calls.append(transform._array_kernels(x) is not None)
        return real(x, p)

    rng = random.Random(11)
    a = DensePoly(fp998, tuple(rng.randrange(fp998.p) for _ in range(1100)))
    b = DensePoly(fp998, tuple(rng.randrange(fp998.p) for _ in range(1000)))
    u, v = (list(w.coeffs) for w in (a, b))
    square = u[:1024], u[-1024:]
    req = ConvRequest(fp998)
    residue_maps = [True] * 4
    direct = {
        "tft": [(conv_tft, (u, v), [])],
        "fft_pad": [(lin_conv_fft_pad, (u, v), []), (circ_conv_fft, square, [])],
        "split": [(circ_conv_split, square, residue_maps), (nega_conv, square, [])],
    }
    with mock.patch.object(_ntt_numpy, "residues", counted):
        got = poly_mul(a, b, ConvRequest(fp998, engine=engine))
        assert calls == [False, False, *(residue_maps if engine == "split" else []), True], engine
        for door, args, checks in direct[engine]:
            calls.clear()
            door(*args, req)
            assert calls == [False, False, *checks], door.__name__
    assert got == poly_mul(a, b, ConvRequest(fp998, engine="kronecker"))


HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def backend(name):
    """A context that runs the transforms of every size in numpy ("numpy") or on the Python loops ("python")."""
    if name == "numpy":
        if not HAVE_NUMPY:
            pytest.skip("numpy not installed")
        import numpy  # noqa: F401  loaded, so the crossover alone puts sizes in numpy

        return mock.patch.object(transform, "_NUMPY_CROSSOVER", 1)
    return mock.patch.object(transform, "_NUMPY_CROSSOVER", 1 << 62)


def _int_rule_calls(fp):
    # Every public function that does arithmetic on lists, on vectors x and
    # y of length 8; the transforms and split_residues read only x.
    t = get_table(fp, 8)
    req = ConvRequest(fp)
    return {
        "moddft": lambda x, y: moddft(x, t, "inv"),
        "moddft_naive": lambda x, y: moddft_naive(x, t),
        "tft": lambda x, y: tft(t, x, 8),
        "itft": lambda x, y: itft(t, x),
        "split_residues": lambda x, y: list(split_residues(x, fp.p)),
        "recombine_residues": lambda x, y: recombine_residues(x, y, fp.p),
        "circ_conv_def": lambda x, y: circ_conv_def(x, y, fp),
        "lin_conv_def": lambda x, y: lin_conv_def(x, y, fp),
        "lin_conv_kronecker": lambda x, y: lin_conv_kronecker(x, y, fp),
        "circ_conv_fft": lambda x, y: circ_conv_fft(x, y, req),
        "nega_conv": lambda x, y: nega_conv(x, y, req),
        "circ_conv_split": lambda x, y: circ_conv_split(x, y, req),
        "lin_conv_fft_pad": lambda x, y: lin_conv_fft_pad(x, y, req),
        "conv_tft": lambda x, y: conv_tft(x, y, req),
    }


UNARY = {"moddft", "moddft_naive", "tft", "itft", "split_residues"}


@pytest.mark.parametrize("name", list(_int_rule_calls(FourierPrime.from_modulus(998244353))))
@pytest.mark.parametrize("engine_backend", ["python", "numpy"])
def test_lists_follow_the_integer_rule(fp998, name, engine_backend):
    # DensePoly's rule at every door, on both backends: an int-like (a bool,
    # a numpy integer) is read as the int operator.index gives, ints outside
    # [0, p) are reduced, and any other element raises ValueError.
    p = fp998.p
    call = _int_rule_calls(fp998)[name]
    rng = random.Random(name)
    x, y = ([rng.randrange(p) for _ in range(8)] for _ in range(2))
    ints = [1, 0, p - 1, p - 1, -3, p + 5, 7, 2]
    likes = [True, False, p - 1, p - 1, -3, p + 5, 7, 2]
    if HAVE_NUMPY:
        import numpy as np

        # p - 1 as uint64, whose square overflows uint64 on the Python loops.
        likes[2:5] = [np.uint64(p - 1), np.int64(p - 1), np.int32(-3)]
    with backend(engine_backend):
        want = call(ints, y)
        assert all(type(c) is int for part in want for c in (part if isinstance(part, list) else [part]))
        assert call(likes, y) == want
        if name not in UNARY:
            assert call(y, likes) == call(y, ints)
        for bad in (1.5, 2.0, "3", None):
            with pytest.raises(ValueError, match="integer"):
                call(x[:3] + [bad] + x[4:], y)
            if name not in UNARY:
                with pytest.raises(ValueError, match="integer"):
                    call(x, [bad] + y[1:])


@pytest.mark.parametrize("engine_backend", ["python", "numpy"])
def test_each_product_scales_once(fp998, engine_backend):
    # One 1/L scale per product, after the cut: poly_mul's transform-backed
    # engines and the doors each divide once, fft_pad its n values, split at
    # its half size L/2; the inverse moddft door once, and nothing else.
    from modconv import convolve

    seen = []
    real = transform._div_size

    def spy(x, table):
        seen.append((len(x), table.size))
        return real(x, table)

    rng = random.Random(5)
    a = DensePoly(fp998, tuple(rng.randrange(1, fp998.p) for _ in range(300)))
    b = DensePoly(fp998, tuple(rng.randrange(1, fp998.p) for _ in range(214)))
    g, h = list(a.coeffs), list(b.coeffs)
    u, v = g[:64], h[:64]
    req = ConvRequest(fp998)
    t = get_table(fp998, 64)
    calls = {
        "fft_pad": (lambda: poly_mul(a, b, replace(req, engine="fft_pad")), [(513, 1024)]),
        "tft": (lambda: poly_mul(a, b, replace(req, engine="tft")), [(513, 1024)]),
        "split": (lambda: poly_mul(a, b, replace(req, engine="split")), [(513, 512)]),
        "kronecker": (lambda: poly_mul(a, b, replace(req, engine="kronecker")), []),
        "definition": (lambda: poly_mul(a, b, replace(req, engine="definition")), []),
        "lin_conv_fft_pad": (lambda: lin_conv_fft_pad(g, h, req), [(513, 1024)]),
        "conv_tft": (lambda: conv_tft(g, h, req), [(513, 1024)]),
        "circ_conv_fft": (lambda: circ_conv_fft(u, v, req), [(64, 64)]),
        "nega_conv": (lambda: nega_conv(u, v, req), [(64, 64)]),
        "circ_conv_split": (lambda: circ_conv_split(u, v, req), [(64, 32)]),
        "moddft_inv": (lambda: moddft(u, t, "inv"), [(64, 64)]),
        "moddft": (lambda: moddft(u, t), []),
        "tft_itft": (lambda: itft(t, tft(t, u[:20], 40)), []),
    }
    want = mul_schoolbook(a, b).normalize()
    with backend(engine_backend), mock.patch.object(transform, "_div_size", spy), \
            mock.patch.object(convolve, "_div_size", spy):
        for name, (call, scales) in calls.items():
            seen.clear()
            out = call()
            assert seen == scales, name
            if isinstance(out, DensePoly):
                assert out == want, name


@pytest.mark.parametrize("engine_backend", ["python", "numpy"])
def test_each_product_fetches_each_table_once(fp998, engine_backend):
    # _product fetches the table of the engine's size rule and hands it to
    # the core: no core fetches it again, and the only other fetch is the
    # negacyclic twist's table, of twice the size.
    from modconv import convolve

    seen = []
    real = convolve.get_table

    def spy(fp, size):
        seen.append(size)
        return real(fp, size)

    rng = random.Random(6)
    a = DensePoly(fp998, tuple(rng.randrange(1, fp998.p) for _ in range(300)))
    b = DensePoly(fp998, tuple(rng.randrange(1, fp998.p) for _ in range(214)))
    g, h = list(a.coeffs), list(b.coeffs)
    u, v = g[:64], h[:64]
    req = ConvRequest(fp998)
    calls = {
        "fft_pad": (lambda: poly_mul(a, b, replace(req, engine="fft_pad")), [1024]),
        "tft": (lambda: poly_mul(a, b, replace(req, engine="tft")), [1024]),
        "split": (lambda: poly_mul(a, b, replace(req, engine="split")), [512, 1024]),
        "kronecker": (lambda: poly_mul(a, b, replace(req, engine="kronecker")), []),
        "definition": (lambda: poly_mul(a, b, replace(req, engine="definition")), []),
        "lin_conv_fft_pad": (lambda: lin_conv_fft_pad(g, h, req), [1024]),
        "conv_tft": (lambda: conv_tft(g, h, req), [1024]),
        "circ_conv_fft": (lambda: circ_conv_fft(u, v, req), [64]),
        "nega_conv": (lambda: nega_conv(u, v, req), [64, 128]),
        "circ_conv_split": (lambda: circ_conv_split(u, v, req), [32, 64]),
    }
    want = mul_schoolbook(a, b).normalize()
    with backend(engine_backend), mock.patch.object(convolve, "get_table", spy):
        for name, (call, fetches) in calls.items():
            seen.clear()
            out = call()
            assert sorted(seen) == fetches, name
            if isinstance(out, DensePoly):
                assert out == want, name


@pytest.mark.parametrize("engine_backend", ["python", "numpy"])
def test_each_product_runs_one_forward_pointwise_inverse(fp998, engine_backend):
    # Every transform-backed product is one forward call on the stack of its
    # inputs (split's four halves), one pointwise product and one inverse
    # call, in that order: perfbench's forward and inverse spans time these
    # calls, and each new engine composes the same step.
    from modconv import convolve

    seen = []

    def spy(name, real, label):
        def call(*args):
            seen.append(label(*args))
            return real(*args)
        return mock.patch.object(convolve, name, call)

    rng = random.Random(7)
    a = DensePoly(fp998, tuple(rng.randrange(1, fp998.p) for _ in range(300)))
    b = DensePoly(fp998, tuple(rng.randrange(1, fp998.p) for _ in range(214)))
    g, h = list(a.coeffs), list(b.coeffs)
    u, v = g[:64], h[:64]
    req = ConvRequest(fp998)
    moddft_rows = [("moddft", "fwd", 2), ("pointwise",), ("moddft", "inv")]
    split_rows = [("moddft", "fwd", 4), ("pointwise",), ("moddft", "inv")]
    tft_rows = [("tft", 2), ("pointwise",), ("itft",)]
    calls = {
        "fft_pad": (lambda: poly_mul(a, b, replace(req, engine="fft_pad")), moddft_rows),
        "tft": (lambda: poly_mul(a, b, replace(req, engine="tft")), tft_rows),
        "split": (lambda: poly_mul(a, b, replace(req, engine="split")), split_rows),
        "lin_conv_fft_pad": (lambda: lin_conv_fft_pad(g, h, req), moddft_rows),
        "conv_tft": (lambda: conv_tft(g, h, req), tft_rows),
        "circ_conv_fft": (lambda: circ_conv_fft(u, v, req), moddft_rows),
        "nega_conv": (lambda: nega_conv(u, v, req), moddft_rows),
        "circ_conv_split": (lambda: circ_conv_split(u, v, req), split_rows),
    }
    want = mul_schoolbook(a, b).normalize()
    spies = [
        spy("moddft", convolve.moddft,
            lambda x, table, direction, counters: ("moddft", direction, len(x)) if direction == "fwd"
            else ("moddft", direction)),
        spy("tft", convolve.tft, lambda table, x, n, counters: ("tft", len(x))),
        spy("itft", convolve.itft, lambda table, x, counters: ("itft",)),
        spy("_pointwise", convolve._pointwise, lambda a, b, p, req: ("pointwise",)),
    ]
    with backend(engine_backend), contextlib.ExitStack() as stack:
        for patch in spies:
            stack.enter_context(patch)
        for name, (call, steps) in calls.items():
            seen.clear()
            out = call()
            assert seen == steps, name
            if isinstance(out, DensePoly):
                assert out == want, name


# 2-adicity 4, 8 and 11: a product of 2**k + 1 needs a table of 2**(k+1).
REFUSING = [(17, 4), (257, 8), (2305843009213704193, 11)]


@pytest.mark.parametrize("engine_backend", ["python", "numpy"])
@pytest.mark.parametrize("p, k", REFUSING)
def test_split_refuses_before_any_transform(p, k, engine_backend):
    # split takes the L fft_pad takes: it refuses n = 2**k + 1, as fft_pad
    # does, and fetches the negacyclic half's twist table before it pads or
    # converts its inputs, or runs any transform or residue map.
    from modconv import convolve

    fp = FourierPrime.from_modulus(p)
    rng = random.Random(p)
    z1 = (1 << (k - 1)) + 1
    a, b = (DensePoly(fp, tuple(rng.randrange(1, p) for _ in range(z))) for z in (z1, (1 << k) + 2 - z1))
    u, v = ([rng.randrange(p) for _ in range(1 << (k + 1))] for _ in range(2))
    calls = {
        "fft_pad": lambda: poly_mul(a, b, ConvRequest(fp, engine="fft_pad")),
        "split": lambda: poly_mul(a, b, ConvRequest(fp, engine="split")),
        "circ_conv_split": lambda: circ_conv_split(u, v, ConvRequest(fp)),
    }
    ran = []
    spy = lambda *args, **kwargs: ran.append(args)
    spies = [mock.patch.object(convolve, name, spy) for name in ("moddft", "split_residues", "_zero_padded")]
    if HAVE_NUMPY:
        from modconv import _ntt_numpy

        spies += [mock.patch.object(_ntt_numpy, name, spy) for name in ("residues", "pad")]
    with backend(engine_backend), contextlib.ExitStack() as stack:
        for patch in spies:
            stack.enter_context(patch)
        for name, call in calls.items():
            with pytest.raises(UnsupportedSizeError):
                call()
            assert ran == [], name
    # One level below, split and fft_pad both multiply.
    c = DensePoly(fp, a.coeffs[:-1])
    want = mul_schoolbook(c, b).normalize()
    with backend(engine_backend):
        for engine in ("fft_pad", "split"):
            assert poly_mul(c, b, ConvRequest(fp, engine=engine)) == want, engine
