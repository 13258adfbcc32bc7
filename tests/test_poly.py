import importlib.util
import random
from fractions import Fraction

import pytest

from modconv import (
    DensePoly,
    FourierPrime,
    Felt,
    FieldMismatchError,
    PolyTextError,
    eval_poly,
    get_table,
    lin_conv_kronecker,
    moddft_naive,
    mul_karatsuba,
    mul_schoolbook,
    poly_from_text,
    poly_to_text,
)
from modconv.poly import schoolbook_raw

from conftest import random_vec


class TestDensePoly:
    def test_rejects_noncanonical_coeffs(self, fp17):
        with pytest.raises(ValueError):
            DensePoly(fp17, (17,))
        with pytest.raises(ValueError):
            DensePoly(fp17, (-1,))

    def test_from_ints_reduces(self, fp17):
        assert DensePoly.from_ints(fp17, [20, -1]).coeffs == (3, 16)

    def test_coefficients_are_integers(self, fp17):
        # A float would flow into every engine's arithmetic and out as floats.
        for bad in ((1.5, 2), (1, 2.0), (Fraction(1),), ("1",), (None,)):
            with pytest.raises(ValueError):
                DensePoly(fp17, bad)
        for bad in ((1.5, 2), (1, 2.0), (Fraction(1),)):
            with pytest.raises(ValueError):
                DensePoly.from_ints(fp17, bad)

    def test_int_like_coefficients_are_stored_as_ints(self, fp17):
        for poly in (DensePoly(fp17, [True, False, 3]), DensePoly.from_ints(fp17, (True, False, 20))):
            assert poly.coeffs == (1, 0, 3)
            assert [type(c) for c in poly.coeffs] == [int] * 3
        assert poly_to_text(DensePoly(fp17, (True,))) == "17\n1\n1\n"

    @pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
    def test_numpy_integers_are_stored_as_ints(self, fp17):
        import numpy as np

        for poly in (DensePoly(fp17, (np.uint64(16), np.int64(2), np.int32(0))),
                     DensePoly.from_ints(fp17, (np.uint64(33), np.int64(-15), np.int8(0)))):
            assert poly.coeffs == (16, 2, 0)
            assert [type(c) for c in poly.coeffs] == [int] * 3
        with pytest.raises(ValueError):
            DensePoly(fp17, (np.int64(-1),))
        with pytest.raises(ValueError):
            DensePoly(fp17, (np.float64(1.0),))

    @pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
    @pytest.mark.parametrize("p", [998244353, 4293918721])
    def test_ndarray_is_checked_in_numpy(self, p):
        import numpy as np

        fp = FourierPrime.from_modulus(p)
        rng = random.Random(p)
        arr = np.array([0, p - 1] + [rng.randrange(p) for _ in range(30)] + [p - 1, 0], dtype=np.uint64)
        poly = DensePoly(fp, arr)
        assert poly == DensePoly(fp, tuple(arr.tolist()))
        assert isinstance(poly.coeffs, tuple) and {type(c) for c in poly.coeffs} == {int}
        above = arr.copy()
        above[5] = p
        for bad in (above, arr.reshape(2, -1), arr.astype(np.int64), arr.astype(np.float64)):
            with pytest.raises(ValueError):
                DensePoly(fp, bad)
        # An empty array, like an empty tuple, is the zero polynomial.
        assert DensePoly(fp, arr[:0]) == DensePoly(fp, ()) == DensePoly.zero(fp)
        with pytest.raises(ValueError):
            DensePoly(fp, arr[:0].astype(np.float64))

    def test_degree_and_zero(self, fp17):
        assert DensePoly(fp17, (1, 2, 0, 0)).degree() == 1
        assert DensePoly(fp17, (0, 0, 0)).degree() is None
        assert DensePoly(fp17, (0, 0, 0)).is_zero()
        assert DensePoly.zero(fp17).degree() is None

    def test_normalize(self, fp17):
        assert DensePoly(fp17, (1, 2, 0, 0)).normalize().coeffs == (1, 2)
        assert DensePoly(fp17, (0, 0, 0)).normalize() == DensePoly.zero(fp17)
        a = DensePoly(fp17, (1, 2))
        assert a.normalize() is a  # already normal: unchanged
        assert a.normalize().normalize() == a


class TestSchoolbook:
    def test_hand_expansion(self):
        from modconv import FourierPrime

        fp7 = FourierPrime.from_modulus(7)
        a = DensePoly(fp7, (1, 2))
        b = DensePoly(fp7, (3, 4))
        assert mul_schoolbook(a, b).coeffs == (3, 3, 1)

    def test_identity_and_zero(self, fp257, rng):
        one = DensePoly.one(fp257)
        for _ in range(10):
            a = DensePoly(fp257, tuple(random_vec(rng, fp257, rng.randint(1, 20))))
            assert mul_schoolbook(a, one) == a
            assert mul_schoolbook(a, DensePoly.zero(fp257)).is_zero()
            assert mul_schoolbook(a, DensePoly(fp257, (0, 0))).is_zero()

    def test_output_length(self, fp257, rng):
        a = DensePoly(fp257, tuple(random_vec(rng, fp257, 5)))
        b = DensePoly(fp257, tuple(random_vec(rng, fp257, 3)))
        assert len(mul_schoolbook(a, b)) == 7

    def test_mismatched_fields(self, fp17, fp257):
        with pytest.raises(FieldMismatchError):
            mul_schoolbook(DensePoly.one(fp17), DensePoly.one(fp257))

    def test_commutative_associative(self, fp998, rng):
        for _ in range(40):
            a, b, c = (
                DensePoly(fp998, tuple(random_vec(rng, fp998, rng.randint(1, 64))))
                for _ in range(3)
            )
            assert mul_schoolbook(a, b) == mul_schoolbook(b, a)
            assert mul_schoolbook(mul_schoolbook(a, b), c) == mul_schoolbook(
                a, mul_schoolbook(b, c)
            )

    def test_degree_additivity(self, fp998, rng):
        for _ in range(40):
            a = DensePoly(fp998, tuple(random_vec(rng, fp998, rng.randint(1, 32))))
            b = DensePoly(fp998, tuple(random_vec(rng, fp998, rng.randint(1, 32))))
            if a.is_zero() or b.is_zero():
                continue
            assert mul_schoolbook(a, b).degree() == a.degree() + b.degree()

    # A 4-bit, a 9-bit, a 30-bit and a 62-bit prime.
    @pytest.mark.parametrize("p", [17, 257, 998244353, 2305843009448574977])
    def test_raw_matches_kronecker_and_convolution_theorem(self, p, rng):
        # schoolbook_raw is the one quadratic loop behind every definition
        # oracle, so it is checked against what shares no code with it: one
        # big-integer product, and the transform of the product at the
        # padded size L, where the field has an L-th root of unity.
        fp = FourierPrime.from_modulus(p)
        for m, n in ((1, 1), (1, 8), (8, 1), (8, 8), (33, 33), (1, 50), (3, 150)):
            for fill in (lambda: rng.randrange(p), lambda: p - 1):
                u, v = [fill() for _ in range(m)], [fill() for _ in range(n)]
                c = schoolbook_raw(u, v, p)
                assert c == lin_conv_kronecker(u, v, fp), (m, n)
                size = 1 << (m + n - 2).bit_length()
                if size <= 1 << fp.two_adicity:
                    table = get_table(fp, size)
                    pad = lambda w: w + [0] * (size - len(w))
                    fu, fv = moddft_naive(pad(u), table), moddft_naive(pad(v), table)
                    assert moddft_naive(pad(c), table) == [a * b % p for a, b in zip(fu, fv)], (m, n)


class TestKaratsuba:
    def test_agrees_on_all_length_pairs(self, fp998):
        rng = random.Random(99)
        for la in range(1, 65):
            for lb in range(1, 65):
                a = DensePoly(fp998, tuple(random_vec(rng, fp998, la)))
                b = DensePoly(fp998, tuple(random_vec(rng, fp998, lb)))
                assert mul_karatsuba(a, b, 4) == mul_schoolbook(a, b), (la, lb)

    def test_degenerate_threshold_is_schoolbook(self, fp257, rng):
        a = DensePoly(fp257, tuple(random_vec(rng, fp257, 10)))
        b = DensePoly(fp257, tuple(random_vec(rng, fp257, 7)))
        assert mul_karatsuba(a, b, 64) == mul_schoolbook(a, b)

    def test_threshold_validation(self, fp257):
        with pytest.raises(ValueError):
            mul_karatsuba(DensePoly.one(fp257), DensePoly.one(fp257), 0)

    def test_spec_example(self):
        from modconv import FourierPrime

        fp7 = FourierPrime.from_modulus(7)
        a = DensePoly(fp7, (1, 2))
        b = DensePoly(fp7, (3, 4))
        assert mul_karatsuba(a, b, 1).coeffs == (3, 3, 1)

    def test_threshold_one_edges(self, fp998, rng):
        # A length-1 operand against a long one, both ways, and all-(p-1)
        # operands, at threshold 1, against Kronecker's product.
        top = fp998.p - 1
        long = random_vec(rng, fp998, 300)
        cases = [([5], long), (long, [5]), ([top], [top] * 300), ([top] * 300, [top]),
                 ([top] * 300, [top] * 300), ([top] * 37, [top] * 300)]
        for u, v in cases:
            got = mul_karatsuba(DensePoly(fp998, tuple(u)), DensePoly(fp998, tuple(v)), 1)
            assert got.coeffs == tuple(lin_conv_kronecker(u, v, fp998)), (len(u), len(v))


class TestEval:
    def test_constant_term(self, fp17, rng):
        a = DensePoly(fp17, (5, 3, 2))
        assert eval_poly(a, fp17.zero()) == Felt(5, fp17)

    def test_coefficient_sum(self, fp17):
        a = DensePoly(fp17, (1, 1, 1, 1))
        assert eval_poly(a, fp17.one()) == Felt(4, fp17)

    def test_hand_horner(self, fp17):
        a = DensePoly(fp17, (1, 2, 3))
        assert eval_poly(a, Felt(2, fp17)) == fp17.zero()  # 1 + 4 + 12 = 17

    def test_homomorphism(self, fp998, rng):
        for _ in range(60):
            a = DensePoly(fp998, tuple(random_vec(rng, fp998, rng.randint(1, 24))))
            b = DensePoly(fp998, tuple(random_vec(rng, fp998, rng.randint(1, 24))))
            x = Felt(rng.randrange(fp998.p), fp998)
            assert eval_poly(mul_schoolbook(a, b), x) == eval_poly(a, x) * eval_poly(b, x)


class TestTextFormat:
    def test_round_trip(self, fp257, rng):
        for _ in range(20):
            a = DensePoly(fp257, tuple(random_vec(rng, fp257, rng.randint(0, 12))))
            assert poly_from_text(poly_to_text(a)) == a

    def test_rendering(self, fp17):
        assert poly_to_text(DensePoly(fp17, (3, 0, 5))) == "17\n3\n3 0 5\n"
        assert poly_to_text(DensePoly.zero(fp17)) == "17\n0\n\n"

    def test_zero_poly_round_trip(self, fp17):
        assert poly_from_text("17\n0\n\n") == DensePoly.zero(fp17)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(PolyTextError) as err:
            poly_from_text("banana\n1\n0\n")
        assert err.value.line == 1
        with pytest.raises(PolyTextError) as err:
            poly_from_text("17\ntwo\n1 2\n")
        assert err.value.line == 2
        with pytest.raises(PolyTextError) as err:
            poly_from_text("17\n3\n1 2\n")
        assert err.value.line == 3
        with pytest.raises(PolyTextError) as err:
            poly_from_text("17\n1\n99\n")  # out of range
        assert err.value.line == 3
        with pytest.raises(PolyTextError):
            poly_from_text("17\n")
        with pytest.raises(PolyTextError):
            poly_from_text("15\n1\n1\n")  # composite modulus

    def test_only_ascii_decimal_fields(self):
        # int() accepts all of these; the format is [0-9]+ per field.
        bad = {
            "17\n2\n1_0 3\n": 3,
            "17\n2\n+5 3\n": 3,
            "17\n1\n٣\n": 3,  # ARABIC-INDIC DIGIT THREE
            "17\n+1\n5\n": 2,
            "17\n-1\n\n": 2,
            "17\n 1\n5\n": 2,
            "1_7\n1\n5\n": 1,
            "１７\n1\n5\n": 1,  # FULLWIDTH 17
            "17 \n1\n5\n": 1,
            # Lines end at '\n' only; coefficients take single spaces.
            "17\x1c1\x1c5": 2,
            "17\r1\r5\r": 2,
            "17\r\n1\r\n5\r\n": 1,
            "17\n1\n5\x1c\n": 3,
            "17\n1\n5\x1d\n": 3,
            "17\n1\n5\x1e\n": 3,
            "17\n1\n5\v\n": 3,
            "17\n1\n5\f\n": 3,
            "17\n2\n5\x1f3\n": 3,
            "17\n2\n5\t3\n": 3,
            "17\n2\n5  3\n": 3,
            "17\n2\n5 3 \n": 3,
            # Nothing but one final newline may follow line 3.
            "17\n1\n5\ngarbage\n": 4,
            "17\n1\n5\ngarbage\n\x00 x\n": 4,
            "17\n1\n5\n\n": 4,
            "17\n0\n\n\n": 4,
        }
        for text, line in bad.items():
            with pytest.raises(PolyTextError) as err:
                poly_from_text(text)
            assert err.value.line == line, text
        assert poly_from_text("17\n2\n010 3\n").coeffs == (10, 3)
        assert poly_from_text("17\n2\n5 3").coeffs == (5, 3)
        assert poly_from_text("17\n0\n\n").coeffs == ()
