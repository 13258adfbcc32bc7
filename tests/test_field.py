import random

import pytest

from modconv import (
    Felt,
    FieldMismatchError,
    FourierPrime,
    UnsupportedSizeError,
    find_fourier_prime,
    is_probable_prime,
    root_of_unity,
)
from modconv import field
from modconv.field import factorize


class TestPrimality:
    def test_matches_sieve(self):
        limit = 5000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        for n in range(limit):
            assert is_probable_prime(n) == sieve[n], n

    def test_known_primes(self):
        for p in (998244353, 2**31 - 1, 4611686018427387847):
            assert is_probable_prime(p)

    def test_known_composites(self):
        # 561 and 1729 are Carmichael numbers; the rest are products of big primes.
        for n in (561, 1729, 25326001, (2**31 - 1) * (2**13 - 1)):
            assert not is_probable_prime(n)

    def test_factorize(self):
        assert factorize(998244352) == (2, 7, 17)
        assert factorize(16) == (2,)
        assert factorize(2 * 3 * 5 * 7 * 11 * 13) == (2, 3, 5, 7, 11, 13)


class TestFourierPrime:
    def test_known_descriptors(self, fp17, fp257, fp998):
        assert (fp998.p, fp998.two_adicity, fp998.generator) == (998244353, 23, 3)
        assert (fp257.two_adicity, fp257.generator) == (8, 3)
        assert (fp17.two_adicity, fp17.generator) == (4, 3)
        assert FourierPrime.from_modulus(998244353) is fp998  # cached per modulus

    def test_rejects_bad_moduli(self):
        with pytest.raises(ValueError):
            FourierPrime.from_modulus(15)
        with pytest.raises(ValueError):
            FourierPrime.from_modulus(2**62 + 135)  # prime, but over the cap
        with pytest.raises(ValueError):
            FourierPrime.from_modulus(4)

    def test_wide_modulus_rejected_before_factoring(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(field, "factorize", refuse)
        with pytest.raises(ValueError):
            FourierPrime.from_modulus(535535684741329881136887273182147286623)  # 129-bit prime

    def test_rejects_inconsistent_fields(self):
        with pytest.raises(ValueError):
            FourierPrime(17, 3, 3)  # wrong adicity
        with pytest.raises(ValueError):
            FourierPrime(17, 4, 4)  # 4 = 2^2 is not a primitive root


class TestFelt:
    def test_add_examples(self, fp17):
        assert Felt(9, fp17) + Felt(12, fp17) == Felt(4, fp17)
        for x in range(17):
            assert Felt(x, fp17) + fp17.zero() == Felt(x, fp17)
            assert Felt(x, fp17) + Felt(-x % 17, fp17) == fp17.zero()

    def test_mul_examples(self, fp17, fp998):
        assert Felt(5, fp17) * Felt(7, fp17) == Felt(1, fp17)
        for x in range(17):
            assert Felt(x, fp17) * fp17.one() == Felt(x, fp17)
        big = fp998.felt(2**30)
        # frozen from the big-integer oracle: pow(2, 60, 998244353)
        assert (big * big).value == 682155965
        assert (big * big).value == pow(2, 60, 998244353)

    def test_mismatched_moduli(self, fp17, fp257):
        with pytest.raises(FieldMismatchError):
            Felt(1, fp17) + Felt(1, fp257)
        with pytest.raises(FieldMismatchError):
            Felt(1, fp17) * Felt(1, fp257)

    def test_canonical_range_enforced(self, fp17):
        with pytest.raises(ValueError):
            Felt(17, fp17)
        with pytest.raises(ValueError):
            Felt(-1, fp17)

    def test_inv(self, fp17, fp998):
        assert Felt(5, fp17).inv() == Felt(7, fp17)
        assert fp17.one().inv() == fp17.one()
        for fp in (fp17, fp998):
            top = Felt(fp.p - 1, fp)
            assert top.inv() == top  # (-1)^2 == 1
        with pytest.raises(ZeroDivisionError):
            fp17.zero().inv()

    def test_pow(self, fp17):
        assert Felt(3, fp17) ** 16 == fp17.one()
        assert Felt(2, fp17) ** 4 == Felt(16, fp17)
        assert fp17.zero() ** 0 == fp17.one()
        with pytest.raises(ValueError):
            Felt(3, fp17) ** -1

    def test_field_axioms_sampled(self, fp257, fp998):
        rng = random.Random(2024)
        for fp in (fp257, fp998):
            p = fp.p
            for _ in range(10_000):
                a, b, c = (Felt(rng.randrange(p), fp) for _ in range(3))
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c

    def test_inv_involution_sampled(self, fp998):
        rng = random.Random(7)
        for _ in range(500):
            a = Felt(rng.randrange(1, fp998.p), fp998)
            assert a.inv().inv() == a


class TestRootsOfUnity:
    def test_small_examples(self, fp17, fp257):
        w = root_of_unity(fp17, 4)
        assert w ** 2 == Felt(16, fp17) and w ** 4 == fp17.one()
        assert root_of_unity(fp17, 1) == fp17.one()
        w256 = root_of_unity(fp257, 256)
        assert w256 ** 128 == Felt(256, fp257)
        assert w256 ** 256 == fp257.one()

    def test_unsupported_order(self, fp17):
        fp7 = FourierPrime.from_modulus(7)
        with pytest.raises(UnsupportedSizeError) as err:
            root_of_unity(fp7, 4)
        assert err.value.required_two_adicity == 2
        with pytest.raises(ValueError):
            root_of_unity(fp17, 6)  # not a power of two

    def test_principality_geometric_sums(self, fp257, fp998):
        # Every supported order carries the order witnesses; the brute-force
        # geometric sum is checked where it stays cheap.
        for fp in (fp257, fp998):
            n = 2
            while n <= 1 << fp.two_adicity:
                w = root_of_unity(fp, n).value
                assert pow(w, n, fp.p) == 1
                assert pow(w, n // 2, fp.p) == fp.p - 1
                if n <= 1 << 12:
                    acc, total = 1, 0
                    for _ in range(n):
                        total += acc
                        acc = acc * w % fp.p
                    assert total % fp.p == 0
                n <<= 1


class TestFindFourierPrime:
    def test_known_qualifiers(self):
        # Membership checks via the primality + order oracles.
        for p, adicity in ((998244353, 23), (257, 8)):
            assert is_probable_prime(p)
            fp = FourierPrime.from_modulus(p)
            assert fp.two_adicity == adicity
            g = fp.generator
            assert all(pow(g, (p - 1) // q, p) != 1 for q in factorize(p - 1))

    def test_finds_qualifying_prime(self):
        fp = find_fourier_prime(8, 10)
        assert fp.p.bit_length() == 10
        assert fp.two_adicity >= 8
        assert fp.p % (1 << 8) == 1

    def test_min_adicity_one(self):
        fp = find_fourier_prime(1, 8)
        assert fp.p % 2 == 1

    def test_deterministic(self):
        assert find_fourier_prime(20, 31).p == find_fourier_prime(20, 31).p

    def test_rejects_infeasible_request(self):
        with pytest.raises(ValueError):
            find_fourier_prime(10, 11)  # needs adicity > bits - 2
        with pytest.raises(ValueError):
            find_fourier_prime(0, 10)
