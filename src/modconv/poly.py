"""Dense univariate polynomials over a prime field.

Coefficient index i holds the coefficient of x**i. Trailing zeros are
permitted, so a polynomial's stored length may exceed degree+1; normalize()
strips them. The classical multipliers here double as correctness oracles for
the transform-based engines.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .field import Felt, FourierPrime, LineError, _check_fields, _clip, _lines
from .transform import _array_kernels

KARATSUBA_THRESHOLD = 16


class PolyTextError(LineError):
    """Malformed polynomial text; carries the 1-based offending line."""


def _residue(c, p: int) -> int:
    """The coefficient c as a Python int in [0, p) (`operator.index`), else ValueError."""
    try:
        v = operator.index(c)
    except TypeError:
        raise ValueError(f"coefficient {c!r} is not an integer") from None
    if not 0 <= v < p:
        raise ValueError(f"coefficient {v} out of range for p={p}")
    return v


@dataclass(frozen=True, slots=True)
class DensePoly:
    """Immutable coefficient vector over one Fourier prime.

    The zero polynomial is represented by an empty coefficient tuple after
    normalization, but any all-zero vector also denotes it (degree() is None).

    coeffs is stored as a tuple of Python ints in [0, p); any other value is
    a ValueError. A sequence is checked one coefficient at a time: an
    int-like value (a bool, a numpy integer) is stored as the int that
    `operator.index` gives, and a non-integer, a float among them, is
    refused. A numpy ndarray, which is how the engines' cores hand
    `poly_mul` its product, is checked in numpy instead, by
    `_ntt_numpy.residues`' rule (1-D, uint64 and max() < p, over any p a
    FourierPrime holds), and converted to ints once; an empty
    one, like an empty tuple, is the zero polynomial. This module does not
    import numpy: `_ntt_numpy` holds all uint64 arithmetic, reached through
    `transform._array_kernels`.
    """

    field: FourierPrime
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.field.p
        coeffs = self.coeffs
        kernels = _array_kernels(coeffs)
        if kernels:
            coeffs = tuple(kernels.residues(coeffs, p).tolist())
        else:
            coeffs = tuple(coeffs)
            for c in coeffs:
                if type(c) is not int or not 0 <= c < p:
                    coeffs = tuple(_residue(c, p) for c in coeffs)
                    break
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_ints(cls, field: FourierPrime, values) -> "DensePoly":
        """Build a polynomial, reducing arbitrary integers mod p."""
        p = field.p
        return cls(field, tuple(v % p for v in values))

    @classmethod
    def zero(cls, field: FourierPrime) -> "DensePoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FourierPrime) -> "DensePoly":
        return cls(field, (1,))

    def __len__(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def degree(self) -> int | None:
        """Largest i with a nonzero coefficient, or None for the zero polynomial."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return None

    def normalize(self) -> "DensePoly":
        """Drop trailing zero coefficients; idempotent, degree-preserving."""
        d = self.degree()
        if d is None:
            return DensePoly(self.field, ())
        if d == len(self.coeffs) - 1:
            return self
        return DensePoly(self.field, self.coeffs[: d + 1])

    def __repr__(self) -> str:
        return f"DensePoly(p={self.field.p}, coeffs={self.coeffs})"


def schoolbook_raw(a, b, p: int) -> list[int]:
    """Quadratic coefficient product of two nonempty coefficient sequences.

    The defining sum c_i = sum of a[i - k] * b[k] over the k that index
    both, reduced mod p once per output: the one quadratic loop, behind
    `mul_schoolbook`, Karatsuba's base case, `convolve`'s circular oracle
    and its `definition` engine wherever that does not run in numpy, and
    the pure-Python oracle that `_ntt_numpy.schoolbook` is checked against.
    A bounded range per output ran in 0.89-0.93x the time of a row-by-row
    accumulation into one list, over the 128 small products of perfbench's
    `small_many` (best of 15, 2-core x86-64 host).
    """
    m, n = len(a), len(b)
    out = []
    for i in range(m + n - 1):
        lo = i - m + 1
        if lo < 0:
            lo = 0
        hi = i if i < n - 1 else n - 1
        acc = 0
        for k in range(lo, hi + 1):
            acc += a[i - k] * b[k]
        out.append(acc % p)
    return out


def mul_schoolbook(a: DensePoly, b: DensePoly) -> DensePoly:
    """Direct convolution product: c_k = sum of a_i * b_j over i+j == k."""
    _check_fields(a, b)
    if a.is_zero() or b.is_zero():
        return DensePoly.zero(a.field)
    return DensePoly(a.field, tuple(schoolbook_raw(a.coeffs, b.coeffs, a.field.p)))


def _add_raw(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return out


def _karatsuba_raw(a: list[int], b: list[int], p: int, threshold: int) -> list[int]:
    if len(a) <= threshold or len(b) <= threshold:
        return schoolbook_raw(a, b, p)
    # Split both operands at ceil(max(len)/2); the shorter high half may be
    # empty, which the recursion treats as the zero polynomial.
    m = (max(len(a), len(b)) + 1) // 2
    a0, a1 = a[:m], a[m:]
    b0, b1 = b[:m], b[m:]
    z0 = _karatsuba_raw(a0, b0, p, threshold)
    if a1 and b1:
        z2 = _karatsuba_raw(a1, b1, p, threshold)
        zm = _karatsuba_raw(_add_raw(a0, a1, p), _add_raw(b0, b1, p), p, threshold)
    else:
        # Both exceed threshold >= 1, so m < max(len): the longer has a high half.
        hi, lo = (a1, b0) if a1 else (b1, a0)
        z2 = []
        zm = _add_raw(_karatsuba_raw(hi, lo, p, threshold), z0, p)
    size = len(a) + len(b) - 1
    out = [0] * size
    for i, v in enumerate(z0):
        out[i] = v
    for i, v in enumerate(z2):
        out[2 * m + i] = (out[2 * m + i] + v) % p
    for i, v in enumerate(zm):
        k = z0[i] if i < len(z0) else 0
        if i < len(z2):
            k += z2[i]
        mid = (v - k) % p
        idx = m + i
        if idx < size:
            out[idx] = (out[idx] + mid) % p
        elif mid:
            # The middle term past the product length must cancel exactly.
            raise ArithmeticError("karatsuba overflow: nonzero high coefficient")
    return out


def mul_karatsuba(a: DensePoly, b: DensePoly, threshold: int = KARATSUBA_THRESHOLD) -> DensePoly:
    """Divide-and-conquer product; switches to schoolbook below `threshold`.

    Output contract is identical to mul_schoolbook, bit for bit.
    """
    _check_fields(a, b)
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if a.is_zero() or b.is_zero():
        return DensePoly.zero(a.field)
    return DensePoly(
        a.field,
        tuple(_karatsuba_raw(list(a.coeffs), list(b.coeffs), a.field.p, threshold)),
    )


def eval_poly(a: DensePoly, x: Felt) -> Felt:
    """Horner evaluation of a at the point x."""
    _check_fields(a, x)
    p = a.field.p
    xv = x.value
    acc = 0
    for c in reversed(a.coeffs):
        acc = (acc * xv + c) % p
    return Felt(acc, a.field)


def poly_to_text(a: DensePoly) -> str:
    """Serialize to the interchange format: modulus, count, residues."""
    return "{}\n{}\n{}\n".format(a.field.p, len(a.coeffs), " ".join(map(str, a.coeffs)))


def poly_from_text(text: str) -> DensePoly:
    """Parse the three-line format: modulus, coefficient count, coefficients.

    The line rules are the plan store's, from `field.LineError` and
    `field._lines`: the modulus, the count and every coefficient must be
    [0-9]+ and short enough for int(), and lines end at a newline only.
    Coefficients are separated by single spaces and nothing but one final
    newline may follow line 3; anything else raises PolyTextError. A file
    read through `PolyTextError.read` gets the non-ASCII rule as well.
    """
    lines = _lines(text)
    if len(lines) < 3:
        raise PolyTextError("expected 3 lines: modulus, count, coefficients", len(lines) + 1)
    if len(lines) > 3:
        raise PolyTextError("unexpected text after the coefficient line", 4)
    decimal = PolyTextError.decimal  # bound once, for the loop over the coefficients
    p = decimal(lines[0], "modulus", 1)
    try:
        fp = FourierPrime.from_modulus(p)
    except ValueError as exc:
        raise PolyTextError(str(exc), 1) from None
    n = decimal(lines[1], "coefficient count", 2)
    tokens = lines[2].split(" ") if lines[2] else []
    if len(tokens) != n:
        raise PolyTextError(f"expected {n} coefficients, found {len(tokens)}", 3)
    coeffs = []
    for t in tokens:
        v = decimal(t, "coefficient", 3)
        if v >= p:
            raise PolyTextError(f"coefficient {_clip(t)} not a canonical residue mod {p}", 3)
        coeffs.append(v)
    return DensePoly(fp, tuple(coeffs))
