"""Prime fields Z/pZ with power-of-two roots of unity.

Moduli are word-sized Fourier primes: odd primes p < 2**62 whose p-1 carries a
large power-of-two factor, so power-of-two transform lengths have the principal
roots of unity they need. Scalars are canonical residues in [0, p); reduction
is plain remainder arithmetic, which Python performs exactly at any width, so
no overflow handling is needed below the 2**62 modulus cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

MAX_MODULUS_BITS = 62

# The primes below 40: the trial divisors, and a deterministic Miller-Rabin
# witness set, valid for every n < 3.3 * 10**24.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _clip(text: str, limit: int = 32) -> str:
    # A token echoed in an error message, as repr() shows it; past `limit`
    # characters only its start and its length, so one token cannot fill a screen.
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


class LineError(ValueError):
    """Malformed text in one of modconv's line formats; carries the 1-based line.

    The polynomial text and the plan store share their rules through this
    class and `_lines`: a file is ASCII (`read`), lines end at `\\n` only
    (`_lines`) and an integer field is `[0-9]+` (`decimal`). Each format
    raises its own subclass.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line

    @classmethod
    def read(cls, fh) -> str:
        """All of fh, a text handle opened as ASCII; a non-ASCII byte raises cls at its line."""
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise cls(f"non-ASCII byte {exc.object[exc.start]:#04x}", line) from None

    @classmethod
    def decimal(cls, token: str, what: str, line: int) -> int:
        """token as an int if it is [0-9]+ and short enough for int(), else raise cls."""
        # int() would also take signs, '_' separators, surrounding whitespace
        # and non-ASCII digits.
        if not (token.isascii() and token.isdigit()):
            raise cls(f"bad {what} {_clip(token)}", line)
        try:
            return int(token)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise cls(f"{what} too long: {len(token)} digits", line) from None


def _lines(text: str) -> list[str]:
    # Lines end at '\n' only; the empty string after a final newline is not a line.
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    return lines


class FieldMismatchError(ValueError):
    """Operands belong to different prime fields."""


def _check_fields(a, b) -> None:
    """The one field-match check, of two values with a `field` (Felt, DensePoly): FieldMismatchError unless their moduli agree."""
    if a.field.p != b.field.p:
        raise FieldMismatchError(f"mixed moduli {a.field.p} and {b.field.p}")


class UnsupportedSizeError(ValueError):
    """A transform length exceeds what the field's 2-adicity supports."""

    def __init__(self, message: str, required_two_adicity: int | None = None):
        super().__init__(message)
        self.required_two_adicity = required_two_adicity


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin check for word-sized integers."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Find a nontrivial factor of an odd composite n."""
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"factorization failed for {n}")


@lru_cache(maxsize=256)
def factorize(n: int) -> tuple[int, ...]:
    """Sorted distinct prime factors of n >= 1."""
    factors: set[int] = set()
    for q in _SMALL_PRIMES:
        while n % q == 0:
            factors.add(q)
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors.add(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(factors))


def _two_adicity(n: int) -> int:
    return ((n & -n).bit_length()) - 1


def _check_modulus(p: int) -> None:
    if p < 3 or p % 2 == 0 or p.bit_length() > MAX_MODULUS_BITS or not is_probable_prime(p):
        raise ValueError(f"modulus must be an odd prime below 2**{MAX_MODULUS_BITS}: {_clip(str(p))}")


def _smallest_primitive_root(p: int) -> int:
    cofactors = [(p - 1) // q for q in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, e, p) != 1 for e in cofactors):
            return g
        g += 1


@dataclass(frozen=True, slots=True)
class FourierPrime:
    """A word-sized prime modulus with its 2-adicity and smallest primitive root."""

    p: int
    two_adicity: int
    generator: int

    def __post_init__(self) -> None:
        p = self.p
        _check_modulus(p)
        if self.two_adicity != _two_adicity(p - 1):
            raise ValueError(
                f"two_adicity {self.two_adicity} does not match modulus {p}"
            )
        g = self.generator
        if not 1 < g < p or any(pow(g, (p - 1) // q, p) == 1 for q in factorize(p - 1)):
            raise ValueError(f"{g} is not a primitive root mod {p}")

    @classmethod
    @lru_cache(maxsize=256)
    def from_modulus(cls, p: int) -> "FourierPrime":
        """The field descriptor for a given prime modulus; cached per modulus."""
        # Checked before p - 1 is factored: that can take forever for a much wider p.
        _check_modulus(p)
        return cls(p, _two_adicity(p - 1), _smallest_primitive_root(p))

    def felt(self, value: int) -> "Felt":
        """Wrap an arbitrary integer as a canonical field element."""
        return Felt(value % self.p, self)

    def zero(self) -> "Felt":
        return Felt(0, self)

    def one(self) -> "Felt":
        return Felt(1, self)

    def __repr__(self) -> str:
        return f"FourierPrime({self.p})"


@dataclass(frozen=True, slots=True)
class Felt:
    """Canonical residue in [0, p) tied to its field.

    Values are immutable and freely shareable between threads. Arithmetic on
    elements of different fields raises FieldMismatchError.
    """

    value: int
    field: FourierPrime

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.field.p:
            raise ValueError(f"residue {self.value} out of range for p={self.field.p}")

    def __add__(self, other: "Felt") -> "Felt":
        _check_fields(self, other)
        return Felt((self.value + other.value) % self.field.p, self.field)

    def __sub__(self, other: "Felt") -> "Felt":
        _check_fields(self, other)
        return Felt((self.value - other.value) % self.field.p, self.field)

    def __neg__(self) -> "Felt":
        return Felt(-self.value % self.field.p, self.field)

    def __mul__(self, other: "Felt") -> "Felt":
        _check_fields(self, other)
        return Felt(self.value * other.value % self.field.p, self.field)

    def inv(self) -> "Felt":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse")
        return Felt(pow(self.value, self.field.p - 2, self.field.p), self.field)

    def __pow__(self, exponent: int) -> "Felt":
        """Square-and-multiply power; 0**0 == 1 by convention."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative; use inv() instead")
        return Felt(pow(self.value, exponent, self.field.p), self.field)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Felt({self.value} mod {self.field.p})"


def root_of_unity(field: FourierPrime, n: int) -> Felt:
    """Principal n-th root of unity for a power-of-two n dividing p-1.

    The returned w satisfies w**n == 1 and, for n > 1, w**(n//2) == p-1, which
    forces w**(n//q) != 1 for every prime q dividing n.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"order must be a power of two: {n}")
    log2 = n.bit_length() - 1
    if log2 > field.two_adicity:
        raise UnsupportedSizeError(
            f"order {n} needs 2-adicity {log2}, field p={field.p} has "
            f"{field.two_adicity}",
            required_two_adicity=log2,
        )
    return Felt(pow(field.generator, (field.p - 1) >> log2, field.p), field)


def find_fourier_prime(min_two_adicity: int, bits: int) -> FourierPrime:
    """Smallest `bits`-bit prime p with 2**min_two_adicity dividing p-1.

    Deterministic: candidates p = 2**(bits-1) + j * 2**min_two_adicity + 1 are
    scanned upward from the bottom of the bit range.
    """
    if min_two_adicity < 1:
        raise ValueError("min_two_adicity must be >= 1")
    if bits > MAX_MODULUS_BITS:
        raise ValueError(f"bits must be <= {MAX_MODULUS_BITS}")
    if min_two_adicity > bits - 2:
        raise ValueError("min_two_adicity must be <= bits - 2")
    step = 1 << min_two_adicity
    candidate = (1 << (bits - 1)) + 1
    limit = 1 << bits
    while candidate < limit:
        if is_probable_prime(candidate):
            return FourierPrime.from_modulus(candidate)
        candidate += step
    raise ValueError(
        f"no {bits}-bit prime with 2-adicity >= {min_two_adicity} exists"
    )
