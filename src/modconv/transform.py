"""Modular DFT and truncated forward/inverse transforms, with op counting.

Vectors are plain lists of canonical residues; the field context travels with
the TwiddleTable. The full transform is natural-order in and out. Truncated
transforms expose spectral values in bit-reversed order (the order a
decimation-style butterfly network produces them in), so truncated spectra are
opaque tokens that only need to align positionally for pointwise products.

Butterfly accounting: one butterfly is one two-point kernel evaluation,
including degenerate forms where a known-zero or unneeded half collapses the
kernel to a single add or multiply. A full N-point transform costs exactly
(N/2)*log2(N) butterflies on every decomposition path; truncated transforms
cost at most n*log2(L)/2 + L for n of L outputs.
"""

from __future__ import annotations

import threading

from .field import FourierPrime, UnsupportedSizeError, root_of_unity


class OpCounters:
    """Monotone tally of butterflies and pointwise spectral products.

    Attach one per call; transforms only ever add to it.
    """

    __slots__ = ("butterflies", "pointwise_muls")

    def __init__(self, butterflies: int = 0, pointwise_muls: int = 0):
        self.butterflies = butterflies
        self.pointwise_muls = pointwise_muls

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpCounters):
            return NotImplemented
        return (
            self.butterflies == other.butterflies
            and self.pointwise_muls == other.pointwise_muls
        )

    def __repr__(self) -> str:
        return f"OpCounters(butterflies={self.butterflies}, pointwise_muls={self.pointwise_muls})"


class TwiddleTable:
    """Precomputed powers of a principal root of unity for one transform size.

    Read-only after construction and safe to share across threads. Prefer
    get_table(), which caches one instance per (p, size).
    """

    __slots__ = (
        "field",
        "size",
        "log2_size",
        "root",
        "powers",
        "inv_powers",
        "inv_size",
        "pow2",
        "inv_pow2",
        "fwd_stages",
        "inv_stages",
    )

    def __init__(self, field: FourierPrime, size: int):
        if size < 1 or size & (size - 1):
            raise ValueError(f"transform size must be a power of two: {size}")
        log2 = size.bit_length() - 1
        if log2 > field.two_adicity:
            raise UnsupportedSizeError(
                f"size {size} needs 2-adicity {log2}, field p={field.p} has "
                f"{field.two_adicity}",
                required_two_adicity=log2,
            )
        p = field.p
        w = root_of_unity(field, size).value
        powers = [1] * size
        acc = 1
        for j in range(1, size):
            acc = acc * w % p
            powers[j] = acc
        # w**-j == w**(size-j), so the inverse table is the forward one reversed.
        inv_powers = [1] + powers[:0:-1]
        self.field = field
        self.size = size
        self.log2_size = log2
        self.root = w
        self.powers = powers
        self.inv_powers = inv_powers
        self.inv_size = pow(size, p - 2, p)
        self.pow2 = [pow(2, k, p) for k in range(log2 + 1)]
        inv2 = (p + 1) >> 1
        self.inv_pow2 = [pow(inv2, k, p) for k in range(log2 + 1)]
        if size > 1 and powers[size >> 1] != p - 1:
            raise ArithmeticError(f"root {w} is not principal for size {size}")
        # Stage-major twiddles for the iterative paths: stage with half-size h
        # uses powers of the order-2h root, i.e. every (size/2h)-th entry.
        self.fwd_stages = [powers[: size >> 1 : size >> (s + 1)] for s in range(log2)]
        self.inv_stages = [inv_powers[: size >> 1 : size >> (s + 1)] for s in range(log2)]


_TABLE_CACHE: dict[tuple[int, int], TwiddleTable] = {}
_TABLE_LOCK = threading.Lock()


def get_table(field: FourierPrime, size: int) -> TwiddleTable:
    """Shared read-only twiddle table for (p, size); built once, cached."""
    key = (field.p, size)
    table = _TABLE_CACHE.get(key)
    if table is None:
        with _TABLE_LOCK:
            table = _TABLE_CACHE.get(key)
            if table is None:
                table = TwiddleTable(field, size)
                _TABLE_CACHE[key] = table
    return table


_REV_CACHE: dict[int, list[int]] = {}


def _rev_indices(n: int) -> list[int]:
    rev = _REV_CACHE.get(n)
    if rev is None:
        bits = n.bit_length() - 1
        rev = [0] * n
        for i in range(1, n):
            rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (bits - 1))
        _REV_CACHE[n] = rev
    return rev


def bit_reverse_permute(x: list[int]) -> list[int]:
    """Reorder so that output[rev(j)] == input[j]; involutive."""
    n = len(x)
    if n < 1 or n & (n - 1):
        raise ValueError(f"length must be a power of two: {n}")
    rev = _rev_indices(n)
    return [x[r] for r in rev]


def _dit_inplace(vec: list[int], stages: list[list[int]], p: int) -> None:
    # vec arrives bit-reversed; leaves in natural order.
    n = len(vec)
    h = 1
    for tws in stages:
        step = h << 1
        for base in range(0, n, step):
            for j in range(h):
                lo = base + j
                hi = lo + h
                t = vec[hi] * tws[j] % p
                u = vec[lo]
                vec[lo] = (u + t) % p
                vec[hi] = (u - t) % p
        h = step


def moddft(
    x: list[int],
    table: TwiddleTable,
    direction: str = "fwd",
    counters: OpCounters | None = None,
) -> list[int]:
    """Full modular DFT, natural order in and out.

    Forward: y_k = sum_j x_j * w**(j*k). Inverse applies the reversed twiddles
    and the 1/N scale, so moddft(moddft(x, t), t, "inv") == x exactly. Each
    call performs exactly (N/2)*log2(N) butterflies.
    """
    n = table.size
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != table size {n}")
    if direction == "fwd":
        stages = table.fwd_stages
    elif direction == "inv":
        stages = table.inv_stages
    else:
        raise ValueError(f"direction must be 'fwd' or 'inv': {direction!r}")
    p = table.field.p
    vec = [x[r] for r in _rev_indices(n)]
    _dit_inplace(vec, stages, p)
    if direction == "inv":
        inv_n = table.inv_size
        vec = [v * inv_n % p for v in vec]
    if counters is not None:
        counters.butterflies += (n >> 1) * table.log2_size
    return vec


def moddft_naive(x: list[int], table: TwiddleTable, direction: str = "fwd") -> list[int]:
    """Quadratic evaluation straight from the transform definition (oracle)."""
    n = table.size
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != table size {n}")
    if direction not in ("fwd", "inv"):
        raise ValueError(f"direction must be 'fwd' or 'inv': {direction!r}")
    p = table.field.p
    powers = table.powers if direction == "fwd" else table.inv_powers
    out = []
    for k in range(n):
        acc = 0
        for j in range(n):
            acc += x[j] * powers[j * k % n]
        out.append(acc % p)
    if direction == "inv":
        inv_n = table.inv_size
        out = [v * inv_n % p for v in out]
    return out


# --- Straight-line base cases ---------------------------------------------

BASE_CASE_SIZES = (2, 4, 8)

# Butterfly cost of each codelet: (m/2) * log2(m).
_CODELET_COST = {2: 1, 4: 4, 8: 12}


def _codelet2(v, powers, stride, p):
    a, b = v
    return [(a + b) % p, (a - b) % p]


def _codelet4(v, powers, stride, p):
    x0, x1, x2, x3 = v
    w4 = powers[stride]
    a0 = x0 + x2
    a1 = x0 - x2
    a2 = x1 + x3
    a3 = (x1 - x3) * w4 % p
    return [(a0 + a2) % p, (a1 + a3) % p, (a0 - a2) % p, (a1 - a3) % p]


def _codelet8(v, powers, stride, p):
    x0, x1, x2, x3, x4, x5, x6, x7 = v
    w1 = powers[stride]
    w2 = powers[2 * stride]
    w3 = powers[3 * stride]
    a0 = x0 + x4
    a1 = x0 - x4
    a2 = x2 + x6
    a3 = (x2 - x6) * w2 % p
    a4 = x1 + x5
    a5 = x1 - x5
    a6 = x3 + x7
    a7 = (x3 - x7) * w2 % p
    b0 = a0 + a2
    b1 = a1 + a3
    b2 = a0 - a2
    b3 = a1 - a3
    b4 = a4 + a6
    b5 = (a5 + a7) * w1 % p
    b6 = (a4 - a6) * w2 % p
    b7 = (a5 - a7) * w3 % p
    return [
        (b0 + b4) % p,
        (b1 + b5) % p,
        (b2 + b6) % p,
        (b3 + b7) % p,
        (b0 - b4) % p,
        (b1 - b5) % p,
        (b2 - b6) % p,
        (b3 - b7) % p,
    ]


_CODELETS = {2: _codelet2, 4: _codelet4, 8: _codelet8}


def dft_basecase(
    x: list[int],
    table: TwiddleTable,
    direction: str = "fwd",
    counters: OpCounters | None = None,
) -> list[int]:
    """Loop-free DFT for sizes 2, 4, 8; identical output to moddft."""
    m = len(x)
    if m not in BASE_CASE_SIZES:
        raise ValueError(f"base case size must be one of {BASE_CASE_SIZES}: {m}")
    if table.size != m:
        raise ValueError(f"table size {table.size} != input length {m}")
    if direction == "fwd":
        powers = table.powers
    elif direction == "inv":
        powers = table.inv_powers
    else:
        raise ValueError(f"direction must be 'fwd' or 'inv': {direction!r}")
    p = table.field.p
    out = _CODELETS[m](x, powers, 1, p)
    if direction == "inv":
        inv_m = table.inv_size
        out = [v * inv_m % p for v in out]
    if counters is not None:
        counters.butterflies += _CODELET_COST[m]
    return out


# --- General-radix Cooley-Tukey, driven by a decomposition plan ------------


def _ct_recurse(vec, powers, stride, splits, depth, base, p, mask):
    m = len(vec)
    if depth == len(splits):
        return _CODELETS[base](vec, powers, stride, p)
    n1 = splits[depth]
    n2 = m // n1
    inner = [
        _ct_recurse(vec[k::n1], powers, stride * n1, splits, depth + 1, base, p, mask)
        for k in range(n1)
    ]
    out = [0] * m
    codelet = _CODELETS[n1]
    inner_stride = stride * n2
    for k2 in range(n2):
        tw = k2 * stride
        col = [inner[0][k2]]
        col += [inner[j][k2] * powers[j * tw & mask] % p for j in range(1, n1)]
        z = codelet(col, powers, inner_stride, p)
        for k1 in range(n1):
            out[n2 * k1 + k2] = z[k1]
    return out


def moddft_plan(
    x: list[int],
    table: TwiddleTable,
    splits: tuple[int, ...],
    base_case: int,
    direction: str = "fwd",
    counters: OpCounters | None = None,
) -> list[int]:
    """Execute the DFT along an explicit decomposition.

    `splits` gives the successive first factors n1 of m = n1 * n2 from the
    root down; `base_case` terminates the recursion. Every valid plan yields
    output bit-identical to moddft and costs the same (N/2)*log2(N)
    butterflies (inter-stage twiddle scalings are not butterflies).
    """
    n = table.size
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != table size {n}")
    if base_case not in BASE_CASE_SIZES:
        raise ValueError(f"base case must be one of {BASE_CASE_SIZES}: {base_case}")
    prod = base_case
    for s in splits:
        if s not in BASE_CASE_SIZES:
            raise ValueError(f"split radix must be one of {BASE_CASE_SIZES}: {s}")
        prod *= s
    if prod != n:
        raise ValueError(f"decomposition {splits} x base {base_case} != size {n}")
    if direction == "fwd":
        powers = table.powers
    elif direction == "inv":
        powers = table.inv_powers
    else:
        raise ValueError(f"direction must be 'fwd' or 'inv': {direction!r}")
    p = table.field.p
    out = _ct_recurse(list(x), powers, 1, splits, 0, base_case, p, n - 1)
    if direction == "inv":
        inv_n = table.inv_size
        out = [v * inv_n % p for v in out]
    if counters is not None:
        counters.butterflies += (n >> 1) * table.log2_size
    return out


# --- Truncated transforms ---------------------------------------------------


def _tft_recurse(c, off, m, z, n, stride, powers, p):
    # In-place truncated decimation: c[off:off+m] holds x_0..x_{z-1} then
    # zeros; on exit the first n cells hold spectral values (bit-rev order).
    if n == 0 or m == 1:
        return 0
    h = m >> 1
    if n > h:
        if z > h:
            for i in range(z - h):
                lo = off + i
                hi = lo + h
                a = c[lo]
                b = c[hi]
                c[lo] = (a + b) % p
                c[hi] = (a - b) * powers[i * stride] % p
            for i in range(z - h, h):
                lo = off + i
                c[lo + h] = c[lo] * powers[i * stride] % p
            count = h
            zz = h
        else:
            for i in range(z):
                lo = off + i
                c[lo + h] = c[lo] * powers[i * stride] % p
            count = z
            zz = z
        s2 = stride << 1
        count += _tft_recurse(c, off, h, zz, h, s2, powers, p)
        count += _tft_recurse(c, off + h, h, zz, n - h, s2, powers, p)
        return count
    if z > h:
        for i in range(z - h):
            lo = off + i
            c[lo] = (c[lo] + c[lo + h]) % p
        count = z - h
        zz = h
    else:
        count = 0
        zz = z
    return count + _tft_recurse(c, off, h, zz, n, stride << 1, powers, p)


def tft(
    table: TwiddleTable,
    x: list[int],
    n: int,
    counters: OpCounters | None = None,
) -> list[int]:
    """First n spectral values (bit-reversed order) of the zero-padded DFT.

    The input's z = len(x) coefficients are implicitly extended with zeros to
    the table size L. Requires 1 <= z <= n <= L. Butterflies spent are at
    most n*log2(L)/2 + L.
    """
    size = table.size
    z = len(x)
    if z < 1:
        raise ValueError("input must be nonempty")
    if z > n:
        raise ValueError(f"input length {z} exceeds output count {n}")
    if n > size:
        raise ValueError(f"output count {n} exceeds transform size {size}")
    c = list(x)
    if z < size:
        c.extend([0] * (size - z))
    used = _tft_recurse(c, 0, size, z, n, 1, table.powers, table.field.p)
    if counters is not None:
        counters.butterflies += used
    del c[n:]
    return c


def _itft_recurse(c, off, m, n, stride, fwd, inv, p, pow2, inv_pow2, mlog):
    # Entry: c[off+i] spectral (bit-rev order) for i < n, plain time values
    # x_j for j >= n. Exit: c[off+i] == m * x_i for i < n.
    if m == 1 or n == 0:
        return 0
    h = m >> 1
    s2 = stride << 1
    if n <= h:
        for j in range(n, h):
            lo = off + j
            c[lo] = (c[lo] + c[lo + h]) % p
        count = h - n
        count += _itft_recurse(c, off, h, n, s2, fwd, inv, p, pow2, inv_pow2, mlog - 1)
        m_mod = pow2[mlog]
        for i in range(n):
            lo = off + i
            c[lo] = (2 * c[lo] - m_mod * c[lo + h]) % p
        return count + n
    count = _itft_recurse(c, off, h, h, s2, fwd, inv, p, pow2, inv_pow2, mlog - 1)
    m_mod = pow2[mlog]
    inv_h = inv_pow2[mlog - 1]
    for i in range(n - h, h):
        # Cross butterfly: from (h*u_i, x_{i+h}) produce (m*x_i, v_i).
        lo = off + i
        hi = lo + h
        a = c[lo]
        b = c[hi]
        c[hi] = (a * inv_h - 2 * b) % p * fwd[i * stride] % p
        c[lo] = (2 * a - m_mod * b) % p
    count += h - (n - h)
    count += _itft_recurse(c, off + h, h, n - h, s2, fwd, inv, p, pow2, inv_pow2, mlog - 1)
    for i in range(n - h):
        lo = off + i
        hi = lo + h
        t = c[hi] * inv[i * stride] % p
        a = c[lo]
        c[lo] = (a + t) % p
        c[hi] = (a - t) % p
    return count + n - h


def itft(
    table: TwiddleTable,
    xhat: list[int],
    counters: OpCounters | None = None,
) -> list[int]:
    """Recover (L*u_0, ..., L*u_{n-1}) from the first n spectral values.

    The caller promises that the underlying time-domain coefficients u_j
    vanish for j >= n; that promise is what lets the missing spectrum be
    reconstructed. Divide by L via table.inv_size to obtain u itself.
    Butterflies spent are at most n*log2(L)/2 + L.
    """
    size = table.size
    n = len(xhat)
    if n < 1:
        raise ValueError("spectral input must be nonempty")
    if n > size:
        raise ValueError(f"input length {n} exceeds transform size {size}")
    c = list(xhat)
    if n < size:
        c.extend([0] * (size - n))
    used = _itft_recurse(
        c,
        0,
        size,
        n,
        1,
        table.powers,
        table.inv_powers,
        table.field.p,
        table.pow2,
        table.inv_pow2,
        table.log2_size,
    )
    if counters is not None:
        counters.butterflies += used
    del c[n:]
    return c
