"""Modular DFT and truncated forward/inverse transforms, with op counting.

Vectors are plain lists of canonical residues; the field context travels with
the TwiddleTable. The full transform is natural-order in and out. Truncated
transforms expose spectral values in bit-reversed order (the order a
decimation-style butterfly network produces them in), so truncated spectra are
opaque tokens that only need to align positionally for pointwise products.

Every transform runs iterative stage loops over the table's per-stage twiddle
lists. tft walks the stages that _tft_path lays out, and itft inverts each
fully known half with the loop moddft runs, on the one partial path that
_itft_path lays out; both backends read those walks. The loops exist twice:
in pure Python here, the reference and the path for any prime, and in numpy
(`_ntt_numpy`) over p < 2**32, where a residue product fits in uint64. Two
sizes pick the numpy kernels for a list, provided numpy can be imported:
_NUMPY_MIN_SIZE (2**15), from which a transform pays for importing numpy,
and _NUMPY_CROSSOVER (2**9), from which the numpy kernels are faster once
numpy is loaded anyway. A uint64 ndarray input always runs them and gets an
ndarray back, so callers can keep a whole product in arrays. _as_residues is
the one place a vector crosses into numpy: a list has its ints outside
[0, p) reduced there, and an ndarray must be 1-D uint64 and hold residues,
else ValueError; _numpy_inputs says when an engine's inputs cross. Both
paths return the same residues and count the same butterflies. numpy is
imported on first use, never by this module or by building a table.

Butterfly accounting: one butterfly is one two-point kernel evaluation,
including degenerate forms where a known-zero or unneeded half collapses the
kernel to a single add or multiply. A full N-point transform costs exactly
(N/2)*log2(N) butterflies; truncated transforms cost at most n*log2(L)/2 + L
for n of L outputs. tft_butterflies and itft_butterflies give their exact
counts without running them, by walking the same stages and the same path.
"""

from __future__ import annotations

import functools
import sys
import threading

from .field import FourierPrime, root_of_unity


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
    """Per-stage powers of a principal root of unity w for one transform size.

    The last stage holds w**j and w**-j for j < size/2. Read-only after
    construction, apart from numpy_arrays, which the numpy kernels fill once
    with values derived from the stages; safe to share across threads.
    Prefer get_table(), which caches recently used tables.
    """

    __slots__ = (
        "field",
        "size",
        "log2_size",
        "root",
        "inv_size",
        "fwd_stages",
        "inv_stages",
        "numpy_arrays",
    )

    def __init__(self, field: FourierPrime, size: int):
        if size < 1 or size & (size - 1):
            raise ValueError(f"transform size must be a power of two: {size}")
        log2 = size.bit_length() - 1
        p = field.p
        # Raises UnsupportedSizeError beyond the field's 2-adicity.
        w = root_of_unity(field, size).value
        h = size >> 1
        half = [1] * h
        acc = 1
        for j in range(1, h):
            acc = acc * w % p
            half[j] = acc
        if h and acc * w % p != p - 1:
            raise ArithmeticError(f"root {w} is not principal for size {size}")
        # w**(size/2) == -1, so w**-j == w**(size-j) == p - w**(size/2-j).
        inv_half = [1] + [p - half[h - j] for j in range(1, h)]
        self.field = field
        self.size = size
        self.log2_size = log2
        self.root = w
        self.inv_size = pow(size, p - 2, p)
        # Stage-major twiddles for the iterative paths: stage with half-size h
        # uses powers of the order-2h root, i.e. every (size/2h)-th entry.
        self.fwd_stages = [half[:: size >> (s + 1)] for s in range(log2)]
        self.inv_stages = [inv_half[:: size >> (s + 1)] for s in range(log2)]
        # uint64 copies of the stages for the numpy kernels, made by their
        # first call on this table so that building a table never imports numpy.
        self.numpy_arrays = None


# Most tables and bit-reversal lists kept at once; a 2**20 table is ~50 MB.
_CACHE_SIZE = 32
_TABLE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _build_table(field: FourierPrime, size: int) -> TwiddleTable:
    # Calls TwiddleTable through the module global, so a wrapper on it sees every build.
    return TwiddleTable(field, size)


def get_table(field: FourierPrime, size: int) -> TwiddleTable:
    """Shared read-only twiddle table for (field, size); the most recent _CACHE_SIZE stay cached."""
    with _TABLE_LOCK:
        return _build_table(field, size)


# Smallest transform size that imports numpy. Importing it costs about as much
# as one pure-Python transform of 2**15 points, so a process whose transforms
# all stay smaller never imports it.
_NUMPY_MIN_SIZE = 1 << 15
# Smallest transform size the numpy kernels take once numpy is loaded anyway:
# from 2**9 up they beat the Python loops on every transform, and from 2**10 to
# 2**14 they run 5-15x faster (measured on a 2-core x86-64 host).
_NUMPY_CROSSOVER = 1 << 9


def _numpy_kernels(p: int, size: int):
    """The numpy kernels module if they should run size-point transforms mod p, else None.

    They should over p < 2**32, where a product of two residues fits in
    uint64, at sizes >= _NUMPY_MIN_SIZE, which pay for importing numpy, and at
    sizes >= _NUMPY_CROSSOVER once numpy is loaded, where they are faster than
    the Python loops. Either way numpy must be importable; it is imported
    here only from _NUMPY_MIN_SIZE on.
    """
    if p >= 1 << 32:
        return None
    if size < _NUMPY_MIN_SIZE and (size < _NUMPY_CROSSOVER or sys.modules.get("numpy") is None):
        return None
    try:
        from . import _ntt_numpy
    except ImportError:
        return None
    return _ntt_numpy


def _is_array(x) -> bool:
    # True for a numpy ndarray; only a process that has loaded numpy holds one,
    # so this never imports it.
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def _as_residues(x, p: int):
    """x as a uint64 array of residues mod p, the one input the numpy kernels take.

    A list (or tuple) is converted through the buffer protocol, as a C array
    of unsigned 64-bit ints, and its ints outside [0, p) are reduced mod p:
    the residues the Python loops compute with. An ndarray is taken as it
    is, so it must be one-dimensional and uint64, hold residues and have
    p < 2**32; any other raises ValueError, as an empty x does. `DensePoly`
    reads an ndarray by this rule too. Call it only where numpy is loaded.
    """
    import array  # a shared library, so a process that never converts never loads it

    import numpy as np

    if isinstance(x, np.ndarray):
        if p >= 1 << 32:
            raise ValueError(f"uint64 arrays need p < 2**32, got p={p}")
        if x.ndim != 1 or x.dtype != np.uint64 or x.max() >= p:
            raise ValueError(f"arrays must be 1-D uint64 and hold residues mod p={p}")
        return x
    try:
        a = np.frombuffer(array.array("Q", x), dtype=np.uint64)
    except OverflowError:  # an int below 0 or from 2**64 up
        a = np.array([v % p for v in x], dtype=np.uint64)
    if a.max() >= p:
        a %= p
    return a


def _numpy_inputs(table: TwiddleTable, *vecs):
    """vecs as uint64 arrays (`_as_residues`) for an engine to rerun on, else None.

    An engine runs in arrays when any input is an ndarray or when table's
    transforms run in numpy; asking `_numpy_kernels` imports numpy from 2**15
    on, so the first product that large converts like every later one. Every
    input goes through `_as_residues`, whatever its position: a list is
    reduced into [0, p), an ndarray is checked. Inputs that are all arrays
    give None once checked: the engine is already on the array path, and
    returns an ndarray only then.
    """
    p = table.field.p
    given = [_is_array(v) for v in vecs]
    if not any(given) and _numpy_kernels(p, table.size) is None:
        return None
    arrays = [_as_residues(v, p) for v in vecs]
    return None if all(given) else arrays


def _in_numpy(table: TwiddleTable, x, run):
    # run(kernels, a) on the numpy kernels and a = _as_residues(x), in the
    # type of x, where the numpy kernels run x at table's size: always for an
    # ndarray, and for a list where _numpy_kernels picks them. None where the
    # Python loops run x.
    p = table.field.p
    if _is_array(x):
        from . import _ntt_numpy

        return run(_ntt_numpy, _as_residues(x, p))
    kernels = _numpy_kernels(p, table.size)
    return None if kernels is None else run(kernels, _as_residues(x, p)).tolist()


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _rev_indices(n: int) -> list[int]:
    bits = n.bit_length() - 1
    rev = [0] * n
    for i in range(1, n):
        rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (bits - 1))
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
    call performs exactly (N/2)*log2(N) butterflies. A uint64 ndarray x (only
    for p < 2**32) runs the numpy kernels and gives an ndarray back.
    """
    n = table.size
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != table size {n}")
    if direction not in ("fwd", "inv"):
        raise ValueError(f"direction must be 'fwd' or 'inv': {direction!r}")
    vec = _in_numpy(table, x, lambda kernels, a: kernels.moddft(a, table, direction))
    if vec is None:
        vec = _moddft_python(x, table, direction)
    if counters is not None:
        counters.butterflies += (n >> 1) * table.log2_size
    return vec


def _moddft_python(x: list[int], table: TwiddleTable, direction: str) -> list[int]:
    # moddft's pure-Python loops, the reference for the numpy kernels.
    p = table.field.p
    stages = table.fwd_stages if direction == "fwd" else table.inv_stages
    vec = [x[r] for r in _rev_indices(table.size)]
    _dit_inplace(vec, stages, p)
    if direction == "inv":
        inv_n = table.inv_size
        vec = [v * inv_n % p for v in vec]
    return vec


def moddft_naive(x: list[int], table: TwiddleTable, direction: str = "fwd") -> list[int]:
    """Quadratic evaluation straight from the transform definition (oracle)."""
    n = table.size
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != table size {n}")
    if direction not in ("fwd", "inv"):
        raise ValueError(f"direction must be 'fwd' or 'inv': {direction!r}")
    p = table.field.p
    w = table.root if direction == "fwd" else pow(table.root, -1, p)
    powers = [pow(w, j, p) for j in range(n)]
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


# --- Truncated transforms ---------------------------------------------------


def tft(
    table: TwiddleTable,
    x: list[int],
    n: int,
    counters: OpCounters | None = None,
) -> list[int]:
    """First n spectral values (bit-reversed order) of the zero-padded DFT.

    The input's z = len(x) coefficients are implicitly extended with zeros to
    the table size L. Requires 1 <= z <= n <= L. Butterflies spent are at
    most n*log2(L)/2 + L. A uint64 ndarray x gives an ndarray back, as in moddft.
    """
    size = table.size
    z = len(x)
    if z < 1:
        raise ValueError("input must be nonempty")
    if z > n:
        raise ValueError(f"input length {z} exceeds output count {n}")
    if n > size:
        raise ValueError(f"output count {n} exceeds transform size {size}")
    out = _in_numpy(table, x, lambda kernels, a: kernels.tft(table, a, n))
    if out is None:
        return _tft_python(table, x, n, counters)
    if counters is not None:
        counters.butterflies += tft_butterflies(size, z, n)
    return out


def _tft_python(
    table: TwiddleTable, x: list[int], n: int, counters: OpCounters | None
) -> list[int]:
    # tft's pure-Python loops, the reference for the numpy kernels.
    size = table.size
    z = len(x)
    c = list(x)
    if z < size:
        c.extend([0] * (size - z))
    p = table.field.p
    used = 0
    for tws, (h, full, zz, both) in zip(reversed(table.fwd_stages), _tft_path(size, z, n)):
        step = h << 1
        for base in range(0, full * step, step):
            for i in range(both):
                lo = base + i
                hi = lo + h
                a = c[lo]
                b = c[hi]
                c[lo] = (a + b) % p
                c[hi] = (a - b) * tws[i] % p
            for i in range(both, zz):
                lo = base + i
                c[lo + h] = c[lo] * tws[i] % p
            used += zz
        base = full * step
        if base < n:
            # Only the low half is wanted: fold the high half onto it.
            for i in range(both):
                lo = base + i
                c[lo] = (c[lo] + c[lo + h]) % p
            used += both
    if counters is not None:
        counters.butterflies += used
    del c[n:]
    return c


def _tft_path(size: int, z: int, n: int) -> list[tuple[int, int, int, int]]:
    # tft's stage walk, top down, for z inputs and n outputs: per stage the
    # half-size h, the count `full` of blocks of 2h whose high half holds a
    # wanted output (base + h < n), the live inputs zz = min(z, h) each block
    # starts with after the stage, and the count z - zz of them paired with a
    # live high half. A last block at full * 2h < n has only its low half
    # wanted and folds the paired ones.
    stages = []
    h = size >> 1
    while h:
        zz = min(z, h)
        stages.append((h, (n + h - 1) // (h << 1), zz, z - zz))
        z = zz
        h >>= 1
    return stages


def tft_butterflies(L: int, z: int, n: int) -> int:
    """Butterflies tft spends on z inputs and n outputs at size L, without running it.

    Walks tft's stages (_tft_path): at half-size h, each of the blocks of 2h
    with a wanted high half spends min(z, h), and a last block with only its
    low half wanted spends the z - min(z, h) folds; O(log L).
    """
    count = 0
    for h, full, zz, both in _tft_path(L, z, n):
        count += full * zz
        if full * (h << 1) < n:
            count += both
    return count


def itft(
    table: TwiddleTable,
    xhat: list[int],
    counters: OpCounters | None = None,
) -> list[int]:
    """Recover (L*u_0, ..., L*u_{n-1}) from the first n spectral values.

    The caller promises that the underlying time-domain coefficients u_j
    vanish for j >= n; that promise is what lets the missing spectrum be
    reconstructed. Divide by L via table.inv_size to obtain u itself.
    Butterflies spent are at most n*log2(L)/2 + L. A uint64 ndarray xhat gives
    an ndarray back, as in moddft.
    """
    size = table.size
    n = len(xhat)
    if n < 1:
        raise ValueError("spectral input must be nonempty")
    if n > size:
        raise ValueError(f"input length {n} exceeds transform size {size}")
    out = _in_numpy(table, xhat, lambda kernels, a: kernels.itft(table, a))
    if out is None:
        return _itft_python(table, xhat, counters)
    if counters is not None:
        counters.butterflies += itft_butterflies(size, n)
    return out


def _itft_python(
    table: TwiddleTable, xhat: list[int], counters: OpCounters | None
) -> list[int]:
    # itft's pure-Python loops, the reference for the numpy kernels.
    size = table.size
    n = len(xhat)
    c = list(xhat)
    if n < size:
        c.extend([0] * (size - n))
    p = table.field.p
    inv = table.inv_stages
    # Down the one partial path, c[off:off+m] holds spectral values for
    # i < left and time values above; the way back up makes it m * u.
    used = 0
    levels = _itft_path(size, n)
    for off, m, left, log in levels:
        h = m >> 1
        if left > h:
            # The low half is fully known: its inverse gives h * u_i.
            low = c[off : off + h]
            _dit_inplace(low, inv[:log], p)
            c[off : off + h] = low
            inv_h = pow(h, -1, p)
            tws = table.fwd_stages[log]
            for i in range(left - h, h):
                # Cross butterfly: from (h*u_i, x_{i+h}) produce (m*x_i, v_i).
                lo = off + i
                hi = lo + h
                a = c[lo]
                b = c[hi]
                c[hi] = (a * inv_h - 2 * b) % p * tws[i] % p
                c[lo] = (2 * a - m * b) % p
            used += (h >> 1) * log + h - (left - h)
        else:
            for j in range(left, h):
                lo = off + j
                c[lo] = (c[lo] + c[lo + h]) % p
            used += h - left
    for off, m, left, log in reversed(levels):
        h = m >> 1
        if left > h:
            tws = inv[log]
            for i in range(left - h):
                lo = off + i
                hi = lo + h
                t = c[hi] * tws[i] % p
                a = c[lo]
                c[lo] = (a + t) % p
                c[hi] = (a - t) % p
            used += left - h
        else:
            for i in range(left):
                lo = off + i
                c[lo] = (2 * c[lo] - m * c[lo + h]) % p
            used += left
    if counters is not None:
        counters.butterflies += used
    del c[n:]
    return c


def _itft_path(size: int, n: int) -> list[tuple[int, int, int, int]]:
    # itft's partial path, top down: per level the block c[off:off+m], the
    # count `left` of its leading spectral values and log2(m/2). Where more
    # than m/2 are known the path continues in the high half, else in the low.
    levels = []
    off = 0
    left = n
    h = size >> 1
    while h:
        levels.append((off, h << 1, left, h.bit_length() - 1))
        if left > h:
            off += h
            left -= h
        h >>= 1
    return levels


def itft_butterflies(L: int, n: int) -> int:
    """Butterflies itft spends recovering n values at size L, without running it.

    Each level of itft's partial path costs h = m/2, plus a full inverse of
    the low half when more than h values are kept; O(log L).
    """
    count = 0
    for _, m, left, log in _itft_path(L, n):
        h = m >> 1
        count += h
        if left > h:
            count += (h >> 1) * log
    return count
