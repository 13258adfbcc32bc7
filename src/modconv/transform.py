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
(`_ntt_numpy`) over p < 2**32, where a residue product fits in uint64. The
numpy kernels take a transform of _NUMPY_CROSSOVER (2**9) points or more,
where they are the faster loops, once numpy is loaded or the process should
load it (`_numpy_kernels`): once the larger of the process's Python-loop
butterflies at sizes the kernels take and this transform's own butterflies
reaches _BUDGET, one 2**15-point transform's worth, about what the import
costs. numpy must be importable.

Each public transform (moddft, tft, itft) is a door over a private core
(_moddft, _tft, _itft) with the same positional arguments. A door reads its
vector as a list of ints (`_ints`: an int-like through `operator.index`, a
non-integer or an ndarray raises ValueError), checks its arguments, runs
the core through `_run` and returns a list. `_run` is the one place that
decides the backend and keeps the process's tally: a core trusts what it is
handed and dispatches on its type, a uint64 array of residues runs the numpy
kernels and gives one back, and a list runs the Python loops. The engines in
`convolve` call the cores through the same `_run`, so a product converts its
inputs once and stays in arrays. _as_residues is the one place a vector
crosses into numpy: a list has its ints outside [0, p) reduced there. Both
paths return the same residues and count the same butterflies. numpy is
imported on first use, never by this module or by building a table.

No core divides by the size: the inverse moddft core, like itft, returns
size times the inverse transform. `_div_size` is the one 1/L scale; the
moddft door applies it, and so does `convolve`'s one product step, once per
product.

Butterfly accounting: one butterfly is one two-point kernel evaluation,
including degenerate forms where a known-zero or unneeded half collapses the
kernel to a single add or multiply. A full N-point transform costs exactly
(N/2)*log2(N) butterflies; truncated transforms cost at most n*log2(L)/2 + L
for n of L outputs. tft_butterflies and itft_butterflies give their exact
counts without running them, by walking the same stages and the same path.
"""

from __future__ import annotations

import functools
import operator
import sys
import threading
from dataclasses import dataclass

from .field import FourierPrime, root_of_unity


@dataclass(slots=True)
class OpCounters:
    """Monotone tally of butterflies and pointwise spectral products.

    Attach one per call; transforms only ever add to it.
    """

    butterflies: int = 0
    pointwise_muls: int = 0


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


# Smallest transform size the numpy kernels take: from 2**9 up they beat the
# Python loops on every transform once numpy is loaded, lists in and out
# (itft at n = L by 1.3x, moddft by 4x), while at 2**8 itft at n = L still
# loses (measured on a 2-core x86-64 host).
_NUMPY_CROSSOVER = 1 << 9
# Butterflies of one 2**15-point transform, about what importing numpy
# costs: once the Python loops have spent that much where the numpy kernels
# could have run, or one transform would by itself, the process pays for the
# import (the ski-rental rule, never worse than twice the better of never
# and at once).
_BUDGET = (1 << 14) * 15
# The process's butterflies so far in Python-loop transforms of a size and
# prime the numpy kernels take, as the doors and poly_mul run them; only
# `_run` adds to it. It only grows, and is updated without a lock: a lost
# update under threads only delays the switch.
_python_butterflies = 0


@functools.cache
def _load_numpy_kernels():
    # The numpy kernels module, or None where numpy cannot be imported; a
    # failure is remembered, so the import is tried once per process.
    try:
        from . import _ntt_numpy
    except ImportError:
        return None
    return _ntt_numpy


def _takes(p: int, size: int) -> bool:
    # Whether the numpy kernels take size-point transforms mod p at all:
    # p < 2**32, where a product of two residues fits in uint64, and from
    # _NUMPY_CROSSOVER points up.
    return p < 1 << 32 and size >= _NUMPY_CROSSOVER


def _numpy_kernels(p: int, size: int):
    """The numpy kernels module if they should run size-point transforms mod p, else None.

    They should where they take the transform (`_takes`) and the process
    has loaded numpy or should load it: once the larger of its earlier
    Python-loop butterflies and this transform's own reaches _BUDGET. numpy
    must be importable. A process's first product thus loads numpy only
    from 2**15 points on.
    """
    if not _takes(p, size):
        return None
    if sys.modules.get("numpy") is None and max(_python_butterflies, (size >> 1) * (size.bit_length() - 1)) < _BUDGET:
        return None
    return _load_numpy_kernels()


def _is_array(x) -> bool:
    # True for a numpy ndarray; only a process that has loaded numpy holds one,
    # so this never imports it.
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def _ints(x) -> list[int]:
    """A door's vector x as a list of Python ints, by DensePoly's rule.

    An int-like element (a bool, a numpy integer) is read through
    `operator.index`; anything else, and an ndarray x, raises ValueError.
    Ints outside [0, p) are kept, for the arithmetic to reduce.
    """
    if _is_array(x):
        raise ValueError("transforms and engines take lists, not ndarrays")
    try:
        return list(map(operator.index, x))
    except TypeError:
        raise ValueError("vector elements must be integers") from None


def _as_residues(x, p: int):
    """x as a uint64 array of residues mod p, the one input the numpy kernels take.

    A list (or tuple) of ints is converted through the buffer protocol, as
    a C array of unsigned 64-bit ints, and its ints outside [0, p) are
    reduced mod p: the residues the Python loops compute with. An empty list
    raises ValueError. An ndarray is taken as it is, so it must be
    one-dimensional and uint64, hold residues and have p < 2**32; any other
    raises ValueError. `DensePoly` and the residue maps read an ndarray by
    this rule. Call it only where numpy is loaded.
    """
    import array  # a shared library, so a process that never converts never loads it

    import numpy as np

    if isinstance(x, np.ndarray):
        if p >= 1 << 32:
            raise ValueError(f"uint64 arrays need p < 2**32, got p={p}")
        if x.ndim != 1 or x.dtype != np.uint64 or x.size and x.max() >= p:
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
    """The int vectors vecs as uint64 arrays (`_as_residues`) where table's transforms run in numpy, else None.

    Asking `_numpy_kernels` imports numpy where its rule says the process
    should pay for it, so the first product that does converts like every
    later one. It counts nothing: the planner times its kernels on these.
    """
    p = table.field.p
    if _numpy_kernels(p, table.size) is None:
        return None
    return [_as_residues(v, p) for v in vecs]


def _run(table: TwiddleTable, core, *vecs):
    """core(*vecs) on the int vectors vecs as `_numpy_inputs` makes them: the one crossing, and the one tally.

    The core gets uint64 arrays where table's transforms run in numpy, else
    vecs as they are. A run on lists at a size and prime the numpy kernels
    take (`_takes`) adds to the process's tally, as one transform for one
    vector (a transform) and three for two (a product). The planner's
    timings do not come here, so `modconv plan` times the backend a fresh
    `modconv mul` process runs.
    """
    global _python_butterflies
    arrays = _numpy_inputs(table, *vecs)
    if arrays is not None:
        return core(*arrays)
    out = core(*vecs)
    if _takes(table.field.p, table.size):
        _python_butterflies += (1 if len(vecs) == 1 else 3) * (table.size >> 1) * table.log2_size
    return out


def _listed(x) -> list[int]:
    """A core's result x, a list or a uint64 array, as a list: what a door returns."""
    return x if isinstance(x, list) else x.tolist()


def _div_size(x, table: TwiddleTable):
    """x / table.size mod p for a list or a uint64 array x of residues: the one 1/L scale.

    Every transform-backed core returns size times its result, so each
    product, and the inverse moddft door, divides once, here.
    """
    p, inv = table.field.p, table.inv_size
    if _is_array(x):
        from ._ntt_numpy import mulmod, quotient

        return mulmod(x, inv, quotient(inv, p), p)
    return [v * inv % p for v in x]


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
    call performs exactly (N/2)*log2(N) butterflies.
    """
    x = _ints(x)
    n = table.size
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != table size {n}")
    if direction not in ("fwd", "inv"):
        raise ValueError(f"direction must be 'fwd' or 'inv': {direction!r}")
    out = _run(table, lambda a: _moddft(a, table, direction, counters), x)
    return _listed(_div_size(out, table) if direction == "inv" else out)


def _moddft(x, table: TwiddleTable, direction: str = "fwd", counters: OpCounters | None = None):
    # moddft on trusted input, without the inverse's 1/N scale: the inverse
    # returns N times its result. A uint64 array of residues runs the numpy
    # kernels and gives one back; a list runs the pure-Python loops, the
    # reference for the numpy kernels.
    if _is_array(x):
        from . import _ntt_numpy

        vec = _ntt_numpy.moddft(x, table, direction)
    else:
        vec = [x[r] for r in _rev_indices(table.size)]
        _dit_inplace(vec, table.fwd_stages if direction == "fwd" else table.inv_stages, table.field.p)
    if counters is not None:
        counters.butterflies += (table.size >> 1) * table.log2_size
    return vec


def moddft_naive(x: list[int], table: TwiddleTable, direction: str = "fwd") -> list[int]:
    """Quadratic evaluation straight from the transform definition (oracle)."""
    x = _ints(x)
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
    most n*log2(L)/2 + L.
    """
    x = _ints(x)
    size = table.size
    z = len(x)
    if z < 1:
        raise ValueError("input must be nonempty")
    if z > n:
        raise ValueError(f"input length {z} exceeds output count {n}")
    if n > size:
        raise ValueError(f"output count {n} exceeds transform size {size}")
    return _listed(_run(table, lambda a: _tft(table, a, n, counters), x))


def _tft(table: TwiddleTable, x, n: int, counters: OpCounters | None = None):
    # tft on trusted input, dispatched as in _moddft; the list branch is
    # the pure-Python loops.
    size = table.size
    z = len(x)
    if _is_array(x):
        from . import _ntt_numpy

        out = _ntt_numpy.tft(table, x, n)
        if counters is not None:
            counters.butterflies += tft_butterflies(size, z, n)
        return out
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
    reconstructed. Divide by L (`_div_size`) to obtain u itself.
    Butterflies spent are at most n*log2(L)/2 + L.
    """
    xhat = _ints(xhat)
    size = table.size
    n = len(xhat)
    if n < 1:
        raise ValueError("spectral input must be nonempty")
    if n > size:
        raise ValueError(f"input length {n} exceeds transform size {size}")
    return _listed(_run(table, lambda a: _itft(table, a, counters), xhat))


def _itft(table: TwiddleTable, xhat, counters: OpCounters | None = None):
    # itft on trusted input, dispatched as in _moddft; the list branch is
    # the pure-Python loops.
    size = table.size
    n = len(xhat)
    if _is_array(xhat):
        from . import _ntt_numpy

        out = _ntt_numpy.itft(table, xhat)
        if counters is not None:
            counters.butterflies += itft_butterflies(size, n)
        return out
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
