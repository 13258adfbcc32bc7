"""Modular DFT and truncated forward/inverse transforms, with op counting.

Vectors are plain lists of canonical residues; the field context travels with
the TwiddleTable. The full transform is natural-order in and out. Truncated
transforms expose spectral values in bit-reversed order (the order a
decimation-style butterfly network produces them in), so truncated spectra are
opaque tokens that only need to align positionally for pointwise products.

Every transform runs iterative stage loops over the table's per-stage twiddle
lists. tft walks the stages that _tft_path lays out. itft walks what
_itft_path lays out: it inverts the blocks that tile its n known values
with the loop moddft runs, then goes down its partial path to the first
fully known block and back up (`_itft_loops`, which the numpy itft also
runs on the bottom of its walk). Both backends and the butterfly counts
read those walks, which are cached per shape. The Python loops take two stages
per pass where both run whole (radix 4), so that a pass reads and writes
each element once for the two, through index lists (`_quarters`) rather
than index arithmetic: moddft's loop (`_dit_inplace`) pairs all its
stages, with the first stage, whose twiddles are all 1, alone at odd log2
L, and tft pairs two stages on the blocks where both run whole, from the
first whole stage down, taking that stage alone where an odd count of
stages is left; its truncated blocks, twiddle-only copies and folds run
radix 2. A pass gives the values and counts of the two stages it runs.
The loops exist twice:
in pure Python here, the reference, and in numpy (`_ntt_numpy`). Both serve
every prime a FourierPrime holds (p < 2**62): the numpy kernels multiply in
one uint64 product below the word bound _WORD = 2**32, that bound's one
definition, and in 32-bit limbs above it. The numpy kernels take a call on
`vectors` vectors of L points where vectors * L reaches _NUMPY_CROSSOVER
(2**9), where they are the faster loops at either width: a door's one
transform from 2**9 points, and a product, whose forward call runs both
inputs as one stack, from 2**8. They take it once numpy is loaded or the
process should load it (`_numpy_kernels`): once the larger of the
process's Python-loop butterflies where the kernels take the call and one
transform's own butterflies reaches _BUDGET, one 2**15-point transform's
worth, about what the import costs. numpy must be importable.

The moddft and tft cores take a stack of vectors and transform each, so
that a product makes one forward call on both its inputs (split on its
four halves) and one inverse call: a 2-D uint64 array, or a sequence of
uint64 arrays, runs the numpy kernels in one call; a sequence of lists
runs the Python loops row by row. The doors hand them a stack of one.

Each public transform (moddft, tft, itft) is a door over a private core
(_moddft, _tft, _itft) with the same positional arguments, a stack in place
of the vector for _moddft and _tft. A door reads its
vector as a list of ints (`_ints`: an int-like through `operator.index`, a
non-integer or an ndarray raises ValueError), checks its arguments by one
of two rules stated once here, runs the core through `_run` and returns a
list. A full transform (`_full_input`) takes exactly L values and a
direction of "fwd" or "inv"; a truncated one (`_truncated`) takes z
inputs to n outputs with 1 <= z <= n <= L, and itft is the case z = n.
Every refusal is a ValueError. moddft_naive and the planner's kernel calls
check by the same two rules, and the butterfly counts by the truncated one
at a power-of-two L (`_counted`). `_run` is the one
place that decides the backend and keeps the process's tally: a core
trusts what it is handed and dispatches on its type, a uint64 array of
residues runs the numpy kernels and gives one back, and a list runs the
Python loops. The engines in
`convolve` call the cores through the same `_run`, so a product converts its
inputs once and stays in arrays. Both paths return the same residues and
count the same butterflies.

One arithmetic layer for arrays. `_ntt_numpy` holds all uint64 arithmetic:
the stage loops and a few named primitives (`residues`, the one crossing
into numpy, which reduces a list's ints outside [0, p); `pointwise`;
`scale`; `pair`; `pad`; `mulmod`). This module, `convolve` and `poly` keep
their list branches and reach the primitives on arrays through one lookup,
`_array_kernels`, and no module but `_ntt_numpy` imports numpy. numpy is
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
    construction, apart from numpy_arrays, which the numpy kernels fill
    with values derived from the stages (the stage arrays once, itft's
    cross twiddles per stage on first use); safe to share across threads.
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
        log2 = size.bit_length() - 1
        p = field.p
        # Raises ValueError unless size is a power of two, and
        # UnsupportedSizeError beyond the field's 2-adicity.
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
        # uint64 copies of the stages for the numpy kernels, and slots for
        # itft's cross twiddles, made by their first call on this table so
        # that building a table never imports numpy.
        self.numpy_arrays = None


# Most tables, and lists of each kind the Python loops index by, kept at
# once. Beyond what callers hold, get_table's LRU is the only thing that
# keeps a table alive, and with it every numpy array made for it
# (`TwiddleTable.numpy_arrays`), so this also bounds the live tables with
# their arrays. A 2**20 table is ~50 MB; the index lists of the Python
# loops' passes at one size (`_points`, `_quarters`) take about twice its
# stage lists (6.6 against 3.0 MB at 2**16), and only a size the loops run
# holds them.
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


# The fewest points, vectors times size, of a call the numpy kernels take.
# From 2**9 up a door's one transform beats the Python loops once numpy is
# loaded, lists in and out (itft at n = L by 1.3x, moddft by 4x), while at
# 2**8 itft at n = L still loses. A product at L = 2**8 (two vectors, its
# forward pair stacked) takes 0.33-0.39x the Python loops' time on fft_pad,
# 0.38-0.45x on split and 0.59-0.90x on tft, and at 2**7 its tft loses
# (1.03-1.90x) where fft_pad and split would still win (0.66-0.85x); n =
# L/2 + 1, 7L/8 and L over 998244353 and a 62-bit prime
# (`tools/kernel_times.py --group products`, 2-core x86-64 host).
_NUMPY_CROSSOVER = 1 << 9
# Butterflies of one 2**15-point transform, about what importing numpy
# costs: once the Python loops have spent that much where the numpy kernels
# could have run, or one transform would by itself, the process pays for the
# import (the ski-rental rule, never worse than twice the better of never
# and at once).
_BUDGET = (1 << 14) * 15
# The process's butterflies so far in Python-loop transforms of calls the
# numpy kernels take, as the doors and poly_mul run them; only
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


# The word bound of the numpy kernels, defined here once: over p < _WORD a
# product of two residues fits in uint64, so they multiply in one step, and
# over larger p in limbs of log2(_WORD) bits. `_ntt_numpy` imports it.
_WORD = 1 << 32


def _takes(size: int, vectors: int) -> bool:
    # Whether the numpy kernels take a call on `vectors` vectors of size
    # points at all: from _NUMPY_CROSSOVER points in all, over every prime a
    # FourierPrime holds. A door's one transform thus goes from 2**9 points,
    # a product, whose forward call runs both inputs as one stack, from 2**8.
    return vectors * size >= _NUMPY_CROSSOVER


def _numpy_kernels(size: int, vectors: int):
    """The numpy kernels module if they should run a call on `vectors` vectors of size points, else None.

    They should where they take the call (`_takes`) and the process has
    loaded numpy or should load it: once the larger of its earlier
    Python-loop butterflies and one transform's own reaches _BUDGET. numpy
    must be importable. A process's first product thus loads numpy only
    from 2**15 points on.
    """
    if not _takes(size, vectors):
        return None
    if sys.modules.get("numpy") is None and max(_python_butterflies, (size >> 1) * (size.bit_length() - 1)) < _BUDGET:
        return None
    return _load_numpy_kernels()


def _loaded_kernels():
    """The numpy kernels module if the process has already loaded numpy, else None; this never imports numpy.

    `convolve.lin_conv_def` asks it: the defining sum runs in numpy only
    where numpy is already paid for.
    """
    return _load_numpy_kernels() if sys.modules.get("numpy") is not None else None


def _array_kernels(*xs):
    """The numpy kernels module if any x is a numpy ndarray, else None: the one way to the array primitives.

    Only a process that has loaded numpy holds an ndarray, so this never
    imports numpy. The list branches stay with the callers; on arrays they
    call the kernels' primitives (`residues`, `pointwise`, `scale`, `pair`,
    `pad`, `mulmod`), which hold all uint64 arithmetic.
    """
    np = sys.modules.get("numpy")
    if np is not None:
        # A loop, not any() over a generator: every core's list call asks,
        # and the generator took 0.1 of the 1.4 us of a moddft at L = 4.
        for x in xs:
            if isinstance(x, np.ndarray):
                return _load_numpy_kernels()
    return None


def _ints(x) -> list[int]:
    """A door's vector x as a list of Python ints, by DensePoly's rule.

    An int-like element (a bool, a numpy integer) is read through
    `operator.index`; anything else, and an ndarray x, raises ValueError.
    Ints outside [0, p) are kept, for the arithmetic to reduce.
    """
    if _array_kernels(x):
        raise ValueError("transforms and engines take lists, not ndarrays")
    try:
        return list(map(operator.index, x))
    except TypeError:
        raise ValueError("vector elements must be integers") from None


def _full_input(x, table: TwiddleTable, direction: str) -> list[int]:
    """x as exactly table.size ints (`_ints`) and direction as "fwd" or "inv": the full transform's one argument rule.

    Returns the list; anything else raises ValueError.
    """
    x = _ints(x)
    if len(x) != table.size or direction not in ("fwd", "inv"):
        raise ValueError(f"a full transform takes {table.size} values and 'fwd' or 'inv': got {len(x)} and {direction!r}")
    return x


def _truncated(z: int, n: int, size: int) -> None:
    """1 <= z <= n <= size, for z inputs to n outputs at size points: the truncated transforms' one shape rule.

    tft's z is its input's length; itft is the case z = n. Anything else
    raises ValueError.
    """
    if not 1 <= z <= n <= size:
        raise ValueError(f"a truncated transform needs 1 <= z <= n <= L: got z={z}, n={n}, L={size}")


def _counted(z: int, n: int, size: int) -> None:
    """`_truncated`'s shape at a size that is a power of two, as every table's is: the butterfly counts' rule.

    The doors need no size check, since a table's size is a power of two.
    Anything else raises ValueError.
    """
    _truncated(z, n, size)
    if size & (size - 1):
        raise ValueError(f"the butterfly counts take a power-of-two L: got {size}")


def _numpy_inputs(table: TwiddleTable, *vecs, vectors: int | None = None):
    """The int vectors vecs as uint64 arrays (`_ntt_numpy.residues`) where table's transforms run in numpy, else None.

    The call is on `vectors` vectors, len(vecs) unless given: the planner
    times one transform by the rule of a product's two. Asking
    `_numpy_kernels` imports numpy where its rule says the process should
    pay for it, so the first product that does converts like every later
    one. It counts nothing: the planner times its kernels on these.
    """
    kernels = _numpy_kernels(table.size, vectors or len(vecs))
    return kernels and [kernels.residues(v, table.field.p) for v in vecs]


def _run(table: TwiddleTable, core, *vecs):
    """core(*vecs) on the int vectors vecs as `_numpy_inputs` makes them: the one crossing, and the one tally.

    The core gets uint64 arrays where table's transforms run in numpy, else
    vecs as they are. A run on lists where the numpy kernels take the call
    (`_takes`) adds to the process's tally, as one transform for one
    vector (a transform) and three for two (a product). The planner's
    timings do not come here, so `modconv plan` times the backend a fresh
    `modconv mul` process runs.
    """
    global _python_butterflies
    arrays = _numpy_inputs(table, *vecs)
    if arrays is not None:
        return core(*arrays)
    out = core(*vecs)
    if _takes(table.size, len(vecs)):
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
    kernels = _array_kernels(x)
    return kernels.scale(x, inv, p) if kernels else [v * inv % p for v in x]


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


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _points(n: int) -> tuple[int, ...]:
    # 0 .. n-1 once per n, which every _quarters tuple at n slices.
    return tuple(range(n))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _quarters(n: int, h: int) -> tuple[tuple[int, ...], ...]:
    # The indices a radix-4 pass over n points reads, in blocks of 4h from
    # 0: butterfly j of the block at base reads base + j + k*h from the
    # k-th of the four, block after block. A pass zips them with its
    # twiddles, so one loop runs every pass without index arithmetic, and a
    # prefix of the blocks (tft's) by shorter twiddle lists. Each is built
    # with min(h, n/4h) slices of _points(n).
    idx = _points(n)
    q = h << 2
    quarters = []
    for k in range(0, q, h):
        if h * q <= n:
            col = [0] * (n >> 2)
            for j in range(h):
                col[j::h] = idx[k + j :: q]
        else:
            col = []
            for base in range(k, n, q):
                col += idx[base : base + h]
        quarters.append(tuple(col))
    return tuple(quarters)


def _dit_inplace(vec: list[int], stages: list[list[int]], p: int) -> None:
    # vec arrives bit-reversed; leaves in natural order. The stages run in
    # pairs, one radix-4 pass each, which reads and writes each element
    # once: stage s (half-size h) joins blocks of h into 2h and stage s+1
    # those into 4h. At odd log2 n the first stage, whose twiddles are all
    # 1, runs alone.
    n = len(vec)
    s = len(stages) & 1
    if s:
        for lo in range(0, n, 2):
            u = vec[lo]
            t = vec[lo + 1]
            vec[lo] = (u + t) % p
            vec[lo + 1] = (u - t) % p
    h = 1 << s
    while h < n:
        i0s, i1s, i2s, i3s = _quarters(n, h)
        # Butterfly j of a block takes twiddle j of stage s and twiddles j
        # and j + h of stage s+1, the same in every block.
        w1s, w2s, w3s = stages[s], stages[s + 1], stages[s + 1][h:]
        blocks = n // (h << 2)
        if blocks > 1:
            w1s, w2s, w3s = w1s * blocks, w2s[:h] * blocks, w3s * blocks
        for i0, i1, i2, i3, w1, w2, w3 in zip(i0s, i1s, i2s, i3s, w1s, w2s, w3s):
            t = vec[i1] * w1 % p
            u = vec[i0]
            a0 = u + t
            a1 = u - t
            t = vec[i3] * w1 % p
            u = vec[i2]
            t2 = (u + t) * w2 % p
            t3 = (u - t) * w3 % p
            vec[i0] = (a0 + t2) % p
            vec[i2] = (a0 - t2) % p
            vec[i1] = (a1 + t3) % p
            vec[i3] = (a1 - t3) % p
        h <<= 2
        s += 2


def moddft(
    x: list[int],
    table: TwiddleTable,
    direction: str = "fwd",
    counters: OpCounters | None = None,
) -> list[int]:
    """Full modular DFT, natural order in and out.

    Forward: y_k = sum_j x_j * w**(j*k). Inverse applies the reversed twiddles
    and the 1/N scale, so moddft(moddft(x, t), t, "inv") == x exactly. Each
    call performs exactly (N/2)*log2(N) butterflies. x must hold N values
    and direction be "fwd" or "inv" (`_full_input`).
    """
    x = _full_input(x, table, direction)
    out = _run(table, lambda a: _moddft((a,), table, direction, counters)[0], x)
    return _listed(_div_size(out, table) if direction == "inv" else out)


def _moddft(x, table: TwiddleTable, direction: str = "fwd", counters: OpCounters | None = None):
    # moddft of each row of the stack x on trusted input, without the
    # inverse's 1/N scale: the inverse returns N times its result. A stack
    # of uint64 arrays of residues (or a 2-D one) runs the numpy kernels in
    # one call and gives a 2-D array back; a stack of lists runs the
    # pure-Python loops row by row, the reference for the numpy kernels, and
    # gives a list of lists. Each row counts as one transform.
    kernels = _array_kernels(x[0])
    if kernels:
        out = kernels.moddft(x, table, direction)
    else:
        stages = table.fwd_stages if direction == "fwd" else table.inv_stages
        rev, p = _rev_indices(table.size), table.field.p
        out = []
        for row in x:
            vec = [row[r] for r in rev]
            _dit_inplace(vec, stages, p)
            out.append(vec)
    if counters is not None:
        counters.butterflies += len(x) * (table.size >> 1) * table.log2_size
    return out


def moddft_naive(x: list[int], table: TwiddleTable, direction: str = "fwd") -> list[int]:
    """Quadratic evaluation straight from the transform definition (oracle); moddft's arguments."""
    x = _full_input(x, table, direction)
    n = table.size
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
    the table size L. Requires 1 <= z <= n <= L (`_truncated`). Butterflies
    spent are at most n*log2(L)/2 + L.
    """
    x = _ints(x)
    _truncated(len(x), n, table.size)
    return _listed(_run(table, lambda a: _tft(table, (a,), n, counters)[0], x))


def _tft(table: TwiddleTable, xs, n: int, counters: OpCounters | None = None):
    # tft of each input of the stack xs, which may differ in length, on
    # trusted input, dispatched as in _moddft: arrays run the numpy kernels
    # in one call and give a (len(xs), n) array back; lists run the
    # pure-Python loops input by input. Each input counts its own
    # butterflies.
    kernels = _array_kernels(xs[0])
    if kernels:
        out = kernels.tft(table, xs, n)
        if counters is not None:
            counters.butterflies += sum(tft_butterflies(table.size, len(x), n) for x in xs)
        return out
    return [_tft_loops(table, x, n, counters) for x in xs]


def _tft_loops(table: TwiddleTable, x: list[int], n: int, counters: OpCounters | None) -> list[int]:
    # tft's pure-Python loops on one input, the reference, counting inline.
    # Once a stage runs whole (both = h: every block starts with both
    # halves live), so does every stage below it. From there the stages go
    # in pairs, the first alone where an odd count is left, so that the
    # last stage, whose blocks are 2 points, is paired. A pair runs one
    # radix-4 pass, as in _dit_inplace, over its first `start` blocks:
    # those whose two sub-blocks hold a wanted output in their high half,
    # so that the second stage runs them whole too. The pair's other
    # blocks, and every stage above, run radix 2: truncated blocks with
    # their twiddle-only copies, and the last block's fold.
    size = table.size
    p = table.field.p
    c = list(x)
    c += [0] * (size - len(x))
    used = 0
    path = _tft_path(size, len(x), n)
    # The leading blocks of the next stage that a radix-4 pass has run.
    first = 0
    for tws, (h, full, zz, both) in zip(reversed(table.fwd_stages), path):
        start, first = first, 0
        if both == h and not h.bit_length() & 1:
            # Whole, with an even count of stages left (log2(h) + 1). The
            # next stage has half-size q = h/2; as n >= z = 2h, start >= 1.
            q, inner_full, _, _ = path[size.bit_length() - h.bit_length()]
            start = min(full, inner_full >> 1)
            first = start << 1
            i0s, i1s, i2s, i3s = _quarters(size, q)
            # Block by block: twiddles j and j + q of this stage, j of the next.
            w1s, w3s, w2s = tws, tws[q:], table.fwd_stages[q.bit_length() - 1]
            if start > 1:
                w1s, w3s, w2s = tws[:q] * start, w3s * start, w2s * start
            for i0, i1, i2, i3, w1, w3, w2 in zip(i0s, i1s, i2s, i3s, w1s, w3s, w2s):
                a = c[i0]
                b = c[i2]
                s0 = a + b
                d0 = (a - b) * w1 % p
                a = c[i1]
                b = c[i3]
                s1 = a + b
                d1 = (a - b) * w3 % p
                c[i0] = (s0 + s1) % p
                c[i1] = (s0 - s1) * w2 % p
                c[i2] = (d0 + d1) % p
                c[i3] = (d0 - d1) * w2 % p
            used += start * (h << 1)
        step = h << 1
        for base in range(start * step, full * step, step):
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
        used += (full - start) * zz
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


# Each walk is cached per shape, as a tuple, which every caller shares: the
# loops ask for it on every call, a few hundred ns at L = 4, as much as a
# stage.
@functools.lru_cache(maxsize=256)
def _tft_path(size: int, z: int, n: int) -> tuple[tuple[int, int, int, int], ...]:
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
    return tuple(stages)


def tft_butterflies(L: int, z: int, n: int) -> int:
    """Butterflies tft spends on z inputs and n outputs at size L, without running it.

    Walks tft's stages (_tft_path): at half-size h, each of the blocks of 2h
    with a wanted high half spends min(z, h), and a last block with only its
    low half wanted spends the z - min(z, h) folds; O(log L). The shape
    must be one tft takes, 1 <= z <= n <= L, at an L a table has
    (`_counted`), else ValueError.
    """
    _counted(z, n, L)
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
    reconstructed. Divide by L (`_div_size`) to obtain u itself. Requires
    1 <= n <= L (`_truncated`, z = n). Butterflies spent are at most
    n*log2(L)/2 + L.
    """
    xhat = _ints(xhat)
    _truncated(len(xhat), len(xhat), table.size)
    return _listed(_run(table, lambda a: _itft(table, a, counters), xhat))


def _itft(table: TwiddleTable, xhat, counters: OpCounters | None = None):
    # itft on trusted input, dispatched as in _moddft; the list branch is
    # the pure-Python loops.
    size = table.size
    n = len(xhat)
    kernels = _array_kernels(xhat)
    if kernels:
        out = kernels.itft(table, xhat)
        if counters is not None:
            counters.butterflies += itft_butterflies(size, n)
        return out
    levels, blocks = _itft_path(size, n)
    c = list(xhat)
    c.extend([0] * (size - n))
    used = _itft_loops(table, c, levels, blocks)
    if counters is not None:
        counters.butterflies += used
    del c[n:]
    return c


def _itft_loops(table: TwiddleTable, c: list[int], levels, blocks) -> int:
    # itft's pure-Python loops, the reference, in place on the list c, for a
    # walk as `_itft_path` gives it, its offsets taken into c; returns the
    # butterflies spent. `_ntt_numpy.itft` runs the bottom of its path here,
    # on the sub-block under a level of its walk.
    p = table.field.p
    inv = table.inv_stages
    # The blocks tile c's spectral values from 0, and each holds only those
    # until the level that uses it, so all are inverted first: block b
    # gives b * u_i.
    used = 0
    start = 0
    for b in blocks:
        log = b.bit_length() - 1
        if log:
            # A block of one point, the last at odd n, is its own inverse;
            # one of all of c, at n = L, is inverted where it is.
            block = c[start : start + b] if b < len(c) else c
            _dit_inplace(block, inv[:log], p)
            if block is not c:
                c[start : start + b] = block
            used += (b >> 1) * log
        start += b
    # Down the path, c[off:off+m] holds spectral values for i < left and
    # time values above; the way back up makes it m * u.
    for off, m, left, log in levels:
        h = m >> 1
        if left > h:
            # The low half holds h * u_i.
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
            used += m - left
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
    return used


# Cached per shape, as _tft_path is; every caller shares the two lists and
# only reads them.
@functools.lru_cache(maxsize=256)
def _itft_path(size: int, n: int) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    # itft's walk for n of size values: its partial path and the blocks it
    # inverts whole. The path, top down, gives per level the block
    # c[off:off+m], the count `left` of its leading spectral values and
    # log2(m/2); where more than m/2 are known it continues in the high
    # half, else in the low. It stops at the first fully known block
    # (left == m; at the top when n = L), which it leaves out: the levels
    # below would invert its halves and join them with one butterfly stage
    # each, which is the block's inverse DFT. The blocks, each level's
    # fully known low half and then that block, lie consecutively from 0 in
    # decreasing size.
    levels, blocks = [], []
    off, m, left = 0, size, n
    while left < m:
        h = m >> 1
        levels.append((off, m, left, h.bit_length() - 1))
        if left > h:
            blocks.append(h)
            off += h
            left -= h
        m = h
    blocks.append(m)
    return levels, blocks


def itft_butterflies(L: int, n: int) -> int:
    """Butterflies itft spends recovering n values at size L, without running it.

    Walks itft's path (_itft_path): each level costs m/2, and each block
    of b points inverted whole (b/2)*log2(b); O(log L). The shape must be
    one itft takes, 1 <= n <= L, at an L a table has (`_counted`), else
    ValueError.
    """
    _counted(n, n, L)
    levels, blocks = _itft_path(L, n)
    return sum(m >> 1 for _, m, _, _ in levels) + sum((b >> 1) * (b.bit_length() - 1) for b in blocks)
