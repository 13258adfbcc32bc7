"""numpy stage loops for moddft, tft and itft over primes p < 2**32.

`transform` imports this module on the first transform large enough to pay
for importing numpy, and runs smaller transforms here too once numpy is loaded
(see `transform._numpy_kernels`). Each transform here computes what its
pure-Python counterpart in `transform` computes, a few numpy operations per
stage (per level, on itft's partial path) instead of one Python statement per
butterfly. Each takes a uint64 ndarray of residues and returns a new uint64
ndarray, leaving its input unchanged. No kernel divides by the size: the
inverse moddft, like itft, returns size times its result, and
`transform._div_size` scales once per product. In the library only the
transform cores in `transform` call them, on arrays that `transform._run`
made from lists with `transform._as_residues` and that are taken as they
are; a door converts the result back to a list. tft walks the stages that
`transform._tft_path` returns and itft the levels that
`transform._itft_path` returns, as the pure-Python loops do. Argument
checks and `OpCounters` stay with the callers in `transform`.

No butterfly divides. A product by a twiddle or a constant factor w < p uses
Shoup's precomputed quotient w' = floor(w * 2**32 / p) (`quotient`; NTL's
MulModPrecon): for a residue x, t = x*w - ((x*w') >> 32) * p lies in [0, 2p).
Residues are below 2**32, so x*w and x*w' stay below 2**64 for every
p < 2**32. A sum a + b, a difference a - b + p and such a t all lie in
[0, 2p) and are brought into [0, p) by np.minimum(s, s - p): when s < p,
s - p wraps around to above 2**63. `stage_arrays` stores each stage's
quotients beside its twiddles.

Layout: each numpy operation runs over stretches of at least _ROW/2
residues, not over the h residues of a short stage's half-blocks. The
stages within rows of m = min(_ROW, L) points run as Stockham passes
(`_stockham`) over all rows at once: a pass reads the two halves of each
row, multiplies by twiddles stored tiled to half a row, and writes the
sums and differences interleaved, so the rows need no bit reversal
between passes and come out in natural order. The stages on blocks longer
than a row run in place, where each half-block is at least a row long
(`_dit`). moddft gathers its input into rows in the order those in-place
stages want (`_row_gather`). itft inverts every fully known low half on
its path at once, as one such stage loop over the blocks they form, a
prefix of c (`_inverses`); its per-level steps are O(1) operations each,
so it makes O(log L) numpy calls. tft runs its stages on blocks longer
than a row in place, then every row that holds an output below n as a
Stockham DFT in bit-reversed order: up to n, a row's outputs are those of
its DIF. Each kernel sets numpy's ufunc buffer to _BUFSIZE elements while
it runs, and restores the caller's.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from .transform import _itft_path, _tft_path


# Points per row of the Stockham passes (`_stockham`): the stages within a
# row run as passes over all rows at once, and the stages on longer blocks
# in place, so every operation runs over stretches of at least _ROW / 2
# residues.
_ROW = 1 << 10
# About the most residues one call of Stockham passes takes: longer batches
# of rows go a chunk at a time, so that a pass's buffers stay in a core's
# cache. One call over all rows was up to 1.4x slower from L = 2**17 up and
# no faster below; chunks of 2**14 or 2**16 were no faster.
_CHUNK = 1 << 15
# numpy's ufunc buffer size, in elements, while a kernel runs: with the
# default 8192 an operation over rows of a few hundred residues runs about
# twice as slow as over one contiguous vector.
_BUFSIZE = 256


@contextlib.contextmanager
def _small_buffer():
    # numpy's ufunc buffer at _BUFSIZE elements while a kernel runs; the
    # caller's value is restored on the way out, also on an exception.
    old = np.setbufsize(_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def quotient(w, p: int):
    """Shoup's quotient floor(w * 2**32 / p) of a factor w < p: an int, or a uint64 array for one."""
    return (w << 32) // p


def stage_arrays(table):
    """table's forward and inverse stages as uint64 (twiddles, quotients) pairs, and moddft's row gather.

    A stage with fewer than half a row's twiddles holds them tiled to half a
    row (see `_stockham`); its first entries are the stage's own. The gather
    is None when the whole transform is one row. Filled on the first numpy
    call for this table, never at construction: building a table must not
    import numpy.
    """
    arrays = table.numpy_arrays
    if arrays is None:
        p = table.field.p
        half = min(table.size, _ROW) >> 1

        def pairs(stages):
            tiled = [np.tile(np.array(tws, dtype=np.uint64), max(1, half // len(tws))) for tws in stages]
            return [(w, quotient(w, p)) for w in tiled]

        arrays = table.numpy_arrays = (pairs(table.fwd_stages), pairs(table.inv_stages), _row_gather(table.size))
    return arrays


# The shift of Shoup's product. Scalar operands go to numpy as 0-d arrays:
# converting a Python int costs about 0.5 us on every call, as much as
# adding a few hundred residues.
_SHIFT = np.array(32, dtype=np.uint64)


def _u64(v: int):
    return np.array(v, dtype=np.uint64)


def _reduce(s, p, tmp) -> None:
    # s in [0, 2p) -> s mod p, in place.
    np.subtract(s, p, out=tmp)
    np.minimum(s, tmp, out=s)


def _add(a, b, p, out, tmp) -> None:
    # out = (a + b) mod p; out may be a or b.
    np.add(a, b, out=out)
    _reduce(out, p, tmp)


def _sub(a, b, p, out, tmp) -> None:
    # out = (a - b) mod p; out may be a or b. Where a >= b, tmp = a - b is
    # the smaller; elsewhere it wrapped and a - b + p is.
    np.subtract(a, b, out=tmp)
    np.add(tmp, p, out=out)
    np.minimum(out, tmp, out=out)


def _mul(x, w, wq, p, out, tmp) -> None:
    # out = x * w mod p, for residues x, a factor w < p and wq = quotient(w, p).
    np.multiply(x, wq, out=tmp)
    tmp >>= _SHIFT
    tmp *= p
    np.multiply(x, w, out=out)
    out -= tmp
    _reduce(out, p, tmp)


def mulmod(x, w, wq, p: int):
    """x * w mod p as a new array, for residues x, factors w < p and wq = quotient(w, p)."""
    out = np.empty_like(x)
    _mul(x, w, wq, _u64(p), out, np.empty_like(x))
    return out


def _butterflies(lo, hi, w, wq, p, t, tmp) -> None:
    # (lo, hi) <- (lo + hi*w, lo - hi*w) mod p; t and tmp are scratch of lo's shape.
    _mul(hi, w, wq, p, t, tmp)
    _sub(lo, t, p, hi, tmp)
    _add(lo, t, p, lo, tmp)


def _dif(lo, hi, w, wq, p, t, tmp) -> None:
    # (lo, hi) <- (lo + hi, (lo - hi)*w) mod p; t and tmp are scratch of lo's shape.
    _sub(lo, hi, p, t, tmp)
    _add(lo, hi, p, lo, tmp)
    _mul(t, w, wq, p, hi, tmp)


@functools.lru_cache(maxsize=64)
def _rev(size: int):
    # The bit reversal of range(size), size a power of two: reversing the
    # axes of an index grid over (2,)*log2(size) reverses the bits.
    return np.arange(size).reshape((2,) * (size.bit_length() - 1)).T.ravel()


@functools.lru_cache(maxsize=64)
def _runs(s: int):
    # A dtype whose one item is a run of 2**s residues.
    return np.dtype((np.void, 8 << s))


def _row_gather(size: int):
    # moddft's input order for size > _ROW: row r of its (size/_ROW, _ROW)
    # rows holds x[i * rows + rev(r)] for i < _ROW, so that the rows' DFTs
    # are the blocks that the in-place stages then combine.
    if size <= _ROW:
        return None
    rows = size // _ROW
    return (np.arange(_ROW) * rows + _rev(rows)[:, None]).ravel()


def _stockham(y, out, stages, p) -> None:
    # out <- the DFT of each row of y, in natural order, for rows in natural
    # order, one `_pass` per stage, the last into out; y is left unchanged
    # and must not overlap out. The rows go in equal chunks of about _CHUNK
    # residues, which share one set of scratch arrays.
    rows, size = y.shape
    passes = size.bit_length() - 1
    if not passes:
        out[...] = y
        return
    step = -(-rows // max(1, round(rows * size / _CHUNK)))
    spare = np.empty((step, size), dtype=np.uint64)
    scratch = [np.empty((step, size >> 1), dtype=np.uint64) for _ in range(3)]
    for r in range(0, rows, step):
        k = min(step, rows - r)
        src, bufs = y[r : r + k], (out[r : r + k], spare[:k])
        u, t, tmp = (a[:k] for a in scratch)
        for s in range(passes):
            dst = bufs[(passes - 1 - s) & 1]
            _pass(src, dst, s, stages, p, u, t, tmp)
            src = dst


def _pass(y, out, s: int, stages, p, u, t, tmp) -> None:
    # Stockham's stage s: reads the two halves of every row of y, whose
    # twiddles repeat with period 2**s and are stored tiled to half a row,
    # and writes the sums and differences to out interleaved in runs of 2**s
    # residues, one strided copy each.
    half = y.shape[1] >> 1
    lo, hi = y[:, :half], y[:, half:]
    if s:
        w, wq = stages[s]
        _mul(hi, w[:half], wq[:half], p, t, tmp)
        hi = t
    item = _runs(s)
    runs = out.view(item).reshape(len(out), -1, 2)
    _add(lo, hi, p, u, tmp)
    runs[:, :, 0] = u.view(item)
    _sub(lo, hi, p, u, tmp)
    runs[:, :, 1] = u.view(item)


def _dit(vec, sizes, stages, p, first: int) -> None:
    # The in-place DIT stages from half-size 2**first up, on vec holding
    # consecutive blocks of the given decreasing power-of-two sizes: the
    # stage with half-size h runs on every block longer than h, a prefix of
    # vec, pairing the halves of each sub-block of 2h.
    t, tmp = (np.empty(len(vec) >> 1, dtype=np.uint64) for _ in range(2))
    s = first
    while True:
        h = 1 << s
        end = sum(b for b in sizes if b > h)
        if not end:
            return
        v = vec[:end].reshape(-1, 2, h)
        lo, hi = v[:, 0], v[:, 1]
        k = end >> 1
        tws, quo = stages[s]
        _butterflies(lo, hi, tws[:h], quo[:h], p, t[:k].reshape(lo.shape), tmp[:k].reshape(lo.shape))
        s += 1


def _inverses(c, sizes, stages, p) -> None:
    # The inverse DFT of each of the consecutive blocks of c of the given
    # decreasing sizes, each in bit-reversed order, in place: the stages
    # within rows of m = min(_ROW, sizes[0]) points as Stockham passes over
    # all the blocks of at least m points, the longer stages in place, and
    # the blocks below m in place.
    m = min(_ROW, sizes[0])
    big = [b for b in sizes if b >= m]
    end = sum(big)
    rows = c[:end].reshape(-1, m)
    _stockham(np.take(rows, _rev(m), axis=1), rows, stages, p)
    _dit(c, big, stages, p, m.bit_length() - 1)
    small = sizes[len(big):]
    if small:
        _dit(c[end:], small, stages, p, 0)


def moddft(x, table, direction: str):
    """transform._moddft's loops; direction is "fwd" or "inv", and the
    inverse, like the core's, returns size times the inverse DFT."""
    fwd, inv, gather = stage_arrays(table)
    stages = fwd if direction == "fwd" else inv
    p = _u64(table.field.p)
    with _small_buffer():
        rows = x.reshape(1, -1) if gather is None else x[gather].reshape(-1, _ROW)
        vec = np.empty(table.size, dtype=np.uint64)
        _stockham(rows, vec.reshape(rows.shape), stages, p)
        if gather is not None:
            _dit(vec, [table.size], stages, p, _ROW.bit_length() - 1)
    return vec


def _tft_stages(c, stages, path, n: int, p) -> None:
    # tft's stages on c for n outputs, in place, per stage all full blocks
    # at once, then the one partial block.
    t, tmp = (np.empty(len(c) >> 1, dtype=np.uint64) for _ in range(2))
    for h, full, zz, both in path:
        tws, quo = stages[h.bit_length() - 1]
        if full:
            v = c[: full * (h << 1)].reshape(full, 2, h)
            if both:
                lo, hi = v[:, 0, :both], v[:, 1, :both]
                k = lo.size
                _dif(lo, hi, tws[:both], quo[:both], p, t[:k].reshape(lo.shape), tmp[:k].reshape(lo.shape))
            if zz > both:
                lo, hi = v[:, 0, both:zz], v[:, 1, both:zz]
                k = lo.size
                _mul(lo, tws[both:zz], quo[both:zz], p, hi, tmp[:k].reshape(lo.shape))
        base = full * (h << 1)
        if base < n and both:
            # Only the low half is wanted: fold the high half onto it.
            lo = c[base : base + both]
            _add(lo, c[base + h : base + h + both], p, lo, tmp[:both])


def _dif_rows(c, rows: int, m: int, stages, p) -> None:
    # The first rows rows of m points of c in place by their DIF, their DFT
    # in bit-reversed order.
    if rows:
        y = c[: rows * m].reshape(rows, m)
        dft = np.empty_like(y)
        _stockham(y, dft, stages, p)
        np.take(dft, _rev(m), axis=1, out=y)


def tft(table, x, n: int):
    """transform.tft's values: the stages on blocks longer than a row in
    place, then every row that holds an output below n as a Stockham DFT."""
    fwd = stage_arrays(table)[0]
    p = _u64(table.field.p)
    size = table.size
    z = len(x)
    c = np.zeros(size, dtype=np.uint64)
    c[:z] = x
    m = min(_ROW, size >> 1) or 1
    path = _tft_path(size, z, n)
    with _small_buffer():
        _tft_stages(c, fwd, [stage for stage in path if stage[0] >= m], n, p)
        # A row below n now holds every input its wanted outputs need, and
        # those are its DIF outputs.
        _dif_rows(c, -(-n // m), m, fwd, p)
    return c[:n]


def itft(table, xhat):
    """transform.itft's values: every fully known low half on the partial
    path inverted at once, then down the path and back up."""
    fwd, inv, _ = stage_arrays(table)
    p = table.field.p
    n = len(xhat)
    c = np.zeros(table.size, dtype=np.uint64)
    c[:n] = xhat
    s, t, tmp = (np.empty(table.size >> 1, dtype=np.uint64) for _ in range(3))
    levels = _itft_path(table.size, n)
    pu = _u64(p)

    def factor(w: int):
        # w mod p and its quotient, as numpy operands.
        w %= p
        return _u64(w), _u64(quotient(w, p))

    with _small_buffer():
        # The low halves the path inverts are consecutive blocks from 0 of
        # decreasing size, and hold only input spectral values until the
        # level that uses them, so they are inverted first, together.
        sizes = [m >> 1 for _, m, left, _ in levels if left > m >> 1]
        if sizes:
            _inverses(c, sizes, inv, pu)
        for off, m, left, log in levels:
            h = m >> 1
            if left == m:
                # A fully known block: its inverted low half is all it needs.
                continue
            if left > h:
                # The low half holds h * u_i. Cross butterflies: from
                # (h*u_i, x_{i+h}) produce (m*x_i, v_i) as m*x_i = a + d and
                # v_i = d * tws_i / h, for d = a - m*b.
                tws, quo = fwd[log]
                a = c[off + left - h : off + h]
                b = c[off + left : off + m]
                k = len(a)
                d, mb, kt = s[:k], t[:k], tmp[:k]
                _mul(b, *factor(m), pu, mb, kt)
                _sub(a, mb, pu, d, kt)
                _add(a, d, pu, a, kt)
                _mul(d, *factor(pow(h, -1, p)), pu, mb, kt)
                _mul(mb, tws[left - h : h], quo[left - h : h], pu, b, kt)
            else:
                lo = c[off + left : off + h]
                _add(lo, c[off + left + h : off + m], pu, lo, tmp[: len(lo)])
        j = len(levels)
        while j:
            off, m, left, log = levels[j - 1]
            h = m >> 1
            if left > h:
                k = left - h
                tws, quo = inv[log]
                _butterflies(c[off : off + k], c[off + h : off + left], tws[:k], quo[:k], pu, t[:k], tmp[:k])
                j -= 1
                continue
            # A run of levels that all keep to their low half shares off and
            # left. Up it, each level sets a <- 2a - m*b for its m and its
            # b = c[off+h:off+h+left], which no level of the run writes: over
            # runs = J levels from m upwards, a <- 2**J * a - 2**(J-1) * m * sum(b).
            i = j - 1
            while i and levels[i - 1][2] <= levels[i - 1][1] >> 1:
                i -= 1
            runs = j - i
            at = off + (h << np.arange(runs, dtype=np.uint64))
            total = c[at[:, None] + np.arange(left, dtype=np.uint64)].sum(axis=0)
            total %= pu
            a = c[off : off + left]
            mb, kt = t[:left], tmp[:left]
            _mul(a, *factor(1 << runs), pu, a, kt)
            _mul(total, *factor(-(m << runs - 1)), pu, mb, kt)
            _add(a, mb, pu, a, kt)
            j = i
    return c[:n]
