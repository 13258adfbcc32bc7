"""numpy stage loops for moddft, tft and itft over primes p < 2**32.

`transform` imports this module on the first transform large enough to pay
for importing numpy, and runs smaller transforms here too once numpy is loaded
(see `transform._numpy_kernels`). Each transform here computes what its
pure-Python counterpart in `transform` computes, a few numpy operations per
stage (per level, on itft's partial path) instead of one Python statement per
butterfly. Each takes a uint64 ndarray of residues and returns a new uint64
ndarray, leaving its input unchanged; `transform._as_residues` makes and
checks that input, and `transform` converts the result back to a list for a
list caller. tft walks the stages that `transform._tft_path` returns and itft
the levels that `transform._itft_path` returns, as the pure-Python loops do.
Argument checks and `OpCounters` stay with the callers in `transform`.

No butterfly divides. A product by a twiddle or a constant factor w < p uses
Shoup's precomputed quotient w' = floor(w * 2**32 / p) (`quotient`; NTL's
MulModPrecon): for a residue x, t = x*w - ((x*w') >> 32) * p lies in [0, 2p).
Residues are below 2**32, so x*w and x*w' stay below 2**64 for every
p < 2**32. A sum a + b, a difference a - b + p and such a t all lie in
[0, 2p) and are brought into [0, p) by np.minimum(s, s - p): when s < p,
s - p wraps around to above 2**63. `stage_arrays` stores each stage's
quotients beside its twiddles.

For L = 2**k, a stage with half-size h < cols = 2**floor(k/2) pairs residues
within each row of the vector as a (L/cols, cols) matrix. `_dit` runs those
stages on the matrix's transpose, where each butterfly pairs two rows of
L/cols >= sqrt(L) contiguous residues, and the later stages in place, on
blocks of h >= cols >= sqrt(L/2). On the natural layout the short stages
would run each operation over stretches of h residues. tft runs its stages
with h < cols the same way, as whole butterflies on the rows that hold a
wanted output; the extra butterflies only write positions at n and above.
"""

from __future__ import annotations

import numpy as np

from .transform import _itft_path, _tft_path


def quotient(w, p: int):
    """Shoup's quotient floor(w * 2**32 / p) of a factor w < p: an int, or a uint64 array for one."""
    return (w << 32) // p


def stage_arrays(table):
    """table's forward and inverse stages as uint64 (twiddles, quotients) pairs, and its bit-reversal.

    Filled on the first numpy call for this table, never at construction:
    building a table must not import numpy.
    """
    arrays = table.numpy_arrays
    if arrays is None:
        p = table.field.p

        def pairs(stages):
            return [(w, quotient(w, p)) for w in (np.array(tws, dtype=np.uint64) for tws in stages)]

        # Reversing the axes of an index grid over (2,)*log2 reverses the bits.
        rev = np.arange(table.size).reshape((2,) * table.log2_size).T.ravel()
        arrays = table.numpy_arrays = (pairs(table.fwd_stages), pairs(table.inv_stages), rev)
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


def _cols(size: int) -> int:
    # 2**floor(k/2) for size 2**k: the stages with h below it run transposed.
    return 1 << (size.bit_length() - 1 >> 1)


def _halves(v, t, tmp):
    # The halves of v, shaped (blocks, 2, ...), and t and tmp shaped like one.
    lo = v[:, 0]
    k = lo.size
    return lo, v[:, 1], t[:k].reshape(lo.shape), tmp[:k].reshape(lo.shape)


def _transposed(mat, stages, butterflies, p, t, tmp) -> None:
    # Runs `butterflies` for each stage in turn on mat's columns: mat's rows
    # are independent blocks, so its transpose holds the halves of a stage
    # as whole rows of contiguous residues.
    grid = np.ascontiguousarray(mat.T)
    for tws, quo in stages:
        lo, hi, tt, tmpt = _halves(grid.reshape(-1, 2, len(tws), len(mat)), t, tmp)
        butterflies(lo, hi, tws[:, None], quo[:, None], p, tt, tmpt)
    mat[...] = grid.T


def _dit(vec, stages, p) -> None:
    # vec is a contiguous uint64 view; it arrives bit-reversed and leaves in
    # natural order. The stage with half-size h pairs the halves of each
    # block of 2h: those with h < cols run on the rows of vec as a
    # (len/cols, cols) matrix, transposed, and the rest in place.
    cols = _cols(len(vec))
    low = cols.bit_length() - 1
    t, tmp = (np.empty(len(vec) >> 1, dtype=np.uint64) for _ in range(2))
    _transposed(vec.reshape(-1, cols), stages[:low], _butterflies, p, t, tmp)
    for tws, quo in stages[low:]:
        lo, hi, tt, tmpt = _halves(vec.reshape(-1, 2, len(tws)), t, tmp)
        _butterflies(lo, hi, tws, quo, p, tt, tmpt)


def moddft(x, table, direction: str):
    """transform.moddft's loops; direction is "fwd" or "inv"."""
    fwd, inv, rev = stage_arrays(table)
    p = table.field.p
    vec = x[rev]
    if direction == "fwd":
        _dit(vec, fwd, _u64(p))
    else:
        _dit(vec, inv, _u64(p))
        vec = mulmod(vec, table.inv_size, quotient(table.inv_size, p), p)
    return vec


def tft(table, x, n: int):
    """transform.tft's values: per stage down to h = cols, full blocks at once,
    then the one partial block; the stages below cols transposed."""
    fwd = stage_arrays(table)[0]
    p = _u64(table.field.p)
    z = len(x)
    c = np.zeros(table.size, dtype=np.uint64)
    c[:z] = x
    t, tmp = (np.empty(table.size >> 1, dtype=np.uint64) for _ in range(2))
    cols = _cols(table.size)
    low = cols.bit_length() - 1
    for (tws, quo), (h, full, zz, both) in zip(reversed(fwd[low:]), _tft_path(table.size, z, n)):
        if full:
            v = c[: full * (h << 1)].reshape(full, 2, h)
            if both:
                lo, hi, d, dt = _halves(v[:, :, :both], t, tmp)
                _dif(lo, hi, tws[:both], quo[:both], p, d, dt)
            if zz > both:
                lo, hi, _, dt = _halves(v[:, :, both:zz], t, tmp)
                _mul(lo, tws[both:zz], quo[both:zz], p, hi, dt)
        base = full * (h << 1)
        if base < n and both:
            # Only the low half is wanted: fold the high half onto it.
            lo = c[base : base + both]
            _add(lo, c[base + h : base + h + both], p, lo, tmp[:both])
    # The stages with h < cols, as whole butterflies on every row of
    # (rows, cols) holding a wanted output: positions that tft leaves alone
    # are either zero there or feed only outputs at n and above.
    rows = -(-n // cols)
    _transposed(c[: rows * cols].reshape(rows, cols), fwd[:low][::-1], _dif, p, t, tmp)
    return c[:n]


def itft(table, xhat):
    """transform.itft's values: down the one partial path and back up."""
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

    for off, m, left, log in levels:
        h = m >> 1
        if left > h:
            # The low half is fully known: its inverse gives h * u_i.
            _dit(c[off : off + h], inv[:log], pu)
            tws, quo = fwd[log]
            # Cross butterflies: from (h*u_i, x_{i+h}) produce (m*x_i, v_i)
            # as m*x_i = a + d and v_i = d * tws_i / h, for d = a - m*b.
            a = c[off + left - h : off + h]
            b = c[off + left : off + m]
            k = len(a)
            d, mb, kt = s[:k], t[:k], tmp[:k]
            _mul(b, *factor(m), pu, mb, kt)
            _sub(a, mb, pu, d, kt)
            _add(a, d, pu, a, kt)
            _mul(d, *factor(pow(h, -1, p)), pu, mb, kt)
            _mul(mb, tws[left - h :], quo[left - h :], pu, b, kt)
        else:
            lo = c[off + left : off + h]
            _add(lo, c[off + left + h : off + m], pu, lo, tmp[: len(lo)])
    for off, m, left, log in reversed(levels):
        h = m >> 1
        if left > h:
            k = left - h
            tws, quo = inv[log]
            _butterflies(c[off : off + k], c[off + h : off + left], tws[:k], quo[:k], pu, t[:k], tmp[:k])
        else:
            # m*x_i = 2a - m*b = a + (a - m*b).
            a = c[off : off + left]
            mb, kt = t[:left], tmp[:left]
            _mul(c[off + h : off + h + left], *factor(m), pu, mb, kt)
            _sub(a, mb, pu, mb, kt)
            _add(a, mb, pu, a, kt)
    return c[:n]
