"""numpy stage loops for moddft, tft and itft over primes p < 2**32.

Only `transform` imports this module, on the first transform large enough to
pay for importing numpy (see `transform._numpy_kernels`). Each function here
runs the same loops as its pure-Python counterpart in `transform`, one numpy
operation per stage (per level, on itft's partial path) instead of one Python
statement per butterfly, and returns the same list. itft walks the levels
that `transform._itft_path` returns, as the pure-Python itft does. Argument
checks and `OpCounters` stay with the callers in `transform`.

Residues are below p < 2**32, so every product of two residues fits in
uint64 and is reduced with `% p`; a difference a - b is formed as a + (p - b)
so that it never wraps. Inputs must be canonical residues, as everywhere in
`transform`.
"""

from __future__ import annotations

import numpy as np

from .transform import _itft_path


def _arrays(table):
    # Filled on the first numpy call for this table, never at construction:
    # building a table must not import numpy.
    arrays = table.numpy_arrays
    if arrays is None:
        fwd = [np.array(tws, dtype=np.uint64) for tws in table.fwd_stages]
        inv = [np.array(tws, dtype=np.uint64) for tws in table.inv_stages]
        # Reversing the axes of an index grid over (2,)*log2 reverses the bits.
        rev = np.arange(table.size).reshape((2,) * table.log2_size).T.ravel()
        arrays = table.numpy_arrays = (fwd, inv, rev)
    return arrays


def _dit(vec, stages, p: int) -> None:
    # vec is a contiguous uint64 view; it arrives bit-reversed and leaves in
    # natural order. The stage with half-size h pairs the halves of each
    # block of 2h.
    h = 1
    for tws in stages:
        v = vec.reshape(-1, 2, h)
        lo = v[:, 0]
        hi = v[:, 1]
        t = hi * tws
        t %= p
        np.subtract(p, t, out=hi)
        hi += lo
        hi %= p
        lo += t
        lo %= p
        h <<= 1


def moddft(x: list[int], table, direction: str) -> list[int]:
    """transform.moddft's loops; direction is "fwd" or "inv"."""
    fwd, inv, rev = _arrays(table)
    p = table.field.p
    vec = np.fromiter(x, dtype=np.uint64, count=table.size)[rev]
    if direction == "fwd":
        _dit(vec, fwd, p)
    else:
        _dit(vec, inv, p)
        vec *= table.inv_size
        vec %= p
    return vec.tolist()


def tft(table, x: list[int], n: int) -> list[int]:
    """transform.tft's loops: full blocks at once, then the one partial block."""
    fwd = _arrays(table)[0]
    p = table.field.p
    z = len(x)
    c = np.zeros(table.size, dtype=np.uint64)
    c[:z] = np.fromiter(x, dtype=np.uint64, count=z)
    h = table.size
    for tws in reversed(fwd):
        h >>= 1
        zz = min(z, h)
        both = z - zz
        # Blocks of 2h starting below n; all but possibly the last have a
        # wanted high half.
        full = (n + h - 1) // (h << 1)
        if full:
            v = c[: full * (h << 1)].reshape(full, 2, h)
            if both:
                a = v[:, 0, :both]
                b = v[:, 1, :both]
                d = p - b
                d += a
                d %= p
                d *= tws[:both]
                d %= p
                a += b
                a %= p
                b[...] = d
            if zz > both:
                t = v[:, 0, both:zz] * tws[both:zz]
                t %= p
                v[:, 1, both:zz] = t
        base = full * (h << 1)
        if base < n and both:
            # Only the low half is wanted: fold the high half onto it.
            lo = c[base : base + both]
            lo += c[base + h : base + h + both]
            lo %= p
        z = zz
    return c[:n].tolist()


def itft(table, xhat: list[int]) -> list[int]:
    """transform.itft's loops: down the one partial path and back up."""
    fwd, inv, _ = _arrays(table)
    p = table.field.p
    n = len(xhat)
    c = np.zeros(table.size, dtype=np.uint64)
    c[:n] = np.fromiter(xhat, dtype=np.uint64, count=n)
    levels = _itft_path(table.size, n)
    for off, m, left, log in levels:
        h = m >> 1
        if left > h:
            # The low half is fully known: its inverse gives h * u_i.
            _dit(c[off : off + h], inv[:log], p)
            inv_h = pow(h, -1, p)
            # Cross butterflies: from (h*u_i, x_{i+h}) produce (m*x_i, v_i).
            a = c[off + left - h : off + h]
            b = c[off + left : off + m]
            new_hi = a * inv_h
            new_hi %= p
            new_hi += 2 * p
            new_hi -= b
            new_hi -= b
            new_hi %= p
            new_hi *= fwd[log][left - h :]
            new_hi %= p
            mb = b * m
            mb %= p
            a *= 2
            a += p
            a -= mb
            a %= p
            b[...] = new_hi
        else:
            lo = c[off + left : off + h]
            lo += c[off + left + h : off + m]
            lo %= p
    for off, m, left, log in reversed(levels):
        h = m >> 1
        if left > h:
            a = c[off : off + left - h]
            b = c[off + h : off + left]
            t = b * inv[log][: left - h]
            t %= p
            np.subtract(p, t, out=b)
            b += a
            b %= p
            a += t
            a %= p
        else:
            a = c[off : off + left]
            mb = c[off + h : off + h + left] * m
            mb %= p
            a *= 2
            a += p
            a -= mb
            a %= p
    return c[:n].tolist()
