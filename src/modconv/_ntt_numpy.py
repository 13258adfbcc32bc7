"""All uint64 arithmetic of modconv: numpy stage loops for moddft, tft and itft, and the array primitives, over every p < 2**62.

This is the only module that imports numpy. FourierPrime.from_modulus
accepts only p < 2**62, and the kernels take every such p. Besides the
transforms it holds the named primitives the other modules run on arrays,
each beside its list branch there: `residues` (the one crossing into numpy,
and the array check), `pointwise`, `scale` (Shoup's product by one int
constant), `pair` (the split's residue pair), `pad`, `twist` (the
negacyclic twist, by the last stage of the 2L table) and `schoolbook`
(the defining sum of a linear product, beside
`poly.schoolbook_raw`, the pure-Python oracle it is checked against). They
reach this module through `transform._array_kernels` (on an ndarray),
`transform._numpy_kernels` (on the size rule) or, for `schoolbook`,
`transform._loaded_kernels` (once numpy is loaded).

`transform` imports this module on the first transform large enough to pay
for importing numpy, and runs smaller calls here too once numpy is loaded:
a call on `vectors` vectors of L points from vectors * L = 2**9 up (see
`transform._numpy_kernels`). Each transform here computes what its
pure-Python counterpart in `transform` computes, a few numpy operations per
stage (per level, on itft's partial path) instead of one Python statement per
butterfly. moddft and tft take a stack of inputs, a product's forward pair
(split's four halves) or its inverses in one call, and return one 2-D array;
itft takes one input. Each takes uint64 ndarrays of residues and returns a
new uint64 ndarray, leaving its input unchanged. No kernel divides by the size: the
inverse moddft, like itft, returns size times its result, and
`transform._div_size` scales once per product, by `scale`. In the library
only the transform cores in `transform` call them, on arrays that
`transform._run` made from lists with `residues` and that are taken as they
are; a door converts the result back to a list. tft walks the stages that
`transform._tft_path` returns and itft the blocks and levels that
`transform._itft_path` returns, as the pure-Python loops do, and itft runs
the bottom of that walk on those loops. Argument checks and `OpCounters`
stay with the callers in `transform`.

No butterfly divides. A product by a twiddle or a constant factor w < p uses
Shoup's precomputed quotient (NTL's MulModPrecon; Harvey, Faster
arithmetic for number-theoretic transforms, 2014). The arithmetic is chosen
once per kernel call from p (`_arith`), and the stage loops are one copy
over all of them:
- `_Word`, for p below the word bound `transform._WORD` = 2**32: w' =
  floor(w * 2**32 / p), and for a residue x, t = x*w - ((x*w') >> 32) * p
  lies in [0, 2p). Residues are below 2**32, so x*w and x*w' stay below
  2**64.
- `_Lazy`, for p below 2**30: `_Word` with lazy stage loops (below).
- `_Wide`, for p from 2**32 up to 2**62: w' = floor(w * 2**64 / p), stored
  as two 32-bit limbs, and the high word of x*w' comes from three limb
  products, at most 2 short, so that t, computed in uint64 with wrap-around,
  lies in [0, 4p), below 2**64, for any x < 2**64; one minimum step takes it
  into [0, 2p). Its quotients come from a float estimate and a correction
  (`_Wide.quotient`), and its pointwise product is Shoup's product by one
  operand with that operand's quotients. Its stage loops are lazy too.
A sum a + b, a difference a - b + p and a t in [0, 2p) are brought into
[0, p) by np.minimum(s, s - p): when s < p, s - p wraps around to above
2**63, as 2p < 2**63. `stage_arrays` stores each stage's quotients beside
its twiddles.

Below _WORD / 4 = 2**30, and from _WORD up, the stage loops are lazy
(`_Lazy` and `_Wide`, Harvey's butterfly in the same paper): residues stay
in [0, 4p) between the stages
of `_stockham` and `_dit`, and in [0, 2p) between tft's in-place stages.
A butterfly brings its left input into [0, 2p), takes hi*w by Shoup's
product without its last reduce, in [0, 2p), and writes lo + t and
lo - t + 2p: 10 numpy operations instead of 13 (`_Wide`: 19 instead of
23). `_Word`'s product needs x*w' < 2**64, so an input x below 2**32: 4p <=
2**32 is the bound; `_Wide`'s takes any x below 2**64, and 4p < 2**64. Each
stage loop settles its output into [0, p) with two subtract-and-minimum
steps (`_Lazy.settle`), so itft's steps between levels, `pointwise`,
`scale` and every caller see residues. Only Stockham passes whose rows
all go on to in-place stages (`_dit`) hand them on unsettled, for `_dit`
to settle: in `_dft`, where the smallest block is longer than a row (a
moddft past one row, itft's inverted blocks when all are); that took
0.96-0.98x the time of settling both.
From 2**30 to _WORD, `_Word` reduces every value at every stage.

The defining sum (`schoolbook`) runs on BLAS instead: it splits residues
into limbs of 16 bits (below _WORD) or 21 bits (`_Wide`), convolves them
as float64 arrays with `np.convolve`, in pieces of at most 4096 values of
each operand, and of the shorter one short enough that every value is an
integer below 2**53 and so exact (`_exact_piece`), and sums the limbs'
diagonals mod p (`from_limbs`). Short sides against long ones run on
rows of Shoup products (`_rows`), added up unreduced between remainders,
in the same loop over pieces. Its docstring has the exactness argument,
the rule between the two and the timings; the arithmetic's `edges`
states the shapes on both sides of each of its switches, which `verify`
and the tests read.

Layout: each numpy operation runs over stretches of at least _ROW/2
residues, not over the h residues of a short stage's half-blocks. One
step, `_dft`, transforms whole blocks: the stages within rows of m =
min(_ROW, b) points, b the smallest block, run as Stockham passes
(`_stockham`) over all rows at once: a pass reads the two halves of each
row, multiplies by twiddles stored tiled to half a row, and writes the
sums and differences interleaved, so the rows need no bit reversal
between passes and come out in natural order. The stages on blocks longer
than a row then run in place, where each half-block is at least a row
long (`_dit`). moddft, tft's rows and itft's inverted blocks all run
through it. moddft gathers its input into rows in the order those
in-place stages want (`_row_gather`). tft runs its stages on blocks
longer than a row in place, then every row that holds an output below n
as a one-row `_dft` in bit-reversed order: up to n, a row's outputs are
those of its DIF.

itft (`_itft_plan`) cuts the walk of `transform._itft_path` at the first
level of at most _TAIL = 64 points that crosses into its high half. The
sub-block under the cut, with every level and block below it, runs on the
Python loops (`transform._itft_loops`): one `tolist`, one write-back. The
blocks above the cut, which tile the known values from 0, are inverted at
once (`_inverses`): those of at least _FLOOR = 16 points as one `_dft`,
in rows of the smallest of them, and a last block below _FLOOR in place.
Each level above the cut is one step of O(1) operations down and one up,
and a run of levels that keep to their low half is one step up, its high
halves summed mod p by the arithmetic's `column_sum`; a path that ends in
such a run, as at n = L/2 + 1, has no cut. So itft makes O(log L) numpy
calls, none per level below the cut. A level's cross butterflies multiply
by the stage's forward twiddles over its half-size (`_cross_twiddles`),
kept on the table beside its stage arrays (`stage_arrays`): no cache of
this module holds a table, so a table's arrays go with it when
`transform.get_table` lets it go. Each switch, on the shapes at
2**8..2**12 whose walk it changes (itft's time over its time at the value
taken, median per L and [range], 30-bit | 62-bit prime, 2-core x86-64
host):

    _TAIL 32     1.01-1.06 [0.91-1.34] | 1.02-1.04 [0.94-1.37]
    _TAIL 128    1.04-1.11 [0.95-1.30] | 1.06-1.09 [0.92-1.29]
    _FLOOR 8     0.92-0.98 at 2**8-2**9, 1.02-1.14 at 2**10-2**12 | 0.88-0.94, 0.97-1.09
    _FLOOR 32    1.03-1.23 [0.96-1.26] | 1.05-1.28 [1.02-1.29]

A stack is one more axis of rows. moddft and tft walk it in groups of
whole inputs (`_group`), k = max(1, _CHUNK // (2L)) inputs of L points
each: at most half a chunk of residues, so that a group and `_dit`'s
scratch, of the group's size, fit in one chunk. In moddft a group runs as
one `_dft` over all its rows; tft walks the path of the group's longest
input (zeros change no output), then runs one `_dft` over the group's
rows below n. A one-row transform is a group whose in-place stages
are empty, and a transform longer than a quarter chunk a group of one.
With _CHUNK = 2**15:

    L            inputs per group   a product's stacks (2 rows; split: 4)
    <= 2**12     4 or more          one group
    2**13        2                  one group; split's halves as two pairs
    >= 2**14     1                  input by input

Stacking pays most at small L, where a call is mostly per-call overhead,
and still past one row: a stacked pair took 0.67-0.78x the time of two
single calls at 2**11-2**12 and 0.77-0.83x at 2**13, over 998244353 and
2305843009448574977, while a pair stacked past the rule, from 2**14,
took 0.95-1.10x (1.10x for moddft over 998244353 at 2**14 and 2**16), on
a 2-core x86-64 host. Each kernel sets numpy's ufunc buffer to _BUFSIZE
elements while it runs, and restores the caller's.
"""

from __future__ import annotations

import array
import contextlib
import functools

import numpy as np

from .transform import _WORD, _itft_loops, _itft_path, _tft_path


# Points per row of the Stockham passes (`_stockham`): the stages within a
# row run as passes over all rows at once, and the stages on longer blocks
# in place, so every operation runs over stretches of at least _ROW / 2
# residues.
_ROW = 1 << 10
# About the most residues one call of Stockham passes takes: longer batches
# of rows go a chunk at a time, so that a pass's buffers stay in a core's
# cache. One call over all rows was up to 1.4x slower from L = 2**17 up and
# no faster below; chunks of 2**14 or 2**16 were no faster. A stack's
# groups (`_group`) hold at most half a chunk.
_CHUNK = 1 << 15
# The most values of each operand that one piece of the defining sum
# (`schoolbook`) convolves: an eighth of a chunk, so that a piece's
# convolutions and diagonals stay in a core's cache (timings in
# `schoolbook`).
_PIECE = _CHUNK >> 3
# numpy's ufunc buffer size, in elements, while a kernel runs: with the
# default 8192 an operation over rows of a few hundred residues runs about
# twice as slow as over one contiguous vector.
_BUFSIZE = 256
# itft inverts the blocks of at least _FLOOR points at once, as rows of the
# smallest such block, and a block below it in place; and it runs the bottom
# of its path on the Python loops from the first level of at most _TAIL
# points that crosses into its high half. Their timings on both sides are
# in the module's docstring.
_FLOOR = 1 << 4
_TAIL = 1 << 6


@contextlib.contextmanager
def _small_buffer():
    # numpy's ufunc buffer at _BUFSIZE elements while a kernel runs; the
    # caller's value is restored on the way out, also on an exception.
    old = np.setbufsize(_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _u64(v: int):
    return np.array(v, dtype=np.uint64)


# The limb of the 62-bit product, log2 of the word bound, and its mask.
# Scalar operands go to numpy as 0-d arrays: converting a Python int costs
# about 0.5 us on every call, as much as adding a few hundred residues.
_LIMB = _u64(_WORD.bit_length() - 1)
_MASK = _u64(_WORD - 1)
# The top bit of a uint64: set where a difference wrapped below 0.
_SIGN = _u64(63)


def _exact_piece(limb: int) -> int:
    # The most values of the shorter operand that one piece of the defining
    # sum takes with limbs of `limb` bits, so that every float64 value its
    # convolutions make is an integer below 2**53, and so exact in any
    # summation order: the largest is a convolution of two sums of two
    # limbs, at most piece * (2 * (2**limb - 1))**2 (see `_diagonals`).
    return (2**53 - 1) // (2 * ((1 << limb) - 1)) ** 2


class _Word:
    """Arithmetic on uint64 arrays of residues mod p < _WORD: Shoup's product with beta = _WORD.

    `_arith` picks this class, `_Lazy` or `_Wide` once per kernel call
    from p. `add`, `sub` and `mul` write into out (which may be a or b, but
    not x in `mul`), using tmp, of the same shape, as scratch.

    The defining sum (`schoolbook`) splits residues into `limbs` limbs of
    `limb` bits, convolves them in float64 in pieces of at most `piece`
    values of the shorter operand (`_exact_piece`), and takes short sides
    below `limbs_from`, against long sides of at least `rows_ratio` times
    theirs, on rows of Shoup products instead (`_rows`), which add up to
    `terms` residues before a remainder, as `column_sum` does.
    """

    limb, limbs = 16, 2
    piece = _exact_piece(limb)
    limbs_from, rows_ratio = 16, 1

    def __init__(self, p: int):
        self.modulus = p
        self.p = _u64(p)
        self.p2 = _u64(2 * p)
        # The most residues whose uint64 sum cannot wrap: r (p - 1) < 2**64
        # for r = terms (4 over p near 2**62).
        self.terms = ((1 << 64) - 1) // (p - 1)
        self.shifts = (np.arange(self.limbs, dtype=np.uint64) * _u64(self.limb))[:, None]
        self.mask = _u64((1 << self.limb) - 1)

    def edges(self):
        """The (short, long) shapes on both sides of each switch of `schoolbook`, as two lists of pairs, (rules, pieces).

        Each rule pair holds a shape the rows take (`_rows`) and one value
        away a shape the limb convolutions take: short sides of limbs_from -
        1 and limbs_from against the shortest longer side the rows take
        there, and where rows_ratio > 1, at short sides of 1 and limbs_from
        - 1, longer sides of rows_ratio times them and one less. Each piece
        pair holds a shape whose side fits one piece and one value past it,
        in two: a longer side of _PIECE on the limbs and of _CHUNK / 2 on
        the rows, and where the exact-sum bound `piece` is below _PIECE, so
        that it cuts the shorter side, a shorter side of piece.
        """
        edge, ratio, rows, piece = self.limbs_from, self.rows_ratio, _CHUNK >> 1, self.piece
        long = max(edge, ratio * (edge - 1))
        rules = [((edge - 1, long), (edge, long))]
        rules += [((s, ratio * s), (s, ratio * s - 1)) for s in (1, edge - 1) if ratio > 1]
        pieces = [((edge, _PIECE), (edge, _PIECE + 1)), ((edge - 1, rows), (edge - 1, rows + 1)),
                  ((piece, piece + 1), (piece + 1, piece + 1))]
        return rules, pieces if piece < _PIECE else pieces[:2]

    def widest(self) -> int:
        """The largest residue whose limbs below the top one are all 2**limb - 1: the widest limb sums p allows."""
        low = self.limb * (self.limbs - 1)
        ones = (1 << low) - 1
        p = self.modulus
        return (p - 1 - ones) >> low << low | ones if p > ones else p - 1

    def quotient(self, w):
        """Shoup's quotient floor(w * _WORD / p) of a factor w < p, an int or a uint64 array."""
        return w * _WORD // self.modulus

    # Cached per (arithmetic, w): itft asks for the same few constants on
    # every call, and `_Wide.quotient` costs 17-32 us on one value.
    @functools.lru_cache(maxsize=256)
    def constant(self, w: int):
        """w mod p and its quotient, as operands of `mul`; the arrays are shared, so never write to them."""
        w = _u64(w % self.modulus)
        return w, self.quotient(w)

    def reduce(self, s, tmp) -> None:
        # s in [0, 2p) -> s mod p, in place.
        np.subtract(s, self.p, out=tmp)
        np.minimum(s, tmp, out=s)

    def remainder(self, x, tmp) -> None:
        # x mod p, in place, for any uint64 x: x - (x // p) * p. Division by
        # the one divisor p runs as a multiply and shift (libdivide), so this
        # took a third of `np.remainder`'s time (2-core x86-64 host).
        np.floor_divide(x, self.p, out=tmp)
        tmp *= self.p
        x -= tmp

    def add(self, a, b, out, tmp) -> None:
        # out = (a + b) mod p.
        np.add(a, b, out=out)
        self.reduce(out, tmp)

    def sub(self, a, b, out, tmp) -> None:
        # out = (a - b) mod p. Where a >= b, tmp = a - b is the smaller;
        # elsewhere it wrapped and a - b + p is.
        np.subtract(a, b, out=tmp)
        np.add(tmp, self.p, out=out)
        np.minimum(out, tmp, out=out)

    def shoup(self, x, w, wq, out, tmp) -> None:
        # out = x*w - ((x*wq) >> 32) * p, for x < _WORD, factors w < p and
        # wq = quotient(w): x * w mod p plus 0 or p, so in [0, 2p).
        np.multiply(x, wq, out=tmp)
        tmp >>= _LIMB
        tmp *= self.p
        np.multiply(x, w, out=out)
        out -= tmp

    def mul(self, x, w, wq, out, tmp) -> None:
        # out = x * w mod p, for residues x, factors w < p and wq = quotient(w).
        self.shoup(x, w, wq, out, tmp)
        self.reduce(out, tmp)

    def pointwise(self, a, b):
        # a * b mod p as a new array: the product fits in uint64.
        out = a * b
        out %= self.p
        return out

    def column_sum(self, x):
        # The sum of the rows of x mod p, for rows of residues: sums of
        # `terms` rows at a time, each taken mod p in turn; below 2**32 one
        # sum takes every row.
        while len(x) > 1:
            x = np.add.reduceat(x, np.arange(0, len(x), self.terms), axis=0) % self.p
        return x[0]

    def from_limbs(self, d):
        """The sum of d[i] * 2**(limb * i) mod p, for uint64 rows d below 2**53, as a new array.

        Horner's rule from the top row: each step is below 2**32 * 2**limb +
        2**53 < 2**64 before its remainder.
        """
        out, tmp = d[-1].copy(), np.empty_like(d[-1])
        self.remainder(out, tmp)
        for row in d[-2::-1]:
            out <<= _u64(self.limb)
            out += row
            self.remainder(out, tmp)
        return out

    # The steps of the stage loops (`_pass`, `_butterflies`, `_dif`) and
    # their end (`_stockham`, `_dit`): here the exact ones, so residues
    # stay in [0, p) between stages. `_Lazy` overrides them, `_Wide` its
    # twiddle.
    twiddle, plus, minus = mul, add, sub

    def enter(self, lo, out, tmp):
        # lo as a butterfly's left input: here lo itself.
        return lo

    def settle(self, x, tmp) -> None:
        # A stage loop's output into [0, p), in place: here it is already.
        pass


class _Lazy(_Word):
    """`_Word`'s arithmetic, with stage loops that keep residues in [0, 4p), for p < _WORD / 4.

    Harvey's butterfly (Faster arithmetic for number-theoretic transforms,
    2014): `enter` brings the left input lo into [0, 2p); `twiddle` is
    Shoup's product without its last reduce (`shoup`), in [0, 2p) for any
    x < _WORD, so for x < 4p <= _WORD; `plus` and `minus` give lo + t and
    lo - t + 2p, both in [0, 4p). That is 10 numpy operations per butterfly
    against `_Word`'s 13. tft's in-place stages (`_dif`) keep [0, 2p) with
    the same steps. `settle` brings a stage loop's output back into [0, p),
    so every other step sees residues, as with `_Word`. `_Wide` takes the
    same steps over its own `shoup`.
    """

    twiddle = _Word.shoup

    def enter(self, lo, out, tmp):
        # min(lo, lo - 2p) into out: below 2p, lo - 2p wraps above 2**63.
        np.subtract(lo, self.p2, out=tmp)
        np.minimum(lo, tmp, out=out)
        return out

    def plus(self, a, b, out, tmp) -> None:
        np.add(a, b, out=out)

    def minus(self, a, b, out, tmp) -> None:
        # a - b + 2p, for a and b below 2p: a - b may wrap, the sum does not.
        np.subtract(a, b, out=out)
        out += self.p2

    def settle(self, x, tmp) -> None:
        self.enter(x, x, tmp)
        self.reduce(x, tmp)


class _Wide(_Lazy):
    """Arithmetic mod p from _WORD up to 2**62: Shoup's product with beta = _WORD**2, and `_Lazy`'s stage loops.

    Its quotient w' = floor(w * 2**64 / p) is two limbs of log2(_WORD)
    bits, stored as a (2, ...) array [low, high], so the stage loops slice
    quotients along their last axis. `shoup` takes the high word of x * w'
    from three limb products, dropping the low one and the carries, which
    leaves it at most 2 short: for any x < 2**64, x*w minus it times p lies
    in [0, x*p / 2**64 + 3p), below 4p < 2**64 for p < 2**62, and one
    minimum step brings it into [0, 2p). So the lazy stage loops' inputs,
    below 4p, twiddle into [0, 2p) as `_Lazy`'s do, and `mul` is exact on
    any uint64 x, as `from_limbs` needs.
    """

    limb, limbs = 21, 3
    piece = _exact_piece(limb)
    limbs_from, rows_ratio = 32, 128

    def __init__(self, p: int):
        super().__init__(p)
        self.ratio = np.float64(_WORD / p)
        # 2**(limb * i) mod p for the limbs' diagonals 1 .. 2 * limbs - 2,
        # as a column, and its quotients, for `from_limbs`.
        w = np.array([pow(2, self.limb * i, p) for i in range(1, 2 * self.limbs - 1)], dtype=np.uint64)[:, None]
        self.powers = w, self.quotient(w)

    def _digit(self, v):
        # floor(v * _WORD / p) and its remainder, for v < p: a float
        # estimate, off by at most one, corrected by the remainder's sign
        # and size; the remainder wraps in uint64 but lies in [-p, 2p).
        q = (v * self.ratio).astype(np.uint64)
        r = (v << _LIMB) - q * self.p
        under = r >> _SIGN
        q -= under
        r += under * self.p
        over = (r >= self.p).astype(np.uint64)
        return q + over, r - over * self.p

    def quotient(self, w):
        """floor(w * 2**64 / p) of a factor w < p, an int or a uint64 array, as its limbs [low, high].

        Two steps of long division by p, one per limb (`_digit`).
        """
        # At least 1-D: numpy warns on a 0-d operand's wrap-around, which
        # the remainder step relies on.
        high, rest = self._digit(np.atleast_1d(np.asarray(w, dtype=np.uint64)))
        return np.stack([self._digit(rest)[0], high])

    def shoup(self, x, w, wq, out, tmp) -> None:
        # For x = x1*2**32 + x0 and w' = w1*2**32 + w0: the quotient
        # q = (x1*w0 >> 32) + x1*w1 + (x0*w1 >> 32), a sum below 2**64, with
        # x1 taken once; then x*w - q*p, in [0, 4p), into [0, 2p).
        w0, w1 = wq
        np.right_shift(x, _LIMB, out=tmp)
        np.multiply(tmp, w0, out=out)
        out >>= _LIMB
        tmp *= w1
        out += tmp
        np.bitwise_and(x, _MASK, out=tmp)
        tmp *= w1
        tmp >>= _LIMB
        out += tmp
        out *= self.p
        np.multiply(x, w, out=tmp)
        tmp -= out
        np.subtract(tmp, self.p2, out=out)
        np.minimum(tmp, out, out=out)

    twiddle = shoup

    def pointwise(self, a, b):
        # a * b mod p as a new array: Shoup's product by b, with b's quotients.
        return mulmod(a, b, self.quotient(b), self.modulus)

    def from_limbs(self, d):
        """The sum of d[i] * 2**(limb * i) mod p, for uint64 rows d, as a new array.

        Rows 1 up times their powers of two by one `mul`, exact on any uint64
        (see the class), then summed: 2 * limbs - 2 = 4 residues stay below
        4p < 2**64; row 0 joins after a remainder.
        """
        w, wq = self.powers
        high = np.empty_like(d[1:])
        self.mul(d[1:], w, wq, high, np.empty_like(high))
        out = high.sum(axis=0)
        self.remainder(out, high[0])
        out += d[0]
        self.remainder(out, high[0])
        return out


@functools.lru_cache(maxsize=64)
def _arith(p: int) -> _Word:
    # The arithmetic mod p: below _WORD the one-word product, whose multiply
    # is about 2.3x cheaper per element (a whole moddft 1.5x), with lazy
    # stage loops below _WORD / 4, where 4p residues still fit one word,
    # and from _WORD up, where `_Wide`'s product takes any uint64.
    return (_Lazy if p < _WORD >> 2 else _Word if p < _WORD else _Wide)(p)


def stage_arrays(table):
    """table's forward and inverse stages, each a list of uint64 (twiddles, quotients) pairs.

    A stage with fewer than half a row's twiddles holds them tiled to half a
    row (see `_stockham`); its first entries are the stage's own. Each
    stage's twiddles, and their quotients, are a stride of the last stage's,
    so the quotients are computed once, for the last stage. Filled on the
    first numpy call for this table, never at construction: building a table
    must not import numpy. Beside them the table keeps itft's cross
    twiddles (`_cross_twiddles`), one slot per stage, each made on its
    first use.
    """
    arrays = table.numpy_arrays
    if arrays is None:
        f = _arith(table.field.p)
        half = min(table.size, _ROW) >> 1

        def pairs(stages):
            if not stages:
                return []
            last = np.array(stages[-1], dtype=np.uint64)
            pair = (last, f.quotient(last))
            out = []
            for tws in stages:
                step = len(last) // len(tws)
                out.append(tuple(np.tile(a[..., ::step], max(1, half // len(tws))) for a in pair))
            return out

        arrays = table.numpy_arrays = (pairs(table.fwd_stages), pairs(table.inv_stages), [None] * table.log2_size)
    return arrays[:2]


def mulmod(x, w, wq, p: int):
    """x * w mod p as a new array, for residues x, factors w < p and their quotients wq (`stage_arrays`)."""
    out = np.empty_like(x)
    _arith(p).mul(x, w, wq, out, np.empty_like(x))
    return out


def twist(x, table, direction: str):
    """x times psi**j ("fwd") or psi**-j ("inv") for j < len(x), as a new array: the last stage of table, the 2L table, where psi**2 == w_L."""
    return mulmod(x, *stage_arrays(table)[direction == "inv"][-1], table.field.p)


def scale(x, w: int, p: int):
    """x * w mod p as a new array, for residues x and an int w: Shoup's product by one constant."""
    return mulmod(x, *_arith(p).constant(w), p)


def pointwise(a, b, p: int):
    """a * b mod p elementwise as a new array, for residues a and b."""
    return _arith(p).pointwise(a, b)


def pair(lo, hi, p: int):
    """(lo + hi) mod p followed by (lo - hi) mod p, as one new array, for residues lo and hi of one length."""
    n = len(lo)
    out = np.empty(2 * n, dtype=np.uint64)
    tmp, f = np.empty_like(lo), _arith(p)
    f.add(lo, hi, out[:n], tmp)
    f.sub(lo, hi, out[n:], tmp)
    return out


def pad(x, size: int):
    """x followed by zeros, as a new uint64 array of size entries."""
    out = np.zeros(size, dtype=np.uint64)
    out[: len(x)] = x
    return out


def residues(x, p: int):
    """x as a uint64 array of residues mod p, the one input the numpy kernels take.

    A list (or tuple) of ints is converted through the buffer protocol, as
    a C array of unsigned 64-bit ints, and its ints outside [0, p) are
    reduced mod p: the residues the Python loops compute with. An element
    is read by `transform._ints`' rule, through its `__index__`, so any
    other element, or an empty list, raises ValueError. An ndarray is
    taken as it is, so it must be one-dimensional and uint64 and hold
    residues; any other raises ValueError. `DensePoly` and the residue maps read an ndarray by this
    rule.
    """
    if isinstance(x, np.ndarray):
        if x.ndim != 1 or x.dtype != np.uint64 or x.size and x.max() >= p:
            raise ValueError(f"arrays must be 1-D uint64 and hold residues mod p={p}")
        return x
    try:
        a = np.frombuffer(array.array("Q", x), dtype=np.uint64)
    except OverflowError:  # an int below 0 or from 2**64 up
        a = np.array([v % p for v in x], dtype=np.uint64)
    except TypeError:
        raise ValueError("vector elements must be integers") from None
    if a.max() >= p:
        a %= p
    return a


def schoolbook(u, v, p: int):
    """The defining sum c_i = sum of u[i - k] * v[k] mod p of residue arrays u and v, as a new array of residues.

    `poly.schoolbook_raw`'s sum as exact float64 convolutions of limbs.
    Each residue splits into `limbs` limbs of `limb` bits: 2 of 16 bits
    below _WORD, 3 of 21 bits with `_Wide`. Karatsuba's identity on the
    limbs (`_karatsuba`) takes the 4 | 9 limb products down to 3 | 6
    convolutions, one `np.convolve` each: a direct sum, one BLAS dot product
    per output, not an FFT. Exactness: each term multiplies two integers
    below 2 * 2**limb, so a convolution of pieces of at most `piece` values
    of the shorter operand is a nonnegative integer below piece * (2 *
    (2**limb - 1))**2 < 2**53 (`_exact_piece`: piece = 524304 | 512), as is
    every value `_diagonals` forms from them; integers below 2**53 are
    float64s, and their sums are exact in any order. Each limb diagonal i + j
    converts to uint64, and the arithmetic's `from_limbs` scales it by
    2**(limb * (i + j)) mod p and sums the diagonals mod p. Both operands
    go in pieces of at most _PIECE = 4096 values (the shorter one of at
    most `piece`), and each pair of pieces' outputs is added into the
    product mod p. So beside its output a product allocates below 4 *
    _CHUNK words (1 MiB), never len(u) * len(v). Past 4096 values of the
    longer side, the convolutions, the diagonals and `from_limbs`' scratch
    (up to 20 words per output) leave a core's cache: against longer sides
    of 2**13 to 2**15, on shorter sides of 2, 8 and 32 over both widths,
    pieces of 2**13 took 1.4-2.6x the time per output of pieces of 2**12,
    and pieces of 2**11 1.0-1.6x.

    Short sides below the arithmetic's `limbs_from` (16 | 32 with `_Wide`)
    against longer sides of at least its `rows_ratio` (1 | 128) times theirs
    run on rows of Shoup products instead (`_rows`), in the same loop over
    pieces: the shorter side whole and the longer one in pieces of _CHUNK /
    2 = 16384 values (pieces of 4096 took 1.1-1.5x as long at s x 16384).
    A row's cost per output grows with the short side; the limb path's (the
    limb split, the convolutions' dot products, the diagonals' steps mod
    p) does not. The limb path's time over the rows' (median of 9 rounds,
    the two alternating in one process, 2-core x86-64 host), by shorter
    side s and longer side:

        998244353    s x     64   256  1024  4096  16384
                     1     1.60  1.73  2.10  3.30  6.73
                     2     1.41  1.45  1.64  1.98  3.24
                     4     1.26  1.27  1.41  1.49  2.03
                     8     1.06  1.08  1.02  0.97  1.30
                    12     0.99  1.14  1.38  1.61  2.04
                    16     0.88  0.92  0.96  0.92  1.09
                    24     0.72  0.80  0.83  0.92  1.12
                    31     0.63  0.68  0.70  0.71  1.07

        2305843009448574977
                     s x     64   256  1024  4096  16384
                     1     1.13  1.28  1.89  6.46 14.42
                     2     1.09  1.29  1.87  4.24  7.04
                     4     1.04  1.17  1.59  3.09  4.10
                     8     0.90  0.98  1.18  1.91  2.24
                    12     0.91  1.12  1.52  2.23  2.57
                    16     0.81  0.90  1.11  1.43  1.68
                    24     0.72  0.78  0.83  1.10  1.20
                    31     0.64  0.69  0.81  0.94  1.00

    Below 2**32 the limbs win from a short side of 16 on longer sides up
    to 4096, and the rows below it; 8 x 1024 to 8 x 4096 are even, and at
    16384 the rows win on every short side, which the rule leaves to the
    limbs from 16 (1.07-1.12). Short sides of 12 to 15 favour the rows
    most (12 x 4096: 1.61): `np.convolve`'s dot product per output took
    3-4x as long on 12-15 values as on 8-11 or 16 (OpenBLAS 0.3.31). With
    `_Wide` the limbs win on longer sides below about 64 times the shorter
    one and the rows from 128 times, up to a short side of 31; the rule
    takes the rows from 128 times, which leaves 16 x 1024 (1.11) and 2 x
    64 (1.09) to the limbs: at 64 times it gave 31 x 2018 to the rows,
    which read 1.21x the parent's limbs through `lin_conv_def`.

    Against the kernel as it stood before the limbs, rows in blocks of a
    chunk on every shape, it took 0.12-0.13x the time at 369 x 628, 373 x
    365 and 200 x 201 over 2305843009448574977 and 0.14-0.29x over
    998244353, 0.40x | 0.72x at 64 x 65, 0.90-1.04x on short sides of 1
    and 4, and 0.24-0.30x at 2 x 16384 and 7 x 16384 over
    2305843009448574977.

    `convolve.lin_conv_def` runs it, once numpy is loaded, from
    len(u) * len(v) = `convolve._SCHOOLBOOK_NUMPY` = 2**9 up. Its time
    over the Python sum's, through `lin_conv_def` (lists in and out), on
    shapes on both sides of that switch (median of 5 rounds of best of 9,
    998244353 | 2305843009448574977):

        below    16 x 17  1.28 | 1.48    16 x 24  1.02 | 1.21
                 20 x 20  1.02 | 1.08    4 x 100  0.68 | 0.83
        from     22 x 24  0.86 | 0.94    16 x 32  0.81 | 0.93
                 8 x 64   0.73 | 0.86    1 x 512  0.30 | 0.38
        past     32 x 32  0.50 | 0.56    64 x 65  0.19 | 0.19
                 512 x 513  0.01 | 0.01

    From 2**9 every shape timed pays at both widths; just below, balanced
    shapes break even or lose, and lopsided ones still pay.
    """
    f = _arith(p)
    short, long = (u, v) if len(u) <= len(v) else (v, u)
    if len(short) < f.limbs_from and len(long) >= f.rows_ratio * len(short):
        # The shorter side in one piece, with its quotients once per product.
        m, n = len(short), _CHUNK >> 1
        wq = f.quotient(short)

        def part(a, b):
            return _rows(a, b, wq, f)
    else:
        m, n = min(f.piece, _PIECE), _PIECE
        weights, pairs = _karatsuba(f.limbs)

        def part(a, b):
            return f.from_limbs(_diagonals(_limb_rows(a, f, weights), _limb_rows(b, f, weights), pairs))

    if len(short) <= m and len(long) <= n:
        return part(short, long)
    out = np.zeros(len(short) + len(long) - 1, dtype=np.uint64)
    for k in range(0, len(long), n):
        for i in range(0, len(short), m):
            c = part(short[i : i + m], long[k : k + n])
            outputs = out[i + k : i + k + len(c)]
            f.add(outputs, c, outputs, c)
    return out


@functools.lru_cache(maxsize=4)
def _karatsuba(k: int):
    # The rows the defining sum convolves for k limbs, as a (rows, k) matrix
    # of 0/1 weights over the limbs: limb i alone in row i, then limbs i + j
    # for each pair i < j, in the order of the pairs, which it also returns.
    # Convolving a row of u's with the same row of v's gives, for the
    # pairs, a_i b_j + a_j b_i + a_i b_i + a_j b_j: Karatsuba's k + k(k-1)/2
    # products in place of k**2.
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    weights = np.zeros((k + len(pairs), k))
    weights[range(k), range(k)] = 1
    for row, pair in enumerate(pairs, k):
        weights[row, pair] = 1
    return weights, pairs


def _limb_rows(x, f, weights):
    # The rows a residue array x gives the convolutions: its limbs of
    # f.limb bits as float64, combined by `_karatsuba`'s weights. Every
    # value is a sum of at most two limbs, so the product is exact.
    return weights @ ((x >> f.shifts) & f.mask).astype(np.float64)


def _diagonals(a, b, pairs):
    # The limb products of the defining sum, summed by diagonal: row d is
    # the sum over limbs i + j = d of the convolution of u's limb i with v's
    # limb j, as uint64, for the rows a and b of u and v (`_limb_rows`).
    # Each row of a is convolved with the same row of b; a pair's
    # convolution less its two limbs' is its cross term, and every
    # difference taken is a nonnegative integer, so exact.
    k = len(a) - len(pairs)
    n = a.shape[1] + b.shape[1] - 1
    c = np.empty((len(a), n))
    for row, x, y in zip(c, a, b):
        row[...] = np.convolve(x, y)
    d = np.zeros((2 * k - 1, n))
    d[::2] = c[:k]
    for cross, (i, j) in zip(c[k:], pairs):
        cross -= c[i]
        cross -= c[j]
        d[i + j] += cross
    return d.astype(np.uint64)


def _rows(a, b, wq, f):
    # The defining sum of residue arrays a and b as a new array of
    # residues, by rows of Shoup's products a[j] * b mod p (`mul`, with
    # a's quotients wq), in blocks of at most _CHUNK / 2 products. Each row
    # is added into its outputs, from j on, unreduced, and the outputs are
    # taken mod p before every f.terms - 1 rows and at the end, unless one
    # row is all: after a remainder an output is below p, so it stays below
    # terms * (p - 1) < 2**64. A block's products run under the small ufunc
    # buffer: with the default one, `mul` took 1.4-1.6x as long on blocks
    # of 16 x 1024 and 8 x 1024 (2-core x86-64 host).
    s, n = len(a), len(b)
    rows = min(s, max(1, (_CHUNK >> 1) // n))
    products, tmp = np.empty((rows, n), dtype=np.uint64), np.empty((rows, n), dtype=np.uint64)
    out, spare = np.zeros(s + n - 1, dtype=np.uint64), np.empty(s + n - 1, dtype=np.uint64)
    with _small_buffer():
        for i in range(0, s, rows):
            k = min(rows, s - i)
            f.mul(b, a[i : i + k, None], wq[..., i : i + k, None], products[:k], tmp[:k])
            for j, row in enumerate(products[:k], i):
                if j and j % (f.terms - 1) == 0:
                    f.remainder(out, spare)
                out[j : j + n] += row
    if s > 1:
        f.remainder(out, spare)
    return out


def _butterflies(lo, hi, w, wq, f, t, tmp) -> None:
    # (lo, hi) <- (lo + hi*w, lo - hi*w) mod p, each in f's range between
    # stages: [0, p), or [0, 4p) with `_Lazy` and `_Wide`; t and tmp are
    # scratch of lo's shape.
    f.enter(lo, lo, tmp)
    f.twiddle(hi, w, wq, t, tmp)
    f.minus(lo, t, hi, tmp)
    f.plus(lo, t, lo, tmp)


def _dif(lo, hi, w, wq, f, t, tmp) -> None:
    # (lo, hi) <- (lo + hi, (lo - hi)*w) mod p, in [0, 2p) from [0, 2p)
    # with `_Lazy` and `_Wide`; t and tmp are scratch of lo's shape.
    f.minus(lo, hi, t, tmp)
    f.plus(lo, hi, lo, tmp)
    f.enter(lo, lo, tmp)
    f.twiddle(t, w, wq, hi, tmp)


@functools.lru_cache(maxsize=64)
def _rev(size: int):
    # The bit reversal of range(size), size a power of two: reversing the
    # axes of an index grid over (2,)*log2(size) reverses the bits.
    return np.arange(size).reshape((2,) * (size.bit_length() - 1)).T.ravel()


@functools.lru_cache(maxsize=64)
def _runs(s: int):
    # A dtype whose one item is a run of 2**s residues.
    return np.dtype((np.void, 8 << s))


@functools.lru_cache(maxsize=64)
def _row_gather(size: int, row: int):
    # moddft's input order for rows of `row` points, as a function from a
    # group of inputs to its (len, size) array: row r of each input's
    # (size/row, row) rows holds x[i * rows + rev(r)] for i < row, so that
    # the rows' DFTs are the blocks that the in-place stages then combine.
    # A transform of one row takes its inputs as they are: an identity
    # gather copied for nothing, 1.05-1.12x a whole moddft there. Longer
    # ones take each input straight into the group's array: a[:, index] on
    # a stacked group took 2.5x as long, and stacking a sequence of inputs
    # first cost up to 1.05x a whole moddft at 2**16.
    if size <= row:
        return np.asarray
    index = (np.arange(row) * (size // row) + _rev(size // row)[:, None]).ravel()

    def gather(xs):
        y = np.empty((len(xs), size), dtype=np.uint64)
        for x, out in zip(xs, y):
            np.take(x, index, out=out, mode="clip")
        return y
    return gather


def _group(size: int) -> int:
    # How many inputs of size points a kernel runs together, as one group
    # (the last group of a stack may hold fewer): at most half a chunk of
    # residues, so that a group and `_dit`'s scratch, of the group's size,
    # fit in one chunk, and at least one input.
    return max(1, _CHUNK // (2 * size))


def _dft(gather, out, sizes, stages, f) -> None:
    # out <- the DFT of each of its consecutive blocks of the given
    # decreasing power-of-two sizes, in natural order: Stockham passes over
    # the blocks' rows of m = min(_ROW, sizes[-1]) points, which gather(m)
    # gives in the order their in-place stages want, then `_dit` from m up
    # where a block is longer than m (tft's one-row blocks skip that call,
    # about 1 us of a 100 us pair at 2**8). Past one row, where the smallest
    # block is longer than m, `_dit` takes the rows on unsettled. The
    # gathered rows must not overlap out; made here, they are freed before
    # `_dit` allocates its scratch, which can then take their memory: kept
    # alive through `_dit`, they made a moddft pair over a 62-bit prime at
    # 2**15 and an itft at n = L = 2**16 1.07-1.16x slower.
    m = min(_ROW, sizes[-1])
    _stockham(gather(m).reshape(-1, m), out.reshape(-1, m), stages, f, sizes[-1] == m)
    if sizes[0] > m:
        _dit(out.reshape(-1), sizes, stages, f, m.bit_length() - 1)


def _stockham(y, out, stages, f, settle: bool) -> None:
    # out <- the DFT of each row of y, in natural order, for rows in natural
    # order, one `_pass` per stage, the last into out, settled into [0, p)
    # unless settle is false: then out is left in f's range between stages,
    # for stages in place (`_dit`) to take on. y is left unchanged and must
    # not overlap out. The rows go in equal chunks of about _CHUNK residues,
    # which share one set of scratch arrays.
    rows, size = y.shape
    passes = size.bit_length() - 1
    if not passes:
        out[...] = y
        if settle:
            f.settle(out, np.empty_like(out))
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
            _pass(src, dst, s, stages, f, u, t, tmp)
            src = dst
        if settle:
            f.settle(src, bufs[1])


def _pass(y, out, s: int, stages, f, u, t, tmp) -> None:
    # Stockham's stage s: reads the two halves of every row of y, whose
    # twiddles repeat with period 2**s and are stored tiled to half a row,
    # and writes the sums and differences to out interleaved in runs of 2**s
    # residues, one strided copy each. Pass 0 reads values below 2p (the
    # kernel's residues, or tft's in-place stages' output); a later pass
    # reads f's range between stages, and takes lo into tmp by `enter`,
    # never in place, as y may be the caller's. Where `enter` copies
    # (`_Lazy`, `_Wide`), `plus` and `minus` use no scratch.
    half = y.shape[1] >> 1
    lo, hi = y[:, :half], y[:, half:]
    if s:
        w, wq = stages[s]
        f.twiddle(hi, w[:half], wq[..., :half], t, u)
        hi = t
        lo = f.enter(lo, tmp, tmp)
    item = _runs(s)
    runs, u_runs = out.view(item).reshape(len(out), -1, 2), u.view(item)
    f.plus(lo, hi, u, tmp)
    runs[:, :, 0] = u_runs
    f.minus(lo, hi, u, tmp)
    runs[:, :, 1] = u_runs


def _dit(vec, sizes, stages, f, first: int) -> None:
    # The in-place DIT stages from half-size 2**first up, on vec holding
    # consecutive blocks of the given decreasing power-of-two sizes: the
    # stage with half-size h runs on every block longer than h, a prefix of
    # vec, pairing the halves of each sub-block of 2h, and the prefix is
    # then settled into [0, p). The first stage runs on the longest prefix,
    # so its scratch serves every later one and the settling, and none is
    # allocated when no stage runs. Scratch per stage would cost page
    # faults: two fresh arrays of 2**15 residues took 20x as long to fill
    # as two reused ones (2-core x86-64 host).
    top = max(sizes, default=1).bit_length() - 1
    if first >= top:
        return
    scratch = np.empty(sum(b for b in sizes if b > 1 << first), dtype=np.uint64)
    for s in range(first, top):
        h = 1 << s
        end = sum(b for b in sizes if b > h)
        v = vec[:end].reshape(-1, 2, h)
        lo, hi = v[:, 0], v[:, 1]
        tws, quo = stages[s]
        half = end >> 1
        _butterflies(lo, hi, tws[:h], quo[..., :h], f, scratch[:half].reshape(lo.shape),
                     scratch[half:end].reshape(lo.shape))
    f.settle(vec[: len(scratch)], scratch)


def _inverses(c, sizes, stages, f) -> None:
    # The inverse DFT of each of the consecutive blocks of c of the given
    # decreasing sizes, each in bit-reversed order, in place: the blocks of
    # at least _FLOOR points as one `_dft`, in rows of m = min(_ROW, b)
    # points for b the smallest of them, each row bit-reversed into natural
    # order first, and the blocks below _FLOOR in place.
    big = [b for b in sizes if b >= _FLOOR]
    end = sum(big)
    if big:
        _dft(lambda m: np.take(c[:end].reshape(-1, m), _rev(m), axis=1), c[:end], big, stages, f)
    _dit(c[end:], sizes[len(big):], stages, f, 0)


def moddft(x, table, direction: str):
    """transform._moddft's loops on each row of the stack x, a (rows, size)
    array or a sequence of size-point arrays, as a (rows, size) array;
    direction is "fwd" or "inv", and the inverse, like the core's, returns
    size times the inverse DFT. Each group of inputs (`_group`) runs as one
    `_dft` over its gathered rows."""
    stages = stage_arrays(table)[direction == "inv"]
    f = _arith(table.field.p)
    k = _group(table.size)
    out = np.empty((len(x), table.size), dtype=np.uint64)
    with _small_buffer():
        for i in range(0, len(x), k):
            rows = out[i : i + k]
            _dft(lambda m: _row_gather(table.size, m)(x[i : i + k]), rows, [table.size] * len(rows), stages, f)
    return out


def _tft_stages(c, stages, path, n: int, f) -> None:
    # tft's stages on each row of the stack c for n outputs, in place, per
    # stage all full blocks of all rows at once, then each row's one
    # partial block.
    t, tmp = (np.empty(c.size >> 1, dtype=np.uint64) for _ in range(2))
    for h, full, zz, both in path:
        tws, quo = stages[h.bit_length() - 1]
        if full:
            v = c.reshape(len(c), -1, 2, h)[:, :full]
            if both:
                lo, hi = v[..., 0, :both], v[..., 1, :both]
                k = lo.size
                _dif(lo, hi, tws[:both], quo[..., :both], f, t[:k].reshape(lo.shape), tmp[:k].reshape(lo.shape))
            if zz > both:
                lo, hi = v[..., 0, both:zz], v[..., 1, both:zz]
                k = lo.size
                f.twiddle(lo, tws[both:zz], quo[..., both:zz], hi, tmp[:k].reshape(lo.shape))
        base = full * (h << 1)
        if base < n and both:
            # Only the low half is wanted: fold the high half onto it.
            lo = c[:, base : base + both]
            f.plus(lo, c[:, base + h : base + h + both], lo, tmp[: lo.size].reshape(lo.shape))
            f.enter(lo, lo, tmp[: lo.size].reshape(lo.shape))


def tft(table, xs, n: int):
    """transform.tft's values for each input of xs, a sequence of arrays of
    at most n residues, as a (len(xs), n) array: per group of inputs
    (`_group`), on the path of its longest input (padding with zeros
    changes no output), the stages on blocks longer than a row in place,
    then every row that holds an output below n as a Stockham DFT."""
    fwd = stage_arrays(table)[0]
    f = _arith(table.field.p)
    size = table.size
    m = min(_ROW, size >> 1) or 1
    k = _group(size)
    c = np.zeros((len(xs), size), dtype=np.uint64)
    for row, x in zip(c, xs):
        row[: len(x)] = x
    with _small_buffer():
        for i in range(0, len(xs), k):
            rows = c[i : i + k]
            path = _tft_path(size, max(map(len, xs[i : i + k])), n)
            _tft_stages(rows, fwd, [stage for stage in path if stage[0] >= m], n, f)
            # A row of m points below n now holds every input its wanted
            # outputs need, and those are its DIF outputs. y views those
            # rows of each input in c; for several inputs with rows past n
            # it is strided, so the DIFs are written through it by np.take
            # (y.reshape would copy, and writes into a copy are lost). Its
            # indices are in range, and mode "clip" skips the copy of y that
            # "raise" makes, 0.6x the take's time.
            y = rows.reshape(len(rows), -1, m)[:, : -(-n // m)]
            dft = np.empty(y.shape, dtype=np.uint64)
            _dft(lambda _: y, dft, [m] * (dft.size // m), fwd, f)
            np.take(dft, _rev(m), axis=2, out=y, mode="clip")
    return c[:, :n]


@functools.lru_cache(maxsize=256)
def _itft_plan(size: int, n: int):
    # `transform._itft_path(size, n)` as itft's numpy steps run it: the
    # blocks they invert, the levels down, the steps back up, and the cut
    # where the Python loops take over. The cut is the first level of at
    # most _TAIL points that crosses into its high half, as (off, m,
    # levels, blocks): its sub-block c[off:off+m], which holds every level
    # and block below, and their walk with offsets into it; or None.
    # Down, the levels above the cut start at the first that crosses: until
    # then no value from n on has been written, so a level that keeps to
    # its low half adds zeros, and that first crossing level's b is zero.
    # The path's last level, with left = m/2, adds nothing on the way
    # down either. Up, bottom first, a step is a crossing level, as (off,
    # m, left, log2(m/2), None), or a run of levels that keep to their low
    # half and share off and left, as (off, m, left, runs, index): m the
    # lowest level's, and index, where runs > 1, their high halves, one row
    # per level from m upwards.
    levels, blocks = _itft_path(size, n)
    crosses = [left > m >> 1 for _, m, left, _ in levels]
    i = next((i for i, (_, m, _, _) in enumerate(levels) if m <= _TAIL and crosses[i]), len(levels))
    cut = None
    if i < len(levels):
        # Each crossing level above the cut inverts one block, its low half.
        k = sum(crosses[:i])
        off, m = levels[i][:2]
        cut = (off, m, [(o - off, *rest) for o, *rest in levels[i:]], blocks[k:])
        levels, blocks, crosses = levels[:i], blocks[:k], crosses[:i]
    first = crosses.index(True) if any(crosses) else len(levels)
    down = [level for level in levels[first:] if level[2] != level[1] >> 1]
    up = []
    j = len(levels)
    while j:
        off, m, left, log = levels[j - 1]
        i = j - 1
        if crosses[i]:
            up.append((off, m, left, log, None))
        else:
            while i and not crosses[i - 1]:
                i -= 1
            runs = j - i
            index = off + ((m >> 1) << np.arange(runs))[:, None] + np.arange(left) if runs > 1 else None
            up.append((off, m, left, runs, index))
        j = i
    return blocks, down, up, cut


def _cross_twiddles(table, log: int):
    # The forward twiddles of stage log over its half-size h = 2**log,
    # w_i / h for i < h, with their quotients: a level's cross butterflies
    # multiply by them once. Kept on the table beside its stages, which
    # itft's `stage_arrays` call has filled, each stage's made on its first
    # use; threads that make one at once store equal arrays.
    fwd, _, cross = table.numpy_arrays
    if cross[log] is None:
        f = _arith(table.field.p)
        w = mulmod(fwd[log][0][: 1 << log], *f.constant(pow(1 << log, -1, f.modulus)), f.modulus)
        cross[log] = w, f.quotient(w)
    return cross[log]


def _less(a, b, m: int, f, d, mb, tmp) -> None:
    # a <- 2a - m*b in place, and d <- a - m*b for the old a, for residues
    # a and b; d, mb and tmp are scratch of a's shape.
    f.mul(b, *f.constant(m), mb, tmp)
    f.sub(a, mb, d, tmp)
    f.add(a, d, a, tmp)


def itft(table, xhat):
    """transform.itft's values, on the walk of `transform._itft_path`: the
    blocks above the Python loops' cut inverted at once (`_inverses`), the
    levels down to the cut, the sub-block below it on the Python loops
    (`transform._itft_loops`, one `tolist` and one write-back), and the
    levels back up (`_itft_plan`)."""
    inv = stage_arrays(table)[1]
    f = _arith(table.field.p)
    n = len(xhat)
    c = pad(xhat, table.size)
    blocks, down, up, cut = _itft_plan(table.size, n)
    s, t, tmp = (np.empty(table.size >> 1, dtype=np.uint64) for _ in range(3))
    with _small_buffer():
        _inverses(c, blocks, inv, f)
        for i, (off, m, left, log) in enumerate(down):
            h = m >> 1
            if left <= h:
                lo = c[off + left : off + h]
                f.add(lo, c[off + left + h : off + m], lo, tmp[: len(lo)])
                continue
            # The low half holds h * u_i. Cross butterflies: from (h*u_i,
            # x_{i+h}) produce (m*x_i, v_i) as m*x_i = a + d and v_i = d *
            # w_i / h, for d = a - m*b; at the first level b = 0, so d = a.
            tws, quo = _cross_twiddles(table, log)
            a = c[off + left - h : off + h]
            k = len(a)
            d, kt = s[:k], tmp[:k]
            if i:
                _less(a, c[off + left : off + m], m, f, d, t[:k], kt)
            else:
                d[...] = a
                f.add(a, a, a, kt)
            f.mul(d, tws[left - h :], quo[..., left - h :], c[off + left : off + m], kt)
        if cut:
            off, m, below, inside = cut
            sub = c[off : off + m].tolist()
            _itft_loops(table, sub, below, inside)
            c[off : off + m] = sub
        # k is log2(m/2) for a crossing level, a run's count of levels.
        for off, m, left, k, index in up:
            h = m >> 1
            if left > h:
                # One butterfly per known value of the high half, exact, as
                # the levels above read residues.
                j = left - h
                tws, quo = inv[k]
                lo, hi, w, kt = c[off : off + j], c[off + h : off + left], t[:j], tmp[:j]
                f.mul(hi, tws[:j], quo[..., :j], w, kt)
                f.sub(lo, w, hi, kt)
                f.add(lo, w, lo, kt)
                continue
            a = c[off : off + left]
            if index is None:
                # One level that keeps to its low half: a <- 2a - m*b.
                _less(a, c[off + h : off + h + left], m, f, s[:left], t[:left], tmp[:left])
                continue
            # A run of k levels from m upwards, each a <- 2a - m*b for its m
            # and its b, which no level of the run writes: so a <- 2**k * a -
            # 2**(k-1) * m * sum(b), with sum(b) mod p by `column_sum`.
            total, mb, kt = f.column_sum(c[index]), t[:left], tmp[:left]
            f.mul(total, *f.constant(m << k - 1), mb, kt)
            f.mul(a, *f.constant(1 << k), total, kt)
            f.sub(total, mb, a, kt)
    return c[:n]
