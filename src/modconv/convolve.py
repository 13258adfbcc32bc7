"""Convolution engines over prime fields and the polynomial multiply dispatcher.

Engines: quadratic by-definition forms, FFT-backed circular convolution,
zero-padded linear convolution, the negacyclic twist, the
circular/negacyclic CRT split, truncated-transform multiplication, and
Kronecker substitution (one CPython big-integer multiply, for any prime and
any length). All engines are exact, so every applicable engine produces
bit-identical output; they differ only in operation counts.

The by-definition forms sum the defining sum. `circ_conv_def` folds
`poly.schoolbook_raw`, which stays the pure-Python oracle; `lin_conv_def`,
the `definition` engine, runs it too, except in a process that has already
loaded numpy, where from len(u) * len(v) = `_SCHOOLBOOK_NUMPY` up it sums
as exact float64 convolutions of the residues' limbs (`_ntt_numpy.schoolbook`).
It never imports numpy itself, and counts nothing on either path.

Every engine checks its operands by one rule (`_operands`): lists of ints
by DensePoly's rule (`transform._ints`: an int-like through
`operator.index`, a non-integer or an ndarray raises ValueError), both
nonempty, and of equal length for the circular ones. A transform-backed
product gets its table once, in `_product`, from `get_table`, which refuses
a length the field cannot transform. A linear product through a circular
engine (`lin_conv_fft_pad`, and `poly_mul`'s `split`) is one step,
`_zero_padded`.

Doors and cores. Every public engine takes lists and returns a list. Each
transform-backed engine (`circ_conv_fft`, `nega_conv`, `circ_conv_split`,
`conv_tft`, `lin_conv_fft_pad`) is a door over a private core
(`_circ_conv_fft` for the circular and negacyclic ones, `_circ_conv_split`,
`_conv_tft`, and `_zero_padded` for the padded ones). Every such core
takes the table its product runs on as its first argument and reads L
there, as `table.size`: none fetches its own table or works its size out
again. The only other table is the negacyclic twist, of 2L, which
`_product` fetches for the doors whose core twists (`nega_conv`,
`circ_conv_split`) before any input is padded or converted, so that a size
whose twist the field refuses costs nothing. A core returns L times its product: its inverse transforms do not
scale, as itft does not. The two cyclic cores are maps around one step,
`_cyclic`, as the paper's algorithms are breakdown rules (zero-padding, CRT
splits of x**n - 1) over one cyclic convolution. The step takes a stack of
rows in pairs (u0, v0, u1, v1, ...) and makes one forward `moddft` call on
the whole stack, one pointwise product of each pair's spectra, and one
inverse call. Handed the twist's table, it twists the last pair in and its
product out, so that product is negacyclic: no other code twists. It lets
go of its inputs once the forward call has read them, and of the forward
spectra before the inverse call. `_circ_conv_fft` is the step on one pair,
twisted if it is handed the twist's table, and `_circ_conv_split` the step
on its inputs' residue pairs, recombined; `_conv_tft` makes the same three
calls through `tft` and `itft`. One step, `_product`, serves the five
doors and `poly_mul`: it fetches the table of the size the engine's rule
gives, runs the core on it through
`transform._run`, and divides by L once (`transform._div_size`), after
`_zero_padded`'s cut, so fft_pad scales n values and split, at L/2, scales
once. `_run` hands the core uint64 arrays wherever the transforms run in
numpy (see `transform._numpy_kernels`, which takes a product from 2**8 on,
decided on the twist's size for a core that twists, over every prime,
once a transform of 2**15, or the process's earlier Python-loop
transforms, have paid for importing numpy), converting each input once
(which reduces ints outside [0, p)), and a door converts the result to a
list once (`transform._listed`). A core trusts what it is handed and calls
only cores. On uint64 arrays every step stays in arrays (transforms, pointwise
product, 1/L scale, twist, residues, padding); on lists every step runs the
Python loops. Every step keeps its list branch here and runs on arrays
through the primitives of `_ntt_numpy`, which holds all uint64 arithmetic
(`pointwise`, `scale`, `pair`, `pad`, `mulmod`), looked up by
`transform._array_kernels`; this module does not import numpy. Both paths
return the same values and count the same operations. `poly_mul` hands its
trimmed operands, ints that `DensePoly` has checked, to the same step, and
hands an ndarray product to `DensePoly`, which range-checks it in numpy
and stores it as ints. So no padding zero is converted, and nothing below
a door or `poly_mul` checks its arrays again. The residue maps are public
and called by the split core, so they take lists of ints or uint64 arrays,
and check an array by `_ntt_numpy.residues`' rule.

One table. `_ENGINES` holds each fixed engine: its transform-size rule, its
core, and how `auto` prices it (`_Engine`): the planned keys its cost reads,
the cost as one function of their timings and the shape, where it is
ranked, and its place among equal costs; or, for `definition` and `split`,
why it is never ranked. `ENGINES` is its names and "auto", and
`planner.PlanSession.resolve_engine` is one loop over it.

Execution is serial. CPython holds the GIL through these pure-Python integer
loops, so worker threads cannot make them faster. `ConvRequest.threads` is
validated and read by nothing: it stays in the public constructor, which
acceptance criterion 6 calls with 1 and 4. No CLI command sets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Callable, NamedTuple

from .field import FieldMismatchError, FourierPrime, _check_fields
from .poly import DensePoly, schoolbook_raw
from .transform import OpCounters, _array_kernels, _div_size, _ints, _listed, _numpy_kernels, _run, get_table
from .transform import _loaded_kernels, itft_butterflies, tft_butterflies

# The engines call the transform cores by these module names, as they call
# split_residues and recombine_residues: a tracer that replaces
# `convolve.tft` (perfbench's spans do) then sees every transform a product runs.
from .transform import _itft as itft, _moddft as moddft, _tft as tft

if TYPE_CHECKING:
    from .planner import PlanEntry, PlanSession


@dataclass
class ConvRequest:
    """How to run a convolution: field, engine, instrumentation and plan session.

    `threads` is validated and otherwise ignored: every engine runs serially.
    """

    field: FourierPrime
    engine: str = "auto"
    threads: int = 1
    counters: OpCounters | None = None
    planner: "PlanSession | None" = dc_field(default=None, repr=False)

    def __post_init__(self) -> None:
        _check_engine(self.engine)
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def _check_engine(name: str) -> None:
    """The one unknown-engine check, of a request's engine and of a sweep's."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINES}")


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


def _operands(u, v, circular: bool = False) -> tuple[list[int], list[int]]:
    """The engines' operand rule: u and v as lists of ints (`transform._ints`), both nonempty, of equal length for a circular engine.

    An ndarray is refused: only the cores take arrays.
    """
    u, v = _ints(u), _ints(v)
    if not len(u) or not len(v) or circular and len(u) != len(v):
        kind = "equal nonempty" if circular else "nonempty"
        raise ValueError(f"need {kind} lengths, got {len(u)} and {len(v)}")
    return u, v


def _product(size: int, core, u, v, req: ConvRequest, twist: bool = False):
    """core's product of u and v over the size-point table, divided by size once: the step of every transform-backed product.

    It fetches the table and hands it to core, which reads its size there;
    a core that twists (`twist`) is handed the negacyclic twist's table too,
    of 2 * size, fetched here as well, so that a size whose twist the field
    refuses is refused before any input is padded or converted.
    `transform._run` hands core uint64 arrays where the transforms of the
    larger table run in numpy, else the lists, and keeps the process's
    tally. split's forward call stacks four rows of the half size, as much
    as two rows of the twist's size; the negacyclic door thus takes numpy
    from n = 2**7, where it already pays (0.76x the Python loops' time at
    n = 128 over 998244353, best of 100). core
    returns size times the product, and `transform._div_size` scales it.
    """
    table = get_table(req.field, size)
    if not twist:
        return _div_size(_run(table, lambda a, b: core(table, a, b, req), u, v), table)
    twisting = get_table(req.field, 2 * size)
    return _div_size(_run(twisting, lambda a, b: core(table, a, b, req, twist=twisting), u, v), table)


def _zero_padded(circ, size: int, table, u, v, req: ConvRequest, **tables):
    """The linear product u * v as the core circ on table, over u and v zero-padded to size, cut to n.

    It carries circ's factor, the table size, and hands circ the tables it
    was handed. Both inputs are uint64 arrays or both lists, and are padded
    in their own type, so that only their own values were converted.
    """
    n = len(u) + len(v) - 1
    kernels = _array_kernels(u)
    pad = kernels.pad if kernels else lambda w, size: list(w) + [0] * (size - len(w))
    return circ(table, pad(u, size), pad(v, size), req, **tables)[:n]


def circ_conv_def(u: list[int], v: list[int], fp: FourierPrime) -> list[int]:
    """Circular convolution straight from its defining sum (oracle): the linear sum folded mod x^n - 1."""
    u, v = _operands(u, v, circular=True)
    n = len(u)
    p = fp.p
    full = schoolbook_raw(u, v, p) + [0]
    return [(full[i] + full[i + n]) % p for i in range(n)]


# The fewest products, len(u) * len(v), of a `lin_conv_def` that runs the
# defining sum in numpy (`_ntt_numpy.schoolbook`, whose docstring has the
# timings on both sides) once the process has loaded numpy.
_SCHOOLBOOK_NUMPY = 1 << 9


def lin_conv_def(u: list[int], v: list[int], fp: FourierPrime) -> list[int]:
    """Linear convolution straight from its defining sum.

    In a process that has already loaded numpy, from len(u) * len(v) =
    _SCHOOLBOOK_NUMPY up, the sum runs as float64 convolutions of limbs
    (`_ntt_numpy.schoolbook`, on `residues`, which reduce ints outside
    [0, p)); anywhere else it is `poly.schoolbook_raw`, which stays the
    pure-Python oracle. It never imports numpy, and both give the same
    list.
    """
    u, v = _operands(u, v)
    p = fp.p
    kernels = _loaded_kernels() if len(u) * len(v) >= _SCHOOLBOOK_NUMPY else None
    if kernels:
        return kernels.schoolbook(kernels.residues(u, p), kernels.residues(v, p), p).tolist()
    return schoolbook_raw(u, v, p)


def _pointwise(a, b, p: int, req: ConvRequest):
    """Elementwise spectral product of two stacks of rows, a 2-D uint64 array or a list of lists each, counted."""
    if req.counters is not None:
        req.counters.pointwise_muls += sum(map(len, a))
    kernels = _array_kernels(a)
    return kernels.pointwise(a, b, p) if kernels else [[x * y % p for x, y in zip(r, s)] for r, s in zip(a, b)]


def circ_conv_fft(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Circular convolution as inverse-DFT of the pointwise spectral product."""
    u, v = _operands(u, v, circular=True)
    return _listed(_product(len(u), _circ_conv_fft, u, v, req))


def _circ_conv_fft(table, u, v, req: ConvRequest, twist=None):
    # table.size times the circular product, or with twist, the 2L table,
    # the negacyclic one.
    return _cyclic(table, (u, v), req, twist)[0]


def _cyclic(table, rows, req: ConvRequest, twist=None):
    """table.size times the cyclic product of each pair (rows[2i], rows[2i+1]) of the stack rows: the one transform step.

    With twist, the 2L table, the last pair's product is negacyclic: its two
    rows are twisted in and its product untwisted out, here alone. The step
    makes one forward call on the whole stack, one pointwise product of the
    pairs' spectra and one inverse call. Each call's result takes the name
    of what it read, so the step lets go of its inputs once the forward call
    has read them and of the forward spectra before the inverse call: fewer
    arrays live at once. How many heap pages that spares from being trimmed
    and faulted back in depends on the process's allocation history, and a
    caller's own names still hold what they hold.
    """
    p = req.field.p
    if twist is not None:
        rows = (*rows[:-2], *(_twisted(twist, r, "fwd", p) for r in rows[-2:]))
    rows = moddft(rows, table, "fwd", req.counters)
    rows = _pointwise(rows[0::2], rows[1::2], p, req)
    rows = moddft(rows, table, "inv", req.counters)
    return rows if twist is None else (*rows[:-1], _twisted(twist, rows[-1], "inv", p))


def lin_conv_fft_pad(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Linear convolution by zero-padding into a power-of-two circular one."""
    return _listed(_ENGINES["fft_pad"].run(*_operands(u, v), req))


def nega_conv(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Negacyclic convolution (product mod x**n + 1) via root-of-unity twisting.

    Needs a root of order 2n, i.e. one extra level of 2-adicity beyond the
    circular case.
    """
    u, v = _operands(u, v, circular=True)
    return _listed(_product(len(u), _circ_conv_fft, u, v, req, twist=True))


def _twisted(twist, x, direction: str, p: int):
    """x times psi**j ("fwd") or psi**-j ("inv") for j < len(x): the last stage of twist, the 2L table, where psi**2 == w_L."""
    kernels = _array_kernels(x)
    if kernels:
        # Each stage is (twiddles, their Shoup quotients).
        fwd, inv = kernels.stage_arrays(twist)
        return kernels.mulmod(x, *(fwd if direction == "fwd" else inv)[-1], p)
    return [a * b % p for a, b in zip(x, (twist.fwd_stages if direction == "fwd" else twist.inv_stages)[-1])]


def circ_conv_split(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Circular convolution of length 2n via the mod (x**n - 1) / (x**n + 1) split.

    Each input is reduced to its two residues, the halves are convolved
    circularly and negacyclically, and the halves are recombined with the
    inverse of 2.
    """
    u, v = _operands(u, v, circular=True)
    size = len(u)
    # Halving drops an odd length's last bit, so get_table(n) cannot refuse it.
    if size & (size - 1) or size < 2:
        raise ValueError(f"length must be a power of two >= 2: {size}")
    return _listed(_product(size >> 1, _circ_conv_split, u, v, req, twist=True))


def _circ_conv_split(table, u, v, req: ConvRequest, twist):
    # table.size = len(u)/2 times the product, recombined from its circular
    # and negacyclic halves: the step's two pairs are u's and v's residues
    # mod x**L - 1, then mod x**L + 1. No name here holds a residue while
    # the step runs, so it frees each as it goes.
    p = req.field.p
    return recombine_residues(*_cyclic(table, sum(zip(split_residues(u, p), split_residues(v, p)), ()), req, twist), p)


def split_residues(u: list[int], p: int) -> tuple[list[int], list[int]]:
    """Residues of u mod (x**n - 1) and mod (x**n + 1), for n = len(u)/2.

    len(u) must be even and nonzero. A list holds ints (`transform._ints`).
    A uint64 ndarray u must hold residues (`_ntt_numpy.residues`) and gives
    arrays back.
    """
    n = len(u) >> 1
    if not n or len(u) & 1:
        raise ValueError(f"need an even nonzero length, got {len(u)}")
    kernels = _array_kernels(u)
    if kernels:
        u = kernels.residues(u, p)
        both = kernels.pair(u[:n], u[n:], p)
        return both[:n], both[n:]
    u = _ints(u)
    a = [(u[j] + u[j + n]) % p for j in range(n)]
    b = [(u[j] - u[j + n]) % p for j in range(n)]
    return a, b


def recombine_residues(a: list[int], b: list[int], p: int) -> list[int]:
    """Inverse of split_residues: lift the residue pair back to length 2n.

    a and b must be nonempty and of equal length, and a list holds ints
    (`transform._ints`). An ndarray among them puts the map in arrays: each
    input then goes through `_ntt_numpy.residues`, and the result is an
    array.
    """
    if not len(a) or len(a) != len(b):
        raise ValueError(f"need equal nonempty lengths, got {len(a)} and {len(b)}")
    kernels = _array_kernels(a, b)
    inv2 = (p + 1) >> 1
    if kernels:
        # The residues of a followed by b are a + b and a - b.
        return kernels.scale(kernels.pair(kernels.residues(a, p), kernels.residues(b, p), p), inv2, p)
    a, b = _ints(a), _ints(b)
    lo = [(x + y) * inv2 % p for x, y in zip(a, b)]
    hi = [(x - y) * inv2 % p for x, y in zip(a, b)]
    return lo + hi


def conv_tft(g: list[int], h: list[int], req: ConvRequest) -> list[int]:
    """Linear convolution via truncated transforms.

    Both inputs are transformed to exactly n = len(g)+len(h)-1 spectral
    values at the smallest supported power-of-two size L >= n, multiplied
    pointwise (exactly n products), and recovered through the inverse
    truncated transform and one division by L.
    """
    return _listed(_ENGINES["tft"].run(*_operands(g, h), req))


def _conv_tft(table, g, h, req: ConvRequest):
    # L = table.size times the product: itft does not divide by L.
    # One forward call on the stack of both inputs.
    f = tft(table, (g, h), len(g) + len(h) - 1, req.counters)
    return itft(table, _pointwise(f[:1], f[1:], req.field.p, req)[0], req.counters)


def _kronecker_slot(p: int, shorter: int) -> int:
    """Bytes per packed coefficient: room for a sum of `shorter` products below p**2."""
    return (2 * p.bit_length() + shorter.bit_length() + 7) // 8


def lin_conv_kronecker(u: list[int], v: list[int], fp: FourierPrime) -> list[int]:
    """Linear convolution by Kronecker substitution: one big-integer multiply.

    Each input is packed into one int, a coefficient per slot of
    `_kronecker_slot` bytes, so that every coefficient of the integer product
    fits its slot without a carry. The two ints are multiplied once, and the
    slots are read back and reduced mod p. Ints outside [0, p) are reduced
    first. Exact for any p and any lengths; it needs no twiddle table and
    counts no butterflies or pointwise products.
    """
    return _kronecker(*_operands(u, v), fp)


def _kronecker(u, v, fp: FourierPrime) -> list[int]:
    # lin_conv_kronecker on nonempty sequences of ints, as poly_mul and the
    # planner's timings hand them.
    z1, z2 = len(u), len(v)
    p = fp.p
    slot = _kronecker_slot(p, min(z1, z2))
    packed = []
    for w in (u, v):
        if min(w) < 0 or max(w) >= p:
            w = [x % p for x in w]
        packed.append(int.from_bytes(b"".join([x.to_bytes(slot, "little") for x in w]), "little"))
    size = (z1 + z2 - 1) * slot
    data = (packed[0] * packed[1]).to_bytes(size, "little")
    return [int.from_bytes(data[i : i + slot], "little") % p for i in range(0, size, slot)]


# CPython multiplies a b-digit int by a c-digit one, c <= b, in about
# b * c**0.585 steps: Karatsuba (exponent log2(3)) on b/c pieces of c digits.
KARATSUBA_EXPONENT = 0.585
# The size whose conv timing prices Kronecker's linear packing work: a 17 x 17
# product, where packing and unpacking take nearly all of the time.
LINEAR_WORK_L = 64


def _tft_cost(z1: int, z2: int, fwd: PlanEntry, inv: PlanEntry) -> float:
    # The forward tft timing and the inverse's, scaled from the shapes they
    # were timed at (their keys' z and n) to z1 x z2 by exact butterfly
    # counts. The inverse is the dft key's timing: itft at n = L, that key's
    # n, runs the same loop, so `modconv plan` times no itft key.
    size, n = fwd.key.L, z1 + z2 - 1
    forward = fwd.measured_nanos * (tft_butterflies(size, z1, n) + tft_butterflies(size, z2, n))
    inverse = inv.measured_nanos * itft_butterflies(size, n)
    return forward / tft_butterflies(size, fwd.key.z, fwd.key.n) + inverse / itft_butterflies(size, inv.key.n)


def _kronecker_cost(z1: int, z2: int, timed: PlanEntry, base: PlanEntry) -> float:
    """The `timed` conv timing scaled to z1 x z2, floored by the linear work.

    The scale is CPython's multiply cost, b * c**KARATSUBA_EXPONENT, on the
    packed lengths of the product against those of the timed shape. That
    ignores packing and unpacking, which are linear in the product length n
    and dominate short or lopsided products, so the cost is at least the
    `base` timing, of the conv key at LINEAR_WORK_L, scaled by n.
    """
    p, z, n = timed.key.p, timed.key.z, timed.key.n

    def mul_steps(a: int, b: int) -> float:
        slot = _kronecker_slot(p, min(a, b))
        return max(a, b) * slot * (min(a, b) * slot) ** KARATSUBA_EXPONENT

    scaled = timed.measured_nanos * mul_steps(z1, z2) / mul_steps(z, n + 1 - z)
    return max(scaled, base.measured_nanos * (z1 + z2 - 1) / base.key.n)


class _Engine(NamedTuple):
    """A fixed engine: how it runs a product of length n, and how `auto` prices it.

    `size` gives the transform size L for n, the one place that decides it:
    `_product` fetches the L-point table, hands it to `core` as its first
    argument, decides whether core is handed uint64 arrays, and divides
    core's L-fold product by L. None for an engine without transforms, whose
    core gets None for a table and its operands as they are, and returns the
    product itself. `core` looks the cores up by module name when called, so
    a replaced name (a tracer's wrapper) is the one that runs. `cost` gives
    the nanoseconds of a z1 x z2 product from the plan entries of the
    (kind, L) keys that `reads` names at the padded size L
    (`planner.planned_keys`; `tft` reads the tft key and, for its inverse,
    the dft key), or, for an engine `auto` never ranks, the
    reason as a string. `applies` says at which padded sizes L `auto`
    ranks it, of those the field hosts; equal costs go to the lowest `tie`. A core that
    twists (`twist`) also takes the negacyclic twist's table, of 2L, which
    `_product` fetches before anything else runs; the core hands it to
    `_cyclic`, the one step that twists. Every transform-backed core but
    `tft`'s is a map around that step (its row pairs, forward call,
    pointwise product and inverse call).
    """

    size: Callable[[int], int] | None
    core: Callable
    cost: Callable[..., float] | str
    reads: Callable[[int], tuple] = lambda size: ()
    applies: Callable[[int], bool] = lambda size: True
    tie: int = 0
    twist: bool = False

    def run(self, u, v, req: ConvRequest):
        """The product of the int sequences u and v by this engine, a list or a uint64 array."""
        if self.size is None:
            return self.core(None, u, v, req)
        return _product(self.size(len(u) + len(v) - 1), self.core, u, v, req, self.twist)


# The fixed engines, in the order of ENGINES. The ranked engine without
# transforms serves every product no transform can: `auto` sends the scalar
# ones and those beyond the field's 2-adicity to it without pricing.
# kronecker is not ranked where a single transform runs in numpy (from
# 2**9), over 62-bit primes too: the stored timings below 2**15 are of the
# Python loops, so it would win there where the numpy tft is 2-5x faster.
# At 2**8, where only a product's stacked transforms run in numpy, it is
# ranked: it stays the fastest there (0.08-0.44 ms against 0.25-0.8 ms for
# a numpy fft_pad at n = 129..256, 2-core x86-64 host).
_ENGINES = {
    "definition": _Engine(None, lambda table, u, v, req: lin_conv_def(u, v, req.field),
                          "quadratic: auto never falls back to it, and poly.schoolbook_raw stays the oracle"),
    "fft_pad": _Engine(_next_pow2, lambda table, u, v, req: _zero_padded(_circ_conv_fft, table.size, table, u, v, req),
                       lambda z1, z2, dft: 3 * dft.measured_nanos, lambda size: (("dft", size),)),
    "tft": _Engine(_next_pow2, lambda table, u, v, req: _conv_tft(table, u, v, req), _tft_cost,
                   lambda size: (("tft", size), ("dft", size)), tie=2),
    "split": _Engine(lambda n: max(2, _next_pow2(n)) >> 1,
                     lambda table, u, v, req, twist: _zero_padded(_circ_conv_split, 2 * table.size, table, u, v, req,
                                                                  twist=twist),
                     "fft_pad's work at half size plus a twist: no planned key times it, and it was never the fastest",
                     twist=True),
    "kronecker": _Engine(None, lambda table, u, v, req: _kronecker(u, v, req.field), _kronecker_cost,
                         lambda size: (("conv", size), ("conv", min(size, LINEAR_WORK_L))),
                         lambda size: _numpy_kernels(size, 1) is None, tie=1),
}
ENGINES = (*_ENGINES, "auto")


def poly_mul(a: DensePoly, b: DensePoly, req: ConvRequest) -> DensePoly:
    """Multiply polynomials with the requested engine; engines agree bit-for-bit.

    Zero inputs short-circuit to the zero polynomial without touching any
    transform. Trailing zeros are trimmed first, so engine input lengths are
    degree+1.

    This is where a product crosses between Python ints and numpy, once each
    way, through the doors' step `_product` (`_Engine.run`). Where the
    engine's transforms run in numpy (its `_ENGINES` size rule and
    `transform._numpy_kernels`), each trimmed operand is converted to a
    uint64 array by `_ntt_numpy.residues`, the engine's core pads and
    multiplies in arrays, the product is divided by L once, and the ndarray
    becomes the DensePoly, which checks it in numpy. Every other engine, size and prime
    gets the trimmed coefficient tuples and returns a list. A product that
    ran on them at a size the numpy kernels take, over any prime, counts as
    three transforms toward the process's switch to numpy (`transform._run`).
    """
    _check_fields(a, b)
    if a.field.p != req.field.p:
        raise FieldMismatchError(
            f"request field {req.field.p} does not match operands {a.field.p}"
        )
    if a.is_zero() or b.is_zero():
        return DensePoly.zero(a.field)
    u, v = a.normalize().coeffs, b.normalize().coeffs
    engine = req.engine
    if engine == "auto":
        if req.planner is None:
            raise ValueError("engine 'auto' requires a ConvRequest.planner plan session")
        engine = req.planner.resolve_engine(req.field, len(u), len(v))
    return DensePoly(a.field, _ENGINES[engine].run(u, v, req)).normalize()
