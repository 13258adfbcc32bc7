"""Convolution engines over prime fields and the polynomial multiply dispatcher.

Engines: quadratic by-definition forms (the correctness oracles), FFT-backed
circular convolution, zero-padded linear convolution, the negacyclic twist,
the circular/negacyclic CRT split, truncated-transform multiplication, and
Kronecker substitution (one CPython big-integer multiply, for any prime and
any length). All engines are exact, so every applicable engine produces
bit-identical output; they differ only in operation counts.

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
(`_circ_conv_fft`, `_nega_conv`, `_circ_conv_split`, `_conv_tft`, and
`_zero_padded` for the padded ones). Every such core takes the table its
product runs on as its first argument and reads L there, as `table.size`:
none fetches its own table or works its size out again, and the only other
table a core fetches is `_nega_conv`'s twist, of 2L. It returns L times its
product: its inverse transforms do not scale, as itft does not. One step,
`_product`, serves the five doors and `poly_mul`: it fetches the table of
the size the engine's rule gives, runs the core on it through
`transform._run`, and divides by L once (`transform._div_size`), after
`_zero_padded`'s cut, so fft_pad scales n values and split, at L/2, scales
once. `_run` hands the core uint64 arrays wherever the transforms run in
numpy (see `transform._numpy_kernels`, which takes sizes from 2**9 on once
a transform of 2**15, or the process's earlier Python-loop transforms, have
paid for importing numpy), converting each input once (which reduces ints
outside [0, p)), and a door converts the result to a list once
(`transform._listed`). A core trusts what it is handed and calls only
cores. On uint64 arrays every step stays in arrays (transforms, pointwise
product, 1/L scale, twist, residues, padding); on lists every step runs the
Python loops. Both paths return the same values and count the same
operations. `poly_mul` hands its trimmed operands, ints that `DensePoly`
has checked, to the same step, and hands an ndarray product to `DensePoly`,
which range-checks it in numpy and stores it as ints. So no padding zero is
converted, and nothing below a door or `poly_mul` checks its arrays again.
The residue maps are public and called by the split core, so they take
lists of ints or uint64 arrays, and check an array by
`transform._as_residues`' rule.

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

from .field import FieldMismatchError, FourierPrime
from .poly import DensePoly, _check_fields
from .transform import OpCounters, _as_residues, _div_size, _ints, _is_array, _listed, _numpy_kernels, _run, get_table
from .transform import itft_butterflies, tft_butterflies

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


def _product(size: int, core, u, v, req: ConvRequest):
    """core's product of u and v over the size-point table, divided by size once: the step of every transform-backed product.

    It fetches the table and hands it to core, which reads its size there.
    `transform._run` hands core uint64 arrays where the table's transforms
    run in numpy, else the lists, and keeps the process's tally. core
    returns size times the product, and `transform._div_size` scales it.
    """
    table = get_table(req.field, size)
    return _div_size(_run(table, lambda a, b: core(table, a, b, req), u, v), table)


def _zero_padded(circ, size: int, table, u, v, req: ConvRequest):
    """The linear product u * v as the core circ on table, over u and v zero-padded to size, cut to n.

    It carries circ's factor, the table size. Both inputs are uint64 arrays
    or both lists, and are padded in their own type, so that only their own
    values were converted.
    """
    n = len(u) + len(v) - 1

    def pad(w):
        if _is_array(w):
            import numpy as np

            out = np.zeros(size, dtype=np.uint64)
            out[: len(w)] = w
            return out
        return list(w) + [0] * (size - len(w))

    return circ(table, pad(u), pad(v), req)[:n]


def circ_conv_def(u: list[int], v: list[int], fp: FourierPrime) -> list[int]:
    """Circular convolution straight from its defining sum (oracle)."""
    u, v = _operands(u, v, circular=True)
    n = len(u)
    p = fp.p
    v2 = list(v) + list(v)
    out = []
    for i in range(n):
        acc = 0
        base = n + i
        for k in range(n):
            acc += u[k] * v2[base - k]
        out.append(acc % p)
    return out


def lin_conv_def(u: list[int], v: list[int], fp: FourierPrime) -> list[int]:
    """Linear convolution straight from its defining sum (oracle)."""
    u, v = _operands(u, v)
    m, n = len(u), len(v)
    p = fp.p
    out = []
    for i in range(m + n - 1):
        lo = i - m + 1
        if lo < 0:
            lo = 0
        hi = i if i < n - 1 else n - 1
        acc = 0
        for k in range(lo, hi + 1):
            acc += u[i - k] * v[k]
        out.append(acc % p)
    return out


def _mulmod(a, b, p: int):
    # Elementwise a * b mod p, for lists or for uint64 arrays with p < 2**32.
    if _is_array(a):
        out = a * b
        out %= p
        return out
    return [x * y % p for x, y in zip(a, b)]


def _pointwise(a, b, p: int, req: ConvRequest):
    """Elementwise spectral product, counted."""
    if req.counters is not None:
        req.counters.pointwise_muls += len(a)
    return _mulmod(a, b, p)


def circ_conv_fft(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Circular convolution as inverse-DFT of the pointwise spectral product."""
    u, v = _operands(u, v, circular=True)
    return _listed(_product(len(u), _circ_conv_fft, u, v, req))


def _circ_conv_fft(table, u, v, req: ConvRequest):
    # table.size times the circular product: the inverse moddft core does not scale.
    uf = moddft(u, table, "fwd", req.counters)
    vf = moddft(v, table, "fwd", req.counters)
    prod = _pointwise(uf, vf, req.field.p, req)
    return moddft(prod, table, "inv", req.counters)


def lin_conv_fft_pad(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Linear convolution by zero-padding into a power-of-two circular one."""
    return _listed(_ENGINES["fft_pad"].run(*_operands(u, v), req))


def nega_conv(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Negacyclic convolution (product mod x**n + 1) via root-of-unity twisting.

    Needs a root of order 2n, i.e. one extra level of 2-adicity beyond the
    circular case.
    """
    u, v = _operands(u, v, circular=True)
    return _listed(_product(len(u), _nega_conv, u, v, req))


def _nega_conv(table, u, v, req: ConvRequest):
    # table.size times the negacyclic product, untwisted from the circular core's.
    p = req.field.p
    twist = get_table(req.field, 2 * table.size)
    # psi**j and psi**-j for j < n, psi**2 == w_n.
    if _is_array(u):
        from ._ntt_numpy import mulmod, stage_arrays

        fwd, inv, _ = stage_arrays(twist)
        # Each stage is (twiddles, their Shoup quotients).
        circ = _circ_conv_fft(table, mulmod(u, *fwd[-1], p), mulmod(v, *fwd[-1], p), req)
        return mulmod(circ, *inv[-1], p)
    psi, inv_psi = twist.fwd_stages[-1], twist.inv_stages[-1]
    circ = _circ_conv_fft(table, _mulmod(u, psi, p), _mulmod(v, psi, p), req)
    return _mulmod(circ, inv_psi, p)


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
    return _listed(_product(size >> 1, _circ_conv_split, u, v, req))


def _circ_conv_split(table, u, v, req: ConvRequest):
    # table.size = len(u)/2 times the product, recombined from the two
    # half-size cores' products. The negacyclic half runs first, so a size
    # whose twist table the field refuses is refused before any transform.
    p = req.field.p
    ua, ub = split_residues(u, p)
    va, vb = split_residues(v, p)
    cb = _nega_conv(table, ub, vb, req)
    ca = _circ_conv_fft(table, ua, va, req)
    return recombine_residues(ca, cb, p)


def _residue_pair(lo, hi, p: int):
    # (lo + hi, lo - hi) mod p on uint64 residues: both lie in [0, 2p), and
    # where one is below p, subtracting p wraps above it.
    import numpy as np

    a = lo + hi
    b = lo - hi
    b += p
    return np.minimum(a, a - p), np.minimum(b, b - p)


def split_residues(u: list[int], p: int) -> tuple[list[int], list[int]]:
    """Residues of u mod (x**n - 1) and mod (x**n + 1), for n = len(u)/2.

    len(u) must be even and nonzero. A list holds ints (`transform._ints`).
    A uint64 ndarray u (p < 2**32) must hold residues
    (`transform._as_residues`) and gives arrays back.
    """
    n = len(u) >> 1
    if not n or len(u) & 1:
        raise ValueError(f"need an even nonzero length, got {len(u)}")
    if _is_array(u):
        u = _as_residues(u, p)
        return _residue_pair(u[:n], u[n:], p)
    u = _ints(u)
    a = [(u[j] + u[j + n]) % p for j in range(n)]
    b = [(u[j] - u[j + n]) % p for j in range(n)]
    return a, b


def recombine_residues(a: list[int], b: list[int], p: int) -> list[int]:
    """Inverse of split_residues: lift the residue pair back to length 2n.

    a and b must be nonempty and of equal length, and a list holds ints
    (`transform._ints`). An ndarray among them puts the map in arrays: each
    input then goes through `transform._as_residues`, and the result is an
    array.
    """
    if not len(a) or len(a) != len(b):
        raise ValueError(f"need equal nonempty lengths, got {len(a)} and {len(b)}")
    a, b = (x if _is_array(x) else _ints(x) for x in (a, b))
    inv2 = (p + 1) >> 1
    if _is_array(a) or _is_array(b):
        import numpy as np

        from ._ntt_numpy import mulmod, quotient

        # The residues of a followed by b are a + b and a - b.
        out = np.concatenate(_residue_pair(_as_residues(a, p), _as_residues(b, p), p))
        return mulmod(out, inv2, quotient(inv2, p), p)
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
    n = len(g) + len(h) - 1
    gf = tft(table, g, n, req.counters)
    hf = tft(table, h, n, req.counters)
    return itft(table, _pointwise(gf, hf, req.field.p, req), req.counters)


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
    # The full-size tft and itft timings scaled to z1 x z2 by exact butterfly counts.
    size, n = fwd.key.L, z1 + z2 - 1
    forward = fwd.measured_nanos * (tft_butterflies(size, z1, n) + tft_butterflies(size, z2, n))
    inverse = inv.measured_nanos * itft_butterflies(size, n)
    return forward / tft_butterflies(size, size, size) + inverse / itft_butterflies(size, size)


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
    (`planner.planned_keys`), or, for an engine `auto` never ranks, the
    reason as a string. `applies` says where `auto` ranks it, at a padded
    size the field hosts; equal costs go to the lowest `tie`.
    """

    size: Callable[[int], int] | None
    core: Callable
    cost: Callable[..., float] | str
    reads: Callable[[int], tuple] = lambda size: ()
    applies: Callable[[int, int], bool] = lambda p, size: True
    tie: int = 0

    def run(self, u, v, req: ConvRequest):
        """The product of the int sequences u and v by this engine, a list or a uint64 array."""
        if self.size is None:
            return self.core(None, u, v, req)
        return _product(self.size(len(u) + len(v) - 1), self.core, u, v, req)


# The fixed engines, in the order of ENGINES. The ranked engine without
# transforms serves every product no transform can: `auto` sends the scalar
# ones and those beyond the field's 2-adicity to it without pricing.
# kronecker is not ranked where the transforms run in numpy: the stored
# timings below 2**15 are of the Python loops, so it would win there where
# the numpy tft is 2-5x faster.
_ENGINES = {
    "definition": _Engine(None, lambda table, u, v, req: lin_conv_def(u, v, req.field),
                          "quadratic: auto never falls back to it, and it stays the oracle"),
    "fft_pad": _Engine(_next_pow2, lambda table, u, v, req: _zero_padded(_circ_conv_fft, table.size, table, u, v, req),
                       lambda z1, z2, dft: 3 * dft.measured_nanos, lambda size: (("dft", size),)),
    "tft": _Engine(_next_pow2, lambda table, u, v, req: _conv_tft(table, u, v, req), _tft_cost,
                   lambda size: (("tft", size), ("itft", size)), tie=2),
    "split": _Engine(lambda n: max(2, _next_pow2(n)) >> 1,
                     lambda table, u, v, req: _zero_padded(_circ_conv_split, 2 * table.size, table, u, v, req),
                     "fft_pad's work at half size plus a twist: no planned key times it, and it was never the fastest"),
    "kronecker": _Engine(None, lambda table, u, v, req: _kronecker(u, v, req.field), _kronecker_cost,
                         lambda size: (("conv", size), ("conv", min(size, LINEAR_WORK_L))),
                         lambda p, size: _numpy_kernels(p, size) is None, tie=1),
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
    uint64 array by `_as_residues`, the engine's core pads and multiplies in
    arrays, the product is divided by L once, and the ndarray becomes the
    DensePoly, which checks it in numpy. Every other engine, size and prime
    gets the trimmed coefficient tuples and returns a list. A product that
    ran on them at a size and prime the numpy kernels take counts as three
    transforms toward the process's switch to numpy (`transform._run`).
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
