"""Convolution engines over prime fields and the polynomial multiply dispatcher.

Engines: quadratic by-definition forms (the correctness oracles), FFT-backed
circular convolution, zero-padded linear convolution, the negacyclic twist,
the circular/negacyclic CRT split, truncated-transform multiplication, and
Kronecker substitution (one CPython big-integer multiply, for any prime and
any length). All engines are exact, so every applicable engine produces
bit-identical output; they differ only in operation counts.

Every engine checks its operands by one rule (`_operands`): both nonempty,
and of equal length for the circular ones. The transform-backed engines get
their table from `get_table`, which refuses a length the field cannot
transform. A linear product through a circular engine (`lin_conv_fft_pad`,
and `poly_mul`'s `split`) is one step, `_zero_padded`.

Arrays. `conv_tft`, `circ_conv_fft`, `nega_conv`, `circ_conv_split` and
`lin_conv_fft_pad` take numpy ndarrays as well as lists. Wherever the
transforms run in numpy (see `transform._numpy_kernels`, which imports numpy
from 2**15 on and takes sizes from 2**9 on once it is loaded), and whenever
an input is an ndarray, they pass each input through `transform._as_residues`
once (`transform._numpy_inputs`), keep every step in arrays (transforms,
pointwise product, 1/L scale, twist, residues) and convert the result to a
list once; `_zero_padded` pads an ndarray in numpy and a list as a list. So
an input list has its ints outside [0, p) reduced, and an input ndarray, in
any position, must be 1-D uint64 and hold residues, else ValueError. The
result is an ndarray only when every input was one. Both paths return the
same values and count the same operations. An ndarray is checked once,
where it enters: the engine reruns itself on the checked arrays under
`transform._checked`, and the engines and transforms it calls there take
their arrays as they are. `poly_mul` is the one place where a polynomial
product crosses: it converts each trimmed operand once (`_TRANSFORM_SIZE`
names the transform size that decides), calls the engine on arrays under
`_checked`, and hands the ndarray product to `DensePoly`, which
range-checks it in numpy and stores it as ints. So no padding zero is
converted, no engine converts a list it was handed by `poly_mul`, and
nothing below `poly_mul` checks its arrays again.
`circ_conv_def`, `lin_conv_def` and `lin_conv_kronecker` have no array path:
they refuse an ndarray with ValueError.

Execution is serial. CPython holds the GIL through these pure-Python integer
loops, so worker threads cannot make them faster. `ConvRequest.threads` is
validated and read by nothing: it stays in the public constructor, which
acceptance criterion 6 calls with 1 and 4. No CLI command sets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

from .field import FieldMismatchError, FourierPrime
from .poly import DensePoly, _check_fields
from .transform import OpCounters, _checked, _is_array, _numpy_inputs, _residues, get_table, itft, moddft, tft

if TYPE_CHECKING:
    from .planner import PlanSession

ENGINES = ("definition", "fft_pad", "tft", "split", "kronecker", "auto")


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
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


def _operands(u, v, circular: bool = False, arrays: bool = True) -> None:
    """The engines' operand rule: both nonempty, of equal length for a circular engine.

    An engine without an array path (arrays=False) refuses an ndarray, on
    whose uint64 scalars its loops would wrap.
    """
    if not len(u) or not len(v) or circular and len(u) != len(v):
        kind = "equal nonempty" if circular else "nonempty"
        raise ValueError(f"need {kind} lengths, got {len(u)} and {len(v)}")
    if not arrays and (_is_array(u) or _is_array(v)):
        raise ValueError("this engine takes lists, not ndarrays")


def _zero_padded(circ, u, v, req: ConvRequest, least: int):
    """The linear product u * v as circ on both zero-padded to max(least, next_pow2(n)), cut to n.

    Each input is padded in its own type. An ndarray is checked by circ's
    array rule (`_as_residues`) before it is copied into a zeroed uint64
    array, so only its own values are converted, and two padded arrays go
    to circ as checked.
    """
    n = len(u) + len(v) - 1
    size = max(least, _next_pow2(n))

    def pad(w):
        if _is_array(w):
            import numpy as np

            out = np.zeros(size, dtype=np.uint64)
            out[: len(w)] = _residues(w, req.field.p)
            return out
        return list(w) + [0] * (size - len(w))

    pu, pv = pad(u), pad(v)
    if _is_array(pu) and _is_array(pv):
        return _checked(circ, pu, pv, req)[:n]
    return circ(pu, pv, req)[:n]


def _rerun(engine, arrays, req: ConvRequest, *given):
    """engine on the arrays `_numpy_inputs` made of given, under `_checked`.

    The product is an ndarray only where every given input was one.
    """
    out = _checked(engine, *arrays, req)
    return out if all(map(_is_array, given)) else out.tolist()


def circ_conv_def(u: list[int], v: list[int], fp: FourierPrime) -> list[int]:
    """Circular convolution straight from its defining sum (oracle)."""
    _operands(u, v, circular=True, arrays=False)
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
    _operands(u, v, arrays=False)
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
    _operands(u, v, circular=True)
    table = get_table(req.field, len(u))
    arrays = _numpy_inputs(table, u, v)
    if arrays is not None:
        return _rerun(circ_conv_fft, arrays, req, u, v)
    uf = moddft(u, table, "fwd", req.counters)
    vf = moddft(v, table, "fwd", req.counters)
    prod = _pointwise(uf, vf, req.field.p, req)
    return moddft(prod, table, "inv", req.counters)


def lin_conv_fft_pad(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Linear convolution by zero-padding into a power-of-two circular one."""
    _operands(u, v)
    return _zero_padded(circ_conv_fft, u, v, req, 1)


def nega_conv(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Negacyclic convolution (product mod x**n + 1) via root-of-unity twisting.

    Needs a root of order 2n, i.e. one extra level of 2-adicity beyond the
    circular case.
    """
    _operands(u, v, circular=True)
    n = len(u)
    arrays = _numpy_inputs(get_table(req.field, n), u, v)
    if arrays is not None:
        return _rerun(nega_conv, arrays, req, u, v)
    p = req.field.p
    twist = get_table(req.field, 2 * n)
    # psi**j and psi**-j for j < n, psi**2 == w_n.
    if _is_array(u):
        from ._ntt_numpy import mulmod, stage_arrays

        fwd, inv, _ = stage_arrays(twist)
        # Each stage is (twiddles, their Shoup quotients).
        circ = circ_conv_fft(mulmod(u, *fwd[-1], p), mulmod(v, *fwd[-1], p), req)
        return mulmod(circ, *inv[-1], p)
    psi, inv_psi = twist.fwd_stages[-1], twist.inv_stages[-1]
    circ = circ_conv_fft(_mulmod(u, psi, p), _mulmod(v, psi, p), req)
    return _mulmod(circ, inv_psi, p)


def circ_conv_split(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Circular convolution of length 2n via the mod (x**n - 1) / (x**n + 1) split.

    Each input is reduced to its two residues, the halves are convolved
    circularly and negacyclically, and the halves are recombined with the
    inverse of 2.
    """
    _operands(u, v, circular=True)
    size = len(u)
    # Halving drops an odd length's last bit, so get_table(n) cannot refuse it.
    if size & (size - 1) or size < 2:
        raise ValueError(f"length must be a power of two >= 2: {size}")
    n = size >> 1
    arrays = _numpy_inputs(get_table(req.field, n), u, v)
    if arrays is not None:
        return _rerun(circ_conv_split, arrays, req, u, v)
    p = req.field.p
    ua, ub = split_residues(u, p)
    va, vb = split_residues(v, p)
    ca = circ_conv_fft(ua, va, req)
    cb = nega_conv(ub, vb, req)
    return recombine_residues(ca, cb, p)


def split_residues(u: list[int], p: int) -> tuple[list[int], list[int]]:
    """Residues of u mod (x**n - 1) and mod (x**n + 1), for n = len(u)/2."""
    n = len(u) >> 1
    if _is_array(u):
        import numpy as np

        # Both lie in [0, 2p); where one is below p, subtracting p wraps above it.
        lo, hi = u[:n], u[n:]
        a = lo + hi
        b = lo - hi
        b += p
        return np.minimum(a, a - p), np.minimum(b, b - p)
    a = [(u[j] + u[j + n]) % p for j in range(n)]
    b = [(u[j] - u[j + n]) % p for j in range(n)]
    return a, b


def recombine_residues(a: list[int], b: list[int], p: int) -> list[int]:
    """Inverse of split_residues: lift the residue pair back to length 2n."""
    inv2 = (p + 1) >> 1
    if _is_array(a):
        import numpy as np

        from ._ntt_numpy import mulmod, quotient

        # The residues of a followed by b are a + b and a - b.
        out = np.concatenate(split_residues(np.concatenate((a, b)), p))
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
    _operands(g, h)
    n = len(g) + len(h) - 1
    size = _next_pow2(n)
    table = get_table(req.field, size)
    arrays = _numpy_inputs(table, g, h)
    if arrays is not None:
        return _rerun(conv_tft, arrays, req, g, h)
    p = req.field.p
    gf = tft(table, g, n, req.counters)
    hf = tft(table, h, n, req.counters)
    prod = _pointwise(gf, hf, p, req)
    scaled = itft(table, prod, req.counters)
    inv_size = table.inv_size
    if _is_array(scaled):
        from ._ntt_numpy import mulmod, quotient

        return mulmod(scaled, inv_size, quotient(inv_size, p), p)
    return [x * inv_size % p for x in scaled]


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
    _operands(u, v, arrays=False)
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


# Each fixed engine's call on two coefficient vectors. The lambdas look the
# engines up by module name when called, so a replaced name (a tracer's
# wrapper) is the one that runs.
_ENGINE_CALLS = {
    "definition": lambda u, v, req: lin_conv_def(u, v, req.field),
    "fft_pad": lambda u, v, req: lin_conv_fft_pad(u, v, req),
    "tft": lambda u, v, req: conv_tft(u, v, req),
    "split": lambda u, v, req: _zero_padded(circ_conv_split, u, v, req, 2),
    "kronecker": lambda u, v, req: lin_conv_kronecker(u, v, req.field),
}

# The transform size whose backend each engine with an array path takes for
# a product of length n: the size its `_numpy_inputs` reads when called on
# lists. poly_mul hands an engine arrays exactly where that size runs in numpy.
_TRANSFORM_SIZE = {
    "fft_pad": _next_pow2,
    "tft": _next_pow2,
    "split": lambda n: max(2, _next_pow2(n)) >> 1,
}


def _resolve_engine(a_len: int, b_len: int, req: ConvRequest) -> str:
    if req.engine != "auto":
        return req.engine
    if req.planner is None:
        raise ValueError("engine 'auto' requires a ConvRequest.planner plan session")
    return req.planner.resolve_engine(req.field, a_len, b_len)


def poly_mul(a: DensePoly, b: DensePoly, req: ConvRequest) -> DensePoly:
    """Multiply polynomials with the requested engine; engines agree bit-for-bit.

    Zero inputs short-circuit to the zero polynomial without touching any
    transform. Trailing zeros are trimmed first, so engine input lengths are
    degree+1.

    This is where a product crosses between Python ints and numpy, once each
    way. Where the engine's transforms run in numpy (`_TRANSFORM_SIZE` and
    `transform._numpy_inputs`), each trimmed operand is converted to a uint64
    array by `_as_residues`, the engine pads and multiplies in arrays, and
    its ndarray product becomes the DensePoly, which checks it in numpy.
    Every other engine, size and prime gets lists and returns a list.
    """
    _check_fields(a, b)
    if a.field.p != req.field.p:
        raise FieldMismatchError(
            f"request field {req.field.p} does not match operands {a.field.p}"
        )
    if a.is_zero() or b.is_zero():
        return DensePoly.zero(a.field)
    u, v = a.normalize().coeffs, b.normalize().coeffs
    engine = _resolve_engine(len(u), len(v), req)
    arrays = None
    if engine in _TRANSFORM_SIZE:
        table = get_table(req.field, _TRANSFORM_SIZE[engine](len(u) + len(v) - 1))
        arrays = _numpy_inputs(table, u, v)
    if arrays is None:
        product = _ENGINE_CALLS[engine](list(u), list(v), req)
    else:
        product = _checked(_ENGINE_CALLS[engine], *arrays, req)
    return DensePoly(a.field, product).normalize()
