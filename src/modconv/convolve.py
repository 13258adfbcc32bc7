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

Doors and cores. Every public engine takes lists and returns a list; an
ndarray operand raises ValueError (`_operands`). Each transform-backed
engine (`circ_conv_fft`, `nega_conv`, `circ_conv_split`, `conv_tft`,
`lin_conv_fft_pad`) is a door over a private core (`_circ_conv_fft`,
`_nega_conv`, `_circ_conv_split`, `_conv_tft`, and `_zero_padded` for the
padded ones). Wherever its transforms run in numpy (see
`transform._numpy_kernels`, which takes sizes from 2**9 on once a
transform of 2**15, or the process's earlier Python-loop transforms, have
paid for importing numpy), the door converts each input once
(`transform._listed`, which reduces ints outside [0, p)), and converts
the core's result to a list once. A core trusts what it is handed and calls
only cores. On uint64 arrays every step stays in arrays (transforms,
pointwise product, 1/L scale, twist, residues, padding); on lists every
step runs the Python loops. Both paths return the same values and count the
same operations. `poly_mul` converts each trimmed operand itself, calls the
core from `_ENGINES`, and hands an ndarray product to `DensePoly`, which
range-checks it in numpy and stores it as ints. So no padding zero is
converted, and nothing below a door or `poly_mul` checks its arrays again.
The residue maps are public and called by the split core, so they take
lists or uint64 arrays, and check an array by `transform._as_residues`' rule.

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
from .transform import OpCounters, _as_residues, _is_array, _listed, _numpy_inputs, _ran_in_python, get_table

# The engines call the transform cores by these module names, as they call
# split_residues and recombine_residues: a tracer that replaces
# `convolve.tft` (perfbench's spans do) then sees every transform a product runs.
from .transform import _itft as itft, _moddft as moddft, _tft as tft

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


def _operands(u, v, circular: bool = False) -> None:
    """The engines' operand rule: lists, both nonempty, of equal length for a circular engine.

    An ndarray is refused: only the cores take arrays.
    """
    if not len(u) or not len(v) or circular and len(u) != len(v):
        kind = "equal nonempty" if circular else "nonempty"
        raise ValueError(f"need {kind} lengths, got {len(u)} and {len(v)}")
    if _is_array(u) or _is_array(v):
        raise ValueError("engines take lists, not ndarrays")


def _zero_padded(circ, u, v, req: ConvRequest, least: int):
    """The linear product u * v as the core circ on both zero-padded to max(least, next_pow2(n)), cut to n.

    Both inputs are uint64 arrays or both lists, and are padded in their own
    type, so that only their own values were converted.
    """
    n = len(u) + len(v) - 1
    size = max(least, _next_pow2(n))

    def pad(w):
        if _is_array(w):
            import numpy as np

            out = np.zeros(size, dtype=np.uint64)
            out[: len(w)] = w
            return out
        return list(w) + [0] * (size - len(w))

    return circ(pad(u), pad(v), req)[:n]


def circ_conv_def(u: list[int], v: list[int], fp: FourierPrime) -> list[int]:
    """Circular convolution straight from its defining sum (oracle)."""
    _operands(u, v, circular=True)
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
    _operands(u, v)
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
    return _listed(get_table(req.field, len(u)), lambda a, b: _circ_conv_fft(a, b, req), u, v)


def _circ_conv_fft(u, v, req: ConvRequest):
    table = get_table(req.field, len(u))
    uf = moddft(u, table, "fwd", req.counters)
    vf = moddft(v, table, "fwd", req.counters)
    prod = _pointwise(uf, vf, req.field.p, req)
    return moddft(prod, table, "inv", req.counters)


def lin_conv_fft_pad(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Linear convolution by zero-padding into a power-of-two circular one."""
    _operands(u, v)
    return _linear("fft_pad", u, v, req)


def nega_conv(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Negacyclic convolution (product mod x**n + 1) via root-of-unity twisting.

    Needs a root of order 2n, i.e. one extra level of 2-adicity beyond the
    circular case.
    """
    _operands(u, v, circular=True)
    return _listed(get_table(req.field, len(u)), lambda a, b: _nega_conv(a, b, req), u, v)


def _nega_conv(u, v, req: ConvRequest):
    p = req.field.p
    twist = get_table(req.field, 2 * len(u))
    # psi**j and psi**-j for j < n, psi**2 == w_n.
    if _is_array(u):
        from ._ntt_numpy import mulmod, stage_arrays

        fwd, inv, _ = stage_arrays(twist)
        # Each stage is (twiddles, their Shoup quotients).
        circ = _circ_conv_fft(mulmod(u, *fwd[-1], p), mulmod(v, *fwd[-1], p), req)
        return mulmod(circ, *inv[-1], p)
    psi, inv_psi = twist.fwd_stages[-1], twist.inv_stages[-1]
    circ = _circ_conv_fft(_mulmod(u, psi, p), _mulmod(v, psi, p), req)
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
    return _listed(get_table(req.field, size >> 1), lambda a, b: _circ_conv_split(a, b, req), u, v)


def _circ_conv_split(u, v, req: ConvRequest):
    p = req.field.p
    ua, ub = split_residues(u, p)
    va, vb = split_residues(v, p)
    ca = _circ_conv_fft(ua, va, req)
    cb = _nega_conv(ub, vb, req)
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

    len(u) must be even and nonzero. A uint64 ndarray u (p < 2**32) must
    hold residues (`transform._as_residues`) and gives arrays back.
    """
    n = len(u) >> 1
    if not n or len(u) & 1:
        raise ValueError(f"need an even nonzero length, got {len(u)}")
    if _is_array(u):
        u = _as_residues(u, p)
        return _residue_pair(u[:n], u[n:], p)
    a = [(u[j] + u[j + n]) % p for j in range(n)]
    b = [(u[j] - u[j + n]) % p for j in range(n)]
    return a, b


def recombine_residues(a: list[int], b: list[int], p: int) -> list[int]:
    """Inverse of split_residues: lift the residue pair back to length 2n.

    a and b must be nonempty and of equal length. An ndarray among them puts
    the map in arrays: each input then goes through `transform._as_residues`,
    and the result is an array.
    """
    if not len(a) or len(a) != len(b):
        raise ValueError(f"need equal nonempty lengths, got {len(a)} and {len(b)}")
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
    _operands(g, h)
    return _linear("tft", g, h, req)


def _conv_tft(g, h, req: ConvRequest):
    n = len(g) + len(h) - 1
    table = get_table(req.field, _next_pow2(n))
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
    _operands(u, v)
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


# Each fixed engine's (transform-size rule, core) for a product of length n.
# The rule gives the size whose transforms decide, as in
# `transform._numpy_inputs`, whether the core is handed uint64 arrays; None
# for an engine without transforms, which always gets lists. The lambdas look
# the cores up by module name when called, so a replaced name (a tracer's
# wrapper) is the one that runs.
_ENGINES = {
    "definition": (None, lambda u, v, req: lin_conv_def(u, v, req.field)),
    "fft_pad": (_next_pow2, lambda u, v, req: _zero_padded(_circ_conv_fft, u, v, req, 1)),
    "tft": (_next_pow2, lambda u, v, req: _conv_tft(u, v, req)),
    "split": (lambda n: max(2, _next_pow2(n)) >> 1, lambda u, v, req: _zero_padded(_circ_conv_split, u, v, req, 2)),
    "kronecker": (None, lambda u, v, req: lin_conv_kronecker(u, v, req.field)),
}


def _linear(engine: str, u, v, req: ConvRequest) -> list[int]:
    # A linear engine's door, after its operand check.
    size, core = _ENGINES[engine]
    return _listed(get_table(req.field, size(len(u) + len(v) - 1)), lambda a, b: core(a, b, req), u, v)


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
    way. Where the engine's transforms run in numpy (`_ENGINES` and
    `transform._numpy_inputs`), each trimmed operand is converted to a uint64
    array by `_as_residues`, the engine's core pads and multiplies in arrays,
    and its ndarray product becomes the DensePoly, which checks it in numpy.
    Every other engine, size and prime gets lists and returns a list. A
    product that ran on lists at a size and prime the numpy kernels take
    counts as three transforms toward the process's switch to numpy
    (`transform._ran_in_python`).
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
    size, core = _ENGINES[engine]
    table = None if size is None else get_table(req.field, size(len(u) + len(v) - 1))
    arrays = None if table is None else _numpy_inputs(table, u, v)
    product = core(*(arrays or (list(u), list(v))), req)
    if table is not None and arrays is None:
        _ran_in_python(table, 3)
    return DensePoly(a.field, product).normalize()
