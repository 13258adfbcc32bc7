"""Convolution engines over prime fields and the polynomial multiply dispatcher.

Engines: quadratic by-definition forms (the correctness oracles), FFT-backed
circular convolution, zero-padded linear convolution, the negacyclic twist,
the circular/negacyclic CRT split, and truncated-transform multiplication.
All engines are exact, so every applicable engine produces bit-identical
output; they differ only in operation counts.

Execution is serial. CPython holds the GIL through these pure-Python integer
loops, so worker threads cannot make them faster. `ConvRequest.threads` is
validated and kept only because the plan-store, CLI and sweep CSV formats
carry it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

from .field import FieldMismatchError, FourierPrime
from .poly import DensePoly
from .transform import OpCounters, get_table, itft, moddft, tft

if TYPE_CHECKING:
    from .planner import PlanSession

ENGINES = ("definition", "fft_pad", "tft", "split", "auto")


@dataclass
class ConvRequest:
    """How to run a convolution: field, engine, thread setting, instrumentation."""

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


def circ_conv_def(u: list[int], v: list[int], fp: FourierPrime) -> list[int]:
    """Circular convolution straight from its defining sum (oracle)."""
    n = len(u)
    if n == 0 or len(v) != n:
        raise ValueError(f"need equal nonempty lengths, got {len(u)} and {len(v)}")
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
    m, n = len(u), len(v)
    if m == 0 or n == 0:
        raise ValueError("inputs must be nonempty")
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


def _pointwise(a: list[int], b: list[int], p: int, req: ConvRequest) -> list[int]:
    """Elementwise spectral product, counted."""
    if req.counters is not None:
        req.counters.pointwise_muls += len(a)
    return [x * y % p for x, y in zip(a, b)]


def circ_conv_fft(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Circular convolution as inverse-DFT of the pointwise spectral product."""
    n = len(u)
    if n == 0 or len(v) != n:
        raise ValueError(f"need equal nonempty lengths, got {len(u)} and {len(v)}")
    if n & (n - 1):
        raise ValueError(f"length must be a power of two: {n}")
    table = get_table(req.field, n)
    uf = moddft(u, table, "fwd", req.counters)
    vf = moddft(v, table, "fwd", req.counters)
    prod = _pointwise(uf, vf, req.field.p, req)
    return moddft(prod, table, "inv", req.counters)


def lin_conv_fft_pad(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Linear convolution by zero-padding into a power-of-two circular one."""
    m, n = len(u), len(v)
    if m == 0 or n == 0:
        raise ValueError("inputs must be nonempty")
    out_len = m + n - 1
    size = _next_pow2(out_len)
    up = list(u) + [0] * (size - m)
    vp = list(v) + [0] * (size - n)
    return circ_conv_fft(up, vp, req)[:out_len]


def nega_conv(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Negacyclic convolution (product mod x**n + 1) via root-of-unity twisting.

    Needs a root of order 2n, i.e. one extra level of 2-adicity beyond the
    circular case.
    """
    n = len(u)
    if n == 0 or len(v) != n:
        raise ValueError(f"need equal nonempty lengths, got {len(u)} and {len(v)}")
    if n & (n - 1):
        raise ValueError(f"length must be a power of two: {n}")
    p = req.field.p
    twist = get_table(req.field, 2 * n)
    psi = twist.fwd_stages[-1]  # psi**j for j < n, psi**2 == w_n
    ut = [x * psi[j] % p for j, x in enumerate(u)]
    vt = [x * psi[j] % p for j, x in enumerate(v)]
    circ = circ_conv_fft(ut, vt, req)
    inv_psi = twist.inv_stages[-1]
    return [x * inv_psi[i] % p for i, x in enumerate(circ)]


def circ_conv_split(u: list[int], v: list[int], req: ConvRequest) -> list[int]:
    """Circular convolution of length 2n via the mod (x**n - 1) / (x**n + 1) split.

    Each input is reduced to its two residues, the halves are convolved
    circularly and negacyclically, and the halves are recombined with the
    inverse of 2.
    """
    size = len(u)
    if size == 0 or len(v) != size:
        raise ValueError(f"need equal nonempty lengths, got {len(u)} and {len(v)}")
    if size & (size - 1) or size < 2:
        raise ValueError(f"length must be a power of two >= 2: {size}")
    n = size >> 1
    p = req.field.p
    ua, ub = split_residues(u, p)
    va, vb = split_residues(v, p)
    ca = circ_conv_fft(ua, va, req)
    cb = nega_conv(ub, vb, req)
    return recombine_residues(ca, cb, p)


def split_residues(u: list[int], p: int) -> tuple[list[int], list[int]]:
    """Residues of u mod (x**n - 1) and mod (x**n + 1), for n = len(u)/2."""
    n = len(u) >> 1
    a = [(u[j] + u[j + n]) % p for j in range(n)]
    b = [(u[j] - u[j + n]) % p for j in range(n)]
    return a, b


def recombine_residues(a: list[int], b: list[int], p: int) -> list[int]:
    """Inverse of split_residues: lift the residue pair back to length 2n."""
    inv2 = (p + 1) >> 1
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
    z1, z2 = len(g), len(h)
    if z1 == 0 or z2 == 0:
        raise ValueError("inputs must be nonempty")
    n = z1 + z2 - 1
    size = _next_pow2(n)
    table = get_table(req.field, size)
    p = req.field.p
    gf = tft(table, g, n, req.counters)
    hf = tft(table, h, n, req.counters)
    prod = _pointwise(gf, hf, p, req)
    scaled = itft(table, prod, req.counters)
    inv_size = table.inv_size
    return [x * inv_size % p for x in scaled]


def _resolve_engine(a_len: int, b_len: int, req: ConvRequest) -> str:
    if req.engine != "auto":
        return req.engine
    if req.planner is None:
        raise ValueError("engine 'auto' requires a ConvRequest.planner plan session")
    return req.planner.resolve_engine(req.field, a_len, b_len, req.threads)


def poly_mul(a: DensePoly, b: DensePoly, req: ConvRequest) -> DensePoly:
    """Multiply polynomials with the requested engine; engines agree bit-for-bit.

    Zero inputs short-circuit to the zero polynomial without touching any
    transform. Trailing zeros are trimmed first, so engine input lengths are
    degree+1.
    """
    if a.field.p != b.field.p:
        raise FieldMismatchError(f"mixed moduli {a.field.p} and {b.field.p}")
    if a.field.p != req.field.p:
        raise FieldMismatchError(
            f"request field {req.field.p} does not match operands {a.field.p}"
        )
    if a.is_zero() or b.is_zero():
        return DensePoly.zero(a.field)
    u = list(a.normalize().coeffs)
    v = list(b.normalize().coeffs)
    engine = _resolve_engine(len(u), len(v), req)
    if engine == "definition":
        out = lin_conv_def(u, v, req.field)
    elif engine == "fft_pad":
        out = lin_conv_fft_pad(u, v, req)
    elif engine == "tft":
        out = conv_tft(u, v, req)
    elif engine == "split":
        out_len = len(u) + len(v) - 1
        size = max(2, _next_pow2(out_len))
        up = u + [0] * (size - len(u))
        vp = v + [0] * (size - len(v))
        out = circ_conv_split(up, vp, req)[:out_len]
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return DensePoly(a.field, tuple(out)).normalize()
