"""Recorded products: every engine through poly_mul and every public door, against digests of known-good output.

Each digest is a sha256 (its first 16 hex digits) over one prime's whole
shape grid: per shape, the call's output and its `OpCounters`, or the
exception it raised. The digests were produced by the commit before the
one-scale boundary (5ecf249), with the numpy kernels running every size
(their crossover moved to 1) and with numpy blocked; the two states gave
the same digest for every entry, so one is kept per (prime, engine or door)
and both states must reproduce it. Run this file as a script to print the
current tree's digests in the same layout.

Four entries were produced again when `split` came to fetch its negacyclic
twist table before running any transform: `poly_mul/split` and
`circ_conv_split` over 17 and 257, whose refusals (at a size beyond the
field's 2-adicity) no longer count the circular half's transforms. Every
other entry is the 5ecf249 digest.
"""

import hashlib
import importlib.util
import random
import sys
from unittest import mock

import pytest

from modconv import (
    ENGINES,
    ConvRequest,
    DensePoly,
    FourierPrime,
    OpCounters,
    circ_conv_fft,
    circ_conv_split,
    conv_tft,
    get_table,
    itft,
    lin_conv_fft_pad,
    lin_conv_kronecker,
    moddft,
    nega_conv,
    poly_mul,
    recombine_residues,
    split_residues,
    tft,
    transform,
)

# 2-adicity 4, 8, 23, 30, 20 and 25: the last two primes below 2**32 come
# closest to 2**64 in the numpy kernels' products, and the 62-bit one runs
# the Python loops in both states.
PRIMES = (17, 257, 998244353, 3221225473, 4293918721, 2305843009448574977)
# Product lengths on both sides of the numpy crossover (2**9) and of a
# kernel row (2**10 points).
LENGTHS = (1, 2, 3, 5, 8, 9, 31, 64, 65, 127, 448, 512, 513, 1025)


def _shapes(p):
    # (n, u, v) with len(u) + len(v) - 1 = n at 1:1 and 1:8, on random and
    # on all p - 1 coefficients.
    rng = random.Random(p)
    for n in LENGTHS:
        for z1 in ((n + 1) // 2 or 1, (n + 1) // 9 or 1):
            z2 = n + 1 - z1
            yield n, [rng.randrange(1, p) for _ in range(z1)], [rng.randrange(1, p) for _ in range(z2)]
            yield n, [p - 1] * z1, [p - 1] * z2


def _doors(fp, u, v, n):
    # Each public door on vectors of this shape: the transforms at
    # L = next_pow2(n), and the circular engines and residue maps on
    # vectors of length L.
    size = 1 << (n - 1).bit_length()
    w = (u + v) * (size // (n + 1) + 1)
    x, y = w[:size], w[size : 2 * size] or w[:size]
    y = (y + x)[:size]

    def table():
        return get_table(fp, size)

    def halves(c):
        return [a.tolist() if hasattr(a, "tolist") else a for a in split_residues(x, fp.p)]

    return {
        "moddft": lambda c: moddft(x, table(), "fwd", c),
        "moddft_inv": lambda c: moddft(x, table(), "inv", c),
        "tft": lambda c: tft(table(), u, n, c),
        "itft": lambda c: itft(table(), w[:n], c),
        "circ_conv_fft": lambda c: circ_conv_fft(x, y, ConvRequest(fp, counters=c)),
        "nega_conv": lambda c: nega_conv(x, y, ConvRequest(fp, counters=c)),
        "circ_conv_split": lambda c: circ_conv_split(x, y, ConvRequest(fp, counters=c)),
        "lin_conv_fft_pad": lambda c: lin_conv_fft_pad(u, v, ConvRequest(fp, counters=c)),
        "conv_tft": lambda c: conv_tft(u, v, ConvRequest(fp, counters=c)),
        "lin_conv_kronecker": lambda c: lin_conv_kronecker(u, v, fp),
        "split_residues": halves,
        "recombine_residues": lambda c: recombine_residues(*halves(c), fp.p),
    }


def digests(p):
    """{engine or door: digest} over p's shape grid, in the process's current numpy state."""
    fp = FourierPrime.from_modulus(p)
    hashes = {}

    def record(name, call):
        counters = OpCounters()
        try:
            out = call(counters)
        except Exception as exc:  # noqa: BLE001  a refusal is part of the record
            out = type(exc).__name__
        h = hashes.setdefault(name, hashlib.sha256())
        h.update(repr((out, counters.butterflies, counters.pointwise_muls)).encode())

    for n, u, v in _shapes(p):
        a, b = DensePoly(fp, tuple(u)), DensePoly(fp, tuple(v))
        for engine in ENGINES[:-1]:
            record(f"poly_mul/{engine}", lambda c: poly_mul(a, b, ConvRequest(fp, engine=engine, counters=c)).coeffs)
        for name, call in _doors(fp, u, v, n).items():
            record(name, call)
    return {name: h.hexdigest()[:16] for name, h in hashes.items()}


def numpy_state(state):
    """"numpy": the kernels run every size they can (crossover 1); "python": numpy blocked."""
    if state == "numpy":
        import numpy  # noqa: F401  loaded, so the crossover alone decides

        return mock.patch.object(transform, "_NUMPY_CROSSOVER", 1)
    return mock.patch.object(transform, "_load_numpy_kernels", lambda: None)


RECORDED = {
    17: {
        "poly_mul/definition": "a9b083c0af1639e6",
        "poly_mul/fft_pad": "137e5e281ff94365",
        "poly_mul/tft": "ec5e4b5b511a1209",
        "poly_mul/split": "dad83735f6c15cde",
        "poly_mul/kronecker": "a9b083c0af1639e6",
        "moddft": "c6f145bdf3801b3a",
        "moddft_inv": "2f17a1a666a31c10",
        "tft": "3792adc28e0cd07d",
        "itft": "655894b8865f8e87",
        "circ_conv_fft": "cebb94baf4f2e252",
        "nega_conv": "cd1394f3c2a1807f",
        "circ_conv_split": "121ffd3d4c5ea129",
        "lin_conv_fft_pad": "8d5e14f1370f945b",
        "conv_tft": "5aa833b2e72ed92f",
        "lin_conv_kronecker": "8963fa8d7b3fe18d",
        "split_residues": "59de27728aaceb27",
        "recombine_residues": "199ff7a0246eea5a",
    },
    257: {
        "poly_mul/definition": "c69e086522276840",
        "poly_mul/fft_pad": "70839d8ebd2681c0",
        "poly_mul/tft": "1ad03781ef101708",
        "poly_mul/split": "dac6ec1952909688",
        "poly_mul/kronecker": "c69e086522276840",
        "moddft": "a93ee91d9e90772b",
        "moddft_inv": "198209580d700eca",
        "tft": "26c792a1b33b74c8",
        "itft": "ce510d659b15e848",
        "circ_conv_fft": "3b9752e336faef83",
        "nega_conv": "f973dd198ff81354",
        "circ_conv_split": "52d3da3f276afd4a",
        "lin_conv_fft_pad": "da2533c1c1700a64",
        "conv_tft": "8abf674d29f44a17",
        "lin_conv_kronecker": "0603155243650b2d",
        "split_residues": "583e938d0cd79b70",
        "recombine_residues": "e1ebc893d5843566",
    },
    998244353: {
        "poly_mul/definition": "e020e35a6a32591f",
        "poly_mul/fft_pad": "998ac9dcdfb52880",
        "poly_mul/tft": "b377be49334a5084",
        "poly_mul/split": "708d04a36d462f87",
        "poly_mul/kronecker": "e020e35a6a32591f",
        "moddft": "b71372c53c13c164",
        "moddft_inv": "ae3531e84b4a483a",
        "tft": "39315fde41a3dbcb",
        "itft": "e00bc9ac0c52e8b6",
        "circ_conv_fft": "55de33fedd024bfa",
        "nega_conv": "f0a3dcc66be1d6e7",
        "circ_conv_split": "c759db16e17ec9b4",
        "lin_conv_fft_pad": "11561047865b404d",
        "conv_tft": "7382045c1568d2b3",
        "lin_conv_kronecker": "677108274f23c291",
        "split_residues": "d6eb9262c32ae15a",
        "recombine_residues": "bf464c14dfa78e8b",
    },
    3221225473: {
        "poly_mul/definition": "07138dda40f97e35",
        "poly_mul/fft_pad": "4d08fad3de653636",
        "poly_mul/tft": "753e70ee1a5690c5",
        "poly_mul/split": "8d9a5df5a273edca",
        "poly_mul/kronecker": "07138dda40f97e35",
        "moddft": "9b5c93932aac8c7a",
        "moddft_inv": "61af659a7d4cc6ff",
        "tft": "d2914dbaa6546e91",
        "itft": "2c664a9dd710a6d5",
        "circ_conv_fft": "2c45d89fc795413d",
        "nega_conv": "ba04399631a797a9",
        "circ_conv_split": "bb6582d7e6fa1861",
        "lin_conv_fft_pad": "6beebc74a4e4cb6a",
        "conv_tft": "4793bc90785f1ee6",
        "lin_conv_kronecker": "ad942d301c9b4572",
        "split_residues": "0e0812783f15b430",
        "recombine_residues": "97333df4fdd294f8",
    },
    4293918721: {
        "poly_mul/definition": "173d5fb28be16262",
        "poly_mul/fft_pad": "f2422a70248d55d2",
        "poly_mul/tft": "43ef909aae93f638",
        "poly_mul/split": "3741c0a73ac02748",
        "poly_mul/kronecker": "173d5fb28be16262",
        "moddft": "0848d3b9dbacc81e",
        "moddft_inv": "cc40ca7902dde816",
        "tft": "c38b4b3fdd8d0a16",
        "itft": "1879002a95cfb4b3",
        "circ_conv_fft": "cef94561660412b1",
        "nega_conv": "cfba402d7ea89e69",
        "circ_conv_split": "d6ee28fbd599aba8",
        "lin_conv_fft_pad": "611f9abe982956ce",
        "conv_tft": "fc36be4f13a9809e",
        "lin_conv_kronecker": "fbc466ccf88d7305",
        "split_residues": "313dd1eaaab28278",
        "recombine_residues": "fa826057dc490d46",
    },
    2305843009448574977: {
        "poly_mul/definition": "66951c8fac154518",
        "poly_mul/fft_pad": "f12f59475a43d48d",
        "poly_mul/tft": "37224b49f5bfa726",
        "poly_mul/split": "88d3026e121ca785",
        "poly_mul/kronecker": "66951c8fac154518",
        "moddft": "5d4ffc2e0dfdcd8c",
        "moddft_inv": "86258f44f52779f2",
        "tft": "b58a409fbf6be293",
        "itft": "579d05096202c363",
        "circ_conv_fft": "7129bbf792773dd2",
        "nega_conv": "e7c53a893130de76",
        "circ_conv_split": "db9cb92f4b3e4e7b",
        "lin_conv_fft_pad": "8dca9cf4a2bcadf2",
        "conv_tft": "78f9e1370dfe222b",
        "lin_conv_kronecker": "2ed93f39878eb845",
        "split_residues": "14edcb2bbc4020d6",
        "recombine_residues": "6926cda27a7a8729",
    },
}


@pytest.mark.parametrize("state", [
    pytest.param("numpy", marks=pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                                                   reason="numpy not installed")),
    "python",
])
@pytest.mark.parametrize("p", PRIMES)
def test_products_match_the_record(p, state):
    with numpy_state(state):
        assert digests(p) == RECORDED[p]


if __name__ == "__main__":
    for p in PRIMES:
        states = {}
        for state in ("numpy", "python"):
            with numpy_state(state):
                states[state] = digests(p)
        assert states["numpy"] == states["python"], p
        print(f"    {p}: {{")
        for name, digest in states["python"].items():
            print(f'        "{name}": "{digest}",')
        print("    },")
        sys.stdout.flush()
