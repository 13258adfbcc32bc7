"""modconv: exact dense polynomial multiplication over prime fields.

Transforms are number-theoretic (modular) FFTs plus truncated variants that
compute only the spectral prefix a product actually needs, smoothing away the
power-of-two staircase of padded FFT multiplication; Kronecker substitution
multiplies through one CPython big integer. An empirical planner times the
kernels the engines run, persists those timings, and scales them to each
product's shape to pick an engine.
"""

__version__ = "0.1.0"

from .field import (
    Felt,
    FieldMismatchError,
    FourierPrime,
    UnsupportedSizeError,
    find_fourier_prime,
    is_probable_prime,
    root_of_unity,
)
from .poly import (
    DensePoly,
    PolyTextError,
    eval_poly,
    mul_karatsuba,
    mul_schoolbook,
    poly_from_text,
    poly_to_text,
)
from .transform import (
    OpCounters,
    TwiddleTable,
    bit_reverse_permute,
    get_table,
    itft,
    itft_butterflies,
    moddft,
    moddft_naive,
    tft,
    tft_butterflies,
)
from .convolve import (
    ENGINES,
    ConvRequest,
    circ_conv_def,
    circ_conv_fft,
    circ_conv_split,
    conv_tft,
    lin_conv_def,
    lin_conv_fft_pad,
    lin_conv_kronecker,
    nega_conv,
    poly_mul,
    recombine_residues,
    split_residues,
)
from .planner import (
    PlanEntry,
    PlanFormatError,
    PlanKey,
    PlanSession,
    PlanStore,
    make_exec_signature,
    plan_mirror,
    store_load,
    store_save,
)

__all__ = [
    "__version__",
    "Felt",
    "FieldMismatchError",
    "FourierPrime",
    "UnsupportedSizeError",
    "find_fourier_prime",
    "is_probable_prime",
    "root_of_unity",
    "DensePoly",
    "PolyTextError",
    "eval_poly",
    "mul_karatsuba",
    "mul_schoolbook",
    "poly_from_text",
    "poly_to_text",
    "OpCounters",
    "TwiddleTable",
    "bit_reverse_permute",
    "get_table",
    "itft",
    "itft_butterflies",
    "moddft",
    "moddft_naive",
    "tft",
    "tft_butterflies",
    "ENGINES",
    "ConvRequest",
    "circ_conv_def",
    "circ_conv_fft",
    "circ_conv_split",
    "conv_tft",
    "lin_conv_def",
    "lin_conv_fft_pad",
    "lin_conv_kronecker",
    "nega_conv",
    "poly_mul",
    "recombine_residues",
    "split_residues",
    "PlanEntry",
    "PlanFormatError",
    "PlanKey",
    "PlanSession",
    "PlanStore",
    "make_exec_signature",
    "plan_mirror",
    "store_load",
    "store_save",
]
