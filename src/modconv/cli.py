"""Command-line front end: verify, mul, plan, sweep.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse),
3 malformed input file, 4 mismatched moduli, 5 size beyond the field's
2-adicity, 6 I/O failure.

Sweep CSV schema: `n,engine,threads,nanos_median,nanos_mean,butterflies,
pointwise_muls`, one row per (n, engine), ASCII decimal, no quoting. A row
whose size is infeasible for the prime is replaced by the sentinel
`n,engine,threads,-1,-1,-1,-1` and the sweep continues. Row `n` is the
length of the product (the convolution length); the two input lengths are
the balanced split z1 = ceil((n+1)/2), z2 = n+1-z1.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass

from .convolve import ENGINES, ConvRequest, _next_pow2, poly_mul
from .field import FieldMismatchError, FourierPrime, UnsupportedSizeError, find_fourier_prime
from .planner import PlanFormatError, PlanKey, PlanSession, PlanStore, store_load, store_save
from .poly import DensePoly, PolyTextError, poly_from_text, poly_to_text
from .transform import OpCounters

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_FILE_FORMAT = 3
EXIT_FIELD_MISMATCH = 4
EXIT_UNSUPPORTED = 5
EXIT_IO = 6

DEFAULT_SWEEP_PRIME = 998244353
SWEEP_ENGINE_CHOICES = ("fft_pad", "tft", "auto", "definition")
SENTINEL_ROW = "-1,-1,-1,-1"


@dataclass
class SweepConfig:
    """A benchmark sweep: product-size range, engines, prime, reps."""

    n_min: int
    n_max: int
    step: int = 1
    engines: tuple[str, ...] = ("fft_pad", "tft")
    prime: int = DEFAULT_SWEEP_PRIME
    prime_bits: int | None = None
    threads: int = 1
    reps: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("need 1 <= n_min <= n_max")
        if self.reps < 1 or self.step < 1 or self.threads < 1:
            raise ValueError("reps, step and threads must be >= 1")
        for engine in self.engines:
            if engine not in SWEEP_ENGINE_CHOICES:
                raise ValueError(
                    f"unknown engine {engine!r}; choose from {SWEEP_ENGINE_CHOICES}"
                )

    def sizes(self):
        return range(self.n_min, self.n_max + 1, self.step)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_verify(args) -> int:
    # Imported here, like statistics in _time_engine: `modconv mul` needs neither.
    from .verify import run_verification

    results = run_verification(seed=args.seed, cap=args.cap, inject_fault=args.inject_fault)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        failed += not ok
        print(f"{status} {name}: {detail}")
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def cmd_mul(args) -> int:
    polys = []
    for path in (args.poly_a, args.poly_b):
        try:
            with open(path, "r", encoding="ascii", newline="") as fh:
                polys.append(poly_from_text(fh.read()))
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot read {path}: {exc}")
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            return _fail(
                EXIT_FILE_FORMAT, f"{path}: line {line}: non-ASCII byte {exc.object[exc.start]:#04x}"
            )
        except PolyTextError as exc:
            return _fail(EXIT_FILE_FORMAT, f"{path}: {exc}")
    a, b = polys
    if a.field.p != b.field.p:
        return _fail(EXIT_FIELD_MISMATCH, f"moduli differ: {a.field.p} vs {b.field.p}")
    req = ConvRequest(a.field, engine=args.engine, threads=args.threads)
    if args.engine == "auto":
        session = _session_for(args.store, args.threads)
        if isinstance(session, int):
            return session
        req.planner = session
    try:
        product = poly_mul(a, b, req)
    except UnsupportedSizeError as exc:
        return _fail(EXIT_UNSUPPORTED, str(exc))
    try:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(poly_to_text(product))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.output}: {exc}")
    if args.engine == "auto" and args.store:
        try:
            store_save(req.planner.store, args.store)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {args.store}: {exc}")
    return EXIT_OK


def _session_for(store_path: str | None, threads: int) -> PlanSession | int:
    store = PlanStore()
    if store_path and os.path.exists(store_path):
        try:
            store = store_load(store_path)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot read {store_path}: {exc}")
        except PlanFormatError as exc:
            return _fail(EXIT_FILE_FORMAT, f"{store_path}: {exc}")
    return PlanSession(store, threads=threads)


def cmd_plan(args) -> int:
    session = _session_for(args.store, args.threads)
    if isinstance(session, int):
        return session
    try:
        fp = FourierPrime.from_modulus(args.prime)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"--prime: {exc}")
    if args.max_l < 2 or args.max_l & (args.max_l - 1):
        return _fail(EXIT_USAGE, f"--max-l must be a power of two >= 2: {args.max_l}")
    if args.max_l.bit_length() - 1 > fp.two_adicity:
        return _fail(
            EXIT_UNSUPPORTED,
            f"--max-l {args.max_l} needs 2-adicity {args.max_l.bit_length() - 1}, "
            f"prime {fp.p} has {fp.two_adicity}",
        )
    planned = 0
    size = 2
    while size <= args.max_l:
        session.lookup(PlanKey("dft", fp.p, size, 0, size, args.threads))
        session.lookup(PlanKey("tft", fp.p, size, size, size, args.threads))
        session.lookup(PlanKey("itft", fp.p, size, size, size, args.threads))
        planned += 3
        size <<= 1
    try:
        store_save(session.store, args.store)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.store}: {exc}")
    print(f"planned {planned} keys up to L={args.max_l} for p={fp.p}")
    print(f"search invocations: {session.search_count}")
    print(f"store entries: {len(session.store)}")
    return EXIT_OK


def _sweep_field(cfg: SweepConfig) -> FourierPrime:
    if cfg.prime_bits is not None:
        needed = max(1, (2 * cfg.n_max - 1).bit_length())
        return find_fourier_prime(needed, cfg.prime_bits)
    return FourierPrime.from_modulus(cfg.prime)


def _time_engine(a: DensePoly, b: DensePoly, req: ConvRequest, reps: int) -> tuple[int, int]:
    import statistics

    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        poly_mul(a, b, req)
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples)), int(statistics.fmean(samples))


def run_sweep(cfg: SweepConfig) -> list[str]:
    """Produce the CSV rows (header included) for one sweep configuration."""
    fp = _sweep_field(cfg)
    session = PlanSession(threads=cfg.threads)
    rng = random.Random(cfg.seed)
    rows = ["n,engine,threads,nanos_median,nanos_mean,butterflies,pointwise_muls"]
    for n in cfg.sizes():
        z1 = (n + 1) // 2
        z2 = n + 1 - z1
        a = DensePoly(fp, tuple(rng.randrange(fp.p) for _ in range(z1)))
        b = DensePoly(fp, tuple(rng.randrange(fp.p) for _ in range(z2)))
        needed = _next_pow2(n).bit_length() - 1
        for engine in cfg.engines:
            if engine in ("fft_pad", "tft") and needed > fp.two_adicity:
                rows.append(f"{n},{engine},{cfg.threads},{SENTINEL_ROW}")
                continue
            counters = OpCounters()
            req = ConvRequest(fp, engine=engine, threads=cfg.threads, counters=counters)
            if engine == "auto":
                req.planner = session
            poly_mul(a, b, req)
            req.counters = None
            median, mean = _time_engine(a, b, req, cfg.reps)
            rows.append(
                f"{n},{engine},{cfg.threads},{median},{mean},"
                f"{counters.butterflies},{counters.pointwise_muls}"
            )
    return rows


def cmd_sweep(args) -> int:
    try:
        step = 1 if args.step == "all" else int(args.step)
        cfg = SweepConfig(
            n_min=args.min,
            n_max=args.max,
            step=step,
            engines=tuple(args.engines.split(",")),
            prime=args.prime,
            prime_bits=args.prime_bits,
            threads=args.threads,
            reps=args.reps,
            seed=args.seed,
        )
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        rows = run_sweep(cfg)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write("\n".join(rows))
            fh.write("\n")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.output}: {exc}")
    print(f"wrote {len(rows) - 1} rows to {args.output}")
    return EXIT_OK


def positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modconv",
        description="Exact polynomial multiplication over prime fields, with "
        "transform plan autotuning and benchmark sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the self-verification suites")
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_verify.add_argument("--cap", type=positive_int, default=256, help="size ceiling for the suites (default 256)")
    p_verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    p_mul = sub.add_parser("mul", help="multiply two polynomial files")
    p_mul.add_argument("poly_a")
    p_mul.add_argument("poly_b")
    p_mul.add_argument("--engine", default="auto", choices=ENGINES)
    p_mul.add_argument("-o", "--output", required=True)
    p_mul.add_argument("--threads", type=positive_int, default=1)
    p_mul.add_argument("--store", default=None, help="plan store path for --engine auto")
    p_mul.set_defaults(func=cmd_mul)

    p_plan = sub.add_parser("plan", help="populate a transform plan store")
    p_plan.add_argument("--store", required=True)
    p_plan.add_argument("--max-l", type=int, default=1024)
    p_plan.add_argument("--threads", type=positive_int, default=1)
    p_plan.add_argument("--prime", type=int, default=DEFAULT_SWEEP_PRIME, help=argparse.SUPPRESS)
    p_plan.set_defaults(func=cmd_plan)

    p_sweep = sub.add_parser("sweep", help="benchmark engines over a size range, write CSV")
    p_sweep.add_argument("--min", type=int, required=True)
    p_sweep.add_argument("--max", type=int, required=True)
    p_sweep.add_argument("--step", default="all", help="stride, or 'all' for every size (default)")
    p_sweep.add_argument("--engines", default="fft_pad,tft")
    p_sweep.add_argument("--prime", type=int, default=DEFAULT_SWEEP_PRIME)
    p_sweep.add_argument("--prime-bits", type=int, default=None)
    p_sweep.add_argument("--threads", type=positive_int, default=1)
    p_sweep.add_argument("--reps", type=int, default=1000)
    p_sweep.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    p_sweep.add_argument("-o", "--output", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FieldMismatchError as exc:
        return _fail(EXIT_FIELD_MISMATCH, str(exc))
    except UnsupportedSizeError as exc:
        return _fail(EXIT_UNSUPPORTED, str(exc))
    except PolyTextError as exc:
        return _fail(EXIT_FILE_FORMAT, str(exc))
    except PlanFormatError as exc:
        return _fail(EXIT_FILE_FORMAT, str(exc))


if __name__ == "__main__":
    sys.exit(main())
