"""Command-line front end: verify, mul, plan, sweep.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse),
3 malformed input file, 4 mismatched moduli, 5 size beyond the field's
2-adicity, 6 I/O failure.

Sweep CSV schema: `n,engine,threads,nanos_median,nanos_mean,butterflies,
pointwise_muls`, one row per (n, engine), ASCII decimal, no quoting. The
engines run serially, so `threads` reads 1 in every row; the column stays
because the CSV header is a pinned format. A row whose size is infeasible
for the prime is replaced by the sentinel `n,engine,1,-1,-1,-1,-1` and the
sweep continues. Row `n` is the length of the product (the convolution
length); the two input lengths are the balanced split z1 = ceil((n+1)/2),
z2 = n+1-z1, each with a nonzero leading coefficient, so the product has
exactly n coefficients.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass

from .convolve import ENGINES, ConvRequest, _check_engine, poly_mul
from .field import FieldMismatchError, FourierPrime, UnsupportedSizeError, find_fourier_prime, root_of_unity
from .planner import PlanFormatError, PlanSession, PlanStore, planned_keys, store_load, store_save
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
    reps: int = 1000

    def __post_init__(self) -> None:
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("need 1 <= n_min <= n_max")
        if self.reps < 1 or self.step < 1:
            raise ValueError("reps and step must be >= 1")
        for engine in self.engines:
            _check_engine(engine)

    def sizes(self):
        return range(self.n_min, self.n_max + 1, self.step)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_verify(args) -> int:
    # Imported here, like statistics in _time_engine: `modconv mul` needs neither.
    from .verify import run_verification

    results = run_verification(seed=args.seed, cap=args.cap)
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
                polys.append(poly_from_text(PolyTextError.read(fh)))
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot read {path}: {exc}")
        except PolyTextError as exc:
            return _fail(EXIT_FILE_FORMAT, f"{path}: {exc}")
    a, b = polys
    req = ConvRequest(a.field, engine=args.engine)
    if args.engine == "auto":
        session = _session_for(args.store)
        if isinstance(session, int):
            return session
        req.planner = session
        stored = len(session.store)
    product = poly_mul(a, b, req)
    try:
        with open(args.output, "w", encoding="ascii", newline="") as fh:
            fh.write(poly_to_text(product))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.output}: {exc}")
    # Only a clone or a search grows the store; a read-only product leaves the file alone.
    if args.engine == "auto" and args.store and len(req.planner.store) != stored:
        try:
            store_save(req.planner.store, args.store)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {args.store}: {exc}")
    return EXIT_OK


def _session_for(store_path: str | None) -> PlanSession | int:
    store = PlanStore()
    if store_path and os.path.exists(store_path):
        try:
            store = store_load(store_path)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot read {store_path}: {exc}")
        except PlanFormatError as exc:
            return _fail(EXIT_FILE_FORMAT, f"{store_path}: {exc}")
    return PlanSession(store)


def cmd_plan(args) -> int:
    try:
        fp = FourierPrime.from_modulus(args.prime)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"--prime: {exc}")
    if args.max_l < 2 or args.max_l & (args.max_l - 1):
        return _fail(EXIT_USAGE, f"--max-l must be a power of two >= 2: {args.max_l}")
    try:
        root_of_unity(fp, args.max_l)
    except UnsupportedSizeError as exc:
        return _fail(EXIT_UNSUPPORTED, f"--max-l: {exc}")
    session = _session_for(args.store)
    if isinstance(session, int):
        return session
    planned = 0
    size = 2
    while size <= args.max_l:
        for key in planned_keys(fp.p, size):
            session.lookup(key)
            planned += 1
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


def _coeffs(rng: random.Random, p: int, count: int) -> tuple[int, ...]:
    # A zero leading coefficient would shorten the product, and its counters
    # would then describe a smaller n than the row's.
    return tuple([rng.randrange(p) for _ in range(count - 1)] + [rng.randrange(1, p)])


def run_sweep(cfg: SweepConfig) -> list[str]:
    """Produce the CSV rows (header included) for one sweep configuration."""
    fp = _sweep_field(cfg)
    session = PlanSession()
    rng = random.Random(0)
    rows = ["n,engine,threads,nanos_median,nanos_mean,butterflies,pointwise_muls"]
    for n in cfg.sizes():
        z1 = (n + 1) // 2
        z2 = n + 1 - z1
        a = DensePoly(fp, _coeffs(rng, fp.p, z1))
        b = DensePoly(fp, _coeffs(rng, fp.p, z2))
        for engine in cfg.engines:
            counters = OpCounters()
            req = ConvRequest(fp, engine=engine, counters=counters)
            if engine == "auto":
                req.planner = session
            try:
                poly_mul(a, b, req)
            except UnsupportedSizeError:
                rows.append(f"{n},{engine},1,{SENTINEL_ROW}")
                continue
            req.counters = None
            median, mean = _time_engine(a, b, req, cfg.reps)
            rows.append(
                f"{n},{engine},1,{median},{mean},"
                f"{counters.butterflies},{counters.pointwise_muls}"
            )
    return rows


def cmd_sweep(args) -> int:
    # Every usage error, the field's included, is refused before the output
    # is opened, and the output is opened before the first product: a bad
    # flag leaves an existing file untouched, and a bad path fails at once.
    try:
        step = 1 if args.step == "all" else int(args.step)
        cfg = SweepConfig(
            n_min=args.min,
            n_max=args.max,
            step=step,
            engines=tuple(args.engines.split(",")),
            prime=args.prime,
            prime_bits=args.prime_bits,
            reps=args.reps,
        )
        _sweep_field(cfg)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        with open(args.output, "w", encoding="ascii") as fh:
            rows = run_sweep(cfg)
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
    p_verify.set_defaults(func=cmd_verify)

    p_mul = sub.add_parser("mul", help="multiply two polynomial files")
    p_mul.add_argument("poly_a")
    p_mul.add_argument("poly_b")
    p_mul.add_argument("--engine", default="auto", choices=ENGINES)
    p_mul.add_argument("-o", "--output", required=True)
    p_mul.add_argument("--store", default=None, help="plan store path for --engine auto")
    p_mul.set_defaults(func=cmd_mul)

    p_plan = sub.add_parser("plan", help="populate a transform plan store")
    p_plan.add_argument("--store", required=True)
    p_plan.add_argument("--max-l", type=int, default=1024)
    p_plan.add_argument("--prime", type=int, default=DEFAULT_SWEEP_PRIME, help="prime to plan for (default 998244353)")
    p_plan.set_defaults(func=cmd_plan)

    p_sweep = sub.add_parser("sweep", help="benchmark engines over a size range, write CSV")
    p_sweep.add_argument("--min", type=int, required=True)
    p_sweep.add_argument("--max", type=int, required=True)
    p_sweep.add_argument("--step", default="all", help="stride, or 'all' for every size (default)")
    p_sweep.add_argument("--engines", default=",".join(SweepConfig.engines))
    sweep_field = p_sweep.add_mutually_exclusive_group()
    sweep_field.add_argument("--prime", type=int, default=DEFAULT_SWEEP_PRIME)
    sweep_field.add_argument("--prime-bits", type=int, default=None)
    p_sweep.add_argument("--reps", type=int, default=1000)
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


if __name__ == "__main__":
    sys.exit(main())
