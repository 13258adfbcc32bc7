"""Self-verification suites behind the `verify` CLI command.

Each suite re-derives expected values from an independent oracle (quadratic
sums, full transforms plus reordering, classical multipliers) and checks the
fast paths against them. Reports are deterministic for a fixed seed: no
timings, stable ordering, counts only.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .convolve import (
    _ENGINES,
    _SCHOOLBOOK_NUMPY,
    ConvRequest,
    _circ_conv_fft,
    _circ_conv_split,
    _conv_tft,
    circ_conv_def,
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
from .field import Felt, FourierPrime, root_of_unity
from .planner import PlanEntry, PlanKey, PlanSession, PlanStore, plan_mirror, store_load, store_save
from .poly import DensePoly, eval_poly, mul_karatsuba, mul_schoolbook, schoolbook_raw
from .transform import (
    _div_size,
    _itft,
    _moddft,
    _tft,
    OpCounters,
    bit_reverse_permute,
    get_table,
    itft,
    itft_butterflies,
    moddft,
    moddft_naive,
    tft,
    tft_butterflies,
)

SMALL_PRIME = 257
LARGE_PRIME = 998244353


def _pow2_range(limit: int, lo: int = 2):
    n = lo
    while n <= limit:
        yield n
        n <<= 1


def _suite_field_axioms(rng, cap, fields):
    for fp in fields:
        p = fp.p
        for _ in range(5000):
            a, b, c = (Felt(rng.randrange(p), fp) for _ in range(3))
            if (a + b) + c != a + (b + c):
                return False, f"associativity broke at p={p}"
            if a * (b + c) != a * b + a * c:
                return False, f"distributivity broke at p={p}"
            if a * b != b * a or a + b != b + a:
                return False, f"commutativity broke at p={p}"
            if a + (-a) != fp.zero():
                return False, f"additive inverse broke at p={p}"
    return True, f"{2 * 5000} random triples over {len(fields)} primes"


def _suite_roots(rng, cap, fields):
    checked = 0
    for fp in fields:
        p = fp.p
        for n in _pow2_range(min(cap, 1 << fp.two_adicity)):
            w = root_of_unity(fp, n).value
            if pow(w, n, p) != 1 or pow(w, n // 2, p) != p - 1:
                return False, f"root order wrong for p={p}, n={n}"
            if sum(pow(w, j, p) for j in range(n)) % p != 0:
                return False, f"geometric sum nonzero for p={p}, n={n}"
            checked += 1
    return True, f"{checked} (p, n) pairs"


def _suite_inverses(rng, cap, fields):
    for fp in fields:
        p = fp.p
        for _ in range(2000):
            a = Felt(rng.randrange(1, p), fp)
            if a.inv().inv() != a or a * a.inv() != fp.one():
                return False, f"inverse broke at p={p}"
    return True, "2000 nonzero elements per prime"


def _suite_classical_mul(rng, cap, fields):
    fp = fields[-1]
    top = min(cap, 64)
    for _ in range(150):
        la, lb = rng.randint(1, top), rng.randint(1, top)
        a = DensePoly(fp, tuple(rng.randrange(fp.p) for _ in range(la)))
        b = DensePoly(fp, tuple(rng.randrange(fp.p) for _ in range(lb)))
        want = mul_schoolbook(a, b)
        for threshold in (1, 4, 16, 128):
            if mul_karatsuba(a, b, threshold) != want:
                return False, f"karatsuba(threshold={threshold}) != schoolbook at {la}x{lb}"
    return True, f"150 random pairs, lengths <= {top}"


def _suite_eval_homomorphism(rng, cap, fields):
    fp = fields[0]
    for _ in range(200):
        a = DensePoly(fp, tuple(rng.randrange(fp.p) for _ in range(rng.randint(1, 24))))
        b = DensePoly(fp, tuple(rng.randrange(fp.p) for _ in range(rng.randint(1, 24))))
        x = Felt(rng.randrange(fp.p), fp)
        if eval_poly(mul_schoolbook(a, b), x) != eval_poly(a, x) * eval_poly(b, x):
            return False, "eval(a*b) != eval(a)*eval(b)"
    return True, "200 random products and points"


def _suite_transform_roundtrip(rng, cap, fields):
    fp = fields[-1]
    checked = 0
    for n in _pow2_range(min(cap, 1 << fp.two_adicity)):
        table = get_table(fp, n)
        x = [rng.randrange(fp.p) for _ in range(n)]
        counters = OpCounters()
        back = moddft(moddft(x, table, "fwd", counters), table, "inv", counters)
        if back != x:
            return False, f"inverse(forward(x)) != x at n={n}"
        if counters.butterflies != n * (n.bit_length() - 1):
            return False, f"butterfly count off at n={n}"
        checked += 1
    return True, f"{checked} sizes up to {min(cap, 1 << fp.two_adicity)}"


def _suite_transform_naive(rng, cap, fields):
    for fp in fields:
        for n in _pow2_range(min(cap, 128, 1 << fp.two_adicity)):
            table = get_table(fp, n)
            x = [rng.randrange(fp.p) for _ in range(n)]
            if moddft(x, table) != moddft_naive(x, table):
                return False, f"fast != naive at p={fp.p}, n={n}"
    return True, "all sizes <= 128 against the quadratic oracle"


def _suite_butterfly_counts(rng, cap, fields):
    fp = fields[-1]
    top = min(cap, 1 << fp.two_adicity)
    checked = 0
    for size in _pow2_range(top, lo=1):
        table = get_table(fp, size)
        # The edges of both halves and a few random n keep the suite linear in
        # cap; tests/test_transform.py checks every n up to 1024. The cores
        # run the Python loops on lists, which count inline.
        ns = {1, 2, size // 2, size // 2 + 1, size - 1, size}
        ns |= {rng.randint(1, size) for _ in range(4)}
        for n in sorted(k for k in ns if 1 <= k <= size):
            for z in sorted({1, n // 2 or 1, n}):
                counters = OpCounters()
                _tft(table, ([rng.randrange(fp.p) for _ in range(z)],), n, counters)
                if counters.butterflies != tft_butterflies(size, z, n):
                    return False, f"tft_butterflies != tft's count at L={size}, z={z}, n={n}"
                checked += 1
            counters = OpCounters()
            _itft(table, [rng.randrange(fp.p) for _ in range(n)], counters)
            if counters.butterflies != itft_butterflies(size, n):
                return False, f"itft_butterflies != itft's count at L={size}, n={n}"
    return True, f"{checked} (L, z, n) counts predicted exactly up to L={top}"


def _suite_truncated(rng, cap, fields):
    fp = fields[-1]
    top = min(cap, 256, 1 << fp.two_adicity)
    checked = 0
    for size in _pow2_range(top):
        table = get_table(fp, size)
        lg = size.bit_length() - 1
        ns = range(1, size + 1) if size <= 32 else sorted(
            {1, 2, size // 2, size // 2 + 1, size - 1, size}
            | {rng.randint(1, size) for _ in range(10)}
        )
        for n in ns:
            z = rng.randint(1, n)
            x = [rng.randrange(fp.p) for _ in range(z)]
            spectral = tft(table, x, n, OpCounters())
            full = bit_reverse_permute(moddft(x + [0] * (size - z), table))
            if spectral != full[:n]:
                return False, f"tft != reordered full transform at L={size}, n={n}, z={z}"
            counters = OpCounters()
            xs = x + [0] * (n - z)
            back = itft(table, tft(table, xs, n, counters), counters)
            if back != [v * size % fp.p for v in xs]:
                return False, f"itft(tft(x)) != L*x at L={size}, n={n}"
            if counters.butterflies > 2 * (n * lg / 2 + size):
                return False, f"butterfly bound broke at L={size}, n={n}"
            checked += 1
    return True, f"{checked} (L, n, z) cases up to L={top}"


def _suite_numpy_backend(rng, cap, fields):
    # The numpy kernels against the Python loops, neither of which divides
    # by L (the inverse moddft and itft return L times their result), and
    # convolve's cores on arrays, each run on the table of its door's size
    # and divided by that table's L once, against the quadratic oracles.
    try:
        from . import _ntt_numpy
    except ImportError:
        return True, "numpy not installed"
    checked = top = 0
    # The kernels run a stack in groups of whole inputs sized by their chunk
    # (_ntt_numpy._group): the two-row stacks below run together up to
    # 2**13 and one row at a time from 2**14, so --cap 16384 meets both
    # sides of the group boundary in moddft and tft, and of the row size
    # (_ntt_numpy._ROW) in every kernel.
    # 3 * 2**30 + 1 and 2**32 - 2**20 + 1 (2-adicity 20) join the fields:
    # their residue products come closest to 2**64 in the one-word product.
    # 1005 * 2**20 + 1 joins them for the lazy stage loops (p < 2**30,
    # residues in [0, 4p) between stages): its 4p comes closest to 2**32,
    # the bound of the one-word product's input. So do three primes of the
    # limb product: 2305843009448574977 and 2305843009213704193 (2-adicity
    # 25 and 11), and 2**62 - 21 * 2**20 + 1 (2-adicity 20), whose sums and
    # differences come closest to 2**64.
    extra = (1053818881, 3221225473, 4293918721, 2305843009448574977, 2305843009213704193, 4611686018405367809)
    for fp in (*fields, *map(FourierPrime.from_modulus, extra)):
        p = fp.p
        for size in _pow2_range(min(cap, 1 << fp.two_adicity), lo=1):
            top = max(top, size)
            table = get_table(fp, size)
            # Random residues and all p - 1, the largest values the uint64
            # bounds of the division-free products must hold, as one stack,
            # as a product's cores hand them. The cores run the numpy kernels
            # on arrays and the Python loops on lists.
            rows = ([rng.randrange(p) for _ in range(size)], [p - 1] * size)
            arrays = [_ntt_numpy.residues(x, p) for x in rows]
            for direction in ("fwd", "inv"):
                if _moddft(arrays, table, direction).tolist() != _moddft(rows, table, direction):
                    return False, f"numpy moddft {direction} != Python at p={p}, L={size}"
            # Every n up to 64 points; beyond, the shapes of balanced
            # products (L/2 + 1, 7L/8, L) and a few drawn at random.
            ns = {1, size // 2 or 1, size // 2 + 1, size - size // 8, size - 1 or 1, size}
            ns |= set(range(1, size + 1)) if size <= 64 else {rng.randint(1, size) for _ in range(4)}
            for n in sorted(ns):
                zs = [rng.randint(1, n) for _ in rows]
                if _tft(table, [a[:z] for a, z in zip(arrays, zs)], n).tolist() != \
                        _tft(table, [x[:z] for x, z in zip(rows, zs)], n):
                    return False, f"numpy tft != Python at p={p}, L={size}, z={zs}, n={n}"
                for a, x in zip(arrays, rows):
                    if _itft(table, a[:n]).tolist() != _itft(table, x[:n]):
                        return False, f"numpy itft != Python at p={p}, L={size}, n={n}"
                checked += 1
        # convolve's cores on uint64 arrays against the quadratic oracles.
        req = ConvRequest(fp)
        for size in _pow2_range(min(cap, 64, 1 << (fp.two_adicity - 1))):
            u = [rng.randrange(p) for _ in range(size)]
            v = [rng.randrange(p) for _ in range(size)]
            ua, va = _ntt_numpy.residues(u, p), _ntt_numpy.residues(v, p)
            full = schoolbook_raw(u, v, p) + [0]
            # Each core, its table's size, whether it twists, and the oracle's product.
            want = [
                (_conv_tft, 2 * size, False, full[:-1]),
                (_circ_conv_fft, size, False, circ_conv_def(u, v, fp)),
                (_circ_conv_split, size >> 1, True, circ_conv_def(u, v, fp)),
                (_circ_conv_fft, size, True, [(full[i] - full[i + size]) % p for i in range(size)]),
            ]
            for core, L, twists, out in want:
                table = get_table(fp, L)
                # A core that twists takes the 2L table, as `_product` hands it.
                tables = {"twist": get_table(fp, 2 * L)} if twists else {}
                if _div_size(core(table, ua, va, req, **tables), table).tolist() != out:
                    return False, f"{core.__name__}{' twisted' * twists} on uint64 arrays != oracle at p={p}, n={size}"
        # The defining sum's kernel against the Python sum at its edges
        # (`_ntt_numpy.schoolbook`): short sides on both sides of the
        # arithmetic's `limbs_from`, where the limb convolutions take over
        # from the rows, against a longer side of 256 or, if longer, of
        # `rows_ratio` times the shorter one, the shortest the rows take,
        # and one value short of it; where the cap reaches them, one value
        # past a piece of the longer side (`_PIECE` for the limbs, _CHUNK /
        # 2 for the rows) and, with `_Wide`, at the exact-sum bound `piece`
        # (512) and one past it, where the shorter side goes in two pieces.
        # On random residues, all p - 1 (whose rows, over 62-bit primes,
        # cross remainders every `terms` - 1 rows) and the widest limbs.
        f = _ntt_numpy._arith(p)
        widest = f.widest()
        edge, rows = f.limbs_from, max(256, f.rows_ratio * (f.limbs_from - 1))
        shapes = [(edge - 1, rows), (edge, rows)]
        if rows > 256:
            shapes.append((edge - 1, rows - 1))
        if _ntt_numpy._PIECE < cap:
            shapes.append((edge, _ntt_numpy._PIECE + 1))
        if _ntt_numpy._CHUNK >> 1 < cap:
            shapes.append((edge - 1, (_ntt_numpy._CHUNK >> 1) + 1))
        if f.piece < cap:
            shapes += [(f.piece, f.piece + 3), (f.piece + 1, f.piece + 1)]
        for short, long in shapes:
            for u, v in (([rng.randrange(p) for _ in range(short)], [rng.randrange(p) for _ in range(long)]),
                         ([p - 1] * short, [p - 1] * long), ([widest] * short, [widest] * long)):
                got = _ntt_numpy.schoolbook(_ntt_numpy.residues(u, p), _ntt_numpy.residues(v, p), p)
                if got.tolist() != schoolbook_raw(u, v, p):
                    return False, f"numpy schoolbook != Python sum at p={p}, {short}x{long}"
    return True, (f"{checked} (p, L, n) cases match the Python kernels up to L={top}; convolution cores on arrays "
                  "and the defining sum's kernel match the oracles")


def _suite_convolution_theorem(rng, cap, fields):
    fp = fields[-1]
    for n in _pow2_range(min(cap, 128, 1 << fp.two_adicity)):
        table = get_table(fp, n)
        for _ in range(20):
            u = [rng.randrange(fp.p) for _ in range(n)]
            v = [rng.randrange(fp.p) for _ in range(n)]
            lhs = moddft(circ_conv_def(u, v, fp), table)
            rhs = [a * b % fp.p for a, b in zip(moddft(u, table), moddft(v, table))]
            if lhs != rhs:
                return False, f"transform of convolution != pointwise product at n={n}"
    return True, "20 random pairs per size <= 128"


def _suite_engines(rng, cap, fields):
    top = min(cap, 128)
    for fp in fields:
        req = ConvRequest(fp)
        for _ in range(60):
            z1, z2 = rng.randint(1, top), rng.randint(1, top)
            a = DensePoly(fp, tuple(rng.randrange(fp.p) for _ in range(z1)))
            b = DensePoly(fp, tuple(rng.randrange(fp.p) for _ in range(z2)))
            # poly_mul normalizes; schoolbook keeps padded length on padded input.
            want = mul_schoolbook(a, b).normalize()
            for engine in _ENGINES:
                got = poly_mul(a, b, replace(req, engine=engine))
                if got != want:
                    return False, f"engine {engine} != schoolbook at p={fp.p}, {z1}x{z2}"
    return True, f"60 random pairs per prime, engines vs schoolbook, lengths <= {top}"


def _suite_split_residues(rng, cap, fields):
    fp = fields[-1]
    req = ConvRequest(fp)
    for size in _pow2_range(min(cap, 128, 1 << (fp.two_adicity - 1))):
        u = [rng.randrange(fp.p) for _ in range(size)]
        v = [rng.randrange(fp.p) for _ in range(size)]
        a, b = split_residues(u, fp.p)
        if recombine_residues(a, b, fp.p) != u:
            return False, f"recombine(split(u)) != u at 2n={size}"
        if circ_conv_split(u, v, req) != circ_conv_def(u, v, fp):
            return False, f"split engine != definition at 2n={size}"
    return True, "residue maps and split engine up to 2n=128"


def _suite_negacyclic(rng, cap, fields):
    fp = fields[-1]
    req = ConvRequest(fp)
    for size in _pow2_range(min(cap, 64, 1 << (fp.two_adicity - 1))):
        u = [rng.randrange(fp.p) for _ in range(size)]
        v = [rng.randrange(fp.p) for _ in range(size)]
        full = schoolbook_raw(u, v, fp.p) + [0]
        want = [(full[i] - full[i + size]) % fp.p for i in range(size)]
        if nega_conv(u, v, req) != want:
            return False, f"negacyclic != reduced schoolbook at n={size}"
    return True, "negacyclic vs schoolbook reduced mod x^n + 1, n <= 64"


def _suite_linear_defs(rng, cap, fields):
    # Half the pairs lie below lin_conv_def's numpy switch and half from it
    # up, to len(u) * len(v) = 4 times the switch: where numpy is loaded,
    # those run the array kernel, checked against the Python sum, and
    # elsewhere both sides run the Python sum, which one big-integer
    # product checks. The transform engines join where the field hosts
    # the product's length.
    switch = _SCHOOLBOOK_NUMPY
    for i in range(80):
        fp = fields[i // 2 % len(fields)]
        req = ConvRequest(fp)
        m = rng.randint(1, 32)
        n = rng.randint(1, (switch - 1) // m) if i % 2 else rng.randint(-(-switch // m), 4 * switch // m)
        u = [rng.randrange(fp.p) for _ in range(m)]
        v = [rng.randrange(fp.p) for _ in range(n)]
        if rng.random() < 0.5:
            u, v = v, u
        want = schoolbook_raw(u, v, fp.p)
        if lin_conv_def(u, v, fp) != want:
            return False, f"lin_conv_def != schoolbook at p={fp.p}, {len(u)}x{len(v)}"
        if lin_conv_kronecker(u, v, fp) != want:
            return False, f"kronecker != schoolbook at p={fp.p}, {len(u)}x{len(v)}"
        if m + n - 1 > 1 << fp.two_adicity:
            continue
        if lin_conv_fft_pad(u, v, req) != want:
            return False, "fft_pad != schoolbook"
        if conv_tft(u, v, req) != want:
            return False, "tft engine != schoolbook"
    return True, f"80 random pairs on both sides of the numpy switch ({switch}), definitions and engines agree"


def _fuzz_entry(rng, sig) -> PlanEntry:
    kind = rng.choice(("dft", "tft", "itft"))
    lg = rng.randint(1, 10)
    size = 1 << lg
    splits = []
    rest = lg
    while rest > 3 or (rest > 1 and rng.random() < 0.5):
        step = rng.choice([s for s in (1, 2, 3) if s <= rest - 1])
        splits.append(1 << step)
        rest -= step
    key = PlanKey(kind, LARGE_PRIME, size, rng.randint(0, size), rng.randint(0, size), rng.randint(1, 8))
    return PlanEntry(key, tuple(splits), 1 << rest, rng.randrange(10**9), sig)


def _suite_plan_store(rng, cap, fields):
    import os
    import tempfile

    for trial in range(25):
        store = PlanStore()
        sig = f"host-{rng.randint(0, 99)};cores={rng.randint(1, 64)}"
        for _ in range(rng.randint(0, 30)):
            try:
                store.add(_fuzz_entry(rng, sig))
            except ValueError:
                continue  # duplicate key from the fuzzer; uniqueness is the contract
        fd, path = tempfile.mkstemp(prefix="modconv-plan-")
        os.close(fd)
        try:
            store_save(store, path)
            if store_load(path) != store:
                return False, f"store round-trip diverged on trial {trial}"
        finally:
            os.unlink(path)
    return True, "25 fuzzed stores round-tripped"


def _suite_plan_policy(rng, cap, fields):
    ticks = iter(range(0, 10**9, 7))
    session = PlanSession(
        PlanStore(), signature="sig-a", timer=lambda: next(ticks), reps=3
    )
    key = PlanKey("tft", LARGE_PRIME, 16, 16, 16, 1)
    first = session.lookup(key)
    if session.search_count != 1:
        return False, "fresh lookup did not search"
    session.lookup(key)
    if session.search_count != 1:
        return False, "exact hit performed a search"
    other = PlanSession(session.store, signature="sig-b", timer=lambda: next(ticks))
    cloned = other.lookup(key)
    if other.search_count != 0 or cloned.exec_signature != "sig-b":
        return False, "signature miss did not clone"
    if session.store.get(key, "sig-a") != first:
        return False, "clone disturbed the original entry"
    mirrored = plan_mirror(first)
    if plan_mirror(mirrored) != first:
        return False, "mirror is not involutive"
    return True, "three-tier lookup and mirror involution"


_SUITES = (
    ("field-axioms", _suite_field_axioms),
    ("roots-of-unity", _suite_roots),
    ("inverses", _suite_inverses),
    ("classical-multipliers", _suite_classical_mul),
    ("eval-homomorphism", _suite_eval_homomorphism),
    ("transform-roundtrip", _suite_transform_roundtrip),
    ("transform-vs-naive", _suite_transform_naive),
    ("butterfly-counts", _suite_butterfly_counts),
    ("truncated-transforms", _suite_truncated),
    ("numpy-backend", _suite_numpy_backend),
    ("convolution-theorem", _suite_convolution_theorem),
    ("linear-convolutions", _suite_linear_defs),
    ("engine-agreement", _suite_engines),
    ("split-residues", _suite_split_residues),
    ("negacyclic", _suite_negacyclic),
    ("plan-store-roundtrip", _suite_plan_store),
    ("plan-lookup-policy", _suite_plan_policy),
)


def run_verification(seed: int = 0, cap: int = 256):
    """Run every suite; returns [(name, ok, detail)] in a fixed order.

    Each suite gets its own RNG, seeded from `seed` and its name, so a report
    does not depend on which suites ran before it. tests/test_cli.py proves
    that a corrupted twiddle table makes transform-roundtrip fail.
    """
    fields = [FourierPrime.from_modulus(SMALL_PRIME), FourierPrime.from_modulus(LARGE_PRIME)]
    results = []
    for name, suite in _SUITES:
        rng = random.Random(f"{seed}:{name}")
        ok, detail = suite(rng, cap, fields)
        results.append((name, ok, detail))
    return results
