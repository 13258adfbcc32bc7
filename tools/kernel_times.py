"""Time the numpy kernels, their stages, the list/array crossing, products, the defining sum, or the Python loops, of two modconv trees.

    python3 tools/kernel_times.py OLD_TREE NEW_TREE [--group kernels|stages|boundary|products|definition|loops]
                                  [--rounds 5] [--lo 9] [--hi 18] [--prime 998244353]

Each round runs, at every size L = 2**lo .. 2**hi over the prime P
(default 998244353; P's 2-adicity caps hi), one fresh subprocess per tree,
which imports `modconv` from TREE/src and times each call as the best of a
few calls after a warm-up call. Which tree goes first alternates by round
and by size, so the two runs of a pair meet the same host load. Both trees
must have the stacked kernels, whose `moddft` and `tft` take a stack of
inputs. The table prints, per call and size, the median over rounds of
each tree's time, and the median and quartiles of the per-round new/old
ratios: the same tree on both sides reads about 1.00.

`kernels` (the default) times `_ntt_numpy.moddft` (forward and inverse, L
inputs), `tft` (L/4 inputs, n = L/2 + 1 outputs, the shape of a balanced
product of length L/2 + 1) and `itft` (n = L/2 + 1, n = L, n = 7L/8, whose
path meets a fully known block of L/8 at its fourth level, and the deep
paths n = 3L/4 - 1, 7L/8 + 5, 15L/16 and L - 1, which cross into a high
half at most of their levels and reach itft's Python-loop cut), in ms, on
one input, as a door runs them, and `moddft_pair` and `tft_pair` (inputs
of L/4 + 1), forward calls on a stack of two, as a product runs them. The
pair rows meet both sides of the kernels' group rule (`_ntt_numpy._group`):
a pair runs together up to L = 2**13 and input by input from 2**14.

`stages` times the stages of `moddft`, `tft` and `itft` (the shapes above,
n = L/2 + 1) in us, beside one butterfly over two contiguous L/2 halves
(`butterfly`), the floor a stage's layout can reach. A stage is one call of
the kernel module's `_pass`, `_butterflies` or `_dif` (a Stockham pass, an
in-place or transposed stage), timed by a profile hook, which also fires
on each numpy call inside a stage and so inflates the smallest stages; the
table gives their count, median and largest, and the whole kernel (`total`,
timed without the hook), which also holds the gathers, transposes and steps
that are no stage. Try --lo 10 --hi 16.

`boundary` times the crossing a product makes in `poly_mul`, in ns per
coefficient, over L random residues: `to_array`, a list into uint64
residues (`_ntt_numpy.residues`), and `to_poly`, an ndarray product into a
`DensePoly`.

`products` times whole `poly_mul` products, in ms, with numpy loaded, on
`fft_pad`, `tft` and `split` at n = L/2 + 1, 7L/8 and L (split 1:1), and
the `nega_conv` and `circ_conv_split` doors on two vectors of L (rows n =
L), each on the Python loops (the numpy crossover set past every size)
and on the numpy kernels (the crossover set to 1). It prints both trees'
times, the new tree's numpy/Python ratio (the table the numpy rule,
`transform._numpy_kernels`, rests on), and the median and quartiles of the
per-round new/old ratios on each backend. Try --lo 6 --hi 11; the Python
loops make large L slow.

`definition` times `convolve.lin_conv_def` on lists, in us, with numpy
loaded, on the Python sum and on the numpy kernel (`_ntt_numpy.schoolbook`,
the switch `convolve._SCHOOLBOOK_NUMPY` set past every shape, then to 1),
at n = L outputs split 1:1, 1:7 and 1:50 (small_many's range of splits),
1 x n and 4 x n; a tree without the switch runs the Python sum on both. It
prints the products table, the shape column as z1 x z2. Try --lo 4 --hi 10:
the balanced shapes at 2**5 and 2**6 and the 4 x n ones at 2**7 and 2**8
lie on both sides of the switch.

`loops` times the pure-Python loops on lists, in us: `transform._moddft`
(forward and inverse), `_tft_loops` at z = n = L (`tft_n=L`), at z = L/4 +
1, n = L/2 + 1 (`tft`, a balanced product's shape) and at z = 7L/16, n =
7L/8 (`tft_7L/8`), and `_itft` at n = L, L/2 + 1 and 7L/8: the loops
`modconv plan` times, a process runs before it loads numpy and below the
numpy crossover, and the numpy kernels are checked against. Below 2**12
points each timing runs 2**12 / L calls and reports one call's share. Try
--lo 2 --hi 14.

Every group but `stages` times a call as the best of up to 25 runs (fewer
from L = 2**16 up) and stops after 3 once that best passes BUDGET
(`best_time`), as perfbench's `time_engine` stops at 0.1 s. A Python-loop
product at 2**14..2**16 takes 50-290 ms: timed 16-25 times each, they
would make a `--group products --lo 6 --hi 16 --rounds 9` run take about
45 minutes, where it takes about 11 (2-core x86-64 host).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# The best time, in s, past which `best_time` stops timing a call after 3 runs.
BUDGET = 0.02


def best_time(call, tries: int, batch: int = 1) -> float:
    """The best of up to `tries` timings of `batch` calls of call, per call, in s.

    From the third timing on it stops once that best passes BUDGET.
    """
    best = float("inf")
    for i in range(tries):
        t0 = time.perf_counter()
        for _ in range(batch):
            call()
        best = min(best, (time.perf_counter() - t0) / batch)
        if i >= 2 and best > BUDGET:
            break
    return best


CHILD = r"""
import json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[4])
from kernel_times import best_time
from modconv import _ntt_numpy as K, transform
from modconv.convolve import ConvRequest, circ_conv_split, nega_conv, poly_mul
from modconv.field import FourierPrime
from modconv.poly import DensePoly
from modconv.transform import get_table

CROSSOVER = transform._NUMPY_CROSSOVER

fp = FourierPrime.from_modulus(int(sys.argv[3]))
rng = np.random.default_rng(1)

STAGES = ("_pass", "_butterflies", "_dif")


def stage_times(call):
    # The durations, in us, of the stage calls one run of call makes.
    spans, starts = [], []

    def hook(frame, event, arg):
        if frame.f_code.co_name in STAGES and frame.f_globals is vars(K):
            if event == "call":
                starts.append(time.perf_counter())
            elif event == "return":
                spans.append((time.perf_counter() - starts.pop()) * 1e6)

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return spans


def stages(L, x):
    # Per kernel: the whole call, and each stage, as the best of a few runs.
    out = {}
    for name, call in calls("kernels", L, x).items():
        if name not in ("moddft", "tft", "itft"):
            continue
        runs = [stage_times(call) for _ in range(5)]
        total = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            call()
            total = min(total, time.perf_counter() - t0)
        per = [min(r[i] for r in runs) for i in range(len(runs[0]))]
        out[f"{name} {L.bit_length() - 1}"] = {"total": total * 1e6, "stages": per}
    lo, hi = x[: L // 2].copy(), x[L // 2 :].copy()
    w = x[: L // 2]
    # The stage loops take the arithmetic mod p, chosen from p.
    p = K._arith(fp.p)
    wq = p.quotient(w)
    scratch = [np.empty(L // 2, dtype=np.uint64) for _ in range(2)]
    best = float("inf")
    for _ in range(max(3, min(25, (1 << 20) // L))):
        t0 = time.perf_counter()
        K._butterflies(lo, hi, w, wq, p, *scratch)
        best = min(best, time.perf_counter() - t0)
    out[f"butterfly {L.bit_length() - 1}"] = {"total": best * 1e6, "stages": []}
    return out


def products(L):
    # poly_mul's products of length n = L/2 + 1, 7L/8 and L (split 1:1) on
    # each engine, then the nega_conv and circ_conv_split doors on two
    # vectors of L, each on each backend: the Python loops, and the numpy
    # kernels, which take every size while the crossover is 1.
    def timed(run):
        out = {}
        for backend, crossover in (("python", 1 << 62), ("numpy", 1)):
            def call(crossover=crossover):
                transform._NUMPY_CROSSOVER = crossover
                try:
                    run()
                finally:
                    transform._NUMPY_CROSSOVER = CROSSOVER
            out[backend] = call
        return out

    out = {}
    for n in (L // 2 + 1, 7 * L // 8, L):
        z = (n + 1) // 2
        a, b = (DensePoly(fp, tuple(int(v) for v in rng.integers(1, fp.p, k, dtype=np.uint64))) for k in (z, n + 1 - z))
        for engine in ("fft_pad", "tft", "split"):
            req = ConvRequest(fp, engine=engine)
            for backend, call in timed(lambda a=a, b=b, req=req: poly_mul(a, b, req)).items():
                out[f"{engine}:{backend}:n={n}"] = call
    u, v = (rng.integers(0, fp.p, L, dtype=np.uint64).tolist() for _ in range(2))
    for door in (nega_conv, circ_conv_split):
        for backend, call in timed(lambda door=door: door(u, v, ConvRequest(fp))).items():
            out[f"{door.__name__}:{backend}:n={L}"] = call
    return out


def definition(L):
    # lin_conv_def on lists, on each backend: the Python sum (the numpy
    # switch set past every shape) and the numpy kernel (the switch set to
    # 1), with numpy loaded; a tree without the switch runs the Python sum
    # on both. Shapes of n = L outputs: 1:1, 1:7 and 1:50, as small_many
    # splits its products, and the lopsided 1 x n and 4 x n.
    from modconv import convolve

    def timed(u, v):
        out = {}
        for backend, switch in (("python", 1 << 62), ("numpy", 1)):
            def call(switch=switch):
                convolve._SCHOOLBOOK_NUMPY = switch
                convolve.lin_conv_def(u, v, fp)
            out[backend] = call
        return out

    out = {}
    for shape, z in DEFINITION_SHAPES.items():
        z1 = z(L + 1)
        u, v = (rng.integers(0, fp.p, k, dtype=np.uint64).tolist() for k in (z1, L + 1 - z1))
        for backend, call in timed(u, v).items():
            out[f"{shape}:{backend}:n={z1}x{L + 1 - z1}"] = call
    return out


# The shorter side of each shape `definition` times, as a function of the
# sum of both sides.
DEFINITION_SHAPES = {
    "1/1": lambda z: z // 2,
    "1/7": lambda z: max(1, z // 8),
    "1/50": lambda z: max(1, z // 51),
    "1xn": lambda z: 1,
    "4xn": lambda z: min(4, z // 2),
}


def loops(L, x):
    # The Python loops on lists, whichever backend the process has loaded.
    t = get_table(fp, L)
    xs = x.tolist()
    half, eighth = L // 2 + 1, max(1, 7 * L // 8)
    return {
        "moddft": lambda: transform._moddft((xs,), t, "fwd"),
        "moddft_inv": lambda: transform._moddft((xs,), t, "inv"),
        "tft_n=L": lambda: transform._tft_loops(t, xs, L, None),
        "tft": lambda: transform._tft_loops(t, xs[: L // 4 + 1], half, None),
        "tft_7L/8": lambda: transform._tft_loops(t, xs[: max(1, 7 * L // 16)], eighth, None),
        "itft_n=L": lambda: transform._itft(t, xs),
        "itft": lambda: transform._itft(t, xs[:half]),
        "itft_7L/8": lambda: transform._itft(t, xs[:eighth]),
    }


def calls(group, L, x):
    if group == "loops":
        return loops(L, x)
    if group == "products":
        return products(L)
    if group == "definition":
        return definition(L)
    if group == "boundary":
        listed = x.tolist()
        return {"to_array": lambda: K.residues(listed, fp.p), "to_poly": lambda: DensePoly(fp, x)}
    t = get_table(fp, L)
    n = L // 2 + 1
    y = x[::-1].copy()
    return {
        "moddft": lambda: K.moddft((x,), t, "fwd"),
        "moddft_inv": lambda: K.moddft((x,), t, "inv"),
        "tft": lambda: K.tft(t, (x[: L // 4],), n),
        "itft": lambda: K.itft(t, x[:n]),
        "itft_n=L": lambda: K.itft(t, x),
        "itft_7L/8": lambda: K.itft(t, x[: 7 * L // 8]),
        "itft_3L/4-1": lambda: K.itft(t, x[: 3 * L // 4 - 1]),
        "itft_7L/8+5": lambda: K.itft(t, x[: 7 * L // 8 + 5]),
        "itft_15L/16": lambda: K.itft(t, x[: 15 * L // 16]),
        "itft_L-1": lambda: K.itft(t, x[: L - 1]),
        "moddft_pair": lambda: K.moddft((x, y), t, "fwd"),
        "tft_pair": lambda: K.tft(t, (x[: L // 4 + 1], y[: L // 4 + 1]), n),
    }


k, group = int(sys.argv[1]), sys.argv[2]
L = 1 << k
x = rng.integers(0, fp.p, L, dtype=np.uint64)
out = {}
if group == "stages":
    out = stages(L, x)
else:
    # The loops take microseconds at small L: time a batch of calls there.
    batch = max(1, (1 << 12) // L) if group in ("loops", "definition") else 1
    for name, call in calls(group, L, x).items():
        call()
        best = best_time(call, max(3, min(25, (1 << 20) // L)), batch)
        scale = 1e9 / L if group == "boundary" else 1e6 if group in ("loops", "definition") else 1e3
        out[f"{name} {k}"] = best * scale
print(json.dumps(out))
"""

UNITS = {"kernels": "ms", "stages": "us", "boundary": "ns/coef", "products": "ms", "loops": "us", "definition": "us"}


def run(tree: str, k: int, group: str, prime: int) -> dict:
    """The times of one fresh subprocess that imports `modconv` from tree, at L = 2**k."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    tools = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run([sys.executable, "-c", CHILD, str(k), group, str(prime), tools], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def paired(old: list, new: list, key: str) -> tuple[float, float, float]:
    """The median and the lower and upper quartiles of the per-round new/old ratios of key."""
    ratios = [n[key] / o[key] for o, n in zip(old, new)]
    if len(ratios) == 1:
        return ratios[0], ratios[0], ratios[0]
    low, mid, high = statistics.quantiles(ratios, n=4, method="inclusive")
    return mid, low, high


def print_stages(old: list, new: list) -> None:
    # Medians over rounds of each tree's totals and stage statistics, in us.
    print("| call | L | tree | total | stages | median stage | largest stage | butterfly |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for key in old[0]:
        name, k = key.split()
        if name == "butterfly":
            continue
        for label, times in (("old", old), ("new", new)):
            med = lambda f: statistics.median(f(t[key]) for t in times)
            count = len(times[0][key]["stages"])
            mid = med(lambda r: statistics.median(r["stages"]) if r["stages"] else 0.0)
            top = med(lambda r: max(r["stages"], default=0.0))
            fly = statistics.median(t[f"butterfly {k}"]["total"] for t in times)
            print(f"| {name} | 2^{k} | {label} | {med(lambda r: r['total']):.0f} | {count} | {mid:.0f} | {top:.0f} | {fly:.0f} |")


def print_products(old: list, new: list, first: str = "engine", shape: str = "n") -> None:
    # Medians over rounds, in ms (us for `definition`), of each product on
    # each backend of each tree, the new tree's numpy time over its
    # Python-loop time, and on each backend the median and quartiles of the
    # per-round new/old ratios.
    med = lambda times, key: statistics.median(t[key] for t in times)
    print(f"| {first} | L | {shape} | old python | old numpy | new python | new numpy | new numpy/python "
          "| python new/old | numpy new/old | python quartiles | numpy quartiles |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for key in old[0]:
        shape, k = key.split()
        engine, backend, n = shape.split(":")
        if backend != "python":
            continue
        cells = [f"{engine}:{b}:{n} {k}" for b in ("python", "numpy")]
        times = [med(side, cell) for side in (old, new) for cell in cells]
        ratios = [paired(old, new, cell) for cell in cells]
        print(f"| {engine} | 2^{k} | {n[2:]} | " + " | ".join(f"{t:.3f}" for t in times)
              + f" | {times[3] / times[2]:.2f} | " + " | ".join(f"{r[0]:.2f}" for r in ratios) + " | "
              + " | ".join(f"{r[1]:.2f}-{r[2]:.2f}" for r in ratios) + " |")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--group", choices=sorted(UNITS), default="kernels")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--lo", type=int, default=9)
    ap.add_argument("--hi", type=int, default=18)
    ap.add_argument("--prime", type=int, default=998244353, help="the prime to time over (default 998244353)")
    args = ap.parse_args()
    # Per side, old then new, one dict of times per round; a tree may be on both sides.
    old, new = [], []
    for r in range(args.rounds):
        rounds = ({}, {})
        for k in range(args.lo, args.hi + 1):
            for side in (0, 1) if (r + k) % 2 == 0 else (1, 0):
                rounds[side].update(run((args.old, args.new)[side], k, args.group, args.prime))
        old.append(rounds[0])
        new.append(rounds[1])
    unit = UNITS[args.group]
    if args.group == "stages":
        print_stages(old, new)
        return
    if args.group == "products":
        print_products(old, new)
        return
    if args.group == "definition":
        print_products(old, new, "shape", "z1 x z2")
        return
    print(f"| call | L | old ({unit}) | new ({unit}) | new/old | quartiles |")
    print("| --- | --- | --- | --- | --- | --- |")
    for key in old[0]:
        mid, low, high = paired(old, new, key)
        name, k = key.split()
        print(f"| {name} | 2^{k} | {statistics.median(t[key] for t in old):.3f} | "
              f"{statistics.median(t[key] for t in new):.3f} | {mid:.2f} | {low:.2f}-{high:.2f} |")


if __name__ == "__main__":
    main()
