"""Time the numpy kernels, their stages, or the list/array crossing, of two modconv source trees.

    python3 tools/kernel_times.py OLD_TREE NEW_TREE [--group kernels|stages|boundary]
                                  [--rounds 5] [--lo 9] [--hi 18]

Each round runs one fresh subprocess per tree, alternating which tree goes
first, and each subprocess imports `modconv` from TREE/src. At every size
L = 2**lo .. 2**hi over p = 998244353 it times each call as the best of a few
calls after a warm-up call. The table prints, per call and size, the median
over rounds of each tree and new/old.

`kernels` (the default) times `_ntt_numpy.moddft` (forward and inverse, L
inputs), `tft` (L/4 inputs, n = L/2 + 1 outputs, the shape of a balanced
product of length L/2 + 1) and `itft` (n = L/2 + 1 and n = L), in ms.
The inverse `moddft` kernel divided by L in trees before the one-scale
boundary (where `transform._div_size` became the only 1/L scale) and does
not from it on, so a `moddft_inv` row that compares a tree from each side
shows one elementwise multiply of L residues as a false gain or loss; the
forward row and the other kernels compare like with like.

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
residues (`transform._as_residues`), and `to_poly`, an ndarray product into
a `DensePoly`. A tree whose `DensePoly` does not read ndarrays in numpy (its
coefficients come out as numpy scalars) is timed on the route its
`poly_mul` took, `DensePoly(field, tuple(arr.tolist()))`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = r"""
import json, sys, time
import numpy as np
from modconv import _ntt_numpy as K
from modconv.field import FourierPrime
from modconv.poly import DensePoly
from modconv.transform import _as_residues, get_table

fp = FourierPrime.from_modulus(998244353)
rng = np.random.default_rng(1)


def to_poly(arr):
    return DensePoly(fp, arr)


if type(to_poly(np.ones(1, dtype=np.uint64)).coeffs[0]) is not int:
    def to_poly(arr):
        return DensePoly(fp, tuple(arr.tolist()))


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
    t = get_table(fp, L)
    p = np.array(fp.p, dtype=np.uint64)
    lo, hi = x[: L // 2].copy(), x[L // 2 :].copy()
    w = x[: L // 2] % np.uint64(fp.p)
    wq = K.quotient(w, fp.p)
    scratch = [np.empty(L // 2, dtype=np.uint64) for _ in range(2)]
    best = float("inf")
    for _ in range(max(3, min(25, (1 << 20) // L))):
        t0 = time.perf_counter()
        K._butterflies(lo, hi, w, wq, p, *scratch)
        best = min(best, time.perf_counter() - t0)
    out[f"butterfly {L.bit_length() - 1}"] = {"total": best * 1e6, "stages": []}
    return out


def calls(group, L, x):
    if group == "boundary":
        listed = x.tolist()
        return {"to_array": lambda: _as_residues(listed, fp.p), "to_poly": lambda: to_poly(x)}
    t = get_table(fp, L)
    n = L // 2 + 1
    return {
        "moddft": lambda: K.moddft(x, t, "fwd"),
        "moddft_inv": lambda: K.moddft(x, t, "inv"),
        "tft": lambda: K.tft(t, x[: L // 4], n),
        "itft": lambda: K.itft(t, x[:n]),
        "itft_n=L": lambda: K.itft(t, x),
    }


group = sys.argv[3]
out = {}
for k in range(int(sys.argv[1]), int(sys.argv[2]) + 1):
    L = 1 << k
    x = rng.integers(0, fp.p, L, dtype=np.uint64)
    if group == "stages":
        out.update(stages(L, x))
        continue
    for name, call in calls(group, L, x).items():
        call()
        best = float("inf")
        for _ in range(max(3, min(25, (1 << 20) // L))):
            t0 = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - t0)
        out[f"{name} {k}"] = best * 1e9 / L if group == "boundary" else best * 1e3
print(json.dumps(out))
"""

UNITS = {"kernels": "ms", "stages": "us", "boundary": "ns/coef"}


def run(tree: str, lo: int, hi: int, group: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, str(lo), str(hi), group], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def print_stages(times: dict, old: str, new: str) -> None:
    # Medians over rounds of each tree's totals and stage statistics, in us.
    print("| call | L | tree | total | stages | median stage | largest stage | butterfly |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for key in times[old][0]:
        name, k = key.split()
        if name == "butterfly":
            continue
        for label, tree in (("old", old), ("new", new)):
            med = lambda f: statistics.median(f(t[key]) for t in times[tree])
            count = len(times[tree][0][key]["stages"])
            mid = med(lambda r: statistics.median(r["stages"]) if r["stages"] else 0.0)
            top = med(lambda r: max(r["stages"], default=0.0))
            fly = statistics.median(t[f"butterfly {k}"]["total"] for t in times[tree])
            print(f"| {name} | 2^{k} | {label} | {med(lambda r: r['total']):.0f} | {count} | {mid:.0f} | {top:.0f} | {fly:.0f} |")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--group", choices=sorted(UNITS), default="kernels")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--lo", type=int, default=9)
    ap.add_argument("--hi", type=int, default=18)
    args = ap.parse_args()
    times = {args.old: [], args.new: []}
    for r in range(args.rounds):
        for tree in (args.old, args.new) if r % 2 == 0 else (args.new, args.old):
            times[tree].append(run(tree, args.lo, args.hi, args.group))
    unit = UNITS[args.group]
    if args.group == "stages":
        print_stages(times, args.old, args.new)
        return
    print(f"| call | L | old ({unit}) | new ({unit}) | new/old |")
    print("| --- | --- | --- | --- | --- |")
    for key in times[args.old][0]:
        old, new = (statistics.median(t[key] for t in times[tree]) for tree in (args.old, args.new))
        name, k = key.split()
        print(f"| {name} | 2^{k} | {old:.3f} | {new:.3f} | {new / old:.2f} |")


if __name__ == "__main__":
    main()
