"""Time the numpy kernels, or the list/array crossing, of two modconv source trees.

    python3 tools/kernel_times.py OLD_TREE NEW_TREE [--group kernels|boundary]
                                  [--rounds 5] [--lo 9] [--hi 18]

Each round runs one fresh subprocess per tree, alternating which tree goes
first, and each subprocess imports `modconv` from TREE/src. At every size
L = 2**lo .. 2**hi over p = 998244353 it times each call as the best of a few
calls after a warm-up call. The table prints, per call and size, the median
over rounds of each tree and new/old.

`kernels` (the default) times `_ntt_numpy.moddft` (forward, L inputs), `tft`
(L/4 inputs, n = L/2 + 1 outputs, the shape of a balanced product of length
L/2 + 1) and `itft` (n = L/2 + 1), in ms.

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


def calls(group, L, x):
    if group == "boundary":
        listed = x.tolist()
        return {"to_array": lambda: _as_residues(listed, fp.p), "to_poly": lambda: to_poly(x)}
    t = get_table(fp, L)
    n = L // 2 + 1
    return {
        "moddft": lambda: K.moddft(x, t, "fwd"),
        "tft": lambda: K.tft(t, x[: L // 4], n),
        "itft": lambda: K.itft(t, x[:n]),
    }


group = sys.argv[3]
out = {}
for k in range(int(sys.argv[1]), int(sys.argv[2]) + 1):
    L = 1 << k
    x = rng.integers(0, fp.p, L, dtype=np.uint64)
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

UNITS = {"kernels": "ms", "boundary": "ns/coef"}


def run(tree: str, lo: int, hi: int, group: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, str(lo), str(hi), group], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


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
    print(f"| call | L | old ({unit}) | new ({unit}) | new/old |")
    print("| --- | --- | --- | --- | --- |")
    for key in times[args.old][0]:
        old, new = (statistics.median(t[key] for t in times[tree]) for tree in (args.old, args.new))
        name, k = key.split()
        print(f"| {name} | 2^{k} | {old:.3f} | {new:.3f} | {new / old:.2f} |")


if __name__ == "__main__":
    main()
