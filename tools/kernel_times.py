"""Time the numpy moddft, tft and itft kernels of two modconv source trees.

    python3 tools/kernel_times.py OLD_TREE NEW_TREE [--rounds 5] [--lo 9] [--hi 18]

Each round runs one fresh subprocess per tree, alternating which tree goes
first, and each subprocess imports `modconv` from TREE/src. At every size
L = 2**lo .. 2**hi over p = 998244353 it times `_ntt_numpy.moddft` (forward,
L inputs), `tft` (L/4 inputs, n = L/2 + 1 outputs, the shape of a balanced
product of length L/2 + 1) and `itft` (n = L/2 + 1), each as the best of a
few calls after a warm-up call. The table prints, per kernel and size, the
median over rounds of each tree in ms and new/old.
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
from modconv.transform import get_table

fp = FourierPrime.from_modulus(998244353)
rng = np.random.default_rng(1)
out = {}
for k in range(int(sys.argv[1]), int(sys.argv[2]) + 1):
    L = 1 << k
    t = get_table(fp, L)
    x = rng.integers(0, fp.p, L, dtype=np.uint64)
    n = L // 2 + 1
    calls = {
        "moddft": lambda: K.moddft(x, t, "fwd"),
        "tft": lambda: K.tft(t, x[: L // 4], n),
        "itft": lambda: K.itft(t, x[:n]),
    }
    for name, call in calls.items():
        call()
        best = float("inf")
        for _ in range(max(3, min(25, (1 << 20) // L))):
            t0 = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - t0)
        out[f"{name} {k}"] = best * 1e3
print(json.dumps(out))
"""


def run(tree: str, lo: int, hi: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, str(lo), str(hi)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--lo", type=int, default=9)
    ap.add_argument("--hi", type=int, default=18)
    args = ap.parse_args()
    times = {args.old: [], args.new: []}
    for r in range(args.rounds):
        for tree in (args.old, args.new) if r % 2 == 0 else (args.new, args.old):
            times[tree].append(run(tree, args.lo, args.hi))
    print("| kernel | L | old (ms) | new (ms) | new/old |")
    print("| --- | --- | --- | --- | --- |")
    for key in times[args.old][0]:
        old, new = (statistics.median(t[key] for t in times[tree]) for tree in (args.old, args.new))
        name, k = key.split()
        print(f"| {name} | 2^{k} | {old:.3f} | {new:.3f} | {new / old:.2f} |")


if __name__ == "__main__":
    main()
