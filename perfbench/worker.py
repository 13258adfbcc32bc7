"""In-process worker for the pow2_edge and small_many workloads.

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "size": ...,
                                  "mode": "setup"|"measure"|"trace", "passes": N}'

It imports modconv, builds the fields and every twiddle table the workload
uses, and prints "ready"; the parent times that as set-up. In "setup" mode it
stops there. Otherwise it generates the seeded inputs and runs `passes` passes
over the job list, timing each poly_mul call alone. Checks and speed-probe
samples run between calls, outside the timed region. In "trace" mode the span
wrappers are installed right after import and removed before the result is
printed. The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import gc
import json
import sys
import time

import checks
import jobs
import speed

# Seconds between speed probes: before every call where calls are long
# enough to afford it, otherwise at this spacing.
PROBE_INTERVAL = {"pow2_edge": 0.0, "small_many": 0.1}


def table_sizes(product: jobs.Product) -> set[int]:
    size = checks.next_pow2(product.n)
    out = set()
    for engine in product.engines:
        if engine in ("fft_pad", "tft"):
            out.add(size)
        elif engine == "split":
            out.update((max(2, size), max(2, size) >> 1))
    return out


def main(cfg: dict) -> dict:
    tracer = None
    import modconv
    from modconv import convolve

    if cfg["mode"] == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()

    plist = jobs.products(cfg["workload"], cfg["seed"], cfg["size"])
    fields = {p: modconv.FourierPrime.from_modulus(p) for p in sorted({j.p for j in plist})}
    for p, fp in fields.items():
        for size in sorted(set().union(*(table_sizes(j) for j in plist if j.p == p))):
            modconv.get_table(fp, size)
    print("ready", flush=True)
    if cfg["mode"] == "setup":
        return {}

    polys = [
        (fields[j.p], modconv.DensePoly(fields[j.p], j.a), modconv.DensePoly(fields[j.p], j.b))
        for j in plist
    ]
    refs = [checks.ProductCheck(modconv, a, b, cfg["seed"] * 7919 + i) for i, (_, a, b) in enumerate(polys)]
    order = [(i, e) for i, j in enumerate(plist) for e in j.engines]
    spans_s = [[(0.0, 0.0)] * len(order) for _ in range(cfg["passes"])]
    counters: list[tuple[int, int] | None] = [None] * len(order)
    failures: list[list] = []  # [pass, job, message]
    sampler = speed.Sampler(PROBE_INTERVAL[cfg["workload"]])
    clock = time.perf_counter
    for pas in range(cfg["passes"]):
        gc.collect()
        row = spans_s[pas]
        for k, (i, engine) in enumerate(order):
            sampler.maybe()
            fp, a, b = polys[i]
            ops = modconv.OpCounters()
            req = modconv.ConvRequest(fp, engine=engine, counters=ops)
            try:
                t0 = clock()
                out = convolve.poly_mul(a, b, req)
                row[k] = (t0, clock())
            except Exception as exc:  # counted as a failed product, run exits nonzero
                failures.append([pas, k, f"{engine}: {type(exc).__name__}: {exc}"])
                continue
            if tracer is not None:
                tracer.active = False
            seen = (ops.butterflies, ops.pointwise_muls)
            if pas == 0:
                counters[k] = seen
                bad = checks.counter_violation(engine, plist[i].n, *seen)
                if bad:
                    failures.append([pas, k, bad])
            elif seen != counters[k]:
                failures.append([pas, k, f"{engine}: counters {seen} != {counters[k]}"])
            if not refs[i].ok(out.coeffs):
                failures.append([pas, k, f"{engine}: wrong coefficients (n={plist[i].n})"])
            if tracer is not None:
                tracer.active = True
    sampler.maybe()
    result = {
        "jobs": [{"n": plist[i].n, "engine": e, "p": plist[i].p} for i, e in order],
        "times_s": [[end - start for start, end in row] for row in spans_s],
        "ref_s": [[(end - start) * sampler.scale(start, end) for start, end in row] for row in spans_s],
        "counters": counters,
        "digests": [hash(r.expected) for r in refs],
        "failures": failures,
    }
    if tracer is not None:
        tracer.remove()
        result["layers"] = spans.summarize(tracer.spans)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
