"""modconv benchmark: seeded workloads, checked products, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {pow2_edge,small_many,cli_auto} \\
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Run it from the root of a modconv source tree; the program is imported from
./src, nothing is installed. With --trace 0 the last line of stdout is
{"correct", "attempted", "failed", "metrics"} holding the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a separate traced pass. The
line before it is {"detail": ...}: every metric the workload defines, with
provenance, counter totals and the reasons any per-layer metric is 0 on this
workload. A wrong product, a broken counter bound, an exception or a nonzero
CLI exit makes "correct" false and the exit code 1. A missing source tree or
a crashed worker exits 2 without a result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import jobs
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
HOLDOUT_SEED = 7717  # never used while tuning; confirm claims on it

# About one pass of each workload on a 2-core x86-64 host (CPython 3.11). --seconds
# fixes the number of passes through it, so every commit measures the same work.
PASS_SECONDS = {"pow2_edge": 6.5, "small_many": 1.1, "cli_auto": 12.0}
SETUP_REPS = {"pow2_edge": 5, "small_many": 5, "cli_auto": 3}
CHILD_TIMEOUT_S = 170
PARENT_PROBES = 3  # probe samples after each child process: few calls, so each gets several
DEFINITION_TIMING_CAP = 1 << 20  # z1*z2 above which pick_regret skips timing definition

END_TO_END = {"wall_s": "s", "setup_s": "s", "mul_ms_p50": "ms", "mul_ms_tail": "ms"}
PER_LAYER = {
    "transform.fwd_s": "s",
    "transform.inv_s": "s",
    "transform.ns_per_butterfly": "ns",
    "transform.share": "ratio",
    "transform.butterflies": "count",
    "transform.table_s": "s",
    "transform.table_builds": "count",
    "convolve.self_s": "s",
    "convolve.definition_s": "s",
    "convolve.residue_s": "s",
    "convolve.pointwise_muls": "count",
    "planner.search_s": "s",
    "planner.searches": "count",
    "planner.hits": "count",
    "planner.clones": "count",
    "planner.store_entries": "count",
    "planner.load_s": "s",
    "planner.save_s": "s",
    "planner.resolve_s": "s",
    "planner.quadratic_picks": "count",
    "planner.pick_regret": "ratio",
    "poly.parse_s": "s",
    "poly.serialize_s": "s",
    "poly.bytes_in": "bytes",
    "poly.bytes_out": "bytes",
    "poly.normalize_s": "s",
    "field.from_modulus_s": "s",
    "field.from_modulus_calls": "count",
    "cli.startup_s": "s",
    "cli.main_s": "s",
    "cli.io_s": "s",
    "cli.nonzero_exits": "count",
    "bench.trace_overhead": "ratio",
}
# Why a per-layer metric reads 0 on a workload, by metric name or by layer.
IN_PROCESS_ZEROS = {
    "planner": "no plan session: fixed engines only",
    "poly.parse_s": "no text format in-process",
    "poly.serialize_s": "no text format in-process",
    "poly.bytes_in": "no text format in-process",
    "poly.bytes_out": "no text format in-process",
    "cli": "no CLI process on this workload",
    "convolve.definition_s": "no definition engine in this workload",
}
CLI_ZEROS = {
    "convolve.definition_s": "auto picked no definition",
    "convolve.residue_s": "auto never picks split",
    "transform": "auto picked no transform engine",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Child:
    """A finished child process: exit code, stdout, and perf_counter() marks."""

    def __init__(self, argv: list[str], env: dict, ready: bool = False):
        self.start = time.perf_counter()
        self.ready = None  # when it printed "ready", if asked to wait for that
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            if ready and proc.stdout.readline().strip() == "ready":
                self.ready = time.perf_counter()
            self.out = proc.stdout.read()
            self.code = proc.wait()
            self.end = time.perf_counter()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()

    def result(self) -> dict:
        lines = self.out.strip().splitlines()
        if not lines:
            raise BenchError("child printed no result")
        return json.loads(lines[-1])


def time_metrics(per_call_s: list[list[float]], labels: list[str]) -> tuple[dict, list[float], dict]:
    """End-to-end times from a [pass][call] matrix of seconds.

    One pass's wall time (and each label's share of it) is the sum of the
    per-call medians over the passes, so a burst of outside load that hits
    one pass of a call does not count. Latency percentiles use every sample.
    """
    per_call = [statistics.median(col) for col in zip(*per_call_s)]
    metrics = {"wall_s": sum(per_call)}
    for label in dict.fromkeys(labels):
        metrics[f"{label}_s"] = sum(t for t, lb in zip(per_call, labels) if lb == label)
    lat = [t * 1e3 for row in per_call_s for t in row]
    q = checks.tail_rank(len(lat))
    metrics["mul_ms_p50"] = statistics.median(lat)
    metrics["mul_ms_tail"] = checks.percentile(lat, q)
    return metrics, per_call, {"tail_percentile": q, "latency_samples": len(lat)}


def unit_of(name: str) -> str:
    """Unit of any metric the benchmark prints, declared in BENCHMARK.json or not."""
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.startswith("mul_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "ratio"


def passes_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def result(metrics: dict, raw: dict, info: dict, failures: list, attempted: int, counters) -> dict:
    return {"metrics": metrics, "info": dict(info, raw_times=raw), "failures": failures,
            "attempted": attempted, "counters": counters}


# -- in-process workloads ------------------------------------------------------


def worker(env: dict, cfg: dict, ready: bool = False) -> Child:
    child = Child([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)], env, ready=ready)
    if child.code != 0 or (ready and child.ready is None):
        raise BenchError(f"worker {cfg['mode']} exited {child.code}")
    return child


def staircase(jobs_: list[dict], per_call_s: list[float]) -> dict:
    """Median over k of t(2^k+1)/t(2^k), per engine."""
    at = {(j["n"], j["engine"]): t for j, t in zip(jobs_, per_call_s)}
    out = {}
    for engine in ("tft", "fft_pad"):
        ratios = [at[(n + 1, engine)] / at[(n, engine)] for (n, e) in at
                  if e == engine and n & (n - 1) == 0 and (n + 1, engine) in at]
        if ratios:
            out[f"staircase_{engine}"] = statistics.median(ratios)
    return out


def counter_totals(res: dict) -> dict:
    seen = [c for c in res["counters"] if c is not None]
    return {"butterflies": sum(c[0] for c in seen), "pointwise_muls": sum(c[1] for c in seen)}


def run_in_process(args, env: dict, probe: speed.Sampler) -> dict:
    base = {"workload": args.workload, "seed": args.seed, "size": args.size}
    setups = []
    for _ in range(SETUP_REPS[args.workload]):
        setups.append(worker(env, dict(base, mode="setup", passes=0), ready=True))
        probe.maybe(PARENT_PROBES)
    setup_raw = [c.ready - c.start for c in setups]
    setup_ref = [(c.ready - c.start) * probe.scale(c.start, c.ready) for c in setups]
    if not args.trace:
        res = worker(env, dict(base, mode="measure", passes=passes_for(args.workload, args.seconds))).result()
        engines = [j["engine"] for j in res["jobs"]]
        metrics, per_call, info = time_metrics(res["ref_s"], engines)
        raw, _, _ = time_metrics(res["times_s"], engines)
        if args.workload == "pow2_edge":
            metrics.update(staircase(res["jobs"], per_call))
        metrics["setup_s"] = statistics.median(setup_ref)
        raw["setup_s"] = statistics.median(setup_raw)
        info["pass_walls_s"] = [sum(row) for row in res["times_s"]]
        return result(metrics, raw, info, res["failures"], len(res["times_s"]) * len(res["jobs"]),
                      counter_totals(res))
    plain = worker(env, dict(base, mode="measure", passes=1)).result()
    traced = worker(env, dict(base, mode="trace", passes=1)).result()
    failures = plain["failures"] + traced["failures"]
    if traced["counters"] != plain["counters"] or traced["digests"] != plain["digests"]:
        failures.append([0, -1, "traced pass differs from untraced pass in counters or coefficients"])
    layers = dict(traced["layers"])
    totals = counter_totals(traced)
    layers.update({
        "transform.butterflies": totals["butterflies"],
        "convolve.pointwise_muls": totals["pointwise_muls"],
        "planner.pick_regret": 0.0,
        "cli.startup_s": 0.0,
        "cli.nonzero_exits": 0,
    })
    walls = {"traced": sum(traced["times_s"][0]),
             "traced_ref": sum(traced["ref_s"][0]), "plain_ref": sum(plain["ref_s"][0])}
    return finish_layers(layers, walls, 2 * len(plain["jobs"]), failures, totals, IN_PROCESS_ZEROS)


def finish_layers(layers: dict, walls: dict, attempted: int, failures: list, counters: dict,
                  zeros: dict) -> dict:
    """Derived per-layer metrics. walls: raw traced wall, and both walls in reference seconds."""
    transform_s = layers["transform.fwd_s"] + layers["transform.inv_s"]
    bf = layers["transform.butterflies"]
    layers["transform.ns_per_butterfly"] = transform_s * 1e9 / bf if bf else 0.0
    layers["transform.share"] = transform_s / walls["traced"]
    layers["bench.trace_overhead"] = walls["traced_ref"] / walls["plain_ref"] - 1
    metrics = {k: layers[k] for k in PER_LAYER}
    absent = {k: zeros.get(k) or zeros[k.split(".")[0]] for k, v in metrics.items()
              if v == 0 and (k in zeros or k.split(".")[0] in zeros)}
    return {"metrics": metrics,
            "info": {"absent": absent, "picks": layers.get("picks", []), "walls_s": walls},
            "failures": failures, "attempted": attempted, "counters": counters}


# -- cli_auto ------------------------------------------------------------------


class CliJobs:
    """The cli_auto inputs on disk, and the reference check for each job's output."""

    def __init__(self, modconv, seed: int, size: str, work: str):
        self.m = modconv
        self.products = jobs.products("cli_auto", seed, size)
        self.fields = {p: modconv.FourierPrime.from_modulus(p) for p in {j.p for j in self.products}}
        self.paths = []
        self.refs = []
        for i, j in enumerate(self.products):
            fp = self.fields[j.p]
            a, b = modconv.DensePoly(fp, j.a), modconv.DensePoly(fp, j.b)
            pa, pb = os.path.join(work, f"a{i}.txt"), os.path.join(work, f"b{i}.txt")
            for path, poly in ((pa, a), (pb, b)):
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(modconv.poly_to_text(poly))
            self.paths.append((pa, pb, os.path.join(work, f"c{i}.txt")))
            self.refs.append(checks.ProductCheck(modconv, a, b, seed * 7919 + i,
                                                 reference=self._reference(a, b)))

    def _reference(self, a, b):
        m = self.m

        def compute():
            n = len(a.coeffs) + len(b.coeffs) - 1
            if checks.next_pow2(n).bit_length() - 1 <= a.field.two_adicity:
                return m.poly_mul(a, b, m.ConvRequest(a.field, engine="tft")).coeffs
            return m.mul_karatsuba(a, b).coeffs

        return compute

    def argv(self, i: int, store: str) -> list[str]:
        pa, pb, pc = self.paths[i]
        return ["mul", pa, pb, "--engine", "auto", "--store", store, "-o", pc]

    def check(self, i: int, code: int) -> str | None:
        if code != 0:
            return f"job {i}: exit {code}"
        try:
            with open(self.paths[i][2], "r", encoding="ascii") as fh:
                got = self.m.poly_from_text(fh.read())
        except (OSError, ValueError) as exc:
            return f"job {i}: unreadable output: {exc}"
        if got.field.p != self.products[i].p or not self.refs[i].ok(got.coeffs):
            return f"job {i}: wrong coefficients (n={self.products[i].n})"
        return None


def plan_store(env: dict, work: str, size: str, probe: speed.Sampler) -> tuple[float, float, str]:
    """Fresh `modconv plan` runs into a new store: (raw s, reference s, store path)."""
    store = os.path.join(work, "planned.txt")
    if os.path.exists(store):
        os.remove(store)
    raw = ref = 0.0
    for p, max_l in jobs.CLI_PLANS[size]:
        child = Child([sys.executable, "-m", "modconv.cli", "plan", "--store", store,
                       "--max-l", str(max_l), "--prime", str(p)], env)
        if child.code != 0:
            raise BenchError(f"modconv plan exited {child.code}")
        probe.maybe(PARENT_PROBES)
        raw += child.end - child.start
        ref += (child.end - child.start) * probe.scale(child.start, child.end)
    return raw, ref, store


def cli_pass(cj: CliJobs, env: dict, planned: str, work: str, failures: list, pas: int,
             probe: speed.Sampler, traced: bool = False) -> tuple[list[float], list[float], list[dict]]:
    """One pass over the jobs from a fresh copy of the planned store.

    Returns per-job raw seconds, reference seconds, and the traced reports.
    """
    store = os.path.join(work, "store.txt")
    shutil.copyfile(planned, store)
    children, reports = [], []
    for i in range(len(cj.products)):
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracecli.py")] + cj.argv(i, store)
        else:
            argv = [sys.executable, "-m", "modconv.cli"] + cj.argv(i, store)
        child = Child(argv, env)
        children.append(child)
        if traced:
            reports.append(child.result())
        bad = cj.check(i, child.code)
        if bad:
            failures.append([pas, i, bad])
        probe.maybe(PARENT_PROBES)
    raw = [c.end - c.start for c in children]
    ref = [(c.end - c.start) * probe.scale(c.start, c.end) for c in children]
    return raw, ref, reports


def time_engine(m, a, b, engine: str) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        m.poly_mul(a, b, m.ConvRequest(a.field, engine=engine))
        best = min(best, time.perf_counter() - t0)
        if best > 0.1:
            break
    return best


def pick_regret(cj: CliJobs, picks: list[str | None]) -> tuple[float, list]:
    """Sum over jobs of t(auto's pick) / sum of t(fastest fixed engine), timed in-process."""
    m = cj.m
    memo: dict[tuple, dict] = {}
    num = den = 0.0
    rows = []
    for j, pick in zip(cj.products, picks):
        if pick is None:
            continue
        shape = (j.p, len(j.a), len(j.b))
        fp = cj.fields[j.p]
        a, b = m.DensePoly(fp, j.a), m.DensePoly(fp, j.b)
        timed = memo.setdefault(shape, {})
        fits = checks.next_pow2(j.n).bit_length() - 1 <= fp.two_adicity
        engines = ["fft_pad", "tft"] if fits else []
        if not fits or len(j.a) * len(j.b) <= DEFINITION_TIMING_CAP:
            engines.append("definition")
        if pick not in engines:
            engines.append(pick)
        for engine in engines:
            if engine not in timed:
                timed[engine] = time_engine(m, a, b, engine)
        best = min(timed[e] for e in engines)
        num += timed[pick]
        den += best
        rows.append([j.n, pick, round(timed[pick] / best, 3)])
    return (num / den if den else 0.0), rows


def run_cli_auto(args, env: dict, modconv, probe: speed.Sampler) -> dict:
    work = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        cj = CliJobs(modconv, args.seed, args.size, work)
        failures: list[list] = []
        setups = [plan_store(env, work, args.size, probe)
                  for _ in range(SETUP_REPS["cli_auto"] if not args.trace else 1)]
        planned = setups[-1][2]
        repeat_share = sum(j.repeat for j in cj.products) / len(cj.products)
        if not args.trace:
            passes = [cli_pass(cj, env, planned, work, failures, pas, probe)
                      for pas in range(passes_for("cli_auto", args.seconds))]
            metrics, per_call, info = time_metrics([p[1] for p in passes], [])
            raw, _, _ = time_metrics([p[0] for p in passes], [])
            metrics["setup_s"] = statistics.median(s[1] for s in setups)
            raw["setup_s"] = statistics.median(s[0] for s in setups)
            groups = {"unique": lambda j: j.p == jobs.P_NTT and not j.repeat,
                      "repeat": lambda j: j.repeat, "low_adicity": lambda j: j.p == jobs.P_LOW}
            info.update({
                "per_call_ms": [[round(p[1][i] * 1e3, 3) for p in passes] for i in range(len(cj.products))],
                "pass_walls_s": [sum(p[0]) for p in passes],
                "repeat_share": repeat_share,
                "group_ms_p50": {g: 1e3 * statistics.median(t for t, j in zip(per_call, cj.products) if f(j))
                                 for g, f in groups.items()},
            })
            return result(metrics, raw, info, failures, len(passes) * len(cj.products), None)
        _, plain_ref, _ = cli_pass(cj, env, planned, work, failures, 0, probe)
        traced_raw, traced_ref, reports = cli_pass(cj, env, planned, work, failures, 1, probe, traced=True)
        import spans

        layers: dict = {}
        for rep in reports:
            spans.merge(layers, rep["layers"])
        picks = [rep["layers"]["picks"][0] if rep["layers"]["picks"] else None for rep in reports]
        regret, regret_rows = pick_regret(cj, picks)
        totals = {"butterflies": sum(rep["counters"][0] for rep in reports),
                  "pointwise_muls": sum(rep["counters"][1] for rep in reports)}
        layers.update({
            "transform.butterflies": totals["butterflies"],
            "convolve.pointwise_muls": totals["pointwise_muls"],
            "planner.pick_regret": regret,
            "cli.startup_s": sum(w - rep["layers"]["cli.main_s"] for w, rep in zip(traced_raw, reports)),
            "cli.nonzero_exits": sum(rep["exit"] != 0 for rep in reports),
        })
        walls = {"traced": sum(traced_raw), "traced_ref": sum(traced_ref), "plain_ref": sum(plain_ref)}
        out = finish_layers(layers, walls, 2 * len(cj.products), failures, totals, CLI_ZEROS)
        out["info"].update({"repeat_share": repeat_share, "pick_regret_by_job": regret_rows})
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- entry point ---------------------------------------------------------------


def provenance(root: str, seed: int, modconv) -> dict:
    rev = dirty = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "git_rev": rev,
        "git_dirty": dirty,
        "exec_signature": modconv.make_exec_signature(),
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
    }


def load_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "modconv", "__init__.py")):
        raise BenchError(f"no modconv source tree under {src}; run from the repository root")
    sys.path.insert(0, src)
    import modconv

    if os.path.dirname(os.path.dirname(os.path.abspath(modconv.__file__))) != src:
        raise BenchError(f"imported modconv from {modconv.__file__}, not from {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return modconv, env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=jobs.SIZES, default="full",
                    help="smoke: a few small jobs, for testing the benchmark itself")
    args = ap.parse_args(argv)
    root = os.getcwd()
    probe = speed.Sampler(interval=0)
    try:
        modconv, env = load_program(root)
        probe.maybe()
        if args.workload == "cli_auto":
            res = run_cli_auto(args, env, modconv, probe)
        else:
            res = run_in_process(args, env, probe)
        prov = provenance(root, args.seed, modconv)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    failed = len({(f[0], f[1]) for f in res["failures"]})
    res["metrics"]["failed_frac"] = failed / res["attempted"]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "provenance": prov,
        "failures": [f[2] for f in res["failures"][:20]],
        "counters": res["counters"],
        "parent_probe_s": statistics.median(probe.samples),
        "all_metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in res["metrics"].items()},
        **res["info"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": res["metrics"][k], "unit": unit} for k, unit in units.items()},
    }))
    return 0 if not res["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
