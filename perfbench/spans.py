"""Outside-in span tracing of modconv's layers.

`Tracer.install()` replaces, in the namespace of the calling layer, the public
names one layer calls in the next (for example `modconv.convolve.tft`, which
`poly_mul` reaches through `conv_tft`, or `modconv.cli.store_load`) with
wrappers that record nested spans. `Tracer.remove()` puts the originals back.
Nothing in the program is edited; a layer that stops calling a wrapped name
simply stops producing that span.

Spans are kept in memory as [name, start_ns, end_ns, parent, info] and
reduced by `summarize()` into per-layer totals. A span's self time is its
duration minus the durations of its direct children. A span nested inside a
span of the same name (a plan search recursing into a smaller search) is
counted once, through its outermost ancestor.
"""

from __future__ import annotations

import builtins
import time
from collections import defaultdict

_now = time.perf_counter_ns


class _TimedFile:
    """File proxy whose read/write/close time is recorded as a span."""

    def __init__(self, tracer: "Tracer", fh):
        self._tracer = tracer
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def read(self, *args):
        return self._tracer.call("cli.io", self._fh.read, args, {})

    def write(self, *args):
        return self._tracer.call("cli.io", self._fh.write, args, {})

    def close(self):
        return self._tracer.call("cli.io", self._fh.close, (), {})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []
        self.active = True  # False while the benchmark runs its own checks

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, args, kwargs, note=None, pre=None):
        """Run fn(*args, **kwargs) as a span; note(before, args, result) is its info."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, None]
        self.spans.append(span)
        self._stack.append(idx)
        before = pre(args) if pre is not None else None
        span[1] = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = _now()
            self._stack.pop()
        if note is not None:
            span[4] = note(before, args, result)
        return result

    def _wrap(self, owner, attr, name, note=None, pre=None):
        """Replace owner.attr by a spanning wrapper; name may be a function of the args."""
        orig = vars(owner)[attr]
        tracer = self
        if isinstance(orig, classmethod):
            func = orig.__func__

            def wrapper(cls, *args, **kwargs):
                return tracer.call(name, func, (cls,) + args, kwargs, note, pre)

            setattr(owner, attr, classmethod(wrapper))
        else:
            naming = name if callable(name) else None

            def wrapper(*args, **kwargs):
                label = naming(args) if naming is not None else name
                return tracer.call(label, orig, args, kwargs, note, pre)

            setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig, True))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the cross-layer calls of field, poly, transform, convolve, planner and cli."""
        import modconv.cli as cli
        import modconv.convolve as convolve
        import modconv.field as field
        import modconv.planner as planner
        import modconv.poly as poly
        import modconv.transform as transform

        def direction(args):
            d = args[2] if len(args) > 2 else "fwd"
            return "transform.fwd" if d == "fwd" else "transform.inv"

        w = self._wrap
        # convolve -> transform: the transforms a multiply runs, and every
        # twiddle-table build behind get_table, whoever asked for the table.
        w(convolve, "tft", "transform.fwd")
        w(convolve, "itft", "transform.inv")
        w(convolve, "moddft", direction)
        w(transform, "TwiddleTable", "transform.table_build")
        # convolve's own stages, and convolve -> poly.
        w(convolve, "poly_mul", "convolve.poly_mul")
        w(convolve, "lin_conv_def", "convolve.definition")
        w(convolve, "split_residues", "convolve.residue")
        w(convolve, "recombine_residues", "convolve.residue")
        w(poly.DensePoly, "normalize", "poly.normalize")
        # anything -> field.
        w(field.FourierPrime, "from_modulus", "field.from_modulus")
        # convolve / cli -> planner. A lookup that grows the store without
        # searching cloned an entry; one that changes nothing was a hit.
        w(planner.PlanSession, "resolve_engine", "planner.resolve",
          note=lambda before, args, result: result)
        w(planner.PlanSession, "lookup", "planner.lookup",
          pre=lambda args: len(args[0].store),
          note=lambda before, args, result: (before, len(args[0].store)))
        w(planner.PlanSession, "search", "planner.search")
        # cli -> poly, planner, convolve, and its own file I/O.
        w(cli, "poly_from_text", "poly.parse", note=lambda before, args, result: len(args[0]))
        w(cli, "poly_to_text", "poly.serialize", note=lambda before, args, result: len(result))
        w(cli, "store_load", "planner.load")
        w(cli, "store_save", "planner.save", note=lambda before, args, result: len(args[0]))
        w(cli, "poly_mul", "convolve.poly_mul")
        tracer = self
        real_open = builtins.open

        def timed_open(*args, **kwargs):
            return _TimedFile(tracer, tracer.call("cli.io", real_open, args, kwargs))

        # Shadows the builtin inside modconv.cli only; remove() deletes it again.
        setattr(cli, "open", timed_open)
        self._undo.append((cli, "open", None, False))

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig, present = self._undo.pop()
            if present:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)


def summarize(spans: list[list]) -> dict:
    """Per-layer totals of one traced process: times in seconds, counts, picks."""
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    outer = [True] * len(spans)  # no ancestor of the same name
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            child[parent] += dur[i]
        while parent >= 0:
            if spans[parent][0] == s[0]:
                outer[i] = False
                break
            parent = spans[parent][3]
    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    info = defaultdict(list)
    searched = set()
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        self_ns[name] += dur[i] - child[i]
        if outer[i]:
            total[name] += dur[i]
        if s[4] is not None:
            info[name].append(s[4])
        if name == "planner.search" and s[3] >= 0 and spans[s[3]][0] == "planner.lookup":
            searched.add(s[3])
    hits = clones = 0
    for i, s in enumerate(spans):
        if s[0] == "planner.lookup" and i not in searched:
            if s[4] is not None and s[4][1] > s[4][0]:
                clones += 1
            else:
                hits += 1
    sec = lambda name: total[name] / 1e9
    picks = info["planner.resolve"]
    return {
        "transform.fwd_s": sec("transform.fwd"),
        "transform.inv_s": sec("transform.inv"),
        "transform.table_s": sec("transform.table_build"),
        "transform.table_builds": calls["transform.table_build"],
        "convolve.self_s": self_ns["convolve.poly_mul"] / 1e9,
        "convolve.definition_s": sec("convolve.definition"),
        "convolve.residue_s": sec("convolve.residue"),
        "planner.search_s": sec("planner.search"),
        "planner.searches": calls["planner.search"],
        "planner.hits": hits,
        "planner.clones": clones,
        "planner.load_s": sec("planner.load"),
        "planner.save_s": sec("planner.save"),
        "planner.resolve_s": sec("planner.resolve"),
        "planner.quadratic_picks": sum(1 for e in picks if e == "definition"),
        "planner.store_entries": info["planner.save"][-1] if info["planner.save"] else 0,
        "poly.parse_s": sec("poly.parse"),
        "poly.serialize_s": sec("poly.serialize"),
        "poly.bytes_in": sum(info["poly.parse"]),
        "poly.bytes_out": sum(info["poly.serialize"]),
        "poly.normalize_s": sec("poly.normalize"),
        "field.from_modulus_s": sec("field.from_modulus"),
        "field.from_modulus_calls": calls["field.from_modulus"],
        "cli.main_s": sec("cli.main"),
        "cli.io_s": sec("cli.io"),
        "picks": picks,
    }


def merge(into: dict, part: dict) -> dict:
    """Add one process's summary to a running total (store size: the latest)."""
    for key, value in part.items():
        if key == "picks":
            into.setdefault(key, []).extend(value)
        elif key == "planner.store_entries":
            into[key] = value or into.get(key, 0)
        else:
            into[key] = into.get(key, 0) + value
    return into
