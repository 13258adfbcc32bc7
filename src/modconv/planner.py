"""Empirical timing of the kernels the engines run, with persistence.

A plan entry records the measured median time of one kernel on one shape:
`dft` keys time the iterative moddft that the padded engine runs at the
key's own size L, `tft` and `itft` keys time the truncated transforms on the
key's own (z, n), and `conv` keys time the Kronecker engine on a z x (n+1-z)
product. Every entry records the radix-2 decomposition of its size; the
store format keeps a split sequence and base case so that files written with
radix-4/8 decompositions still load.

Entries are keyed by function signature (kind, p, L, z, n, threads) and by an
execution signature describing the host, so a store file can travel between
machines without silently reusing stale timings: a key match under a foreign
signature is cloned under the current one rather than trusted as-is.
Execution is serial, so `threads` is 1 in every key this module makes and in
every signature it writes; the field stays because the store format carries it.

The plan contract is stated once here: `planned_keys` gives the keys
`modconv plan` writes and the automatic engine choice reads, four timings per
(p, L), and `_call` gives the one kernel call each kind times, which `search`
and `replay` share. `_call` checks its input by the rule of the kernel's
door (`transform._full_input`, `transform._truncated`,
`convolve._operands`), so a replay refuses what the door would refuse.
The transform keys time the full size, z = n = L; the
`conv` key times a balanced product at the bottom of L's range, z = L/4 + 1
and n = L/2 + 1, which keeps planning cheap. Each timing is of the call an
engine makes, on the vectors it passes: a transform core (`transform._moddft`,
`_tft`, `_itft`, which check nothing) on its seeded input after
`transform._numpy_inputs`, so a uint64 array wherever the engines run in
arrays and a list elsewhere; the Kronecker core (`convolve._kronecker`,
which `poly_mul` runs) on a pair of lists.
Only the transform kinds fetch a twiddle table: Kronecker runs at any size.
The engine choice (`PlanSession.resolve_engine`) prices each engine by the
cost its `convolve._ENGINES` entry gives from these timings, so a new shape
needs no search up to the planned max L; beyond it, the first product
searches that L's `planned_keys`.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace

from . import __version__
from .convolve import _ENGINES, _kronecker, _next_pow2, _operands
from .field import FourierPrime, LineError, UnsupportedSizeError, _clip, _lines, root_of_unity
from .transform import _full_input, _itft, _ints, _listed, _moddft, _numpy_inputs, _tft, _truncated, get_table

KINDS = ("dft", "tft", "itft", "conv")
RADIX_MENU = (2, 4, 8)
STORE_VERSION = "modconv-plan v1"
DEFAULT_SEARCH_REPS = 5

# Characters an exec signature may hold: printable ASCII but the field separator.
_SIGNATURE_CHARS = frozenset(map(chr, range(0x20, 0x7F))) - {"|"}


class PlanFormatError(LineError):
    """Malformed plan store text; carries the offending 1-based line."""


@dataclass(frozen=True, slots=True, order=True)
class PlanKey:
    """Function signature of a plannable operation."""

    kind: str
    p: int
    L: int
    z: int
    n: int
    threads: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}: {_clip(self.kind)}")
        if self.L < 1 or self.L & (self.L - 1):
            raise ValueError(f"L must be a power of two: {_clip(str(self.L))}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.z < 0 or self.n < 0:
            raise ValueError("z and n must be non-negative")


@dataclass(frozen=True, slots=True)
class PlanEntry:
    """A measured kernel timing for one key under one host signature."""

    key: PlanKey
    splits: tuple[int, ...]
    base_case: int
    measured_nanos: int
    exec_signature: str

    def __post_init__(self) -> None:
        if not isinstance(self.splits, tuple):
            object.__setattr__(self, "splits", tuple(self.splits))
        if self.base_case not in RADIX_MENU:
            raise ValueError(f"base case must be one of {RADIX_MENU}: {self.base_case}")
        prod = self.base_case
        for s in self.splits:
            if s not in RADIX_MENU:
                raise ValueError(f"split radix must be one of {RADIX_MENU}: {s}")
            prod *= s
        if prod != self.key.L:
            raise ValueError(
                f"decomposition {self.splits} x base {self.base_case} != L={self.key.L}"
            )
        if self.measured_nanos < 0:
            raise ValueError("measured_nanos must be >= 0")
        if not _SIGNATURE_CHARS.issuperset(self.exec_signature):
            raise ValueError("exec signature must be printable ASCII without '|'")


def planned_keys(p: int, size: int) -> tuple[PlanKey, PlanKey, PlanKey, PlanKey]:
    """The dft, tft, itft and conv keys that `modconv plan` writes and `auto` reads at L = size."""
    z = size // 4 + 1
    return (
        PlanKey("dft", p, size, 0, size, 1),
        PlanKey("tft", p, size, size, size, 1),
        PlanKey("itft", p, size, size, size, 1),
        PlanKey("conv", p, size, z, 2 * z - 1, 1),
    )


def _call(key: PlanKey, fp: FourierPrime, x):
    """A zero-argument call of the kernel that key times, on the list x as an engine passes it.

    The moddft core at L, the tft core to n outputs (each on a stack of the
    one vector x) or the itft core, on the twiddle table of (fp, L) and on
    x as `_numpy_inputs` hands it to a product's cores, or Kronecker on the
    pair of lists x, which fetches no table. x is checked and converted
    here, outside the call, by its door's rule: a dft key's by the
    full-transform rule (`transform._full_input`), a tft key's as z =
    len(x) inputs to key.n outputs and an itft key's as n = len(x) values
    (`transform._truncated`), and a conv key's x as a pair of operands,
    each by the engines' operand rule (`convolve._operands`). Each refusal
    is a ValueError.
    """
    if key.kind == "conv":
        try:
            u, v = x
        except (TypeError, ValueError):
            raise ValueError("a conv key's call takes a pair of operands") from None
        u, v = _operands(u, v)
        return lambda: _kronecker(u, v, fp)
    table = get_table(fp, key.L)
    if key.kind == "dft":
        x = _full_input(x, table, "fwd")
    else:
        x = _ints(x)
        _truncated(len(x), key.n if key.kind == "tft" else len(x), key.L)
    # The backend a product at L runs, which its two inputs decide.
    x = (_numpy_inputs(table, x, vectors=2) or [x])[0]
    if key.kind == "dft":
        return lambda: _moddft((x,), table)
    if key.kind == "tft":
        return lambda: _tft(table, (x,), key.n)
    return lambda: _itft(table, x)


def plan_mirror(entry: PlanEntry) -> PlanEntry:
    """Flip a truncated-transform plan between forward and inverse.

    The mirrored plan reverses the split sequence and keeps everything else,
    so the inverse walks the forward decomposition backwards. Involutive.
    """
    if entry.key.kind == "tft":
        other = "itft"
    elif entry.key.kind == "itft":
        other = "tft"
    else:
        raise ValueError(f"only tft/itft plans mirror, got kind {entry.key.kind!r}")
    return replace(
        entry,
        key=replace(entry.key, kind=other),
        splits=tuple(reversed(entry.splits)),
    )


class PlanStore:
    """In-memory plan collection: one entry per (key, exec signature)."""

    def __init__(self) -> None:
        self._entries: dict[tuple[PlanKey, str], PlanEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanStore):
            return NotImplemented
        return self._entries == other._entries

    def __iter__(self):
        return iter(sorted(self._entries.values(), key=lambda e: (e.key, e.exec_signature)))

    def add(self, entry: PlanEntry, *, replace_existing: bool = False) -> None:
        slot = (entry.key, entry.exec_signature)
        if not replace_existing and slot in self._entries:
            raise ValueError(f"duplicate plan entry for {slot}")
        self._entries[slot] = entry

    def get(self, key: PlanKey, exec_signature: str) -> PlanEntry | None:
        return self._entries.get((key, exec_signature))

    def entries_for_key(self, key: PlanKey) -> list[PlanEntry]:
        found = [e for (k, _), e in self._entries.items() if k == key]
        found.sort(key=lambda e: e.exec_signature)
        return found


def _format_entry(e: PlanEntry) -> str:
    k = e.key
    return (
        f"{k.kind}|{k.p}|{k.L}|{k.z}|{k.n}|{k.threads}"
        f"|splits={','.join(map(str, e.splits))}|base={e.base_case}"
        f"|nanos={e.measured_nanos}|sig={e.exec_signature}"
    )


def _parse_entry(line: str, lineno: int) -> PlanEntry:
    parts = line.split("|")
    if len(parts) != 10:
        raise PlanFormatError(f"expected 10 '|'-separated fields, got {len(parts)}", lineno)
    number = lambda token, what: PlanFormatError.decimal(token, what, lineno)
    p, size, z, n, threads = map(number, parts[1:6], ("p", "L", "z", "n", "threads"))
    for prefix, part in zip(("splits=", "base=", "nanos=", "sig="), parts[6:]):
        if not part.startswith(prefix):
            raise PlanFormatError(f"expected field {prefix!r}, got {_clip(part)}", lineno)
    raw_splits, base, nanos, sig = (part.split("=", 1)[1] for part in parts[6:])
    splits = tuple(number(s, "split") for s in raw_splits.split(",")) if raw_splits else ()
    base, nanos = number(base, "base"), number(nanos, "nanos")
    try:
        return PlanEntry(PlanKey(parts[0], p, size, z, n, threads), splits, base, nanos, sig)
    except ValueError as exc:
        raise PlanFormatError(str(exc), lineno) from None


def store_save(store: PlanStore, path: str) -> None:
    """Write the versioned line format atomically (temp file + rename)."""
    lines = [STORE_VERSION]
    lines.extend(_format_entry(e) for e in store)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    os.replace(tmp, path)


def store_load(path: str) -> PlanStore:
    """Parse a plan file; refuses other versions, reports bad lines by number.

    The line rules are the polynomial text's, from `field.LineError` and
    `field._lines`: the file is ASCII, lines end at a newline only and every
    integer field is [0-9]+. Every line after the header must be an entry,
    blank ones included; only the empty string after a final newline is not
    a line.
    """
    with open(path, "r", encoding="ascii", newline="") as fh:
        text = PlanFormatError.read(fh)
    lines = _lines(text)
    if lines[0] != STORE_VERSION:
        found = lines[0] if text else "<empty file>"
        raise PlanFormatError(f"expected header {STORE_VERSION!r}, got {_clip(found)}", 1)
    store = PlanStore()
    for i, line in enumerate(lines[1:], start=2):
        entry = _parse_entry(line, i)
        try:
            store.add(entry)
        except ValueError as exc:
            raise PlanFormatError(str(exc), i) from None
    return store


def _cpu_model() -> str:
    # /proc/cpuinfo first: on Linux platform.processor() runs `uname -p`, and
    # importing platform alone costs a process about 3 ms.
    name = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    name = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if name:
        return name
    import platform

    return platform.processor() or platform.machine() or "unknown-cpu"


def make_exec_signature() -> str:
    """Host descriptor: cpu model, logical cores, thread setting (always 1), build id."""
    sig = ";".join(
        (
            _cpu_model(),
            f"cores={os.cpu_count() or 1}",
            "threads=1",
            f"build=modconv-{__version__}",
        )
    )
    return "".join(c if c in _SIGNATURE_CHARS else "?" for c in sig)


class PlanSession:
    """A planning run: a store, a host signature, a timer, and search state.

    lookup() resolves any key through three tiers: exact (key, signature) hit;
    key-only hit cloned under the current signature; fresh search. The number
    of searches performed is observable via search_count.
    """

    def __init__(
        self,
        store: PlanStore | None = None,
        *,
        signature: str | None = None,
        timer=time.perf_counter_ns,
        reps: int = DEFAULT_SEARCH_REPS,
    ):
        self.store = store if store is not None else PlanStore()
        self.signature = signature if signature is not None else make_exec_signature()
        self.timer = timer
        self.reps = max(1, reps)
        self.search_count = 0

    # -- lookup policy -------------------------------------------------------

    def lookup(self, key: PlanKey) -> PlanEntry:
        """Three-tier resolution; always returns an entry under the current signature."""
        exact = self.store.get(key, self.signature)
        if exact is not None:
            return exact
        by_key = self.store.entries_for_key(key)
        if by_key:
            clone = replace(by_key[0], exec_signature=self.signature)
            self.store.add(clone)
            return clone
        return self.search(key)

    # -- search --------------------------------------------------------------

    def search(self, key: PlanKey) -> PlanEntry:
        """Time the kernel an engine runs for this key and store the timing.

        `dft` times moddft at size L, `tft` times tft on z inputs and n
        outputs, `itft` times itft on n values, `conv` times the Kronecker
        engine on a z x (n+1-z) product; every entry records the radix-2
        decomposition of L.
        """
        size = key.L
        if size < 2:
            raise UnsupportedSizeError(f"no plannable transform of size {size}")
        nanos = self._time_median(self._kernel(key))
        entry = PlanEntry(key, (2,) * (size.bit_length() - 2), 2, nanos, self.signature)
        self.store.add(entry, replace_existing=True)
        self.search_count += 1
        return entry

    def _rng_for(self, key: PlanKey) -> random.Random:
        return random.Random((key.p * 0x9E3779B1 + key.L * 131 + key.n) & 0xFFFFFFFF)

    def _time_median(self, fn) -> int:
        # No warm-up call: _kernel has built the table and the input, and the
        # median drops the one cold sample of any lazily built state.
        samples = sorted(self._time_once(fn) for _ in range(self.reps))
        return samples[len(samples) // 2]

    def _time_once(self, fn) -> int:
        t0 = self.timer()
        fn()
        return self.timer() - t0

    def _kernel(self, key: PlanKey):
        """A zero-argument call of the kernel that `key` times, on seeded random lists (`_call`)."""
        size, n, z = key.L, key.n, key.z
        fp = FourierPrime.from_modulus(key.p)
        if key.kind != "dft":
            # itft reads no z: it recovers n values.
            _truncated(n if key.kind == "itft" else z, n, size)
        rng = self._rng_for(key)
        vec = lambda length: [rng.randrange(key.p) for _ in range(length)]
        if key.kind == "conv":
            return _call(key, fp, (vec(z), vec(n + 1 - z)))
        return _call(key, fp, vec({"dft": size, "tft": z, "itft": n}[key.kind]))

    # -- automatic engine choice ----------------------------------------------

    def resolve_engine(self, field: FourierPrime, z1: int, z2: int) -> str:
        """Pick the cheapest engine for a z1 x z2 product from measured timings.

        Each fixed engine in `convolve._ENGINES` that has a cost and applies
        at L, the padded size, is priced from the `planned_keys` it
        reads, through `lookup`; the cheapest wins, and equal costs go to
        the lowest `tie`. Up to the planned max L every key is in the store,
        so no shape searches; beyond it, lookup searches that L's keys once.
        A scalar product, or one longer than the field's 2-adicity allows a
        transform for, goes to the ranked engine without transforms and
        reads no key; the field says which sizes it hosts (`root_of_unity`).
        z1 and z2 must be at least 1, else ValueError before any lookup.
        """
        if z1 < 1 or z2 < 1:
            raise ValueError(f"a product needs nonempty operands: got {z1} x {z2}")
        n = z1 + z2 - 1
        size = _next_pow2(n)
        any_length = next(name for name, e in _ENGINES.items() if e.size is None and callable(e.cost))
        if n == 1:
            return any_length
        try:
            root_of_unity(field, size)
        except UnsupportedSizeError:
            return any_length
        costs = []
        for name, engine in _ENGINES.items():
            if callable(engine.cost) and engine.applies(size):
                # The planned key of each (kind, L) the engine reads, by its kind.
                entries = [self.lookup(key) for kind, at in engine.reads(size)
                           for key in planned_keys(field.p, at) if key.kind == kind]
                costs.append((engine.cost(z1, z2, *entries), engine.tie, name))
        return min(costs)[2]

    # -- replay ---------------------------------------------------------------

    def replay(self, entry: PlanEntry, x) -> list[int]:
        """Execute a stored plan on a concrete list of ints (used for validity checks); a pair for `conv`.

        x is checked as the kernel's door checks it, in `_call`, which runs
        the kernel that was timed: an ndarray, a non-integer element, a
        length the transform does not take or a conv operand that is not
        one of a pair of nonempty lists raises ValueError.
        """
        out = _call(entry.key, FourierPrime.from_modulus(entry.key.p), x)()
        # The moddft and tft cores give back their stack of one.
        return _listed(out[0] if entry.key.kind in ("dft", "tft") else out)
