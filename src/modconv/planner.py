"""Empirical timing of the transform kernels the engines run, with persistence.

A plan entry records the measured median time of one transform kernel on one
shape: `dft` keys time the iterative moddft that the padded engine runs at
the key's own size L, `tft` and `itft` keys time the truncated transforms on
the key's own (z, n). Every timing is measured; none is scaled from another
size. Every entry records the radix-2 decomposition those kernels execute;
the store format keeps a split sequence and base case so that files written
with radix-4/8 decompositions still load.

Entries are keyed by function signature (kind, p, L, z, n, threads) and by an
execution signature describing the host, so a store file can travel between
machines without silently reusing stale timings: a key match under a foreign
signature is cloned under the current one rather than trusted as-is.

The automatic engine choice reads only the keys `modconv plan` writes, one
timing per (kind, p, L) at z = n = L, and scales the truncated timings to the
product's shape by exact butterfly counts, so it never searches for a new
shape.
"""

from __future__ import annotations

import os
import platform
import random
import time
from dataclasses import dataclass, replace

from . import __version__
from .convolve import _next_pow2
from .field import FourierPrime, UnsupportedSizeError, _clip
from .transform import get_table, itft, itft_butterflies, moddft, tft, tft_butterflies

KINDS = ("dft", "tft", "itft", "conv")
RADIX_MENU = (2, 4, 8)
STORE_VERSION = "modconv-plan v1"
DEFAULT_SEARCH_REPS = 5

_ENGINE_PREFERENCE = ("definition", "fft_pad", "tft")
# Characters an exec signature may hold: printable ASCII but the field separator.
_SIGNATURE_CHARS = frozenset(map(chr, range(0x20, 0x7F))) - {"|"}


class PlanFormatError(ValueError):
    """Malformed plan store text; carries the offending 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
    kind = parts[0]
    try:
        p, size, z, n, threads = (int(v) for v in parts[1:6])
    except ValueError:
        raise PlanFormatError("non-integer key field", lineno) from None
    for prefix, part in (("splits=", parts[6]), ("base=", parts[7]), ("nanos=", parts[8]), ("sig=", parts[9])):
        if not part.startswith(prefix):
            raise PlanFormatError(f"expected field {prefix!r}, got {_clip(part)}", lineno)
    raw_splits = parts[6][len("splits="):]
    try:
        splits = tuple(int(s) for s in raw_splits.split(",")) if raw_splits else ()
        base = int(parts[7][len("base="):])
        nanos = int(parts[8][len("nanos="):])
    except ValueError:
        raise PlanFormatError("non-integer decomposition field", lineno) from None
    sig = parts[9][len("sig="):]
    try:
        return PlanEntry(PlanKey(kind, p, size, z, n, threads), splits, base, nanos, sig)
    except ValueError as exc:
        raise PlanFormatError(str(exc), lineno) from None


def store_save(store: PlanStore, path: str) -> None:
    """Write the versioned line format atomically (temp file + rename)."""
    lines = [STORE_VERSION]
    lines.extend(_format_entry(e) for e in store)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    os.replace(tmp, path)


def store_load(path: str) -> PlanStore:
    """Parse a plan file; refuses other versions, reports bad lines by number.

    Every line after the header must be an entry, blank ones included; only
    the empty string after a final newline is not a line.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise PlanFormatError(f"non-ASCII byte {exc.object[exc.start]:#04x}", line) from None
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
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
    # /proc/cpuinfo first: on Linux platform.processor() runs `uname -p`.
    name = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    name = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return name or platform.processor() or platform.machine() or "unknown-cpu"


def make_exec_signature(threads: int = 1) -> str:
    """Host descriptor: cpu model, logical cores, thread setting, build id."""
    sig = ";".join(
        (
            _cpu_model(),
            f"cores={os.cpu_count() or 1}",
            f"threads={threads}",
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
        threads: int = 1,
        timer=time.perf_counter_ns,
        reps: int = DEFAULT_SEARCH_REPS,
    ):
        self.store = store if store is not None else PlanStore()
        self.signature = signature if signature is not None else make_exec_signature(threads)
        self.timer = timer
        self.reps = max(1, reps)
        self.search_count = 0
        self._mult_nanos: dict[int, int] = {}

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
        outputs, `itft` times itft on n values; every entry records the
        radix-2 decomposition those kernels execute.
        """
        if key.kind not in ("dft", "tft", "itft"):
            raise ValueError(
                f"kind {key.kind!r} is not searchable; engine choice is derived "
                "from transform timings"
            )
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
        fn()  # warm caches before timing
        samples = sorted(self._time_once(fn) for _ in range(self.reps))
        return samples[len(samples) // 2]

    def _time_once(self, fn) -> int:
        t0 = self.timer()
        fn()
        return self.timer() - t0

    def _kernel(self, key: PlanKey):
        """A zero-argument call of the kernel that `key` times, on seeded random input."""
        size = key.L
        table = get_table(FourierPrime.from_modulus(key.p), size)
        rng = self._rng_for(key)
        if key.kind == "dft":
            x = [rng.randrange(key.p) for _ in range(size)]
            return lambda: moddft(x, table)
        n = key.n
        if not 1 <= n <= size:
            raise ValueError(f"output count {n} invalid for L={size}")
        if key.kind == "itft":
            xhat = [rng.randrange(key.p) for _ in range(n)]
            return lambda: itft(table, xhat)
        z = key.z
        if not 1 <= z <= n:
            raise ValueError(f"input length {z} invalid for n={n}")
        x = [rng.randrange(key.p) for _ in range(z)]
        return lambda: tft(table, x, n)

    # -- automatic engine choice ----------------------------------------------

    def _mult_nanos_for(self, p: int) -> int:
        cached = self._mult_nanos.get(p)
        if cached is None:
            rng = random.Random(p)
            xs = [rng.randrange(1, p) for _ in range(2048)]
            t0 = self.timer()
            acc = 1
            for v in xs:
                acc = acc * v % p
            cached = max(1, (self.timer() - t0) // len(xs))
            self._mult_nanos[p] = cached
        return cached

    def resolve_engine(self, field: FourierPrime, z1: int, z2: int, threads: int) -> str:
        """Pick the cheapest engine for a z1 x z2 product from measured timings.

        Only the keys `modconv plan` writes are read: one dft, tft and itft
        timing at the padded size L with z = n = L. The truncated timings are
        scaled to this product by exact butterfly counts, so a new shape never
        triggers a search. The by-definition cost is modeled as z1*z2 scalar
        products at a micro-measured per-product cost. No fixed size
        thresholds.
        """
        n = z1 + z2 - 1
        size = _next_pow2(n)
        if n == 1 or size.bit_length() - 1 > field.two_adicity:
            return "definition"
        p = field.p
        mult = self._mult_nanos_for(p)
        t_dft = self.lookup(PlanKey("dft", p, size, 0, size, threads)).measured_nanos
        t_tft = self.lookup(PlanKey("tft", p, size, size, size, threads)).measured_nanos
        t_itft = self.lookup(PlanKey("itft", p, size, size, size, threads)).measured_nanos
        cost_def = z1 * z2 * mult
        cost_tft = (
            t_tft
            * (tft_butterflies(size, z1, n) + tft_butterflies(size, z2, n))
            / tft_butterflies(size, size, size)
            + t_itft * itft_butterflies(size, n) / itft_butterflies(size, size)
            + n * mult
        )
        cost_fft = 3 * t_dft + size * mult
        ranked = sorted(
            zip((cost_def, cost_fft, cost_tft), _ENGINE_PREFERENCE),
            key=lambda t: (t[0], _ENGINE_PREFERENCE.index(t[1])),
        )
        return ranked[0][1]

    # -- replay ---------------------------------------------------------------

    def replay(self, entry: PlanEntry, x: list[int]):
        """Execute a stored plan on concrete input (used for validity checks)."""
        table = get_table(FourierPrime.from_modulus(entry.key.p), entry.key.L)
        if entry.key.kind == "dft":
            return moddft(x, table)
        if entry.key.kind == "tft":
            return tft(table, x, entry.key.n)
        if entry.key.kind == "itft":
            return itft(table, x)
        raise ValueError(f"kind {entry.key.kind!r} is not replayable")
