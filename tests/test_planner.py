import importlib.util
import itertools
import random

import pytest

from modconv import (
    PlanEntry,
    PlanFormatError,
    PlanKey,
    PlanSession,
    PlanStore,
    bit_reverse_permute,
    make_exec_signature,
    moddft,
    get_table,
    itft_butterflies,
    plan_mirror,
    root_of_unity,
    store_load,
    store_save,
    tft_butterflies,
)
from modconv import convolve, planner, transform
from modconv.planner import STORE_VERSION

from conftest import LARGE_PRIME, random_vec

# A 62-bit prime with 2-adicity 25; the numpy kernels never serve it.
WIDE_PRIME = 2305843009448574977


def fake_timer():
    ticks = itertools.count(step=7)
    return lambda: next(ticks)


def make_session(store=None, sig="test-host;cores=1;threads=1;build=test", reps=3):
    return PlanSession(store or PlanStore(), signature=sig, timer=fake_timer(), reps=reps)


def planned_key(p, size, kind):
    """The `planned_keys` entry of one kind at L = size."""
    return next(key for key in planner.planned_keys(p, size) if key.kind == kind)


class TestPlanKeyEntry:
    def test_total_ordering(self):
        keys = [
            PlanKey("tft", 17, 8, 8, 8, 1),
            PlanKey("dft", 17, 8, 0, 8, 1),
            PlanKey("dft", 17, 4, 0, 4, 1),
            PlanKey("dft", 17, 8, 0, 8, 2),
        ]
        assert sorted(keys) == sorted(keys, reverse=True)[::-1]
        assert sorted(keys)[0] == PlanKey("dft", 17, 4, 0, 4, 1)

    def test_key_validation(self):
        with pytest.raises(ValueError):
            PlanKey("nope", 17, 8, 0, 8, 1)
        with pytest.raises(ValueError):
            PlanKey("dft", 17, 12, 0, 12, 1)
        with pytest.raises(ValueError):
            PlanKey("dft", 17, 8, 0, 8, 0)

    def test_entry_validation(self):
        key = PlanKey("dft", 17, 16, 0, 16, 1)
        PlanEntry(key, (2, 2), 4, 10, "sig")  # 2*2*4 == 16
        with pytest.raises(ValueError):
            PlanEntry(key, (2,), 4, 10, "sig")  # product 8
        with pytest.raises(ValueError):
            PlanEntry(key, (2, 2), 5, 10, "sig")  # base outside menu
        with pytest.raises(ValueError):
            PlanEntry(key, (2, 2), 4, -1, "sig")
        # Only printable ASCII without '|' survives a store round trip.
        for sig in ("si|g", "a\nb", "a\rb", "a\vb", "a\x1cb", "a\x85b", "a\tb", "a\x00b"):
            with pytest.raises(ValueError):
                PlanEntry(key, (2, 2), 4, 10, sig)


class TestMirror:
    def test_reverses_splits(self):
        key = PlanKey("tft", 17, 64, 64, 64, 1)
        entry = PlanEntry(key, (2, 4), 8, 123, "sig")
        mirrored = plan_mirror(entry)
        assert mirrored.key.kind == "itft"
        assert mirrored.splits == (4, 2)
        assert mirrored.base_case == 8

    def test_involution(self):
        entry = PlanEntry(PlanKey("tft", 17, 16, 16, 16, 1), (2, 2), 4, 9, "sig")
        assert plan_mirror(plan_mirror(entry)) == entry

    def test_rejects_wrong_kind(self):
        entry = PlanEntry(PlanKey("dft", 17, 16, 0, 16, 1), (2, 2), 4, 9, "sig")
        with pytest.raises(ValueError):
            plan_mirror(entry)


class TestStoreFormat:
    def test_empty_store_is_header_only(self, tmp_path):
        path = tmp_path / "plans.txt"
        store_save(PlanStore(), str(path))
        assert path.read_text() == f"{STORE_VERSION}\n"
        assert store_load(str(path)) == PlanStore()

    def test_single_entry_two_lines(self, tmp_path):
        store = PlanStore()
        store.add(PlanEntry(PlanKey("dft", 17, 8, 0, 8, 1), (2,), 4, 55, "sig"))
        path = tmp_path / "plans.txt"
        store_save(store, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "dft|17|8|0|8|1|splits=2|base=4|nanos=55|sig=sig"

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "plans.txt"
        path.write_text("modconv-plan v2\n")
        with pytest.raises(PlanFormatError) as err:
            store_load(str(path))
        assert err.value.line == 1

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "plans.txt"
        good = "dft|17|8|0|8|1|splits=2|base=4|nanos=55|sig=sig"
        path.write_text(f"{STORE_VERSION}\n{good}\ndft|oops\n")
        with pytest.raises(PlanFormatError) as err:
            store_load(str(path))
        assert err.value.line == 3

    def test_lines_end_at_newline_only(self, tmp_path):
        path = tmp_path / "plans.txt"
        good = "dft|17|8|0|8|1|splits=2|base=4|nanos=55|sig=sig"
        for sep in ("\x1c", "\x1d", "\x1e", "\v", "\f"):
            path.write_text(f"{STORE_VERSION}\n{good}{sep}\n")
            with pytest.raises(PlanFormatError) as err:
                store_load(str(path))
            assert err.value.line == 2, repr(sep)

    def test_blank_lines_are_rejected(self, tmp_path):
        path = tmp_path / "plans.txt"
        good = "dft|17|8|0|8|1|splits=2|base=4|nanos=55|sig=sig"
        for text, line in ((f"{STORE_VERSION}\n\n{good}\n", 2), (f"{STORE_VERSION}\n{good}\n\n", 3),
                           (f"{STORE_VERSION}\n \n", 2)):
            path.write_text(text)
            with pytest.raises(PlanFormatError) as err:
                store_load(str(path))
            assert err.value.line == line, repr(text)
        path.write_text(f"{STORE_VERSION}\n{good}")  # no final newline
        assert len(store_load(str(path))) == 1

    def test_fuzzed_round_trips(self, tmp_path):
        rng = random.Random(4242)
        for trial in range(100):
            store = PlanStore()
            for _ in range(rng.randint(0, 12)):
                lg = rng.randint(1, 8)
                splits = []
                rest = lg
                while rest > 3 or (rest > 1 and rng.random() < 0.5):
                    step = rng.choice([s for s in (1, 2, 3) if s <= rest - 1])
                    splits.append(1 << step)
                    rest -= step
                key = PlanKey(
                    rng.choice(("dft", "tft", "itft")),
                    rng.choice((17, 257, LARGE_PRIME)),
                    1 << lg,
                    rng.randint(0, 1 << lg),
                    rng.randint(0, 1 << lg),
                    rng.randint(1, 16),
                )
                entry = PlanEntry(
                    key,
                    tuple(splits),
                    1 << rest,
                    rng.randrange(10**12),
                    f"host-{rng.randint(0, 5)};threads={rng.randint(1, 8)}",
                )
                try:
                    store.add(entry)
                except ValueError:
                    continue  # fuzzer hit an existing (key, sig) slot
            path = tmp_path / f"fuzz-{trial}.txt"
            store_save(store, str(path))
            assert store_load(str(path)) == store, trial

    def test_duplicate_slot_rejected(self):
        store = PlanStore()
        entry = PlanEntry(PlanKey("dft", 17, 8, 0, 8, 1), (2,), 4, 55, "sig")
        store.add(entry)
        with pytest.raises(ValueError):
            store.add(entry)


class TestLookupPolicy:
    def test_fresh_key_triggers_search_and_grows_store(self):
        session = make_session()
        key = PlanKey("tft", LARGE_PRIME, 8, 8, 8, 1)
        assert len(session.store) == 0
        entry = session.lookup(key)
        assert session.search_count == 1
        assert len(session.store) == 1
        assert entry.key == key

    def test_exact_hit_performs_no_search(self):
        session = make_session()
        key = PlanKey("dft", LARGE_PRIME, 8, 0, 8, 1)
        session.lookup(key)
        searches = session.search_count
        hit = session.lookup(key)
        assert session.search_count == searches
        assert hit.exec_signature == session.signature

    def test_signature_miss_clones_without_search(self):
        store = PlanStore()
        original = PlanEntry(PlanKey("dft", 17, 8, 0, 8, 1), (2,), 4, 55, "other-host")
        store.add(original)
        session = make_session(store, sig="this-host")
        clone = session.lookup(original.key)
        assert session.search_count == 0
        assert clone.exec_signature == "this-host"
        assert clone.splits == original.splits
        assert store.get(original.key, "other-host") == original
        assert len(store) == 2

    def test_conv_kind_times_kronecker(self, monkeypatch):
        calls = []

        def counting_kronecker(u, v, fp):
            calls.append((len(u), len(v), fp.p))
            return convolve._kronecker(u, v, fp)

        # The planner times the Kronecker core that poly_mul's engine runs.
        monkeypatch.setattr(planner, "_kronecker", counting_kronecker)
        session = make_session(reps=3)
        entry = session.search(PlanKey("conv", 17, 8, 3, 5, 1))
        # A 3 x 3 product (n = 5) over 17, once per timed repetition.
        assert calls == [(3, 3, 17)] * 3
        assert (entry.splits, entry.base_case) == ((2, 2), 2)
        assert session.replay(entry, ([1, 2, 3], [4, 5])) == [4, 13, 5, 15]
        with pytest.raises(ValueError):
            session.search(PlanKey("conv", 17, 8, 0, 8, 1))

    def test_conv_key_needs_no_twiddle_table(self):
        # Kronecker runs at any size: a conv key at 2**12 over a prime of
        # 2-adicity 11 is timed and replayed without building a table.
        session = make_session(reps=1)
        misses = transform._build_table.cache_info().misses
        entry = session.search(PlanKey("conv", 2305843009213704193, 4096, 1025, 2049, 1))
        assert entry.key.L == 4096 and session.search_count == 1
        assert session.replay(entry, ([1, 2], [3])) == [3, 6]
        assert transform._build_table.cache_info().misses == misses


class TestDftSearch:
    def test_dft_search_times_moddft(self, monkeypatch):
        calls = []

        def counting_moddft(*args, **kwargs):
            calls.append([len(x) for x in args[0]])
            return transform._moddft(*args, **kwargs)

        monkeypatch.setattr(planner, "_moddft", counting_moddft)
        session = make_session(reps=3)
        entry = session.search(PlanKey("dft", LARGE_PRIME, 64, 0, 64, 1))
        # One call per timed repetition, each on a stack of one vector of the key's size.
        assert calls == [[64]] * 3
        assert (entry.splits, entry.base_case) == ((2,) * 5, 2)
        assert session.search_count == 1 and len(session.store) == 1

    def test_stored_plans_replay_bit_correct(self, fp998, rng):
        session = make_session()
        for size in (2, 4, 8, 16, 32, 64):
            session.search(PlanKey("dft", fp998.p, size, 0, size, 1))
        for entry in session.store:
            table = get_table(fp998, entry.key.L)
            x = random_vec(rng, fp998, entry.key.L)
            assert session.replay(entry, x) == moddft(x, table)
        # A plan replays on lists, as the public transforms take them.
        if importlib.util.find_spec("numpy") is not None:
            import numpy as np

            with pytest.raises(ValueError, match="ndarray"):
                session.replay(entry, np.array(x, dtype=np.uint64))

    def test_radix_4_8_entries_load_and_replay(self, fp998, rng, tmp_path):
        # Stores written with general-radix decompositions stay readable.
        path = tmp_path / "plans.txt"
        path.write_text(
            f"{STORE_VERSION}\n"
            f"dft|{fp998.p}|64|0|64|1|splits=4,2|base=8|nanos=900|sig=old\n"
            f"tft|{fp998.p}|32|20|20|1|splits=8|base=4|nanos=500|sig=old\n"
        )
        store = store_load(str(path))
        session = make_session(store)
        dft_entry = session.lookup(PlanKey("dft", fp998.p, 64, 0, 64, 1))
        tft_entry = session.lookup(PlanKey("tft", fp998.p, 32, 20, 20, 1))
        assert session.search_count == 0
        assert (dft_entry.splits, dft_entry.base_case) == ((4, 2), 8)
        x = random_vec(rng, fp998, 64)
        assert session.replay(dft_entry, x) == moddft(x, get_table(fp998, 64))
        x = random_vec(rng, fp998, 20)
        want = bit_reverse_permute(moddft(x + [0] * 12, get_table(fp998, 32)))[:20]
        assert session.replay(tft_entry, x) == want

    def test_truncated_replay_roundtrip(self, fp998, rng):
        session = make_session()
        fwd = session.lookup(PlanKey("tft", fp998.p, 32, 20, 20, 1))
        inv = plan_mirror(fwd)
        session.store.add(inv)
        x = random_vec(rng, fp998, 20)
        spectral = session.replay(fwd, x)
        scaled = session.replay(inv, spectral)
        assert scaled == [v * 32 % fp998.p for v in x]

    # Replays that no door would take, as (kind, L, z, n) and x. With numpy
    # loaded the dft kernel's row gather would clip the short list and cut
    # the long one, and a conv x must be a pair of two nonempty lists.
    BAD_REPLAYS = {
        "dft-short": (("dft", 2048, 0, 2048), [1] * 2000),
        "dft-long": (("dft", 2048, 0, 2048), [1] * 2100),
        "tft-z-above-n": (("tft", 16, 10, 10), [1] * 12),
        "tft-empty": (("tft", 16, 10, 10), []),
        "itft-above-L": (("itft", 16, 16, 16), [1] * 30),
        "itft-empty": (("itft", 16, 16, 16), []),
        "conv-empty": (("conv", 16, 3, 5), ([], [1])),
        "conv-one-list": (("conv", 16, 3, 5), ([1],)),
        "conv-three-lists": (("conv", 16, 3, 5), ([1], [2], [3])),
        "conv-not-a-pair": (("conv", 16, 3, 5), 5),
        "conv-pair-of-ints": (("conv", 16, 3, 5), (5, 6)),
    }

    @pytest.mark.parametrize("case", list(BAD_REPLAYS))
    def test_replay_checks_what_it_replays(self, case):
        if importlib.util.find_spec("numpy") is not None:
            import numpy  # noqa: F401  loaded, so the dft replays run in numpy
        (kind, size, z, n), x = self.BAD_REPLAYS[case]
        session = make_session(reps=1)
        entry = session.lookup(PlanKey(kind, LARGE_PRIME, size, z, n, 1))
        with pytest.raises(ValueError):
            session.replay(entry, x)

    @pytest.mark.parametrize("size", [1 << 15, 1 << 16])
    @pytest.mark.parametrize("p", [LARGE_PRIME, WIDE_PRIME])
    def test_search_times_what_the_engines_pass(self, monkeypatch, p, size):
        # Over a 30-bit and a 62-bit prime alike, the engines hand these
        # kernels uint64 arrays from 2**15 on, importing numpy if need be.
        np = pytest.importorskip("numpy")
        seen = []
        for name in ("_moddft", "_tft", "_kronecker"):
            monkeypatch.setattr(planner, name, lambda *args: seen.append(args))
        session = make_session(reps=1)
        for key in planner.planned_keys(p, size):
            session.search(key)
        # dft passes its stack of one vector first, tft the table and its
        # stack of one.
        ((x_dft,), _), (_, (x_tft,), _), (u, v, _) = seen
        inputs = [x_dft, x_tft]
        assert all(type(x) is np.ndarray for x in inputs)
        assert [len(x) for x in inputs] == [size] * 2
        assert all(x.dtype == np.uint64 for x in inputs)
        # Kronecker packs lists: a balanced product at the bottom of L's range.
        assert type(u) is type(v) is list and len(u) == len(v) == size // 4 + 1

    def test_search_rejects_infeasible_key(self, fp17):
        session = make_session()
        from modconv import UnsupportedSizeError

        with pytest.raises(UnsupportedSizeError):
            session.search(PlanKey("dft", 17, 64, 0, 64, 1))


class TestResolveEngine:
    def _stocked_session(self, tft_nanos, dft_nanos, conv_nanos=10**9, size=16, p=LARGE_PRIME):
        # Exactly the keys `modconv plan` writes at L = size.
        session = make_session()
        nanos = {"dft": dft_nanos, "tft": tft_nanos, "conv": conv_nanos}
        for key in planner.planned_keys(p, size):
            session.store.add(PlanEntry(key, (2,) * (size.bit_length() - 2), 2, nanos[key.kind], session.signature))
        return session

    @pytest.mark.parametrize("z1, z2", [(0, 5), (5, 0), (0, 0), (-2, 3)])
    def test_refuses_empty_operands_before_any_lookup(self, fp998, z1, z2):
        session = make_session()
        with pytest.raises(ValueError):
            session.resolve_engine(fp998, z1, z2)
        assert session.search_count == 0 and len(session.store) == 0

    def test_prefers_cheap_transforms_over_definition(self, fp998):
        session = self._stocked_session(tft_nanos=10, dft_nanos=1000)
        assert session.resolve_engine(fp998, 8, 8) == "tft"

    def test_prefers_fft_when_it_measures_faster(self, fp998):
        session = self._stocked_session(tft_nanos=10**6, dft_nanos=10)
        assert session.resolve_engine(fp998, 8, 8) == "fft_pad"

    def test_prefers_kronecker_when_it_measures_faster(self, fp998):
        session = self._stocked_session(tft_nanos=10**6, dft_nanos=10**6, conv_nanos=10)
        assert session.resolve_engine(fp998, 8, 8) == "kronecker"

    def test_new_shapes_read_only_planned_keys(self, fp998):
        session = self._stocked_session(tft_nanos=10, dft_nanos=1000)
        for z1, z2 in ((8, 8), (2, 14), (9, 7), (16, 1), (5, 5)):
            session.resolve_engine(fp998, z1, z2)
        assert session.search_count == 0
        assert len(session.store) == 3

    def test_truncated_timings_scale_by_butterfly_counts(self, fp998):
        # 2 x 8 -> n = 9 at L = 16, where a full tft or itft spends 32 butterflies.
        # With kronecker priced out, fft_pad costs 3 dft timings, and tft the
        # tft timing and, for its inverse, the dft timing, each scaled: tft
        # wins once 3 * dft > 1000 * fwd + dft * inv.
        fwd = (tft_butterflies(16, 2, 9) + tft_butterflies(16, 8, 9)) / 32
        inv = itft_butterflies(16, 9) / 32
        even = 1000 * fwd / (3 - inv)
        for dft, pick in ((int(even) - 1, "fft_pad"), (int(even) + 1, "tft")):
            session = self._stocked_session(tft_nanos=1000, dft_nanos=dft)
            assert session.resolve_engine(fp998, 2, 8) == pick, dft

    def test_truncated_timings_scale_from_the_shape_they_were_timed_at(self):
        # Entries timed at z = L/4 + 1 inputs to n = L/2 + 1 outputs price a
        # product of that shape at their own timings: two forward tfts and
        # one itft.
        size = 64
        z, n = size // 4 + 1, size // 2 + 1
        fwd = PlanEntry(PlanKey("tft", LARGE_PRIME, size, z, n, 1), (2,) * 5, 2, 700, "sig")
        inv = PlanEntry(PlanKey("itft", LARGE_PRIME, size, n, n, 1), (2,) * 5, 2, 900, "sig")
        assert convolve._tft_cost(z, z, fwd, inv) == 2 * 700 + 900

    def test_kronecker_timing_scales_by_packed_multiply_cost(self, fp998):
        # The conv key at L = 16 times 5 x 5; an 8 x 8 product packs both
        # inputs at 8 bytes per coefficient too, so it costs (64/40)**1.585
        # times as much, above the linear floor of n/9 = 15/9.
        cost = 1000 * 1.6 ** (1 + convolve.KARATSUBA_EXPONENT)
        assert cost > 1000 * 15 / 9
        for dft, pick in ((int(cost / 3) - 1, "fft_pad"), (int(cost / 3) + 1, "kronecker")):
            session = self._stocked_session(tft_nanos=10**9, dft_nanos=dft, conv_nanos=1000)
            assert session.resolve_engine(fp998, 8, 8) == pick, dft

    def test_kronecker_cost_has_a_linear_floor(self, fp998):
        # 1 x 127 at L = 128: scaled from the timed 33 x 33 by multiply cost
        # alone it would cost about 0.41 * 100_000 ns. Packing and unpacking
        # are priced from the conv timing at LINEAR_WORK_L = 64 (a 17 x 17
        # product, n = 33) by n, which makes it 127 * 1000 ns.
        base = planned_key(LARGE_PRIME, convolve.LINEAR_WORK_L, "conv")
        assert (base.z, base.n) == (17, 33)
        floor = 127_000
        for dft, pick in ((floor // 3 - 1, "fft_pad"), (floor // 3 + 1, "kronecker")):
            session = self._stocked_session(tft_nanos=10**9, dft_nanos=dft, conv_nanos=100_000, size=128)
            session.store.add(PlanEntry(base, (2,) * 5, 2, 33_000, session.signature))
            assert session.resolve_engine(fp998, 1, 127) == pick, dft
            assert session.search_count == 0

    def test_a_product_past_the_planned_l_searches_its_three_keys(self, monkeypatch, fp998):
        # Past the planned max L, the first product at a new L times that
        # L's planned keys once: dft, tft and conv, and no itft.
        monkeypatch.setattr(convolve, "_numpy_kernels", numpy_decision(False))
        session = make_session(reps=1)
        for log in range(1, 7):
            for key in planner.planned_keys(LARGE_PRIME, 1 << log):
                session.store.add(PlanEntry(key, (2,) * (log - 1), 2, 1000 * log, session.signature))
        session.resolve_engine(fp998, 30, 30)
        assert session.search_count == 0
        session.resolve_engine(fp998, 40, 40)
        assert session.search_count == 3
        assert sorted(e.key.kind for e in session.store if e.key.L == 128) == ["conv", "dft", "tft"]
        session.resolve_engine(fp998, 50, 60)
        assert session.search_count == 3

    def test_scalar_product_short_circuits(self, fp998):
        session = make_session()
        assert session.resolve_engine(fp998, 1, 1) == "kronecker"
        assert len(session.store) == 0

    def test_low_adicity_falls_back_to_kronecker(self):
        from modconv import FourierPrime

        fp7 = FourierPrime.from_modulus(7)
        session = make_session()
        assert session.resolve_engine(fp7, 5, 5) == "kronecker"
        # Past the 2-adicity (11) of this 62-bit prime no key is read.
        fp_low = FourierPrime.from_modulus(2305843009213704193)
        assert session.resolve_engine(fp_low, 1000, 1100) == "kronecker"
        assert session.search_count == 0 and len(session.store) == 0

    def test_field_decides_which_sizes_rank_transforms(self, fp998):
        # The planner asks the field for a root of the padded size rather than
        # restating the 2-adicity rule: a size the field refuses goes to
        # kronecker, whatever the stocked timings say, and no key is read.
        from unittest import mock

        from modconv import UnsupportedSizeError

        session = self._stocked_session(tft_nanos=10, dft_nanos=1000)

        def refuse_16(field, n):
            if n == 16:
                raise UnsupportedSizeError(f"no root of order {n}")
            return root_of_unity(field, n)

        with mock.patch.object(planner, "root_of_unity", refuse_16), mock.patch.object(
            session, "lookup", side_effect=AssertionError("a key was read")
        ):
            assert session.resolve_engine(fp998, 8, 8) == "kronecker"
        assert session.resolve_engine(fp998, 8, 8) == "tft"

    @pytest.mark.parametrize("size", [1 << 9, 1 << 12, 1 << 14])
    def test_loaded_numpy_excludes_kronecker_over_word_primes(self, size):
        # Once numpy is loaded, transforms over every prime, 62-bit ones
        # too, run there from 2**9, faster than the Python-speed timings
        # stored below 2**15 say, so kronecker is not ranked there.
        pytest.importorskip("numpy")
        from modconv import FourierPrime

        z = size // 2
        for p, pick in ((LARGE_PRIME, "tft"), (WIDE_PRIME, "tft")):
            session = self._stocked_session(tft_nanos=10**6, dft_nanos=10**9, conv_nanos=1, size=size, p=p)
            session.store.add(PlanEntry(planned_key(p, 64, "conv"), (2,) * 5, 2, 1, session.signature))
            assert session.resolve_engine(FourierPrime.from_modulus(p), z, z) == pick, p
            assert session.search_count == 0

    def test_below_numpy_crossover_kronecker_is_ranked_with_numpy_loaded(self, fp998):
        pytest.importorskip("numpy")
        session = self._stocked_session(tft_nanos=10**6, dft_nanos=10**6, conv_nanos=10, size=256)
        session.store.add(PlanEntry(planned_key(LARGE_PRIME, 64, "conv"), (2,) * 5, 2, 10, session.signature))
        assert session.resolve_engine(fp998, 100, 100) == "kronecker"


# The picks grid: over 998244353 and two 62-bit primes (2-adicity 25 and 11),
# product lengths n = 7/8*2**k, 2**k and 2**k + 1 for k = 1..16, each split
# 1:1 and 1:8, with and without numpy loaded.
PICK_PRIMES = (LARGE_PRIME, WIDE_PRIME, 2305843009213704193)
PICK_SHAPES = tuple(dict.fromkeys(
    (z1, n + 1 - z1)
    for k in range(1, 17)
    for n in (7 * 2**k // 8, 2**k, 2**k + 1)
    for z1 in (max(1, n // 2), max(1, n // 9))
))
PICK_TOP = 1 << 17  # the padded size of the longest product, 2**16 + 1


def stock_pick_store(session):
    """Every planned key up to PICK_TOP for PICK_PRIMES, with seeded timings shaped like a 2-core host's.

    A transform costs about 290 ns per Python-loop butterfly (350 over a
    62-bit prime) and 16 ns in numpy (35 over a 62-bit prime), which
    `modconv plan` runs from 2**15; `tft` takes 1.15x a `dft`. `conv`
    grows as (L/2048)**1.46 from 0.86 ms, 2.2x that over a 62-bit prime.
    Each timing is scaled by a seeded factor in [0.8, 1.25]. The seeded
    draws still include one for the itft key that `modconv plan` wrote
    when these picks were first recorded, so every other timing keeps the
    draw it had then.
    """
    rng = random.Random(2023)
    for p in PICK_PRIMES:
        for log in range(1, PICK_TOP.bit_length()):
            size = 1 << log
            per = (35 if p >> 32 else 16) if size >= 1 << 15 else 350 if p >> 32 else 290
            transform_ns = per * (size >> 1) * log
            conv_ns = 4000 + 860_000 * (2.2 if p >> 32 else 1) * (size / 2048) ** 1.46
            scale = {"dft": transform_ns, "tft": 1.15 * transform_ns, "conv": conv_ns}
            keys = {key.kind: key for key in planner.planned_keys(p, size)}
            for kind in ("dft", "tft", "itft", "conv"):
                nanos = int(scale.get(kind, 0) * rng.uniform(0.8, 1.25))
                if kind in keys:
                    session.store.add(PlanEntry(keys[kind], (2,) * (log - 1), 2, nanos, session.signature))


# `auto`'s picks on PICK_SHAPES over each of PICK_PRIMES from stock_pick_store,
# with numpy loaded (True) or not (False), one letter per shape: f for
# fft_pad, t for tft, k for kronecker. Recorded from the planner before the
# engines' costs moved into `convolve._ENGINES`; the 62-bit picks that
# changed were recorded again when the numpy kernels came to take 62-bit
# primes (`kronecker` is no longer ranked there with numpy loaded, and the
# stocked 62-bit timings from 2**15 are of numpy), and 20 letters were
# recorded again when tft's inverse came to be priced from the dft timing.
RECORDED_PICKS = {
    False: {
        998244353: "kftftkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkttttttttfffftt",
        2305843009448574977: "kftftkkkkfkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkfkttftffttfffftt",
        2305843009213704193: "ktkfkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk",
    },
    True: {
        998244353: "kftftkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkttttftttttftttttffttttttttffffttttffttttttttfffftt",
        2305843009448574977: "kftftkkkkfkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkttttffttttffttttttttttftttttffttftffttftffttfffftt",
        2305843009213704193: "ktkfkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkttffffttttftttffffkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk",
    },
}


def numpy_decision(loaded):
    # `_numpy_kernels` as a process with numpy loaded (or not, and under its
    # import budget) decides, whether or not this one has numpy: a call on
    # vectors vectors of size points from vectors * size = _NUMPY_CROSSOVER
    # up; unloaded, a first product pays for the import from 2**15 points on.
    def decide(size, vectors):
        taken = size * vectors >= transform._NUMPY_CROSSOVER
        return transform if taken and (loaded or size >= 1 << 15) else None

    return decide


class TestEngineTable:
    def test_every_fixed_engine_has_an_entry(self):
        from modconv import ENGINES

        assert ENGINES == ("definition", "fft_pad", "tft", "split", "kronecker", "auto")
        assert ENGINES == (*convolve._ENGINES, "auto")

    def test_every_entry_has_a_cost_or_its_reason(self):
        unranked = set()
        for name, engine in convolve._ENGINES.items():
            if not callable(engine.cost):
                assert isinstance(engine.cost, str) and engine.cost.strip(), name
                unranked.add(name)
        assert unranked == {"definition", "split"}

    @pytest.mark.parametrize("loaded", [False, True])
    def test_inside_the_planned_l_only_planned_keys_are_read(self, monkeypatch, loaded):
        # A store planned to L = 1024 over two primes, holding too the itft
        # key that `modconv plan` once wrote at each size: every product
        # that fits in it reads only the planned keys, never an itft one,
        # prices every ranked engine somewhere, and picks one with a cost.
        monkeypatch.setattr(convolve, "_numpy_kernels", numpy_decision(loaded))
        session = make_session()
        planned = set()
        for p in (LARGE_PRIME, WIDE_PRIME):
            for log in range(1, 11):
                size = 1 << log
                for key in planner.planned_keys(p, size):
                    planned.add(key)
                    session.store.add(PlanEntry(key, (2,) * (log - 1), 2, 1000 * log + key.L, session.signature))
                itft = PlanKey("itft", p, size, size, size, 1)
                session.store.add(PlanEntry(itft, (2,) * (log - 1), 2, 1000 * log + size, session.signature))
        stocked = len(session.store)
        read, priced = [], set()
        lookup = session.lookup
        monkeypatch.setattr(session, "lookup", lambda key: read.append(key) or lookup(key))
        for name, engine in convolve._ENGINES.items():
            if callable(engine.cost):
                spy = lambda *args, name=name, cost=engine.cost: priced.add(name) or cost(*args)
                monkeypatch.setitem(convolve._ENGINES, name, engine._replace(cost=spy))
        from modconv import FourierPrime

        for p in (LARGE_PRIME, WIDE_PRIME):
            fp = FourierPrime.from_modulus(p)
            for z1 in (1, 2, 3, 7, 64, 300, 512):
                for z2 in (1, 5, 100, 400, 513):
                    if z1 + z2 - 1 <= 1024:
                        pick = session.resolve_engine(fp, z1, z2)
                        assert callable(convolve._ENGINES[pick].cost), (p, z1, z2)
        assert read and set(read) <= planned
        assert priced == {"fft_pad", "tft", "kronecker"}
        assert session.search_count == 0 and len(session.store) == stocked

    def test_ties_go_by_the_table(self, monkeypatch, fp998):
        # With every ranked cost equal, the pick is the lowest `tie` among the
        # engines that apply: fft_pad, then kronecker, then tft.
        monkeypatch.setattr(convolve, "_numpy_kernels", lambda size, vectors: None)
        ranked = {name: e for name, e in convolve._ENGINES.items() if callable(e.cost)}
        assert sorted(ranked, key=lambda name: ranked[name].tie) == ["fft_pad", "kronecker", "tft"]
        for name, engine in ranked.items():
            monkeypatch.setitem(convolve._ENGINES, name, engine._replace(cost=lambda z1, z2, *entries: 1))
        session = TestResolveEngine()._stocked_session(tft_nanos=1, dft_nanos=1, conv_nanos=1)
        session.store.add(PlanEntry(planned_key(LARGE_PRIME, 64, "conv"), (2,) * 5, 2, 1, session.signature))
        for pick in ("fft_pad", "kronecker", "tft"):
            assert session.resolve_engine(fp998, 8, 8) == pick
            # Price the winner out, and the next in the tie order wins.
            monkeypatch.setitem(convolve._ENGINES, pick, ranked[pick]._replace(cost=lambda z1, z2, *entries: 2))
        assert session.search_count == 0

    @pytest.mark.parametrize("loaded", [False, True])
    def test_picks_match_the_recorded_ones(self, monkeypatch, loaded):
        from modconv import FourierPrime

        monkeypatch.setattr(convolve, "_numpy_kernels", numpy_decision(loaded))
        session = make_session()
        stock_pick_store(session)
        stocked = len(session.store)
        picks = {
            p: "".join(session.resolve_engine(FourierPrime.from_modulus(p), *shape)[0] for shape in PICK_SHAPES)
            for p in PICK_PRIMES
        }
        assert picks == RECORDED_PICKS[loaded]
        assert session.search_count == 0 and len(session.store) == stocked

    def test_recorded_picks_cover_every_ranked_engine(self):
        letters = "".join(s for by_prime in RECORDED_PICKS.values() for s in by_prime.values())
        assert len(letters) == 2 * len(PICK_PRIMES) * len(PICK_SHAPES) >= 500
        assert all(letters.count(c) >= 10 for c in "ftk"), {c: letters.count(c) for c in "ftk"}


def _cpuinfo_has_model_name() -> bool:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return "model name" in fh.read().lower()
    except OSError:
        return False


class TestSignature:
    def test_contains_the_advertised_parts(self):
        sig = make_exec_signature()
        assert "threads=1" in sig
        assert "cores=" in sig
        assert "build=modconv-" in sig
        assert "|" not in sig and "\n" not in sig

    def test_stable_within_a_host(self):
        assert make_exec_signature() == make_exec_signature()

    def test_other_characters_become_question_marks(self, monkeypatch):
        monkeypatch.setattr(planner, "_cpu_model", lambda: "cpu\x85\x1c\r|\nx")
        sig = make_exec_signature()
        assert sig.startswith("cpu?????x;")
        PlanEntry(PlanKey("dft", 17, 2, 0, 2, 1), (), 2, 1, sig)

    @pytest.mark.skipif(not _cpuinfo_has_model_name(), reason="needs a /proc/cpuinfo model name")
    def test_cpu_model_does_not_run_uname(self, monkeypatch):
        def refuse():
            raise AssertionError("platform.processor() called")

        import platform

        monkeypatch.setattr(platform, "processor", refuse)
        assert planner._cpu_model()

    def test_cpu_model_falls_back_to_platform(self, monkeypatch):
        import platform

        def no_cpuinfo(*args, **kwargs):
            raise OSError("no /proc/cpuinfo")

        monkeypatch.setattr(planner, "open", no_cpuinfo, raising=False)
        monkeypatch.setattr(platform, "processor", lambda: "")
        monkeypatch.setattr(platform, "machine", lambda: "test-machine")
        assert planner._cpu_model() == "test-machine"
