import os
import random
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modconv import DensePoly, FourierPrime, mul_schoolbook, poly_from_text, poly_to_text, store_load
from modconv import field, planner, verify
from modconv.cli import (
    EXIT_FIELD_MISMATCH,
    EXIT_FILE_FORMAT,
    EXIT_IO,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    SweepConfig,
    main,
)


class TestSweepConfig:
    def test_invariants(self):
        cfg = SweepConfig(n_min=3, n_max=9, step=2)
        assert list(cfg.sizes()) == [3, 5, 7, 9]
        with pytest.raises(ValueError):
            SweepConfig(n_min=0, n_max=4)
        with pytest.raises(ValueError):
            SweepConfig(n_min=5, n_max=4)
        with pytest.raises(ValueError):
            SweepConfig(n_min=1, n_max=4, reps=0)
        with pytest.raises(ValueError):
            SweepConfig(n_min=1, n_max=4, engines=("teleport",))


def write_poly(path, p, coeffs):
    fp = FourierPrime.from_modulus(p)
    path.write_text(poly_to_text(DensePoly.from_ints(fp, coeffs)))
    return fp


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "a", "b", "-o", "c", "--threads", "0"],
        ["plan", "--store", "s", "--threads", "0"],
        ["plan", "--store", "s", "--prime", "15"],
        ["verify", "--cap", "0"],
    ],
)
def test_invalid_flag_values_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_poly(tmp_path / "a", 17, [1, 2])
    write_poly(tmp_path / "b", 17, [3, 4])
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert sum("error:" in line for line in err) == 1, err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["a", "b"]


class TestMul:
    def test_product_written_in_text_format(self, tmp_path):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        fp = write_poly(fa, 7, [1, 2])
        write_poly(fb, 7, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "definition", "-o", str(out)]) == EXIT_OK
        assert poly_from_text(out.read_text()).coeffs == (3, 3, 1)

    def test_each_engine_matches_schoolbook(self, tmp_path):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        fp = write_poly(fa, 998244353, list(range(1, 30)))
        write_poly(fb, 998244353, list(range(5, 25)))
        a = poly_from_text(fa.read_text())
        b = poly_from_text(fb.read_text())
        want = mul_schoolbook(a, b).normalize()
        for engine in ("definition", "fft_pad", "tft", "split", "auto"):
            assert main(["mul", str(fa), str(fb), "--engine", engine, "-o", str(out)]) == EXIT_OK
            assert poly_from_text(out.read_text()) == want, engine

    def test_multiply_by_constant_one(self, tmp_path):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        write_poly(fa, 17, [4, 0, 9, 0])
        write_poly(fb, 17, [1])
        assert main(["mul", str(fa), str(fb), "--engine", "tft", "-o", str(out)]) == EXIT_OK
        assert poly_from_text(out.read_text()).coeffs == (4, 0, 9)  # normalized

    def test_mismatched_moduli_exit_code(self, tmp_path):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        write_poly(fa, 7, [1, 2])
        write_poly(fb, 17, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "definition", "-o", str(out)]) == EXIT_FIELD_MISMATCH

    def test_parse_error_exit_code(self, tmp_path):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        fa.write_text("not a polynomial\n")
        write_poly(fb, 17, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "definition", "-o", str(out)]) == EXIT_FILE_FORMAT

    def test_non_decimal_coefficient_exit_code(self, tmp_path):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        fa.write_text("17\n2\n1_0 3\n")
        write_poly(fb, 17, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "definition", "-o", str(out)]) == EXIT_FILE_FORMAT
        assert not out.exists()

    def test_non_ascii_poly_file_exit_code(self, tmp_path, capsys):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        fa.write_bytes(b"17\n2\n1\xc3\xa9 3\n")
        write_poly(fb, 17, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "definition", "-o", str(out)]) == EXIT_FILE_FORMAT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "line 3" in err[0]

    def test_crlf_poly_file_exit_code(self, tmp_path):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        fa.write_bytes(b"17\r\n2\r\n5 3\r\n")
        write_poly(fb, 17, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "definition", "-o", str(out)]) == EXIT_FILE_FORMAT
        assert not out.exists()

    def test_text_after_line_3_exit_code(self, tmp_path, capsys):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        fa.write_text("17\n1\n5\nxyz\n")
        write_poly(fb, 17, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "definition", "-o", str(out)]) == EXIT_FILE_FORMAT
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "line 4" in err[0]

    @pytest.mark.parametrize("line", [1, 2, 3])
    def test_too_long_field_exit_code(self, tmp_path, capsys, line):
        # Leading zeros keep each value valid; only its length exceeds int()'s digit limit.
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        fields = ["17", "1", "5"]
        fields[line - 1] = "0" * 5000 + fields[line - 1]
        fa.write_text("\n".join(fields) + "\n")
        write_poly(fb, 17, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "definition", "-o", str(out)]) == EXIT_FILE_FORMAT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"line {line}" in err[0]

    def test_wide_prime_modulus_exit_code(self, tmp_path, monkeypatch):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        fa.write_text("535535684741329881136887273182147286623\n1\n5\n")  # 129-bit prime
        write_poly(fb, 17, [3, 4])

        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(field, "factorize", refuse)
        assert main(["mul", str(fa), str(fb), "--engine", "definition", "-o", str(out)]) == EXIT_FILE_FORMAT

    @pytest.mark.parametrize(
        "text",
        [
            "9" * 4000 + "\n1\n5\n",  # 4000-digit modulus
            "17\n1\n" + "1" * 4999 + "x\n",  # 5000-character bad coefficient
            "17\n1\n" + "9" * 4000 + "\n",  # 4000-digit residue
        ],
        ids=["modulus", "bad-coefficient", "residue"],
    )
    def test_long_token_error_line_is_short(self, tmp_path, capsys, text):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        fa.write_text(text)
        write_poly(fb, 17, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "definition", "-o", str(out)]) == EXIT_FILE_FORMAT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert len(err[0].encode()) < 200 + len(str(fa)), len(err[0])

    def test_separator_only_store_lines_exit_code(self, tmp_path, capsys):
        # str.strip() removes \x1c-\x1f; such a line is not blank, and no line may be.
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        write_poly(fa, 17, [5])
        write_poly(fb, 17, [3])
        store_path = tmp_path / "plans.txt"
        for text in (b"modconv-plan v1\n\x1c\n\x1f\n", b"modconv-plan v1\n\n"):
            store_path.write_bytes(text)
            argv = ["mul", str(fa), str(fb), "--engine", "auto", "--store", str(store_path), "-o", str(out)]
            assert main(argv) == EXIT_FILE_FORMAT, text
            assert store_path.read_bytes() == text
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "line 2" in err[0], err

    def test_unwritable_store_exit_code(self, tmp_path, capsys):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        write_poly(fa, 17, [1, 2])
        write_poly(fb, 17, [3, 4])
        store_path = tmp_path / "missing" / "plans.txt"
        argv = ["mul", str(fa), str(fb), "--engine", "auto", "--store", str(store_path), "-o", str(out)]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write")

    def test_unsupported_size_exit_code(self, tmp_path):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        write_poly(fa, 7, [1, 2])
        write_poly(fb, 7, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "tft", "-o", str(out)]) == EXIT_UNSUPPORTED

    def test_missing_file_exit_code(self, tmp_path):
        fb, out = tmp_path / "b", tmp_path / "out"
        write_poly(fb, 17, [3, 4])
        assert main(["mul", str(tmp_path / "nope"), str(fb), "--engine", "tft", "-o", str(out)]) == EXIT_IO


def test_import_leaves_verify_and_statistics_unloaded():
    # Every `modconv mul` process imports modconv.cli; only verify and sweep need these.
    code = (
        "import sys, modconv.cli\n"
        "loaded = [m for m in ('modconv.verify', 'statistics') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


class TestPlan:
    def test_fresh_store_covers_all_kinds(self, tmp_path, capsys):
        store_path = tmp_path / "plans.txt"
        assert main(["plan", "--store", str(store_path), "--max-l", "64"]) == EXIT_OK
        store = store_load(str(store_path))
        kinds = {}
        for entry in store:
            kinds.setdefault(entry.key.kind, set()).add(entry.key.L)
        sizes = {2, 4, 8, 16, 32, 64}
        assert kinds["dft"] == sizes
        assert kinds["tft"] == sizes
        assert kinds["itft"] == sizes
        # Each kind is timed on its own kernel: three searches per size.
        assert "search invocations: 18" in capsys.readouterr().out

    def test_rerun_performs_zero_searches(self, tmp_path, capsys):
        store_path = tmp_path / "plans.txt"
        main(["plan", "--store", str(store_path), "--max-l", "16"])
        capsys.readouterr()
        assert main(["plan", "--store", str(store_path), "--max-l", "16"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "search invocations: 0" in out

    def test_mirrored_inverse_plans(self, tmp_path):
        store_path = tmp_path / "plans.txt"
        main(["plan", "--store", str(store_path), "--max-l", "32"])
        store = store_load(str(store_path))
        for entry in store:
            if entry.key.kind == "tft":
                inv_key = entry.key
                mirrored = [
                    e for e in store
                    if e.key.kind == "itft" and e.key.L == inv_key.L
                ]
                assert mirrored and mirrored[0].splits == tuple(reversed(entry.splits))

    def test_corrupted_store_is_not_overwritten(self, tmp_path, capsys):
        store_path = tmp_path / "plans.txt"
        corrupt = "modconv-plan v1\ngarbage line\n"
        store_path.write_text(corrupt)
        assert main(["plan", "--store", str(store_path), "--max-l", "8"]) == EXIT_FILE_FORMAT
        err = capsys.readouterr().err
        assert "line 2" in err
        assert store_path.read_text() == corrupt

    def test_non_ascii_store_is_not_overwritten(self, tmp_path, capsys):
        store_path = tmp_path / "plans.txt"
        corrupt = b"modconv-plan v1\ndft|17|2|0|2|1|splits=|base=2|nanos=5|sig=h\xff\n"
        store_path.write_bytes(corrupt)
        assert main(["plan", "--store", str(store_path), "--max-l", "8"]) == EXIT_FILE_FORMAT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "line 2" in err[0]
        assert store_path.read_bytes() == corrupt

    def test_auto_after_plan_never_searches(self, tmp_path):
        store_path = tmp_path / "plans.txt"
        assert main(["plan", "--store", str(store_path), "--max-l", "1024"]) == EXIT_OK
        planned = store_load(str(store_path))
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        for za, zb in ((300, 200), (700, 20), (100, 90)):
            write_poly(fa, 998244353, [(7 * i + 1) % 1000 for i in range(za)])
            write_poly(fb, 998244353, [(3 * i + 2) % 1000 for i in range(zb)])
            argv = ["mul", str(fa), str(fb), "--engine", "auto", "--store", str(store_path), "-o", str(out)]
            assert main(argv) == EXIT_OK
            want = mul_schoolbook(poly_from_text(fa.read_text()), poly_from_text(fb.read_text()))
            assert poly_from_text(out.read_text()) == want.normalize(), (za, zb)
            assert store_load(str(store_path)) == planned, (za, zb)

    def test_signature_with_control_characters(self, tmp_path, monkeypatch):
        monkeypatch.setattr(planner, "_cpu_model", lambda: "cpu\x85\x1c\r|x")
        store_path = tmp_path / "plans.txt"
        assert main(["plan", "--store", str(store_path), "--max-l", "4"]) == EXIT_OK
        sigs = {entry.exec_signature for entry in store_load(str(store_path))}
        assert len(sigs) == 1 and sigs.pop().startswith("cpu????x;")

    def test_max_l_beyond_prime_adicity(self, tmp_path):
        store_path = tmp_path / "plans.txt"
        rc = main(["plan", "--store", str(store_path), "--max-l", "64", "--prime", "17"])
        assert rc == EXIT_UNSUPPORTED


class TestSweep:
    def run_sweep(self, tmp_path, *extra):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--min", "14", "--max", "18", "--reps", "2", "-o", str(out), *extra]
        assert main(args) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n,engine,threads,nanos_median,nanos_mean,butterflies,pointwise_muls"
        return [line.split(",") for line in lines[1:]]

    def test_schema_and_counters(self, tmp_path):
        rows = self.run_sweep(tmp_path, "--engines", "fft_pad,tft")
        assert len(rows) == 5 * 2
        for n, engine, threads, med, mean, butterflies, pointwise in rows:
            assert engine in ("fft_pad", "tft")
            assert int(threads) == 1
            assert int(med) > 0 and int(mean) > 0
            size = 1 << (int(n) - 1).bit_length()
            if engine == "tft":
                assert int(pointwise) == int(n)
            else:
                assert int(pointwise) == size
                assert int(butterflies) == 3 * (size // 2) * (size.bit_length() - 1)

    def test_counters_independent_of_reps(self, tmp_path):
        rows1 = self.run_sweep(tmp_path, "--engines", "tft")
        counters1 = [(r[0], r[5], r[6]) for r in rows1]
        out2 = tmp_path / "s2.csv"
        assert main(["sweep", "--min", "14", "--max", "18", "--reps", "5", "-o", str(out2), "--engines", "tft"]) == EXIT_OK
        rows2 = [line.split(",") for line in out2.read_text().splitlines()[1:]]
        counters2 = [(r[0], r[5], r[6]) for r in rows2]
        assert counters1 == counters2

    def test_sentinel_rows_for_infeasible_sizes(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "sweep", "--min", "15", "--max", "18", "--reps", "1",
            "--engines", "tft,definition", "--prime", "17", "-o", str(out),
        ]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_pair = {(r[0], r[1]): r for r in rows}
        assert by_pair[("17", "tft")][3:] == ["-1", "-1", "-1", "-1"]
        assert by_pair[("18", "tft")][3:] == ["-1", "-1", "-1", "-1"]
        # definition rows keep working at every size
        assert by_pair[("17", "definition")][3] != "-1"

    def test_auto_engine_rows(self, tmp_path):
        rows = self.run_sweep(tmp_path, "--engines", "auto")
        assert len(rows) == 5

    def test_prime_bits_selection(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "sweep", "--min", "4", "--max", "6", "--reps", "1",
            "--engines", "tft", "--prime-bits", "12", "-o", str(out),
        ]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 4

    def test_step_all_and_stride(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "sweep", "--min", "10", "--max", "14", "--step", "2", "--reps", "1",
            "--engines", "definition", "-o", str(out),
        ]) == EXIT_OK
        ns = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert ns == ["10", "12", "14"]

    def test_rejects_unknown_engine(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--min", "4", "--max", "5", "--engines", "warp", "-o", str(out)])
        assert rc == 2


class TestVerify:
    def test_passes_on_correct_build(self, capsys):
        assert main(["verify", "--cap", "32"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 17

    def test_deterministic_report(self, capsys):
        main(["verify", "--cap", "32", "--seed", "5"])
        first = capsys.readouterr().out
        main(["verify", "--cap", "32", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_butterfly_suite_is_linear_in_cap(self):
        # Sum of L over the suite's transform calls: doubling cap about doubles it.
        fields = [FourierPrime.from_modulus(257), FourierPrime.from_modulus(998244353)]
        totals = []
        for cap in (1024, 2048):
            sizes = []

            def counted(kernel):
                def call(table, *args, **kwargs):
                    sizes.append(table.size)
                    return kernel(table, *args, **kwargs)

                return call

            with mock.patch.object(verify, "tft", counted(verify.tft)), \
                    mock.patch.object(verify, "itft", counted(verify.itft)):
                ok, detail = verify._suite_butterfly_counts(random.Random(0), cap, fields)
            assert ok, detail
            totals.append(sum(sizes))
        assert totals[1] <= 2.5 * totals[0], totals

    def test_injected_fault_is_detected_and_named(self, capsys):
        assert main(["verify", "--cap", "32", "--inject-fault"]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "FAIL transform-roundtrip" in out


# Exit-code fuzzing: malformed input files get a documented exit code, never a traceback.
_NOISE = st.text("0123456789 \n|,=", max_size=60)
_TOKEN = st.text("0123456789 |,=", max_size=12)


@st.composite
def _poly_text(draw):
    # The three-line format, or one line of it replaced by noise, or a tail after it.
    coeffs = draw(st.lists(st.integers(0, 4).map(str), max_size=9))
    modulus = draw(st.sampled_from(("3", "7", "17", "998244353", "15", "0")))
    lines = [modulus, str(len(coeffs)), " ".join(coeffs)]
    flaw = draw(st.sampled_from(("none", "line", "tail")))
    if flaw == "line":
        lines[draw(st.integers(0, 2))] = draw(_TOKEN)
    tail = draw(_NOISE) if flaw == "tail" else draw(st.sampled_from(("\n", "")))
    return "\n".join(lines) + tail


_NEAR_POLY_BYTES = _poly_text().map(str.encode)
_POLY_BYTES = st.one_of(st.binary(max_size=60), _NOISE.map(str.encode), _NEAR_POLY_BYTES)

_ENTRY_FIELDS = (
    ("dft", "tft", "itft", "conv", "fft"),
    ("17", "998244353", "15"),
    # L|z|n|threads|splits=|base=, valid but for the last two.
    ("2|0|2|1|splits=|base=2", "4|4|4|1|splits=2|base=2", "4|1|3|2|splits=|base=4",
     "8|8|8|1|splits=2,2|base=2", "3|1|1|1|splits=|base=2", "4|4|4|0|splits=2|base=2"),
    ("nanos=5", "nanos=0", "nanos=-1"),
    ("sig=h", "sig=", "sig=a b", "sig=x=y"),
)


@st.composite
def _store_line(draw):
    # An entry line from plausible field values, one of them possibly replaced by noise.
    fields = [draw(st.sampled_from(values)) for values in _ENTRY_FIELDS]
    if draw(st.booleans()):
        fields[draw(st.integers(0, len(fields) - 1))] = draw(_TOKEN)
    return "|".join(fields)


@st.composite
def _store_text(draw):
    # A header, entry and noise lines; the header is wrong about one time in four.
    header = "modconv-plan v1" if draw(st.integers(0, 3)) else draw(st.sampled_from(("modconv-plan v2", "")))
    lines = draw(st.lists(st.one_of(_store_line(), _NOISE), max_size=4))
    return "\n".join((header, *lines)) + draw(st.sampled_from(("\n", "")))


_STORE_BYTES = st.one_of(st.binary(max_size=80), _store_text().map(str.encode))


def _write_files(tmp, contents):
    paths = []
    for name, data in contents:
        paths.append(os.path.join(tmp, name))
        with open(paths[-1], "wb") as fh:
            fh.write(data)
    return paths


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=_POLY_BYTES, b=_NEAR_POLY_BYTES)
def test_fuzzed_poly_files_get_an_exit_code(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        fa, fb = _write_files(tmp, (("a", a), ("b", b)))
        rc = main(["mul", fa, fb, "--engine", "tft", "-o", os.path.join(tmp, "out")])
    assert rc in (EXIT_OK, EXIT_FILE_FORMAT, EXIT_FIELD_MISMATCH, EXIT_UNSUPPORTED)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(store=_STORE_BYTES)
def test_fuzzed_store_gets_an_exit_code(store):
    with tempfile.TemporaryDirectory() as tmp:
        fa, fb, fs = _write_files(tmp, (("a", b"17\n1\n5\n"), ("b", b"17\n1\n3\n"), ("store", store)))
        rc = main(["mul", fa, fb, "--engine", "auto", "--store", fs, "-o", os.path.join(tmp, "out")])
        assert rc in (EXIT_OK, EXIT_FILE_FORMAT)
        if rc == EXIT_FILE_FORMAT:
            with open(fs, "rb") as fh:
                assert fh.read() == store
