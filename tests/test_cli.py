import argparse
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modconv import (
    ENGINES,
    ConvRequest,
    DensePoly,
    FourierPrime,
    OpCounters,
    PlanFormatError,
    PolyTextError,
    TwiddleTable,
    mul_schoolbook,
    poly_from_text,
    poly_mul,
    poly_to_text,
    store_load,
    store_save,
)
from modconv import cli, field, planner, verify
from modconv.cli import (
    EXIT_FIELD_MISMATCH,
    EXIT_FILE_FORMAT,
    EXIT_IO,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    SweepConfig,
    _coeffs,
    build_parser,
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

    def test_engines_are_checked_and_defaulted_once(self, tmp_path, capsys):
        # The sweep's unknown-engine message is ConvRequest's, and `sweep`
        # without --engines runs SweepConfig's default engines.
        with pytest.raises(ValueError) as request_error:
            ConvRequest(FourierPrime.from_modulus(17), engine="teleport")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--min", "4", "--max", "4", "-o", str(out), "--engines", "teleport"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {request_error.value}\n"
        assert not out.exists()
        assert SweepConfig(n_min=1, n_max=1).engines == ("fft_pad", "tft")
        assert main(["sweep", "--min", "4", "--max", "4", "--reps", "1", "-o", str(out)]) == EXIT_OK
        assert [row.split(",")[1] for row in out.read_text().splitlines()[1:]] == ["fft_pad", "tft"]


def write_poly(path, p, coeffs):
    fp = FourierPrime.from_modulus(p)
    path.write_text(poly_to_text(DensePoly.from_ints(fp, coeffs)))
    return fp


@pytest.mark.parametrize(
    "argv",
    [
        # Removed options are unknown arguments, whatever their value.
        ["mul", "a", "b", "-o", "c", "--threads", "2"],
        ["plan", "--store", "s", "--threads", "1"],
        ["plan", "--store", "s", "--prime", "15"],
        ["verify", "--cap", "0"],
        ["sweep", "--min", "1", "--max", "2", "-o", "c", "--threads", "2"],
        ["sweep", "--min", "1", "--max", "2", "-o", "c", "--seed", "3"],
        ["verify", "--inject-fault"],
        # A sweep's prime is given one way: by value or by bit size.
        ["sweep", "--min", "4", "--max", "5", "-o", "c", "--prime", "17", "--prime-bits", "12"],
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


def test_every_option_is_documented_in_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        assert f"modconv {command} " in synopsis, command
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.help is not argparse.SUPPRESS, (command, action.option_strings)
            for option in action.option_strings:
                assert re.search(rf"(?<![\w-]){option}(?![\w-])", synopsis), (command, option)


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
        for engine in ENGINES:
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

    def test_mismatched_moduli_exit_code_under_auto(self, tmp_path, capsys):
        # poly_mul states the moduli rule; the plan store is read before it runs.
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        write_poly(fa, 7, [1, 2])
        write_poly(fb, 17, [3, 4])
        store_path = tmp_path / "plans.txt"
        argv = ["mul", str(fa), str(fb), "--engine", "auto", "--store", str(store_path), "-o", str(out)]
        assert main(argv) == EXIT_FIELD_MISMATCH
        assert capsys.readouterr().err.splitlines() == ["error: mixed moduli 7 and 17"]
        assert not out.exists() and not store_path.exists()
        store_path.write_text("garbage\n")
        assert main(argv) == EXIT_FILE_FORMAT
        assert store_path.read_text() == "garbage\n"

    def test_unsupported_size_exit_code(self, tmp_path):
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        write_poly(fa, 7, [1, 2])
        write_poly(fb, 7, [3, 4])
        assert main(["mul", str(fa), str(fb), "--engine", "tft", "-o", str(out)]) == EXIT_UNSUPPORTED

    @pytest.mark.parametrize("engine", ["fft_pad", "split"])
    def test_split_and_fft_pad_refuse_the_same_size(self, tmp_path, engine):
        # n = 17 needs a 32-point table, beyond 17's 2-adicity 4: split's
        # negacyclic half twists by it, so split refuses it as fft_pad does.
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        write_poly(fa, 17, [1] * 9)
        write_poly(fb, 17, [2] * 9)
        assert main(["mul", str(fa), str(fb), "--engine", engine, "-o", str(out)]) == EXIT_UNSUPPORTED
        write_poly(fb, 17, [2] * 8)
        assert main(["mul", str(fa), str(fb), "--engine", engine, "-o", str(out)]) == EXIT_OK

    def test_missing_file_exit_code(self, tmp_path):
        fb, out = tmp_path / "b", tmp_path / "out"
        write_poly(fb, 17, [3, 4])
        assert main(["mul", str(tmp_path / "nope"), str(fb), "--engine", "tft", "-o", str(out)]) == EXIT_IO


def test_import_leaves_verify_and_statistics_unloaded():
    # Every `modconv mul` process imports modconv.cli; only verify and sweep need
    # the first two, and platform only a host without a /proc/cpuinfo model name.
    code = (
        "import sys, modconv.cli\n"
        "loaded = [m for m in ('modconv.verify', 'statistics', 'platform') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_mul_below_numpy_cutoff_leaves_numpy_unloaded(tmp_path):
    # Each `modconv mul --engine auto` process of a product of 2**14 runs its
    # transforms in Python and never pays for importing numpy.
    rng = random.Random(19)
    p = 998244353
    write_poly(tmp_path / "a", p, [rng.randrange(1, p) for _ in range(1 << 13)])
    write_poly(tmp_path / "b", p, [rng.randrange(1, p) for _ in range((1 << 13) + 1)])
    code = (
        "import runpy, sys\n"
        "sys.argv[0] = 'modconv'\n"
        "try:\n"
        "    runpy.run_module('modconv.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    products = set()
    for engine in ("auto", "tft", "split"):
        args = ["mul", "a", "b", "--engine", engine, "--store", "s", "-o", engine]
        done = subprocess.run(
            [sys.executable, "-c", code, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False", engine
        products.add((tmp_path / engine).read_text())
    assert len(products) == 1
    assert len(poly_from_text(products.pop()).coeffs) == 1 << 14


class TestPlan:
    def test_fresh_store_covers_all_kinds(self, tmp_path, capsys):
        store_path = tmp_path / "plans.txt"
        assert main(["plan", "--store", str(store_path), "--max-l", "64"]) == EXIT_OK
        store = store_load(str(store_path))
        kinds = {}
        for entry in store:
            kinds.setdefault(entry.key.kind, set()).add(entry.key.L)
        sizes = {2, 4, 8, 16, 32, 64}
        assert kinds == {"dft": sizes, "tft": sizes, "conv": sizes}
        # Each kind is timed on its own kernel: three searches per size.
        assert "search invocations: 18" in capsys.readouterr().out

    def test_rerun_performs_zero_searches(self, tmp_path, capsys):
        store_path = tmp_path / "plans.txt"
        main(["plan", "--store", str(store_path), "--max-l", "16"])
        capsys.readouterr()
        assert main(["plan", "--store", str(store_path), "--max-l", "16"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "search invocations: 0" in out

    def test_plan_writes_no_itft_entry(self, tmp_path):
        # itft at n = L runs the dft key's loop, so no itft key is planned:
        # `auto` prices tft's inverse from the dft timing.
        store_path = tmp_path / "plans.txt"
        main(["plan", "--store", str(store_path), "--max-l", "32"])
        store = store_load(str(store_path))
        assert len(store) == 15
        assert not any(entry.key.kind == "itft" for entry in store)

    def test_plan_over_a_store_with_itft_entries_keeps_them(self, tmp_path, capsys):
        # A store as `modconv plan --max-l 64` wrote it when it planned an
        # itft key at each size too: planning it again searches nothing and
        # keeps every line, and a product reads no itft key from it.
        sig = planner.make_exec_signature()
        lines = ["modconv-plan v1"]
        for kind in ("conv", "dft", "itft", "tft"):
            for log in range(1, 7):
                size, z = 1 << log, (1 << log) // 4 + 1
                kz, kn = {"conv": (z, 2 * z - 1), "dft": (0, size)}.get(kind, (size, size))
                splits = ",".join("2" * (log - 1))
                lines.append(f"{kind}|998244353|{size}|{kz}|{kn}|1|splits={splits}|base=2|nanos={900 * log}|sig={sig}")
        text = "\n".join(lines) + "\n"
        store_path = tmp_path / "plans.txt"
        store_path.write_text(text)
        assert main(["plan", "--store", str(store_path), "--max-l", "64"]) == EXIT_OK
        assert "search invocations: 0" in capsys.readouterr().out
        assert store_path.read_text() == text
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        write_poly(fa, 998244353, list(range(1, 31)))
        write_poly(fb, 998244353, list(range(2, 26)))
        read = []
        lookup = planner.PlanSession.lookup
        with mock.patch.object(planner.PlanSession, "lookup", lambda self, key: read.append(key) or lookup(self, key)):
            argv = ["mul", str(fa), str(fb), "--engine", "auto", "--store", str(store_path), "-o", str(out)]
            assert main(argv) == EXIT_OK
        assert read and not any(key.kind == "itft" for key in read)
        assert store_path.read_text() == text

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
        stamp = lambda st: (st.st_ino, st.st_mtime_ns)
        planned_stamp = stamp(store_path.stat())
        fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        for za, zb in ((300, 200), (700, 20), (100, 90)):
            write_poly(fa, 998244353, [(7 * i + 1) % 1000 for i in range(za)])
            write_poly(fb, 998244353, [(3 * i + 2) % 1000 for i in range(zb)])
            argv = ["mul", str(fa), str(fb), "--engine", "auto", "--store", str(store_path), "-o", str(out)]
            assert main(argv) == EXIT_OK
            want = mul_schoolbook(poly_from_text(fa.read_text()), poly_from_text(fb.read_text()))
            assert poly_from_text(out.read_text()) == want.normalize(), (za, zb)
            assert store_load(str(store_path)) == planned, (za, zb)
            # Nothing was cloned or searched, so the store was not rewritten.
            assert stamp(store_path.stat()) == planned_stamp, (za, zb)

    def test_signature_with_control_characters(self, tmp_path, monkeypatch):
        monkeypatch.setattr(planner, "_cpu_model", lambda: "cpu\x85\x1c\r|x")
        store_path = tmp_path / "plans.txt"
        assert main(["plan", "--store", str(store_path), "--max-l", "4"]) == EXIT_OK
        sigs = {entry.exec_signature for entry in store_load(str(store_path))}
        assert len(sigs) == 1 and sigs.pop().startswith("cpu????x;")

    def test_max_l_beyond_prime_adicity(self, tmp_path, capsys):
        store_path = tmp_path / "plans.txt"
        rc = main(["plan", "--store", str(store_path), "--max-l", "64", "--prime", "17"])
        assert rc == EXIT_UNSUPPORTED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --max-l: "), err

    @pytest.mark.parametrize(
        "flags, code",
        [(["--max-l", "3"], EXIT_USAGE), (["--prime", "15"], EXIT_USAGE),
         (["--max-l", "64", "--prime", "17"], EXIT_UNSUPPORTED)],
    )
    def test_flags_are_checked_before_the_store(self, tmp_path, capsys, flags, code):
        store_path = tmp_path / "plans.txt"
        store_path.write_text("garbage\n")
        assert main(["plan", "--store", str(store_path), *flags]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and flags[0] in err[0], err
        assert store_path.read_text() == "garbage\n"


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

    def test_sentinel_rows_follow_the_transform_size_rule(self, tmp_path):
        # p = 17 hosts transforms of up to 2**4 points: the padded and truncated
        # engines get sentinels from n = 17 on, the others run at every size.
        out = tmp_path / "s.csv"
        assert main([
            "sweep", "--min", "1", "--max", "40", "--reps", "1", "--prime", "17", "-o", str(out),
            "--engines", "fft_pad,tft,auto,definition,kronecker",
        ]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 40 * 5
        for n, engine, threads, *measured in rows:
            sentinel = engine in ("fft_pad", "tft") and int(n) > 16
            assert (measured == ["-1"] * 4) == sentinel, (n, engine)

    def test_auto_engine_rows(self, tmp_path):
        rows = self.run_sweep(tmp_path, "--engines", "auto")
        assert len(rows) == 5

    def test_kronecker_rows(self, tmp_path):
        rows = self.run_sweep(tmp_path, "--engines", "kronecker,tft")
        assert [(r[0], r[1]) for r in rows[:2]] == [("14", "kronecker"), ("14", "tft")]
        for n, engine, threads, med, mean, butterflies, pointwise in rows:
            assert int(med) > 0 and int(mean) > 0
            if engine == "kronecker":
                assert (butterflies, pointwise) == ("0", "0")
        # Kronecker runs past the prime's 2-adicity, where tft gets sentinels.
        out = tmp_path / "s.csv"
        argv = ["sweep", "--min", "17", "--max", "17", "--reps", "1", "--engines", "tft,kronecker",
                "--prime", "17", "-o", str(out)]
        assert main(argv) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows[0][3:] == ["-1"] * 4 and rows[1][3] != "-1"

    def test_split_rows(self, tmp_path):
        # Every engine poly_mul takes can be swept. p = 17 hosts transforms of
        # up to 2**4 points: split pads n = 14..16 to 16 and runs; from 17 its
        # negacyclic half needs a root of order 32, so the rows are sentinels.
        out = tmp_path / "s.csv"
        argv = ["sweep", "--min", "14", "--max", "18", "--reps", "1", "--engines", "split",
                "--prime", "17", "-o", str(out)]
        assert main(argv) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        # The inputs run_sweep draws from its fixed seed 0.
        fp, rng = FourierPrime.from_modulus(17), random.Random(0)
        for (n, engine, threads, med, mean, butterflies, pointwise), size in zip(rows, range(14, 19)):
            assert (int(n), engine) == (size, "split")
            z1 = (size + 1) // 2
            a = DensePoly(fp, _coeffs(rng, 17, z1))
            b = DensePoly(fp, _coeffs(rng, 17, size + 1 - z1))
            if size > 16:
                assert [med, mean, butterflies, pointwise] == ["-1"] * 4
                continue
            counters = OpCounters()
            poly_mul(a, b, ConvRequest(fp, engine="split", counters=counters))
            assert int(med) > 0 and int(mean) > 0
            assert (int(butterflies), int(pointwise)) == (counters.butterflies, counters.pointwise_muls)
            assert counters.butterflies > 0 and counters.pointwise_muls == 16

    @pytest.mark.parametrize("prime", [17, 257])
    def test_counters_describe_the_rows_size(self, tmp_path, prime):
        # Every input keeps its leading coefficient, so the product has n
        # coefficients: tft multiplies n points and fft_pad the padded size.
        out = tmp_path / "s.csv"
        argv = ["sweep", "--min", "1", "--max", "200", "--reps", "1", "--engines", "tft,fft_pad",
                "--prime", str(prime), "-o", str(out)]
        assert main(argv) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 200
        for n, engine, threads, med, mean, butterflies, pointwise in rows:
            n = int(n)
            if n > 1 << FourierPrime.from_modulus(prime).two_adicity:
                assert pointwise == "-1", (n, engine)
            elif engine == "tft":
                assert int(pointwise) == n, (n, engine)
            else:
                assert int(pointwise) == 1 << (n - 1).bit_length(), (n, engine)

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

    def test_unwritable_output_fails_before_the_first_product(self, tmp_path, monkeypatch, capsys):
        # The output is opened before any product runs, so a bad path exits
        # 6 at once rather than after the whole sweep.
        def no_product(*args):
            raise AssertionError("a product ran before the output was opened")

        monkeypatch.setattr(cli, "poly_mul", no_product)
        out = tmp_path / "missing" / "s.csv"
        assert main(["sweep", "--min", "1", "--max", "600", "--reps", "20", "-o", str(out)]) == EXIT_IO
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--prime", "15"], ["--prime-bits", "63"], ["--engines", "warp"],
                                       ["--step", "x"], ["--reps", "0"]])
    def test_usage_errors_leave_an_existing_output_untouched(self, tmp_path, capsys, flags):
        out = tmp_path / "s.csv"
        out.write_text("kept\n")
        assert main(["sweep", "--min", "4", "--max", "5", "-o", str(out), *flags]) == EXIT_USAGE
        assert out.read_text() == "kept\n"


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

    def test_injected_fault_is_detected_and_named(self, monkeypatch, capsys):
        bad = TwiddleTable(FourierPrime.from_modulus(998244353), 16)
        stage = bad.fwd_stages[-1]
        stage[1] = (stage[1] + 1) % 998244353
        real = verify.get_table
        monkeypatch.setattr(verify, "get_table", lambda fp, n: bad if (fp.p, n) == (998244353, 16) else real(fp, n))
        assert main(["verify", "--cap", "32"]) == EXIT_VERIFY_FAILED
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
    ("17", "998244353", "15", "-17"),
    # L|z|n|threads|splits=|base=, valid but for the last five.
    ("2|0|2|1|splits=|base=2", "4|4|4|1|splits=2|base=2", "4|1|3|2|splits=|base=4",
     "8|8|8|1|splits=2,2|base=2", "16|16|16|1|splits=2,2,2|base=2", "3|1|1|1|splits=|base=2",
     "4|4|4|0|splits=2|base=2", "+16|16|16|1|splits=2,2,2|base=2", " 16|16|16|1|splits=2,2,2|base=2",
     "1_6|16|16|1|splits=2,2,2|base=2"),
    ("nanos=5", "nanos=0", "nanos=-1", "nanos=+5"),
    ("sig=h", "sig=", "sig=a b", "sig=x=y"),
)
# What int() takes and the format does not: a sign, a space or '_' in an
# integer field, or a line ending other than a bare newline.
_NOT_DECIMAL = re.compile(rb"[|=][-+ ]|_|\r")


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
    eol = draw(st.sampled_from(("\n", "\n", "\r\n", "\r")))
    return eol.join((header, *lines)) + draw(st.sampled_from((eol, "")))


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
        if _NOT_DECIMAL.search(store):
            assert rc == EXIT_FILE_FORMAT
        if rc == EXIT_FILE_FORMAT:
            with open(fs, "rb") as fh:
                assert fh.read() == store


@pytest.mark.parametrize("token", ["+17", "-17", " 17", "17 ", "\t17", "1_7", "17\v"])
def test_both_formats_reject_the_same_malformed_integer(tmp_path, token):
    # int() takes every one of these; an integer field of either format is [0-9]+.
    with pytest.raises(PolyTextError) as err:
        poly_from_text(f"{token}\n1\n5\n")
    assert err.value.line == 1
    path = tmp_path / "plans.txt"
    path.write_text(f"modconv-plan v1\ndft|{token}|8|0|8|1|splits=2|base=4|nanos=55|sig=h\n")
    with pytest.raises(PlanFormatError) as err:
        store_load(str(path))
    assert err.value.line == 2


# A store as `modconv plan --max-l 4` wrote it before integer fields were
# held to [0-9]+ on reading; only the host signature is made up.
_EARLIER_STORE = "".join(
    f"{line}|sig=cpu;cores=2;threads=1;build=modconv-0.1.0\n" if "|" in line else f"{line}\n"
    for line in (
        "modconv-plan v1",
        "conv|998244353|2|1|1|1|splits=|base=2|nanos=9412",
        "conv|998244353|4|2|3|1|splits=2|base=2|nanos=8516",
        "dft|998244353|2|0|2|1|splits=|base=2|nanos=6995",
        "dft|998244353|4|0|4|1|splits=2|base=2|nanos=6694",
        "itft|998244353|2|2|2|1|splits=|base=2|nanos=10522",
        "itft|998244353|4|4|4|1|splits=2|base=2|nanos=10414",
        "tft|998244353|2|2|2|1|splits=|base=2|nanos=8109",
        "tft|998244353|4|4|4|1|splits=2|base=2|nanos=6478",
    )
)


def test_what_modconv_writes_reads_back_byte_identical(tmp_path):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_bytes(_EARLIER_STORE.encode())
    store_save(store_load(str(old)), str(new))
    assert new.read_bytes() == old.read_bytes()
    # A product under a foreign signature clones the keys it reads and saves the store.
    fa, fb, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
    write_poly(fa, 998244353, [3, 998244352])
    write_poly(fb, 998244353, [5, 7])
    assert main(["mul", str(fa), str(fb), "--engine", "auto", "--store", str(new), "-o", str(out)]) == EXIT_OK
    written = out.read_bytes()
    assert poly_to_text(poly_from_text(written.decode("ascii"))).encode() == written
    grown = new.read_bytes()
    assert len(store_load(str(new))) > 8
    store_save(store_load(str(new)), str(new))
    assert new.read_bytes() == grown
