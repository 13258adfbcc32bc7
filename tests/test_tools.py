"""Smoke tests of the measuring scripts in tools/: each runs and reports what it says."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_tool(*args):
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_code_lines_prints_each_module_and_their_total():
    lines = run_tool("tools/code_lines.py")
    rows = [re.fullmatch(r"\s*(\d+)  (\S+)", line).groups() for line in lines]
    modules = sorted(path.name for path in (ROOT / "src" / "modconv").glob("*.py"))
    assert [name for _, name in rows] == [*modules, "total"]
    counts = [int(count) for count, _ in rows]
    assert all(counts) and counts[-1] == sum(counts[:-1])


def table_rows(lines):
    # The cells of each row of a markdown table, past its header and rule.
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


LOOP_CALLS = ["moddft", "moddft_inv", "tft_n=L", "tft", "tft_7L/8", "itft_n=L", "itft", "itft_7L/8"]


@pytest.mark.parametrize(
    "group, calls",
    [
        ("kernels", ["moddft", "moddft_inv", "tft", "itft", "itft_n=L", "itft_7L/8", "moddft_pair", "tft_pair"]),
        ("stages", ["moddft", "moddft", "tft", "tft", "itft", "itft"]),
        ("boundary", ["to_array", "to_poly"]),
        ("loops", LOOP_CALLS),
    ],
)
def test_kernel_times_runs_each_group(group, calls):
    pytest.importorskip("numpy")
    lines = run_tool("tools/kernel_times.py", str(ROOT), str(ROOT), "--rounds", "1", "--lo", "9", "--hi", "9",
                     "--group", group)
    rows = table_rows(lines)
    assert [row[0] for row in rows] == calls
    assert all(row[1] == "2^9" for row in rows)
    if group == "stages":
        # The stage hook finds the kernels' stage functions by name: a
        # rename would leave every call with no stages.
        assert all(int(row[4]) > 0 for row in rows), lines
    else:
        assert all(float(row[2]) > 0 and float(row[3]) > 0 for row in rows), lines


def test_kernel_times_runs_over_a_given_prime():
    # --prime reaches the timed calls: a 62-bit prime runs, and a size past
    # a prime's 2-adicity (11 here) fails in the child, which was given it.
    pytest.importorskip("numpy")
    lines = run_tool("tools/kernel_times.py", str(ROOT), str(ROOT), "--rounds", "1", "--lo", "9", "--hi", "9",
                     "--prime", "2305843009448574977")
    rows = table_rows(lines)
    assert [row[0] for row in rows] == ["moddft", "moddft_inv", "tft", "itft", "itft_n=L", "itft_7L/8", "moddft_pair", "tft_pair"]
    assert all(float(row[2]) > 0 and float(row[3]) > 0 for row in rows), lines
    done = subprocess.run([sys.executable, "tools/kernel_times.py", str(ROOT), str(ROOT), "--rounds", "1",
                           "--lo", "12", "--hi", "12", "--prime", "2305843009213704193"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode != 0 and "'kernels', '2305843009213704193'" in done.stderr


def test_kernel_times_times_products_on_both_backends():
    # --group products times whole poly_mul products per engine and shape,
    # then the nega_conv and circ_conv_split doors at n = L, on the Python
    # loops and on the numpy kernels, in each tree. The ratio columns are the
    # new tree's numpy time over its Python-loop time, and new/old on each
    # backend.
    pytest.importorskip("numpy")
    lines = run_tool("tools/kernel_times.py", str(ROOT), str(ROOT), "--rounds", "1", "--lo", "8", "--hi", "8",
                     "--group", "products")
    rows = table_rows(lines)
    assert [row[:3] for row in rows] == [[engine, "2^8", n] for n in ("129", "224", "256")
                                         for engine in ("fft_pad", "tft", "split")] + [
        [door, "2^8", "256"] for door in ("nega_conv", "circ_conv_split")]
    times = [[float(cell) for cell in row[3:]] for row in rows]
    assert all(t > 0 for row in times for t in row), lines
    assert all(abs(row[4] - round(row[3] / row[2], 2)) <= 0.011 for row in times), lines
    assert all(abs(row[5] - round(row[2] / row[0], 2)) <= 0.011 for row in times), lines
    assert all(abs(row[6] - round(row[3] / row[1], 2)) <= 0.011 for row in times), lines


def test_kernel_times_times_the_loops_at_small_sizes():
    # --group loops times the Python loops on lists in us, every call at
    # every size, down to L = 4, where the 7L/8 shapes round to 3 outputs.
    pytest.importorskip("numpy")
    lines = run_tool("tools/kernel_times.py", str(ROOT), str(ROOT), "--rounds", "1", "--lo", "2", "--hi", "4",
                     "--group", "loops")
    assert lines[0] == "| call | L | old (us) | new (us) | new/old |"
    rows = table_rows(lines)
    assert [row[:2] for row in rows] == [[call, f"2^{k}"] for k in (2, 3, 4) for call in LOOP_CALLS]
    assert all(float(row[2]) > 0 and float(row[3]) > 0 for row in rows), lines
