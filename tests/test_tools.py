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


@pytest.mark.parametrize(
    "group, calls",
    [
        ("kernels", ["moddft", "moddft_inv", "tft", "itft", "itft_n=L"]),
        ("stages", ["moddft", "moddft", "tft", "tft", "itft", "itft"]),
        ("boundary", ["to_array", "to_poly"]),
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
