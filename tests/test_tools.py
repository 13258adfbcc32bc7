"""Smoke tests of the measuring scripts in tools/: each runs and reports what it says."""

import importlib.util
import re
import subprocess
import sys
import time
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
KERNEL_CALLS = ["moddft", "moddft_inv", "tft", "itft", "itft_n=L", "itft_7L/8", "itft_3L/4-1", "itft_7L/8+5",
                "itft_15L/16", "itft_L-1", "moddft_pair", "tft_pair"]


@pytest.mark.parametrize(
    "group, calls",
    [
        ("kernels", KERNEL_CALLS),
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
        # One round: the pair's ratio is its own median and quartiles.
        assert all(row[5] == f"{row[4]}-{row[4]}" for row in rows), lines


def test_kernel_times_runs_over_a_given_prime():
    # --prime reaches the timed calls: a 62-bit prime runs, and a size past
    # a prime's 2-adicity (11 here) fails in the child, which was given it.
    pytest.importorskip("numpy")
    lines = run_tool("tools/kernel_times.py", str(ROOT), str(ROOT), "--rounds", "1", "--lo", "9", "--hi", "9",
                     "--prime", "2305843009448574977")
    rows = table_rows(lines)
    assert [row[0] for row in rows] == KERNEL_CALLS
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
    times = [[float(cell) for cell in row[3:10]] for row in rows]
    assert all(t > 0 for row in times for t in row), lines
    assert all(abs(row[4] - round(row[3] / row[2], 2)) <= 0.011 for row in times), lines
    # One round: each backend's new/old is the one pair's ratio, and its quartiles.
    assert all(abs(row[5] - round(row[2] / row[0], 2)) <= 0.011 for row in times), lines
    assert all(abs(row[6] - round(row[3] / row[1], 2)) <= 0.011 for row in times), lines
    assert all(row[10:] == [f"{row[8]}-{row[8]}", f"{row[9]}-{row[9]}"] for row in rows), lines


DEFINITION_SHAPES = ["1/1", "1/7", "1/50", "1xn", "4xn", "8xn", "16xn", "31xn"]


def test_kernel_times_times_the_defining_sum_on_both_backends():
    # --group definition times lin_conv_def on lists, in us, on the Python
    # sum and on the numpy kernel, at n = L outputs in each shape, each
    # shape's row naming its z1 x z2. The ratio columns are as in products.
    pytest.importorskip("numpy")
    lines = run_tool("tools/kernel_times.py", str(ROOT), str(ROOT), "--rounds", "1", "--lo", "5", "--hi", "6",
                     "--group", "definition")
    assert lines[0].startswith("| shape | L | z1 x z2 | old python | old numpy |")
    rows = table_rows(lines)
    assert [row[:2] for row in rows] == [[shape, f"2^{k}"] for k in (5, 6) for shape in DEFINITION_SHAPES]
    assert [row[2] for row in rows[:8]] == ["16x17", "4x29", "1x32", "1x32", "4x29", "8x25", "16x17", "16x17"]
    times = [[float(cell) for cell in row[3:10]] for row in rows]
    assert all(t > 0 for row in times for t in row), lines
    assert all(abs(row[4] - round(row[3] / row[2], 2)) <= 0.011 for row in times), lines


def load_kernel_times():
    spec = importlib.util.spec_from_file_location("kernel_times", ROOT / "tools" / "kernel_times.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_kernel_times_pairs_one_subprocess_per_tree_per_size(monkeypatch, capsys):
    # Each round runs one subprocess per tree per size, the first tree
    # alternating by round and by size, and a row's new/old is the median
    # of the per-round ratios, with their quartiles, not the ratio of the
    # trees' medians: here old reads 1, 2, 3 and new 3, 1, 2 over three
    # rounds at each size, both medians 2, while the pairs read 3, 0.5 and
    # 0.67.
    tool = load_kernel_times()
    times = {"A": [1.0, 2.0, 3.0], "B": [3.0, 1.0, 2.0]}
    runs = []

    def run(tree, k, group, prime):
        value = times[tree][runs.count((tree, k))]
        runs.append((tree, k))
        return {f"moddft {k}": value}

    monkeypatch.setattr(tool, "run", run)
    monkeypatch.setattr(sys, "argv", ["kernel_times.py", "A", "B", "--rounds", "3", "--lo", "9", "--hi", "10"])
    tool.main()
    assert runs == [("B", 9), ("A", 9), ("A", 10), ("B", 10),
                    ("A", 9), ("B", 9), ("B", 10), ("A", 10),
                    ("B", 9), ("A", 9), ("A", 10), ("B", 10)]
    rows = table_rows(capsys.readouterr().out.splitlines())
    assert rows == [["moddft", f"2^{k}", "2.000", "2.000", "0.67", "0.58-1.83"] for k in (9, 10)]
    # The same tree on both sides is paired with itself: in call order it
    # reads 1 (new), 2 (old), 3 (old), 3 (new), 2 (new), 1 (old).
    values = iter([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
    monkeypatch.setattr(tool, "run", lambda tree, k, group, prime: {f"moddft {k}": next(values)})
    monkeypatch.setattr(sys, "argv", ["kernel_times.py", "A", "A", "--rounds", "3", "--lo", "9", "--hi", "9"])
    tool.main()
    assert table_rows(capsys.readouterr().out.splitlines()) == [["moddft", "2^9", "2.000", "2.000", "1.00", "0.75-1.50"]]


def test_kernel_times_times_the_loops_at_small_sizes():
    # --group loops times the Python loops on lists in us, every call at
    # every size, down to L = 4, where the 7L/8 shapes round to 3 outputs.
    pytest.importorskip("numpy")
    lines = run_tool("tools/kernel_times.py", str(ROOT), str(ROOT), "--rounds", "1", "--lo", "2", "--hi", "4",
                     "--group", "loops")
    assert lines[0] == "| call | L | old (us) | new (us) | new/old | quartiles |"
    rows = table_rows(lines)
    assert [row[:2] for row in rows] == [[call, f"2^{k}"] for k in (2, 3, 4) for call in LOOP_CALLS]
    assert all(float(row[2]) > 0 and float(row[3]) > 0 for row in rows), lines


def test_kernel_times_stops_repeating_a_slow_call():
    # best_time times a call up to `tries` times, but a call whose best time
    # passes BUDGET only 3 times: a Python-loop product at 2**16 takes up to
    # 290 ms, and 25 of them per row made a products run last 45 minutes.
    tool = load_kernel_times()
    calls = []
    fast = tool.best_time(lambda: calls.append(1), 25)
    assert len(calls) == 25 and 0 <= fast < tool.BUDGET
    calls.clear()
    slow = tool.best_time(lambda: (calls.append(1), time.sleep(tool.BUDGET * 1.5)), 25)
    assert len(calls) == 3 and slow > tool.BUDGET
    # A batch of calls is one timing: 3 timings of 2 calls each.
    calls.clear()
    tool.best_time(lambda: (calls.append(1), time.sleep(tool.BUDGET * 1.5)), 25, batch=2)
    assert len(calls) == 6
