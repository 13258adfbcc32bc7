"""The module layering of src/modconv, read from its syntax trees and its text: one module holds the uint64 arithmetic and its insides."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "modconv"


def trees():
    return {path.name: ast.parse(path.read_bytes()) for path in sorted(SRC.glob("*.py"))}


def test_only_the_kernels_import_numpy():
    # numpy, and names from the kernels module, are imported by the kernels
    # alone; every other module reaches the array primitives through
    # transform._array_kernels or transform._numpy_kernels.
    numpy, from_kernels = set(), set()
    for name, tree in trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "numpy" for alias in node.names):
                    numpy.add(name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level == 0 and node.module.split(".")[0] == "numpy":
                    numpy.add(name)
                if node.module.split(".")[-1] == "_ntt_numpy":
                    from_kernels.add(name)
    assert numpy == {"_ntt_numpy.py"}
    assert not from_kernels


def word_literals(tree):
    # The lines of every 2**32 written out: 1 << 32, 2 ** 32, 4294967296, or
    # a shift by 32.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value == 1 << 32 and type(node.value) is int:
            yield node.lineno
        if isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant) and node.right.value == 32:
            if isinstance(node.op, (ast.LShift, ast.RShift)) or isinstance(node.op, ast.Pow) and \
                    isinstance(node.left, ast.Constant) and node.left.value == 2:
                yield node.lineno


def test_the_word_bound_is_defined_once():
    found = [(name, line) for name, tree in trees().items() for line in word_literals(tree)]
    assert len(found) == 1, found
    name, line = found[0]
    assert name == "transform.py"
    source = (SRC / name).read_text().splitlines()[line - 1]
    assert source.replace(" ", "") == "_WORD=1<<32", source


def test_only_the_kernels_name_their_insides():
    # The stage arrays, the Shoup product on quotients and the stage
    # functions stay behind the kernels' primitives: no other file under
    # src/modconv or tools/ names them. tools/kernel_times.py runs its child
    # from a string, so this searches the text, not the syntax trees.
    insides = re.compile(r"\b(stage_arrays|mulmod|_pass|_butterflies|_dif)\b")
    found = [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
             for path in sorted([*SRC.rglob("*.py"), *(ROOT / "tools").rglob("*.py")]) if path.name != "_ntt_numpy.py"
             for number, line in enumerate(path.read_text().splitlines(), 1) if insides.search(line)]
    assert not found, found
