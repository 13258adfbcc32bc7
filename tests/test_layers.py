"""The module layering of src/modconv, read from its syntax trees: one module holds the uint64 arithmetic."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modconv"


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
