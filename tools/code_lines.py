"""Print the code lines of each module in src/modconv (or DIR), then their total.

A code line holds a token other than a comment or a docstring. Run from the
root of the repository: python3 tools/code_lines.py [DIR]
"""

import ast
import pathlib
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

total = 0
for path in sorted(pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "src/modconv").glob("*.py")):
    docs = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE and tok.start[0] not in docs:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    total += len(lines)
    print(f"{len(lines):6d}  {path.name}")
print(f"{total:6d}  total")
