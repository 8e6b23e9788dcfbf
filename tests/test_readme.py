"""The README's Library block runs as written, and each value its comments
state is the value the code returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _run(block: str):
    """The namespace after the block, and (value, comment) for each of its
    expression statements, in order."""
    lines = block.splitlines()
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            values.append((value, comment))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return namespace, values


def _ideal(R, text: str):
    """The ideal of R that a comment writes as "(g1, g2, ...)"."""
    return R.ideal(*text.strip().strip("()").split(", "))


def test_library_block_values():
    namespace, values = _run(_library_block())
    R = namespace["R"]
    (colon, c0), (corner, c1), (bracket, c2), (tau, c3), (sizes, c4) = values
    assert colon == _ideal(R, c0)
    dividend, divisor = c1.partition(" = ")[2].split(" : ")
    assert corner == _ideal(R, dividend).colon(R.ideal(divisor))
    assert bracket == _ideal(R, c2.partition(" = ")[2])
    assert tau == _ideal(R, re.fullmatch(r".*\(here: (\(.*\))\)", c3).group(1))
    assert sizes == tuple(int(v) for v in c4.split(","))
    assert sizes == (8, 2)
