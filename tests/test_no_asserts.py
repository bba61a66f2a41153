"""No ``assert`` statement in the package: ``python -O`` strips them, so a
check the program relies on must raise explicitly, and does under -O too."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "h4geproci"


def test_no_assert_statement_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/: {found}"
