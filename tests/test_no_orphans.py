"""Every function and class in the package is used by the package itself.

A definition that only tests call is capability the program does not have;
the test keeps such helpers in the test modules instead.  A name counts as
used when it appears in package code as a name, an attribute or an imported
name, outside every definition of that name, so a recursive call or a call
from a namesake method does not count; dunder methods are exempt.  The
re-exports of `__init__.py` do not count either: a name the package only
re-exports is used by its callers, not by the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "h4geproci"

# FieldElement.conjugate and .norm: test_field.py checks the Galois structure
# through them.
ALLOWED = {"conjugate", "norm"}


def _scan(node, enclosing, defined, used, where):
    """Record the definitions under node, and the names used there outside
    a definition of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        if not (node.name.startswith("__") and node.name.endswith("__")):
            defined.setdefault(node.name, f"{where}:{node.lineno}")
        enclosing = enclosing | {node.name}
    elif isinstance(node, ast.Name) and node.id not in enclosing:
        used.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        used.add(node.attr)
    elif isinstance(node, ast.ImportFrom):
        used.update(alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        _scan(child, enclosing, defined, used, where)


def test_no_function_or_class_is_used_only_by_tests():
    defined = {}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        _scan(ast.parse(path.read_text(), str(path)), frozenset(), defined,
              used, path.name)
    orphans = {name: where for name, where in defined.items()
               if name not in used and name not in ALLOWED}
    assert not orphans, f"defined but never used in src/: {orphans}"
