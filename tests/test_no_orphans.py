"""Every function and class in the package is used by the package itself.

A definition that only tests call is capability the program does not have;
the test keeps such helpers in the test modules instead.  Two tests hold
the rule.

The name scan: a name counts as used when it appears in package code as a
name, an attribute or an imported name, outside every definition of that
name, so a recursive call or a call from a namesake method does not count;
dunder methods are exempt.  The re-exports of `__init__.py` do not count
either: a name the package only re-exports is used by its callers, not by
the package.

The traffic test sees what the scan cannot (dunders, parameter defaults and
methods that share a name): it runs the CLI's commands in-process under
`sys.setprofile`, and every ``def`` in the package must be entered.  A
function is matched by file and ``co_firstlineno``, which for a decorated
function is its first decorator's line.  Exempt by rule, each for the
reason given at `TRAFFIC_EXEMPT_NAMES`, `TRAFFIC_EXEMPT_CLASSES` and
`TRAFFIC_EXEMPT_FUNCTIONS`: `__repr__`, `__setattr__` and `__eq__`; the
methods of the class `FieldElement`; and `forms._random_invertible_mod` and
`forms._compose_mod`.
"""

import ast
import os
import sys
from pathlib import Path

from h4geproci import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "h4geproci"

TRAFFIC_EXEMPT_NAMES = {
    "__repr__",     # shows a value in a debugger or a test's failure message
    "__setattr__",  # the immutability guard: only a faulty write enters it
    "__eq__",       # equality by value: without it, equal values compare unequal
}
# The benchmark's field counters (`perfbench/tracing.py`'s FIELD_OPS) wrap
# FieldElement's arithmetic, and ROADMAP item 3 removes the class.
TRAFFIC_EXEMPT_CLASSES = {("field.py", "FieldElement")}
# Reached only at an unlucky prime, which no seed of the commands draws
# (ROADMAP item 13).
TRAFFIC_EXEMPT_FUNCTIONS = {("forms.py", "_random_invertible_mod"),
                            ("forms.py", "_compose_mod")}

TRAFFIC_COMMANDS = (
    ["build", "--out", "{tmp}/config.json"],
    ["incidences", "--kind", "planes"],
    ["incidences", "--kind", "lines", "--emit", "json"],
    ["coverings", "--count-only"],
    ["coverings", "--emit", "table"],
    ["verify", "geproci", "--trials", "1", "--out", "{tmp}/geproci.json"],
    ["verify", "halfgrid", "--subset", "z1", "--out", "{tmp}/halfgrid.json"],
    ["verify", "not-halfgrid", "--out", "{tmp}/refutation.json"],
    ["report", "--seeds", "1", "--out", "{tmp}/report.json"],
)


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
               if name not in used}
    assert not orphans, f"defined but never used in src/: {orphans}"


def _package_defs():
    """(file, co_firstlineno) -> qualified name, for every ``def`` in the
    package outside the exemptions."""
    found = {}

    def walk(node, path, owners):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if (path.name, child.name) not in TRAFFIC_EXEMPT_CLASSES:
                    walk(child, path, owners + (child.name,))
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (child.name not in TRAFFIC_EXEMPT_NAMES and
                        (path.name, child.name) not in TRAFFIC_EXEMPT_FUNCTIONS):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[(str(path), first)] = ".".join(
                        (path.stem,) + owners + (child.name,))
                walk(child, path, owners + (child.name,))
            else:
                walk(child, path, owners)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, ())
    return found


def test_every_function_is_entered_by_some_command(tmp_path, capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main([a.format(tmp=tmp_path) for a in argv])
                 for argv in TRAFFIC_COMMANDS]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(TRAFFIC_COMMANDS)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno)
               for c in entered}
    never = sorted(name for key, name in _package_defs().items()
                   if key not in reached)
    assert not never, f"no command enters: {never}"
