"""The README states each claim once and names what certifies it.

In its "What the package establishes" section an inline code span is one
of three things: an ``h4geproci`` command, a dotted ``module.name`` whose
docstring carries an argument, or else a `report` check name, with
``-seed-<s>`` standing for every seed.  The check names cited there must be
exactly those that `report` writes, so a check renamed in the code or a
citation dropped from the README fails here.  Every command cited there or
listed under Usage must parse, and every ``module.name`` cited anywhere
must exist and carry a docstring.  Test counts, durations and sizes go
stale with every change, so the README may hold none.
"""

import importlib
import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

from h4geproci import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
MODULES = {path.stem for path in (ROOT / "src" / "h4geproci").glob("*.py")}


def _section(title):
    body = README.split(f"\n## {title}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def _spans(text):
    return re.findall(r"`([^`\n]+)`", text)


CLAIMS = _spans(_section("What the package establishes"))
USAGE = [line for line in _section("Usage").splitlines()
         if line.startswith("h4geproci ")]


def _is_check(span):
    return not span.startswith("h4geproci ") and not re.search(r"[./ ]", span)


def test_the_cited_checks_are_the_report_checks(tmp_path):
    out = tmp_path / "report.json"
    cli.main(["report", "--seeds", "1", "--out", str(out)])
    written = {re.sub(r"-seed-1$", "-seed-<s>", check["name"])
               for check in json.loads(out.read_text())["checks"]}
    cited = set(filter(_is_check, CLAIMS))
    assert not written - cited, f"report checks the README does not cite: {written - cited}"
    assert not cited - written, f"README cites checks report lacks: {cited - written}"


def test_every_readme_command_parses():
    parser = cli.build_parser()
    commands = USAGE + [s for s in CLAIMS if s.startswith("h4geproci ")]
    assert len(USAGE) >= 5
    for line in commands:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_every_cited_docstring_exists():
    cited = [s for s in _spans(README)
             if re.fullmatch(r"\w+(\.\w+)+", s) and s.split(".")[0] in MODULES
             and not s.endswith((".py", ".json"))]
    assert len(cited) >= 10
    for name in cited:
        head, *path = name.split(".")
        obj = importlib.import_module(f"h4geproci.{head}")
        for part in path:
            obj = getattr(obj, part, None)
            assert obj is not None, f"README cites a missing name: {name}"
        assert inspect.isroutine(obj) or inspect.isclass(obj), name
        assert obj.__doc__, f"README cites {name}, which has no docstring"


STALE = re.compile(r"\b\d[\d,.]*\s*(?:tests?|passed|failed|ms|s|seconds?"
                   r"|minutes?|[kKM]B|bytes?)\b")


def test_the_readme_holds_no_counts_timings_or_sizes():
    assert STALE.findall(README) == []
    for text in ("369 tests", "25–33 s", "0.14 s", "5.1–5.6 kB", "2 MB"):
        assert STALE.search(text), text
