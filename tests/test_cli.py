"""Command-line contract: exit codes, determinism, schema-valid artifacts."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from h4geproci import cli, geproci, linalg, tables
from h4geproci.forms import SmoothnessIndeterminate

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _validator(schema_name: str) -> Draft202012Validator:
    resources = []
    for path in DOCS.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(schema)))
        resources.append((schema["$id"], Resource.from_contents(schema)))
    registry = Registry().with_resources(resources)
    root = json.loads((DOCS / schema_name).read_text())
    return Draft202012Validator(root, registry=registry)


def _run(argv):
    return cli.main(argv)


def test_build_writes_schema_valid_config(tmp_path):
    out = tmp_path / "config.json"
    assert _run(["build", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    _validator("config.schema.json").validate(blob)
    assert len(blob["points"]) == 60 and len(blob["lines"]) == 72


def test_build_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(["build", "--out", str(a)]) == 0
    assert _run(["build", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_unwritable_path_exits_2(tmp_path):
    missing_dir = tmp_path / "nope" / "config.json"
    assert _run(["build", "--out", str(missing_dir)]) == 2


def test_incidences_tables_self_check(capsys):
    assert _run(["incidences", "--kind", "planes"]) == 0
    out = capsys.readouterr().out
    assert out.count("V_") == 60
    assert _run(["incidences", "--kind", "lines"]) == 0
    out = capsys.readouterr().out
    assert out.count("l_") == 72


def test_incidences_json_emission(capsys):
    assert _run(["incidences", "--kind", "lines", "--emit", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["1"] == [1, 29, 32, 33, 36]


def test_coverings_count_and_artifact(tmp_path, capsys):
    assert _run(["coverings", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "84"
    out = tmp_path / "coverings.json"
    assert _run(["coverings", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    _validator("coverings.schema.json").validate(blob)
    assert len(blob) == 84
    # --out writes the same artifact whatever the command prints.
    for shown in (["--count-only"], ["--emit", "table"]):
        again = tmp_path / "again.json"
        assert _run(["coverings", *shown, "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()
        again.unlink()


def test_coverings_table_layout(capsys):
    assert _run(["coverings", "--emit", "table"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 84
    assert lines[0] == "1,7,17,24,25,32,37,44,51,60,65,70"


def test_verify_not_halfgrid_artifact(tmp_path):
    out = tmp_path / "refutation.json"
    assert _run(["verify", "not-halfgrid", "--seed", "1",
                 "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    _validator("refutation.schema.json").validate(blob)
    assert blob["passed"] is True
    assert blob["report"]["max_collinear"] == 5


def test_verify_halfgrid_artifact(tmp_path):
    out = tmp_path / "halfgrid-cert.json"
    assert _run(["verify", "halfgrid", "--subset", "z1", "--seed", "1",
                 "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    _validator("halfgrid-cert.schema.json").validate(blob)
    assert blob["certificate"]["cover_lines"] == [1, 24, 25, 32, 37, 44]


def test_verify_geproci_artifact(tmp_path):
    out = tmp_path / "geproci-cert.json"
    assert _run(["verify", "geproci", "--seed", "1", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    _validator("geproci-cert.schema.json").validate(blob)
    assert blob["passed"] is True
    cert = blob["certificates"][0]
    assert cert["dimension_table"] == [0, 0, 0, 0, 0, 1]
    smooth = cert["sextic_smooth"]
    assert smooth["smooth"] and smooth["reason"] == "certified on attempt 0"
    assert smooth["prime"] > 2 ** 31 and smooth["coordinate_change"] is None
    assert (smooth["phi_root"] ** 2 - smooth["phi_root"] - 1) % smooth["prime"] == 0
    assert len(smooth["chart_trail"]) == 3
    assert all("clean (eliminant degrees" in s for s in smooth["chart_trail"])
    assert json.loads(json.dumps(blob)) == blob


def test_an_exhausted_vertex_budget_fails_the_certificate(cfg, monkeypatch,
                                                         tmp_path):
    monkeypatch.setattr(geproci, "VERTEX_DRAWS", 0)
    with pytest.raises(geproci.RejectionBudgetExhausted, match="in 0 draws"):
        geproci.verify_geproci(cfg, 1)
    out = tmp_path / "geproci-cert.json"
    assert _run(["verify", "geproci", "--out", str(out)]) == 1
    blob = json.loads(out.read_text())
    _validator("geproci-cert.schema.json").validate(blob)
    assert blob["passed"] is False
    assert blob["certificates"] == [{
        "seed": 1, "passed": False, "error": "no generic vertex in 0 draws"}]


@pytest.mark.parametrize("argv, schema", [
    (["verify", "halfgrid", "--subset", "z1"], "halfgrid-cert.schema.json"),
    (["verify", "not-halfgrid"], "refutation.schema.json"),
])
def test_an_exhausted_vertex_budget_fails_each_verify(argv, schema, monkeypatch,
                                                      tmp_path):
    monkeypatch.setattr(geproci, "VERTEX_DRAWS", 0)
    out = tmp_path / "artifact.json"
    assert _run(argv + ["--out", str(out)]) == 1
    blob = json.loads(out.read_text())
    _validator(schema).validate(blob)
    assert blob["passed"] is False
    assert blob["error"] == "no generic vertex in 0 draws"


def test_a_refutation_that_does_not_refute_fails(cfg, monkeypatch, tmp_path):
    report = geproci.verify_not_half_grid(cfg, 1)._replace(refuted=False)
    monkeypatch.setattr(geproci, "verify_not_half_grid", lambda cfg, seed: report)
    out = tmp_path / "refutation.json"
    assert _run(["verify", "not-halfgrid", "--out", str(out)]) == 1
    blob = json.loads(out.read_text())
    _validator("refutation.schema.json").validate(blob)
    assert blob["passed"] is False and blob["report"]["refuted"] is False


def test_a_table_mismatch_fails_and_is_named(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(tables.PLANE_POINTS, 1, tables.PLANE_POINTS[2])
    assert _run(["incidences", "--kind", "planes"]) == 1
    assert "mismatch at index 1:" in capsys.readouterr().err
    covers = tables.LINE_COVERS
    monkeypatch.setattr(tables, "LINE_COVERS", covers[1:2] + covers[1:])
    assert _run(["coverings", "--count-only"]) == 1
    assert "covering mismatch: 84 found" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert _run(["report", "--out", str(out), "--seeds", "1"]) == 1
    blob = json.loads(out.read_text())
    _validator("report.schema.json").validate(blob)
    assert [c["name"] for c in blob["checks"] if not c["passed"]] == [
        "table1", "table3"]


def _raising(exc):
    def raise_it(*args, **kwargs):
        raise exc
    return raise_it


@pytest.mark.parametrize("module, name, exc", [
    (linalg, "nullspace",
     ArithmeticError("no certified nullspace from the primes tried")),
    (geproci, "plane_curve_is_smooth",
     SmoothnessIndeterminate("no certificate after 8 primes: []")),
], ids=["interpolation", "smoothness"])
def test_an_indeterminate_step_reads_not_certified(module, name, exc,
                                                   monkeypatch, tmp_path):
    """Interpolation and smoothness each have an outcome that is neither pass
    nor fail; either one fails the certificate instead of ending the run."""
    monkeypatch.setattr(module, name, _raising(exc))
    out = tmp_path / "geproci-cert.json"
    assert _run(["verify", "geproci", "--out", str(out)]) == 1
    blob = json.loads(out.read_text())
    _validator("geproci-cert.schema.json").validate(blob)
    assert blob["passed"] is False
    [cert] = blob["certificates"]
    assert cert["passed"] is False
    assert "indeterminate" in cert["error"] and str(exc) in cert["error"]
    out = tmp_path / "report.json"
    assert _run(["report", "--out", str(out), "--seeds", "1"]) == 1
    blob = json.loads(out.read_text())
    _validator("report.schema.json").validate(blob)
    assert [c["name"] for c in blob["checks"] if not c["passed"]] == [
        "geproci-seed-1"]


def test_verify_geproci_zero_trials_is_a_usage_error(tmp_path):
    out = tmp_path / "geproci-cert.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "geproci", "--trials", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_verify_unwritable_path_exits_2(tmp_path, monkeypatch):
    def must_not_run(*args, **kwargs):
        pytest.fail("computation started although --out is unwritable")

    monkeypatch.setattr(cli, "build_h4", must_not_run)
    for name in ("verify_geproci", "verify_half_grid", "verify_not_half_grid"):
        monkeypatch.setattr(cli.geproci_mod, name, must_not_run)
    missing_dir = tmp_path / "nope"
    for argv in (["verify", "geproci"], ["verify", "halfgrid", "--subset", "z1"],
                 ["verify", "not-halfgrid"], ["report"]):
        out = missing_dir / "artifact.json"
        assert _run(argv + ["--out", str(out)]) == 2
    assert not missing_dir.exists()


def test_write_probe_leaves_files_as_they_were(tmp_path):
    fresh = tmp_path / "fresh.json"
    assert cli._can_write(str(fresh))
    assert not fresh.exists()
    kept = tmp_path / "kept.json"
    kept.write_text("{}\n")
    assert cli._can_write(str(kept))
    assert kept.read_text() == "{}\n"
    assert not cli._can_write(str(tmp_path))  # a directory is not a file


def test_report_single_seed(tmp_path):
    out = tmp_path / "report.json"
    assert _run(["report", "--out", str(out), "--seeds", "3"]) == 0
    blob = json.loads(out.read_text())
    _validator("report.schema.json").validate(blob)
    assert blob["passed"] is True
    names = {c["name"] for c in blob["checks"]}
    assert {"table1", "table2", "table3", "grids", "geproci-seed-3",
            "halfgrid-z1-seed-3", "halfgrid-z2-seed-3",
            "not-halfgrid"} <= names
    for check in blob["checks"]:
        assert check["claim"]


def test_report_records_an_indeterminate_grid_certificate(tmp_path, monkeypatch):
    def indeterminate(cfg, l_lines, m_lines):
        raise cli.geproci_mod.VerificationError(
            "grid quadric indeterminate: the transversal quadric misses the subgrid")

    monkeypatch.setattr(cli.coverings_mod, "verify_grid", indeterminate)
    out = tmp_path / "report.json"
    assert _run(["report", "--out", str(out), "--seeds", "3"]) == 1
    blob = json.loads(out.read_text())
    _validator("report.schema.json").validate(blob)
    assert blob["passed"] is False
    assert [c["name"] for c in blob["checks"] if not c["passed"]] == ["grids"]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["incidences", "--kind", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--seeds", "x,y"])
    assert exc.value.code == 2
    # A repeated seed would run its certificates twice under one check name.
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--seeds", "2,2"])
    assert exc.value.code == 2
