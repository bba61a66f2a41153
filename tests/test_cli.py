"""Command-line contract: exit codes, determinism, schema-valid artifacts."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from h4geproci import cli, config, geproci, linalg, tables
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


@pytest.mark.parametrize("argv", [
    ["verify", "geproci"],
    ["verify", "halfgrid", "--subset", "z1"],
    ["verify", "not-halfgrid"],
    ["report", "--seeds", "1"],
])
def test_verify_and_report_are_deterministic(tmp_path, argv):
    """Two identical runs write the same bytes; the report's measured
    ``wall_time_s`` is the one field left out of the comparison."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(argv + ["--out", str(a)]) == 0
    assert _run(argv + ["--out", str(b)]) == 0
    if argv[0] == "report":
        blobs = [json.loads(path.read_text()) for path in (a, b)]
        for blob in blobs:
            assert isinstance(blob.pop("wall_time_s"), float)
        assert blobs[0] == blobs[1]
        return
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


@pytest.mark.parametrize("argv, schema, path", [
    (["verify", "geproci"], "geproci-cert.schema.json", ("certificates", 0)),
    (["verify", "halfgrid", "--subset", "z2"], "halfgrid-cert.schema.json",
     ("certificate",)),
])
def test_the_schema_names_every_check(tmp_path, argv, schema, path):
    """The schema lists each check: the artifact passes, and a dropped,
    renamed or added check fails it."""
    out = tmp_path / "artifact.json"
    assert _run(argv + ["--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    validator = _validator(schema)
    validator.validate(blob)
    cert = blob
    for key in path:
        cert = cert[key]
    checks = cert["checks"]
    first = next(iter(checks))
    dropped = {k: v for k, v in checks.items() if k != first}
    for changed in (dropped, {**dropped, first + "_renamed": checks[first]},
                    {**checks, "dimension_table": True}):
        cert["checks"] = changed
        assert not validator.is_valid(blob), changed


def test_an_exhausted_vertex_budget_fails_the_certificate(cfg, monkeypatch,
                                                         tmp_path):
    monkeypatch.setattr(geproci, "VERTEX_DRAWS", 0)
    with pytest.raises(config.VerificationError, match="in 0 draws"):
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


def test_report_records_why_each_verdict_failed(monkeypatch, tmp_path):
    """Each failed verdict check carries its pipeline's reason, and the
    schema accepts a reason only on a failed check."""
    monkeypatch.setattr(geproci, "VERTEX_DRAWS", 0)
    out = tmp_path / "report.json"
    assert _run(["report", "--out", str(out), "--seeds", "1"]) == 1
    blob = json.loads(out.read_text())
    validator = _validator("report.schema.json")
    validator.validate(blob)
    assert {c["name"]: c["error"] for c in blob["checks"] if not c["passed"]} == \
        dict.fromkeys(["geproci-seed-1", "halfgrid-z1-seed-1",
                       "halfgrid-z2-seed-1", "not-halfgrid"],
                      "no generic vertex in 0 draws")
    assert not validator.is_valid({**blob, "checks": [
        {**c, "passed": True} for c in blob["checks"]]})


def test_a_refutation_that_does_not_refute_fails(cfg, monkeypatch, capsys,
                                                tmp_path):
    """It fails, and its stdout line gives the reason: the "not excluded"
    details, or "not refuted" when it has none."""
    report = geproci.verify_not_half_grid(cfg, 1)._replace(refuted=False)
    monkeypatch.setattr(geproci, "verify_not_half_grid", lambda cfg, seed: report)
    out = tmp_path / "refutation.json"
    assert _run(["verify", "not-halfgrid", "--out", str(out)]) == 1
    blob = json.loads(out.read_text())
    _validator("refutation.schema.json").validate(blob)
    assert blob["passed"] is False and blob["report"]["refuted"] is False
    assert capsys.readouterr().out == f"not-halfgrid: FAIL (not refuted, {out})\n"
    kept = ("type (5,12) would need 5 skew lines with 12 points each; "
            "12 <= 12, so not excluded",)
    report = report._replace(details=report.details + kept)
    assert _run(["verify", "not-halfgrid", "--out", str(out)]) == 1
    assert capsys.readouterr().out == f"not-halfgrid: FAIL ({kept[0]}, {out})\n"


def test_a_report_records_why_the_refutation_did_not_refute(cfg, monkeypatch,
                                                            tmp_path):
    """A refutation that does not refute records its "not excluded" details
    as the check's error, or "not refuted" when it has none; never the
    stdout note."""
    report = geproci.verify_not_half_grid(cfg, 1)._replace(refuted=False)
    monkeypatch.setattr(geproci, "verify_not_half_grid", lambda cfg, seed: report)
    out = tmp_path / "report.json"

    def failed():
        assert _run(["report", "--out", str(out), "--seeds", "1"]) == 1
        blob = json.loads(out.read_text())
        _validator("report.schema.json").validate(blob)
        return {c["name"]: c["error"] for c in blob["checks"] if not c["passed"]}

    assert failed() == {"not-halfgrid": "not refuted"}
    kept = ("type (5,12) would need 5 skew lines with 12 points each; "
            "12 <= 12, so not excluded",
            "type (12,5) would need 12 skew lines with 5 points each; "
            "5 <= 12, so not excluded")
    report = report._replace(details=report.details + kept)
    assert failed() == {"not-halfgrid": "; ".join(kept)}


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
    [failed] = [c for c in blob["checks"] if not c["passed"]]
    assert failed["name"] == "geproci-seed-1" and str(exc) in failed["error"]


def test_verify_geproci_zero_trials_is_a_usage_error(tmp_path):
    out = tmp_path / "geproci-cert.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "geproci", "--trials", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_verify_unwritable_path_exits_2(tmp_path, capsys):
    """An --out in a missing directory is reported after the run, by the
    one write, with exit code 2, and nothing is created."""
    missing_dir = tmp_path / "nope"
    out = missing_dir / "artifact.json"
    for argv in (["verify", "geproci"], ["verify", "halfgrid", "--subset", "z1"],
                 ["verify", "not-halfgrid"], ["report", "--seeds", "1"]):
        assert _run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not missing_dir.exists()
    assert list(tmp_path.iterdir()) == []


def test_report_single_seed(tmp_path):
    out = tmp_path / "report.json"
    assert _run(["report", "--out", str(out), "--seeds", "3"]) == 0
    blob = json.loads(out.read_text())
    _validator("report.schema.json").validate(blob)
    assert blob["passed"] is True
    assert all(c.keys() == {"name", "claim", "passed"} for c in blob["checks"])
    names = {c["name"] for c in blob["checks"]}
    assert {"table1", "table2", "table3", "grids", "special-points",
            "geproci-seed-3", "halfgrid-z1-seed-3", "halfgrid-z2-seed-3",
            "not-halfgrid"} <= names
    for check in blob["checks"]:
        assert check["claim"]


def test_no_verify_command_reads_the_special_points(monkeypatch, tmp_path):
    """The special points are the report's own check: with
    `config.special_points_for_grid` failing the test, every verify command
    still passes."""
    def must_not_run(*args, **kwargs):
        pytest.fail("a verify command read the special points")

    monkeypatch.setattr(config, "special_points_for_grid", must_not_run)
    for argv in (["verify", "geproci"], ["verify", "halfgrid", "--subset", "z1"],
                 ["verify", "halfgrid", "--subset", "z2"],
                 ["verify", "not-halfgrid"]):
        out = tmp_path / "artifact.json"
        assert _run(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True


def test_five_special_points_fail_the_special_points_check(monkeypatch,
                                                          tmp_path):
    """The check can read False: with only the special points on line 24,
    the five that criterion 8 states, it is the one failing check."""
    found = cli.special_points_for_grid
    monkeypatch.setattr(cli, "special_points_for_grid", lambda cfg, grid: [
        s for s in found(cfg, grid) if s[0] in cfg.line_points[24]])
    out = tmp_path / "report.json"
    assert _run(["report", "--out", str(out), "--seeds", "1"]) == 1
    blob = json.loads(out.read_text())
    assert [c["name"] for c in blob["checks"] if not c["passed"]] == [
        "special-points"]


def test_report_records_an_indeterminate_grid_certificate(tmp_path, monkeypatch):
    message = "grid quadric indeterminate: the pencil quadric misses the subgrid"

    def indeterminate(cfg, l_lines, m_lines):
        raise config.VerificationError(message)

    monkeypatch.setattr(cli.coverings_mod, "verify_grid", indeterminate)
    out = tmp_path / "report.json"
    assert _run(["report", "--out", str(out), "--seeds", "3"]) == 1
    blob = json.loads(out.read_text())
    _validator("report.schema.json").validate(blob)
    assert blob["passed"] is False
    assert [(c["name"], c["error"]) for c in blob["checks"]
            if not c["passed"]] == [("grids", message)]


def test_a_non_grid_candidate_fails_the_grid_search_and_the_grids_check(
        cfg, tmp_path, monkeypatch):
    """The search proposes only grids, so it has no handler for a candidate
    that `verify_grid` rejects: the NotAGridError propagates, and the report
    records it as the failed ``grids`` check's error."""
    message = "lines 1 and 2 do not meet in a configuration point"

    def not_a_grid(cfg, l_lines, m_lines):
        raise config.NotAGridError(message)

    monkeypatch.setattr(cli.coverings_mod, "verify_grid", not_a_grid)
    with pytest.raises(config.NotAGridError, match=f"^{message}$"):
        cli.coverings_mod.enumerate_grids(cfg)
    out = tmp_path / "report.json"
    assert _run(["report", "--out", str(out), "--seeds", "1"]) == 1
    blob = json.loads(out.read_text())
    _validator("report.schema.json").validate(blob)
    assert [(c["name"], c["error"]) for c in blob["checks"]
            if not c["passed"]] == [("grids", message)]


def test_each_half_grid_claim_counts_the_certified_cover_lines(cfg, tmp_path):
    """The number of skew cover lines a half-grid claim states is the number
    its certificate lists: the five L-lines and the external line."""
    out = tmp_path / "report.json"
    assert _run(["report", "--out", str(out), "--seeds", "1"]) == 0
    claims = {c["name"]: c["claim"] for c in json.loads(out.read_text())["checks"]}
    for half in config.HALVES:
        cert = geproci.verify_half_grid(cfg, 1, half.name)
        claim = claims[f"halfgrid-{half.name}-seed-1"]
        assert f" with {len(cert.cover_lines)} skew cover lines" in claim
        assert len(cert.cover_lines) == 6


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
