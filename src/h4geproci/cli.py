"""Command-line surface: build, emit tables, enumerate, verify, report.

Exit codes: 0 when every requested check passes, 1 when a verification or
table comparison fails, 2 for usage or I/O errors.  A pipeline signals every
outcome it cannot certify, indeterminate ones included, by raising
`config.VerificationError`; a command records it in the artifact as a
failed certificate and exits 1.  Each claim has one verdict function, which
both its `verify` command and `report` call.  All randomness is controlled
by --seed, so identical invocations write identical artifacts, except for
the measured `wall_time_s` of the report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence

from . import coverings as coverings_mod
from . import geproci as geproci_mod
from . import tables
from .config import (HALVES, VerificationError, build_h4, format_table,
                     grid_point_indices, incidence_table_lines,
                     incidence_table_planes, special_points_for_grid)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
Verdict = tuple[bool, dict, str]  # passed, the artifact, a note for stdout


def _write_json(path: str, payload) -> bool:
    """Write an artifact; on an I/O error, say so and return False."""
    try:
        with open(path, "w") as f:
            f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def cmd_build(out: str) -> int:
    if not _write_json(out, build_h4().to_json()):
        return EXIT_USAGE
    print(f"wrote {out}: 60 points, 60 planes, 72 lines")
    return EXIT_OK


def table_mismatches(computed, expected) -> list[str]:
    """Where an incidence table differs from the paper's, one line each."""
    got = {i: tuple(sorted(v)) for i, v in computed.items()}
    want = {i: tuple(sorted(v)) for i, v in expected.items()}
    return [f"mismatch at index {i}: computed {got.get(i)} "
            f"!= expected {want.get(i)}"
            for i in sorted(set(got) | set(want)) if got.get(i) != want.get(i)]


def coverings_match(covs) -> bool:
    """Whether the coverings found are exactly the paper's 84."""
    return len(covs) == 84 and {c.lines for c in covs} == set(tables.LINE_COVERS)


def cmd_incidences(kind: str, emit: str) -> int:
    cfg = build_h4()
    if kind == "planes":
        computed, expected = incidence_table_planes(cfg), tables.PLANE_POINTS
        text = format_table(computed, "V", ", ")
    else:
        computed, expected = incidence_table_lines(cfg), tables.LINE_POINTS
        text = format_table(computed, "l", ",")
    if emit == "table":
        print(text)
    else:
        print(json.dumps({str(i): list(v) for i, v in computed.items()},
                         indent=2, sort_keys=True))
    mismatches = table_mismatches(computed, expected)
    for line in mismatches:
        print(line, file=sys.stderr)
    return EXIT_FAIL if mismatches else EXIT_OK


def cmd_coverings(count_only: bool, emit: str, out: str | None) -> int:
    cfg = build_h4()
    covs = coverings_mod.enumerate_coverings(cfg)
    payload = [c.to_json() for c in covs]
    if count_only:
        print(len(covs))
    elif emit == "table":
        for c in covs:
            print(",".join(map(str, c.lines)))
    elif not out:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if out and not _write_json(out, payload):
        return EXIT_USAGE
    if coverings_match(covs):
        return EXIT_OK
    print(f"covering mismatch: {len(covs)} found", file=sys.stderr)
    return EXIT_FAIL


def _certify(record: dict, pipeline, *args):
    """The pipeline's result and `record`, or None and `record` marked failed
    with the reason the pipeline could not certify its claim."""
    try:
        return pipeline(*args), record
    except VerificationError as exc:
        return None, {**record, "passed": False, "error": str(exc)}


def geproci_verdict(cfg, seeds: Sequence[int]) -> Verdict:
    certs = []
    for s in seeds:
        cert, failed = _certify({"seed": s}, geproci_mod.verify_geproci, cfg, s)
        certs.append(failed if cert is None else cert.to_json())
    ok = all(c["passed"] for c in certs)
    return ok, {"command": "verify geproci", "seeds": list(seeds),
                "passed": ok, "certificates": certs}, f"{len(seeds)} trial(s)"


def halfgrid_verdict(cfg, seed: int, subset: str) -> Verdict:
    head = {"command": "verify halfgrid", "subset": subset, "seed": seed}
    cert, failed = _certify(head, geproci_mod.verify_half_grid, cfg, seed, subset)
    if cert is None:
        return False, failed, failed["error"]
    return True, {**head, "passed": True, "certificate": cert.to_json()}, ""


def not_halfgrid_verdict(cfg, seed: int) -> Verdict:
    head = {"command": "verify not-halfgrid", "seed": seed}
    report, failed = _certify(head, geproci_mod.verify_not_half_grid, cfg, seed)
    if report is None:
        return False, failed, failed["error"]
    payload = {**head, "passed": report.refuted, "report": report.to_json()}
    kept = "; ".join(d for d in report.details if d.endswith("not excluded"))
    return report.refuted, payload, (f"max collinear {report.max_collinear}"
                                     if report.refuted else kept or "not refuted")


def cmd_verify(out: str, name: str, verdict, *args) -> int:
    """Build the configuration, run one verdict, write its artifact and
    print one line naming the outcome and the artifact."""
    ok, payload, note = verdict(build_h4(), *args)
    if not _write_json(out, payload):
        return EXIT_USAGE
    print(f"{name}: {'pass' if ok else 'FAIL'} ({note + ', ' if note else ''}{out})")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_report(out: str, seeds: Sequence[int]) -> int:
    t_start = time.monotonic()
    cfg = build_h4()
    checks: list[dict] = []

    def check(name: str, claim: str, passed: bool, error: str | None = None) -> None:
        checks.append({"name": name, "claim": claim, "passed": bool(passed)})
        if error and not passed:
            checks[-1]["error"] = error

    check("table1", "each of the 60 dual planes contains exactly the "
          "15 listed points ((60_15) incidence)",
          not table_mismatches(incidence_table_planes(cfg), tables.PLANE_POINTS))
    check("table2", "the 72 five-point lines carry exactly the listed points",
          not table_mismatches(incidence_table_lines(cfg), tables.LINE_POINTS))
    check("table3", "exactly 84 partitions of the points into 12 disjoint lines",
          coverings_match(coverings_mod.enumerate_coverings(cfg)))
    grids, record = _certify({}, coverings_mod.enumerate_grids, cfg)
    pairs = {(g.l_lines, g.m_lines) for g in grids or ()}
    check("grids", "both printed (5,5)-grids occur among all grids found",
          all((h.l_lines, h.m_lines) in pairs for h in HALVES), record.get("error"))
    external = {x for h in HALVES for x in cfg.line_points[h.external_line]}
    check("special-points", "the special points of each printed grid are "
          "the ten points of the two external lines",
          all({x for x, _ in special_points_for_grid(
              cfg, grid_point_indices(cfg, h.l_lines))} == external
              for h in HALVES))
    for s, cert in zip(seeds, geproci_verdict(cfg, seeds)[1]["certificates"]):
        check(f"geproci-seed-{s}", "general projection is a (6,10) complete "
              "intersection", cert["passed"], cert.get("error"))
    for subset in (h.name for h in HALVES):
        for s in seeds[:3]:
            ok, _, note = halfgrid_verdict(cfg, s, subset)
            check(f"halfgrid-{subset}-seed-{s}",
                  f"the 30-point half {subset} projects to a (5,6) complete "
                  "intersection with 6 skew cover lines", ok, note)
    ok, _, note = not_halfgrid_verdict(cfg, seeds[0])
    check("not-halfgrid", "no family of skew lines can realize the full "
          "60-point set as a half-grid (max collinear is 5)", ok, note)

    ok = all(c["passed"] for c in checks)
    payload = {"command": "report", "seeds": list(seeds), "checks": checks,
               "passed": ok, "wall_time_s": round(time.monotonic() - t_start, 3)}
    if not _write_json(out, payload):
        return EXIT_USAGE
    for c in checks:
        print(f"[{'pass' if c['passed'] else 'FAIL'}] {c['name']}")
    print(f"report: {'pass' if ok else 'FAIL'} ({out})")
    return EXIT_OK if ok else EXIT_FAIL


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed list")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"repeated seed in {text!r}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h4geproci",
        description="Exact certificates for the 60-point H4 configuration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit the configuration as JSON")
    p.add_argument("--out", default="config.json")

    p = sub.add_parser("incidences", help="emit and self-check a table")
    p.add_argument("--kind", choices=("planes", "lines"), required=True)
    p.add_argument("--emit", choices=("table", "json"), default="table")

    p = sub.add_parser("coverings", help="enumerate the 84 line partitions")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--emit", choices=("json", "table"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a certificate pipeline")
    vsub = p.add_subparsers(dest="pipeline", required=True)

    g = vsub.add_parser("geproci")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--trials", type=_positive_int, default=1)
    g.add_argument("--out", default="geproci-cert.json")

    h = vsub.add_parser("halfgrid")
    h.add_argument("--subset", choices=[half.name for half in HALVES],
                   required=True)
    h.add_argument("--seed", type=int, default=1)
    h.add_argument("--out", default="halfgrid-cert.json")

    n = vsub.add_parser("not-halfgrid")
    n.add_argument("--seed", type=int, default=1)
    n.add_argument("--out", default="refutation.json")

    p = sub.add_parser("report", help="run every check and write report.json")
    p.add_argument("--out", default="report.json")
    p.add_argument("--seeds", type=_parse_seeds, default=[1, 2, 3, 4, 5])

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "build":
        return cmd_build(args.out)
    if args.command == "incidences":
        return cmd_incidences(args.kind, args.emit)
    if args.command == "coverings":
        return cmd_coverings(args.count_only, args.emit, args.out)
    if args.command == "verify":
        if args.pipeline == "geproci":
            seeds = range(args.seed, args.seed + args.trials)
            return cmd_verify(args.out, "geproci", geproci_verdict, seeds)
        if args.pipeline == "halfgrid":
            return cmd_verify(args.out, f"halfgrid {args.subset}",
                              halfgrid_verdict, args.seed, args.subset)
        return cmd_verify(args.out, "not-halfgrid", not_halfgrid_verdict, args.seed)
    return cmd_report(args.out, args.seeds)


if __name__ == "__main__":
    sys.exit(main())
