"""Command-line surface: build, emit tables, enumerate, verify, report.

Exit codes: 0 when every requested check passes, 1 when a verification or
table comparison fails (or smoothness stays indeterminate), 2 for usage or
I/O errors.  All randomness is controlled by --seed, so identical
invocations write identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from . import coverings as coverings_mod
from . import geproci as geproci_mod
from . import tables
from .config import (HALVES, build_h4, format_table, incidence_table_lines,
                     incidence_table_planes)
from .forms import SmoothnessIndeterminate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
# What a certificate raises instead of returning a failed verdict.
NOT_CERTIFIED = (geproci_mod.VerificationError, SmoothnessIndeterminate)


def _write_json(path: str, payload) -> bool:
    """Write an artifact; on an I/O error, say so and return False."""
    try:
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _can_write(path: str) -> bool:
    """Probe the artifact path before a long computation; False if unwritable.

    Opening in append mode leaves an existing file as it is, and a file the
    probe creates is removed again, so the artifact itself is still written
    only by _write_json.
    """
    target = Path(path)
    existed = target.exists()
    try:
        with target.open("a"):
            pass
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    if not existed:
        target.unlink()
    return True


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def cmd_build(out: str) -> int:
    cfg = build_h4()
    if not _write_json(out, cfg.to_json()):
        return EXIT_USAGE
    print(f"wrote {out}: 60 points, 60 planes, 72 lines")
    return EXIT_OK


def cmd_incidences(kind: str, emit: str) -> int:
    cfg = build_h4()
    if kind == "planes":
        computed = incidence_table_planes(cfg)
        expected = {i: tuple(sorted(v)) for i, v in tables.PLANE_POINTS.items()}
        text = format_table(computed, "V", ", ")
    else:
        computed = incidence_table_lines(cfg)
        expected = dict(tables.LINE_POINTS)
        text = format_table(computed, "l", ",")
    if emit == "table":
        print(text)
    else:
        print(json.dumps({str(i): list(v) for i, v in computed.items()},
                         indent=2, sort_keys=True))
    normalized = {i: tuple(sorted(v)) for i, v in computed.items()}
    if normalized == expected:
        return EXIT_OK
    for i in sorted(set(normalized) | set(expected)):
        if normalized.get(i) != expected.get(i):
            print(f"mismatch at index {i}: computed {normalized.get(i)} "
                  f"!= expected {expected.get(i)}", file=sys.stderr)
    return EXIT_FAIL


def cmd_coverings(count_only: bool, emit: str, out: Optional[str]) -> int:
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
    expected = set(tables.LINE_COVERS)
    if len(covs) == 84 and {c.lines for c in covs} == expected:
        return EXIT_OK
    print(f"covering mismatch: {len(covs)} found", file=sys.stderr)
    return EXIT_FAIL


def cmd_verify_geproci(seed: int, trials: int, out: str) -> int:
    if not _can_write(out):
        return EXIT_USAGE
    cfg = build_h4()
    certs = []
    ok = True
    for s in range(seed, seed + trials):
        try:
            certs.append(geproci_mod.verify_geproci(cfg, s).to_json())
        except NOT_CERTIFIED as exc:
            certs.append({"seed": s, "passed": False, "error": str(exc)})
            ok = False
    if not _write_json(out, {"command": "verify geproci",
                             "seeds": list(range(seed, seed + trials)),
                             "passed": ok, "certificates": certs}):
        return EXIT_USAGE
    print(f"geproci: {'pass' if ok else 'FAIL'} ({trials} trial(s), {out})")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify_halfgrid(subset: str, seed: int, out: str) -> int:
    if not _can_write(out):
        return EXIT_USAGE
    cfg = build_h4()
    try:
        cert = geproci_mod.verify_half_grid(cfg, seed, subset)
    except NOT_CERTIFIED as exc:
        if not _write_json(out, {"command": "verify halfgrid",
                                 "subset": subset, "seed": seed,
                                 "passed": False, "error": str(exc)}):
            return EXIT_USAGE
        print(f"halfgrid {subset}: FAIL ({exc})")
        return EXIT_FAIL
    if not _write_json(out, {"command": "verify halfgrid", "subset": subset,
                             "seed": seed, "passed": True,
                             "certificate": cert.to_json()}):
        return EXIT_USAGE
    print(f"halfgrid {subset}: pass ({out})")
    return EXIT_OK


def cmd_verify_not_halfgrid(seed: int, out: str) -> int:
    if not _can_write(out):
        return EXIT_USAGE
    cfg = build_h4()
    try:
        report = geproci_mod.verify_not_half_grid(cfg, seed)
    except geproci_mod.VerificationError as exc:
        if not _write_json(out, {"command": "verify not-halfgrid",
                                 "seed": seed, "passed": False,
                                 "error": str(exc)}):
            return EXIT_USAGE
        print(f"not-halfgrid: FAIL ({exc})")
        return EXIT_FAIL
    if not _write_json(out, {"command": "verify not-halfgrid", "seed": seed,
                             "passed": report.refuted,
                             "report": report.to_json()}):
        return EXIT_USAGE
    print(f"not-halfgrid: {'pass' if report.refuted else 'FAIL'} "
          f"(max collinear {report.max_collinear}, {out})")
    return EXIT_OK if report.refuted else EXIT_FAIL


def cmd_report(out: str, seeds: Sequence[int]) -> int:
    if not _can_write(out):
        return EXIT_USAGE
    t_start = time.monotonic()
    cfg = build_h4()
    checks: List[dict] = []

    def check(name: str, claim: str, passed: bool) -> None:
        checks.append({"name": name, "claim": claim, "passed": bool(passed)})

    planes = {i: tuple(sorted(v))
              for i, v in incidence_table_planes(cfg).items()}
    check("table1", "each of the 60 dual planes contains exactly the "
          "15 listed points ((60_15) incidence)",
          planes == {i: tuple(sorted(v)) for i, v in tables.PLANE_POINTS.items()})
    check("table2", "the 72 five-point lines carry exactly the listed points",
          incidence_table_lines(cfg) == dict(tables.LINE_POINTS))
    covs = coverings_mod.enumerate_coverings(cfg)
    check("table3", "exactly 84 partitions of the points into 12 disjoint lines",
          len(covs) == 84 and {c.lines for c in covs} == set(tables.LINE_COVERS))
    try:
        grids = coverings_mod.enumerate_grids(cfg)
    except geproci_mod.VerificationError:  # an indeterminate grid certificate
        grids = []
    pairs = {(g.l_lines, g.m_lines) for g in grids}
    check("grids", "both printed (5,5)-grids occur among all grids found",
          all((h.l_lines, h.m_lines) in pairs for h in HALVES))

    for s in seeds:
        try:
            geproci_mod.verify_geproci(cfg, s)
            passed = True
        except NOT_CERTIFIED:
            passed = False
        check(f"geproci-seed-{s}", "general projection is a (6,10) complete "
              "intersection", passed)
    for subset in (h.name for h in HALVES):
        for s in seeds[:3]:
            try:
                geproci_mod.verify_half_grid(cfg, s, subset)
                passed = True
            except NOT_CERTIFIED:
                passed = False
            check(f"halfgrid-{subset}-seed-{s}",
                  f"the 30-point half {subset} projects to a (5,6) complete "
                  "intersection with 5 skew cover lines", passed)
    try:
        ref = geproci_mod.verify_not_half_grid(cfg, seeds[0])
        passed = ref.refuted
    except geproci_mod.VerificationError:
        passed = False
    check("not-halfgrid", "no family of skew lines can realize the full "
          "60-point set as a half-grid (max collinear is 5)", passed)

    ok = all(c["passed"] for c in checks)
    payload = {
        "command": "report",
        "seeds": list(seeds),
        "wall_time_s": round(time.monotonic() - t_start, 3),
        "checks": checks,
        "passed": ok,
    }
    if not _write_json(out, payload):
        return EXIT_USAGE
    for c in checks:
        print(f"[{'pass' if c['passed'] else 'FAIL'}] {c['name']}")
    print(f"report: {'pass' if ok else 'FAIL'} ({out})")
    return EXIT_OK if ok else EXIT_FAIL


def _parse_seeds(text: str) -> List[int]:
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "build":
        return cmd_build(args.out)
    if args.command == "incidences":
        return cmd_incidences(args.kind, args.emit)
    if args.command == "coverings":
        return cmd_coverings(args.count_only, args.emit, args.out)
    if args.command == "verify":
        if args.pipeline == "geproci":
            return cmd_verify_geproci(args.seed, args.trials, args.out)
        if args.pipeline == "halfgrid":
            return cmd_verify_halfgrid(args.subset, args.seed, args.out)
        return cmd_verify_not_halfgrid(args.seed, args.out)
    return cmd_report(args.out, args.seeds)


if __name__ == "__main__":
    sys.exit(main())
