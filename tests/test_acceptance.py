"""Acceptance gate: the ten headline claims, one test and one verdict each.

Every check is exact; the stated runtime budgets are asserted where they are
part of the claim.  Criterion 8 is written exactly as stated even though the
computation finds ten qualifying special points rather than five; the test
documents the discrepancy by failing honestly (see the line-17 points in
test_config.py, which satisfy the identical secant-pair condition).
"""

import random
import time
from fractions import Fraction

from h4geproci import geproci, tables
from h4geproci.config import (HALVES, grid_point_indices,
                              incidence_table_lines, incidence_table_planes,
                              special_points_for_grid, z_partition)
from h4geproci.coverings import enumerate_coverings, enumerate_grids
from h4geproci.field import FieldElement, ONE, PHI
from h4geproci.forms import multiply, vanishing_space
from h4geproci.projective import canonicalize
from elements import elements, form, pairs_of
from form_references import monic, reference_quotient
from test_projective import CoordinateChange


def _verdict(n: int, label: str) -> None:
    print(f"criterion {n:2d} PASS  {label}")


def test_criterion_01_plane_incidence_table(cfg):
    t0 = time.monotonic()
    computed = {i: tuple(sorted(v))
                for i, v in incidence_table_planes(cfg).items()}
    assert computed == tables.PLANE_POINTS
    assert time.monotonic() - t0 < 0.1
    _verdict(1, "plane-point incidences reproduce the reference table")


def test_criterion_02_line_incidence_table(cfg):
    t0 = time.monotonic()
    assert len(cfg.lines) == 72
    assert incidence_table_lines(cfg) == tables.LINE_POINTS
    assert cfg.max_collinear(cfg.points) == 5
    assert all(len(cfg.point_lines[i]) == 6 for i in cfg.points)
    assert all(len(cfg.line_planes[i]) == 5 for i in cfg.lines)
    assert all(len(cfg.plane_lines[i]) == 6 for i in cfg.planes)
    assert time.monotonic() - t0 < 0.1
    _verdict(2, "72 five-point lines with all incidence counts")


def test_criterion_03_covering_table(cfg):
    t0 = time.monotonic()
    covs = enumerate_coverings(cfg)
    assert len(covs) == 84
    assert {c.lines for c in covs} == set(tables.LINE_COVERS)
    assert time.monotonic() - t0 < 0.3
    _verdict(3, "84 partitions into 12 disjoint lines, matching the table")


def test_criterion_04_quadric_certificates(cfg):
    t0 = time.monotonic()
    q1_expected = monic(form(4, 2, {
        (1, 1, 0, 0): FieldElement(2), (0, 2, 0, 0): -ONE,
        (0, 0, 2, 0): PHI - ONE, (0, 0, 0, 2): -PHI}))
    q2_expected = monic(form(4, 2, {
        (2, 0, 0, 0): ONE, (1, 1, 0, 0): FieldElement(2),
        (0, 0, 2, 0): PHI, (0, 0, 0, 2): ONE - PHI}))
    for half, expected in zip(HALVES, (q1_expected, q2_expected)):
        pts = [cfg.points[i].pairs
               for i in grid_point_indices(cfg, half.l_lines)]
        basis = vanishing_space(pts, 2, 4)
        assert len(basis) == 1
        assert monic(basis[0]) == expected
    assert time.monotonic() - t0 < 0.1
    _verdict(4, "each grid lies on a unique quadric with the printed equation")


def test_criterion_05_geproci_certificates(cfg, geproci_cert_seed1):
    certs = [geproci_cert_seed1]
    for seed in (2, 3, 4, 5):
        t0 = time.monotonic()
        certs.append(geproci.verify_geproci(cfg, seed))
        assert time.monotonic() - t0 < 3.0
    assert len({c.vertex for c in certs}) == 5
    for cert in certs:
        assert cert.passed
        assert cert.dimension_table == (0, 0, 0, 0, 0, 1)
        assert cert.sextic_smooth.smooth
        decic = multiply((cert.quintic1, cert.quintic2))
        assert reference_quotient(cert.sextic, decic) is None
        assert cert.sextic.degree * decic.degree == 60
    _verdict(5, "(6,10) complete-intersection certificate at 5 seeds")


def test_criterion_06_half_grid_certificates(cfg):
    for subset, cover in (("z1", (1, 24, 25, 32, 37, 44)),
                          ("z2", (7, 17, 51, 60, 65, 70))):
        for seed in (1, 2, 3):
            t0 = time.monotonic()
            cert = geproci.verify_half_grid(cfg, seed, subset)
            assert cert.passed
            assert cert.cover_lines == cover
            assert cert.quintic.degree * cert.line_product.degree == 30
            assert time.monotonic() - t0 < 1.0
    _verdict(6, "both halves certify as (5,6) complete intersections")


def test_criterion_07_not_half_grid_refutation(cfg):
    t0 = time.monotonic()
    report = geproci.verify_not_half_grid(cfg, 1)
    assert report.refuted
    assert report.max_collinear == 5
    assert report.low_degree_dims == (0, 0, 0, 0, 0)
    z1, _ = z_partition(cfg)
    on_z1 = geproci.verify_not_half_grid(cfg, 1, subset=z1, subset_name="Z1")
    assert not on_z1.refuted  # the half really is a half-grid
    assert time.monotonic() - t0 < 2.5
    _verdict(7, "full set refuted as half-grid; refutation fails on Z1")


def test_criterion_08_special_point_structure(cfg):
    t0 = time.monotonic()
    half = HALVES[0]
    grid = grid_point_indices(cfg, half.l_lines)
    specials = special_points_for_grid(cfg, grid)
    pairings = dict(specials)
    assert pairings.get(4) == ((5, 6), (7, 8), (13, 14), (15, 16), (29, 30),
                               (31, 32), (33, 34), (35, 36), (37, 38),
                               (41, 42))
    found = {x for x, _ in specials}
    line24 = set(cfg.line_points[half.external_line])
    assert {4, 39, 40, 47, 48} <= found & line24
    assert time.monotonic() - t0 < 5.0
    # Stated claim: the five line-24 points are the only special points.
    assert found == {4, 39, 40, 47, 48}, \
        "ten points qualify: the line-17 points satisfy the same condition"
    _verdict(8, "special points of grid 1 are exactly the five on line 24")


def test_criterion_09_property_suites(cfg):
    t0 = time.monotonic()
    rng = random.Random(20260824)

    def elem():
        return FieldElement(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                            Fraction(rng.randint(-50, 50), rng.randint(1, 9)))

    for _ in range(10_000):
        x, y, z = elem(), elem(), elem()
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        if not z.is_zero():
            assert (x / z) * z == x

    for _ in range(200):
        coords = [elem() for _ in range(4)]
        if all(c.is_zero() for c in coords):
            continue
        canon = canonicalize(coords)
        assert canonicalize(elements(canon)) == canon

    pts = [cfg.points[i] for i in (1, 5, 33, 60)]
    plane = cfg.planes[2]
    incident = [(p, plane.contains(p)) for p in pts]
    trials = 0
    while trials < 100:
        rows = [[FieldElement(rng.randint(-5, 5)) for _ in range(4)]
                for _ in range(4)]
        try:
            m = CoordinateChange(rows)
        except ZeroDivisionError:
            continue
        moved_plane = m.apply_plane(plane)
        for p, was_incident in incident:
            assert moved_plane.contains(m.apply_point(p)) == was_incident
        trials += 1

    sample = [pairs_of([FieldElement(rng.randint(-9, 9)) for _ in range(3)])
              for _ in range(6)]
    for f in vanishing_space(sample, 3, 3):
        for p in sample:
            assert f.vanishes_at(p)

    assert time.monotonic() - t0 < 7.0
    _verdict(9, "field axioms, canonical forms, incidence invariance, "
                "interpolation recheck")


def test_criterion_10_grid_enumeration_regression(cfg):
    t0 = time.monotonic()
    grids = enumerate_grids(cfg)
    pairs = {(g.l_lines, g.m_lines) for g in grids}
    assert all((h.l_lines, h.m_lines) in pairs for h in HALVES)
    assert len(grids) == 72  # frozen count from scripts/grid_oracle.py
    assert time.monotonic() - t0 < 7.0
    _verdict(10, "grid enumeration finds 72 grids, matching the oracle")
