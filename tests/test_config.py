"""The 60-point configuration: tables, counts, duality, special points."""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from h4geproci import config, forms, linalg, tables
from h4geproci.config import (HALVES, grid_point_indices,
                              incidence_table_lines, incidence_table_planes,
                              special_points_for_grid, z_partition)
from h4geproci.field import FieldElement, ONE, PHI
from h4geproci.forms import HomForm
from h4geproci.projective import (ProjLine, image_from, lines_meet,
                                  pluecker_pairs)
from test_projective import on_line


def test_sixty_distinct_points_and_dual_planes(cfg):
    assert len(cfg.points) == 60 and len(cfg.planes) == 60
    assert len(set(cfg.points.values())) == 60
    for i in cfg.points:
        assert cfg.planes[i].coords == cfg.points[i].coords


def test_plane_table_matches_fixture(cfg):
    computed = {i: tuple(sorted(v))
                for i, v in incidence_table_planes(cfg).items()}
    assert computed == tables.PLANE_POINTS


def test_line_table_matches_fixture(cfg):
    assert incidence_table_lines(cfg) == tables.LINE_POINTS


def test_incidence_counts(cfg):
    assert all(len(cfg.plane_points[i]) == 15 for i in cfg.planes)
    assert all(len(cfg.point_planes[i]) == 15 for i in cfg.points)
    assert len(cfg.lines) == 72
    assert all(len(cfg.line_points[i]) == 5 for i in cfg.lines)
    assert all(len(cfg.point_lines[i]) == 6 for i in cfg.points)
    assert all(len(cfg.line_planes[i]) == 5 for i in cfg.lines)
    assert all(len(cfg.plane_lines[i]) == 6 for i in cfg.planes)


def test_max_collinear_is_five(cfg):
    assert cfg.max_collinear() == 5
    assert cfg.max_collinear(cfg.points) == 5


def collinear_groups(points):
    """Group 0-based point indices by the line they span: the reference
    that `config.build_h4`'s plane intersections must match.

    Each line is found from its lowest point i: the later points not yet
    seen on a line through p_i are grouped by their image from p_i
    (`image_from`).  Keys are (i, image); each value lists every input point
    on that line in increasing order.  Projection from p_i is one-to-one on
    the lines through p_i, so equal images mean the same line through p_i;
    a point skipped at i is on a line a lower point found whole.
    """
    groups = {}
    seen = [set() for _ in points]
    for i, p in enumerate(points):
        through = {}
        for j in range(i + 1, len(points)):
            if j not in seen[i]:
                through.setdefault(image_from(p, points[j]), [i]).append(j)
        for image, members in through.items():
            groups[(i, image)] = members
            for j in members[1:]:
                seen[j].update(members)
    return groups


def test_collinear_groups_on_small_sets(cfg):
    assert cfg.max_collinear((1, 2, 3)) == 2  # simplex corners, no 3 collinear
    assert cfg.max_collinear(tables.LINE_POINTS[1]) == 5
    assert cfg.max_collinear((7,)) == 1 and cfg.max_collinear(()) == 0
    groups = collinear_groups(list(cfg.points.values()))
    assert sum(1 for v in groups.values() if len(v) == 5) == 72


def test_secant_table_invariants(cfg):
    assert len(cfg.secants) == 722
    assert Counter(len(s) for s in cfg.secants) == {2: 450, 3: 200, 5: 72}
    pairs = [pair for s in cfg.secants for pair in combinations(s, 2)]
    assert len(pairs) == len(set(pairs)) == 1770
    assert [s for s in cfg.secants if len(s) == 5] == \
        list(cfg.line_points.values())
    assert list(cfg.secants) == sorted(cfg.secants)
    assert "secants" not in cfg.to_json()


def _pair_scan_groups(points):
    """The groups of the pair scan that `collinear_groups` replaced: every
    pair of points keyed by the canonical Pluecker pairs of its line (1770
    pairs on the 60 points), as a sorted list of sorted index lists."""
    groups = {}
    pairs = [p.pairs for p in points]
    for i, pi in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            groups.setdefault(pluecker_pairs(pi, pairs[j]), set()).update((i, j))
    return sorted(sorted(v) for v in groups.values())


def _subsets(cfg):
    z1, z2 = z_partition(cfg)
    rng = random.Random(20261018)
    return [z1, z2] + [rng.sample(sorted(cfg.points), k)
                       for k in (2, 3, 8, 20, 45)]


def test_subset_collinearity_lookup_matches_pair_scan(cfg):
    """The secant lookup agrees with a Pluecker pair scan of the subset."""
    for subset in _subsets(cfg):
        groups = _pair_scan_groups([cfg.points[i] for i in subset])
        assert cfg.max_collinear(subset) == max(len(v) for v in groups)


def test_collinear_groups_match_the_pair_scan(cfg):
    """Grouping by the image from each line's lowest point finds the same
    lines, with the same points, as the pair scan."""
    for subset in [sorted(cfg.points)] + _subsets(cfg):
        points = [cfg.points[i] for i in subset]
        groups = collinear_groups(points)
        assert all(key[0] == v[0] for key, v in groups.items())
        assert sorted(groups.values()) == _pair_scan_groups(points)


def test_build_h4_secants_match_collinear_groups(cfg):
    """The secants from plane intersections are the lines that grouping by
    images finds, with the same points."""
    groups = collinear_groups(list(cfg.points.values()))
    assert list(cfg.secants) == sorted(tuple(i + 1 for i in v)
                                       for v in groups.values())


def _counting_exact_meets(monkeypatch):
    calls = []

    def counting(l1, l2):
        calls.append((l1, l2))
        return lines_meet(l1, l2)

    monkeypatch.setattr(config, "lines_meet", counting)
    return calls


def test_build_h4_decides_every_skew_pair_mod_p(cfg, monkeypatch):
    """At the stored prime every pairing of lines that share no point is a
    nonzero residue, so the build makes no exact meet test."""
    calls = _counting_exact_meets(monkeypatch)
    assert config.build_h4() == cfg
    assert calls == []


def test_build_h4_at_a_prime_over_5_tests_zero_residues_exactly(cfg, monkeypatch):
    """P = (5, phi - 3) has degree 1 but lies over 5: the 36 skew pairs
    whose pairings have norm +-5 or +-80 read 0 there and go to the exact
    test, and the configuration comes out the same."""
    assert (3 * 3 - 3 - 1) % 5 == 0
    monkeypatch.setattr(linalg, "_PRIME", 5)
    monkeypatch.setattr(linalg, "_PHI_ROOT", 3)
    calls = _counting_exact_meets(monkeypatch)
    assert config.build_h4() == cfg
    assert len(calls) == len(set(calls)) == 36
    assert not any(lines_meet(l1, l2) for l1, l2 in calls)


def test_lines_lie_on_their_listed_points(cfg):
    for i, members in cfg.line_points.items():
        line = cfg.lines[i]
        for j in members:
            assert on_line(line, cfg.points[j])


def test_meet_relation_matches_the_pluecker_test(cfg):
    """The stored relation against an exact test on all 2556 pairs.

    It also equals "shares a point in line_points": no two of the 72 lines
    meet outside the configuration.
    """
    pairs = list(combinations(sorted(cfg.lines), 2))
    assert len(pairs) == 2556
    for a, b in pairs:
        meet = lines_meet(cfg.lines[a], cfg.lines[b])
        assert (b in cfg.meets[a]) == (a in cfg.meets[b]) == meet
        assert meet == bool(set(cfg.line_points[a]) & set(cfg.line_points[b]))
    assert all(i not in cfg.meets[i] for i in cfg.lines)
    assert set(cfg.meets) == set(cfg.lines)


def test_line_planes_match_exact_containment(cfg):
    for i, line in cfg.lines.items():
        for v, plane in cfg.planes.items():
            inside = plane.contains(line.p) and plane.contains(line.q)
            assert (v in cfg.line_planes[i]) == inside


def test_grid_quadrics_match_printed_equations(cfg):
    # The equations of criterion 4, scaled so the leading coefficient is 1.
    q1 = HomForm(4, 2, {
        (1, 1, 0, 0): FieldElement(2), (0, 2, 0, 0): -ONE,
        (0, 0, 2, 0): PHI - ONE, (0, 0, 0, 2): -PHI}).monic()
    q2 = HomForm(4, 2, {
        (2, 0, 0, 0): ONE, (1, 1, 0, 0): FieldElement(2),
        (0, 0, 2, 0): PHI, (0, 0, 0, 2): ONE - PHI}).monic()
    assert cfg.grid_quadrics == (q1, q2)


def test_quadric_rows_are_the_degree_2_evaluation_rows(cfg):
    """grid_quadric's direct pair products are the power-table rows."""
    cols = forms.monomials(2, 4)
    for point in cfg.points.values():
        assert config._quadric_row(point.pairs) == \
            forms._evaluation_row(point.pairs, 2, 4, cols)


def test_build_h4_interpolates_no_grid_quadric(cfg, monkeypatch):
    """Both quadrics come from config.grid_quadric, which interpolates nothing."""
    def no_interpolation(*args):
        raise AssertionError("build_h4 interpolated")

    monkeypatch.setattr(forms, "vanishing_space", no_interpolation)
    assert not hasattr(config, "vanishing_space")
    assert config.build_h4().grid_quadrics == cfg.grid_quadrics


def test_z_partition_matches_printed_halves(cfg):
    z1, z2 = z_partition(cfg)
    assert z1 == (1, 4, 5, 6, 7, 8, 13, 14, 15, 16, 29, 30, 31, 32, 33, 34,
                  35, 36, 37, 38, 39, 40, 41, 42, 47, 48, 51, 52, 57, 58)
    assert set(z1) | set(z2) == set(cfg.points)
    assert not set(z1) & set(z2)


def test_grid_families_are_skew_with_25_points(cfg):
    for half in HALVES:
        for fam in (half.l_lines, half.m_lines):
            for a, b in combinations(fam, 2):
                assert not lines_meet(cfg.lines[a], cfg.lines[b])
        grid = grid_point_indices(cfg, half.l_lines)
        assert len(grid) == 25
        assert grid == grid_point_indices(cfg, half.m_lines)


def test_special_points_of_grid1(cfg):
    """Ten points see the grid through exactly 10 secant pairs.

    Five lie on line 24 and five on line 17; the printed account lists only
    the line-24 half, but the line-17 points satisfy the same condition, and
    P3 = [0:0:1:0] visibly lies on the secant through P5 and P7.
    """
    half1, half2 = HALVES
    grid = grid_point_indices(cfg, half1.l_lines)
    specials = special_points_for_grid(cfg, grid)
    found = [x for x, _ in specials]
    assert found == [3, 4, 39, 40, 47, 48, 49, 50, 53, 54]
    on_24 = [x for x in found if x in cfg.line_points[half1.external_line]]
    assert on_24 == [4, 39, 40, 47, 48]
    on_17 = [x for x in found if x in cfg.line_points[half2.external_line]]
    assert on_17 == [3, 49, 50, 53, 54]
    for x, pairing in specials:
        assert len(pairing) == 10
        covered = {i for pair in pairing for i in pair}
        assert len(covered) == 20 and covered <= set(grid)


def test_special_points_of_grid2(cfg):
    """Grid 2 has the same ten special points as grid 1."""
    grid = grid_point_indices(cfg, HALVES[1].l_lines)
    specials = special_points_for_grid(cfg, grid)
    assert [x for x, _ in specials] == [3, 4, 39, 40, 47, 48, 49, 50, 53, 54]
    for x, pairing in specials:
        assert len(pairing) == 10
        covered = {i for pair in pairing for i in pair}
        assert len(covered) == 20 and covered <= set(grid)
        for a, b in pairing:  # rank test, independent of the secant table
            assert on_line(ProjLine(cfg.points[x], cfg.points[a]),
                           cfg.points[b])


def test_special_points_need_a_25_point_grid(cfg):
    with pytest.raises(ValueError, match="expected a 25-point grid"):
        special_points_for_grid(cfg, range(1, 25))


def test_checks_hold_under_python_O():
    """`python -O` strips assert statements; the caller-input guard still
    raises ValueError, and a malformed point table AssertionError."""
    src = Path(config.__file__).resolve().parent.parent
    code = ("import sys\n"
            "from h4geproci import config\n"
            "print(sys.flags.optimize)\n"
            "cfg = config.build_h4()\n"
            "try:\n"
            "    config.special_points_for_grid(cfg, range(1, 25))\n"
            "except ValueError:\n"
            "    print('ValueError')\n"
            "config._POINT_DATA = config._POINT_DATA.replace('0 1 0 0', '0 1 0', 1)\n"
            "try:\n"
            "    config.build_h4()\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "1", "ValueError", "bad point row ['0', '1', '0']"]


def test_special_point_4_has_the_printed_pairing(cfg):
    grid = grid_point_indices(cfg, HALVES[0].l_lines)
    pairing = dict(special_points_for_grid(cfg, grid))[4]
    assert pairing == ((5, 6), (7, 8), (13, 14), (15, 16), (29, 30), (31, 32),
                       (33, 34), (35, 36), (37, 38), (41, 42))


def test_configuration_json_has_all_sections(cfg):
    blob = cfg.to_json()
    assert set(blob) == {"points", "planes", "lines", "line_points",
                         "plane_points", "point_planes", "point_lines",
                         "line_planes", "plane_lines"}
    assert len(blob["points"]) == 60 and len(blob["lines"]) == 72
