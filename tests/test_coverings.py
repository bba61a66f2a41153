"""Exact covers of the point set and (5,5)-grid enumeration."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from h4geproci import config, coverings as coverings_mod, tables
from h4geproci.config import HALVES, NotAGridError, verify_grid
from h4geproci.coverings import (CoverCertificate, enumerate_coverings,
                                 enumerate_grids)
from h4geproci.forms import vanishing_space

# Count confirmed by scripts/grid_oracle.py (disjoint-family bucketing, an
# independent search); test_grid_oracle_agrees_with_enumeration reruns it.
GRID_COUNT = 72

ORACLE = Path(__file__).resolve().parent.parent / "scripts" / "grid_oracle.py"


def verify_covering(cfg, lines) -> bool:
    """Reference check: true iff the 12 lines' point sets are disjoint and
    cover every point.  Counted with repeats, twelve five-point lines carry
    60 points, so exactly when their union is all 60 points."""
    lines = list(lines)
    if len(lines) != 12 or not set(lines) <= set(cfg.lines):
        return False
    return {p for i in lines for p in cfg.line_points[i]} == set(cfg.points)


@pytest.fixture(scope="module")
def coverings(cfg):
    return enumerate_coverings(cfg)


def test_exactly_84_coverings(coverings):
    assert len(coverings) == 84


def test_coverings_match_fixture_table(coverings):
    assert {c.lines for c in coverings} == set(tables.LINE_COVERS)
    assert [c.lines for c in coverings] == sorted(tables.LINE_COVERS)


def test_first_and_known_coverings_present(coverings):
    found = {c.lines for c in coverings}
    assert (1, 7, 17, 24, 25, 32, 37, 44, 51, 60, 65, 70) in found
    assert (6, 10, 15, 20, 25, 33, 41, 46, 53, 57, 61, 70) in found


def test_every_covering_verifies(cfg, coverings):
    for c in coverings:
        assert verify_covering(cfg, c.lines)


def test_enumeration_is_deterministic(cfg, coverings):
    assert [c.lines for c in enumerate_coverings(cfg)] == \
        [c.lines for c in coverings]


def test_verify_covering_rejects_bad_inputs(cfg, coverings):
    good = list(coverings[0].lines)
    assert not verify_covering(cfg, good[:11])
    assert not verify_covering(cfg, good[:11] + [good[0]])
    assert not verify_covering(cfg, good[:11] + [73])
    swapped = good[:11] + [next(i for i in cfg.lines if i not in good)]
    assert not verify_covering(cfg, swapped)


def test_cover_certificate_sorts_and_validates():
    cert = CoverCertificate((12, 1, 7, 24, 17, 25, 32, 37, 44, 51, 60, 65))
    assert cert.lines[0] == 1
    with pytest.raises(ValueError):
        CoverCertificate((1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11))


@pytest.fixture(scope="module")
def grids(cfg):
    return enumerate_grids(cfg)


def test_grid_count_regression(grids):
    assert len(grids) == GRID_COUNT


def test_grid_oracle_agrees_with_enumeration(cfg, grids):
    spec = importlib.util.spec_from_file_location("grid_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    _, count = oracle.count_grids(cfg)
    assert count == GRID_COUNT == len(grids)
    for g in grids:
        assert oracle.has_unique_quadric([oracle.coords(cfg.points[i])
                                          for i in g.grid_points])
        assert all(g.quadric.vanishes_at(cfg.points[i].pairs)
                   for i in g.grid_points)


def test_grid_oracle_shares_no_predicate_with_the_package():
    """The oracle imports neither the elimination kernel nor the incidence
    predicates that the grid search rests on."""
    banned = {"h4geproci.linalg", "h4geproci.projective"}
    imported = set()
    for node in ast.walk(ast.parse(ORACLE.read_text(), str(ORACLE))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
    assert "h4geproci.config" in imported
    assert not imported & banned, sorted(imported & banned)


def test_both_printed_grids_are_found(grids):
    pairs = {(g.l_lines, g.m_lines) for g in grids}
    assert all((h.l_lines, h.m_lines) in pairs for h in HALVES)


def test_grids_have_unique_quadrics_and_25_points(grids):
    for g in grids:
        assert len(g.grid_points) == 25
        assert g.quadric.degree == 2


def test_every_grid_quadric_is_the_quadric_through_all_25_points(cfg, grids):
    """verify_grid certifies the quadric on a 3x3 subgrid; the reference
    interpolates through the whole grid and must give the same quadric."""
    for g in grids:
        points = [cfg.points[i].pairs for i in g.grid_points]
        assert vanishing_space(points, 2, 4) == [g.quadric]
        assert all(g.quadric.vanishes_at(p) for p in points)


def test_configuration_grids_are_the_enumerated_halves_grids(cfg, grids):
    """`build_h4` records the same grid certificates, byte for byte in JSON,
    as the search finds for the two families of each half."""
    found = {(g.l_lines, g.m_lines): g for g in grids}
    assert len(cfg.grids) == len(HALVES)
    for half, grid in zip(HALVES, cfg.grids):
        twin = found[(half.l_lines, half.m_lines)]
        assert json.dumps(grid.to_json(), sort_keys=True).encode() == \
            json.dumps(twin.to_json(), sort_keys=True).encode()


def test_grid_pairs_are_unordered_and_distinct(grids):
    keys = {frozenset((g.l_lines, g.m_lines)) for g in grids}
    assert len(keys) == len(grids)
    for g in grids:
        assert min(g.l_lines) < min(g.m_lines)


def _l_first_grids(cfg):
    """Reference: the earlier L-first search.  It grows skew 5-cliques L in
    the meet relation while the pool of lines above min(L) meeting every
    L-line keeps 5 members, then takes every skew 5-clique M of that pool."""
    meets = {i: sum(1 << j for j in cfg.meets[i]) for i in cfg.lines}
    found = []

    def skew_cliques(pool, size, clique=()):
        if len(clique) == size:
            yield clique
            return
        for cand in config.members(pool):
            pool &= pool - 1
            yield from skew_cliques(pool & ~meets[cand], size, clique + (cand,))

    def extend(clique, rest, trans):
        if trans.bit_count() < 5:
            return
        if len(clique) == 5:
            for m_set in skew_cliques(trans, 5):
                try:
                    grid = verify_grid(cfg, clique, m_set)
                except NotAGridError:
                    continue
                found.append((grid.l_lines, grid.m_lines))
            return
        for cand in config.members(rest):
            rest &= rest - 1
            extend(clique + (cand,), rest & ~meets[cand], trans & meets[cand])

    everything = sum(1 << i for i in cfg.lines)
    for first in sorted(cfg.lines):
        above = everything >> (first + 1) << (first + 1)
        extend((first,), above & ~meets[first], above & meets[first])
    return sorted(found)


def test_grid_search_matches_the_l_first_search(cfg, grids):
    assert [(g.l_lines, g.m_lines) for g in grids] == _l_first_grids(cfg)


def test_m_lines_pass_one_through_each_point_of_the_lowest_line(cfg, grids):
    for g in grids:
        f = g.l_lines[0]
        assert f == min(g.l_lines + g.m_lines)
        on_f = [set(cfg.line_points[m]) & set(cfg.line_points[f])
                for m in g.m_lines]
        assert sorted(p for meet in on_f for p in meet) == \
            sorted(cfg.line_points[f])


def test_every_candidate_is_a_grid(cfg, monkeypatch):
    """The search hands verify_grid the 72 grids and nothing else."""
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return verify_grid(*args)

    monkeypatch.setattr(coverings_mod, "verify_grid", counting)
    assert len(enumerate_grids(cfg)) == len(calls) == GRID_COUNT
