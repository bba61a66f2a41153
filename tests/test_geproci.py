"""Projection certificates: grids, quadrics, pencils, and both pipelines."""

import importlib
import inspect
import itertools
import os
import pkgutil
import random
import subprocess
import sys
import typing
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import pytest

import h4geproci
from h4geproci import config, field, forms, geproci, linalg, projective
from h4geproci.config import HALVES, z_partition
from h4geproci.coverings import (CoverCertificate, enumerate_coverings,
                                 enumerate_grids)
from h4geproci.field import FieldElement, ONE, PHI, ZERO, _dot, _neg
from h4geproci.forms import (HomForm, SmoothnessIndeterminate,
                             SmoothnessReport, plane_curve_is_smooth)
from h4geproci.projective import (DegenerateSpanError, ProjPoint, canonicalize,
                                  image_from)
from elements import coefficients, coords, form, linear, pairs_of, point
from form_references import monic, reference_partial, reference_quotient
from test_forms import (_add, _counting_kernel_mod, _evaluate,
                        _reference_monic, _scale)
from test_linalg import lift_need, reference_inverse
from test_projective import (CoordinateChange, dual_pairs, on_line,
                             plane_image, plane_through, pluecker_matrix)

# The paper's two halves: grid 1 with line 24, grid 2 with line 17.
HALF1, HALF2 = HALVES
L1, M1 = HALF1.l_lines, HALF1.m_lines


@pytest.fixture(scope="module")
def projection(cfg):
    return geproci.sample_generic_vertex(cfg, 1)


@pytest.fixture(scope="module")
def grid1(cfg):
    return config.verify_grid(cfg, L1, M1)


def test_vertex_sampling_is_deterministic_and_certified(cfg, projection):
    again = geproci.sample_generic_vertex(cfg, 1)
    assert again.vertex == projection.vertex
    for seed in (1, 2, 3):
        proj = projection if seed == 1 else geproci.sample_generic_vertex(cfg, seed)
        v = proj.vertex
        assert not any(plane.contains(v) for plane in cfg.planes.values())
        assert not any(on_line(line, v) for line in cfg.lines.values())
        assert not any(g.quadric.vanishes_at(v.pairs) for g in cfg.grids)
        assert len({proj.images[i] for i in cfg.points}) == 60


def test_different_seeds_give_different_vertices(cfg, projection):
    other = geproci.sample_generic_vertex(cfg, 2)
    assert other.vertex != projection.vertex


def _sampler_with_image_rejection(cfg, seed):
    """The vertex and the 60 images as the sampler once drew them: it also
    rejected a vertex where two configuration points share an image."""
    rng = random.Random(seed)
    for _ in range(geproci.VERTEX_DRAWS):
        raw = [rng.randint(-3, 3) for _ in range(4)]
        if all(v == 0 for v in raw):
            continue
        vertex = ProjPoint.of(*raw)
        if any(plane.contains(vertex) for plane in cfg.planes.values()) \
                or any(g.quadric.vanishes_at(vertex.pairs) for g in cfg.grids):
            continue
        images = {i: image_from(vertex, cfg.points[i]) for i in cfg.points}
        if len(set(images.values())) == 60:
            return vertex, images


def _admissible_vertices(cfg):
    """Every projective vertex with coordinates in [-3, 3] that is off the
    60 planes and both grid quadrics."""
    box = {ProjPoint.of(*raw)
           for raw in itertools.product(range(-3, 4), repeat=4) if any(raw)}
    return {v for v in box
            if not any(plane.contains(v) for plane in cfg.planes.values())
            and not any(g.quadric.vanishes_at(v.pairs) for g in cfg.grids)}


def test_the_sampler_box_holds_192_vertices(cfg):
    """The sampler's whole range: 192 admissible vertices, from which seeds
    1-5 draw five distinct ones."""
    box = _admissible_vertices(cfg)
    assert len(box) == 192
    drawn = {geproci.sample_generic_vertex(cfg, seed).vertex for seed in range(1, 6)}
    assert len(drawn) == 5 and drawn <= box


@pytest.mark.parametrize("kernel_prime", ["stored"], indirect=True)
def test_every_admissible_sextic_lifts_at_the_kernel_prime_alone(cfg, monkeypatch,
                                                                 kernel_prime):
    """The size of `linalg._KERNEL_PRIME`: at each of the 192 vertices the
    sampler can draw, the sextic through the 60 images is unique, its
    kernel vector (1 in its free column) needs a modulus of at most 2^35
    to reconstruct, and the stored prime lifts it with no further prime."""
    kernels = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda rows: kernels.append(nullspace(rows)) or kernels[-1])
    needs = []
    for vertex in _admissible_vertices(cfg):
        images = geproci._Images(vertex, cfg.points)
        assert len(forms.vanishing_space([images[i] for i in sorted(cfg.points)],
                                         6, 3)) == 1
        [v] = kernels.pop()
        g = max(j for j, w in enumerate(v) if w != (0, 0))
        needs.append(lift_need([[FieldElement(*w) / FieldElement(*v[g]) for w in v]]))
    assert len(needs) == 192 and kernel_prime == []
    assert 2 * max(needs) ** 2 <= 2 ** 35 < linalg._KERNEL_PRIME[0]


def test_sampling_draws_the_vertex_that_the_image_rejection_drew(cfg):
    """Off the planes, a vertex is off every line through two points, so the
    distinct-images rejection never fires: seeds 1-200 draw the same vertex
    with and without it, with the same images."""
    for seed in range(1, 201):
        vertex, images = _sampler_with_image_rejection(cfg, seed)
        proj = geproci.sample_generic_vertex(cfg, seed)
        assert proj.vertex == vertex
        if seed <= 3:
            assert {i: proj.images[i] for i in sorted(cfg.points)} == images


def _counting_images(monkeypatch):
    """The points whose image `geproci` computes, in call order."""
    image_from_ = geproci.image_from
    calls = []

    def counting(vertex, x):
        calls.append(x)
        return image_from_(vertex, x)

    monkeypatch.setattr(geproci, "image_from", counting)
    return calls


def test_images_are_computed_on_first_read(cfg, monkeypatch):
    """Sampling computes no image; an index read again computes nothing; the
    images are those of `image_from`, and the mapping is read-only."""
    calls = _counting_images(monkeypatch)
    proj = geproci.sample_generic_vertex(cfg, 1)
    assert calls == []
    first = proj.images[7]
    assert proj.images[7] is first and calls == [cfg.points[7]]
    assert first == image_from(proj.vertex, cfg.points[7])
    with pytest.raises(TypeError):
        proj.images[7] = first
    assert [proj.images[i] for i in sorted(cfg.points)] == [
        image_from(proj.vertex, cfg.points[i]) for i in sorted(cfg.points)]
    assert len(calls) == 60
    assert proj.images[7] is first
    assert len(calls) == 60


def test_each_verdict_computes_only_the_images_it_reads(cfg, monkeypatch):
    """A half-grid certificate reads its 30 points; the refutation's rank
    test stops at its 21st row; the geproci certificate reads all 60."""
    calls = _counting_images(monkeypatch)
    for half in HALVES:
        calls.clear()
        assert geproci.verify_half_grid(cfg, 1, half.name).passed
        assert len(calls) == len(set(calls)) == 30
    for seed in (1, 2, 3, 12345):
        calls.clear()
        assert geproci.verify_not_half_grid(cfg, seed).refuted
        assert len(calls) == len(set(calls)) == 21
    calls.clear()
    assert geproci.verify_geproci(cfg, 1).passed
    assert len(calls) == len(set(calls)) == 60


def test_grid1_quadric_matches_printed_equation(cfg, grid1):
    # 2xy - y^2 + (phi - 1)z^2 - phi*w^2, scaled so the xy coefficient is 1.
    expected = form(4, 2, {
        (1, 1, 0, 0): FieldElement(2),
        (0, 2, 0, 0): -ONE,
        (0, 0, 2, 0): PHI - ONE,
        (0, 0, 0, 2): -PHI,
    })
    assert grid1.quadric == monic(expected)
    assert len(grid1.grid_points) == 25


def test_grid2_quadric_matches_printed_equation(cfg):
    grid2 = config.verify_grid(cfg, HALF2.l_lines, HALF2.m_lines)
    expected = form(4, 2, {
        (2, 0, 0, 0): ONE,
        (1, 1, 0, 0): FieldElement(2),
        (0, 0, 2, 0): PHI,
        (0, 0, 0, 2): ONE - PHI,
    })
    assert grid2.quadric == monic(expected)


def test_configuration_quadrics_agree_with_grid_certificates(cfg, grid1):
    g1, g2 = cfg.grids
    assert g1.quadric == grid1.quadric and g1 == grid1
    grid2 = config.verify_grid(cfg, HALF2.l_lines, HALF2.m_lines)
    assert g2.quadric == grid2.quadric and g2 == grid2


def test_grid_points_lie_on_the_quadric(cfg, grid1):
    for i in grid1.grid_points:
        assert grid1.quadric.vanishes_at(cfg.points[i].pairs)


def _subgrid(cfg, l_lines, m_lines):
    """The 9 points l_i . m_j, i, j <= 3, in row-major order of the families."""
    return [p for li in l_lines[:3] for mj in m_lines[:3]
            for p in set(cfg.line_points[li]) & set(cfg.line_points[mj])]


def test_grid_quadric_is_certified_on_the_3x3_subgrid(cfg, grid1, monkeypatch):
    """verify_grid interpolates nothing and runs no rank test mod P, for
    either order of the families and across the whole grid search, and the
    certified quadric is the one interpolated through the 9 points
    l_i . m_j, i, j <= 3."""
    rotated = (L1[::-1], M1[1:] + M1[:1])
    interpolated = {}
    for l_lines, m_lines in ((L1, M1), rotated):
        nine = [cfg.points[i].pairs for i in _subgrid(cfg, l_lines, m_lines)]
        assert len(set(nine)) == 9
        interpolated[l_lines] = forms.vanishing_space(nine, 2, 4)
    ranked = []

    def no_interpolation(*args):
        raise AssertionError("verify_grid interpolated")

    monkeypatch.setattr(geproci, "vanishing_space", no_interpolation)
    monkeypatch.setattr(forms, "vanishing_space", no_interpolation)
    monkeypatch.setattr(linalg, "independent_rows_mod",
                        lambda rows, p: ranked.append(p))
    for l_lines, m_lines in ((L1, M1), rotated):
        grid = config.verify_grid(cfg, l_lines, m_lines)
        assert [grid.quadric] == interpolated[l_lines]
        assert grid.quadric == grid1.quadric
        assert grid.grid_points == grid1.grid_points
    assert len(enumerate_grids(cfg)) == 72
    assert ranked == []


def _assert_indeterminate(cfg, match):
    """verify_grid raises a VerificationError that is not NotAGridError, and
    enumerate_grids passes it on instead of dropping the grid."""
    with pytest.raises(config.VerificationError, match=match) as info:
        config.verify_grid(cfg, L1, M1)
    assert not isinstance(info.value, config.NotAGridError)
    with pytest.raises(config.VerificationError, match=match) as info:
        enumerate_grids(cfg)
    assert not isinstance(info.value, config.NotAGridError)


@pytest.fixture
def no_quadric(monkeypatch):
    """Fail any quadric work: the exact tables must settle the case first."""
    def work(*args):
        pytest.fail("verify_grid built a quadric")

    monkeypatch.setattr(config, "_pencil_quadric", work)
    monkeypatch.setattr(linalg, "first_missed_row", work)


def test_a_triple_with_a_meeting_pair_is_not_a_grid(cfg, no_quadric):
    """The family-skew check keeps l_1, l_2, l_3 pairwise skew, for the
    three-skew-lines theorem, before any quadric is built."""
    assert M1[0] in cfg.meets[L1[0]]
    with pytest.raises(config.NotAGridError,
                       match=rf"L-lines {L1[0]} and {M1[0]} are not skew"):
        config.verify_grid(cfg, L1[:2] + M1[:1] + L1[3:], L1[2:3] + M1[1:])


@pytest.mark.parametrize("m_lines, match", [
    ((8,) + M1[1:], "lines 1 and 8 do not meet"),  # they share no point
    # m_1 = l_1: 9 distinct points, 5 of them on l_1
    ((L1[0], 12, 13) + M1[3:], "families share a line"),
], ids=["missing", "shared"])
def test_a_subgrid_with_a_missing_intersection_is_not_a_grid(
        cfg, no_quadric, m_lines, match):
    """Each l_i . m_j, i, j <= 3, must be one configuration point, the 9
    distinct, before any quadric is built."""
    cells = [set(cfg.line_points[li]) & set(cfg.line_points[mj])
             for li in L1[:3] for mj in m_lines[:3]]
    assert not all(len(cell) == 1 for cell in cells)
    with pytest.raises(config.NotAGridError, match=match):
        config.verify_grid(cfg, L1, m_lines)


def test_a_quadric_missing_a_subgrid_point_is_indeterminate(cfg, monkeypatch):
    pencil = config._pencil_quadric

    def plus_w_squared(*args):
        pairs = list(pencil(*args))
        pairs[-1] = (pairs[-1][0] + 1, pairs[-1][1])
        return pairs

    monkeypatch.setattr(config, "_pencil_quadric", plus_w_squared)
    _assert_indeterminate(cfg, "misses the subgrid")


def test_a_zero_quadric_is_indeterminate(cfg, monkeypatch):
    monkeypatch.setattr(config, "_pencil_quadric",
                        lambda *args: [(0, 0)] * 10)
    _assert_indeterminate(cfg, "is zero")


def test_a_meeting_pair_in_no_common_plane_is_indeterminate(cfg):
    """The pencil reads the plane of each meeting pair from ``line_planes``;
    a table that leaves l_1 and m_1 in no common plane is a bug, not "not a
    grid", in verify_grid and in the grid search."""
    common = set(cfg.line_planes[L1[0]]) & set(cfg.line_planes[M1[0]])
    assert len(common) == 1
    line_planes = {**cfg.line_planes, M1[0]: tuple(
        v for v in cfg.line_planes[M1[0]] if v not in common)}
    _assert_indeterminate(cfg._replace(line_planes=line_planes),
                          "share 0 planes, not 1")


def test_every_grid_pencil_quadric_is_the_quadric_of_three_lines(cfg):
    """For each of the 72 grids, in both orders of its families, the pencil
    member of the quadrilateral l_1 m_1 l_2 m_2 through l_3 . m_3 spans the
    quadrics through the 15 points of l_1, l_2 and l_3: the oracle of
    `test_three_skew_h4_lines_lie_on_one_quadric`, apart from the pencil."""
    cols = forms.monomials(2, 4)
    grids = enumerate_grids(cfg)
    assert len(grids) == 72
    for g in grids:
        for l_lines, m_lines in ((g.l_lines, g.m_lines), (g.m_lines, g.l_lines)):
            x0 = _subgrid(cfg, l_lines, m_lines)[8]
            pairs = config._pencil_quadric(cfg, l_lines, m_lines, x0)
            q = HomForm(4, 2, dict(zip(cols, pairs)))
            fifteen = [cfg.points[p].pairs
                       for i in l_lines[:3] for p in cfg.line_points[i]]
            assert len(set(fifteen)) == 15
            assert forms.vanishing_space(fifteen, 2, 4) == [monic(q)] == [g.quadric]


def test_non_grid_inputs_are_rejected(cfg):
    with pytest.raises(config.NotAGridError):
        config.verify_grid(cfg, L1, L1)  # families share lines
    with pytest.raises(config.NotAGridError):
        config.verify_grid(cfg, (1, 2, 3, 4, 5), M1)  # not skew
    with pytest.raises(config.NotAGridError):
        config.verify_grid(cfg, L1[:4] + (L1[0],), M1)
    # Skew families from different grids: lines 1 and 8 share no point.
    with pytest.raises(config.NotAGridError,
                       match="lines 1 and 8 do not meet in a configuration"):
        config.verify_grid(cfg, L1, HALF2.m_lines)


@pytest.mark.parametrize("l_lines, m_lines", [
    (L1 + L1[:1], M1),  # six entries, five distinct
    (L1, M1 + M1[-1:]),
    (L1 + (7,), M1),  # six distinct lines
    (L1, M1[:4]),
])
def test_a_family_needs_exactly_five_entries(cfg, l_lines, m_lines):
    with pytest.raises(config.NotAGridError,
                       match="each family needs 5 distinct lines"):
        config.verify_grid(cfg, l_lines, m_lines)


@pytest.mark.parametrize("bad", [0, 99, -1])
def test_verify_grid_rejects_unknown_lines(cfg, no_quadric, bad):
    for l_lines, m_lines in ((L1[:4] + (bad,), M1),
                             (L1, (bad,) + M1[1:])):
        with pytest.raises(ValueError, match=rf"unknown line indices \[{bad}\]"):
            config.verify_grid(cfg, l_lines, m_lines)


def _product_of_plane_images(cfg, projection, lines) -> HomForm:
    """The product of the images of the planes spanned by the vertex and each line."""
    return forms.multiply([projection.push_line(cfg.lines[i]) for i in lines])


def test_pencil_base_points_are_exactly_the_grid(cfg, projection, grid1):
    """The points whose images kill both pencil generators are the grid."""
    g = _product_of_plane_images(cfg, projection, grid1.l_lines)
    h = _product_of_plane_images(cfg, projection, grid1.m_lines)
    base = tuple(i for i in sorted(cfg.points)
                 if g.vanishes_at(projection.images[i])
                 and h.vanishes_at(projection.images[i]))
    assert base == grid1.grid_points


def test_quintic_cone_vanishes_on_its_half(cfg, projection, grid1):
    """The pencil member through point 4 of line 24 is the half's quintic,
    and it vanishes at all 30 images of z1."""
    g = _product_of_plane_images(cfg, projection, grid1.l_lines)
    h = _product_of_plane_images(cfg, projection, grid1.m_lines)
    quintic = geproci.build_quintic_cone(g, h, projection.images[4])
    assert quintic == geproci._half_quintic(cfg, projection, HALF1)[0]
    z1, _ = z_partition(cfg)
    assert quintic.degree == 5
    for i in z1:
        assert quintic.vanishes_at(projection.images[i])


def test_quintic_cone_rejects_a_base_point(cfg, projection, grid1):
    """At a grid image both generators vanish, so every member does."""
    g = _product_of_plane_images(cfg, projection, grid1.l_lines)
    h = _product_of_plane_images(cfg, projection, grid1.m_lines)
    with pytest.raises(config.VerificationError, match="both"):
        geproci.build_quintic_cone(g, h, projection.images[grid1.grid_points[0]])


def _random_linear(rng):
    """A nonzero ternary linear form with Z[phi] or rational coefficients."""
    while True:
        coeffs = [FieldElement(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))),
                               rng.randint(-3, 3)) for _ in range(3)]
        if any(coeffs):
            return linear(coeffs)


def test_quintic_cone_matches_the_field_reference():
    """On products of random linear forms, the member made on coprime
    pairs is the old (h(x)*g - g(x)*h).monic(), computed in
    FieldElement arithmetic; at a common zero of g and h it still raises."""
    rng = random.Random(29)
    for trial in range(12):
        g, h = (forms.multiply([_random_linear(rng) for _ in range(5)])
                for _ in range(2))
        point = pairs_of([FieldElement(rng.randint(-9, 9), rng.randint(-9, 9))
                                      for _ in range(3)])
        gx, hx = _evaluate(g, point), _evaluate(h, point)
        if gx.is_zero() and hx.is_zero():
            continue
        expected = _reference_monic(_add(_scale(g, hx), _scale(h, -gx)))
        assert geproci.build_quintic_cone(g, h, point) == expected
        assert geproci.build_quintic_cone(g, h, point).vanishes_at(point)
    line = _random_linear(rng)
    g, h = (forms.multiply([line] + [_random_linear(rng) for _ in range(4)])
            for _ in range(2))
    a, b, c = (line.terms.get(e, (0, 0)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # A zero of the common factor line: its pairs cross a coordinate vector.
    zero = next(p for p in ([(0, 0), c, _neg(b)], [_neg(c), (0, 0), a],
                            [b, _neg(a), (0, 0)]) if p != [(0, 0)] * 3)
    assert line.vanishes_at(zero)
    with pytest.raises(config.VerificationError, match="both"):
        geproci.build_quintic_cone(g, h, zero)


def test_proportional_generators_raise_on_the_zero_member(cfg, projection,
                                                          grid1):
    """With h = phi*g every member h(x)*g - g(x)*h is the zero form; the
    cone names it rather than return it to fail a later check."""
    g = _product_of_plane_images(cfg, projection, grid1.l_lines)
    h = _scale(g, PHI)
    with pytest.raises(config.VerificationError, match="is zero"):
        geproci.build_quintic_cone(g, h, projection.images[4])
    with pytest.raises(config.VerificationError, match="is zero"):
        geproci.build_quintic_cone(g, g, projection.images[4])


def test_half_grid_builds_each_product_once(cfg, monkeypatch):
    """Per half, g and h are one product of their five pushed lines each,
    and the line product is one more, of g and the external line: three
    `forms.multiply` calls, with 5, 5 and 2 factors, and no other product
    (`HomForm.__mul__` calls it too)."""
    multiply = forms.multiply
    calls = []

    def counting(factors):
        calls.append(tuple(f.degree for f in factors))
        return multiply(factors)

    monkeypatch.setattr(forms, "multiply", counting)
    monkeypatch.setattr(geproci, "multiply", counting)
    for half in HALVES:
        calls.clear()
        assert geproci.verify_half_grid(cfg, 1, half.name).passed
        assert sorted(calls) == [(1,) * 5, (1,) * 5, (5, 1)]


def test_one_product_of_many_factors_is_the_chain_of_pair_products():
    """`forms.multiply` of many factors normalizes once; the chain of pair
    products normalizes at every step.  Both give the same form, coefficient
    for coefficient, on random factors with rational and Z[phi]
    coefficients, whose value at a point is the product of the factors'
    values (FieldElement evaluation), and a zero factor gives the zero form
    of the summed degree."""
    rng = random.Random(31)
    for n in (1, 2, 3, 5, 6):
        factors = [_random_linear(rng) for _ in range(n)]
        got = forms.multiply(factors)
        assert got == reduce(lambda f, g: forms.multiply((f, g)), factors)
        assert got.degree == n
        point = pairs_of([FieldElement(rng.randint(-9, 9), rng.randint(-9, 9))
                                      for _ in range(3)])
        assert _evaluate(got, point) == reduce(mul, (_evaluate(f, point) for f in factors))
    zero = forms.multiply([_random_linear(rng), HomForm(3, 2, {})])
    assert zero.is_zero() and zero.degree == 3
    with pytest.raises(ValueError, match="different numbers of variables"):
        forms.multiply([_random_linear(rng), HomForm(4, 1, {})])


def test_geproci_certificate_passes(geproci_cert_seed1):
    cert = geproci_cert_seed1
    assert cert.passed
    assert cert.dimension_table == (0, 0, 0, 0, 0, 1)
    assert cert.sextic.degree == 6
    assert cert.sextic_smooth.smooth
    assert len(cert.z1) == 30 and len(cert.z2) == 30


def _assert_quintic_fails(cfg, monkeypatch, k, replace):
    """With quintic k (1 or 2) replaced and the other left as it is, the
    certificate fails exactly its check of quintic k on its own half."""
    build = geproci.build_quintic_cone
    calls = []

    def perturbed(*args):
        quintic = build(*args)
        calls.append(quintic)
        return replace(quintic) if len(calls) == k else quintic

    monkeypatch.setattr(geproci, "build_quintic_cone", perturbed)
    with pytest.raises(config.VerificationError) as err:
        geproci.verify_geproci(cfg, 1)
    assert len(calls) == 2
    assert str(err.value).endswith(f"['quintic{k}_on_z{k}']")


def test_quintic_missing_its_half_fails_the_quintic_check(cfg, monkeypatch):
    # The first quintic plus x^5 misses the images of Z1.
    _assert_quintic_fails(
        cfg, monkeypatch, 1,
        lambda q: form(3, 5, {**coefficients(q),
                              (5, 0, 0): coefficients(q).get((5, 0, 0), ZERO) + ONE}))


def _recording_solve(monkeypatch, top=None):
    """Record the shape of each `vanishing_space` call of `verify_geproci`,
    as (points, degree, variables); with top, the call returns it instead
    of the space it solves for."""
    solve = geproci.vanishing_space
    shapes = []

    def recording(points, degree, nvars):
        points = list(points)
        shapes.append((len(points), degree, nvars))
        return solve(points, degree, nvars) if top is None else top

    monkeypatch.setattr(geproci, "vanishing_space", recording)
    return shapes


def test_the_ladder_stops_at_a_unique_sextic(cfg, geproci_cert_seed1,
                                             monkeypatch):
    """dim_6 = 1 < 3 forces dim_5 = 0, and dim_6 is one solve in z1's ideal:
    30 rows, the images of z2, of degree 1 in the 4 coefficients of
    l*q1 + a*P1."""
    shapes = _recording_solve(monkeypatch)
    cert = geproci.verify_geproci(cfg, 1)
    assert shapes == [(30, 1, 4)]
    assert cert.dimension_table == (0, 0, 0, 0, 0, 1)
    assert cert.to_json() == geproci_cert_seed1.to_json()


def test_three_sextics_fail_without_a_lower_degree(cfg, monkeypatch):
    """Any dim_6 but 1 fails the certificate, so no lower degree is
    solved for, not even when the three sextics of three kernel vectors
    could be x*Q, y*Q, z*Q."""
    top = [HomForm(4, 1, {u: (1, 0)}) for u in forms.monomials(1, 4)[:3]]
    shapes = _recording_solve(monkeypatch, top)
    with pytest.raises(config.VerificationError,
                       match="degree-6 space has dimension 3, not 1"):
        geproci.verify_geproci(cfg, 1)
    assert shapes == [(30, 1, 4)]


@pytest.mark.parametrize("k", [0, 2])
def test_a_solve_of_dimension_other_than_one_fails(cfg, monkeypatch, k):
    """A solve returning no vector or two fails with the dimension it read,
    before any smoothness certificate runs."""
    top = [HomForm(4, 1, {u: (1, 0)}) for u in forms.monomials(1, 4)[:k]]
    shapes = _recording_solve(monkeypatch, top)
    monkeypatch.setattr(geproci, "plane_curve_is_smooth",
                        lambda f, seed=0: pytest.fail("smoothness ran"))
    with pytest.raises(config.VerificationError,
                       match=f"degree-6 space has dimension {k}, not 1"):
        geproci.verify_geproci(cfg, 1)
    assert shapes == [(30, 1, 4)]


def test_the_sextic_is_the_interpolated_one_at_every_admissible_vertex(
        cfg, monkeypatch):
    """At each of the 192 vertices the sampler can draw, the sextic solved
    for in z1's ideal is the one interpolated through all 60 images.
    Smoothness is patched to pass: the sextic is read before it."""
    monkeypatch.setattr(geproci, "plane_curve_is_smooth",
                        lambda f, seed=0: SmoothnessReport(True, "patched"))
    vertices = sorted(_admissible_vertices(cfg), key=lambda v: v.pairs)
    for vertex in vertices:
        _sample_at(monkeypatch, vertex)
        cert = geproci.verify_geproci(cfg, 1)
        images = geproci._Images(vertex, cfg.points)
        assert forms.vanishing_space([images[i] for i in sorted(cfg.points)],
                                     6, 3) == [cert.sextic]
    assert len(vertices) == 192


def test_each_quintic_is_tested_on_its_own_half(cfg, monkeypatch):
    """60 zero tests of a quintic, one per image on its own half, and the
    vertex's two grid quadric tests: the decic is tested by its factors."""
    vanishes_at = HomForm.vanishes_at
    degrees = []

    def counting(self, point):
        degrees.append(self.degree)
        return vanishes_at(self, point)

    monkeypatch.setattr(HomForm, "vanishes_at", counting)
    assert geproci.verify_geproci(cfg, 1).passed
    assert len(degrees) == 62
    assert degrees.count(5) == 60 and degrees.count(2) == 2


# The FieldElement arithmetic that perfbench/tracing.py times (FIELD_OPS).
_FIELD_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                    "__rmul__", "inverse", "__truediv__", "__rtruediv__",
                    "__pow__", "__neg__")


def _line_form(pairs):
    """The ternary linear form with these coefficient pairs."""
    return HomForm(3, 1, dict(zip(forms.monomials(1, 3), pairs)))


def _push_by_dual_matrix(self, line):
    """The image of a line as L*v on pairs: each row of the line's dual
    Pluecker matrix dotted with the vertex's pairs, the pivot's dropped,
    canonical."""
    k = projective._pivot(self.vertex)
    plane = [_dot(row, self.vertex.pairs)
             for row in pluecker_matrix(dual_pairs(line.pairs))]
    pairs = projective._canonical_pairs(plane[:k] + plane[k + 1:])
    return _line_form(pairs)


def test_only_push_line_runs_field_element_arithmetic(cfg, monkeypatch):
    """With `push_line` replaced by L*v on pairs, and every FieldElement
    operator and every way to make a FieldElement (`__init__`, and
    `field._raw` under the operators) failing the test, the configuration,
    the 72 grids, all four verdicts at three seeds and the retries of the
    smoothness certificate up to "indeterminate" come out unchanged: the
    verdicts run on pairs, and FieldElements enter only as the parsed
    coordinate tokens, made at import."""
    line = linear([FieldElement(2), PHI, FieldElement(Fraction(-1, 3))])
    other = linear([ONE, FieldElement(-3), FieldElement(1, 1)])
    curve = forms.multiply((line, line, other))  # no attempt is clean: every retry runs

    def artifacts(c):
        out = [g.to_json() for g in enumerate_grids(c)]
        for seed in (1, 2, 12345):
            out += [geproci.verify_geproci(c, seed).to_json(),
                    geproci.verify_not_half_grid(c, seed).to_json()]
            out += [geproci.verify_half_grid(c, seed, h.name).to_json()
                    for h in HALVES]
        return out

    expected = artifacts(cfg)
    with pytest.raises(SmoothnessIndeterminate) as before:
        plane_curve_is_smooth(curve)

    def failing(name):
        def operator(*args):
            pytest.fail(f"FieldElement.{name} ran outside push_line")
        return operator

    for name in _FIELD_OPERATORS + ("__init__",):
        monkeypatch.setattr(FieldElement, name, failing(name))
    monkeypatch.setattr(field, "_raw", failing("_raw"))
    monkeypatch.setattr(geproci.Projection, "push_line", _push_by_dual_matrix)
    with pytest.raises(pytest.fail.Exception, match="__mul__"):
        ONE * PHI
    with pytest.raises(pytest.fail.Exception, match="__init__"):
        FieldElement(1, 2)
    with pytest.raises(pytest.fail.Exception, match="_raw"):
        field._make(1, 2, 3)
    patched_cfg = config.build_h4()
    assert patched_cfg.to_json() == cfg.to_json()
    assert artifacts(patched_cfg) == expected
    with pytest.raises(SmoothnessIndeterminate) as after:
        plane_curve_is_smooth(curve)
    assert str(after.value) == str(before.value)


class _MissesOneImage(HomForm):
    """A form whose zero test reads False at one image."""

    __slots__ = ()
    missed = None

    def vanishes_at(self, point):
        return point != self.missed and super().vanishes_at(point)


def test_a_quintic_missing_one_image_fails_the_quintic_check(
        cfg, geproci_cert_seed1, monkeypatch):
    """The second quintic, missing the image of the last point of z2 only,
    fails its check."""
    images = geproci.sample_generic_vertex(cfg, 1).images
    monkeypatch.setattr(_MissesOneImage, "missed",
                        images[geproci_cert_seed1.z2[-1]])
    _assert_quintic_fails(
        cfg, monkeypatch, 2, lambda q: _MissesOneImage(3, 5, q.terms, q.den))


def test_sextic_and_decic_share_no_component(geproci_cert_seed1):
    cert = geproci_cert_seed1
    decic = forms.multiply((cert.quintic1, cert.quintic2))
    assert decic.degree == 10
    assert reference_quotient(cert.sextic, decic) is None
    assert cert.sextic.degree * decic.degree == 60


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_shared_component_is_derived_from_smoothness(cfg, seed):
    """The smooth sextic that `verify_geproci` certifies does not divide
    q1*q2, as long division confirms."""
    cert = geproci.verify_geproci(cfg, seed)
    assert cert.checks["sextic_smooth"]
    decic = forms.multiply((cert.quintic1, cert.quintic2))
    assert reference_quotient(cert.sextic, decic) is None


def test_a_singular_sextic_fails_the_smoothness_check(cfg, monkeypatch):
    """Without smoothness nothing proves the sextic irreducible: a singular
    report fails the one check that carries both facts."""
    monkeypatch.setattr(geproci, "plane_curve_is_smooth",
                        lambda f, seed=0: SmoothnessReport(False, "patched"))
    with pytest.raises(config.VerificationError) as err:
        geproci.verify_geproci(cfg, 1)
    assert str(err.value).endswith("['sextic_smooth']")


def _on_secant(cfg, i, j):
    """The vertex P_i + 2*P_j, on the secant of points i and j, which then
    share an image."""
    return point(*(a + 2 * b for a, b in zip(coords(cfg.points[i]),
                                             coords(cfg.points[j]))))


def _sample_at(monkeypatch, vertex):
    monkeypatch.setattr(geproci, "sample_generic_vertex", lambda cfg, seed:
                        geproci.Projection(vertex, geproci._Images(vertex, cfg.points)))


def test_a_sextic_singular_at_a_shared_image_reads_indeterminate(cfg):
    """From a vertex on the secant of points 1 and 5, which also carries
    point 12, the three share an image, and the sextic through the 58
    distinct images is singular there: every partial vanishes.  An isolated
    singular point makes the chart eliminants share a root at every prime,
    so the certificate reads "indeterminate", never smooth."""
    images = geproci._Images(_on_secant(cfg, 1, 5), cfg.points)
    distinct = {images[i] for i in cfg.points}
    assert len(distinct) == 58
    [sextic] = forms.vanishing_space(distinct, 6, 3)
    assert images[1] == images[5] == images[12]
    assert all(reference_partial(sextic, k).vanishes_at(images[1]) for k in range(3))
    with pytest.raises(forms.SmoothnessIndeterminate, match="eliminants share a root"):
        plane_curve_is_smooth(sextic)


@pytest.mark.parametrize("i, j", [(1, 5), (1, 2)])
def test_a_vertex_on_a_secant_fails_the_bezout_count(cfg, monkeypatch, i, j):
    """Points i and j share no configuration line, so only the vertex
    P_i + 2*P_j sends them to one image, and 59 distinct images (58 for
    points 1 and 5, whose secant also carries point 12) read False against
    6*10.  The sextic through them is singular there, so smoothness is
    patched to pass, which leaves the count the only failing check."""
    assert not any({i, j} <= set(pts) for pts in cfg.line_points.values())
    _sample_at(monkeypatch, _on_secant(cfg, i, j))
    monkeypatch.setattr(geproci, "plane_curve_is_smooth",
                        lambda f, seed=0: SmoothnessReport(True, "patched"))
    with pytest.raises(config.VerificationError) as err:
        geproci.verify_geproci(cfg, 1)
    assert str(err.value).endswith("['bezout_count']")


def test_a_vertex_on_a_secant_fails_the_half_grid_bezout_count(cfg,
                                                               monkeypatch):
    """Points 1 and 5 of z1 share an image from a vertex on their secant:
    29 distinct images against 5*6, so the count reads False.  The vertex
    also lies in planes 20 and 22, whose ten z1 points each project onto
    the pushed cover line 25 or 1, so the quintic contains both lines, as
    long division confirms, and no other cover line."""
    vertex = _on_secant(cfg, 1, 5)
    assert [i for i, plane in cfg.planes.items() if plane.contains(vertex)
            and {1, 25} & set(cfg.plane_lines[i])] == [20, 22]
    assert _cover_lines_in_the_quintic(cfg, vertex, HALF1) == [1, 25]
    _sample_at(monkeypatch, vertex)
    with pytest.raises(config.VerificationError) as err:
        geproci.verify_half_grid(cfg, 1, "z1")
    assert str(err.value).endswith("['no_line_in_quintic', 'bezout_count']")


def _cover_lines_in_the_quintic(cfg, vertex, half):
    """The cover lines whose pushed form divides the half's quintic, from
    `vertex`, by long division."""
    proj = geproci.Projection(vertex, geproci._Images(vertex, cfg.points))
    quintic = geproci._half_quintic(cfg, proj, half)[0]
    return [j for j in sorted(half.l_lines + (half.external_line,))
            if reference_quotient(proj.push_line(cfg.lines[j]), quintic)
            is not None]


@pytest.mark.parametrize("half", HALVES, ids=lambda h: h.name)
def test_each_half_point_off_a_cover_line_shares_a_plane_with_it(cfg, half):
    """The fact that keeps the table of zeros free of extra entries at a
    sampled vertex: every point of the half off cover line j lies in a
    plane of `line_planes[j]`.  The five points of the configuration in
    none are those of the polar line, the one whose planes are indexed by
    j's points, and none of them is in the half."""
    points = set(z_partition(cfg)[HALVES.index(half)])
    for j in half.l_lines + (half.external_line,):
        planes = [cfg.planes[k] for k in cfg.line_planes[j]]
        in_none = {i for i, x in cfg.points.items()
                   if not any(plane.contains(x) for plane in planes)}
        [polar] = [m for m, ks in cfg.line_planes.items()
                   if set(ks) == set(cfg.line_points[j])]
        assert in_none == set(cfg.line_points[polar])
        assert not in_none & points


def test_a_vertex_in_one_plane_fails_only_the_line_check(cfg, monkeypatch):
    """The vertex P_1 + 2*P_7 + 3*P_15 lies in plane 18 and no other, and
    off both grid quadrics.  Plane 18 holds cover line 1 of z1 and z1
    points off it, whose images then fall on the pushed line 1: the
    quintic contains that line, as long division confirms, and no other
    cover line.  z1 fails `no_line_in_quintic` and no other check."""
    vertex = point(*(a + 2 * b + 3 * c for a, b, c in zip(
        *(coords(cfg.points[i]) for i in (1, 7, 15)))))
    assert [k for k, plane in cfg.planes.items() if plane.contains(vertex)] == [18]
    assert not any(g.quadric.vanishes_at(vertex.pairs) for g in cfg.grids)
    assert _cover_lines_in_the_quintic(cfg, vertex, HALF1) == [1]
    _sample_at(monkeypatch, vertex)
    with pytest.raises(config.VerificationError) as err:
        geproci.verify_half_grid(cfg, 1, "z1")
    assert str(err.value).endswith("['no_line_in_quintic']")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_cover_line_divides_the_quintic_at_sampled_vertices(cfg, seed):
    """At the sampled vertex of seeds 1-3, for both halves, long division
    finds no cover line in the quintic, as `no_line_in_quintic` says."""
    vertex = geproci.sample_generic_vertex(cfg, seed).vertex
    for half in HALVES:
        assert geproci.verify_half_grid(cfg, seed, half.name).checks[
            "no_line_in_quintic"]
        assert _cover_lines_in_the_quintic(cfg, vertex, half) == []


@pytest.mark.parametrize("l_lines, external, failed", [
    # An M-line meets four L-lines, and the six lines cover 26 points.
    ((8, 51, 60, 65, 70), 17, {"cover_pairwise_skew", "cover_is_exact"}),
    # z1's external line is skew to z2's lines, but its points are in z1.
    ((7, 51, 60, 65, 70), 24, {"cover_is_exact"}),
    # z1 with L-line 1 swapped for z2's L-line 7, skew to the rest: z1, read
    # from its M-lines, does not move with its cover.
    ((7, 25, 32, 37, 44), 24, {"cover_is_exact"}),
    # z1 with L-line 1 swapped for line 30: the cover (24, 25, 30, 32, 37,
    # 44) meets only in (25, 30) and (30, 32), each pair adjacent in sorted
    # order, so a skew check that skipped adjacent pairs would pass it.
    ((30, 25, 32, 37, 44), 24, {"cover_pairwise_skew", "cover_is_exact"}),
])
def test_a_swapped_cover_line_fails_the_cover_checks(cfg, monkeypatch, l_lines,
                                                     external, failed):
    """A half, the one sharing the most L-lines, with one cover line
    swapped: the cover checks read False before any vertex is drawn."""
    k = max((0, 1), key=lambda k: len(set(HALVES[k].l_lines) & set(l_lines)))
    halves = list(HALVES)
    halves[k] = HALVES[k]._replace(l_lines=l_lines, external_line=external)
    monkeypatch.setattr(config, "HALVES", tuple(halves))
    with pytest.raises(config.VerificationError, match="covering failure") as err:
        geproci.verify_half_grid(cfg, 1, HALVES[k].name)
    for name in ("cover_pairwise_skew", "cover_is_exact"):
        assert f"'{name}': {name not in failed}" in str(err.value)


def test_geproci_certificate_json_shape(geproci_cert_seed1):
    blob = geproci_cert_seed1.to_json()
    assert blob["passed"] is True
    assert blob["dimension_table"] == [0, 0, 0, 0, 0, 1]
    assert set(blob["checks"]) == {
        "sextic_smooth", "quintic1_on_z1", "quintic2_on_z2", "bezout_count"}


@pytest.mark.parametrize("subset", ["z1", "z2"])
def test_half_grid_certificates_pass(cfg, subset):
    cert = geproci.verify_half_grid(cfg, 1, subset)
    assert cert.passed
    assert len(cert.cover_lines) == 6
    assert cert.quintic.degree == 5 and cert.line_product.degree == 6
    assert cert.checks["bezout_count"]


def test_half_grid_tests_the_line_product_by_its_factors(cfg, monkeypatch):
    """The degree-6 line product is never evaluated, and no linear form goes
    through `_evaluation_row`: the cover lines are read off their table of
    zeros."""
    evaluation_row = forms._evaluation_row
    degrees = []

    def recording(point, degree, nvars, cols):
        degrees.append(degree)
        return evaluation_row(point, degree, nvars, cols)

    monkeypatch.setattr(forms, "_evaluation_row", recording)
    for half in HALVES:
        degrees.clear()
        assert geproci.verify_half_grid(cfg, 1, half.name).passed
        assert 6 not in degrees
        assert 1 not in degrees


def _push_z1_external_line_wrong(cfg, monkeypatch):
    """Push z1's external line 24 as the line through the images, from the
    vertex of seed 1, of its point 39 and of point 3 of z2: it misses the
    images of 24's other four points, and the secant {3, 39} holds no other
    z1 point, so the table of zeros holds nothing extra."""
    ext = HALF1.external_line
    assert 39 in cfg.line_points[ext] and 3 in z_partition(cfg)[1]
    assert ext not in HALF2.l_lines + HALF2.m_lines + (HALF2.external_line,)
    images = geproci.sample_generic_vertex(cfg, 1).images
    [wrong] = forms.vanishing_space([images[39], images[3]], 1, 3)
    assert [i for i in z_partition(cfg)[0] if wrong.vanishes_at(images[i])] == [39]
    push_line = geproci.Projection.push_line

    def patched(self, line):
        return wrong if line == cfg.lines[ext] else push_line(self, line)

    monkeypatch.setattr(geproci.Projection, "push_line", patched)


def test_a_cover_line_missing_one_image_fails_the_product_check(
        cfg, monkeypatch):
    """With z1's external line pushed wrong, the product check fails, and so
    does the line check, which asks for each line's own five points and
    nothing else."""
    _push_z1_external_line_wrong(cfg, monkeypatch)
    with pytest.raises(config.VerificationError) as err:
        geproci.verify_half_grid(cfg, 1, "z1")
    assert str(err.value).endswith("['product_on_subset', 'no_line_in_quintic']")


def test_a_cover_line_missing_one_image_fails_the_geproci_premise(
        cfg, monkeypatch):
    """With z1's external line pushed wrong, the line product P1 misses four
    images of z1, so (q1, P1) is not z1's ideal and the solve on z2 could
    not read dim_6.  `verify_geproci` names the failed z1 checks before it
    solves; its own three sextic-free checks pass, as the line enters
    neither quintic."""
    _push_z1_external_line_wrong(cfg, monkeypatch)
    shapes = _recording_solve(monkeypatch)
    with pytest.raises(config.VerificationError) as err:
        geproci.verify_geproci(cfg, 1)
    assert str(err.value) == ("geproci z1 half-grid certificate failed:"
                              " ['product_on_subset', 'no_line_in_quintic']")
    assert shapes == []


def test_a_vertex_in_one_plane_fails_the_geproci_line_premise(cfg, monkeypatch):
    """From the vertex in plane 18 alone, pushed cover line 1 divides q1, so
    P1 lies in the span of x*q1, y*q1, z*q1 and the solve could not read
    dim_6.  `verify_geproci` refuses on z1's `no_line_in_quintic` alone,
    before it solves."""
    vertex = point(*(a + 2 * b + 3 * c for a, b, c in zip(
        *(coords(cfg.points[i]) for i in (1, 7, 15)))))
    assert _cover_lines_in_the_quintic(cfg, vertex, HALF1) == [1]
    _sample_at(monkeypatch, vertex)
    shapes = _recording_solve(monkeypatch)
    with pytest.raises(config.VerificationError) as err:
        geproci.verify_geproci(cfg, 1)
    assert str(err.value) == ("geproci z1 half-grid certificate failed:"
                              " ['no_line_in_quintic']")
    assert shapes == []


def test_half_grid_makes_no_nullspace_call(cfg, monkeypatch):
    """The cover lines' table of zeros is read by evaluation, with no
    division: neither half-grid verdict reaches an exact elimination."""
    kernel = linalg.nullspace
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return kernel(rows)

    monkeypatch.setattr(linalg, "nullspace", counting)
    for half in HALVES:
        assert geproci.verify_half_grid(cfg, 1, half.name).passed
    assert calls == []


def test_a_quintic_made_of_cover_lines_fails_the_line_check(cfg, monkeypatch):
    """With the quintic patched to the product of its half's pushed L-lines,
    every L-line divides it; it also misses the external line's images."""
    monkeypatch.setattr(geproci, "build_quintic_cone", lambda g, h, point: g)
    with pytest.raises(config.VerificationError) as err:
        geproci.verify_half_grid(cfg, 1, "z1")
    assert str(err.value).endswith("['quintic_on_subset', 'no_line_in_quintic']")


def test_half_grid_rejects_unknown_subset(cfg):
    with pytest.raises(ValueError):
        geproci.verify_half_grid(cfg, 1, "z3")


def test_halves_are_the_printed_split(cfg):
    """`config.HALVES` holds the paper's two halves, and each half-grid
    certificate derives its cover from its L-lines and external line."""
    assert HALVES == (
        config.Half("z1", (1, 25, 32, 37, 44), (2, 26, 31, 38, 43), 24),
        config.Half("z2", (7, 51, 60, 65, 70), (8, 54, 58, 63, 71), 17))
    covers = [geproci.verify_half_grid(cfg, 1, h.name).cover_lines
              for h in HALVES]
    assert covers == [(1, 24, 25, 32, 37, 44), (7, 17, 51, 60, 65, 70)]


def test_record_json_keys_are_the_field_names(cfg, geproci_cert_seed1):
    """Every field of a certificate record is its JSON key, plus
    ``passed`` on the records that carry a verdict."""
    records = [geproci_cert_seed1, geproci_cert_seed1.grid1,
               geproci.verify_half_grid(cfg, 1, "z1"),
               geproci.verify_not_half_grid(cfg, 1)]
    for record in records:
        verdict = {"passed"} if hasattr(record, "passed") else set()
        assert set(record.to_json()) == set(record._fields) | verdict
    assert [hasattr(r, "passed") for r in records] == [True, False, True, False]


def test_full_set_is_not_a_half_grid(cfg):
    report = geproci.verify_not_half_grid(cfg, 1)
    assert report.refuted
    assert report.max_collinear == 5
    assert report.low_degree_dims == (0, 0, 0, 0, 0)
    assert set(report.forced_degrees) == {(6, 10), (10, 6)}


@pytest.mark.parametrize("seed", [1, 2])
def test_only_the_geproci_certificate_builds_grid_certificates(cfg, seed,
                                                               monkeypatch):
    """`build_h4` certifies the two grids of HALVES, each once.  No verdict
    certifies a grid; only the geproci certificate records them, and it
    records the configuration's own certificates."""
    calls = []
    verify_grid = config.verify_grid

    def counting(*args):
        calls.append(args[1:])
        return verify_grid(*args)

    monkeypatch.setattr(config, "verify_grid", counting)
    built = config.build_h4()
    assert calls == [(h.l_lines, h.m_lines) for h in HALVES]
    assert built.grids == cfg.grids
    calls.clear()
    assert not hasattr(geproci, "verify_grid")
    for half in HALVES:
        assert geproci.verify_half_grid(built, seed, half.name).passed
    assert geproci.verify_not_half_grid(built, seed).refuted
    cert = geproci.verify_geproci(built, seed)
    assert calls == []
    assert cert.grid1 is built.grids[0] and cert.grid2 is built.grids[1]


def test_refutation_runs_no_exact_kernel(cfg, monkeypatch):
    expected = geproci.verify_not_half_grid(cfg, 1)

    def exact(*args):
        pytest.fail("the refutation ran an exact kernel computation")

    monkeypatch.setattr(linalg, "nullspace", exact)
    monkeypatch.setattr(linalg, "first_missed_row", exact)
    assert geproci.verify_not_half_grid(cfg, 1) == expected


def test_the_refutation_ladder_builds_rows_up_to_the_last_pivot(cfg,
                                                                monkeypatch):
    """At degree 6 the collinearity bound excludes both forced types, (6, 10)
    and (10, 6), so one rank test runs, at degree 5, and stops at its last
    pivot: 21 residue rows of 60, all at degree 5.  Testing every degree
    1..5 took 59 rows (3, 6, 13, 16 and 21), and building every row 360."""
    expected = geproci.verify_not_half_grid(cfg, 1)
    residue_row, rank = forms._residue_row, geproci.independent_evaluation_rows
    degrees, tests = [], []

    def recording(point, degree, nvars, cols):
        degrees.append(degree)
        return residue_row(point, degree, nvars, cols)

    def counting(points, degree, nvars):
        tests.append(degree)
        return rank(points, degree, nvars)

    monkeypatch.setattr(forms, "_residue_row", recording)
    monkeypatch.setattr(geproci, "independent_evaluation_rows", counting)
    assert geproci.verify_not_half_grid(cfg, 1) == expected
    assert tests == [5]
    assert degrees == [5] * 21


def _old_ladder_refuted(cfg, seed, indices, stop_at_excluded=False):
    """A ladder that runs the rank test mod P (`geproci`'s, patched or not)
    at d = 1, 2, ... in turn until it is short, or, with stop_at_excluded,
    until the collinearity bound excludes every type forced from d.  It
    returns d, the types forced from d, and whether all are excluded."""
    images = [geproci.sample_generic_vertex(cfg, seed).images[i] for i in indices]
    n, mc, d = len(indices), cfg.max_collinear(indices), 1
    while True:
        forced = tuple((a, n // a) for a in range(d, n + 1) if n % a == 0 and n // a >= d)
        excluded = all(min(a, b) > mc for a, b in forced)
        if stop_at_excluded and excluded or len(geproci.independent_evaluation_rows(
                images, d, 3)) < (d + 1) * (d + 2) // 2:
            return d, forced, excluded
        d += 1


def _refutation_subsets(cfg):
    z1, _ = z_partition(cfg)
    grid1 = config.verify_grid(cfg, L1, M1).grid_points
    externals = cfg.line_points[HALF1.external_line] + cfg.line_points[HALF2.external_line]
    return {"Z": tuple(sorted(cfg.points)), "Z1": z1,
            "H4 minus line 1": tuple(sorted(set(cfg.points) - set(cfg.line_points[1]))),
            "grid 1 and both external lines": tuple(sorted(set(grid1 + externals))),
            "points 1-13": tuple(range(1, 14))}


def test_stopping_at_an_excluded_degree_keeps_the_old_verdict(cfg):
    """On H4, Z1, H4 minus a line, grid 1 with its two external lines and
    13 points, the ladder that climbs until the rank drops gives the same
    `refuted`.  The first four stop at the same degree; the 13 points, with
    no divisor pair of 13 both at least 2, stop at d* = 2, where the old
    ladder climbed to 4: no cubic passes through their images either."""
    stops = []
    for name, indices in _refutation_subsets(cfg).items():
        report = geproci.verify_not_half_grid(cfg, 1, indices, name)
        old_d, _, old_refuted = _old_ladder_refuted(cfg, 1, indices)
        assert report.refuted == old_refuted, name
        stops.append((len(indices), len(report.low_degree_dims) + 1, old_d,
                      report.refuted))
    assert stops == [(60, 6, 6, True), (30, 5, 5, False), (55, 6, 6, True),
                     (35, 6, 6, True), (13, 2, 4, True)]


@pytest.mark.parametrize("short_from", [None, 2, 5])
def test_one_rank_test_gives_the_ladders_report(cfg, monkeypatch, short_from):
    """The report is the one the ladder that tests each degree in turn and
    stops at an excluded degree gives, also where the one rank test, at
    e - 1, is short and a bisection finds d*: on Z1 and points 1-12, and
    with the rank mod P short from degree 2 on, or from degree 5 on, as an
    unlucky prime makes it (short at d stays short at every higher degree:
    x*Q is a form of degree d + 1 through the residues)."""
    if short_from is not None:
        rank = forms.independent_evaluation_rows

        def unlucky(points, degree, nvars):
            kept = rank(points, degree, nvars)
            return kept[:-1] if degree >= short_from else kept

        monkeypatch.setattr(geproci, "independent_evaluation_rows", unlucky)
    subsets = {**_refutation_subsets(cfg), "Z2": z_partition(cfg)[1],
               "points 1-12": tuple(range(1, 13))}
    stops = {}
    for name, indices in subsets.items():
        report = geproci.verify_not_half_grid(cfg, 1, indices, name)
        d, forced, refuted = _old_ladder_refuted(cfg, 1, indices,
                                                 stop_at_excluded=True)
        assert report.low_degree_dims == (0,) * (d - 1), name
        assert report.forced_degrees == forced, name
        assert report.refuted == refuted, name
        stops[name] = (d, refuted)
    expected = {"Z": (6, True), "Z1": (5, False), "H4 minus line 1": (6, True),
                "grid 1 and both external lines": (6, True),
                "points 1-13": (2, True), "Z2": (5, False),
                "points 1-12": (3, False)}
    if short_from is not None:  # every d* past short_from drops to it
        expected = {name: (d, r) if d <= short_from else (short_from, False)
                    for name, (d, r) in expected.items()}
    assert stops == expected


def test_a_rank_short_mod_p_never_refutes(cfg, monkeypatch):
    """An unlucky prime stops the ladder early: the forced types only grow,
    so the verdict can only turn into "not refuted"."""
    rank = forms.independent_evaluation_rows

    def one_short_at_5(points, degree, nvars):
        kept = rank(points, degree, nvars)
        return kept[:-1] if degree == 5 else kept

    monkeypatch.setattr(geproci, "independent_evaluation_rows", one_short_at_5)
    report = geproci.verify_not_half_grid(cfg, 1)
    assert report.low_degree_dims == (0, 0, 0, 0)
    assert {(5, 12), (12, 5)} <= set(report.forced_degrees)
    assert not report.refuted


def test_interpolation_eliminates_once_per_root(cfg, projection, monkeypatch):
    """The sextic: every row at the first root, the 27 it keeps at the
    second.  The quintics: full rank at the first root, one elimination."""
    calls = _counting_kernel_mod(monkeypatch)
    images = [projection.images[i] for i in sorted(cfg.points)]
    assert len(forms.vanishing_space(images, 6, 3)) == 1
    assert calls == [60, 27]
    calls.clear()
    assert forms.vanishing_space(images, 5, 3) == []
    assert calls == [60]


def test_refutation_correctly_fails_on_the_half_grid_z1(cfg):
    z1, _ = z_partition(cfg)
    report = geproci.verify_not_half_grid(cfg, 1, subset=z1, subset_name="Z1")
    assert not report.refuted  # Z1 really is a half-grid


@pytest.mark.parametrize("repeats", [6, 1])
def test_refutation_rejects_repeated_indices(cfg, monkeypatch, repeats):
    """Z1 plus some of its points again is no new set: counted with the
    repeats, it read "refuted" over 36 points on a certified half-grid."""
    z1, _ = z_partition(cfg)
    _forbid_refutation_work(monkeypatch)
    with pytest.raises(ValueError, match="repeated or unknown point indices"):
        geproci.verify_not_half_grid(cfg, 1, subset=z1 + z1[:repeats])


@pytest.mark.parametrize("bad", [0, 61, -1])
def test_refutation_rejects_unknown_indices(cfg, monkeypatch, bad):
    z1, _ = z_partition(cfg)
    _forbid_refutation_work(monkeypatch)
    with pytest.raises(ValueError, match="repeated or unknown point indices"):
        geproci.verify_not_half_grid(cfg, 1, subset=z1[1:] + (bad,))


def test_refutation_rejects_an_empty_subset(cfg, monkeypatch):
    """The empty set has no type to exclude: it read "refuted" vacuously."""
    _forbid_refutation_work(monkeypatch)
    with pytest.raises(ValueError, match="empty, repeated or unknown"):
        geproci.verify_not_half_grid(cfg, 1, subset=[])


def test_refutation_rejects_a_subset_without_a_name(cfg, monkeypatch):
    """"Z" names the full set: z1 without a name read "Z: not refuted"."""
    z1, _ = z_partition(cfg)
    _forbid_refutation_work(monkeypatch)
    for name in (None, ""):
        with pytest.raises(ValueError, match="a subset needs a name"):
            geproci.verify_not_half_grid(cfg, 1, z1, name)


def _forbid_refutation_work(monkeypatch):
    def work(*args):
        pytest.fail("the refutation started work on an invalid subset")

    monkeypatch.setattr(geproci, "sample_generic_vertex", work)
    monkeypatch.setattr(config.H4Configuration, "max_collinear", work)


def test_push_plane_through_vertex_is_linear(cfg, projection):
    form = projection.push_line(cfg.lines[1])
    assert form.degree == 1 and form.nvars == 3
    for i in cfg.line_points[1]:
        assert form.vanishes_at(projection.images[i])


def _reference_push(vertex, line):
    """The image of a line through the plane of the line and the vertex
    (`test_projective.plane_through`), pushed down (`plane_image`)."""
    plane = plane_through(line.p, line.q, vertex)
    return _line_form(plane_image(vertex, plane))


@pytest.mark.parametrize("seed", [1, 2, 3, 12345])
def test_push_line_matches_the_plane_span_reference(cfg, seed):
    """Three minors, canonicalized once, give the form of all four minors
    canonicalized as a plane and again as its image, on all 72 lines."""
    proj = geproci.sample_generic_vertex(cfg, seed)
    for line in cfg.lines.values():
        assert proj.push_line(line) == _reference_push(proj.vertex, line)


def test_a_vertex_on_the_line_raises(cfg):
    """A vertex on line 1, a configuration point or not, spans no plane
    with it: all three kept minors vanish."""
    line = cfg.lines[1]
    between = point(*[a + b for a, b in zip(coords(line.p), coords(line.q))])
    for v in [cfg.points[i] for i in cfg.line_points[1]] + [between]:
        assert on_line(line, v)
        with pytest.raises(DegenerateSpanError):
            geproci.Projection(v, {}).push_line(line)
        with pytest.raises(DegenerateSpanError):
            _reference_push(v, line)


def _reference_projection(vertex):
    """The coordinate change that the projection by minors replaced.

    M is the Gauss-Jordan inverse of the matrix with columns e_i (i != k)
    and then the vertex, k its first nonzero coordinate; M sends the vertex
    to [0:0:0:1].  A point's image is M x with the last coordinate dropped,
    canonicalized; a plane through the vertex moves by the inverse transpose
    of M, and its first three coordinates are the pushed linear form.
    """
    k = next(i for i, x in enumerate(coords(vertex)) if not x.is_zero())
    cols = [[ONE if r == i else ZERO for r in range(4)]
            for i in range(4) if i != k]
    cols.append(list(coords(vertex)))
    m = CoordinateChange(reference_inverse([list(row) for row in zip(*cols)]))

    def image(x):
        return canonicalize(coords(m.apply_point(x))[:3])

    def push(plane):
        moved = coords(m.apply_plane(plane))
        assert moved[3].is_zero()
        return linear(moved[:3])

    return image, push


# One vertex for each pivot k, the first nonzero coordinate.  The only
# vertex with k = 3 is [0:0:0:1], which is configuration point 4.
PIVOT_VERTICES = {
    0: point(3, -7, 11, FieldElement(2) + PHI),
    1: ProjPoint.of(0, 5, -2, 9),
    2: ProjPoint.of(0, 0, 4, -1),
    3: ProjPoint.of(0, 0, 0, 1),
}


@pytest.mark.parametrize("k", sorted(PIVOT_VERTICES))
def test_projection_by_minors_matches_the_coordinate_change(cfg, k):
    """Images and pushed planes equal those of the coordinate change, and a
    pushed plane vanishes at an image exactly when the plane contains the
    point, at every pivot of the vertex."""
    v = PIVOT_VERTICES[k]
    assert (v in cfg.points.values()) == (k == 3)
    proj = geproci.Projection(v, {})
    image, push = _reference_projection(v)
    points = [x for x in cfg.points.values() if x != v]
    lines = [line for line in cfg.lines.values() if not on_line(line, v)]
    assert len(points) == (59 if k == 3 else 60)
    assert len(lines) == (66 if k == 3 else 72)
    images = [image_from(v, x) for x in points]
    assert images == [image(x) for x in points]
    incident = 0
    for line in cfg.lines.values():
        if line not in lines:
            with pytest.raises(DegenerateSpanError):
                proj.push_line(line)
    for line in lines:
        form = proj.push_line(line)
        plane = plane_through(line.p, line.q, v)
        assert form == push(plane) == _reference_push(v, line)
        for x, y in zip(points, images):
            on = plane.contains(x)
            assert form.vanishes_at(y) == on
            incident += on
    assert incident >= 5 * len(lines)


def _pluecker_row_image(vertex, x):
    """The image as `image_from` once computed it: row k of the Pluecker
    matrix of the canonical pairs of the line vx, canonicalized again."""
    k = next(i for i, w in enumerate(vertex.pairs) if w != (0, 0))
    row = pluecker_matrix(projective.pluecker_pairs(vertex.pairs, x.pairs))[k]
    return projective._canonical_pairs(row[:k] + row[k + 1:])


@pytest.mark.parametrize("k", sorted(PIVOT_VERTICES))
def test_image_from_matches_the_pluecker_row_formula(cfg, k):
    vertices = [PIVOT_VERTICES[k]] + [v for v in cfg.points.values()
                                      if projective._pivot(v) == k]
    assert len(vertices) > 1
    for v in vertices:
        for x in cfg.points.values():
            if x != v:
                assert image_from(v, x) == _pluecker_row_image(v, x)


RECORD_TYPES = (config.H4Configuration, config.Half, CoverCertificate,
                forms.SmoothnessReport, geproci.Projection,
                config.GridCertificate, geproci.GeprociCertificate,
                geproci.HalfGridCertificate, geproci.RefutationReport)


def test_importing_the_package_makes_no_forward_refs_and_loads_no_dataclasses():
    """Set-up guard.  Without site, the fresh interpreter loads only what the
    package imports.  Annotations are builtin generics and artifacts are
    written with ``open``, so neither ``typing`` nor ``pathlib`` is loaded;
    without ``typing`` no ``ForwardRef`` can be built.  The records are
    namedtuples, not dataclasses, so ``dataclasses`` and ``inspect`` stay
    out too."""
    src = Path(h4geproci.__file__).resolve().parent.parent
    code = ("import sys\n"
            "import h4geproci, h4geproci.cli\n"
            "heavy = {'typing', 'pathlib', 'dataclasses', 'inspect'}\n"
            "print(sorted(heavy & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _annotated_targets():
    """Every module-level function and class of the package, with each
    class's own methods, classmethods and property getters."""
    for info in pkgutil.iter_modules(h4geproci.__path__):
        module = importlib.import_module(f"h4geproci.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__",
                                     getattr(member, "fget", member))
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_every_annotation_resolves():
    """Annotations are strings under ``from __future__ import annotations``,
    so a name left over from another idiom (a bare ``Dict``) breaks no
    call; evaluating each one finds it."""
    targets = dict(_annotated_targets())
    assert {"h4geproci.config._inverse", "h4geproci.field.FieldElement.a",
            "h4geproci.forms.HomForm.monic_from_pairs",
            "h4geproci.cli.main"} <= targets.keys()
    unresolved = {}
    for name, target in targets.items():
        try:
            typing.get_type_hints(target)
        except Exception as exc:
            unresolved[name] = repr(exc)
    assert unresolved == {}


def test_records_are_immutable(cfg, geproci_cert_seed1):
    records = [cfg, HALVES[0], enumerate_coverings(cfg)[0],
               geproci_cert_seed1.sextic_smooth,
               geproci.sample_generic_vertex(cfg, 1),
               geproci_cert_seed1.grid1, geproci_cert_seed1,
               geproci.verify_half_grid(cfg, 1, "z1"),
               geproci.verify_not_half_grid(cfg, 1)]
    assert [type(r) for r in records] == list(RECORD_TYPES)
    for record in records:
        assert not hasattr(record, "__dict__")
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
