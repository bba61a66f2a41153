"""Projection certificates: grids, quadrics, pencils, and both pipelines."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import pytest

import h4geproci
from h4geproci import config, forms, geproci, linalg, projective
from h4geproci.config import HALVES, z_partition
from h4geproci.coverings import (CoverCertificate, enumerate_coverings,
                                 enumerate_grids)
from h4geproci.field import (FieldElement, ONE, PHI, ZERO, _dot, _neg,
                             from_numerators, primitive_numerators)
from h4geproci.forms import HomForm, divides, plane_curve_is_smooth
from h4geproci.projective import (ProjLine, ProjPlane, ProjPoint, canonicalize,
                                  image_from, plane_through)
from test_forms import _add, _evaluate, _reference_monic, _scale
from test_linalg import reference_inverse
from test_projective import CoordinateChange, on_line

# The paper's two halves: grid 1 with line 24, grid 2 with line 17.
HALF1, HALF2 = HALVES
L1, M1 = HALF1.l_lines, HALF1.m_lines


@pytest.fixture(scope="module")
def projection(cfg):
    return geproci.sample_generic_vertex(cfg, 1)


@pytest.fixture(scope="module")
def grid1(cfg):
    return geproci.verify_grid(cfg, L1, M1)


def test_vertex_sampling_is_deterministic_and_certified(cfg, projection):
    again = geproci.sample_generic_vertex(cfg, 1)
    assert again.vertex == projection.vertex
    for seed in (1, 2, 3):
        proj = projection if seed == 1 else geproci.sample_generic_vertex(cfg, seed)
        v = proj.vertex
        assert not any(plane.contains(v) for plane in cfg.planes.values())
        assert not any(on_line(line, v) for line in cfg.lines.values())
        assert not any(q.vanishes_at(v.pairs) for q in cfg.grid_quadrics)
        assert len(set(proj.images.values())) == 60


def test_different_seeds_give_different_vertices(cfg, projection):
    other = geproci.sample_generic_vertex(cfg, 2)
    assert other.vertex != projection.vertex


def test_grid1_quadric_matches_printed_equation(cfg, grid1):
    # 2xy - y^2 + (phi - 1)z^2 - phi*w^2, scaled so the xy coefficient is 1.
    expected = HomForm(4, 2, {
        (1, 1, 0, 0): FieldElement(2),
        (0, 2, 0, 0): -ONE,
        (0, 0, 2, 0): PHI - ONE,
        (0, 0, 0, 2): -PHI,
    })
    assert grid1.quadric == expected.monic()
    assert len(grid1.grid_points) == 25


def test_grid2_quadric_matches_printed_equation(cfg):
    grid2 = geproci.verify_grid(cfg, HALF2.l_lines, HALF2.m_lines)
    expected = HomForm(4, 2, {
        (2, 0, 0, 0): ONE,
        (1, 1, 0, 0): FieldElement(2),
        (0, 0, 2, 0): PHI,
        (0, 0, 0, 2): ONE - PHI,
    })
    assert grid2.quadric == expected.monic()


def test_configuration_quadrics_agree_with_grid_certificates(cfg, grid1):
    q1, q2 = cfg.grid_quadrics
    assert q1 == grid1.quadric
    assert q2 == geproci.verify_grid(cfg, HALF2.l_lines, HALF2.m_lines).quadric


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
        grid = geproci.verify_grid(cfg, l_lines, m_lines)
        assert [grid.quadric] == interpolated[l_lines]
        assert grid.quadric == grid1.quadric
        assert grid.grid_points == grid1.grid_points
    assert len(enumerate_grids(cfg)) == 72
    assert ranked == []


def _assert_indeterminate(cfg, match):
    """verify_grid raises a VerificationError that is not NotAGridError, and
    enumerate_grids passes it on instead of dropping the grid."""
    with pytest.raises(geproci.VerificationError, match=match) as info:
        geproci.verify_grid(cfg, L1, M1)
    assert not isinstance(info.value, geproci.NotAGridError)
    with pytest.raises(geproci.VerificationError, match=match) as info:
        enumerate_grids(cfg)
    assert not isinstance(info.value, geproci.NotAGridError)


def _grid_quadric(cfg, l_lines, m_lines):
    return config.grid_quadric(cfg.points, cfg.lines, cfg.line_points,
                               cfg.meets, l_lines, m_lines)


def test_a_triple_with_a_meeting_pair_is_a_caller_fault(cfg):
    """grid_quadric checks that l_1, l_2, l_3 are pairwise skew itself."""
    assert M1[0] in cfg.meets[L1[0]]
    with pytest.raises(ValueError, match="not pairwise skew"):
        _grid_quadric(cfg, L1[:2] + M1[:1], M1[1:])
    assert _grid_quadric(cfg, L1, M1) == cfg.grid_quadrics[0]


@pytest.mark.parametrize("m_lines", [
    (8,) + M1[1:],  # lines 1 and 8 share no point
    (L1[0], 12, 13),  # m_1 = l_1: 9 distinct points, 5 of them on l_1
])
def test_a_subgrid_with_a_missing_intersection_is_a_caller_fault(cfg, m_lines):
    """Each l_i . m_j must be one configuration point, the 9 distinct."""
    cells = [set(cfg.line_points[li]) & set(cfg.line_points[mj])
             for li in L1[:3] for mj in m_lines]
    assert not all(len(cell) == 1 for cell in cells)
    with pytest.raises(ValueError, match="not 9 distinct points"):
        _grid_quadric(cfg, L1, m_lines)


def test_a_quadric_missing_a_subgrid_point_is_indeterminate(cfg, monkeypatch):
    transversal = config.transversal_quadric

    def plus_w_squared(*lines):
        pairs = list(transversal(*lines))
        pairs[-1] = (pairs[-1][0] + 1, pairs[-1][1])
        return tuple(pairs)

    monkeypatch.setattr(config, "transversal_quadric", plus_w_squared)
    _assert_indeterminate(cfg, "misses the subgrid")


def test_a_zero_quadric_is_indeterminate(cfg, monkeypatch):
    monkeypatch.setattr(config, "transversal_quadric",
                        lambda *lines: ((0, 0),) * 10)
    _assert_indeterminate(cfg, "is zero")


def test_non_grid_inputs_are_rejected(cfg):
    with pytest.raises(geproci.NotAGridError):
        geproci.verify_grid(cfg, L1, L1)  # families share lines
    with pytest.raises(geproci.NotAGridError):
        geproci.verify_grid(cfg, (1, 2, 3, 4, 5), M1)  # not skew
    with pytest.raises(geproci.NotAGridError):
        geproci.verify_grid(cfg, L1[:4] + (L1[0],), M1)
    # Skew families from different grids: lines 1 and 8 share no point.
    with pytest.raises(geproci.NotAGridError,
                       match="lines 1 and 8 do not meet in a configuration"):
        geproci.verify_grid(cfg, L1, HALF2.m_lines)


@pytest.mark.parametrize("l_lines, m_lines", [
    (L1 + L1[:1], M1),  # six entries, five distinct
    (L1, M1 + M1[-1:]),
    (L1 + (7,), M1),  # six distinct lines
    (L1, M1[:4]),
])
def test_a_family_needs_exactly_five_entries(cfg, l_lines, m_lines):
    with pytest.raises(geproci.NotAGridError,
                       match="each family needs 5 distinct lines"):
        geproci.verify_grid(cfg, l_lines, m_lines)


@pytest.mark.parametrize("bad", [0, 99, -1])
def test_verify_grid_rejects_unknown_lines(cfg, monkeypatch, bad):
    def work(*args):
        pytest.fail("verify_grid started work on an unknown line")

    monkeypatch.setattr(config, "grid_quadric", work)
    for l_lines, m_lines in ((L1[:4] + (bad,), M1),
                             (L1, (bad,) + M1[1:])):
        with pytest.raises(ValueError, match=rf"unknown line indices \[{bad}\]"):
            geproci.verify_grid(cfg, l_lines, m_lines)


def _product_of_plane_images(cfg, projection, lines) -> HomForm:
    """The product of the images of the planes spanned by the vertex and each line."""
    forms = [projection.push_line(cfg.lines[i]) for i in lines]
    product = forms[0]
    for f in forms[1:]:
        product = product * f
    return product


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
    with pytest.raises(geproci.PencilDegenerateError):
        geproci.build_quintic_cone(g, h, projection.images[grid1.grid_points[0]])


def _random_linear(rng):
    """A nonzero ternary linear form with Z[phi] or rational coefficients."""
    while True:
        coeffs = [FieldElement(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))),
                               rng.randint(-3, 3)) for _ in range(3)]
        if any(coeffs):
            return HomForm.linear(coeffs)


def test_quintic_cone_matches_the_field_reference():
    """On products of random linear forms, the member made on coprime
    pairs is the old (h(x)*g - g(x)*h).monic(), computed in
    FieldElement arithmetic; at a common zero of g and h it still raises."""
    rng = random.Random(29)
    for trial in range(12):
        g, h = (reduce(mul, (_random_linear(rng) for _ in range(5)))
                for _ in range(2))
        point = primitive_numerators([FieldElement(rng.randint(-9, 9), rng.randint(-9, 9))
                                      for _ in range(3)])
        gx, hx = _evaluate(g, point), _evaluate(h, point)
        if gx.is_zero() and hx.is_zero():
            continue
        expected = _reference_monic(_add(_scale(g, hx), _scale(h, -gx)))
        assert geproci.build_quintic_cone(g, h, point) == expected
        assert geproci.build_quintic_cone(g, h, point).vanishes_at(point)
    line = _random_linear(rng)
    g, h = (line * reduce(mul, (_random_linear(rng) for _ in range(4)))
            for _ in range(2))
    by_var = dict(zip(line.coeffs, line.pairs()))
    a, b, c = (by_var.get(e, (0, 0)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # A zero of the common factor line: its pairs cross a coordinate vector.
    zero = next(p for p in ([(0, 0), c, _neg(b)], [_neg(c), (0, 0), a],
                            [b, _neg(a), (0, 0)]) if p != [(0, 0)] * 3)
    assert line.vanishes_at(zero)
    with pytest.raises(geproci.PencilDegenerateError, match="both"):
        geproci.build_quintic_cone(g, h, zero)


def test_proportional_generators_raise_on_the_zero_member(cfg, projection,
                                                          grid1):
    """With h = phi*g every member h(x)*g - g(x)*h is the zero form; the
    cone names it rather than return it to fail a later check."""
    g = _product_of_plane_images(cfg, projection, grid1.l_lines)
    h = _scale(g, PHI)
    with pytest.raises(geproci.PencilDegenerateError, match="is zero"):
        geproci.build_quintic_cone(g, h, projection.images[4])
    with pytest.raises(geproci.PencilDegenerateError, match="is zero"):
        geproci.build_quintic_cone(g, g, projection.images[4])


def test_half_grid_builds_each_product_once(cfg, monkeypatch):
    """Per half, g and h are 4 products each from their first factors, and
    the line product is g times the external line: 9 `HomForm.__mul__`
    calls, where starting from the constant 1 and multiplying the cover
    again took 15."""
    multiply = HomForm.__mul__
    calls = []

    def counting(f, other):
        calls.append((f.degree, other.degree))
        return multiply(f, other)

    monkeypatch.setattr(HomForm, "__mul__", counting)
    for half in HALVES:
        calls.clear()
        assert geproci.verify_half_grid(cfg, 1, half.name).passed
        assert sorted(calls) == sorted([(k, 1) for k in range(1, 5)] * 2 + [(5, 1)])


def test_geproci_certificate_passes(geproci_cert_seed1):
    cert = geproci_cert_seed1
    assert cert.passed
    assert cert.dimension_table == (0, 0, 0, 0, 0, 1)
    assert cert.sextic.degree == 6
    assert cert.sextic_smooth.smooth
    assert not cert.sextic_divides_decic
    assert len(cert.z1) == 30 and len(cert.z2) == 30


def _assert_first_quintic_fails(cfg, monkeypatch, replace):
    """With the first quintic replaced and the second left as it is, the
    certificate fails exactly its quintic1_on_z1 and decic_on_all checks."""
    build = geproci.build_quintic_cone
    calls = []

    def perturbed(*args):
        quintic = build(*args)
        calls.append(quintic)
        return replace(quintic) if len(calls) == 1 else quintic

    monkeypatch.setattr(geproci, "build_quintic_cone", perturbed)
    with pytest.raises(geproci.VerificationError) as err:
        geproci.verify_geproci(cfg, 1)
    assert len(calls) == 2
    assert str(err.value).endswith("['quintic1_on_z1', 'decic_on_all']")


def test_quintic_missing_its_half_fails_the_quintic_and_decic_checks(
        cfg, monkeypatch):
    # The first quintic plus x^5 misses the images of Z1, where the second
    # quintic does not vanish either.
    _assert_first_quintic_fails(
        cfg, monkeypatch,
        lambda q: HomForm(3, 5, {**q.coeffs, (5, 0, 0): q.coeffs.get((5, 0, 0), ZERO) + ONE}))


def _recording_ladder(monkeypatch, top=None):
    """Record the degrees `verify_geproci` interpolates; with top, degree 6
    returns it instead of the interpolated space."""
    interpolate = geproci.vanishing_space
    degrees = []

    def recording(images, degree, nvars):
        degrees.append(degree)
        if degree == 6 and top is not None:
            return top
        return interpolate(images, degree, nvars)

    monkeypatch.setattr(geproci, "vanishing_space", recording)
    return degrees


def test_the_ladder_stops_at_a_unique_sextic(cfg, geproci_cert_seed1,
                                             monkeypatch):
    """dim_6 = 1 < 3 forces dim_5 = 0: degree 6 is the only one interpolated."""
    degrees = _recording_ladder(monkeypatch)
    cert = geproci.verify_geproci(cfg, 1)
    assert degrees == [6]
    assert cert.dimension_table == (0, 0, 0, 0, 0, 1)
    assert cert.to_json() == geproci_cert_seed1.to_json()


def test_three_sextics_fail_without_a_lower_degree(cfg, geproci_cert_seed1,
                                                   monkeypatch):
    """Any dim_6 but 1 fails the certificate, so no lower degree is
    interpolated, not even when three sextics could be x*Q, y*Q, z*Q."""
    sextic = geproci_cert_seed1.sextic
    top = [sextic, HomForm(3, 6, {(6, 0, 0): ONE}),
           HomForm(3, 6, {(0, 6, 0): ONE})]
    degrees = _recording_ladder(monkeypatch, top)
    with pytest.raises(geproci.VerificationError,
                       match="degree-6 space has dimension 3, not 1"):
        geproci.verify_geproci(cfg, 1)
    assert degrees == [6]


def test_each_quintic_is_tested_on_its_own_half(cfg, monkeypatch):
    """60 zero tests of a quintic, one per image on its own half, and the
    vertex's two grid quadric tests: the decic reuses every quintic result."""
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


def _span_by_dual_matrix(p, q, r):
    """The plane through the line pq and r as L*r: each row of the line's
    dual Pluecker matrix dotted with r's pairs."""
    rows = projective._matrix(ProjLine(p, q).dual)
    return ProjPlane(from_numerators([_dot(row, r.pairs) for row in rows], 1))


def test_only_the_plane_span_runs_field_element_arithmetic(cfg, monkeypatch):
    """With every FieldElement operator failing the test and the plane span
    replaced by L*v on pairs, the configuration, the 72 grids, all four
    verdicts at three seeds and the partials-gcd retry of the smoothness
    certificate come out unchanged."""
    line = HomForm.linear([FieldElement(2), PHI, FieldElement(Fraction(-1, 3))])
    other = HomForm.linear([ONE, FieldElement(-3), FieldElement(1, 1)])
    curve = line * line * other  # attempt 0 fails; attempt 1 finds the gcd

    def artifacts(c):
        out = [g.to_json() for g in enumerate_grids(c)]
        for seed in (1, 2, 12345):
            out += [geproci.verify_geproci(c, seed).to_json(),
                    geproci.verify_not_half_grid(c, seed).to_json()]
            out += [geproci.verify_half_grid(c, seed, h.name).to_json()
                    for h in HALVES]
        return out

    expected, report = artifacts(cfg), plane_curve_is_smooth(curve)
    assert report.reason == ("partials share a component:"
                             " (1)*x + (1/2*phi)*y + (-1/6)*z")

    def failing(name):
        def operator(*args):
            pytest.fail(f"FieldElement.{name} ran outside the plane span")
        return operator

    for name in _FIELD_OPERATORS:
        monkeypatch.setattr(FieldElement, name, failing(name))
    monkeypatch.setattr(geproci, "plane_through", _span_by_dual_matrix)
    with pytest.raises(pytest.fail.Exception, match="__mul__"):
        ONE * PHI
    patched_cfg = config.build_h4()
    assert patched_cfg.to_json() == cfg.to_json()
    assert artifacts(patched_cfg) == expected
    assert plane_curve_is_smooth(curve) == report


class _MissesOneImage(HomForm):
    """A form whose zero test reads False at one image."""

    __slots__ = ()
    missed = None

    def vanishes_at(self, point):
        return point != self.missed and super().vanishes_at(point)


def test_a_quintic_missing_one_image_fails_the_quintic_and_decic_checks(
        cfg, geproci_cert_seed1, monkeypatch):
    """The decic check tests the second quintic where the first one misses;
    at the chosen z1 image it does not vanish, so the decic misses too."""
    images = geproci.sample_generic_vertex(cfg, 1).images
    quintic2 = geproci_cert_seed1.quintic2
    missed = next(i for i in geproci_cert_seed1.z1
                  if not quintic2.vanishes_at(images[i]))
    monkeypatch.setattr(_MissesOneImage, "missed", images[missed])
    _assert_first_quintic_fails(
        cfg, monkeypatch, lambda q: _MissesOneImage(3, 5, q.coeffs))


def test_sextic_and_decic_share_no_component(geproci_cert_seed1):
    cert = geproci_cert_seed1
    decic = cert.quintic1 * cert.quintic2
    assert decic.degree == 10
    assert not divides(cert.sextic, decic)
    assert cert.sextic.degree * decic.degree == 60


def test_geproci_certificate_json_shape(geproci_cert_seed1):
    blob = geproci_cert_seed1.to_json()
    assert blob["passed"] is True
    assert blob["dimension_table"] == [0, 0, 0, 0, 0, 1]
    assert set(blob["checks"]) == {
        "dimension_table", "sextic_smooth", "quintic1_on_z1",
        "quintic2_on_z2", "decic_on_all", "no_shared_component",
        "bezout_count"}


@pytest.mark.parametrize("subset", ["z1", "z2"])
def test_half_grid_certificates_pass(cfg, subset):
    cert = geproci.verify_half_grid(cfg, 1, subset)
    assert cert.passed
    assert len(cert.cover_lines) == 6
    assert cert.quintic.degree == 5 and cert.line_product.degree == 6
    assert cert.checks["bezout_count"]


def test_half_grid_tests_the_line_product_by_its_factors(cfg, monkeypatch):
    """The degree-6 line product is never evaluated: each image is tested
    once, against its own cover line's linear form."""
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
        assert degrees.count(1) == 30


def test_a_cover_line_missing_one_image_fails_the_product_check(
        cfg, monkeypatch):
    """The pushed external line of z1 reads False at the image of one of
    its points, where no other cover line vanishes: the product check, and
    only it, fails."""
    ext = HALF1.external_line
    missed = geproci.sample_generic_vertex(cfg, 1).images[
        cfg.line_points[ext][0]]
    push_line = geproci.Projection.push_line

    def patched(self, line):
        form = push_line(self, line)
        if line == cfg.lines[ext]:
            return _MissesOneImage(3, 1, form.coeffs)
        return form

    monkeypatch.setattr(_MissesOneImage, "missed", missed)
    monkeypatch.setattr(geproci.Projection, "push_line", patched)
    with pytest.raises(geproci.VerificationError) as err:
        geproci.verify_half_grid(cfg, 1, "z1")
    assert str(err.value).endswith("['product_on_subset']")


def test_half_grid_makes_no_long_division(cfg, monkeypatch):
    """`no_line_in_quintic` decides each cover line by evaluation."""
    quotient = forms.try_quotient
    calls = []

    def counting(f, g):
        calls.append((f.degree, g.degree))
        return quotient(f, g)

    monkeypatch.setattr(forms, "try_quotient", counting)
    for half in HALVES:
        assert geproci.verify_half_grid(cfg, 1, half.name).passed
    assert calls == []


def test_a_quintic_made_of_cover_lines_fails_the_line_check(cfg, monkeypatch):
    """With the quintic patched to the product of its half's pushed L-lines,
    every L-line divides it; it also misses the external line's images."""
    monkeypatch.setattr(geproci, "build_quintic_cone", lambda g, h, point: g)
    with pytest.raises(geproci.VerificationError) as err:
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
    """A half-grid verdict reads no grid certificate, so it builds none; the
    geproci certificate records two and builds each once."""
    calls = []
    verify_grid = geproci.verify_grid

    def counting(*args):
        calls.append(args[1:])
        return verify_grid(*args)

    monkeypatch.setattr(geproci, "verify_grid", counting)
    for half in HALVES:
        assert geproci.verify_half_grid(cfg, seed, half.name).passed
    assert calls == []
    cert = geproci.verify_geproci(cfg, seed)
    assert calls == [(h.l_lines, h.m_lines) for h in HALVES]
    assert [cert.grid1, cert.grid2] == [verify_grid(cfg, *c) for c in calls]


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
    grid1 = geproci.verify_grid(cfg, L1, M1).grid_points
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


def test_full_rank_mod_p_builds_no_exact_row(projection, monkeypatch):
    def exact(*args):
        pytest.fail("an exact evaluation row was built")

    monkeypatch.setattr(forms, "_evaluation_row", exact)
    images = list(projection.images.values())
    assert forms.vanishing_space(images, 5, 3) == []


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


def _reference_projection(vertex):
    """The coordinate change that the projection by minors replaced.

    M is the Gauss-Jordan inverse of the matrix with columns e_i (i != k)
    and then the vertex, k its first nonzero coordinate; M sends the vertex
    to [0:0:0:1].  A point's image is M x with the last coordinate dropped,
    canonicalized; a plane through the vertex moves by the inverse transpose
    of M, and its first three coordinates are the pushed linear form.
    """
    k = next(i for i, x in enumerate(vertex.coords) if not x.is_zero())
    cols = [[ONE if r == i else ZERO for r in range(4)]
            for i in range(4) if i != k]
    cols.append(list(vertex.coords))
    m = CoordinateChange(reference_inverse([list(row) for row in zip(*cols)]))

    def image(x):
        return canonicalize(m.apply_point(x).coords[:3])

    def push(plane):
        moved = m.apply_plane(plane)
        assert moved.coords[3].is_zero()
        return HomForm.linear(list(moved.coords[:3]))

    return image, push


# One vertex for each pivot k, the first nonzero coordinate.  The only
# vertex with k = 3 is [0:0:0:1], which is configuration point 4.
PIVOT_VERTICES = {
    0: ProjPoint.of(3, -7, 11, FieldElement(2) + PHI),
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
    assert images == [tuple(primitive_numerators(image(x))) for x in points]
    incident = 0
    for line in lines:
        form = proj.push_line(line)
        plane = plane_through(line.p, line.q, v)
        assert form == push(plane)
        for x, y in zip(points, images):
            on = plane.contains(x)
            assert form.vanishes_at(y) == on
            incident += on
    assert incident >= 5 * len(lines)


def _pluecker_row_image(vertex, x):
    """The image as `image_from` once computed it: row k of the Pluecker
    matrix of the canonical pairs of the line vx, canonicalized again."""
    k = next(i for i, w in enumerate(vertex.pairs) if w != (0, 0))
    row = projective._matrix(projective.pluecker_pairs(vertex.pairs,
                                                       x.pairs))[k]
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


RECORD_TYPES = (config.H4Configuration, CoverCertificate,
                forms.SmoothnessReport, geproci.Projection,
                geproci.GridCertificate, geproci.GeprociCertificate,
                geproci.HalfGridCertificate, geproci.RefutationReport)


def test_importing_the_package_loads_no_dataclasses():
    """Without site, the fresh interpreter loads only what the package
    imports, and ``dataclasses`` is not among it."""
    src = Path(h4geproci.__file__).resolve().parent.parent
    code = ("import sys; before = 'dataclasses' in sys.modules; "
            "import h4geproci; print(before, 'dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_records_are_immutable(cfg, geproci_cert_seed1):
    records = [cfg, enumerate_coverings(cfg)[0],
               geproci_cert_seed1.sextic_smooth,
               geproci.sample_generic_vertex(cfg, 1),
               geproci_cert_seed1.grid1, geproci_cert_seed1,
               geproci.verify_half_grid(cfg, 1, "z1"),
               geproci.verify_not_half_grid(cfg, 1)]
    assert [type(r) for r in records] == list(RECORD_TYPES)
    for record in records:
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
