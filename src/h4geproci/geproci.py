"""Verification pipeline: generic projection, grid and quadric certificates,
the degree-5 cone pencil, complete-intersection certificates, and the
not-half-grid refutation.

Every check is exact.  A passing certificate is machine-checkable evidence:
it embeds the forms, the dimension table and the per-condition checks, so
the artifact carries what an independent checker needs to re-verify each
claim by evaluation.  That checker is not written yet (ROADMAP item 1).
"""

from __future__ import annotations

import random
from itertools import combinations
from math import prod
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from . import config as cfgmod
from .config import H4Configuration
from .field import ONE, Pair
from .forms import (HomForm, SmoothnessIndeterminate, SmoothnessReport,
                    divides, independent_evaluation_rows,
                    plane_curve_is_smooth, vanishing_space)
from .projective import (ProjLine, ProjPoint, image_from, plane_image,
                         plane_through)

PlaneCoords = Tuple[Pair, Pair, Pair]  # canonical Z[phi] pairs


class VerificationError(RuntimeError):
    """A structured verification failure; the message names the condition."""


class NotAGridError(VerificationError):
    pass


class PencilDegenerateError(VerificationError):
    pass


class RejectionBudgetExhausted(VerificationError):
    pass


VERTEX_DRAWS = 1000  # draws before `sample_generic_vertex` gives up


class Projection(NamedTuple):
    """A projection of P^3 from a verified-generic vertex onto P^2, by the
    minors of `projective.image_from` and `projective.plane_image`: a pushed
    plane vanishes at the image of a point exactly when it contains the point."""

    vertex: ProjPoint
    images: Dict[int, PlaneCoords]  # configuration point index -> image

    def push_line(self, line: ProjLine) -> HomForm:
        """The plane spanned by the line and the vertex, as a linear form on
        P^2.  `plane_through` kills its three rows, the vertex among them."""
        plane = plane_through(line.p, line.q, self.vertex)
        return HomForm.linear(list(plane_image(self.vertex, plane)))


def sample_generic_vertex(cfg: H4Configuration, seed: int) -> Projection:
    """Draw a deterministic vertex and certify its genericity.

    Coordinates are drawn uniformly from [-100, 100]; a draw is rejected if
    the vertex lies on any configuration plane or either grid quadric, or if
    two configuration points project to the same image.  Such a vertex is
    off every five-point line too: each line lies in 5 configuration planes
    (`build_h4` asserts it), so a vertex on a line is on those planes.
    After VERTEX_DRAWS rejected draws it raises RejectionBudgetExhausted.
    """
    rng = random.Random(seed)
    q1, q2 = cfg.grid_quadrics
    for _ in range(VERTEX_DRAWS):
        raw = [rng.randint(-100, 100) for _ in range(4)]
        if all(v == 0 for v in raw):
            continue
        vertex = ProjPoint.of(*raw)
        if any(plane.contains(vertex) for plane in cfg.planes.values()) \
                or q1.vanishes_at(vertex.pairs) or q2.vanishes_at(vertex.pairs):
            continue
        images = {i: image_from(vertex, cfg.points[i]) for i in cfg.points}
        if len(set(images.values())) == 60:
            return Projection(vertex, images)
    raise RejectionBudgetExhausted(f"no generic vertex in {VERTEX_DRAWS} draws")


def _record_json(record) -> dict:
    """A certificate record as JSON: each field under its own name, nested
    values through their own `to_json`, tuples as lists, and ``passed`` on
    a record that carries a verdict."""
    blob = {name: _json_value(getattr(record, name)) for name in record._fields}
    if hasattr(record, "passed"):
        blob["passed"] = record.passed
    return blob


def _json_value(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return dict(value) if isinstance(value, dict) else value


class GridCertificate(NamedTuple):
    """Evidence that two 5-line families form a (5,5)-grid on a quadric."""

    l_lines: Tuple[int, ...]
    m_lines: Tuple[int, ...]
    grid_points: Tuple[int, ...]  # 25 configuration point indices
    quadric: HomForm

    to_json = _record_json


def verify_grid(cfg: H4Configuration, l_lines: Sequence[int],
                m_lines: Sequence[int]) -> GridCertificate:
    """Check the grid conditions; `config.grid_quadric` certifies Q on the
    3x3 subgrid.  With the families skew and meeting in 25 distinct points,
    a quadric through those 9 contains l_1, l_2, l_3, so meets each m_j in
    three distinct points and contains it: Q is the grid's one quadric.  A
    failed certificate past these checks is indeterminate: it raises
    VerificationError, never NotAGridError.  An unknown line index raises
    ValueError before any work."""
    l_lines, m_lines = tuple(l_lines), tuple(m_lines)
    unknown = sorted(set(l_lines + m_lines) - set(cfg.lines))
    if unknown:
        raise ValueError(f"unknown line indices {unknown}")
    if any(len(fam) != 5 or len(set(fam)) != 5 for fam in (l_lines, m_lines)):
        raise NotAGridError("each family needs 5 distinct lines")
    if set(l_lines) & set(m_lines):
        raise NotAGridError("families share a line")
    for fam_name, fam in (("L", l_lines), ("M", m_lines)):
        for a, b in combinations(fam, 2):
            if b in cfg.meets[a]:
                raise NotAGridError(f"{fam_name}-lines {a} and {b} are not skew")
    # Distinct lines share at most one point, and line_points lists every point
    # of a five-point line: l_i and m_j meet at a configuration point iff they share one.
    grid_points = set()
    for li in l_lines:
        l_set = set(cfg.line_points[li])
        for mj in m_lines:
            shared = l_set.intersection(cfg.line_points[mj])
            if not shared:
                raise NotAGridError(
                    f"lines {li} and {mj} do not meet in a configuration point")
            grid_points |= shared
    if len(grid_points) != 25:
        raise NotAGridError(f"{len(grid_points)} intersection points, not 25")
    try:
        quadric = cfgmod.grid_quadric(cfg.points, cfg.lines, cfg.line_points,
                                      cfg.meets, l_lines, m_lines)
    except ArithmeticError as exc:
        raise VerificationError(f"grid quadric indeterminate: {exc}") from exc
    return GridCertificate(l_lines, m_lines, tuple(sorted(grid_points)),
                           quadric)


def build_quintic_cone(g: HomForm, h: HomForm, point: PlaneCoords) -> HomForm:
    """The monic member h(x)*g - g(x)*h of the pencil of g and h, which
    vanishes at the image x.  If both generators vanish at x, every member
    does, and it raises PencilDegenerateError."""
    gx, hx = g.evaluate(point), h.evaluate(point)
    if gx.is_zero() and hx.is_zero():
        raise PencilDegenerateError(
            "both pencil generators vanish at the anchor image; resample")
    return (g.scale(hx) - h.scale(gx)).monic()


class GeprociCertificate(NamedTuple):
    """Evidence that the projected 60 points are a (6,10) complete intersection."""

    seed: int
    vertex: ProjPoint
    dimension_table: Tuple[int, ...]  # dim of degree-d vanishing space, d=1..6
    sextic: HomForm
    sextic_smooth: SmoothnessReport
    grid1: GridCertificate
    grid2: GridCertificate
    quintic1: HomForm
    quintic2: HomForm
    z1: Tuple[int, ...]
    z2: Tuple[int, ...]
    sextic_divides_decic: bool
    checks: Dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    to_json = _record_json


def verify_geproci(cfg: H4Configuration, seed: int) -> GeprociCertificate:
    """Full pipeline for the complete-intersection certificate at one seed.

    The dimension table lists dim_d, the dimension of the degree-d forms
    vanishing at the 60 images, for d = 1..6.  Degree 6 is interpolated,
    then each lower degree in turn while dim_d >= 3, the number of
    variables; on the configuration dim_6 = 1, so that is d = 6 alone.  The
    table is exact: a nonzero degree-(d-1) form Q through the images gives
    x*Q, y*Q and z*Q through them, independent as Q(phi)[x, y, z] has no zero
    divisors, so dim_d < 3 forces dim_{d-1} = 0, and so on down.

    Each quintic is tested by `HomForm.vanishes_at` (an integer product, the
    value times a nonzero rational) on its own half only.  The decic q1*q2
    vanishes where q1 or q2 does, and z1, z2 cover the points, so its check
    reuses those tests and tests the other quintic only where one misses.
    It raises VerificationError unless every check passes, and for each
    indeterminate outcome too: an interpolation's ArithmeticError
    (`linalg.nullspace` found no certified kernel) and a spent smoothness
    retry budget (SmoothnessIndeterminate) both read "not certified".
    """
    proj = sample_generic_vertex(cfg, seed)
    images = [proj.images[i] for i in sorted(cfg.points)]
    try:
        top = vanishing_space(images, 6, 3)
        dim, d = {6: len(top)}, 6
        while d > 1 and dim[d] >= 3:
            d -= 1
            dim[d] = len(vanishing_space(images, d, 3))
        if len(top) != 1:
            raise VerificationError(
                f"degree-6 space has dimension {len(top)}, not 1")
        sextic = top[0]
        smooth = plane_curve_is_smooth(sextic, seed=seed)
    except (ArithmeticError, SmoothnessIndeterminate) as exc:
        raise VerificationError(f"geproci certificate indeterminate: {exc}") from exc
    dims = tuple(dim.get(d, 0) for d in range(1, 7))
    checks: Dict[str, bool] = {"dimension_table": dims == (0, 0, 0, 0, 0, 1),
                               "sextic_smooth": smooth.smooth}

    (grid1, quintic1, _), (grid2, quintic2, _) = (
        _half_quintic(cfg, proj, half) for half in cfgmod.HALVES)
    z1, z2 = cfgmod.z_partition(cfg)
    on1 = {i: quintic1.vanishes_at(proj.images[i]) for i in z1}
    on2 = {i: quintic2.vanishes_at(proj.images[i]) for i in z2}
    checks["quintic1_on_z1"], checks["quintic2_on_z2"] = all(on1.values()), all(on2.values())
    decic = quintic1 * quintic2
    checks["decic_on_all"] = all(
        on1[i] or quintic2.vanishes_at(proj.images[i]) for i in z1) and all(
        on2[i] or quintic1.vanishes_at(proj.images[i]) for i in z2)
    no_shared = not divides(sextic, decic)
    checks["no_shared_component"] = no_shared
    checks["bezout_count"] = sextic.degree * decic.degree == 60
    cert = GeprociCertificate(seed, proj.vertex, dims, sextic, smooth,
                              grid1, grid2, quintic1, quintic2, z1, z2,
                              not no_shared, checks)
    if not cert.passed:
        failed = [k for k, v in checks.items() if not v]
        raise VerificationError(f"geproci certificate failed: {failed}")
    return cert


def _half_quintic(cfg: H4Configuration, proj: Projection, half: cfgmod.Half
                  ) -> Tuple[GridCertificate, HomForm, Dict[int, HomForm]]:
    """The half's grid certificate; the member of its quintic pencil, spanned
    by the products of the pushed L- and M-lines, through the lowest special
    point on the external line; and the pushed L-lines by line index."""
    grid = verify_grid(cfg, half.l_lines, half.m_lines)
    specials = cfgmod.special_points_for_grid(cfg, grid.grid_points)
    ext = half.external_line
    on_line = [x for x, _ in specials if x in cfg.line_points[ext]]
    if len(on_line) != 5:
        raise VerificationError(
            f"external line {ext} does not carry 5 special points")
    l_forms = {i: proj.push_line(cfg.lines[i]) for i in half.l_lines}
    one = HomForm(3, 0, {(0, 0, 0): ONE})
    g = prod(l_forms.values(), start=one)
    h = prod((proj.push_line(cfg.lines[i]) for i in half.m_lines), start=one)
    return grid, build_quintic_cone(g, h, proj.images[min(on_line)]), l_forms


class HalfGridCertificate(NamedTuple):
    """Evidence that one half of the configuration is a (5,6) half-grid."""

    subset: str  # the half's name
    seed: int
    vertex: ProjPoint
    points: Tuple[int, ...]
    cover_lines: Tuple[int, ...]
    quintic: HomForm
    line_product: HomForm
    checks: Dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    to_json = _record_json


def verify_half_grid(cfg: H4Configuration, seed: int,
                     subset: str) -> HalfGridCertificate:
    """Certify that a half of `config.HALVES`, by name, projects to a (5,6)
    complete intersection.  Its points are its part of `config.z_partition`,
    and its cover lines are its L-lines and its external line.  It raises
    VerificationError unless every check passes."""
    names = [half.name for half in cfgmod.HALVES]
    if subset not in names:
        raise ValueError(f"subset must be one of {names}")
    k = names.index(subset)
    half, points = cfgmod.HALVES[k], cfgmod.z_partition(cfg)[k]
    cover = tuple(sorted(half.l_lines + (half.external_line,)))
    checks: Dict[str, bool] = {}
    checks["cover_pairwise_skew"] = all(
        b not in cfg.meets[a] for i, a in enumerate(cover) for b in cover[i + 1:])
    checks["cover_is_exact"] = cfgmod.grid_point_indices(cfg, cover) == points
    if not (checks["cover_pairwise_skew"] and checks["cover_is_exact"]):
        raise VerificationError(f"covering failure for {subset}: {checks}")
    proj = sample_generic_vertex(cfg, seed)
    _, quintic, line_form = _half_quintic(cfg, proj, half)
    checks["quintic_on_subset"] = all(quintic.vanishes_at(proj.images[i])
                                      for i in points)
    line_form[half.external_line] = proj.push_line(cfg.lines[half.external_line])
    line_forms = [line_form[i] for i in cover]
    product = prod(line_forms[1:], start=line_forms[0])
    checks["product_on_subset"] = all(product.vanishes_at(proj.images[i])
                                      for i in points)
    checks["no_line_in_quintic"] = all(not divides(lf, quintic)
                                       for lf in line_forms)
    checks["bezout_count"] = quintic.degree * product.degree == 30
    cert = HalfGridCertificate(subset, seed, proj.vertex, points,
                               cover, quintic, product, checks)
    if not cert.passed:
        failed = [k for k, v in checks.items() if not v]
        raise VerificationError(f"half-grid certificate failed: {failed}")
    return cert


class RefutationReport(NamedTuple):
    """Why a point set cannot be a half-grid of the forced CI type."""

    subset: str  # the point set's name
    max_collinear: int
    low_degree_dims: Tuple[int, ...]
    forced_degrees: Tuple[Tuple[int, int], ...]
    refuted: bool
    details: Tuple[str, ...]

    to_json = _record_json


def verify_not_half_grid(cfg: H4Configuration, seed: int,
                         subset: Optional[Sequence[int]] = None,
                         subset_name: str = "Z") -> RefutationReport:
    """Refute the half-grid property for the full set (or test a subset).

    Steps: (1) the largest collinear subset has 5 points; (2) no curve of
    degree below d* passes through the projected points, which forces the
    CI degrees; (3) a half-grid of type (a, b) needs a skew lines carrying
    N/a points each, impossible whenever N/a exceeds the collinearity bound.
    The refutation fails (correctly) on a subset that is a half-grid.

    Step (2) is a rank test mod P (`independent_evaluation_rows`); no form
    is interpolated.  d* is the first degree whose rank mod P is not full.
    Every dimension below d* is exactly 0 (a nonzero minor mod P is a
    nonzero minor over Q(phi)), so d* is at most the least degree m of a
    curve through the images, the types forced from d* include those forced
    from m, and "refuted" needs every one of them excluded: an unlucky prime
    can turn "refuted" into "not refuted", never the reverse.  The images
    are minors, polynomial in the vertex, so dim_d = 0 is an open condition
    on it, and a refutation at one vertex holds for a general vertex.
    An empty subset, or a repeated or unknown point index, raises
    ValueError before any work: the empty set would be "refuted" vacuously.
    """
    indices = sorted(subset) if subset is not None else sorted(cfg.points)
    if not indices or len(set(indices)) != len(indices) \
            or not set(indices) <= set(cfg.points):
        raise ValueError(f"empty, repeated or unknown point indices in {indices}")
    n = len(indices)
    mc = cfg.max_collinear(indices)
    proj = sample_generic_vertex(cfg, seed)
    images = [proj.images[i] for i in indices]
    d = 1  # d*: no curve of lower degree passes through the images
    while len(independent_evaluation_rows(images, d, 3)) == (d + 1) * (d + 2) // 2:
        d += 1
    min_degree = d
    forced = tuple((a, n // a) for a in range(min_degree, n + 1)
                   if n % a == 0 and n // a >= min_degree)
    details = [
        f"max collinear points: {mc}",
        f"no plane curve of degree < {min_degree} passes through the"
        f" {n} projected points",
        f"possible CI types: {forced}",
    ]
    refuted = True
    for a, b in set(forced) | {(b, a) for a, b in forced}:
        per_line = n // a
        if per_line <= mc:
            refuted = False
            details.append(
                f"type ({a},{b}) would need {a} skew lines with {per_line}"
                f" points each; {per_line} <= {mc}, so not excluded")
        else:
            details.append(
                f"type ({a},{b}) needs {a} skew lines with {per_line} points"
                f" each, but no line carries more than {mc}")
    return RefutationReport(subset_name, mc, (0,) * (d - 1), forced, refuted,
                            tuple(details))
