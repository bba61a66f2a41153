"""Verification pipeline: generic projection, the degree-5 cone pencil,
complete-intersection certificates (recording `config`'s grid
certificates), and the not-half-grid refutation.

Every check is exact.  A passing certificate is machine-checkable evidence:
it embeds the forms, the dimension table and the per-condition checks, so
the artifact carries what an independent checker needs to re-verify each
claim by evaluation.  That checker is not written yet (ROADMAP item 1).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence

from . import config as cfgmod
from .config import H4Configuration, VerificationError
from .field import Pair, _dot, _neg
from .forms import (HomForm, SmoothnessIndeterminate, _record_json,
                    independent_evaluation_rows, monomials, multiply,
                    plane_curve_is_smooth, vanishing_space)
from .projective import ProjLine, ProjPoint, image_from, line_image

PlaneCoords = tuple[Pair, Pair, Pair]  # canonical Z[phi] pairs


VERTEX_DRAWS = 1000  # draws before `sample_generic_vertex` gives up


class _Images:
    """Point index -> image, read-only, each by `image_from` on first read."""

    def __init__(self, vertex: ProjPoint, points: dict[int, ProjPoint]):
        self._vertex, self._points, self._known = vertex, points, {}

    def __getitem__(self, i: int) -> PlaneCoords:
        if i not in self._known:
            self._known[i] = image_from(self._vertex, self._points[i])
        return self._known[i]


class Projection(namedtuple("Projection", "vertex images")):
    """A projection of P^3 from a verified-generic vertex, a ProjPoint, onto
    P^2, by the minors of `projective.image_from` and
    `projective.line_image`; ``images`` maps each configuration point index
    to its image (`_Images`)."""

    __slots__ = ()

    def push_line(self, line: ProjLine) -> HomForm:
        """The line's image, a linear form on P^2, by `line_image`."""
        return HomForm(3, 1, dict(zip(monomials(1, 3),
                                      line_image(self.vertex, line))))


def sample_generic_vertex(cfg: H4Configuration, seed: int) -> Projection:
    """Draw a deterministic vertex and certify its genericity.

    Coordinates are drawn uniformly from [-3, 3]; a draw is rejected if the
    vertex lies on any configuration plane or either grid quadric, which
    leaves 192 projective vertices in the box.  Any two configuration points
    lie in two of the 60 planes (checked by `build_h4`'s pair count), which
    meet in their line, so such a vertex is off every such line: the 60
    images are distinct (`image_from`), and none is computed here.  After
    VERTEX_DRAWS rejected draws it raises VerificationError.
    """
    rng = random.Random(seed)
    for _ in range(VERTEX_DRAWS):
        raw = [rng.randint(-3, 3) for _ in range(4)]
        if all(v == 0 for v in raw):
            continue
        vertex = ProjPoint.of(*raw)
        if not (any(plane.contains(vertex) for plane in cfg.planes.values())
                or any(g.quadric.vanishes_at(vertex.pairs) for g in cfg.grids)):
            return Projection(vertex, _Images(vertex, cfg.points))
    raise VerificationError(f"no generic vertex in {VERTEX_DRAWS} draws")


def _all_checks_pass(cert) -> bool:
    return all(cert.checks.values())


def _require_passed(kind: str, cert):
    """The certificate, or VerificationError naming its failed checks."""
    if not cert.passed:
        failed = [k for k, v in cert.checks.items() if not v]
        raise VerificationError(f"{kind} certificate failed: {failed}")
    return cert


def build_quintic_cone(g: HomForm, h: HomForm, point: PlaneCoords) -> HomForm:
    """The monic member h(x)*g - g(x)*h of the pencil of g and h, which
    vanishes at the image x.  On the numerators u = c*g and v = c'*h
    (``terms``, with c and c' the forms' positive integer ``den``),
    v(x)*u - u(x)*v is c*c' times it, with the same monic form.  If both
    generators vanish at x, every member does; if g and h are proportional,
    the member is zero.  Either raises VerificationError."""
    gx, hx = g.value_at(point), h.value_at(point)
    if gx == hx == (0, 0):
        raise VerificationError(
            "both pencil generators vanish at the anchor image; resample")
    u, v = g.terms, h.terms
    terms = ((e, _dot((hx, _neg(gx)), (u.get(e, (0, 0)), v.get(e, (0, 0)))))
             for e in {**u, **v})
    member = HomForm.monic_from_pairs(g.nvars, g.degree, terms)
    if member.is_zero():
        raise VerificationError("the pencil member h(x)*g - g(x)*h is zero")
    return member


class GeprociCertificate(namedtuple("GeprociCertificate", (
        "seed vertex dimension_table sextic sextic_smooth grid1 grid2"
        " quintic1 quintic2 z1 z2 checks"))):
    """Evidence that the projected 60 points are a (6,10) complete intersection.

    ``dimension_table`` holds the dimension of the degree-d vanishing space,
    d = 1..6; ``sextic``, ``quintic1`` and ``quintic2`` are HomForms,
    ``sextic_smooth`` a SmoothnessReport, ``grid1`` and ``grid2``
    GridCertificates, ``z1`` and ``z2`` tuples of point indices, and
    ``checks`` maps each check name to its bool."""

    __slots__ = ()
    passed = property(_all_checks_pass)
    to_json = _record_json


def verify_geproci(cfg: H4Configuration, seed: int) -> GeprociCertificate:
    """Full pipeline for the complete-intersection certificate at one seed.

    The dimension table lists dim_d, the dimension of the degree-d forms
    vanishing at the 60 images, for d = 1..6.  Only degree 6 is
    interpolated, and anything but dim_6 = 1 raises.  That forces the rest
    of the table to 0: a nonzero degree-(d-1) form Q through the images
    gives x*Q, y*Q and z*Q through them, independent as Q(phi)[x, y, z] has
    no zero divisors, so dim_d < 3 forces dim_{d-1} = 0, and so on down.

    Each quintic is tested by `HomForm.vanishes_at` (an integer product, the
    value times a nonzero rational) on its own half, and the decic q1*q2
    vanishes where either does.  `bezout_count` asks for 6*10 distinct
    images of z1 and z2: sextic and decic then meet there only, once each.
    The two grid certificates are those `build_h4` made (``cfg.grids``).
    It raises VerificationError unless every check passes, and for each
    indeterminate outcome too: an interpolation's ArithmeticError
    (`linalg.nullspace` found no certified kernel) and a spent smoothness
    retry budget (SmoothnessIndeterminate) both read "not certified".

    `sextic_smooth` also proves that the two share no component, with no
    division: a smooth curve over Q(phi)-bar is reduced and irreducible, as
    two components meet (Bezout) and a common point, like any point of a
    multiple component, is singular.  So the sextic is prime in the UFD
    Q(phi)[x, y, z]; dividing q1*q2, it would divide a nonzero quintic
    (`build_quintic_cone` refuses the zero member), which its degree forbids.
    """
    proj = sample_generic_vertex(cfg, seed)
    images = [proj.images[i] for i in sorted(cfg.points)]
    try:
        top = vanishing_space(images, 6, 3)
        if len(top) != 1:
            raise VerificationError(
                f"degree-6 space has dimension {len(top)}, not 1")
        sextic = top[0]
        smooth = plane_curve_is_smooth(sextic, seed=seed)
    except (ArithmeticError, SmoothnessIndeterminate) as exc:
        raise VerificationError(f"geproci certificate indeterminate: {exc}") from exc
    dims = (0, 0, 0, 0, 0, 1)  # dim_6 = 1 and the x*Q argument above
    quintic1, quintic2 = (_half_quintic(cfg, proj, h)[0] for h in cfgmod.HALVES)
    z1, z2 = cfgmod.z_partition(cfg)
    checks = {
        "sextic_smooth": smooth.smooth,
        "quintic1_on_z1": all(quintic1.vanishes_at(proj.images[i]) for i in z1),
        "quintic2_on_z2": all(quintic2.vanishes_at(proj.images[i]) for i in z2),
        "bezout_count": len({proj.images[i] for i in z1 + z2})
        == sextic.degree * (quintic1.degree + quintic2.degree)}
    return _require_passed("geproci", GeprociCertificate(
        seed, proj.vertex, dims, sextic, smooth, *cfg.grids, quintic1,
        quintic2, z1, z2, checks))


def _half_quintic(cfg: H4Configuration, proj: Projection, half: cfgmod.Half
                  ) -> tuple[HomForm, dict[int, HomForm], HomForm]:
    """The member of the half's quintic pencil, spanned by the products g, h
    of the pushed L- and M-lines (one `multiply` each), through the image of
    the lowest point on the half's external line; the pushed L-lines; and g."""
    l_forms = {i: proj.push_line(cfg.lines[i]) for i in half.l_lines}
    g = multiply(list(l_forms.values()))
    h = multiply([proj.push_line(cfg.lines[i]) for i in half.m_lines])
    anchor = proj.images[min(cfg.line_points[half.external_line])]
    return build_quintic_cone(g, h, anchor), l_forms, g


class HalfGridCertificate(namedtuple("HalfGridCertificate", (
        "subset seed vertex points cover_lines quintic line_product checks"))):
    """Evidence that one half of the configuration is a (5,6) half-grid.

    ``subset`` is the half's name; ``points`` and ``cover_lines`` are tuples
    of indices, ``quintic`` and ``line_product`` HomForms, and ``checks``
    maps each check name to its bool."""

    __slots__ = ()
    passed = property(_all_checks_pass)
    to_json = _record_json


def verify_half_grid(cfg: H4Configuration, seed: int,
                     subset: str) -> HalfGridCertificate:
    """Certify that a half of `config.HALVES`, by name, projects to a (5,6)
    complete intersection.  Its points are its part of `config.z_partition`,
    and its cover lines are its L-lines and its external line.  It raises
    VerificationError unless every check passes.  One exact table lists, for
    each pushed cover line l_j, the half's images where l_j is zero (by
    `_dot`).  `product_on_subset` finds in it each line's own five points
    (`line_points`), the half's points by `cover_is_exact`; the line product,
    g of `_half_quintic` times the external line, vanishes where a factor does.
    `no_line_in_quintic` asks for `quintic_on_subset` and, in the table, just
    each line's own five points.  Lemma: if every check passes, no l_1
    divides the quintic Q.  Else Q = l_1*R, R a nonzero quartic
    (`build_quintic_cone` refuses Q = 0).  The vertex is off each other
    cover line C_k (or `push_line` raises), so its five images are distinct
    points of l_k, none on l_1 by the table, zeros of Q and so of R: R
    contains l_k.  The l_k are distinct by the table, so l_2*...*l_6, of
    degree 5, divides R: R = 0.  The cover must partition the half, as
    checked before any vertex is drawn.  So `bezout_count` asks for 5*6
    distinct images.  At a sampled vertex the table holds no more: a half
    point p off C_j shares a configuration plane with C_j (only its polar
    line's points, never in its half, share none), and l_j is zero at p's
    image only for a vertex in that plane."""
    names = [half.name for half in cfgmod.HALVES]
    if subset not in names:
        raise ValueError(f"subset must be one of {names}")
    k = names.index(subset)
    half, points = cfgmod.HALVES[k], cfgmod.z_partition(cfg)[k]
    cover = tuple(sorted(half.l_lines + (half.external_line,)))
    checks = {"cover_pairwise_skew": all(b not in cfg.meets[a] for i, a in
                                         enumerate(cover) for b in cover[i + 1:]),
              "cover_is_exact": cfgmod.grid_point_indices(cfg, cover) == points}
    if not all(checks.values()):
        raise VerificationError(f"covering failure for {subset}: {checks}")
    proj = sample_generic_vertex(cfg, seed)
    quintic, line_form, g = _half_quintic(cfg, proj, half)
    checks["quintic_on_subset"] = all(quintic.vanishes_at(proj.images[i])
                                      for i in points)
    line_form[half.external_line] = proj.push_line(cfg.lines[half.external_line])
    product = multiply((g, line_form[half.external_line]))
    images = [(i, proj.images[i]) for i in points]
    zeros = {}
    for j, lf in line_form.items():
        c = [lf.terms.get(e, (0, 0)) for e in monomials(1, 3)]
        zeros[j] = {i for i, x in images if _dot(c, x) == (0, 0)}
    own = {j: set(cfg.line_points[j]) for j in cover}
    checks["product_on_subset"] = all(own[j] <= zeros[j] for j in cover)
    checks["no_line_in_quintic"] = (checks["quintic_on_subset"]
                                    and all(zeros[j] == own[j] for j in cover))
    checks["bezout_count"] = (len({proj.images[i] for i in points})
                              == quintic.degree * product.degree)
    return _require_passed("half-grid", HalfGridCertificate(
        subset, seed, proj.vertex, points, cover, quintic, product, checks))


class RefutationReport(namedtuple("RefutationReport", (
        "subset max_collinear low_degree_dims forced_degrees refuted details"))):
    """Why a point set, named by ``subset``, cannot be a half-grid of the
    forced CI type: ``forced_degrees`` holds the (a, b) types, and
    ``details`` the argument, one string per step."""

    __slots__ = ()
    to_json = _record_json


def verify_not_half_grid(cfg: H4Configuration, seed: int,
                         subset: Sequence[int] | None = None,
                         subset_name: str | None = None) -> RefutationReport:
    """Refute the half-grid property for the full set (or test a subset).

    Steps: (1) the largest collinear subset has 5 points; (2) no curve of
    degree below d* passes through the projected points, which forces the
    CI degrees; (3) a half-grid of type (a, b) needs a skew lines carrying
    N/a points each, impossible whenever N/a exceeds the collinearity bound.
    The refutation fails (correctly) on a subset that is a half-grid.

    Step (2) is a rank test mod P (`independent_evaluation_rows`), which at a
    full-rank degree reads images and rows up to the last pivot only; no form
    is interpolated.  d* is the first degree d whose forced types (a, N/a), with
    a, N/a >= d, step (3) all excludes, or else whose rank mod P is not full.
    The first, e, is arithmetic: one past the largest min(a, N/a) within the
    bound.  Full rank mod P at d forces it at every lower degree (a nonzero
    Q of degree d - 1 through the residues gives x*Q of degree d), so one
    rank test, at e - 1, gives d* = e; if it is short, a bisection finds the
    first short degree.
    Every dimension below d* is exactly 0 (a minor nonzero mod P is nonzero
    over Q(phi)), so d* is at most the least degree m of a curve through the
    images, the types forced from d* include those forced from m, and
    "refuted" needs every one of them excluded: an unlucky prime can turn
    "refuted" into "not refuted", never the reverse.  Stopping at an excluded
    d changes no verdict, as a longer ladder forces a subset of its types.
    The images are minors, polynomial in the vertex, so dim_d = 0 is an open
    condition on it, and a refutation at one vertex holds for a general
    vertex.
    An empty subset, a repeated or unknown point index, or a subset without
    a name ("Z" is the full set's) raises ValueError before any work.
    """
    indices = sorted(subset) if subset is not None else sorted(cfg.points)
    if not indices or len(set(indices)) != len(indices) \
            or not set(indices) <= set(cfg.points):
        raise ValueError(f"empty, repeated or unknown point indices in {indices}")
    if subset is not None and not subset_name:
        raise ValueError("a subset needs a name: 'Z' names the full set")
    n = len(indices)
    mc = cfg.max_collinear(indices)
    proj = sample_generic_vertex(cfg, seed)
    types = [(a, n // a) for a in range(1, n + 1) if n % a == 0]

    def short(d):
        images = (proj.images[i] for i in indices)
        return len(independent_evaluation_rows(images, d, 3)) < (d + 1) * (d + 2) // 2

    e = 1 + max(m for m in map(min, types) if m <= mc)  # (1, n) gives e >= 2
    d = 1 + bisect_left(range(1, e - 1), True, key=short) if short(e - 1) else e
    forced = tuple(t for t in types if min(t) >= d)
    details = [
        f"max collinear points: {mc}",
        f"no plane curve of degree < {d} passes through the"
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
    return RefutationReport(subset_name or "Z", mc, (0,) * (d - 1), forced,
                            refuted, tuple(details))
