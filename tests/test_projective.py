"""Projective flats: canonical forms, incidence, and invariance."""

import random
from fractions import Fraction
from itertools import combinations, islice
from math import gcd

import pytest

from h4geproci import linalg
from h4geproci.field import (FieldElement, ONE, PHI, ZERO, _dot, _neg,
                             primitive_numerators)
from h4geproci.forms import HomForm, monomials, vanishing_space
from h4geproci.projective import (DegenerateSpanError, ProjLine, ProjPlane,
                                  ProjPoint, canonicalize, lines_meet)
from form_references import monic
from json_readers import proj_line, proj_point
from test_linalg import (_permutation_determinant, mat_vec, reference_inverse,
                         reference_rank)


# FieldElement references for the predicates that run on Z[phi] pairs.

def _reference_canonicalize(coords):
    """Divide by the first nonzero coordinate, then clear to coprime Z[phi]."""
    lead = next(x for x in coords if not x.is_zero())
    inv = lead.inverse()
    return tuple(FieldElement(x, y)
                 for x, y in primitive_numerators([c * inv for c in coords]))


def _reference_in_plane(plane, p):
    return sum((c * x for c, x in zip(plane.coords, p.coords)), ZERO).is_zero()


def _reference_pairing(l1, l2):
    a, b = l1.pluecker, l2.pluecker
    return (a[0] * b[5] - a[1] * b[4] + a[2] * b[3]
            + a[5] * b[0] - a[4] * b[1] + a[3] * b[2])


def plane_through(p, q, r):
    """The plane x -> det[p, q, r, x]: its x_i coefficient is (-1)**(i + 1)
    times the minor of the rows p, q, r without column i, here by
    permutation expansion.  It kills p, q and r (repeated rows), and it is
    zero exactly when the rows have rank below 3."""
    rows = [p.coords, q.coords, r.coords]
    coeffs = [_permutation_determinant([row[:i] + row[i + 1:] for row in rows])
              for i in range(4)]
    if all(c.is_zero() for c in coeffs):
        raise DegenerateSpanError("the points do not span a plane")
    return ProjPlane([c if i % 2 else -c for i, c in enumerate(coeffs)])


def plane_image(vertex, plane):
    """The linear form that a plane through the vertex pushes down to: its
    canonical coefficients other than the k-th, k the first nonzero
    coordinate of the vertex."""
    k = next(i for i, x in enumerate(vertex.coords) if not x.is_zero())
    return canonicalize([c for i, c in enumerate(plane.coords) if i != k])


def pluecker_matrix(ls):
    """The antisymmetric 4x4 matrix with entry l_ij at (i, j), i < j, of six
    Pluecker (or dual) pairs: for a line's dual pairs, L*x is the plane
    through the line and x, and for its pairs, L.pi is its meet with pi."""
    l01, l02, l03, l12, l13, l23 = ls
    n01, n02, n03, n12, n13, n23 = map(_neg, ls)
    return [[(0, 0), l01, l02, l03], [n01, (0, 0), l12, l13],
            [n02, n12, (0, 0), l23], [n03, n13, n23, (0, 0)]]


def on_line(line, x):
    """x lies on the line: L*x = 0, with L* the Pluecker matrix of the dual
    pairs.  Up to sign, the entries of L*x are the four 3x3 minors
    x_i*L_jk - x_j*L_ik + x_k*L_ij (i < j < k) of the rows x, p, q; as p != q
    their rank is 2 or 3, and it is 2 exactly when all four vanish."""
    return all(_dot(row, x.pairs) == (0, 0) for row in pluecker_matrix(line.dual))


def transversal_quadric(l1, l2, l3):
    """The pairs of x -> x^T M x, M = L1* L2 L3*, on the x_i*x_j, i <= j in
    graded-lex order: M_ij + M_ji, or M_ii when i = j.

    For skew lines this is the quadric of their common transversals: L3*x
    is the plane of l3 and x, L2 sends it to the point y where l2 meets it,
    and x lies in the plane L1*y of l1 and y when the line xy, which meets
    l2 and l3, meets l1."""
    m = pluecker_matrix(l1.dual)
    for factor in (pluecker_matrix(l2.pairs), pluecker_matrix(l3.dual)):
        m = [[_dot(row, col) for col in zip(*factor)] for row in m]
    return tuple(m[i][i] if i == j else (m[i][j][0] + m[j][i][0], m[i][j][1] + m[j][i][1])
                 for i in range(4) for j in range(i, 4))


def _reference_on_line(line, x):
    return reference_rank([list(x.coords), list(line.p.coords),
                           list(line.q.coords)]) == 2


def _reference_pluecker(p, q):
    return _reference_canonicalize(
        [p.coords[i] * q.coords[j] - p.coords[j] * q.coords[i]
         for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))])


def _random_point(rng) -> ProjPoint:
    while True:
        coords = [FieldElement(rng.randint(-9, 9), rng.randint(-9, 9))
                  for _ in range(4)]
        if any(not x.is_zero() for x in coords):
            return ProjPoint(coords)


class CoordinateChange:
    """An invertible 4x4 matrix M acting on P^3: points by M, planes by the
    inverse transpose of M, so that incidence is preserved.  Raises
    ZeroDivisionError on a singular matrix."""

    def __init__(self, rows):
        self.rows = [[x if isinstance(x, FieldElement) else FieldElement(x)
                      for x in row] for row in rows]
        self.inverse_transpose = [list(col) for col in
                                  zip(*reference_inverse(self.rows))]

    def apply_point(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(mat_vec(self.rows, p.coords))

    def apply_plane(self, v: ProjPlane) -> ProjPlane:
        return ProjPlane(mat_vec(self.inverse_transpose, v.coords))


def _random_coordinate_change(rng) -> CoordinateChange:
    while True:
        rows = [[FieldElement(rng.randint(-5, 5), rng.randint(-5, 5))
                 for _ in range(4)] for _ in range(4)]
        try:
            return CoordinateChange(rows)
        except ZeroDivisionError:
            continue


def _intersection_point(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The common point of two distinct lines, from the kernel of their spans."""
    cols = [l1.p.coords, l1.q.coords, l2.p.coords, l2.q.coords]
    kernel = linalg.nullspace([primitive_numerators([cols[c][r] for c in range(4)])
                               for r in range(4)])
    if len(kernel) != 1:
        raise ValueError("lines are skew")
    alpha, beta = FieldElement(*kernel[0][0]), FieldElement(*kernel[0][1])
    return ProjPoint([alpha * l1.p.coords[i] + beta * l1.q.coords[i]
                      for i in range(4)])


def test_canonicalize_is_idempotent_and_scale_invariant():
    rng = random.Random(23)
    for _ in range(300):
        coords = [FieldElement(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                               Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
                  for _ in range(4)]
        if all(x.is_zero() for x in coords):
            continue
        canon = canonicalize(coords)
        assert canonicalize(canon) == canon
        scale = FieldElement(Fraction(rng.randint(1, 7), rng.randint(1, 7)),
                             rng.randint(0, 3))
        if not scale.is_zero():
            assert canonicalize([x * scale for x in coords]) == canon


def test_canonicalize_identifies_unit_multiples():
    # phi is a unit of Z[phi]: multiplying by it must not change the flat.
    p = ProjPoint.of(FieldElement(1, 1), 0, PHI, 1)
    q = ProjPoint([x * PHI for x in p.coords])
    assert p == q
    assert canonicalize([ZERO, PHI, ZERO, ZERO]) == (ZERO, ONE, ZERO, ZERO)


def test_canonicalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        canonicalize([ZERO] * 4)


def test_pluecker_relation_holds():
    rng = random.Random(29)
    for _ in range(100):
        p, q = _random_point(rng), _random_point(rng)
        if p == q:
            continue
        pl = ProjLine(p, q).pluecker
        rel = pl[0] * pl[5] - pl[1] * pl[4] + pl[2] * pl[3]
        assert rel.is_zero()


def test_line_contains_its_spanning_points_and_combinations():
    rng = random.Random(31)
    for _ in range(50):
        p, q = _random_point(rng), _random_point(rng)
        if p == q:
            continue
        line = ProjLine(p, q)
        assert on_line(line, p) and on_line(line, q)
        mix = ProjPoint([p.coords[i] * FieldElement(2, 1) + q.coords[i]
                         for i in range(4)])
        assert on_line(line, mix)
        assert ProjLine(q, mix) == line


def test_points_planes_and_lines_are_values_of_their_type():
    """Equal exactly when type and canonical pairs agree, hashed as (type
    name, pairs), and immutable, whatever the representative."""
    p, q = ProjPoint.of(1, 0, 0, 0), ProjPoint.of(0, 1, 0, 0)
    values = [(p, ProjPoint.of(-3, 0, 0, 0)),
              (ProjPlane(p.coords), ProjPlane([PHI, 0, 0, 0])),
              (ProjLine(p, q),
               ProjLine(ProjPoint.of(1, PHI, 0, 0), ProjPoint.of(2, 0, 0, 0)))]
    for x, same in values:
        assert x == same and x.pairs == same.pairs and x is not same
        assert hash(x) == hash(same) == hash((type(x).__name__, x.pairs))
        with pytest.raises(AttributeError,
                           match=f"^{type(x).__name__} is immutable$"):
            x.pairs = ()
    assert values[0][0] != values[1][0] and len({x for x, _ in values}) == 3


def test_degenerate_spans_raise():
    p = ProjPoint.of(1, 0, 0, 0)
    with pytest.raises(DegenerateSpanError):
        ProjLine(p, ProjPoint([x * FieldElement(3) for x in p.coords]))
    with pytest.raises(DegenerateSpanError):
        plane_through(p, p, ProjPoint.of(0, 1, 0, 0))


def test_meeting_lines_share_their_intersection_point():
    rng = random.Random(37)
    found = 0
    while found < 30:
        a, b, c = (_random_point(rng) for _ in range(3))
        if len({a, b, c}) < 3:
            continue
        try:
            l1, l2 = ProjLine(a, b), ProjLine(a, c)
        except DegenerateSpanError:
            continue
        if l1 == l2:
            continue
        assert lines_meet(l1, l2)
        x = _intersection_point(l1, l2)
        assert x == a
        found += 1


def test_skew_lines_report_nonzero_pairing():
    l1 = ProjLine(ProjPoint.of(1, 0, 0, 0), ProjPoint.of(0, 1, 0, 0))
    l2 = ProjLine(ProjPoint.of(0, 0, 1, 0), ProjPoint.of(0, 0, 0, 1))
    assert not lines_meet(l1, l2)
    assert not _reference_pairing(l1, l2).is_zero()
    with pytest.raises(ValueError):
        _intersection_point(l1, l2)


def test_plane_through_three_points_contains_them():
    rng = random.Random(41)
    done = 0
    while done < 30:
        pts = [_random_point(rng) for _ in range(3)]
        try:
            v = plane_through(*pts)
        except DegenerateSpanError:
            assert len(linalg.nullspace([p.pairs for p in pts])) > 1
            continue
        for p in pts:
            assert v.contains(p)
        # The plane the deleted nullspace span gave.
        assert v == ProjPlane([FieldElement(*w) for w in
                               linalg.nullspace([p.pairs for p in pts])[0]])
        done += 1


def test_incidence_invariance_under_coordinate_changes():
    rng = random.Random(43)
    p = ProjPoint.of(1, 2, 3, 4)
    q = ProjPoint.of(0, 1, PHI, 1)
    r = ProjPoint.of(1, 0, 0, 1)
    line = ProjLine(p, q)
    plane = plane_through(p, q, r)
    off_plane = ProjPoint.of(1, 0, 0, 0)
    assert not plane.contains(off_plane)
    for _ in range(100):
        m = _random_coordinate_change(rng)
        mp, mq, mr = m.apply_point(p), m.apply_point(q), m.apply_point(r)
        mline = ProjLine(m.apply_point(line.p), m.apply_point(line.q))
        mplane = m.apply_plane(plane)
        assert on_line(mline, mp) and on_line(mline, mq)
        assert all(mplane.contains(x) for x in (mp, mq, mr))
        assert mplane.contains(mline.p) and mplane.contains(mline.q)
        assert not mplane.contains(m.apply_point(off_plane))


def test_point_json_roundtrip():
    p = ProjPoint.of(PHI, 0, FieldElement(Fraction(1, 2)), 1)
    assert proj_point(p.to_json()) == p
    line = ProjLine(p, ProjPoint.of(1, 0, 0, 0))
    assert proj_line(line.to_json()) == line


def _random_element(rng, zero_weight=3):
    """A small element of Q(phi), zero with odds 1 in zero_weight."""
    if rng.randrange(zero_weight) == 0:
        return ZERO
    return FieldElement(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def _random_vector(rng, n=4):
    while True:
        coords = [_random_element(rng) for _ in range(n)]
        if any(not x.is_zero() for x in coords):
            return coords


SCALES = (-ONE, PHI, ONE / PHI, FieldElement(Fraction(-3, 7)),
          FieldElement(Fraction(5, 2)), FieldElement(Fraction(2, 3), -1))


def test_canonical_form_matches_the_inverse_reference():
    """The pair canonical form is the divide-by-the-lead form, and no Q(phi)
    multiple of the input moves it."""
    rng = random.Random(53)
    irrational_lead = negative_lead = leading_zero = 0
    for _ in range(600):
        coords = _random_vector(rng, rng.choice((3, 4, 6)))
        canon = canonicalize(coords)
        assert canon == _reference_canonicalize(coords)
        for scale in SCALES:
            assert canonicalize([x * scale for x in coords]) == canon
        numerators = primitive_numerators(coords)
        x, y = next(w for w in numerators if w != (0, 0))
        irrational_lead += y != 0
        negative_lead += x * x + x * y - y * y < 0
        leading_zero += coords[0].is_zero()
        if len(coords) == 4:
            p = ProjPoint(coords)
            assert p.coords == canon
            assert p.pairs == tuple((e.a, e.b) for e in canon)
            lead = next(w for w in p.pairs if w != (0, 0))
            assert lead[0] > 0 and lead[1] == 0
            assert gcd(*(v for w in p.pairs for v in w)) == 1
    assert irrational_lead > 100 and negative_lead > 50 and leading_zero > 100


def test_pair_predicates_match_the_references_on_the_configuration(cfg):
    points = list(cfg.points.values())
    for v in cfg.planes.values():
        for p in points:
            assert v.contains(p) == _reference_in_plane(v, p)
    meeting = 0
    for l1, l2 in combinations(cfg.lines.values(), 2):
        meet = lines_meet(l1, l2)
        assert meet == _reference_pairing(l1, l2).is_zero()
        meeting += meet
    assert meeting == 900
    on = 0
    for line in cfg.lines.values():
        assert line.pluecker == _reference_pluecker(line.p, line.q)
        for p in points:
            inside = on_line(line, p)
            assert inside == _reference_on_line(line, p)
            on += inside
    assert on == 72 * 5


def test_pair_predicates_match_the_references_on_random_flats():
    """Random points, many with zero coordinates, and flats through them."""
    rng = random.Random(59)
    corners = [ProjPoint.of(*[int(i == j) for j in range(4)]) for i in range(4)]
    counts = {"in_plane": 0, "off_plane": 0, "on_line": 0, "off_line": 0,
              "meet": 0, "skew": 0}
    for _ in range(150):
        p, q, r = (ProjPoint(_random_vector(rng)) for _ in range(3))
        a, b = _random_element(rng, 5), _random_element(rng, 5)
        mix = [a * x + b * y for x, y in zip(p.coords, q.coords)]
        others = [ProjPoint(_random_vector(rng)) for _ in range(3)] + corners
        if any(not x.is_zero() for x in mix):
            others.append(ProjPoint(mix))
        if p != q:
            line = ProjLine(p, q)
            assert line.pluecker == _reference_pluecker(p, q)
            for x in [p, q, r] + others:
                inside = on_line(line, x)
                assert inside == _reference_on_line(line, x)
                counts["on_line" if inside else "off_line"] += 1
            lines = [ProjLine(x, y) for x, y in combinations([p, r] + others, 2)
                     if x != y]
            for other in lines:
                if other != line:
                    meet = lines_meet(line, other)
                    assert meet == _reference_pairing(line, other).is_zero()
                    counts["meet" if meet else "skew"] += 1
        planes = [ProjPlane(_random_vector(rng))]
        try:
            planes.append(plane_through(p, q, r))
        except DegenerateSpanError:
            pass
        for plane in planes:
            for x in [p, q, r] + others:
                inside = plane.contains(x)
                assert inside == _reference_in_plane(plane, x)
                counts["in_plane" if inside else "off_plane"] += 1
    assert min(counts.values()) > 100, counts


def _hard_coded_pairing(a, b):
    """The pairing on canonical pairs as lines_meet wrote it out before the
    dual table: a01*b23 - a02*b13 + a03*b12 + a12*b03 - a13*b02 + a23*b01."""
    neg = lambda w: (-w[0], -w[1])  # noqa: E731
    return _dot(a, (b[5], neg(b[4]), b[3], b[2], neg(b[1]), b[0]))


def test_lines_meet_matches_the_hard_coded_pairing_on_all_line_pairs(cfg):
    lines = list(cfg.lines.values())
    meeting = 0
    for l1 in lines:
        for l2 in lines:
            if l1 is not l2:
                meet = lines_meet(l1, l2)
                assert meet == (_hard_coded_pairing(l1.pairs, l2.pairs) == (0, 0))
                meeting += meet
    assert meeting == 2 * 900


def _small_point(rng) -> ProjPoint:
    """Coordinates a + b*phi with a, b in -3..3, not all zero."""
    while True:
        coords = [FieldElement(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(4)]
        if any(not x.is_zero() for x in coords):
            return ProjPoint(coords)


def _skew_triple(rng):
    """Three pairwise skew lines, each with three of its points."""
    while True:
        spans = [(_small_point(rng), _small_point(rng)) for _ in range(3)]
        if any(p == q for p, q in spans):
            continue
        lines = [ProjLine(p, q) for p, q in spans]
        if any(a == b or lines_meet(a, b) for a, b in combinations(lines, 2)):
            continue
        on = [[p, q, ProjPoint([x + y for x, y in zip(p.coords, q.coords)])]
              for p, q in spans]
        return lines, on


def test_transversal_quadric_is_the_quadric_of_three_skew_lines():
    """Beyond H4, for the reference formula: Q is nonzero, vanishes at three
    points of each line, and is the one quadric through those nine points."""
    rng = random.Random(16)
    cols = monomials(2, 4)
    for _ in range(40):
        lines, on = _skew_triple(rng)
        pairs = transversal_quadric(*lines)
        assert any(w != (0, 0) for w in pairs)
        q = HomForm(4, 2, {c: FieldElement(*w) for c, w in zip(cols, pairs)})
        nine = [x.pairs for row in on for x in row]
        assert len(set(nine)) == 9
        assert all(q.vanishes_at(x) for x in nine)
        assert vanishing_space(nine, 2, 4) == [monic(q)]


def test_three_skew_h4_lines_lie_on_one_quadric(cfg):
    """Known answer for the theorem of `config.verify_grid`, apart from the
    grid code: for the first 30 pairwise skew triples of the 72 lines, in
    lexicographic order, the quadrics through the 15 points on the three
    lines are exactly the multiples of their transversal quadric (the
    reference formula above)."""
    cols = monomials(2, 4)
    skew = (t for t in combinations(sorted(cfg.lines), 3)
            if not any(b in cfg.meets[a] for a, b in combinations(t, 2)))
    triples = list(islice(skew, 30))
    assert len(triples) == 30
    for triple in triples:
        pairs = transversal_quadric(*(cfg.lines[i] for i in triple))
        q = HomForm(4, 2, {c: FieldElement(*w) for c, w in zip(cols, pairs)})
        fifteen = [cfg.points[p].pairs for i in triple for p in cfg.line_points[i]]
        assert len(set(fifteen)) == 15
        assert vanishing_space(fifteen, 2, 4) == [monic(q)]
