"""Projective points, planes and lines in P^3 over Q(phi), with exact incidence.

Every flat is stored in a canonical form: its homogeneous coordinates are
scaled to coprime elements of Z[phi] whose first nonzero entry is a positive
rational integer.  A flat keeps those numerators as integer pairs (x, y),
meaning x + y*phi, in ``pairs``, next to the same values as FieldElements in
``coords`` (``pluecker`` for a line).  Equality and hashing compare the
pairs, and every incidence predicate is an exact integer computation on
them by `field`'s Z[phi] kernels.  The line through p and q has Pluecker
pairs L_ij = p_i*q_j - p_j*q_i (`_minors`), dual pairs (L_23, -L_13, L_12,
L_03, -L_02, L_01) (`_dual`, the one sign table; a line stores them as
``dual``), and their antisymmetric matrices L and L* (`_matrix`): L*x is
the plane through the line and x, L.pi its meet with pi.

* a point lies in a plane when the dot product of their pairs is zero;
* two lines meet when one's pairs dotted with the other's dual give zero.

Plane spans and the projection from a vertex are closed-form minors; the
arguments are at `plane_through`, `image_from` and `plane_image`.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import Iterable, List, Sequence, Tuple

from . import linalg
from .field import (FieldElement, Pair, _coerce, _dot, _neg, conj, norm,
                    primitive_numerators, products)

# Pluecker coordinates are ordered by the index pairs ij below.
_PLUECKER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class DegenerateSpanError(ValueError):
    """Raised when asked for the flat spanned by coincident inputs."""


def _canonical_pairs(pairs: Sequence[Pair]) -> Tuple[Pair, ...]:
    """The canonical representative of a nonzero vector over Z[phi].

    Multiplying by the conjugate of the first nonzero entry w turns that
    entry into the rational integer N(w) = w*conj(w).  Dividing by the
    integer content, signed like N(w), leaves coprime Z[phi] entries led by
    a positive integer.  The result is the vector divided by w, times a
    positive rational, and only one such multiple has coprime Z[phi]
    entries, so every nonzero Q(phi) multiple of the vector has the same
    canonical form.
    """
    lead = next((w for w in pairs if w != (0, 0)), None)
    if lead is None:
        raise ValueError("all coordinates are zero")
    prods = products(zip(pairs, repeat(conj(lead))))
    content = gcd(*[v for w in prods for v in w])
    if norm(lead) < 0:  # N(w), the new lead
        content = -content
    return tuple((x // content, y // content) for x, y in prods)


def _elements(pairs: Iterable[Pair]) -> Tuple[FieldElement, ...]:
    return tuple(FieldElement(x, y) for x, y in pairs)


def canonicalize(coords: Sequence[FieldElement]) -> Tuple[FieldElement, ...]:
    """Canonical representative of a nonzero homogeneous coordinate vector.

    The coordinates are cleared to Z[phi] numerators and put in the
    canonical form of `_canonical_pairs`: coprime, led by a positive
    integer.  Representatives of the same projective flat always agree.
    """
    return _elements(_canonical_pairs(primitive_numerators(coords)))


def _minors(p: Sequence[Pair], q: Sequence[Pair],
            index_pairs: Sequence[Tuple[int, int]]) -> List[Pair]:
    """The 2x2 minors p_i*q_j - p_j*q_i of the rows p, q, for each ij."""
    plus = products((p[i], q[j]) for i, j in index_pairs)
    minus = products((p[j], q[i]) for i, j in index_pairs)
    return [(a - c, b - d) for (a, b), (c, d) in zip(plus, minus)]


def pluecker_pairs(p: Sequence[Pair], q: Sequence[Pair]) -> Tuple[Pair, ...]:
    """Canonical Pluecker pairs of the line through two distinct points.

    The points are given by their Z[phi] pairs; the coordinates are the
    minors p_i*q_j - p_j*q_i in the order of `_PLUECKER`.
    """
    return _canonical_pairs(_minors(p, q, _PLUECKER))


class _Canonical:
    """An immutable value: equal and hashed by its type and canonical ``pairs``."""

    __slots__ = ("pairs",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.pairs))


class _Flat(_Canonical):
    """Points and planes: a canonical 4-vector of elements, ints or Fractions."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[FieldElement]):
        if len(coords) != 4:
            raise ValueError("expected 4 homogeneous coordinates")
        pairs = _canonical_pairs(primitive_numerators(map(_coerce, coords)))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "coords", _elements(pairs))

    def __repr__(self) -> str:
        inner = " : ".join(str(x) for x in self.coords)
        return f"{type(self).__name__}[{inner}]"

    def to_json(self) -> list:
        return [x.to_json() for x in self.coords]


class ProjPoint(_Flat):
    """A point of P^3 in canonical homogeneous coordinates."""

    @classmethod
    def of(cls, *coords) -> "ProjPoint":
        return cls(coords)


class ProjPlane(_Flat):
    """A plane {ax + by + cz + dw = 0}, stored by its canonical coefficients."""

    def contains(self, p: ProjPoint) -> bool:
        return _dot(self.pairs, p.pairs) == (0, 0)


class ProjLine(_Canonical):
    """A line of P^3: canonical Pluecker coordinates plus two spanning points.

    The Pluecker pairs and their dual, both stored, decide the meet test;
    the spanning points back plane spans and JSON.
    """

    __slots__ = ("pluecker", "dual", "p", "q")

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if p == q:
            raise DegenerateSpanError("coincident points do not span a line")
        pairs = pluecker_pairs(p.pairs, q.pairs)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "dual", _dual(pairs))
        object.__setattr__(self, "pluecker", _elements(pairs))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __repr__(self) -> str:
        return f"ProjLine({self.pluecker})"

    def to_json(self) -> dict:
        return {
            "pluecker": [x.to_json() for x in self.pluecker],
            "span": [self.p.to_json(), self.q.to_json()],
        }


def _dual(ls: Sequence[Pair]) -> Tuple[Pair, ...]:
    """The dual Pluecker coordinates (l23, -l13, l12, l03, -l02, l01)."""
    return (ls[5], _neg(ls[4]), ls[3], ls[2], _neg(ls[1]), ls[0])


def _matrix(ls: Sequence[Pair]) -> List[List[Pair]]:
    """The antisymmetric 4x4 matrix with entry l_ij at (i, j), i < j."""
    l01, l02, l03, l12, l13, l23 = ls
    n01, n02, n03, n12, n13, n23 = map(_neg, ls)
    return [[(0, 0), l01, l02, l03], [n01, (0, 0), l12, l13],
            [n02, n12, (0, 0), l23], [n03, n13, n23, (0, 0)]]


def lines_meet(l1: ProjLine, l2: ProjLine) -> bool:
    """True iff the lines intersect: the Pluecker pairing with the dual,
    a01*b23 - a02*b13 + a03*b12 + a12*b03 - a13*b02 + a23*b01, is zero."""
    if l1 == l2:
        raise ValueError("lines_meet expects two distinct lines")
    return _dot(l1.pairs, l2.dual) == (0, 0)


def transversal_quadric(l1: ProjLine, l2: ProjLine, l3: ProjLine) -> Tuple[Pair, ...]:
    """The pairs of x -> x^T M x, M = L1* L2 L3*, on the x_i*x_j, i <= j in
    lexicographic (graded-lex) order: M_ij + M_ji, or M_ii when i = j.

    For skew lines this is the quadric of their common transversals: L3*x
    is the plane of l3 and x, L2 sends it to the point y where l2 meets it,
    and x lies in the plane L1*y of l1 and y when the line xy, which meets
    l2 and l3, meets l1.  `config.grid_quadric` certifies what it returns.
    """
    m = _matrix(l1.dual)
    for factor in (_matrix(l2.pairs), _matrix(l3.dual)):
        m = [[_dot(row, col) for col in zip(*factor)] for row in m]
    return tuple(m[i][i] if i == j else (m[i][j][0] + m[j][i][0], m[i][j][1] + m[j][i][1])
                 for i in range(4) for j in range(i, 4))


def plane_through(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> ProjPlane:
    """The plane x -> det[p, q, r, x], whose x_i coefficient is (-1)**(i + 1)
    times the minor of the rows p, q, r without column i.  It kills p, q and
    r (repeated rows), and it is nonzero exactly when the rows have rank 3,
    that is when they span a plane, whose equation is then this form."""
    rows = [p.coords, q.coords, r.coords]
    coeffs = [linalg.determinant([row[:i] + row[i + 1:] for row in rows])
              for i in range(4)]
    if all(c.is_zero() for c in coeffs):
        raise DegenerateSpanError("the points do not span a plane")
    return ProjPlane([c if i % 2 else -c for i, c in enumerate(coeffs)])


def _pivot(vertex: ProjPoint) -> int:
    return next(i for i, w in enumerate(vertex.pairs) if w != (0, 0))


def image_from(vertex: ProjPoint, x: ProjPoint) -> Tuple[Pair, ...]:
    """The image of x under projection from v onto P^2: with k the pivot
    (first nonzero coordinate) of v, the canonical pairs of the three minors
    v_k*x_i - v_i*x_k, i != k (row k of the Pluecker matrix of the line vx).

    Soundness: e_i (i != k) and v form a basis (their determinant is
    +-v_k != 0), and x = sum_{i != k} y_i*e_i + (x_k/v_k)*v with
    y_i = x_i - v_i*x_k/v_k.  Projecting from v forgets the v-coordinate,
    so the image is (y_i), which is the minors over v_k.  The image is
    defined for x != v, and two such points have the same image exactly
    when they are collinear with v."""
    k = _pivot(vertex)
    return _canonical_pairs(_minors(vertex.pairs, x.pairs,
                                    [(k, i) for i in range(4) if i != k]))


def plane_image(vertex: ProjPoint, plane: ProjPlane) -> Tuple[FieldElement, ...]:
    """The linear form that a plane H through v pushes down to: the
    canonical (H_i) for i != k, k the pivot of v.

    With pi(x) the image before canonicalizing and H(v) = 0,
    sum_{i != k} H_i*pi(x)_i = v_k*H(x) - x_k*H(v) = v_k*H(x), so the form
    vanishes at the image of x exactly when H contains x.  It is nonzero,
    since H = H_k*x_k would give H(v) = H_k*v_k != 0."""
    k = _pivot(vertex)
    return _elements(_canonical_pairs(
        [w for i, w in enumerate(plane.pairs) if i != k]))
