"""Projective points, planes and lines in P^3 over Q(phi), with exact incidence.

Every flat is stored in a canonical form, and only in it: its homogeneous
coordinates scaled to coprime elements of Z[phi] whose first nonzero entry
is a positive rational integer, kept as the integer pairs (x, y), meaning
x + y*phi, in ``pairs`` (`_canonical_pairs`).  Equality and hashing compare
the pairs, and a point lies in a plane when the dot product of their pairs
is zero, an exact integer computation by `field`'s Z[phi] kernels.  The line
through p and q has Pluecker pairs L_ij = p_i*q_j - p_j*q_i (`_minors`).
Coordinates given as FieldElements enter through `canonicalize`.

The projection from a vertex is closed-form minors, of points and of lines;
the arguments are at `image_from` and `line_image`.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import List, Sequence, Tuple

from . import linalg
from .field import (FieldElement, Pair, _dot, _neg, conj, json_pair, norm,
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


def canonicalize(coords: Sequence[FieldElement]) -> Tuple[Pair, ...]:
    """The canonical pairs of a nonzero homogeneous coordinate vector given
    as FieldElements, where parsed coordinates enter: cleared to Z[phi]
    numerators and put in the form of `_canonical_pairs`.  Representatives
    of the same projective flat always agree."""
    return _canonical_pairs(primitive_numerators((c.a, c.b) for c in coords))


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
    """Points and planes: the canonical pairs of a nonzero Z[phi] 4-vector."""

    __slots__ = ()

    def __init__(self, pairs: Sequence[Pair]):
        if len(pairs) != 4:
            raise ValueError("expected 4 homogeneous coordinates")
        object.__setattr__(self, "pairs", _canonical_pairs(pairs))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.pairs})"

    def to_json(self) -> list:
        return [json_pair(w) for w in self.pairs]


class ProjPoint(_Flat):
    """A point of P^3 in canonical homogeneous coordinates."""

    @classmethod
    def of(cls, *coords: int) -> "ProjPoint":
        """The point with these integer coordinates."""
        return cls([(v, 0) for v in coords])


class ProjPlane(_Flat):
    """A plane {ax + by + cz + dw = 0}, stored by its canonical coefficients."""

    def contains(self, p: ProjPoint) -> bool:
        return _dot(self.pairs, p.pairs) == (0, 0)


class ProjLine(_Canonical):
    """A line of P^3: canonical Pluecker pairs plus two spanning points.

    The Pluecker pairs identify the line; the spanning points back pushed
    lines and JSON.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if p == q:
            raise DegenerateSpanError("coincident points do not span a line")
        object.__setattr__(self, "pairs", pluecker_pairs(p.pairs, q.pairs))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __repr__(self) -> str:
        return f"ProjLine({self.pairs})"

    def to_json(self) -> dict:
        return {
            "pluecker": [json_pair(w) for w in self.pairs],
            "span": [self.p.to_json(), self.q.to_json()],
        }


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


def line_image(vertex: ProjPoint, line: ProjLine) -> Tuple[Pair, ...]:
    """The image of the line pq: the canonical H_i, i != k (k the pivot of
    v), of H: x -> det[p, q, v, x], each (-1)**(i + 1) times the minor of p,
    q, v without column i.  H kills p, q, v, so at the image pi(x) of
    `image_from`, before canonicalizing, sum_{i != k} H_i*pi(x)_i = v_k*H(x):
    zero exactly when H contains x.  If the kept minors vanish, 0 = H(v) =
    H_k*v_k makes H = 0, so v is on the line: DegenerateSpanError.

    The minors alone are `linalg.determinant` on FieldElement rows, built
    here from the pairs; it is the one determinant the package takes, and
    the one verdict step that runs FieldElement arithmetic.  Minors of
    integer rows lie in Z[phi], so their parts come back as ints."""
    k = _pivot(vertex)
    rows = [[FieldElement(x, y) for x, y in flat.pairs]
            for flat in (line.p, line.q, vertex)]
    cols = [i for i in range(4) if i != k]
    minors = [linalg.determinant([row[:i] + row[i + 1:] for row in rows])
              for i in cols]
    minors = primitive_numerators((m.a, m.b) for m in minors)
    if all(w == (0, 0) for w in minors):
        raise DegenerateSpanError("the vertex lies on the line")
    return _canonical_pairs([w if i % 2 else _neg(w) for i, w in zip(cols, minors)])
