"""Projective points, planes and lines in P^3 over Q(phi), with exact incidence.

Every flat is stored in a canonical form: homogeneous coordinates are cleared
to Z[phi], divided by their integer content, and sign-normalized so the first
nonzero coordinate has a positive rational part (or, failing that, a positive
phi part).  Equality and hashing are therefore componentwise.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from . import linalg
from .field import FieldElement, ZERO, primitive_numerators


class DegenerateSpanError(ValueError):
    """Raised when asked for the flat spanned by coincident inputs."""


def canonicalize(coords: Sequence[FieldElement]) -> Tuple[FieldElement, ...]:
    """Canonical representative of a nonzero homogeneous coordinate vector.

    Dividing by the first nonzero coordinate removes every Q(phi) scalar
    (including units like phi itself); clearing denominators then lands on
    coprime Z[phi] coordinates whose first nonzero entry is a positive
    integer.  Representatives of the same projective flat always agree.
    """
    if all(x.is_zero() for x in coords):
        raise ValueError("all coordinates are zero")
    lead = next(x for x in coords if not x.is_zero())
    inv = lead.inverse()
    return tuple(FieldElement(x, y)
                 for x, y in primitive_numerators([c * inv for c in coords]))


class _Flat:
    """Common machinery for points and planes (a canonical 4-vector)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[FieldElement]):
        if len(coords) != 4:
            raise ValueError("expected 4 homogeneous coordinates")
        object.__setattr__(self, "coords", canonicalize(coords))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coords))

    def __repr__(self) -> str:
        inner = " : ".join(str(x) for x in self.coords)
        return f"{type(self).__name__}[{inner}]"

    def to_json(self) -> list:
        return [x.to_json() for x in self.coords]

    @classmethod
    def from_json(cls, obj) -> "_Flat":
        return cls([FieldElement.from_json(x) for x in obj])


class ProjPoint(_Flat):
    """A point of P^3 in canonical homogeneous coordinates."""

    @classmethod
    def of(cls, *coords) -> "ProjPoint":
        return cls([x if isinstance(x, FieldElement) else FieldElement(x)
                    for x in coords])


class ProjPlane(_Flat):
    """A plane {ax + by + cz + dw = 0}, stored by its canonical coefficients."""

    @classmethod
    def of(cls, *coeffs) -> "ProjPlane":
        return cls([x if isinstance(x, FieldElement) else FieldElement(x)
                    for x in coeffs])

    def evaluate(self, p: ProjPoint) -> FieldElement:
        return sum((c * x for c, x in zip(self.coords, p.coords)), ZERO)

    def contains(self, p: ProjPoint) -> bool:
        return self.evaluate(p).is_zero()


class ProjLine:
    """A line of P^3: canonical Pluecker coordinates plus two spanning points.

    Pluecker coordinates give O(1) meet/skew tests; the spanning points back
    the rank-based membership and containment tests.
    """

    __slots__ = ("pluecker", "p", "q")

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if p == q:
            raise DegenerateSpanError("coincident points do not span a line")
        pl = [p.coords[i] * q.coords[j] - p.coords[j] * q.coords[i]
              for (i, j) in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
        object.__setattr__(self, "pluecker", canonicalize(pl))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("ProjLine is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjLine) and self.pluecker == other.pluecker

    def __hash__(self) -> int:
        return hash(("ProjLine", self.pluecker))

    def __repr__(self) -> str:
        return f"ProjLine({self.pluecker})"

    def contains(self, x: ProjPoint) -> bool:
        m = [list(x.coords), list(self.p.coords), list(self.q.coords)]
        return linalg.rank(m) == 2

    def to_json(self) -> dict:
        return {
            "pluecker": [x.to_json() for x in self.pluecker],
            "span": [self.p.to_json(), self.q.to_json()],
        }

    @classmethod
    def from_json(cls, obj) -> "ProjLine":
        return cls(ProjPoint.from_json(obj["span"][0]),
                   ProjPoint.from_json(obj["span"][1]))


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    return ProjLine(p, q)


def pluecker_pairing(l1: ProjLine, l2: ProjLine) -> FieldElement:
    a, b = l1.pluecker, l2.pluecker
    return (a[0] * b[5] - a[1] * b[4] + a[2] * b[3]
            + a[5] * b[0] - a[4] * b[1] + a[3] * b[2])


def lines_meet(l1: ProjLine, l2: ProjLine) -> bool:
    """True iff the lines intersect (the Pluecker pairing vanishes)."""
    if l1 == l2:
        raise ValueError("lines_meet expects two distinct lines")
    return pluecker_pairing(l1, l2).is_zero()


def plane_through(*members) -> ProjPlane:
    """The plane spanned by three points, or by a line and a point."""
    rows: List[List[FieldElement]] = []
    for m in members:
        if isinstance(m, ProjPoint):
            rows.append(list(m.coords))
        elif isinstance(m, ProjLine):
            rows.append(list(m.p.coords))
            rows.append(list(m.q.coords))
        else:
            raise TypeError(f"unsupported span member {type(m).__name__}")
    kernel = linalg.nullspace(rows)
    if len(kernel) != 1:
        raise DegenerateSpanError("span does not determine a unique plane")
    return ProjPlane(kernel[0])


class ProjMatrix:
    """An invertible 4x4 change of coordinates on P^3."""

    __slots__ = ("rows", "_inv")

    def __init__(self, rows: Sequence[Sequence[FieldElement]]):
        rows = [[x if isinstance(x, FieldElement) else FieldElement(x) for x in r]
                for r in rows]
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("expected a 4x4 matrix")
        if linalg.determinant(rows).is_zero():
            raise ZeroDivisionError("singular coordinate change")
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "_inv", None)

    def __setattr__(self, name, value):
        raise AttributeError("ProjMatrix is immutable")

    def inverse(self) -> "ProjMatrix":
        if self._inv is None:
            object.__setattr__(self, "_inv",
                               ProjMatrix(linalg.inverse([list(r) for r in self.rows])))
        return self._inv

    def apply_point(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(linalg.mat_vec(self.rows, p.coords))

    def apply_plane(self, v: ProjPlane) -> ProjPlane:
        # Planes transform by the inverse transpose so incidence is preserved.
        inv_t = linalg.transpose([list(r) for r in self.inverse().rows])
        return ProjPlane(linalg.mat_vec(inv_t, v.coords))
