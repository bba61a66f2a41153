"""Exact arithmetic in the real quadratic field Q(sqrt5) on the basis {1, phi}.

An element is (x + y*phi)/d with Python ints x, y and d, where phi =
(1+sqrt5)/2 is the golden ratio.  The triple is kept normalized, d > 0 and
gcd(x, y, d) = 1, so equal elements have equal triples and the type is
hashable.  All operations are exact integer formulas.  `fractions.Fraction`
appears only at the edges: the constructor, `a`/`b` and the hash of
rational elements.  Only this module knows the triple; others clear
denominators through `common_numerators` or `primitive_numerators`, compute
on the Z[phi] pairs (x, y) they return, and put pairs back over a
denominator through `from_numerators`.  It is also the only module that
knows the ring Z[phi]: its rule phi**2 = phi + 1 on elements (`*`), on
lists of factor pairs (`products`) and summed (`_dot`), the negation `_neg`,
the conjugate `conj`, the norm `norm` and the reduction `residues` modulo a
degree-1 prime.  Outside this module only the plane span
(`linalg.determinant`) runs the element operators; all else runs on pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple, Union

_RationalLike = Union[int, Fraction]
Pair = Tuple[int, int]  # x + y*phi in Z[phi]


class FieldElement:
    """a + b*phi for ints (bools too) or Fractions a, b; other types raise TypeError."""

    __slots__ = ("_v",)  # the normalized triple (x, y, d)

    def __init__(self, a: _RationalLike = 0, b: _RationalLike = 0):
        if type(a) is int and type(b) is int:
            _set_v(self, (a, b, 1))
            return
        for v in (a, b):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(v).__name__} into Q(phi)")
        # With a = p/q and b = r/s reduced, gcd(x, y, d) = 1 already.
        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)
        _set_v(self, (a.numerator * (d // a.denominator),
                      b.numerator * (d // b.denominator), d))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def a(self) -> Fraction:
        """The rational part."""
        x, _, d = self._v
        return Fraction(x, d)

    @property
    def b(self) -> Fraction:
        """The phi part."""
        _, y, d = self._v
        return Fraction(y, d)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        x1, y1, d1 = self._v
        x2, y2, d2 = _coerce(other)._v
        if d1 == d2:
            return _make(x1 + x2, y1 + y2, d1)
        return _make(x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + -_coerce(other)

    def __rsub__(self, other) -> "FieldElement":
        return _coerce(other) - self

    def __neg__(self) -> "FieldElement":
        x, y, d = self._v
        return _raw(-x, -y, d)

    def __mul__(self, other) -> "FieldElement":
        # `products` on one pair of factors, inlined.
        x1, y1, d1 = self._v
        x2, y2, d2 = _coerce(other)._v
        yy = y1 * y2
        return _make(x1 * x2 + yy, x1 * y2 + x2 * y1 + yy, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the norm: 1/w = conj(w)/N(w)."""
        return _divide(ONE, self)

    def __truediv__(self, other) -> "FieldElement":
        return _divide(self, _coerce(other))

    def __rtruediv__(self, other) -> "FieldElement":
        return _divide(_coerce(other), self)

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- predicates and hashing -----------------------------------------

    def is_zero(self) -> bool:
        v = self._v
        return v[0] == 0 and v[1] == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self._v == other._v
        if isinstance(other, int):
            return self._v == (other, 0, 1)
        if isinstance(other, Fraction):
            return self._v == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        # A rational element hashes as the int or Fraction it equals.
        x, y, d = self._v
        if y:
            return hash(self._v)
        return hash(x) if d == 1 else hash(Fraction(x, d))

    def __repr__(self) -> str:
        return f"FieldElement({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*phi"
        sign = "+" if b > 0 else "-"
        return f"{a} {sign} {abs(b)}*phi"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}


_new = object.__new__
_set_v = FieldElement._v.__set__  # bypasses the immutability guard


def _raw(x: int, y: int, d: int) -> FieldElement:
    """An element from a triple that is already normalized."""
    e = _new(FieldElement)
    _set_v(e, (x, y, d))
    return e


def _make(x: int, y: int, d: int) -> FieldElement:
    """An element from a triple with d != 0, normalized."""
    if d < 0:
        x, y, d = -x, -y, -d
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    return _raw(x, y, d)


def _divide(u: FieldElement, w: FieldElement) -> FieldElement:
    """u / w in one step: u * conj(w) * d_w / (d_u * N(w)).

    With u and w in Z[phi] (d = 1) the quotient is the integer triple
    (u * conj(w), N(w)) reduced by its gcd, so an exact quotient comes out
    with d = 1.
    """
    x1, y1, d1 = u._v
    x2, y2, d2 = w._v
    n = norm((x2, y2))
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(phi)")
    [(x, y)] = products([((x1, y1), conj((x2, y2)))])
    if d2 != 1:
        x, y = x * d2, y * d2
    return _make(x, y, d1 * n)


def _coerce(x) -> FieldElement:
    return x if isinstance(x, FieldElement) else FieldElement(x)


def common_numerators(elems: Iterable[FieldElement]) -> Tuple[List[Pair], int]:
    """Pairs (x, y) over one denominator d, the lcm: each element is (x + y*phi)/d."""
    triples = [e._v for e in elems]
    scale = lcm(*(d for _, _, d in triples))
    return [(x * (scale // d), y * (scale // d)) for x, y, d in triples], scale


def from_numerators(pairs: Iterable[Pair], d: int) -> List[FieldElement]:
    """The elements (x + y*phi)/d, d != 0, each normalized once."""
    return [_make(x, y, d) for x, y in pairs]


def primitive_numerators(elems: Iterable[FieldElement]) -> List[Pair]:
    """Scale the elements by one positive rational to coprime Z[phi] elements.

    Returns the pairs (x, y) of the scaled elements x + y*phi, in input
    order: the common numerators over their integer content, which is then 1
    unless every element is zero.  Canonical coordinates and form coefficient
    pairs read their numerators through this; no other module sees the triple.
    """
    pairs, _ = common_numerators(elems)
    content = gcd(*(v for pair in pairs for v in pair))
    if content > 1:
        pairs = [(x // content, y // content) for x, y in pairs]
    return pairs


def products(factor_pairs: Iterable[Tuple[Pair, Pair]]) -> List[Pair]:
    """The Z[phi] product u*v of each pair of factors (u, v), in order:
    (a + b*phi)(c + d*phi) = ac + bd + (ad + bc + bd)*phi."""
    return [(a * c + b * d, a * d + b * c + b * d) for (a, b), (c, d) in factor_pairs]


def _dot(u: Sequence[Pair], v: Sequence[Pair]) -> Pair:
    """The Z[phi] dot product sum u_i * v_i: `products`, summed in one loop."""
    sx = sy = 0
    for (a, b), (c, d) in zip(u, v):
        t = b * d
        sx += a * c + t
        sy += a * d + b * c + t
    return sx, sy


def _neg(w: Pair) -> Pair:
    return (-w[0], -w[1])


def conj(w: Pair) -> Pair:
    """The Galois conjugate, sqrt5 -> -sqrt5: x + y*phi -> (x + y) - y*phi."""
    x, y = w
    return x + y, -y


def norm(w: Pair) -> int:
    """The norm N(w) = w * conj(w) = x^2 + xy - y^2 of w = x + y*phi."""
    x, y = w
    return x * x + x * y - y * y


def residues(pairs: Iterable[Pair], p: int, r: int) -> List[int]:
    """The images (x + y*r) mod p of the pairs x + y*phi: for r a root of
    x^2 - x - 1 mod a prime p, the ring map Z[phi] -> F_p modulo (p, phi - r).
    The other root is 1 - r, where each w has the residue of conj(w) at r."""
    return [(x + y * r) % p for x, y in pairs]


ZERO = FieldElement(0)
ONE = FieldElement(1)
PHI = FieldElement(0, 1)
PHI2 = FieldElement(1, 1)  # phi**2 = 1 + phi
