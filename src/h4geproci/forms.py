"""Homogeneous polynomial algebra over Q(phi).

A form keeps its coefficients as Z[phi] numerators, integer pairs (x, y) for
x + y*phi, over one positive integer denominator, in graded lexicographic
order of the exponents (first variable largest).  The module provides
exact zero tests, products, interpolation through point sets by a nullspace
proposed modulo split primes and checked exactly, and a smoothness
certificate for plane curves from chart-wise resultants, by Euclid's
algorithm over F_p on formal degrees, modulo a degree-1 prime of Z[phi],
sound over Q(phi)-bar.  Every exact elimination here is `linalg.nullspace`.
Points, evaluation rows, kernel vectors and coefficients are all Z[phi]
pairs, and no FieldElement is made or operated on here.
Every certificate record, here, in `config` and in `geproci`, serializes by
`_record_json`.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from math import gcd, prod
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .field import Pair, _dot, conj, json_pair, norm, products, residues

Exponents = Tuple[int, ...]


def monomials(degree: int, nvars: int) -> List[Exponents]:
    """All exponent tuples of the given total degree, graded-lex order: the
    sorted multisets of variables come in lexicographic order, and the
    smaller of two has the larger exponent at the first variable where the
    exponents differ."""
    return [tuple(map(c.count, range(nvars)))
            for c in itertools.combinations_with_replacement(range(nvars), degree)]


class HomForm:
    """A homogeneous form: the Z[phi] numerators ``terms`` of its nonzero
    coefficients, by exponent tuple, over one integer ``den`` > 0, reduced
    so that gcd(every x, every y, den) = 1.  Each form has one such
    representation, so equality compares it."""

    __slots__ = ("nvars", "degree", "terms", "den")

    def __init__(self, nvars: int, degree: int, terms: Dict[Exponents, Pair],
                 den: int = 1):
        clean = {}
        for e, w in terms.items():
            if len(e) != nvars or sum(e) != degree or min(e) < 0:
                raise ValueError(f"bad exponent tuple {e} for degree {degree}")
            if w != (0, 0):
                clean[tuple(e)] = w
        if den == 0:
            raise ZeroDivisionError("a form over the denominator 0")
        g = gcd(den, *(v for w in clean.values() for v in w))
        if den < 0:
            g = -g
        if g != 1:
            clean = {e: (x // g, y // g) for e, (x, y) in clean.items()}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("HomForm is immutable")

    @classmethod
    def monic_from_pairs(cls, nvars: int, degree: int,
                         terms: Iterable[Tuple[Exponents, Pair]]) -> "HomForm":
        """The form of the (exponents, Z[phi] pair) terms, zero pairs dropped,
        times conj(lead)/N(lead): one `products` call over the denominator
        N(lead).  Its graded-lex leading coefficient is 1; with no nonzero
        pair it is the zero form."""
        terms = {e: w for e, w in terms if w != (0, 0)}
        lead = terms[max(terms)] if terms else (1, 0)
        c = products((w, conj(lead)) for w in terms.values())
        return cls(nvars, degree, dict(zip(terms, c)), norm(lead))

    # -- basic algebra ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomForm) and self.nvars == other.nvars
                and self.terms == other.terms and self.den == other.den
                and (self.degree == other.degree or self.is_zero() and other.is_zero()))

    def value_at(self, point: Sequence[Pair]) -> Pair:
        """f(point) times the positive integer ``den``: one Z[phi] dot product
        of the numerators and the monomials at the point."""
        row = _evaluation_row(point, self.degree, self.nvars, self.terms)
        return _dot(self.terms.values(), row)

    def vanishes_at(self, point: Sequence[Pair]) -> bool:
        """Whether f(point) = 0: `value_at` is it times a nonzero integer."""
        return self.value_at(point) == (0, 0)

    def __repr__(self) -> str:
        return f"HomForm({self.nvars}, {self.degree}, {self.terms}, {self.den})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "terms": [{"exponents": list(e), "coeff": json_pair(w, self.den)}
                      for e, w in sorted(self.terms.items(), reverse=True)],
        }


def multiply(factors: Sequence[HomForm]) -> HomForm:
    """The product of one or more forms, the one convolution: one `_dot` per
    monomial and factor on the numerators, over the product of the
    denominators, reduced once."""
    if len({f.nvars for f in factors}) != 1:
        raise ValueError("forms have different numbers of variables")
    terms = factors[0].terms
    for f in factors[1:]:
        grouped: Dict[Exponents, List[Tuple[Pair, Pair]]] = {}
        for (e1, a), (e2, b) in itertools.product(terms.items(), f.terms.items()):
            grouped.setdefault(tuple(map(add, e1, e2)), []).append((a, b))
        terms = {e: _dot(*zip(*ab)) for e, ab in grouped.items()}
    return HomForm(factors[0].nvars, sum(f.degree for f in factors), terms,
                   prod(f.den for f in factors))


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def independent_evaluation_rows(points: Iterable[Sequence[Pair]], degree: int,
                                nvars: int) -> List[int]:
    """Indices of the first points (Z[phi] pairs) whose degree-d evaluation
    rows are independent modulo P = (p, phi - r), `linalg._PRIME`/`_PHI_ROOT`.

    Soundness.  `field.residues` is a ring map Z[phi] -> F_p, so
    `_residue_row` is the residue of `_evaluation_row`, entry by entry.  A
    nonzero minor mod P is one over Q(phi): the exact rank is at least the
    count kept, and when that is the number of monomials no nonzero degree-d
    form vanishes at the points.  A smaller count proves nothing on its own.
    Rows go as a generator: at full rank none past the last pivot is built.
    """
    cols = monomials(degree, nvars)
    return linalg.independent_rows_mod(
        (_residue_row(p, degree, nvars, cols) for p in points), linalg._PRIME)


def vanishing_space(points: Iterable[Sequence[Pair]], degree: int,
                    nvars: int) -> List[HomForm]:
    """Basis of the degree-d forms vanishing at every given point (Z[phi] pairs).

    Rows are point evaluations, columns the graded-lex monomials.  The basis
    is the exact nullspace of all rows, `linalg.nullspace`: one vector per
    free column, nonzero in that column and 0 in the other free columns,
    made monic: its first nonzero coefficient in column order, the
    graded-lex leading one, is 1.  Every exact row goes to `nullspace`,
    whose first elimination picks the rows that the second reads, and which
    returns its basis only once every vector kills every row, exactly; no
    separate rank pass runs.  With no points the nullspace is that of one
    zero row: the whole space.
    """
    cols = monomials(degree, nvars)
    rows = [_evaluation_row(p, degree, nvars, cols) for p in points]
    kernel = linalg.nullspace(rows or [[(0, 0)] * len(cols)])
    return [HomForm.monic_from_pairs(nvars, degree, zip(cols, vec)) for vec in kernel]


def _evaluation_row(point: Sequence[Pair], degree: int, nvars: int,
                    cols: Iterable[Exponents]) -> List[Pair]:
    """The monomials at a point of Z[phi] pairs, as pairs: the powers of the
    coordinates, one `products` call per degree, then each monomial as the
    product of its variables' powers, one `products` call per variable."""
    if len(point) != nvars:
        raise ValueError("point dimension does not match variable count")
    powers = [[(1, 0)] * nvars, point]  # powers[k][i] = x_i^k
    for _ in range(degree - 1):
        powers.append(products(zip(powers[-1], point)))
    tables, exponents = zip(*powers), zip(*cols)  # both by variable
    row = list(map(next(tables).__getitem__, next(exponents, ())))
    for table, ks in zip(tables, exponents):
        row = products(zip(row, map(table.__getitem__, ks)))
    return row


def _residue_row(point: Sequence[Pair], degree: int, nvars: int,
                 cols: Iterable[Exponents]) -> List[int]:
    """The monomials at a point of Z[phi] pairs, mod P: the `residues` v of
    the coordinates, a table of the powers of each v in F_p, and monomial e
    as the product of powers[i][e[i]] over the variables."""
    if len(point) != nvars:
        raise ValueError("point dimension does not match variable count")
    p, r = linalg._PRIME, linalg._PHI_ROOT
    powers = []
    for v in residues(point, p, r):
        table = [1]
        for _ in range(degree):
            table.append(table[-1] * v % p)
        powers.append(table)
    return [prod(map(list.__getitem__, powers, e)) % p for e in cols]


# ---------------------------------------------------------------------------
# Smoothness certificate for plane curves, modulo a split prime of Z[phi]
# ---------------------------------------------------------------------------

# Over F_p: a form maps exponent tuples to nonzero residues; a chart polynomial
# maps (keep exponent, elim exponent) pairs to them.
ModForm = Dict[Exponents, int]
ChartPoly = Dict[Tuple[int, int], int]

_MAX_RETRIES = 8  # primes that `plane_curve_is_smooth` tries before it gives up


class SmoothnessIndeterminate(RuntimeError):
    """Raised when the retry budget ends without a certificate either way."""


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


class SmoothnessReport(namedtuple("SmoothnessReport", (
        "smooth reason chart_trail prime phi_root coordinate_change"),
        defaults=((), None, None, None))):
    """The verdict of `plane_curve_is_smooth`; a singular one names its
    witness in ``reason``.  A pass by reduction records the certifying
    prime (p, phi - r) as ``prime`` p and ``phi_root`` r, the root of
    x^2 - x - 1 mod p that phi maps to, with the integer matrix
    ``coordinate_change`` and the strings of ``chart_trail``."""

    __slots__ = ()
    to_json = _record_json


def plane_curve_is_smooth(f: HomForm, seed: int = 0) -> SmoothnessReport:
    """Certify that a plane curve has no singular point over the closure.

    The form's Z[phi] numerators, the form times its integer ``den``, are
    reduced modulo a degree-1 prime P = (p, phi - r) of Z[phi], where p > 5,
    p = +-1 (mod 5) and r is a root of x^2 - x - 1 mod p; the reduction
    a + b*phi -> a + b*r is a ring map onto F_p.  On each affine chart
    x_c = 1, with the other two variables called keep and elim, two
    resultants eliminate elim from (d_keep f, d_elim f) and from
    (d_keep f, f).  Each lies in the ideal of
    its pair, so it vanishes at the keep-coordinate of every common zero; a
    nonzero resultant of the two nonzero eliminants therefore proves the
    chart free of zeros of (f, d_keep f, d_elim f), a superset of its singular
    points.  Because f itself is in the system, the test does not use the
    Euler relation and stays sound when p divides the degree.  Three clean
    charts cover P^2, so the singular scheme of f mod P is empty.

    Soundness over Q-bar: the singular scheme V(f, d_0 f, d_1 f, d_2 f) is
    closed in P^2 over the local ring Z[phi]_P, hence proper over Spec
    Z[phi]_P, so its image there is closed.  A closed set containing the
    generic point contains the closed point, so an empty special fibre
    forces an empty generic fibre: the curve is smooth over Q(phi)-bar.
    The reduction f mod P is checked to be nonzero.

    Attempt 0 takes the stored first split prime (`linalg._PRIME`).
    "Not clean mod P" proves nothing: a retry searches for the next prime
    and takes a random integer coordinate change invertible mod p.  The only
    singular verdict is exact: a form missing a variable.  Any other singular
    curve, a non-reduced one too, exhausts the budget and raises
    SmoothnessIndeterminate, never a pass.  A pass records p, r and the
    coordinate change, so it can be replayed.
    """
    if f.nvars != 3 or f.is_zero() or f.degree < 1:
        raise ValueError("expected a nonzero form of positive degree in 3 variables")
    if f.degree == 1:
        return SmoothnessReport(True, "a line is smooth")
    for i, pt in enumerate(("[1:0:0]", "[0:1:0]", "[0:0:1]")):
        if not any(e[i] for e in f.terms):
            return SmoothnessReport(False, f"form misses a variable: singular at {pt}")
    rng = random.Random(seed)
    primes = itertools.islice(linalg._split_primes(), 1, None)  # after the stored one
    trail: List[str] = []
    for attempt in range(_MAX_RETRIES):
        p, r = next(primes) if attempt else (linalg._PRIME, linalg._PHI_ROOT)
        fp = _reduce(f, p, r)
        if not fp:
            trail = [f"reduction vanishes mod {p}"]
            continue
        change = None
        if attempt > 0:
            change = _random_invertible_mod(rng, p)
            fp = _compose_mod(fp, change, p)
        clean, trail = _chart_test(fp, p)
        if clean:
            return SmoothnessReport(True, f"certified on attempt {attempt}",
                                    chart_trail=tuple(trail), prime=p,
                                    phi_root=r, coordinate_change=change)
    raise SmoothnessIndeterminate(
        f"no certificate after {_MAX_RETRIES} primes: {trail}")


def _reduce(f: HomForm, p: int, r: int) -> ModForm:
    """The image of the numerators under Z[phi] -> F_p, phi -> r."""
    return {e: v for e, v in zip(f.terms, residues(f.terms.values(), p, r)) if v}


def _random_invertible_mod(rng: random.Random, p: int) -> Tuple[Tuple[int, ...], ...]:
    while True:
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        if len(linalg.independent_rows_mod(m, p)) == 3:
            return m


def _compose_mod(f: ModForm, matrix: Sequence[Sequence[int]], p: int) -> ModForm:
    """Substitute x_i -> sum_j matrix[i][j] * x_j over F_p."""
    out: ModForm = {}
    for e, c in f.items():
        term = {(0,) * len(e): c}
        for i in (i for i, k in enumerate(e) for _ in range(k)):
            nxt: ModForm = {}
            for t, v in term.items():
                for j, m in enumerate(matrix[i]):
                    t2 = t[:j] + (t[j] + 1,) + t[j + 1:]
                    nxt[t2] = (nxt.get(t2, 0) + v * m) % p
            term = nxt
        for t, v in term.items():
            out[t] = (out.get(t, 0) + v) % p
    return {t: v for t, v in out.items() if v}


def _partial_mod(f: ModForm, var: int, p: int) -> ModForm:
    """The partial derivative; exponents stay below p, so none vanish."""
    return {e[:var] + (e[var] - 1,) + e[var + 1:]: c * e[var] % p
            for e, c in f.items() if e[var]}


def _chart_test(f: ModForm, p: int) -> Tuple[bool, List[str]]:
    """The three-chart eliminant test; True when every chart is clean.

    `_interpolate_mod` returns the eliminants trimmed, so their formal degrees
    are their true degrees, and their resultant is zero exactly when they
    share a root over the closure of F_p.
    """
    trail = []
    for chart, (keep, elim) in enumerate(((1, 2), (0, 2), (0, 1))):
        def on_chart(g: ModForm) -> ChartPoly:
            return {(e[keep], e[elim]): c for e, c in g.items()}

        u = on_chart(_partial_mod(f, keep, p))
        r1 = _eliminant(u, on_chart(_partial_mod(f, elim, p)), p)
        r2 = _eliminant(u, on_chart(f), p)
        if not r1 or not r2:
            trail.append(f"chart {chart}: degenerate eliminant")
            return False, trail
        if _resultant_mod(r1, r2, p) == 0:
            trail.append(f"chart {chart}: eliminants share a root")
            return False, trail
        trail.append(f"chart {chart}: clean (eliminant degrees "
                     f"{len(r1) - 1}, {len(r2) - 1})")
    return True, trail


def _eliminant(u: ChartPoly, v: ChartPoly, p: int) -> Optional[List[int]]:
    """Res_elim(u, v) in F_p[keep], low degree first, or None: no certificate.

    Horner's rule evaluates the coefficients of elim^j (keep-polynomials, top
    first) at keep = 0, ..., D; there `_resultant_mod` runs Euclid on the
    formal degrees m, n in elim, which commutes with evaluation, and
    interpolation follows.  The coefficient of elim^j in u has degree at most
    deg u - j in keep, which bounds the degree of the resultant by
    D = n*deg u + m*deg v - m*n (at most the Bezout bound).  With m = n = 0
    it would be 1 without lying in the ideal of (u, v): no certificate.
    Nor is there one when D + 1 > p, as F_p has too few distinct nodes; the
    chart then reads "not clean", and a retry takes a larger prime.
    """
    m, n = (max((j for _, j in w), default=0) for w in (u, v))
    du, dv = (max((i + j for i, j in w), default=0) for w in (u, v))
    nodes = n * du + m * dv - m * n + 1
    if m == n == 0 or nodes > p:
        return None
    cu, cv = ([[w.get((i, j), 0) for i in range(d - j, -1, -1)] for j in range(k + 1)]
              for w, d, k in ((u, du, m), (v, dv, n)))

    def at(polys: List[List[int]], x: int) -> List[int]:  # Horner's rule
        vals = []
        for poly in polys:
            acc = 0
            for c in poly:
                acc = acc * x + c
            vals.append(acc % p)
        return vals

    return _interpolate_mod([_resultant_mod(at(cu, x), at(cv, x), p)
                             for x in range(nodes)], p)


def _resultant_mod(a: List[int], b: List[int], p: int) -> int:
    """Res_{m,n}(a, b) over F_p: the Sylvester determinant on the formal
    degrees m = len(a) - 1, n = len(b) - 1 (low degree first), by Euclid.
    - a -> a - q*b, deg q <= m - n, adds b-rows to a-rows: Res is unchanged.
    - First column: Res_{m,n}(a, b) = (-1)^n * b_n * Res_{m-1,n}(a, b) if
      a_m = 0, = a_m * Res_{m,n-1}(a, b) if b_n = 0, and = 0 if both are 0.
    - Res_{m,n}(a, b) = (-1)^(m*n) * Res_{n,m}(b, a), swapping row blocks.
    Base cases: Res_{m,0} = b_0^m, and Res_{0,n} = a_0^n after a swap.
    """
    a, b, res = [c % p for c in a], [c % p for c in b], 1
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        if m < n:
            res, a, b = (-res if m * n % 2 else res), b, a
        elif not a[-1]:
            res = res * (-b[-1] if n % 2 else b[-1]) % p
            a.pop()
        elif not b[-1]:
            res = res * a[-1] % p
            b.pop()
        else:  # the loop then strips the zeros this leaves on top of a
            _rem_mod(a, b, p)
    return res * pow(b[0], len(a) - 1, p) % p


def _interpolate_mod(values: List[int], p: int) -> List[int]:
    """The polynomial of degree < len(values) taking values[x] at x = 0, 1, ...

    Newton divided differences, then Horner expansion; coefficients run from
    the constant term up.
    """
    c = list(values)
    for k in range(1, len(c)):
        inv = pow(k, -1, p)
        for i in range(len(c) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % p
    poly = [c[-1]]
    for i in range(len(c) - 2, -1, -1):
        poly = [(lo - i * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + c[i]) % p
    return _trim_mod(poly)


def _rem_mod(a: List[int], b: List[int], p: int) -> None:
    """a mod b in place (b[-1] != 0), keeping len(a): degrees >= deg b clear."""
    inv, n = pow(b[-1], -1, p), len(b) - 1
    for top in range(len(a) - 1, n - 1, -1):
        k = a[top] * inv % p
        for i, c in enumerate(b, top - n):
            a[i] = (a[i] - k * c) % p


def _trim_mod(poly: List[int]) -> List[int]:
    while poly and not poly[-1]:
        poly.pop()
    return poly
