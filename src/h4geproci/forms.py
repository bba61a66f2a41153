"""Homogeneous polynomial algebra over Q(phi).

Forms are sparse maps from exponent tuples to FieldElement coefficients, in
graded lexicographic order (first variable largest).  The module provides
exact zero tests, products, interpolation through point sets by a nullspace
proposed modulo split primes and checked exactly, divisibility (by a line,
by evaluation on it; otherwise by long division), gcd as the nullspace of a
multiplication map, and a smoothness certificate for plane curves from
chart-wise resultants, by Euclid's algorithm over F_p on formal degrees,
modulo a degree-1 prime of Z[phi], sound over Q(phi)-bar.  Points,
evaluation rows, kernel vectors and the coefficients' common numerators are
Z[phi] integer pairs (x, y) for x + y*phi.  Products, partials, quotients,
gcds and monic forms run on them; no FieldElement operator runs here.
Every certificate record, here and in `geproci`, serializes by `_record_json`.
"""

from __future__ import annotations

import itertools
import random
from math import gcd, prod
from operator import add
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from . import linalg
from .field import (FieldElement, Pair, _coerce, _dot, _neg,
                    common_numerators, conj, from_numerators, norm,
                    primitive_numerators, products, residues)

Exponents = Tuple[int, ...]


def monomials(degree: int, nvars: int) -> List[Exponents]:
    """All exponent tuples of the given total degree, graded-lex order: the
    sorted multisets of variables come in lexicographic order, and the
    smaller of two has the larger exponent at the first variable where the
    exponents differ."""
    return [tuple(map(c.count, range(nvars)))
            for c in itertools.combinations_with_replacement(range(nvars), degree)]


class HomForm:
    """A homogeneous form; zero coefficients are never stored."""

    __slots__ = ("nvars", "degree", "coeffs", "_pairs")

    def __init__(self, nvars: int, degree: int, coeffs: Dict[Exponents, FieldElement]):
        clean = {}
        for e, c in coeffs.items():
            c = _coerce(c)
            if c.is_zero():
                continue
            if len(e) != nvars or sum(e) != degree or min(e) < 0:
                raise ValueError(f"bad exponent tuple {e} for degree {degree}")
            clean[tuple(e)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_pairs", None)

    def __setattr__(self, name, value):
        raise AttributeError("HomForm is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomForm":
        return cls(nvars, degree, {})

    @classmethod
    def linear(cls, coeffs: Sequence[FieldElement]) -> "HomForm":
        n = len(coeffs)
        return cls(n, 1, {tuple(1 if j == i else 0 for j in range(n)): c
                          for i, c in enumerate(coeffs)})

    @classmethod
    def monic_from_pairs(cls, nvars: int, degree: int,
                         terms: Iterable[Tuple[Exponents, Pair]]) -> "HomForm":
        """The form of the (exponents, Z[phi] pair) terms, zero pairs dropped,
        times conj(lead)/N(lead): one `products` call, then one normalization
        per coefficient.  Its graded-lex leading coefficient is 1; with no
        nonzero pair it is the zero form."""
        terms = {e: w for e, w in terms if w != (0, 0)}
        lead = terms[max(terms)] if terms else (1, 0)
        c = products((w, conj(lead)) for w in terms.values())
        return cls(nvars, degree, dict(zip(terms, from_numerators(c, norm(lead)))))

    # -- basic algebra ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomForm) and self.nvars == other.nvars
                and self.coeffs == other.coeffs
                and (self.degree == other.degree or self.is_zero() and other.is_zero()))

    def __hash__(self) -> int:
        # The exponents fix the degree of a nonzero form, and zero forms of
        # all degrees are equal, so the degree itself is not hashed.
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __mul__(self, other: "HomForm") -> "HomForm":
        """One Z[phi] convolution: a `_dot` of common numerators per monomial."""
        if self.nvars != other.nvars:
            raise ValueError("forms have different numbers of variables")
        (u, du), (v, dv) = (common_numerators(f.coeffs.values()) for f in (self, other))
        terms: Dict[Exponents, List[Tuple[Pair, Pair]]] = {}
        for e1, a in zip(self.coeffs, u):
            for e2, b in zip(other.coeffs, v):
                terms.setdefault(tuple(map(add, e1, e2)), []).append((a, b))
        c = from_numerators([_dot(*zip(*ab)) for ab in terms.values()], du * dv)
        return HomForm(self.nvars, self.degree + other.degree, dict(zip(terms, c)))

    def value_at(self, point: Sequence[Pair]) -> Pair:
        """f(point) times a positive rational: one Z[phi] dot product of the
        coprime coefficient pairs (`pairs`) and the monomials at the point."""
        row = _evaluation_row(point, self.degree, self.nvars, self.coeffs)
        return _dot(self.pairs(), row)

    def vanishes_at(self, point: Sequence[Pair]) -> bool:
        """Whether f(point) = 0: `value_at` is it times a nonzero rational."""
        return self.value_at(point) == (0, 0)

    def pairs(self) -> List[Pair]:
        """The coefficients scaled to coprime Z[phi] pairs, computed once."""
        if self._pairs is None:
            object.__setattr__(self, "_pairs",
                               primitive_numerators(self.coeffs.values()))
        return self._pairs

    def partial(self, var: int) -> "HomForm":
        """d/dx_var: each common numerator times its exponent, over their denominator."""
        u, d = common_numerators(self.coeffs.values())
        terms = {e[:var] + (e[var] - 1,) + e[var + 1:]: (x * e[var], y * e[var])
                 for e, (x, y) in zip(self.coeffs, u) if e[var]}
        return HomForm(self.nvars, max(self.degree - 1, 0),
                       dict(zip(terms, from_numerators(terms.values(), d))))

    def monic(self) -> "HomForm":
        """Scale so the graded-lex leading coefficient equals 1."""
        u, _ = common_numerators(self.coeffs.values())
        return HomForm.monic_from_pairs(self.nvars, self.degree, zip(self.coeffs, u))

    def __repr__(self) -> str:
        if self.is_zero():
            return "HomForm(0)"
        names = "xyzw"[: self.nvars] if self.nvars <= 4 else None
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            mono = "*".join(f"{names[i]}^{k}" if k > 1 else names[i]
                            for i, k in enumerate(e) if k) or "1"
            parts.append(f"({self.coeffs[e]})*{mono}")
        return " + ".join(parts)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "terms": [{"exponents": list(e), "coeff": c.to_json()}
                      for e, c in sorted(self.coeffs.items(), reverse=True)],
        }


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def independent_evaluation_rows(points: Sequence[Sequence[Pair]], degree: int,
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
    is the exact nullspace of all rows: one vector per free column, nonzero
    in that column and 0 in the other free columns, made monic: its first
    nonzero coefficient in column order, the graded-lex leading one, is 1.
    A row basis is chosen modulo the split prime P by
    `independent_evaluation_rows`, in reduced echelon form over F_p; only
    those rows go to `linalg.nullspace`, which proposes their kernel modulo
    further split primes and returns it once it checks exactly.

    Soundness.  The rows chosen mod P are independent over Q(phi), so the
    exact rank is at least their count; when that count is the number of
    monomials, the space is 0 and no exact row is built.  Otherwise let N_S
    be the exact nullspace of the chosen rows and N that of all rows.  N_S
    contains N, and when every basis vector of N_S kills every row (an exact
    Z[phi] dot product, `linalg.first_missed_row`), N_S = N; the basis above
    depends on N alone, so it is the one the elimination of all rows gives.
    A row that some basis vector does not kill (the rank dropped mod P)
    joins the chosen rows and the kernel is taken again; each round raises
    the exact rank of the chosen rows, so the loop ends.  A missed row that
    is already chosen means the exact kernel is wrong, and it raises
    ArithmeticError rather than repeat the same round.  When no row is
    independent mod P (no points, or every row lies in P), N_S is the whole
    space and the same check applies.  The primes only pick rows, propose
    kernels and bound the rank from below; they never turn a positive
    dimension into 0.
    """
    cols = monomials(degree, nvars)
    points = list(points)
    chosen = independent_evaluation_rows(points, degree, nvars)
    if len(chosen) == len(cols):
        return []
    rows = [_evaluation_row(p, degree, nvars, cols) for p in points]
    while True:
        # With nothing chosen (no rows, or all rows zero mod P), start from
        # the whole space: the nullspace of one zero row.
        kernel = linalg.nullspace([rows[i] for i in chosen]
                                  or [[(0, 0)] * len(cols)])
        missed = linalg.first_missed_row(rows, kernel)
        if missed is None:
            break
        if missed in chosen:
            raise ArithmeticError(f"exact kernel misses its own row {missed}")
        chosen.append(missed)
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
# Divisibility
# ---------------------------------------------------------------------------

def try_quotient(f: HomForm, g: HomForm) -> Optional[HomForm]:
    """The exact quotient q with g = f*q, or None if f does not divide g.

    Long division under graded-lex, which on forms of one degree is the
    lexicographic order: each step cancels the leading term of the remainder
    and leaves only smaller terms, so the loop ends.  With u/d_f and v/d_g
    the common numerators of f and g, and c the conjugate of u's leading
    pair, it divides the Z[phi] pairs c*v by c*u, which leads with the
    integer n = N(c).  Where n does not divide the leading pair, the
    remainder R and the quotient Q so far are first multiplied by the least
    positive integer after which it does; with S the product of those
    factors, S*c*v = c*u*Q + R throughout, so at R = 0, q = d_f*Q/(S*d_g).
    """
    if f.is_zero():
        raise ZeroDivisionError("division by the zero form")
    if g.is_zero():
        return HomForm.zero(f.nvars, 0)
    if f.nvars != g.nvars:
        raise ValueError("forms have different numbers of variables")
    if g.degree < f.degree:
        return None
    (u, d_f), (v, d_g) = (common_numerators(h.coeffs.values()) for h in (f, g))
    lead, lc = max(zip(f.coeffs, u))
    c, n, scale, q = conj(lc), norm(lc), 1, {}
    div = dict(zip(f.coeffs, products((w, c) for w in u)))
    r = dict(zip(g.coeffs, products((w, c) for w in v)))
    while r:
        top = max(r)
        e = tuple(a - b for a, b in zip(top, lead))
        if min(e) < 0:
            return None
        s = abs(n) // gcd(n, *r[top])
        if s > 1:
            r, q = ({t: (s * x, s * y) for t, (x, y) in h.items()} for h in (r, q))
            scale *= s
        q[e] = (r[top][0] // n, r[top][1] // n)
        for ef, (x, y) in zip(div, products((q[e], w) for w in div.values())):
            t = tuple(map(add, e, ef))
            a, b = r.pop(t, (0, 0))
            if (a, b) != (x, y):
                r[t] = (a - x, b - y)
    return HomForm(f.nvars, g.degree - f.degree, dict(zip(q, from_numerators(
        ((d_f * x, d_f * y) for x, y in q.values()), scale * d_g))))


def divides(f: HomForm, g: HomForm) -> bool:
    """Whether f divides g; by evaluation when f is linear in 3 variables.

    Soundness.  With c f's coprime pairs, c_k the first nonzero one and i < j
    the other indices, u = c_k*e_i - c_i*e_k and w = c_k*e_j - c_j*e_k are
    independent zeros of f.  So g(u + t*w), t = 0..deg g, are the values of
    the binary form g(s*u + t*w) of degree deg g at deg g + 1 distinct points,
    all zero exactly when it is zero, that is when f | g (take f = x_k)."""
    if f.degree == 1 and not (f.is_zero() or g.is_zero()) and f.nvars == g.nvars == 3:
        by_var = dict(zip(f.coeffs, f.pairs()))
        c = [by_var.get(e, (0, 0)) for e in monomials(1, 3)]
        k = next(v for v in range(3) if c[v] != (0, 0))
        i, j = (v for v in range(3) if v != k)
        u, w = [(0, 0)] * 3, [(0, 0)] * 3
        u[i], u[k], w[j], w[k] = c[k], _neg(c[i]), c[k], _neg(c[j])
        return all(g.vanishes_at([(a + t * x, b + t * y) for (a, b), (x, y) in zip(u, w)])
                   for t in range(g.degree + 1))
    return try_quotient(f, g) is not None


def gcd_forms(f: HomForm, g: HomForm) -> HomForm:
    """A gcd of two homogeneous forms, normalized to leading coefficient 1.

    Write a, b for nonzero f, g, of degrees m, n, with gcd h of degree e.
    For k = min(m, n) down to 0, this takes the exact nullspace of
    (u, v) -> u*a + v*b on the forms u, v of degrees n - k and m - k; the
    first k with a nonzero kernel is e, and a/v is h up to a constant.

    Soundness.  a/h and b/h are coprime, so u*a = -v*b forces u*(a/h) =
    -v*(b/h) and hence (u, v) = t*(b/h, -a/h) with t a form of degree e - k.
    Such a t exists exactly when k <= e, so no larger k has a kernel, and at
    k = e the kernel is spanned by one vector with t a nonzero constant:
    v = -t*a/h, and the exact quotient a/v is -h/t.  The matrix holds the
    pairs of a' = r*a and b' = s*b (`HomForm.pairs`; r, s > 0 rational), so
    the argument runs on them: v is still a nonzero constant times a/h.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.nvars != g.nvars:
        raise ValueError("forms have different numbers of variables")
    nvars, m, n = f.nvars, f.degree, g.degree
    for k in range(min(m, n), -1, -1):
        ucols, vcols = monomials(n - k, nvars), monomials(m - k, nvars)
        rows = {e: i for i, e in enumerate(monomials(m + n - k, nvars))}
        matrix = [[(0, 0)] * (len(ucols) + len(vcols)) for _ in rows]
        shifts = [(u, f) for u in ucols] + [(v, g) for v in vcols]
        for j, (shift, form) in enumerate(shifts):
            for e, w in zip(form.coeffs, form.pairs()):
                matrix[rows[tuple(a + b for a, b in zip(shift, e))]][j] = w
        kernel = linalg.nullspace(matrix)
        if kernel:
            v = from_numerators(kernel[0][len(ucols):], 1)
            return try_quotient(HomForm(nvars, m - k, dict(zip(vcols, v))), f).monic()
    raise AssertionError("unreachable: at k = 0, (b, -a) is in the kernel")


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


class SmoothnessReport(NamedTuple):
    smooth: bool
    reason: str  # a singular verdict names its witness here
    chart_trail: Tuple[str, ...] = ()
    prime: Optional[int] = None  # p of the certifying prime (p, phi - phi_root)
    phi_root: Optional[int] = None  # root of x^2 - x - 1 mod p; phi maps to it
    coordinate_change: Optional[Tuple[Tuple[int, ...], ...]] = None

    to_json = _record_json


def plane_curve_is_smooth(f: HomForm, seed: int = 0) -> SmoothnessReport:
    """Certify that a plane curve has no singular point over the closure.

    The form is scaled to coprime Z[phi] coefficients and reduced modulo a
    degree-1 prime P = (p, phi - r) of Z[phi], where p > 5, p = +-1 (mod 5)
    and r is a root of x^2 - x - 1 mod p; the reduction a + b*phi -> a + b*r
    is a ring map onto F_p.  On each affine chart x_c = 1, with the other
    two variables called keep and elim, two resultants eliminate elim from
    (d_keep f, d_elim f) and from (d_keep f, f).  Each lies in the ideal of
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
    singular verdicts are exact: a form missing a variable, and partials
    sharing a component (checked over Q(phi) before the first retry).  An
    exhausted budget raises SmoothnessIndeterminate, never a pass.  A pass
    records p, r and the coordinate change, so it can be replayed.
    """
    if f.nvars != 3 or f.is_zero() or f.degree < 1:
        raise ValueError("expected a nonzero form of positive degree in 3 variables")
    if f.degree == 1:
        return SmoothnessReport(True, "a line is smooth")
    for i, pt in enumerate(("[1:0:0]", "[0:1:0]", "[0:0:1]")):
        if not any(e[i] for e in f.coeffs):
            return SmoothnessReport(False, f"form misses a variable: singular at {pt}")
    rng = random.Random(seed)
    primes = itertools.islice(linalg._split_primes(), 1, None)  # after the stored one
    trail: List[str] = []
    for attempt in range(_MAX_RETRIES):
        p, r = next(primes) if attempt else (linalg._PRIME, linalg._PHI_ROOT)
        if attempt == 1:
            # A clean first pass never reaches this; before retrying, rule
            # out the one obstruction no prime or coordinate change can fix.
            d0, d1, d2 = (f.partial(i) for i in range(3))
            g = gcd_forms(gcd_forms(d0, d1), d2)
            if g.degree > 0:
                return SmoothnessReport(False, f"partials share a component: {g!r}")
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
    """The image of the coprime coefficient pairs under Z[phi] -> F_p, phi -> r."""
    return {e: v for e, v in zip(f.coeffs, residues(f.pairs(), p, r)) if v}


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
