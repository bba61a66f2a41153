"""The 60-point configuration in P^3, its dual planes, and all incidences.

Coordinates live in Z[phi] with phi the golden ratio, as `field` pairs;
the printed tokens below are parsed as FieldElements and enter as
canonical pairs (`projective.canonicalize`).
Plane i is dual to point i: for P_i = [a:b:c:d] the plane is
{ax + by + cz + dw = 0}.  The configuration is a symmetric (60_15)
point-plane structure carrying 72 lines with exactly five configuration
points each, and no line carries six.  All of it is proved exactly, with
no prime, and so is every (5,5)-grid of those lines that `verify_grid`
certifies, the two of the paper's split once per build.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import combinations, combinations_with_replacement, repeat

from . import linalg
from .field import FieldElement, ONE, PHI, PHI2, ZERO, Pair, _dot, _neg, products
from .forms import HomForm, _record_json, monomials
from .projective import ProjLine, ProjPoint, ProjPlane, canonicalize

# Coordinate tokens: 0, 1, -1, f = phi, F = phi^2, with sign prefixes.
_TOKENS = {
    "0": ZERO, "1": ONE, "-1": FieldElement(-1),
    "f": PHI, "-f": FieldElement(0, -1), "F": PHI2, "-F": FieldElement(-1, -1),
}

_POINT_DATA = """
1 0 0 0    | 0 1 0 0    | 0 0 1 0    | 0 0 0 1
1 1 1 1    | 1 1 1 -1   | 1 1 -1 1   | 1 1 -1 -1
1 -1 1 1   | 1 -1 1 -1  | 1 -1 -1 1  | 1 -1 -1 -1
0 f F 1    | 0 f F -1   | 0 f -F 1   | 0 f -F -1
0 F 1 f    | 0 F 1 -f   | 0 F -1 f   | 0 F -1 -f
0 1 f F    | 0 1 f -F   | 0 1 -f F   | 0 1 -f -F
f 0 1 F    | f 0 1 -F   | f 0 -1 F   | f 0 -1 -F
F 0 f 1    | F 0 f -1   | F 0 -f 1   | F 0 -f -1
1 0 F f    | 1 0 F -f   | 1 0 -F f   | 1 0 -F -f
f F 0 1    | f F 0 -1   | f -F 0 1   | f -F 0 -1
F 1 0 f    | F 1 0 -f   | F -1 0 f   | F -1 0 -f
1 f 0 F    | 1 f 0 -F   | 1 -f 0 F   | 1 -f 0 -F
f 1 F 0    | f 1 -F 0   | f -1 F 0   | f -1 -F 0
F f 1 0    | F f -1 0   | F -f 1 0   | F -f -1 0
1 F f 0    | 1 F -f 0   | 1 -F f 0   | 1 -F -f 0
"""


def _expect(holds: bool, message: str) -> None:
    if not holds:
        raise AssertionError(message)


def _parse_points() -> list[ProjPoint]:
    pts = []
    for chunk in _POINT_DATA.replace("\n", "|").split("|"):
        tokens = chunk.split()
        if not tokens:
            continue
        _expect(len(tokens) == 4, f"bad point row {tokens}")
        pts.append(ProjPoint(canonicalize([_TOKENS[t] for t in tokens])))
    _expect(len(pts) == 60, f"{len(pts)} points, not 60")
    return pts


class H4Configuration(namedtuple("H4Configuration", (
        "points planes lines line_points plane_points point_planes point_lines"
        " line_planes plane_lines secants meets quadric_rows grids"))):
    """The full configuration: flats indexed 1-based, plus incidence maps.

    ``points``, ``planes`` and ``lines`` map each index to its ProjPoint,
    ProjPlane or ProjLine, and the six tables from ``line_points`` to
    ``plane_lines`` map each index to the sorted tuple of indices incident
    with it.  ``point_planes`` is ``plane_points``: plane i is dual to point
    i, so point j lies on plane i exactly when point i lies on plane j.

    ``secants`` lists every line spanned by two configuration points as the
    sorted tuple of all configuration points on it, in lexicographic order:
    722 lines (450 with 2 points, 200 with 3, 72 with 5) whose point pairs
    cover each of the C(60, 2) = 1770 pairs exactly once.  Collinearity
    questions about configuration points are lookups in this table.

    ``meets`` maps each five-point line to {each line it meets: the
    configuration point they share}; `_prove_skew` proves every other pair
    skew.  ``quadric_rows`` maps each point to the pairs of its x_i*x_j,
    i <= j (`_QUADRIC_MONOMIALS`), and ``grids`` holds the two
    GridCertificates of the grids of `HALVES` from `verify_grid`, which
    certifies every grid.  Like ``secants``, they are derived data and stay
    out of ``to_json()``.
    """

    __slots__ = ()

    def max_collinear(self, subset: Iterable[int]) -> int:
        """Largest number of collinear points in a subset.

        Any two points of the subset span a secant, which lists every
        configuration point on that line, so the maximum over secants of
        |secant & subset| is the collinearity bound once the subset has two
        points.  An index that is not a configuration point raises ValueError.
        """
        chosen = _known_points(self, subset)
        if len(chosen) < 2:
            return len(chosen)
        return max(len(chosen.intersection(s)) for s in self.secants)

    def to_json(self) -> dict:
        """The flats and the six incidence tables; derived data stays out."""
        blob = {name: {str(i): f.to_json() for i, f in getattr(self, name).items()}
                for name in self._fields[:3]}
        blob.update({name: {str(i): list(s) for i, s in getattr(self, name).items()}
                     for name in self._fields[3:9]})
        return blob


def _known_points(cfg: H4Configuration, indices: Iterable[int]) -> set:
    chosen = set(indices)
    if not chosen <= cfg.points.keys():
        raise ValueError(f"unknown point indices {sorted(chosen - cfg.points.keys())}")
    return chosen


def members(mask: int) -> list[int]:
    """The set bits of an int bitset, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _inverse(table: dict[int, tuple[int, ...]], keys: Iterable[int]) -> dict:
    """Each key -> the indices, increasing, of the rows that list it."""
    out: dict[int, list] = {k: [] for k in keys}
    for i, row in table.items():
        for k in row:
            out[k].append(i)
    return {k: tuple(v) for k, v in out.items()}


class Half(namedtuple("Half", "name l_lines m_lines external_line")):
    """A 30-point half, by name: the (5,5)-grid of the L- and M-lines, by
    line index, plus the five points of one external line.  Its cover by
    six skew lines is the L-lines and the external line."""

    __slots__ = ()


# The paper's split of the 60 points: z1, and z2 its complement.
HALVES = (Half("z1", (1, 25, 32, 37, 44), (2, 26, 31, 38, 43), 24),
          Half("z2", (7, 51, 60, 65, 70), (8, 54, 58, 63, 71), 17))


def build_h4() -> H4Configuration:
    """Construct the configuration; every incidence comes from the exact
    plane table, which lists every configuration point of each plane.

    Plane k is dual to point k, so ``masks[k]`` is the points on plane k and
    the planes through point k.  Distinct planes a, b meet in a line whose
    configuration points are ``masks[a] & masks[b]``, a secant with all its
    points when there are two.  The line p_i p_j is found exactly when two
    planes contain it, that is, when i and j share two planes.  Distinct lines
    share at most one point, so the secants' point pairs are disjoint and
    number C(60, 2) = 1770 only if every pair lies on a found secant, as
    checked.  A line lies in the planes through two of its points.  A failed
    structural count raises AssertionError (`_expect`, kept under -O).  Two
    lines through a common point meet there, and ``meets`` records it from
    ``point_lines``; `_prove_skew` proves every other pair skew."""
    points = {i + 1: p for i, p in enumerate(_parse_points())}
    _expect(len(set(points.values())) == 60, "points are not pairwise distinct")
    planes = {i: ProjPlane(points[i].pairs) for i in points}

    # Plane i is dual to point i (the same canonical pairs) and the dot
    # product is symmetric, so one exact product per unordered pair {i, j}
    # decides both "P_j on V_i" and "P_i on V_j": bit j of masks[i].
    masks = dict.fromkeys(points, 0)
    for i, j in combinations_with_replacement(points, 2):
        if planes[i].contains(points[j]):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    plane_points = {i: tuple(members(mask)) for i, mask in masks.items()}
    for i, row in plane_points.items():
        _expect(len(row) == 15, f"plane {i} contains {len(row)} points, not 15")
    point_planes = plane_points

    met = {masks[a] & masks[b] for a, b in combinations(masks, 2)}
    secants = tuple(sorted(tuple(members(m)) for m in met if m.bit_count() > 1))
    n_pairs = sum(len(s) * (len(s) - 1) // 2 for s in secants)
    _expect(n_pairs == 1770, f"secants cover {n_pairs} point pairs, not 1770: "
            "two points share fewer than two planes")
    top = max(len(s) for s in secants)
    _expect(top == 5, f"a line carries {top} points; expected max 5")
    # The five-point lines, indexed in lexicographic order of their points.
    five_sets = [s for s in secants if len(s) == 5]
    _expect(len(five_sets) == 72, f"{len(five_sets)} five-point lines, not 72")

    line_points = dict(enumerate(five_sets, start=1))
    lines = {i: ProjLine(points[s[0]], points[s[1]])
             for i, s in line_points.items()}
    point_lines = _inverse(line_points, points)
    for j, row in point_lines.items():
        _expect(len(row) == 6, f"point {j} lies on {len(row)} lines, not 6")
    line_planes = {i: tuple(members(masks[s[0]] & masks[s[1]]))
                   for i, s in line_points.items()}
    for i, row in line_planes.items():
        _expect(len(row) == 5, f"line {i} lies in {len(row)} planes, not 5")
    plane_lines = _inverse(line_planes, planes)
    for v, row in plane_lines.items():
        _expect(len(row) == 6, f"plane {v} contains {len(row)} lines, not 6")

    meets: dict[int, dict[int, int]] = {i: {} for i in lines}
    for k, row in point_lines.items():
        for i, j in combinations(row, 2):
            meets[i][j] = meets[j][i] = k

    cfg = H4Configuration(points, planes, lines, line_points, plane_points,
                          point_planes, point_lines, line_planes, plane_lines,
                          secants, meets,
                          {i: products(combinations_with_replacement(p.pairs, 2))
                           for i, p in points.items()}, ())
    _prove_skew(cfg, masks)
    return cfg._replace(grids=tuple(verify_grid(cfg, h.l_lines, h.m_lines)
                                    for h in HALVES))


def _prove_skew(cfg: H4Configuration, masks: dict[int, int]) -> None:
    """Prove skew each pair of lines i, j that ``meets`` does not list, from
    the tables and ``masks``, each plane's points as a bitset.  Say a point
    k of j lies on a plane V through i, and no plane of ``line_planes``
    holds both lines.  k is off i, since ``line_points`` lists every
    configuration point of i.  If i and j met, their plane would hold i and
    k, so it would be V, the one plane through i and k, and V would hold j:
    a plane of ``line_planes`` holding both.

    A pair this bit test leaves is skew when j lies in the planes dual to
    the points of i (``line_planes[j] == line_points[i]``; on H4 these are
    36 pairs, each polar both ways).  With <x, y> = sum x_k*y_k, plane k is
    {x : <x, P_k> = 0}, so j lies in the orthogonal complement of the span
    U_i of the points of i: j is the polar line of i.  A common point x
    would lie in U_i and be orthogonal to it, so <x, x> = 0.  But Q(phi)
    lies in R, where <x, x> is a sum of squares, zero only at x = 0.  Any
    other pair the test leaves raises AssertionError, inline so -O keeps
    it."""
    on_points = {i: sum(1 << k for k in s) for i, s in cfg.line_points.items()}
    in_planes = {i: sum(1 << v for v in s) for i, s in cfg.line_planes.items()}
    reach = dict.fromkeys(cfg.lines, 0)  # the points on the planes through line i
    for i, row in cfg.line_planes.items():
        for v in row:
            reach[i] |= masks[v]
    for i, j in combinations(cfg.lines, 2):
        if j in cfg.meets[i] or (on_points[j] & reach[i]
                                 and not in_planes[i] & in_planes[j]):
            continue
        if cfg.line_planes[j] != cfg.line_points[i]:
            raise AssertionError(f"lines {i} and {j} are not proved skew")


class VerificationError(RuntimeError):
    """A structured verification failure; the message names the condition."""


class NotAGridError(VerificationError):
    pass


class GridCertificate(namedtuple("GridCertificate",
                                  "l_lines m_lines grid_points quadric")):
    """Evidence that two 5-line families, tuples of line indices, form a
    (5,5)-grid on a quadric: its 25 configuration points, sorted, and the
    quadric as a HomForm."""

    __slots__ = ()
    to_json = _record_json


def verify_grid(cfg: H4Configuration, l_lines: Sequence[int],
                m_lines: Sequence[int]) -> GridCertificate:
    """Check the grid conditions on the exact tables, then certify its
    quadric Q, the monic `_pencil_quadric`, on the 9 points l_i . m_j,
    i, j <= 3, by their rows in ``quadric_rows``, at no prime.

    An unknown line index raises ValueError before any work, and any other
    failed condition NotAGridError.  Its family-skew (``meets``) and 25
    distinct points checks make l_1, l_2, l_3 pairwise skew and the 9
    points distinct, the hypotheses of the theorem that follows.  A quadric
    through the 9 meets each l_i in three distinct points, so contains it.
    With l_1 = {x0 = x1 = 0}, l_2 = {x2 = x3 = 0} and l_3 = {x0 = x2, x1 =
    x3}, it is then u^T B w, u = (x0, x1), w = (x2, x3), with u^T B u = 0,
    so B is antisymmetric: c*(x0*x3 - x1*x2).  So a nonzero Q that kills the
    9 rows (exact Z[phi] products) spans those quadrics, whatever formula
    found it.  It meets each m_j in three distinct points on l_1, l_2, l_3,
    so contains it: Q is the grid's one quadric.  A zero Q, a missed row or
    a meeting pair in no common plane is a bug, not "not a grid": it raises
    VerificationError, never NotAGridError."""
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
    cells = []  # l_i . m_j in row-major order, looked up in ``meets``
    for li in l_lines:
        row = cfg.meets[li]
        for mj in m_lines:
            if mj not in row:
                raise NotAGridError(
                    f"lines {li} and {mj} do not meet in a configuration point")
            cells.append(row[mj])
    if len(set(cells)) != 25:
        raise NotAGridError(f"{len(set(cells))} intersection points, not 25")
    coeffs = _pencil_quadric(cfg, l_lines, m_lines, cells[5 * 2 + 2])
    if all(w == (0, 0) for w in coeffs):
        raise VerificationError("grid quadric indeterminate: the pencil quadric is zero")
    rows = [cfg.quadric_rows[cells[5 * i + j]] for i in range(3) for j in range(3)]
    if linalg.first_missed_row(rows, [coeffs]) is not None:
        raise VerificationError("grid quadric indeterminate: "
                                "the pencil quadric misses the subgrid")
    quadric = HomForm.monic_from_pairs(4, 2, zip(_QUADRIC_MONOMIALS, coeffs))
    return GridCertificate(l_lines, m_lines, tuple(sorted(cells)), quadric)


def _pencil_quadric(cfg: H4Configuration, l_lines: Sequence[int],
                    m_lines: Sequence[int], x0: int) -> list[Pair]:
    """The pairs, in the order of `_QUADRIC_MONOMIALS`, of the member Q =
    (C*D)(x0)*A*B - (A*B)(x0)*C*D through x0 = l_3 . m_3 of the pencil of
    the skew quadrilateral l_1 m_1 l_2 m_2: A, B, C, D are the one plane of
    `line_planes` through l_1 and m_1, l_2 and m_2, l_1 and m_2, l_2 and m_1,
    so A*B and C*D vanish on l_1, l_2, m_1, m_2.  Each holds m_1 or m_2,
    which l_3 meets away from x0, so one holding x0 would hold l_3, meeting
    its l_1 or l_2.  So both scalars are nonzero, and Q = 0 would put two
    skew lines of one family in one plane ({A, B} = {C, D}): Q != 0.  Two
    of the lines in no one common plane raise VerificationError."""
    (l1, l2), (m1, m2) = l_lines[:2], m_lines[:2]
    planes = []
    for i, j in ((l1, m1), (l2, m2), (l1, m2), (l2, m1)):
        common = set(cfg.line_planes[i]).intersection(cfg.line_planes[j])
        if len(common) != 1:
            raise VerificationError(f"grid quadric indeterminate: lines {i} "
                                    f"and {j} share {len(common)} planes, not 1")
        planes.append(cfg.planes[common.pop()].pairs)
    a, b, c, d = planes
    x = cfg.points[x0].pairs
    ab, cd = products([(_dot(a, x), _dot(b, x)), (_dot(c, x), _dot(d, x))])
    a, c = products(zip(repeat(cd), a)), products(zip(repeat(_neg(ab)), c))
    return [_dot((a[i], a[j], c[i], c[j]), (b[j], b[i], d[j], d[i])) if i < j
            else _dot((a[i], c[i]), (b[i], d[i]))
            for i, j in combinations_with_replacement(range(4), 2)]


_QUADRIC_MONOMIALS = tuple(monomials(2, 4))  # the order of ``quadric_rows``


def incidence_table_planes(cfg: H4Configuration) -> dict[int, tuple[int, ...]]:
    """Plane index -> the 15 point indices it contains."""
    return dict(cfg.plane_points)


def incidence_table_lines(cfg: H4Configuration) -> dict[int, tuple[int, ...]]:
    """Line index -> the 5 point indices it carries."""
    return dict(cfg.line_points)


def special_points_for_grid(
    cfg: H4Configuration, grid_points: Iterable[int]
) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Points outside a 25-point grid whose secants pair up the grid.

    For each configuration point X outside the grid, collect all pairs {A, B}
    of grid points collinear with X.  Returns the points with exactly 10 such
    pairs covering 20 distinct grid points, together with their pairings.

    One walk over the secant table hands the 2-subsets of (secant & grid) to
    every X on the secant outside the grid: the same pairs as testing every
    triple X, A, B for collinearity.  The line through X and a grid point A
    is the secant they span, which lists every configuration point on it, so
    B is collinear with X and A exactly when B lies in it.  Each pair {A, B}
    is found once, on the one secant through X and A.
    """
    grid = _known_points(cfg, grid_points)
    if len(grid) != 25:
        raise ValueError(f"expected a 25-point grid, got {len(grid)} points")
    pairs: dict[int, list[tuple[int, int]]] = {x: [] for x in set(cfg.points) - grid}
    for s in cfg.secants:
        on_grid = [a for a in s if a in grid]
        if len(on_grid) > 1:
            for x in set(s) - grid:
                pairs[x] += combinations(on_grid, 2)
    return [(x, tuple(sorted(ps))) for x, ps in sorted(pairs.items())
            if len(ps) == 10 and len({i for pair in ps for i in pair}) == 20]


def grid_point_indices(cfg: H4Configuration, line_indices: Iterable[int]) -> tuple[int, ...]:
    """Union of the configuration points on the given lines, sorted."""
    return tuple(sorted({p for i in line_indices for p in cfg.line_points[i]}))


def z_partition(cfg: H4Configuration) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The split: the points of the first half's M-lines and external line
    (not of its cover, which is checked against them), and the rest."""
    half = HALVES[0]
    z1 = grid_point_indices(cfg, half.m_lines + (half.external_line,))
    return z1, tuple(sorted(set(cfg.points) - set(z1)))


def format_table(table: dict[int, tuple[int, ...]], name: str, sep: str) -> str:
    """One line per index i: name_i, then its row joined by sep."""
    return "\n".join(f"{name}_{i}: " + sep.join(map(str, table[i]))
                     for i in sorted(table))
