"""The 60-point configuration in P^3, its dual planes, and all incidences.

Coordinates live in Z[phi] with phi the golden ratio, as `field` pairs.
Plane i is dual to point i: for P_i = [a:b:c:d] the plane is
{ax + by + cz + dw = 0}.  The configuration is a symmetric (60_15)
point-plane structure carrying 72 lines with exactly five configuration
points each, and no line carries six.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from operator import mul
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import linalg
from .field import FieldElement, ONE, PHI, PHI2, ZERO, Pair, products, residues
from .forms import HomForm, monomials
from .projective import (ProjLine, ProjPoint, ProjPlane, lines_meet,
                         transversal_quadric)
# Re-exported: perfbench/test_perfbench.py checks that its tracer wraps a
# function where another module imports it, and names this binding.
from .projective import canonicalize  # noqa: F401

# Coordinate tokens: 0, 1, -1, f = phi, F = phi^2, with sign prefixes.
_TOKENS = {
    "0": ZERO, "1": ONE, "-1": -ONE,
    "f": PHI, "-f": -PHI, "F": PHI2, "-F": -PHI2,
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


def _parse_points() -> List[ProjPoint]:
    pts = []
    for chunk in _POINT_DATA.replace("\n", "|").split("|"):
        tokens = chunk.split()
        if not tokens:
            continue
        assert len(tokens) == 4, tokens
        pts.append(ProjPoint([_TOKENS[t] for t in tokens]))
    assert len(pts) == 60
    return pts


class H4Configuration(NamedTuple):
    """The full configuration: flats indexed 1-based, plus incidence maps.

    ``point_planes`` is ``plane_points``: plane i is dual to point i, so
    point j lies on plane i exactly when point i lies on plane j.

    ``secants`` lists every line spanned by two configuration points as the
    sorted tuple of all configuration points on it, in lexicographic order:
    722 lines (450 with 2 points, 200 with 3, 72 with 5) whose point pairs
    cover each of the C(60, 2) = 1770 pairs exactly once.  Collinearity
    questions about configuration points are lookups in this table.

    ``meets`` maps each five-point line to the other lines it meets, and
    ``grid_quadrics`` holds the quadrics of the grids of `HALVES` from
    `grid_quadric`, which certifies every grid quadric.  Like ``secants``,
    they are derived data and stay out of ``to_json()``.
    """

    points: Dict[int, ProjPoint]
    planes: Dict[int, ProjPlane]
    lines: Dict[int, ProjLine]
    line_points: Dict[int, Tuple[int, ...]]
    plane_points: Dict[int, Tuple[int, ...]]
    point_planes: Dict[int, Tuple[int, ...]]
    point_lines: Dict[int, Tuple[int, ...]]
    line_planes: Dict[int, Tuple[int, ...]]
    plane_lines: Dict[int, Tuple[int, ...]]
    secants: Tuple[Tuple[int, ...], ...]
    meets: Dict[int, FrozenSet[int]]
    grid_quadrics: Tuple[HomForm, HomForm]

    def max_collinear(self, subset: Optional[Iterable[int]] = None) -> int:
        """Largest number of collinear points in a subset (default: all).

        Any two points of the subset span a secant, and the secant lists
        every configuration point on that line, so the maximum over secants
        of |secant & subset| is the collinearity bound once the subset has
        two points; secants meeting it in fewer points never attain it.
        """
        chosen = set(self.points if subset is None else subset)
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


def members(mask: int) -> List[int]:
    """The set bits of an int bitset, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _inverse(table: Dict[int, Tuple[int, ...]], keys: Iterable[int]) -> Dict:
    """Each key -> the indices, increasing, of the rows that list it."""
    out: Dict[int, list] = {k: [] for k in keys}
    for i, row in table.items():
        for k in row:
            out[k].append(i)
    return {k: tuple(v) for k, v in out.items()}


class Half(NamedTuple):
    """A 30-point half: the (5,5)-grid of the L- and M-lines, by line index,
    plus the five points of one external line.  Its cover by six skew lines
    is the L-lines and the external line."""

    name: str
    l_lines: Tuple[int, ...]
    m_lines: Tuple[int, ...]
    external_line: int


# The paper's split of the 60 points: z1, and z2 its complement.
HALVES = (Half("z1", (1, 25, 32, 37, 44), (2, 26, 31, 38, 43), 24),
          Half("z2", (7, 51, 60, 65, 70), (8, 54, 58, 63, 71), 17))


def build_h4() -> H4Configuration:
    """Construct the configuration; every incidence comes from the exact
    plane table, which lists every configuration point of each plane.

    Two points lie on 2, 3 or 5 of the planes (asserted: at least two), and
    two planes meet in one line, so the points of the line p_i p_j are those
    on the two lowest planes through both.  A line lies in the planes
    through two of its points.  Lines through a common point meet.  For any
    other pair, a Pluecker pairing w nonzero modulo P = (p, phi - r)
    (`linalg._PRIME`, `_PHI_ROOT`, read at call time) proves them skew; only
    a zero residue goes to the exact `lines_meet`.  Those pairings have
    norms +-1, 4, 5, 16 and 80, and P | w gives p | N(w), so only a prime
    over 2 or 5 sends one to 0; no split prime does.  A structural count
    that fails raises AssertionError.
    """
    points = {i + 1: p for i, p in enumerate(_parse_points())}
    assert len(set(points.values())) == 60, "points are not pairwise distinct"
    planes = {i: ProjPlane(points[i].coords) for i in points}

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
        assert len(row) == 15, f"plane {i} contains {len(row)} points, not 15"
    point_planes = plane_points

    # masks[i] is also the planes through point i.  Each secant is found
    # from its lowest point i, skipping points seen on a line through p_i.
    found = []
    for i in points:
        below, seen = (1 << i) - 1, 1 << i
        for j in range(i + 1, len(points) + 1):
            if seen >> j & 1:
                continue
            both = masks[i] & masks[j]
            rest = both & (both - 1)  # all but the lowest plane through both
            assert rest, f"points {i} and {j} share fewer than two planes"
            line = masks[(both ^ rest).bit_length() - 1] \
                & masks[(rest & -rest).bit_length() - 1]
            seen |= line
            if not line & below:
                found.append(tuple(members(line)))
    secants = tuple(sorted(found))
    n_pairs = sum(len(s) * (len(s) - 1) // 2 for s in secants)
    assert n_pairs == 1770, f"secants cover {n_pairs} point pairs, not 1770"
    top = max(len(s) for s in secants)
    assert top == 5, f"a line carries {top} points; expected max 5"
    # The five-point lines, indexed in lexicographic order of their points.
    five_sets = [s for s in secants if len(s) == 5]
    assert len(five_sets) == 72, f"{len(five_sets)} five-point lines, not 72"

    line_points = dict(enumerate(five_sets, start=1))
    lines = {i: ProjLine(points[s[0]], points[s[1]])
             for i, s in line_points.items()}
    point_lines = _inverse(line_points, points)
    for j, row in point_lines.items():
        assert len(row) == 6, f"point {j} lies on {len(row)} lines, not 6"
    line_planes = {i: tuple(members(masks[s[0]] & masks[s[1]]))
                   for i, s in line_points.items()}
    for i, row in line_planes.items():
        assert len(row) == 5, f"line {i} lies in {len(row)} planes, not 5"
    plane_lines = _inverse(line_planes, planes)
    for v, row in plane_lines.items():
        assert len(row) == 6, f"plane {v} contains {len(row)} lines, not 6"

    # The meet relation: shared points, then the pairings mod P (above).
    meets = {i: {j for k in line_points[i] for j in point_lines[k]} - {i}
             for i in lines}
    p, r = linalg._PRIME, linalg._PHI_ROOT
    mod = {i: residues(line.pairs, p, r) for i, line in lines.items()}
    dual = {i: residues(line.dual, p, r) for i, line in lines.items()}
    for i, j in combinations(lines, 2):
        if j not in meets[i] and not sum(map(mul, mod[i], dual[j])) % p \
                and lines_meet(lines[i], lines[j]):
            meets[i].add(j)
            meets[j].add(i)

    grid_quadrics = tuple(grid_quadric(points, lines, line_points, meets,
                                       h.l_lines, h.m_lines) for h in HALVES)
    return H4Configuration(points, planes, lines, line_points, plane_points,
                           point_planes, point_lines, line_planes, plane_lines,
                           secants, {i: frozenset(s) for i, s in meets.items()},
                           grid_quadrics)


def grid_quadric(points: Dict, lines: Dict, line_points: Dict, meets: Dict,
                 l_lines: Sequence[int], m_lines: Sequence[int]) -> HomForm:
    """The monic `transversal_quadric` Q of l_1, l_2, l_3: up to scale, the
    one quadric through the 9 points l_i . m_j, i, j <= 3.

    It checks the hypotheses on the exact tables, or raises ValueError: no
    two of l_1, l_2, l_3 meet (``meets``), and the l_i . m_j are 9 distinct
    points.  A quadric through them meets each l_i in three distinct points,
    so contains it.  With l_1 = {x0 = x1 = 0}, l_2 = {x2 = x3 = 0} and l_3 =
    {x0 = x2, x1 = x3}, it is then u^T B w, u = (x0, x1), w = (x2, x3), with
    u^T B u = 0, so B is antisymmetric: c*(x0*x3 - x1*x2).  So a nonzero Q
    that kills the 9 rows (exact Z[phi] products) spans those quadrics,
    whatever formula found it, at no prime; a zero Q or a missed row raises
    ArithmeticError (a bug)."""
    if any(b in meets[a] for a, b in combinations(l_lines[:3], 2)):
        raise ValueError(f"lines {list(l_lines[:3])} are not pairwise skew")
    cells = [set(line_points[li]) & set(line_points[mj])
             for li in l_lines[:3] for mj in m_lines[:3]]
    nine = [p for cell in cells if len(cell) == 1 for p in cell]
    if len(set(nine)) != 9:
        raise ValueError("the 3x3 subgrid has not 9 distinct points")
    coeffs = transversal_quadric(*(lines[i] for i in l_lines[:3]))
    if all(w == (0, 0) for w in coeffs):
        raise ArithmeticError("the transversal quadric is zero")
    rows = [_quadric_row(points[p].pairs) for p in nine]
    if linalg.first_missed_row(rows, [coeffs]) is not None:
        raise ArithmeticError("the transversal quadric misses the subgrid")
    return HomForm(4, 2, {c: FieldElement(*w)
                          for c, w in zip(_QUADRIC_MONOMIALS, coeffs)}).monic()


_QUADRIC_MONOMIALS = tuple(monomials(2, 4))  # the order of `_quadric_row`


def _quadric_row(point: Sequence[Pair]) -> List[Pair]:
    """The quadratic monomials at a point of Z[phi] pairs, in the order of
    `monomials(2, 4)`: the pair products x_i * x_j, i <= j."""
    return products(combinations_with_replacement(point, 2))


def incidence_table_planes(cfg: H4Configuration) -> Dict[int, Tuple[int, ...]]:
    """Plane index -> the 15 point indices it contains."""
    return dict(cfg.plane_points)


def incidence_table_lines(cfg: H4Configuration) -> Dict[int, Tuple[int, ...]]:
    """Line index -> the 5 point indices it carries."""
    return dict(cfg.line_points)


def special_points_for_grid(
    cfg: H4Configuration, grid_points: Iterable[int]
) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
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
    grid = set(grid_points)
    assert len(grid) == 25, "expected a 25-point grid"
    pairs: Dict[int, List[Tuple[int, int]]] = {x: [] for x in set(cfg.points) - grid}
    for s in cfg.secants:
        on_grid = [a for a in s if a in grid]
        if len(on_grid) > 1:
            for x in set(s) - grid:
                pairs[x] += combinations(on_grid, 2)
    return [(x, tuple(sorted(ps))) for x, ps in sorted(pairs.items())
            if len(ps) == 10 and len({i for pair in ps for i in pair}) == 20]


def grid_point_indices(cfg: H4Configuration, line_indices: Iterable[int]) -> Tuple[int, ...]:
    """Union of the configuration points on the given lines, sorted."""
    return tuple(sorted({p for i in line_indices for p in cfg.line_points[i]}))


def z_partition(cfg: H4Configuration) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The split: the first half's grid and external line, and the rest."""
    half = HALVES[0]
    z1 = grid_point_indices(cfg, half.l_lines + (half.external_line,))
    return z1, tuple(sorted(set(cfg.points) - set(z1)))


def format_table(table: Dict[int, Tuple[int, ...]], name: str, sep: str) -> str:
    """One line per index i: name_i, then its row joined by sep."""
    return "\n".join(f"{name}_{i}: " + sep.join(map(str, table[i]))
                     for i in sorted(table))
