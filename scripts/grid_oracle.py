#!/usr/bin/env python3
"""Brute-force (5,5)-grid count, independent of the lowest-line search.

Strategy: enumerate all 5-subsets of the 72 lines with pairwise disjoint
point sets (bitmask backtracking), bucket them by their 25-point union, and
inside each bucket test every unordered pair of families combinatorially
(each cross pair of lines must share exactly one point) and geometrically
(skewness within each family, a unique quadric through the union).  The
geometric tests are its own, on FieldElement arithmetic, and share no
predicate with the package: two lines are skew when the Pluecker pairing of
their spanning points is nonzero, and the quadric is unique when the exact
rank of the 25 x 10 matrix of the degree-2 monomials at the 25 points, over
all rows, is 9.  The test suite imports `count_grids` and checks it against
`h4geproci.coverings.enumerate_grids`, which searches from each grid's
lowest line.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from itertools import combinations, combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from h4geproci.config import H4Configuration, build_h4
from h4geproci.field import ZERO


def rank(rows) -> int:
    """Exact rank by Gaussian elimination with field inverses."""
    rows = [list(row) for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def pluecker(p, q) -> list:
    """The minors p_i*q_j - p_j*q_i, in the order 01, 02, 03, 12, 13, 23."""
    return [p[i] * q[j] - p[j] * q[i]
            for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]


def lines_meet(line_a, line_b) -> bool:
    """Two lines meet iff the Pluecker pairing of their coordinates is 0."""
    a = pluecker(line_a.p.coords, line_a.q.coords)
    b = pluecker(line_b.p.coords, line_b.q.coords)
    pairing = (a[0] * b[5] - a[1] * b[4] + a[2] * b[3]
               + a[3] * b[2] - a[4] * b[1] + a[5] * b[0])
    return pairing == ZERO


def has_unique_quadric(points) -> bool:
    """The quadrics through the points form a 1-dimensional space."""
    rows = [[p[i] * p[j] for i, j in combinations_with_replacement(range(4), 2)]
            for p in points]
    return rank(rows) == 9


def count_grids(cfg: H4Configuration) -> tuple[int, int]:
    """(number of disjoint 5-line families, number of (5,5)-grids)."""
    idx = sorted(cfg.lines)
    masks = {i: sum(1 << (p - 1) for p in cfg.line_points[i]) for i in idx}

    families: list[tuple[int, ...]] = []

    def grow(start: int, chosen: list[int], used: int) -> None:
        if len(chosen) == 5:
            families.append(tuple(chosen))
            return
        for k in range(start, len(idx)):
            i = idx[k]
            if masks[i] & used:
                continue
            chosen.append(i)
            grow(k + 1, chosen, used | masks[i])
            chosen.pop()

    grow(0, [], 0)

    buckets: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for fam in families:
        buckets[sum(masks[i] for i in fam)].append(fam)

    def skew_family(fam: tuple[int, ...]) -> bool:
        return all(not lines_meet(cfg.lines[a], cfg.lines[b])
                   for a, b in combinations(fam, 2))

    grids = 0
    for union_mask, fams in buckets.items():
        if len(fams) < 2:
            continue
        for fa, fb in combinations(fams, 2):
            pts = {i: set(cfg.line_points[i]) for i in fa + fb}
            if any(len(pts[a] & pts[b]) != 1 for a in fa for b in fb):
                continue
            if not (skew_family(fa) and skew_family(fb)):
                continue
            union = [cfg.points[p + 1].coords
                     for p in range(60) if union_mask >> p & 1]
            if not has_unique_quadric(union):
                continue
            grids += 1
    return len(families), grids


def main() -> None:
    families, grids = count_grids(build_h4())
    print(f"disjoint 5-line families: {families}")
    print(f"(5,5)-grids: {grids}")


if __name__ == "__main__":
    main()
