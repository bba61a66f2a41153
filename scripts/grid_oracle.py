#!/usr/bin/env python3
"""Brute-force (5,5)-grid count, independent of the clique-transversal search.

Strategy: enumerate all 5-subsets of the 72 lines with pairwise disjoint
point sets (bitmask backtracking), bucket them by their 25-point union, and
inside each bucket test every unordered pair of families combinatorially
(each cross pair of lines must share exactly one point) and geometrically
(skewness within each family, a unique quadric through the union).  The
quadric test is its own: the exact rank of the 25 x 10 matrix of the degree-2
monomials at the 25 points, over all rows, must be 9.  The test suite imports
`count_grids` and checks it against the clique-transversal search of
`h4geproci.coverings.enumerate_grids`.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from itertools import combinations, combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from h4geproci.config import H4Configuration, build_h4
from h4geproci.linalg import rank
from h4geproci.projective import lines_meet


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
