"""Exact covers of the 60 points by disjoint lines, and (5,5)-grid search.

A covering partitions the point set into 12 of the 72 five-point lines.  The
search branches on the lowest uncovered point, so every solution appears
exactly once and the output order is deterministic.  A grid is found from
its lowest line f: one line through each of f's five points, then their
four common transversals.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, List, Tuple

from .config import GridCertificate, H4Configuration, members, verify_grid


class CoverCertificate(namedtuple("CoverCertificate", "lines")):
    """Twelve line indices whose point sets partition {1..60}."""

    __slots__ = ()

    def __new__(cls, lines: Iterable[int]) -> "CoverCertificate":
        lines = tuple(sorted(lines))
        if len(lines) != 12 or len(set(lines)) != 12:
            raise ValueError("a covering needs 12 distinct line indices")
        return super().__new__(cls, lines)

    def to_json(self) -> list:
        return list(self.lines)


def enumerate_coverings(cfg: H4Configuration) -> List[CoverCertificate]:
    """All partitions of the points into 12 disjoint lines, sorted.

    Point sets are int bitsets, bit p for point p.  The search branches on
    the lines through the lowest uncovered point that lie in the uncovered
    set; every covering has exactly one of them, so it is found once.
    """
    masks = {i: sum(1 << p for p in cfg.line_points[i]) for i in cfg.lines}
    found: List[Tuple[int, ...]] = []

    def search(uncovered: int, chosen: List[int]) -> None:
        if not uncovered:
            found.append(tuple(sorted(chosen)))
            return
        for i in cfg.point_lines[(uncovered & -uncovered).bit_length() - 1]:
            if masks[i] & uncovered == masks[i]:
                chosen.append(i)
                search(uncovered ^ masks[i], chosen)
                chosen.pop()

    search(sum(1 << p for p in cfg.points), [])
    found.sort()
    return [CoverCertificate(c) for c in found]


def enumerate_grids(cfg: H4Configuration) -> List[GridCertificate]:
    """All unordered (5,5)-grids among the 72 lines, each fully verified.

    Lemma.  Two common transversals t, t' of three pairwise skew lines are
    skew.  If they met at a point X, each of the three lines would pass
    through X or lie in the plane of t and t'; pairwise skew lines allow at
    most one of each.

    Completeness.  Let f be the lowest of a grid's ten lines and L its
    family.  The M-lines meet f in five distinct grid points, and f carries
    exactly five configuration points (``cfg.line_points``), so M is one
    line through each point of f (``cfg.point_lines``), above f and pairwise
    skew.  The search branches point by point along f on ``cfg.meets`` as
    int bitsets (bit i for line i).  ``trans`` keeps the lines above f, skew
    to f, that meet every M-line so far, and the search prunes below 4.  At
    a leaf the lemma makes ``trans`` pairwise skew, so its lines meet each
    M-line in distinct configuration points (``meets``), none on f, of the
    M-line's five: at most four.  ``trans`` holds the grid's other four
    L-lines, so it is exactly them, and each grid is reached once, as (L, M)
    with min(L) < min(M).

    Soundness.  Every candidate satisfies each combinatorial condition of
    `verify_grid` by construction.  The M-lines are one line above f through
    each point of f, pairwise skew.  The L-lines are f and ``trans``, skew
    by the lemma and to f; each meets every M-line, which no M-line does,
    so the families share no line.  Every cell l . m is a ``meets`` entry,
    and two equal cells would be one point on two lines of one family,
    which would then meet.  So a NotAGridError here is a bug, and it
    propagates like any VerificationError: a table that broke the lemma
    would hand `verify_grid` six L-lines, not drop a grid.
    """
    meets = {i: sum(1 << j for j in cfg.meets[i]) for i in cfg.lines}
    through = {p: sum(1 << i for i in cfg.point_lines[p]) for p in cfg.points}
    results: List[GridCertificate] = []

    def pick(f: int, m_lines: List[int], skew: int, trans: int) -> None:
        if trans.bit_count() < 4:
            return
        if len(m_lines) == 5:
            results.append(verify_grid(cfg, [f] + members(trans), sorted(m_lines)))
            return
        for m in members(skew & through[cfg.line_points[f][len(m_lines)]]):
            m_lines.append(m)
            pick(f, m_lines, skew & ~meets[m], trans & meets[m])
            m_lines.pop()

    everything = sum(1 << i for i in cfg.lines)
    for f in sorted(cfg.lines):
        above = everything >> (f + 1) << (f + 1)
        pick(f, [], above, above & ~meets[f])
    results.sort(key=lambda g: (g.l_lines, g.m_lines))
    return results
