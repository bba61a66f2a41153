"""Exact covers of the 60 points by disjoint lines, and (5,5)-grid search.

A covering partitions the point set into 12 of the 72 five-point lines.  The
search branches on the lowest uncovered point, so every solution appears
exactly once and the output order is deterministic.  A grid is found from
its lowest line f: one line through each of f's five points, then a skew
4-clique among their common transversals.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Tuple

from .config import H4Configuration, members
from .geproci import GridCertificate, NotAGridError, verify_grid


class _Cover(NamedTuple):
    lines: Tuple[int, ...]


class CoverCertificate(_Cover):
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

    Completeness.  Let f be the lowest of a grid's ten lines and L its
    family.  The M-lines meet f in five distinct grid points, and f carries
    exactly five configuration points (``cfg.line_points``), so M is one
    line through each point of f (``cfg.point_lines``), above f and pairwise
    skew.  The other four L-lines are a skew 4-clique among the common
    transversals of M that lie above f and are skew to f.  The search
    branches point by point along f on ``cfg.meets`` as int bitsets (bit i
    for line i), pruning once fewer than 4 transversals are left, so each
    grid is reached once, as (L, M) with min(L) < min(M).
    """
    meets = {i: sum(1 << j for j in cfg.meets[i]) for i in cfg.lines}
    through = {p: sum(1 << i for i in cfg.point_lines[p]) for p in cfg.points}
    results: List[GridCertificate] = []

    def skew_cliques(pool: int) -> List[Tuple[int, ...]]:
        out: List[Tuple[int, ...]] = []

        def grow(clique: List[int], rest: int) -> None:
            if len(clique) == 4:
                out.append(tuple(clique))
                return
            for cand in members(rest):
                if len(clique) + rest.bit_count() < 4:
                    break
                rest &= rest - 1  # drop cand, the lowest line left
                clique.append(cand)
                grow(clique, rest & ~meets[cand])
                clique.pop()

        grow([], pool)
        return out

    def pick(f: int, m_lines: List[int], skew: int, trans: int) -> None:
        if trans.bit_count() < 4:
            return
        if len(m_lines) == 5:
            for rest in skew_cliques(trans):
                try:
                    results.append(verify_grid(cfg, (f,) + rest, sorted(m_lines)))
                except NotAGridError:
                    pass
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
