"""Exact covers of the 60 points by disjoint lines, and (5,5)-grid search.

A covering partitions the point set into 12 of the 72 five-point lines.  The
search branches on the lowest uncovered point, so every solution appears
exactly once and the output order is deterministic.  Grid enumeration walks
skew 5-cliques in the line meet-graph, pruning on the pool of common
transversals.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .config import H4Configuration
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


def verify_covering(cfg: H4Configuration, lines: Sequence[int]) -> bool:
    """True iff the 12 lines' point sets are disjoint and cover every point:
    counted with repeats, twelve five-point lines carry 60 points, so
    exactly when their union is all 60 points."""
    lines = list(lines)
    if len(lines) != 12 or not set(lines) <= set(cfg.lines):
        return False
    return {p for i in lines for p in cfg.line_points[i]} == set(cfg.points)


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


def _members(mask: int) -> List[int]:
    """The set bits of a bitset, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def enumerate_grids(cfg: H4Configuration) -> List[GridCertificate]:
    """All unordered (5,5)-grids among the 72 lines, each fully verified.

    An L-family is a skew 5-clique of the stored meet relation ``cfg.meets``;
    its partners must meet all five L-lines, so cliques whose
    common-transversal pool drops below 5 are pruned early, as are cliques
    with too few candidates left to reach five lines.
    The unordered pair {L, M} is reported once, with min(L) < min(M): the
    transversal pool holds only lines above the first L-line from the first
    step on, so each M-family found is already on the right side, and each
    (L, M) is reached once.  Line sets are int bitsets, bit i for line i.
    """
    meets = {i: sum(1 << j for j in cfg.meets[i]) for i in cfg.lines}
    results: List[GridCertificate] = []

    def skew_cliques(pool: int, size: int) -> List[Tuple[int, ...]]:
        out: List[Tuple[int, ...]] = []

        def grow(clique: List[int], rest: int) -> None:
            if len(clique) == size:
                out.append(tuple(clique))
                return
            for cand in _members(rest):
                if len(clique) + rest.bit_count() < size:
                    break
                rest &= rest - 1  # drop cand, the lowest line left
                clique.append(cand)
                grow(clique, rest & ~meets[cand])
                clique.pop()

        grow([], pool)
        return out

    def extend(clique: List[int], rest: int, trans: int) -> None:
        if trans.bit_count() < 5:
            return
        if len(clique) == 5:
            for m_set in skew_cliques(trans, 5):
                try:
                    results.append(verify_grid(cfg, tuple(clique), m_set))
                except NotAGridError:
                    pass
            return
        for cand in _members(rest):
            if len(clique) + rest.bit_count() < 5:
                break
            rest &= rest - 1
            clique.append(cand)
            extend(clique, rest & ~meets[cand], trans & meets[cand])
            clique.pop()

    everything = sum(1 << i for i in cfg.lines)
    for first in sorted(cfg.lines):
        above = everything >> (first + 1) << (first + 1)
        extend([first], above & ~meets[first], above & meets[first])
    results.sort(key=lambda g: (g.l_lines, g.m_lines))
    return results
