"""Exact covers of the 60 points by disjoint lines, and (5,5)-grid search.

A covering partitions the point set into 12 of the 72 five-point lines.  The
search is classic exact-cover backtracking: branch on the uncovered point
with the fewest usable lines, so every solution appears exactly once and the
output order is deterministic.  Grid enumeration walks skew 5-cliques in the
line meet-graph, pruning on the pool of common transversals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .config import H4Configuration
from .geproci import GridCertificate, NotAGridError, verify_grid


@dataclass(frozen=True)
class CoverCertificate:
    """Twelve line indices whose point sets partition {1..60}."""

    lines: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(sorted(self.lines)))
        if len(self.lines) != 12 or len(set(self.lines)) != 12:
            raise ValueError("a covering needs 12 distinct line indices")

    def to_json(self) -> list:
        return list(self.lines)


def verify_covering(cfg: H4Configuration, lines: Sequence[int]) -> bool:
    """True iff the 12 lines' point sets are disjoint and cover every point."""
    lines = list(lines)
    if len(lines) != 12 or len(set(lines)) != 12:
        return False
    if any(i not in cfg.lines for i in lines):
        return False
    covered: Set[int] = set()
    total = 0
    for i in lines:
        pts = cfg.line_points[i]
        covered.update(pts)
        total += len(pts)
    return total == 60 and covered == set(cfg.points)


def enumerate_coverings(cfg: H4Configuration) -> List[CoverCertificate]:
    """All partitions of the points into 12 disjoint lines, sorted."""
    line_sets: Dict[int, FrozenSet[int]] = {
        i: frozenset(cfg.line_points[i]) for i in cfg.lines
    }
    point_lines: Dict[int, Tuple[int, ...]] = {
        p: cfg.point_lines[p] for p in cfg.points
    }
    found: List[Tuple[int, ...]] = []

    def search(uncovered: FrozenSet[int], chosen: List[int]) -> None:
        if not uncovered:
            found.append(tuple(sorted(chosen)))
            return
        branch: List[int] = None  # type: ignore[assignment]
        for p in sorted(uncovered):
            usable = [i for i in point_lines[p] if line_sets[i] <= uncovered]
            if branch is None or len(usable) < len(branch):
                branch = usable
                if not usable:
                    return
        for i in branch:
            chosen.append(i)
            search(uncovered - line_sets[i], chosen)
            chosen.pop()

    search(frozenset(cfg.points), [])
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
