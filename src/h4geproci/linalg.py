"""Exact linear algebra over Q(phi), and the one elimination kernel, over F_p.

Exact rows hold integer pairs (x, y) that stand for x + y*phi in Z[phi];
their arithmetic and their residues mod p are `field`'s.  `nullspace` takes
pair rows, as interpolation produces them: split primes propose the
kernel, each in one elimination per root of x^2 - x - 1 (the first reads
every row, the second only the rows the first kept), CRT and rational
reconstruction lift it, and an exact check (`field._dot` against every row)
certifies it.  `determinant` is Laplace expansion on FieldElements, for the
3x3 minors of pushed lines, so nothing here eliminates exactly.

Over F_p, rows are lists of ints.  `_echelon_mod`, the only elimination,
brings them to reduced echelon form one row at a time, for `nullspace` and
for `independent_rows_mod`, which keeps the first independent rows; both
take any iterable of rows and stop reading it at the last possible pivot.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from .field import (FieldElement, ONE, ZERO, Pair, _dot, primitive_numerators,
                    residues)


def nullspace(rows: Sequence[Sequence[Pair]]) -> list[list[Pair]]:
    """Basis of the right nullspace N of Z[phi] rows, one pair vector per
    free column g: the vector b_g with 1 at g, 0 at the other free columns
    and 0 past g, scaled by a positive rational to coprime pairs.  The input
    is not modified, and scaling its rows by nonzero scalars changes nothing.

    Split primes q propose the vectors: `_KERNEL_PRIME`, below 2^60, then
    `_split_primes`.  At the root r of x^2 - x - 1 mod q, `_kernel_mod`
    eliminates every row and gives the pivot columns, the residues a of each
    entry x + y*phi of b_g, and the rows it kept; at the other root 1 - r it
    eliminates only those rows, for the residues b.  Then y = (a - b)/(2r - 1)
    and x = a - y*r.  Primes with one pivot set join by CRT; a
    lexicographically smaller set (ncols appended) starts afresh, and a larger
    set, or two roots that disagree, passes the prime over.  The entries are
    rationally reconstructed (`_rational`) in turn, up to the first that fails,
    and the basis is returned once every vector kills every row, exactly
    (`first_missed_row`).

    Soundness.  Once they pass the check, the b_g lie in N, and with 1 at g
    and 0 at the other free columns they are independent.  Their number,
    ncols minus the rank of all rows at r, is at least dim N (a unit minor
    mod q is a nonzero minor), so they span N.  No vector of N ends at a
    pivot column over Q(phi), and b_g ends at g, so the free sets agree and
    each b_g is the canonical vector.  An empty kernel at r is an empty N.
    A rank that drops at r leaves too many vectors to pass the check.

    Termination.  Let h be log2 of the Hadamard bound of the rows, with
    |x + y*phi| <= |x| + 2|y| at either root.  The entries of b_g are ratios
    of minors: their rational parts have numerators below 2^(2h+2) and
    denominators at most 2^(2h), so reconstruction is right once the joined
    primes pass 2^(4h+5).  Let K* be the rows that elimination over Q(phi)
    keeps, one at a time, and M* their minor on the exact pivot columns.
    Where q does not divide N(M*), at most 2^(2h), M* is a unit at both
    roots: the rows kept at r are K*, and at both roots they have the exact
    pivots and the residues of the exact kernel.  So primes tried past
    2^(6h+6) without a basis mean a fault, and raise ArithmeticError; h is
    computed only once a prime has failed, since nothing else reads it.
    """
    ncols = len(rows[0]) if rows else 0
    key, tried, h = None, 1, None
    for q, r in itertools.chain([_KERNEL_PRIME], _split_primes()):
        tried *= q
        pivots, a, kept = _kernel_mod(rows, q, r)
        if len(pivots) == ncols:
            return []
        pivots_b, b, _ = _kernel_mod([rows[i] for i in kept], q, 1 - r)
        if pivots == pivots_b and (key is None or pivots + [ncols] <= key):
            if pivots + [ncols] != key:
                key, modulus, xs, ys = pivots + [ncols], 1, [0] * len(a), [0] * len(a)
            inv, t = pow(2 * r - 1, -1, q), pow(modulus, -1, q)
            y = [(u - v) * inv % q for u, v in zip(a, b)]
            x = [(u - w * r) % q for u, w in zip(a, y)]
            xs = [s + modulus * ((v - s) * t % q) for s, v in zip(xs, x)]
            ys = [s + modulus * ((v - s) * t % q) for s, v in zip(ys, y)]
            modulus *= q
            lifted = []
            for v in xs + ys:  # up to the first entry that does not lift
                lifted.append(_rational(v, modulus))
                if lifted[-1] is None:
                    break
            if None not in lifted:
                # Taken in `_kernel_mod` order: by g, then by pivot c < g.
                entries = zip(lifted[:len(xs)], lifted[len(xs):])
                basis = [primitive_numerators(
                    (1, 0) if j == g else next(entries) if j < g and j in pivots
                    else (0, 0) for j in range(ncols))
                    for g in range(ncols) if g not in pivots]
                if first_missed_row(rows, basis) is None:
                    return basis
        if h is None:
            h = sum((sum((abs(x) + 2 * abs(y)) ** 2 for x, y in row).bit_length() + 1) // 2
                    for row in rows)
        if tried.bit_length() > 6 * h + 6:
            raise ArithmeticError("no certified nullspace from the primes tried")


def _kernel_mod(rows: Sequence[Sequence[Pair]], q: int,
                r: int) -> tuple[list[int], list[int], list[int]]:
    """The pivot columns, ascending, of Z[phi] rows at phi -> r mod q; the
    entries of the kernel vectors b_g at the pivots c < g, by free column g,
    then by c; and the indices of the rows kept, which span the rest.
    Residues are taken as the elimination reads them, so none is taken past
    the last possible pivot."""
    kept, pivots, free = _echelon_mod((residues(row, q, r) for row in rows), q)
    at = {g: dict(zip(pivots, col)) for g, col in free.items()}
    pivots.sort()
    return pivots, [-at[g][c] % q for g in at for c in pivots if c < g], kept


def _rational(a: int, m: int) -> Fraction | None:
    """The fraction n/d = a mod m with |n|, d <= sqrt(m/2), or None (Wang,
    Guy and Davenport, 1982).  Euclid on (m, a) keeps r_i = t_i*a mod m; two
    such fractions congruent mod m are equal, since |n*d' - n'*d| < m."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return Fraction(r1, t1) if abs(t1) <= bound and gcd(r1, t1) == 1 else None


def _split_primes() -> Iterator[tuple[int, int]]:
    """Primes p > 2^31 with p = 11 or 19 (mod 20), each with its phi root.

    p = +-1 (mod 5) makes 5 a square mod p, so x^2 - x - 1 splits; p = 3
    (mod 4) makes s = 5^((p+1)/4) a square root of 5, and r = (1 + s)/2.
    """
    p = 2 ** 31
    while True:
        p += 1
        if p % 20 in (11, 19) and all(p % q for q in range(3, isqrt(p) + 1, 2)):
            s = pow(5, (p + 1) // 4, p)
            yield p, (1 + s) * pow(2, -1, p) % p


# The first split prime and its phi root, P = (p, phi - r) (a test checks
# both against `_split_primes`).  The rank tests mod P and the first
# smoothness attempt read them here at call time, so one patch moves all.
_PRIME, _PHI_ROOT = 2147483659, 1499939161

# The last split prime below 2^60 and its phi root (a test checks both): the
# sextic kernels at all 192 admissible vertices need a modulus of at most
# 2^35 (a test sweeps them), so it lifts them alone.
_KERNEL_PRIME = (1152921504606846719, 237181952041926287)


def determinant(matrix: Sequence[Sequence[FieldElement]]) -> FieldElement:
    """Laplace expansion along the first row, skipping zero entries: the sum
    over columns j of (-1)^j m[0][j] times the determinant of the minor
    without row 0 and column j, expanded the same way, each level from its
    first nonzero term (a dense 3x3 takes 5 additions); a zero row gives
    ZERO, a 0x0 matrix ONE.  Its one caller, `projective.line_image`, passes
    3x3 minors.  The recursion is nested, so one determinant is one call."""
    def expand(i: int, cols: list[int]) -> FieldElement:
        if len(cols) == 1:
            return matrix[i][cols[0]]
        terms = []
        for k, j in enumerate(cols):
            if not matrix[i][j].is_zero():
                term = matrix[i][j] * expand(i + 1, cols[:k] + cols[k + 1:])
                terms.append(-term if k % 2 else term)
        return sum(terms[1:], terms[0]) if terms else ZERO
    return expand(0, list(range(len(matrix)))) if matrix else ONE


def first_missed_row(rows: Sequence[Sequence[Pair]],
                     vectors: Sequence[Sequence[Pair]]) -> int | None:
    """The first row, for the first vector, that the vector does not kill:
    an exact Z[phi] dot product of pairs; None when every vector kills all."""
    for vec in vectors:
        for i, row in enumerate(rows):
            if _dot(row, vec) != (0, 0):
                return i
    return None


def independent_rows_mod(rows: Iterable[Sequence[int]], p: int) -> list[int]:
    """Indices of the first rows independent mod p, in input order; their
    number is the rank.  Rows: any iterable of any ints, left unmodified."""
    return _echelon_mod(rows, p)[0]


def _echelon_mod(rows: Iterable[Sequence[int]], p: int
                 ) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """Reduced echelon form over F_p, one row at a time.  Returns the indices
    of the first rows independent mod p, their pivot columns, and each free
    column's entries in those rows.  A kept row is 1 at its pivot and 0 at
    the others, so a new row reduces at free column j to row[j] -
    sum_i row[pivots[i]] * free[j][i].  A nonzero there, first at c, keeps
    the row, scaled to 1 at c and subtracted from the kept rows to clear c.
    The first row sets the width; reading stops once ``free`` is empty.
    """
    kept: list[int] = []
    pivots: list[int] = []
    rows = iter(rows)
    first = next(rows, ())
    free: dict[int, list[int]] = {j: [] for j in range(len(first))}
    for i, row in enumerate(itertools.chain([first], rows) if free else ()):
        head = [row[c] for c in pivots]
        rest = {j: (row[j] - sum(map(mul, head, col))) % p for j, col in free.items()}
        for c, x in rest.items():
            if x:
                break
        else:
            continue
        inv, top = pow(x, -1, p), free.pop(c)
        for j, col in free.items():
            u = rest[j] * inv % p
            if u:
                col[:] = [(v - t * u) % p for v, t in zip(col, top)]
            col.append(u)
        kept.append(i)
        pivots.append(c)
        if not free:
            break
    return kept, pivots, free
