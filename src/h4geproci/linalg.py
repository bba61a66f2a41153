"""Exact linear algebra over Q(phi), and one elimination kernel over F_p.

The exact kernel, `_eliminate`, runs Bareiss forward elimination on rows of
integer pairs (x, y) that stand for x + y*phi in Z[phi], with phi**2 =
phi + 1.  Each update is a two-by-two minor divided by the previous pivot w,
computed as the minor times conj(w) floor-divided by the integer N(w) =
w*conj(w) in each component; that division is exact (the argument is at
`_eliminate`).  `nullspace` takes Z[phi] pair rows, as interpolation and the
gcd produce them, back-substitutes fraction-free on the pairs and returns
pair vectors (the argument is there); `determinant` takes FieldElement rows,
as the minors of plane spans come, scales each by a positive rational to
coprime Z[phi] numerators (`field.primitive_numerators`) and divides the
scales out again.  Scaling a row by a nonzero rational leaves the rank, the
pivot columns and the nullspace unchanged.  `_dot` is the one Z[phi]
multiply-accumulate loop: kernel checks, back substitution, form evaluation
and the incidence predicates all use it.

Over F_p, matrices are lists of lists of ints; `independent_rows_mod`
reduces them one row at a time and keeps the first independent rows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .field import FieldElement, ONE, ZERO, primitive_numerators

Pair = Tuple[int, int]  # x + y*phi in Z[phi]


def _eliminate(rows: List[List[Pair]]) -> Tuple[List[List[Pair]], List[int], int]:
    """Bareiss forward elimination of Z[phi] rows, in place.

    Returns (echelon rows, pivot columns, swap sign); the sign is -1 when an
    odd number of row swaps was made, else 1.

    Exactness.  After the step on the k-th pivot, the entry of a lower row
    in a later column is the (k+1)-minor of the input on the k pivot rows
    and that row, and the k pivot columns and that column (Sylvester's
    identity), so it lies in Z[phi].  The update num = p*a - f*b therefore
    equals q*prev with q in Z[phi], so num*conj(prev) = q*N(prev) and both
    of its integer components are multiples of N(prev), a nonzero integer:
    the floor divisions are exact.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: List[int] = []
    cx, cy, n = 1, 0, 1  # conj(prev) and N(prev); prev = 1 at the start
    sign = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != (0, 0)), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        top = rows[r]
        px, py = top[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            fx, fy = row[c]
            for j in range(c + 1, ncols):
                ax, ay = row[j]
                bx, by = top[j]
                # num = p*a - f*b, then (num * conj(prev)) // N(prev).
                s, t = py * ay, fy * by
                nx = px * ax + s - fx * bx - t
                ny = px * ay + ax * py + s - fx * by - bx * fy - t
                s = ny * cy
                row[j] = ((nx * cx + s) // n, (nx * cy + cx * ny + s) // n)
            row[c] = (0, 0)
        cx, cy, n = px + py, -py, px * px + px * py - py * py
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, sign


def nullspace(rows: Sequence[Sequence[Pair]]) -> List[List[Pair]]:
    """Basis of the right nullspace of Z[phi] rows, one pair vector per free
    column: D times the vector with 1 in that column and 0 in the other free
    columns, where D is the last Bareiss pivot (1 when nothing pivots).

    The vectors are deterministic and already echelonized.  The input is not
    modified, and scaling its rows by nonzero scalars changes nothing.

    Back substitution stays in Z[phi].  Let A be the first r (swapped) rows
    on the r pivot columns; the other rows eliminate to zero, so the kernel
    is that of these rows, and the last pivot D is det A.  With D in the
    free column the pivot entries solve A x = -D a (a the free column), so
    by Cramer's rule each, and so each step's quotient, is a minor of the
    input: its division by the pivot p, s*conj(p) floor-divided by N(p), is
    exact.
    """
    ncols = len(rows[0]) if rows else 0
    m, pivots, _ = _eliminate([list(row) for row in rows])
    d = m[len(pivots) - 1][pivots[-1]] if pivots else (1, 0)
    basis: List[List[Pair]] = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = {fc: d}
        for r in reversed(range(len(pivots))):
            sx, sy = _dot([m[r][j] for j in v], v.values())
            px, py = m[r][pivots[r]]
            n, t = px * px + px * py - py * py, sy * py
            v[pivots[r]] = ((t - sx * (px + py)) // n,
                            (t + sx * py - sy * (px + py)) // n)
        basis.append([v.get(j, (0, 0)) for j in range(ncols)])
    return basis


def determinant(matrix: Sequence[Sequence[FieldElement]]) -> FieldElement:
    """The bottom-right Bareiss entry, signed by the row swaps, over the row scales.

    The entry is the determinant of the scaled rows: it is the last pivot
    when the matrix is regular; otherwise the rows below the rank are zero,
    so it is zero.  Row i was scaled by the positive rational s_i, so the
    determinant of the input is that entry divided by the product of the s_i.
    """
    rows = [primitive_numerators(row) for row in matrix]
    scale = ONE
    for row, scaled in zip(matrix, rows):
        j = next((j for j, e in enumerate(row) if not e.is_zero()), None)
        if j is None:
            return ZERO
        scale = scale * (FieldElement(*scaled[j]) / row[j])
    m, _, sign = _eliminate(rows)
    d = FieldElement(*m[-1][-1]) / scale
    return d if sign > 0 else -d


def _dot(u: Sequence[Pair], v: Sequence[Pair]) -> Pair:
    """The Z[phi] dot product sum u_i * v_i, as a pair."""
    sx = sy = 0
    for (a, b), (c, d) in zip(u, v):
        # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi.
        t = b * d
        sx += a * c + t
        sy += a * d + b * c + t
    return sx, sy


def first_missed_row(rows: Sequence[Sequence[Pair]],
                     vectors: Sequence[Sequence[Pair]]) -> Optional[int]:
    """The first row, for the first vector, that the vector does not kill:
    an exact Z[phi] dot product of pairs; None when every vector kills all."""
    for vec in vectors:
        for i, row in enumerate(rows):
            if _dot(row, vec) != (0, 0):
                return i
    return None


def independent_rows_mod(rows: Sequence[Sequence[int]], p: int) -> List[int]:
    """Indices of the first rows independent mod p, in input order.

    Gaussian elimination over F_p, one row at a time: each row is reduced by
    the rows kept before it and is kept when a nonzero entry remains, so the
    number kept is the rank.  Entries may be any ints; the input is not
    modified.
    """
    kept: List[int] = []
    reducers: List[Tuple[int, int, Sequence[int]]] = []  # (column, 1/pivot, row)
    ncols = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        for c, inv, kept_row in reducers:
            k = row[c] * inv % p
            if k:
                row = [(x - k * y) % p for x, y in zip(row, kept_row)]
        c = next((c for c, x in enumerate(row) if x % p), None)
        if c is None:
            continue
        kept.append(i)
        reducers.append((c, pow(row[c] % p, -1, p), row))
        if len(kept) == ncols:
            break
    return kept
