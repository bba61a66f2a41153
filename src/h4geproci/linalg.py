"""Exact linear algebra over Q(phi), and one elimination kernel over F_p.

Matrices are lists of lists of FieldElement.  Forward elimination follows the
Bareiss scheme (two-by-two minors divided by the previous pivot), which keeps
entries in Z[phi] whenever the input rows are in Z[phi]; the division is exact
in any integral domain, and in a field it is exact trivially.

Over F_p, matrices are lists of lists of ints; `_eliminate_mod` reduces them
one row at a time, and the modular determinant and row selection both read it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .field import FieldElement, ONE, ZERO

Matrix = List[List[FieldElement]]


def _eliminate(
        matrix: Sequence[Sequence[FieldElement]]) -> Tuple[Matrix, List[int], int]:
    """Bareiss forward elimination: (echelon matrix, pivot columns, swap sign).

    The sign is -1 when an odd number of row swaps was made, else 1.
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: List[int] = []
    prev = ONE
    sign = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        p = m[r][c]
        for i in range(r + 1, nrows):
            factor = m[i][c]
            for j in range(c + 1, ncols):
                m[i][j] = (p * m[i][j] - factor * m[r][j]) / prev
            m[i][c] = ZERO
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, sign


def row_echelon(matrix: Sequence[Sequence[FieldElement]]) -> Tuple[Matrix, List[int]]:
    """Fraction-free row echelon form.  Returns (echelon matrix, pivot columns)."""
    m, pivots, _ = _eliminate(matrix)
    return m, pivots


def rank(matrix: Sequence[Sequence[FieldElement]]) -> int:
    return len(row_echelon(matrix)[1])


def nullspace(matrix: Sequence[Sequence[FieldElement]]) -> List[List[FieldElement]]:
    """Basis of the right nullspace, one vector per free column, in column order.

    Vector k has a 1 in its free column and 0 in every other free column, so
    the output is deterministic and already echelonized.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if nrows == 0:
        return [[ONE if i == j else ZERO for i in range(ncols)] for j in range(ncols)]
    echelon, pivots = row_echelon(matrix)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis: List[List[FieldElement]] = []
    for fc in free_cols:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = ZERO
            for j in range(pc + 1, ncols):
                if not v[j].is_zero() and not echelon[r][j].is_zero():
                    s = s + echelon[r][j] * v[j]
            v[pc] = -s / echelon[r][pc]
        basis.append(v)
    return basis


def determinant(matrix: Sequence[Sequence[FieldElement]]) -> FieldElement:
    """The bottom-right Bareiss entry, signed by the row swaps.

    It is the last pivot when the matrix is regular; otherwise the rows below
    the rank are zero, so it is zero.
    """
    m, _, sign = _eliminate(matrix)
    d = m[-1][-1]
    return d if sign > 0 else -d


def _eliminate_mod(rows: Sequence[Sequence[int]], p: int) -> List[Tuple[int, int, int]]:
    """Gaussian elimination over F_p, one row at a time, in input order.

    Each row is reduced by the rows kept before it and is kept when a nonzero
    entry remains.  Returns (row index, pivot column, pivot) for each kept row,
    the pivot being the row's first nonzero entry mod p after reduction.  The
    kept rows are the first rows independent mod p, and their count is the
    rank.  Entries may be any ints; the input is not modified.
    """
    kept: List[Tuple[int, int, int]] = []
    reducers: List[Tuple[int, int, Sequence[int]]] = []  # (column, 1/pivot, row)
    ncols = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        for c, inv, kept_row in reducers:
            k = row[c] * inv % p
            if k:
                row = [(x - k * y) % p for x, y in zip(row, kept_row)]
        for c, x in enumerate(row):
            if x % p:
                break
        else:
            continue
        pivot = row[c] % p
        kept.append((i, c, pivot))
        reducers.append((c, pow(pivot, -1, p), row))
        if len(kept) == ncols:
            break
    return kept


def independent_rows_mod(rows: Sequence[Sequence[int]], p: int) -> List[int]:
    """Indices of the first rows independent mod p, in input order."""
    return [i for i, _, _ in _eliminate_mod(rows, p)]


def determinant_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """The determinant over F_p of a square matrix, in range(p).

    After `_eliminate_mod` the reduced rows, with their columns put in pivot
    order, form an upper triangular matrix; the determinant is the product of
    the pivots, signed by the parity of that column order.
    """
    kept = _eliminate_mod(rows, p)
    if len(kept) < len(rows):
        return 0
    cols = [c for _, c, _ in kept]
    det = 1
    for i, (_, c, pivot) in enumerate(kept):
        if sum(d < c for d in cols[i + 1:]) % 2:
            det = -det
        det = det * pivot % p
    return det % p


def mat_vec(matrix: Sequence[Sequence[FieldElement]],
            vec: Sequence[FieldElement]) -> List[FieldElement]:
    return [sum((row[j] * vec[j] for j in range(len(vec))), ZERO) for row in matrix]


def transpose(matrix: Sequence[Sequence[FieldElement]]) -> Matrix:
    return [list(col) for col in zip(*matrix)]


def inverse(matrix: Sequence[Sequence[FieldElement]]) -> Matrix:
    """Inverse of a square matrix by Gauss-Jordan; raises on singular input."""
    n = len(matrix)
    aug = [list(matrix[i]) + [ONE if j == i else ZERO for j in range(n)]
           for i in range(n)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if not aug[i][c].is_zero()), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        if pivot_row != c:
            aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        inv_p = aug[c][c].inverse()
        aug[c] = [x * inv_p for x in aug[c]]
        for i in range(n):
            if i != c and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [aug[i][j] - f * aug[c][j] for j in range(2 * n)]
    return [row[n:] for row in aug]
