"""Linear algebra: exact nullspaces and determinants, and the elimination
kernel over F_p.  Bareiss elimination in FieldElement arithmetic, matrix
products, the matrix action, a Gauss-Jordan inverse and a determinant over
F_p are test-local references."""

import random
from fractions import Fraction
from itertools import combinations, islice, permutations
from math import isqrt

import pytest

from h4geproci import linalg
from h4geproci.field import FieldElement, ONE, ZERO, _dot
from elements import pairs_of


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[FieldElement(rng.randint(lo, hi), rng.randint(lo, hi))
             for _ in range(cols)] for _ in range(rows)]


def _rational_matrix(rng, rows, cols):
    """Entries (p/q) + (r/s) phi with small denominators."""
    return [[FieldElement(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
             for _ in range(cols)] for _ in range(rows)]


def _even_rows(m, k=FieldElement(6, 2)):
    """Each row times k, so every row has integer content > 1."""
    return [[x * k for x in row] for row in m]


def _integer_pairs(m):
    """The Z[phi] pairs of a matrix with integral entries, unscaled."""
    pairs = []
    for row in m:
        assert all(x.a.denominator == 1 and x.b.denominator == 1 for x in row)
        pairs.append([(int(x.a), int(x.b)) for x in row])
    return pairs


def _times(rows, k):
    """Each Z[phi] pair times k = (a, b), that is a + b*phi."""
    a, b = k
    return [[(x * a + y * b, x * b + y * a + y * b) for x, y in row]
            for row in rows]


def _mat_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(matrix, vec):
    """The matrix times a column vector, in FieldElement arithmetic."""
    return [sum((row[j] * vec[j] for j in range(len(vec))), ZERO)
            for row in matrix]


def reference_inverse(matrix):
    """Inverse of a square matrix by Gauss-Jordan; raises on singular input."""
    n = len(matrix)
    aug = [list(matrix[i]) + [ONE if j == i else ZERO for j in range(n)]
           for i in range(n)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if not aug[i][c].is_zero()), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        inv_p = aug[c][c].inverse()
        aug[c] = [x * inv_p for x in aug[c]]
        for i in range(n):
            if i != c and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [aug[i][j] - f * aug[c][j] for j in range(2 * n)]
    return [row[n:] for row in aug]


def _permutation_determinant(m):
    n = len(m)
    total = ZERO
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ONE if sign > 0 else -ONE
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + term
    return total


def test_determinant_matches_permutation_expansion():
    rng = random.Random(3)
    for n in (2, 3, 4):
        # Entries in {0, 1, phi, 1 + phi} force row swaps and singular cases.
        for lo, hi in ((-9, 9), (0, 1)):
            for _ in range(30):
                m = _random_matrix(rng, n, n, lo, hi)
                assert linalg.determinant(m) == _permutation_determinant(m)
                even = _even_rows(m)
                assert linalg.determinant(even) == _permutation_determinant(even)
    # Rows scaled by different rationals, and Q(phi) denominators.
    rng = random.Random(4)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            m = _random_matrix(rng, n, n)
            m = [[x * FieldElement(Fraction(2 * i + 2, 3)) for x in row]
                 for i, row in enumerate(m)]
            assert linalg.determinant(m) == _permutation_determinant(m)
            m = _rational_matrix(rng, n, n)
            assert linalg.determinant(m) == _permutation_determinant(m)


def _reference_eliminate(matrix):
    """Bareiss elimination in FieldElement arithmetic, on the unscaled rows.

    An independent reference for `linalg.nullspace` and
    `linalg.determinant`: returns (echelon matrix, pivot columns, swap sign).
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
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


def reference_nullspace(matrix):
    """The nullspace basis of `linalg.nullspace`, from `_reference_eliminate`."""
    ncols = len(matrix[0]) if matrix else 0
    if not matrix:
        return [[ONE if i == j else ZERO for i in range(ncols)] for j in range(ncols)]
    echelon, pivots, _ = _reference_eliminate(matrix)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[fc] = ONE
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum((echelon[r][j] * v[j] for j in range(pc + 1, ncols)), ZERO)
            v[pc] = -s / echelon[r][pc]
        basis.append(v)
    return basis


def divided_by_free_entries(basis, matrix):
    """`linalg.nullspace` pair vectors as FieldElements, each divided by its
    entry in its free column, for comparison with `reference_nullspace`."""
    ncols = len(matrix[0]) if matrix else 0
    pivots = _reference_eliminate(matrix)[1] if matrix else []
    free = [c for c in range(ncols) if c not in pivots]
    assert len(basis) == len(free)
    return [[FieldElement(*w) / FieldElement(*v[fc]) for w in v]
            for fc, v in zip(free, basis)]


def reference_rank(matrix):
    """The rank, as the number of pivots of `_reference_eliminate`."""
    return len(_reference_eliminate(matrix)[1]) if matrix else 0


def _reference_determinant(matrix):
    m, _, sign = _reference_eliminate(matrix)
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def _kernel_cases(rng):
    """Seeded matrices covering each way the row scaling can matter."""
    for _ in range(12):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        yield _random_matrix(rng, rows, cols)
        # Q(phi) denominators.
        yield _rational_matrix(rng, rows, cols)
        # Integer content > 1 in every row.
        yield _even_rows(_random_matrix(rng, rows, cols))
        # Zero rows, and zero leading entries that force row swaps.
        m = _random_matrix(rng, rows, cols, 0, 1)
        m.insert(rng.randint(0, rows), [ZERO] * cols)
        yield m
        m = _rational_matrix(rng, rows, cols)
        for row in m[:max(1, rows // 2)]:
            row[0] = ZERO
        yield m
        # Rank-deficient: repeated rows and rational combinations of rows.
        m = _rational_matrix(rng, rows, cols)
        k = FieldElement(Fraction(-3, 4), Fraction(1, 2))
        yield m + [[x * k + y for x, y in zip(m[0], m[-1])], list(m[-1])]
    for n in range(1, 6):
        m = _rational_matrix(rng, n, n)
        yield m
        yield m[::-1]
        yield _even_rows(m)
        yield [m[-1]] + m[1:]


def test_kernel_matches_the_field_element_reference():
    rng = random.Random(31)
    swapped = deficient = squares = 0
    for m in _kernel_cases(rng):
        _, ref_pivots, ref_sign = _reference_eliminate(m)
        rows = [pairs_of(row) for row in m]
        basis = reference_nullspace(m)
        assert divided_by_free_entries(linalg.nullspace(rows), m) == basis
        assert rows == [pairs_of(row) for row in m]
        # Any nonzero Z[phi] multiple of the rows has the same nullspace.
        assert divided_by_free_entries(linalg.nullspace(_times(rows, (3, -2))),
                                       m) == basis
        if len(m) == len(m[0]):
            assert linalg.determinant(m) == _reference_determinant(m)
            squares += 1
        swapped += ref_sign < 0
        deficient += len(ref_pivots) < min(len(m), len(m[0]))
    assert swapped > 10 and deficient > 10 and squares > 20


def test_kernel_times_the_last_pivot_lies_in_z_phi():
    """Cramer's rule, on the Bareiss reference: with the last pivot D of
    integral rows in the free column, every entry of a kernel vector is a
    minor of the rows, so D*v is in Z[phi]^n though v often is not."""
    def integral(x):
        return x.a.denominator == x.b.denominator == 1

    rng = random.Random(41)
    fractional = 0
    for m in _kernel_cases(rng):
        m = [[FieldElement(*w) for w in pairs_of(row)] for row in m]
        echelon, pivots, _ = _reference_eliminate(m)
        d = echelon[len(pivots) - 1][pivots[-1]] if pivots else ONE
        for v in reference_nullspace(m):
            assert all(integral(x * d) for x in v)
            fractional += not all(map(integral, v))
    assert fractional > 10


def lift_need(vectors):
    """The least bound B with |n|, d <= B for every rational part n/d of
    every entry of the reference vectors: reconstruction from a modulus m
    gets them all exactly when B <= isqrt(m // 2)."""
    return max((max(abs(c.numerator), c.denominator)
                for v in vectors for x in v for c in (x.a, x.b)), default=0)


def test_kernel_vectors_are_the_reference_vectors_in_coprime_pairs(kernel_prime):
    """Each vector is the reference one (1 in its free column, 0 in the
    others) times a positive rational, in coprime Z[phi] pairs, whichever
    primes proposed it.  At the stored prime q a further prime is drawn
    exactly when the reference vectors need a modulus above q; at 11, which
    divides many minors, also when 11 is unlucky."""
    q = linalg._KERNEL_PRIME[0]
    rng = random.Random(43)
    beyond = 0
    for m in list(_kernel_cases(rng)) + [_random_matrix(rng, rng.randint(1, 5),
                                                        rng.randint(1, 6), -99, 99)
                                         for _ in range(40)]:
        rows = [pairs_of(row) for row in m]
        reference = reference_nullspace(m)
        expected = [pairs_of(v) for v in reference]
        needs_more = lift_need(reference) > isqrt(q // 2)
        beyond += needs_more
        for scaled in (rows, _times(rows, (3, -2))):
            kernel_prime.clear()
            assert linalg.nullspace(scaled) == expected
            if q == 11:
                assert bool(kernel_prime) >= needs_more
            else:
                assert bool(kernel_prime) == needs_more
    assert beyond > 5


def test_kernel_prime_is_the_last_split_prime_below_2_to_the_60():
    sympy = pytest.importorskip("sympy")
    q, r = linalg._KERNEL_PRIME
    assert 2 ** 59 < q < 2 ** 60
    assert sympy.isprime(q) and q % 20 in (11, 19)
    assert (r * r - r - 1) % q == 0
    assert not any(sympy.isprime(p) for p in range(q + 1, 2 ** 60) if p % 20 in (11, 19))


def test_rational_reconstruction_stops_at_wangs_bound():
    """`_rational` at its boundary, with m the product of the first two
    split primes and n = isqrt(m // 2), the bound on |numerator| and
    denominator: n itself lifts to n/1 and its inverse to 1/n, while n + 1,
    one past the bound, has no fraction within it and gives None."""
    (p, _), (q, _) = islice(linalg._split_primes(), 2)
    m = p * q
    n = isqrt(m // 2)
    assert linalg._rational(n, m) == Fraction(n, 1)
    assert linalg._rational(pow(n, -1, m), m) == Fraction(1, n)
    assert linalg._rational(n + 1, m) is None


def _wrong_first_coefficient(monkeypatch, rounds, from_modulus=0):
    """Patch `linalg._rational` to return its first coefficient plus one,
    for the first `rounds` moduli from `from_modulus` up that it is called
    with; returns those moduli."""
    rational = linalg._rational
    moduli = []

    def wrong(a, m):
        x = rational(a, m)
        if (x is not None and m >= from_modulus and m not in moduli
                and len(moduli) < rounds):
            moduli.append(m)
            return x + 1
        return x

    monkeypatch.setattr(linalg, "_rational", wrong)
    return moduli


def test_a_wrong_reconstruction_is_never_returned(monkeypatch):
    """A wrong coefficient fails the exact check, every time: `nullspace`
    takes further primes or raises ArithmeticError once the primes tried
    pass its bound, and never returns a wrong basis."""
    moduli = _wrong_first_coefficient(monkeypatch, rounds=10 ** 6)
    rng = random.Random(71)
    raised = right = 0
    for m in _kernel_cases(rng):
        rows = [pairs_of(row) for row in m]
        moduli.clear()
        try:
            basis = linalg.nullspace(rows)
        except ArithmeticError:
            raised += 1
            continue
        assert basis == [pairs_of(v) for v in reference_nullspace(m)]
        right += 1
    assert raised > 20 and right > 5


def test_a_wrong_reconstruction_is_repaired_by_the_next_prime(monkeypatch):
    """Rows with large minors, whose kernel the stored prime alone cannot
    lift: a wrong coefficient at the modulus where the lift first holds
    costs exactly one more prime, joined by CRT, and the basis is the
    reference one.  (At a smaller modulus the first coefficient is often
    reconstructed to a wrong fraction anyway, so a wrong one there costs
    nothing.)"""
    rng = random.Random(73)
    m = _random_matrix(rng, 6, 8, -10 ** 6, 10 ** 6)
    m.append([x + y for x, y in zip(m[0], m[1])])
    rows = [pairs_of(row) for row in m]
    expected = [pairs_of(v) for v in reference_nullspace(m)]
    drawn = []
    split_primes = linalg._split_primes

    def counting():
        for q, r in split_primes():
            drawn.append(q)
            yield q, r

    rational, tried = linalg._rational, []
    monkeypatch.setattr(linalg, "_split_primes", counting)
    monkeypatch.setattr(linalg, "_rational", lambda a, m: tried.append(m) or rational(a, m))
    assert linalg.nullspace(rows) == expected
    lifted_at = tried[-1]
    assert drawn and lifted_at > linalg._KERNEL_PRIME[0]
    monkeypatch.setattr(linalg, "_rational", rational)
    without = len(drawn)
    drawn.clear()
    moduli = _wrong_first_coefficient(monkeypatch, rounds=1, from_modulus=lifted_at)
    assert linalg.nullspace(rows) == expected
    assert moduli == [lifted_at]
    assert len(drawn) == without + 1


def test_first_missed_row_is_an_exact_product_check():
    rng = random.Random(37)
    for m in _kernel_cases(rng):
        rows = [pairs_of(row) for row in m]
        basis = linalg.nullspace(rows)
        assert linalg.first_missed_row(rows, basis) is None
        # A row that the first vector does not kill is found, first in order.
        if basis:
            v = basis[0]
            fc = next(j for j, x in enumerate(v) if x != (0, 0))
            extra = [(1, 0) if j == fc else (0, 0) for j in range(len(v))]
            assert linalg.first_missed_row(rows + [extra], basis) == len(rows)
            assert linalg.first_missed_row([extra] + rows, basis) == 0
    assert linalg.first_missed_row([[(1, 2)]], []) is None


def test_nullspace_vectors_annihilate_the_matrix():
    rng = random.Random(9)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols, -4, 4)
        basis = linalg.nullspace(_integer_pairs(m))
        assert reference_rank(m) + len(basis) == cols
        for v in basis:
            assert all(x.is_zero() for x in mat_vec(m, [FieldElement(*w) for w in v]))


def test_nullspace_of_rank_deficient_matrix():
    row = [FieldElement(1), FieldElement(2), FieldElement(3)]
    m = [row, [x * FieldElement(2) for x in row]]
    basis = linalg.nullspace(_integer_pairs(m))
    assert len(basis) == 2
    assert divided_by_free_entries(basis, m) == reference_nullspace(m)


def _pair_product(a, b):
    """The product of Z[phi] pair matrices."""
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def test_nullspace_matches_sympy_over_q_sqrt5():
    """On random rank-deficient Z[phi] matrices, the pair vectors agree with
    sympy's nullspace over Q(sqrt5): same dimension, killed by every row,
    zero in the other free columns, and the same span."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    field = sympy.QQ.algebraic_field(sympy.sqrt(5))
    half = field.convert(sympy.QQ(1, 2))
    phi = half + half * field.from_sympy(sympy.sqrt(5))

    def matrix(rows, ncols):
        return DomainMatrix([[field.convert(x) + field.convert(y) * phi
                              for x, y in row] for row in rows],
                            (len(rows), ncols), field)

    rng = random.Random(47)
    dims = set()
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(2, 8)
        rank = rng.randint(0, min(nrows, ncols) - 1)
        pick = (0, 0, 1, -1, rng.randint(-9, 9))
        left = [[(rng.choice(pick), rng.choice(pick)) for _ in range(rank)]
                for _ in range(nrows)]
        right = [[(rng.choice(pick), rng.choice(pick)) for _ in range(ncols)]
                 for _ in range(rank)]
        rows = (_pair_product(left, right) if rank
                else [[(0, 0)] * ncols for _ in range(nrows)])
        a = matrix(rows, ncols)
        ours = linalg.nullspace(rows)
        theirs = a.nullspace()
        free = [c for c in range(ncols) if c not in a.rref()[1]]
        assert len(ours) == theirs.shape[0] == len(free) > 0
        basis = matrix(ours, ncols)
        assert (a * basis.transpose()).is_zero_matrix
        for fc, v in zip(free, ours):
            assert [c for c in free if v[c] != (0, 0)] == [fc]
        assert basis.rank() == len(ours)
        assert DomainMatrix.vstack(basis, theirs).rank() == len(ours)
        dims.add(len(ours))
    assert len(dims) > 3


def test_inverse_roundtrip_and_singular_detection():
    """The reference inverse exists exactly when the determinant is nonzero,
    and it inverts on both sides.  Entries in {0, 1, phi, 1 + phi} make
    singular matrices common."""
    rng = random.Random(13)
    done = singular = 0
    while done < 25 or singular < 5:
        m = _random_matrix(rng, 4, 4, 0, 1)
        if linalg.determinant(m).is_zero():
            with pytest.raises(ZeroDivisionError):
                reference_inverse(m)
            singular += 1
            continue
        inv = reference_inverse(m)
        identity = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
        assert _mat_mul(m, inv) == identity == _mat_mul(inv, m)
        done += 1


def test_determinant_is_multiplicative_and_transpose_invariant():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for a, b in ((_random_matrix(rng, n, n), _rational_matrix(rng, n, n)),
                     (_random_matrix(rng, n, n, 0, 1), _random_matrix(rng, n, n))):
            det_a = linalg.determinant(a)
            assert linalg.determinant(_mat_mul(a, b)) == det_a * linalg.determinant(b)
            assert linalg.determinant([list(c) for c in zip(*a)]) == det_a


def test_determinant_alternating_in_rows():
    rng = random.Random(19)
    for m in (_random_matrix(rng, 3, 3), _rational_matrix(rng, 3, 3),
              _even_rows(_random_matrix(rng, 3, 3))):
        assert not linalg.determinant(m).is_zero()
        swapped = [m[1], m[0], m[2]]
        assert linalg.determinant(swapped) == -linalg.determinant(m)
        degenerate = [m[0], m[0], m[2]]
        assert linalg.determinant(degenerate).is_zero()
        # Linear in each row: doubling one row doubles the determinant.
        doubled = [m[0], [x * FieldElement(2) for x in m[1]], m[2]]
        assert linalg.determinant(doubled) == linalg.determinant(m) * FieldElement(2)


def _expansion_from_zero(matrix):
    """Cofactor expansion along the first row with each level's sum started
    at ZERO, which pays one addition per level that adds nothing."""
    def expand(i, cols):
        if len(cols) == 1:
            return matrix[i][cols[0]]
        total = ZERO
        for k, j in enumerate(cols):
            if not matrix[i][j].is_zero():
                term = matrix[i][j] * expand(i + 1, cols[:k] + cols[k + 1:])
                total = total + (-term if k % 2 else term)
        return total
    return expand(0, list(range(len(matrix)))) if matrix else ONE


def test_determinant_starts_each_level_at_its_first_nonzero_term(monkeypatch):
    """A dense 3x3 takes 5 additions, where starting each level at ZERO
    took 9, for the same value; a 0x0 matrix gives ONE and a zero row ZERO."""
    add = FieldElement.__add__
    count = [0]

    def counting(a, b):
        count[0] += 1
        return add(a, b)

    monkeypatch.setattr(FieldElement, "__add__", counting)
    rng = random.Random(23)
    dense = 0
    while dense < 10:
        m = _random_matrix(rng, 3, 3)
        if any(x.is_zero() for row in m for x in row):
            continue
        dense += 1
        count[0] = 0
        got = linalg.determinant(m)
        assert count[0] == 5
        count[0] = 0
        assert got == _expansion_from_zero(m)
        assert count[0] == 9
        assert got == _permutation_determinant(m)
    assert linalg.determinant([]) == ONE == _expansion_from_zero([])
    phi = FieldElement(0, 1)
    for k in range(3):
        rows = [[ONE, phi, ONE], [phi, ONE, ONE], [ONE, ONE, phi]]
        rows[k] = [ZERO] * 3
        assert linalg.determinant(rows) == ZERO == _expansion_from_zero(rows)
    assert linalg.determinant([[ZERO] * 3] * 3) is ZERO


def determinant_mod(rows, p):
    """The determinant over F_p of a square matrix, in range(p).

    Gaussian elimination one row at a time: each row is reduced by the rows
    before it, and a row that reduces to zero makes the determinant 0.  The
    reduced rows, with their columns put in pivot order, are upper
    triangular, so the determinant is the product of the pivots, signed by
    the parity of that column order.  The reference for the Sylvester
    determinants in test_forms.py.
    """
    kept = []  # (pivot column, pivot)
    reducers = []  # (pivot column, 1/pivot, reduced row)
    for row in rows:
        for c, inv, kept_row in reducers:
            k = row[c] * inv % p
            if k:
                row = [(x - k * y) % p for x, y in zip(row, kept_row)]
        c = next((c for c, x in enumerate(row) if x % p), None)
        if c is None:
            return 0
        kept.append((c, row[c] % p))
        reducers.append((c, pow(row[c] % p, -1, p), row))
    cols = [c for c, _ in kept]
    det = 1
    for i, (c, pivot) in enumerate(kept):
        if sum(d < c for d in cols[i + 1:]) % 2:
            det = -det
        det = det * pivot % p
    return det % p


def _permutation_determinant_mod(m, p):
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(m))
                         for j in range(i + 1, len(m)))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total % p


def _rank_mod(rows, p):
    """The largest size of a minor that is nonzero mod p."""
    if not rows:
        return 0
    for k in range(min(len(rows), len(rows[0])), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(len(rows[0])), k):
                minor = [[rows[r][c] for c in cs] for r in rs]
                if _permutation_determinant_mod(minor, p):
                    return k
    return 0


@pytest.mark.parametrize("p", [2, 7, 2147483659])
def test_determinant_mod_matches_permutation_expansion(p):
    rng = random.Random(23)
    swaps = 0
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            # Mostly zeros and units, so leading entries vanish and rows swap.
            m = [[rng.choice((0, 0, 1, -1, rng.randint(-10 ** 12, 10 ** 12)))
                  for _ in range(n)] for _ in range(n)]
            swaps += m[0][0] % p == 0
            assert determinant_mod(m, p) == _permutation_determinant_mod(m, p)
    assert swaps > 20


def test_determinant_mod_leaves_its_input_alone():
    m = [[0, 1], [1, 0]]
    assert determinant_mod(m, 7) == 6
    assert m == [[0, 1], [1, 0]]


@pytest.mark.parametrize("p", [2, 5])
def test_independent_rows_mod_are_the_first_independent_rows(p):
    rng = random.Random(29 + p)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 4)
        rows = [[rng.choice((0, 0, 1, rng.randint(-20, 20)))
                 for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, nrows), list(rows[0]))
        chosen = linalg.independent_rows_mod(rows, p)
        assert chosen == sorted(chosen)
        assert _rank_mod([rows[i] for i in chosen], p) == len(chosen)
        for i in range(len(rows)):
            grows = _rank_mod(rows[:i + 1], p) > _rank_mod(rows[:i], p)
            assert (i in chosen) == grows


def _reference_independent_rows_mod(rows, p):
    """Row by row: each row is reduced by the rows kept before it, rebuilt
    in full at each step, and is kept when a nonzero entry remains."""
    kept, reducers = [], []  # reducers: (column, 1/pivot, reduced row)
    for i, row in enumerate(rows):
        for c, inv, kept_row in reducers:
            k = row[c] * inv % p
            if k:
                row = [(x - k * y) % p for x, y in zip(row, kept_row)]
        c = next((c for c, x in enumerate(row) if x % p), None)
        if c is not None:
            kept.append(i)
            reducers.append((c, pow(row[c] % p, -1, p), row))
    return kept


def _low_rank_rows(rng, p):
    """Up to 11 random rows of 1 to 9 columns, of random rank, with repeated
    and zero rows inserted; returns the rows and the column count."""
    nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
    rank = rng.randint(0, min(nrows, ncols))
    left = [[rng.randint(-p, p) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.choice((0, 1, -1, rng.randint(-10 ** 12, 10 ** 12)))
              for _ in range(ncols)] for _ in range(rank)]
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            if rank else [0] * ncols for row in left]
    for _ in range(rng.randint(0, 2)):
        if rows:
            rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
        rows.insert(rng.randint(0, len(rows)), [0] * ncols)
    return rows, ncols


@pytest.mark.parametrize("p", [7, 2147483659])
def test_independent_rows_mod_matches_the_row_by_row_reference(p):
    rng = random.Random(61 + p % 97)
    seen = set()
    for _ in range(300):
        rows, ncols = _low_rank_rows(rng, p)
        before = [list(row) for row in rows]
        kept = linalg.independent_rows_mod(rows, p)
        assert rows == before
        assert kept == _reference_independent_rows_mod(rows, p)
        seen.add(("tall" if len(rows) > ncols else "wide" if len(rows) < ncols
                  else "square", "rank 0" if not kept else
                  "full" if len(kept) == min(len(rows), ncols) else "deficient"))
    assert len(seen) == 9


@pytest.mark.parametrize("p", [7, 2147483659])
def test_independent_rows_mod_reads_a_generator_up_to_the_last_pivot(p):
    """Rows from a generator give the indices the list gives, and at full
    rank no row after the last pivot is pulled; below it, every row is."""
    rng = random.Random(67 + p % 97)
    full_ranks = 0
    for _ in range(300):
        rows, ncols = _low_rank_rows(rng, p)
        pulled = []

        def reading():
            for i, row in enumerate(rows):
                pulled.append(i)
                yield row

        kept = linalg.independent_rows_mod(reading(), p)
        assert kept == linalg.independent_rows_mod(rows, p)
        assert kept == _reference_independent_rows_mod(rows, p)
        if len(kept) == ncols:
            full_ranks += 1
            assert pulled == list(range(kept[-1] + 1))
        else:
            assert pulled == list(range(len(rows)))
    assert full_ranks
    assert linalg.independent_rows_mod(iter([]), p) == []
