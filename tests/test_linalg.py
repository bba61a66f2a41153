"""Linear algebra: exact elimination, nullspaces, determinants, inverses, and
the elimination kernel over F_p."""

import random
from itertools import combinations, permutations

import pytest

from h4geproci import linalg
from h4geproci.field import FieldElement, ONE, ZERO


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[FieldElement(rng.randint(lo, hi), rng.randint(lo, hi))
             for _ in range(cols)] for _ in range(rows)]


def _mat_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


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


def test_bareiss_keeps_integer_entries_integral():
    rng = random.Random(5)
    for _ in range(20):
        m = _random_matrix(rng, 4, 6)
        echelon, _ = linalg.row_echelon(m)
        for row in echelon:
            for x in row:
                assert x.a.denominator == 1 and x.b.denominator == 1


def test_nullspace_vectors_annihilate_the_matrix():
    rng = random.Random(9)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols, -4, 4)
        basis = linalg.nullspace(m)
        assert linalg.rank(m) + len(basis) == cols
        for v in basis:
            assert all(x.is_zero() for x in linalg.mat_vec(m, v))


def test_nullspace_of_rank_deficient_matrix():
    row = [FieldElement(1), FieldElement(2), FieldElement(3)]
    m = [row, [x * FieldElement(2) for x in row]]
    basis = linalg.nullspace(m)
    assert len(basis) == 2


def test_inverse_roundtrip_and_singular_detection():
    rng = random.Random(13)
    done = 0
    while done < 25:
        m = _random_matrix(rng, 4, 4)
        if linalg.determinant(m).is_zero():
            with pytest.raises(ZeroDivisionError):
                linalg.inverse(m)
            continue
        inv = linalg.inverse(m)
        prod = _mat_mul(m, inv)
        for i in range(4):
            for j in range(4):
                assert prod[i][j] == (ONE if i == j else ZERO)
        done += 1


def test_mat_mul_transpose_compatibility():
    rng = random.Random(17)
    a = _random_matrix(rng, 3, 4)
    b = _random_matrix(rng, 4, 2)
    ab_t = linalg.transpose(_mat_mul(a, b))
    bt_at = _mat_mul(linalg.transpose(b), linalg.transpose(a))
    assert ab_t == bt_at


def test_determinant_alternating_in_rows():
    rng = random.Random(19)
    m = _random_matrix(rng, 3, 3)
    swapped = [m[1], m[0], m[2]]
    assert linalg.determinant(swapped) == -linalg.determinant(m)
    degenerate = [m[0], m[0], m[2]]
    assert linalg.determinant(degenerate).is_zero()


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
            assert linalg.determinant_mod(m, p) == _permutation_determinant_mod(m, p)
    assert swaps > 20


def test_determinant_mod_leaves_its_input_alone():
    m = [[0, 1], [1, 0]]
    assert linalg.determinant_mod(m, 7) == 6
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
