"""Polynomial algebra: interpolation, division, gcd, smoothness certificates."""

import itertools
import json
import random
from fractions import Fraction
from math import comb, gcd, isqrt, prod

import pytest

from h4geproci import config, forms, linalg
from h4geproci.field import (FieldElement, ONE, PHI, ZERO, _dot,
                             common_numerators, norm, primitive_numerators)
from h4geproci.forms import (HomForm, SmoothnessIndeterminate, divides,
                             gcd_forms, monomials, plane_curve_is_smooth,
                             try_quotient, vanishing_space, _chart_test,
                             _compose_mod, _eliminant, _evaluation_row,
                             _interpolate_mod, _partial_mod, _reduce,
                             _residue_row, _resultant_mod)
from h4geproci.geproci import sample_generic_vertex
from h4geproci.linalg import _PHI_ROOT, _PRIME, _split_primes
from json_readers import hom_form
from test_linalg import _integer_pairs, determinant_mod, reference_nullspace


def _random_form(rng, nvars, degree, density=0.7, rational=False) -> HomForm:
    """Z[phi] coefficients, or Q(phi) ones with denominators when rational."""
    coeffs = {}
    for e in monomials(degree, nvars):
        if rng.random() < density:
            coeffs[e] = (_random_elem(rng) if rational else
                         FieldElement(rng.randint(-5, 5), rng.randint(-3, 3)))
    return HomForm(nvars, degree, coeffs)


def _var(i, nvars) -> HomForm:
    return HomForm.linear([ONE if j == i else ZERO for j in range(nvars)])


def _evaluate(f: HomForm, point) -> FieldElement:
    """The exact value at a point of Z[phi] pairs: the common numerators of
    the coefficients dotted with `_evaluation_row`, over their denominator."""
    u, d = common_numerators(f.coeffs.values())
    row = _evaluation_row(point, f.degree, f.nvars, f.coeffs)
    return FieldElement(*_dot(u, row)) / d


def _scale(f: HomForm, k: FieldElement) -> HomForm:
    return HomForm(f.nvars, f.degree, {e: v * k for e, v in f.coeffs.items()})


def _add(*summands: HomForm) -> HomForm:
    """The sum of forms of one degree (zero forms aside), term by term in
    FieldElement arithmetic."""
    c = {}
    for f in summands:
        for e, v in f.coeffs.items():
            c[e] = c.get(e, ZERO) + v
    degree = next((f.degree for f in summands if not f.is_zero()),
                  summands[0].degree)
    return HomForm(summands[0].nvars, degree, c)


def _compose_linear(f: HomForm, matrix) -> HomForm:
    """Substitute x_i -> sum_j matrix[i][j] * x_j in f."""
    n = f.nvars
    lin = [HomForm.linear(list(row)) for row in matrix]
    result = HomForm.zero(n, f.degree)
    for e, c in f.coeffs.items():
        term = HomForm(n, 0, {(0,) * n: c})
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * lin[i]
        result = _add(result, term)
    return result


def _random_proj_tuple(rng, n):
    while True:
        t = tuple(FieldElement(rng.randint(-9, 9)) for _ in range(n))
        if any(not x.is_zero() for x in t):
            return t


def _pairs_of(points):
    """Each point scaled to its coprime Z[phi] pairs, as the package takes them."""
    return [primitive_numerators(p) for p in points]


def _reference_monomials(degree, nvars):
    """Every exponent tuple in range(degree + 1)^nvars of the given sum,
    sorted in descending order."""
    out = [e for e in itertools.product(range(degree + 1), repeat=nvars)
           if sum(e) == degree]
    out.sort(reverse=True)
    return out


def test_monomials_count_and_order():
    ms = monomials(3, 3)
    assert len(ms) == comb(5, 2)
    assert ms[0] == (3, 0, 0) and ms[-1] == (0, 0, 3)
    assert ms == sorted(ms, reverse=True)
    for nvars in range(6):
        for degree in range(9):
            assert monomials(degree, nvars) == _reference_monomials(degree, nvars)


def test_product_evaluates_to_product():
    rng = random.Random(51)
    for _ in range(30):
        f = _random_form(rng, 3, rng.randint(1, 3))
        g = _random_form(rng, 3, rng.randint(1, 3))
        pt = _integer_pairs([_random_proj_tuple(rng, 3)])[0]
        assert _evaluate(f * g, pt) == _evaluate(f, pt) * _evaluate(g, pt)


def _reference_product(f, g):
    """The product term by term, in FieldElement arithmetic."""
    c = {}
    for e1, v1 in f.coeffs.items():
        for e2, v2 in g.coeffs.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c[e] = c.get(e, ZERO) + v1 * v2
    return HomForm(f.nvars, f.degree + g.degree, c)


def test_product_matches_the_field_reference():
    """The convolution over the common denominators gives the reference's
    coefficients, normalized, on rational and Z[phi] forms, the zero form,
    constants, and a product whose cross terms cancel."""
    rng = random.Random(67)
    cases = [(_random_form(rng, nvars, rng.randint(0, 4), rational=True),
              _random_form(rng, nvars, rng.randint(0, 4),
                           rational=rng.random() < 0.5))
             for nvars in (2, 3, 4) for _ in range(6)]
    cubic = _random_form(rng, 3, 3, density=1.0, rational=True)
    const = HomForm(3, 0, {(0, 0, 0): FieldElement(Fraction(-2, 3), 1)})
    cases += [(HomForm.zero(3, 2), cubic), (cubic, HomForm.zero(3, 0)),
              (const, cubic), (cubic, const), (const, const)]
    half = FieldElement(Fraction(1, 2))
    plus = HomForm.linear([half, PHI, ZERO])
    minus = HomForm.linear([half, -PHI, ZERO])
    cases.append((plus, minus))
    for f, g in cases:
        product = f * g
        assert product == _reference_product(f, g)
        assert product.degree == f.degree + g.degree
        assert not any(c.is_zero() for c in product.coeffs.values())
    # (x/2 + phi y)(x/2 - phi y) = x^2/4 - (1 + phi) y^2: no xy term is kept.
    assert (plus * minus).coeffs == {(2, 0, 0): FieldElement(Fraction(1, 4)),
                                     (0, 2, 0): -(ONE + PHI)}
    assert (HomForm.zero(3, 2) * cubic).is_zero()
    with pytest.raises(ValueError):
        cubic * _var(0, 2)


def _reference_monic(f: HomForm) -> HomForm:
    """f over its graded-lex leading coefficient, in FieldElement arithmetic."""
    return f if f.is_zero() else _scale(f, ONE / f.coeffs[max(f.coeffs)])


def test_monic_from_pairs_matches_the_field_reference():
    """One `products` call by conj(lead) over N(lead) gives the reference's
    monic form: for leads of positive and negative norm, rational-only
    terms, zero pairs (also at the top exponent) dropped, and no nonzero
    pair giving the zero form of the stated degree."""
    rng = random.Random(151)
    cases = []
    for nvars, degree in ((2, 3), (3, 2), (3, 5), (4, 2)):
        cols = monomials(degree, nvars)
        for _ in range(5):
            cases.append([(e, (rng.randint(-9, 9), rng.randint(-9, 9))) for e in cols
                          if rng.random() < 0.6])
            cases.append([(e, (rng.randint(-9, 9), 0)) for e in cols])
        cases.append([(cols[0], (0, 0)), (cols[1], (0, 1)), (cols[-1], (3, -2))])
        cases.append([(cols[0], (1, 3))] + [(e, (0, 0)) for e in cols[1:]])
        cases.append([(e, (0, 0)) for e in cols])
        cases.append([])
    norms = set()
    for terms in cases:
        nvars, degree = 3, 2
        if terms:
            nvars, degree = len(terms[0][0]), sum(terms[0][0])
        got = HomForm.monic_from_pairs(nvars, degree, iter(terms))
        reference = _reference_monic(HomForm(nvars, degree, {
            e: FieldElement(*w) for e, w in terms}))
        assert got == reference and got.degree == reference.degree
        assert not any(c.is_zero() for c in got.coeffs.values())
        live = [w for _, w in terms if w != (0, 0)]
        if live:
            assert got.coeffs[max(got.coeffs)] == ONE
            lead = max((e, w) for e, w in terms if w != (0, 0))[1]
            norms.add(lead[0] ** 2 + lead[0] * lead[1] - lead[1] ** 2 > 0)
        else:
            assert got.is_zero() and got == HomForm.zero(nvars, degree)
    assert norms == {True, False}
    assert HomForm.monic_from_pairs(3, 4, []).degree == 4


def test_evaluate_matches_term_by_term_powers():
    rng = random.Random(57)
    pt = primitive_numerators((PHI, FieldElement(Fraction(-2, 3), 1), ZERO))
    for degree in range(6):
        f = _random_form(rng, 3, degree)
        expected = ZERO
        for e, c in f.coeffs.items():
            for x, k in zip((FieldElement(*w) for w in pt), e):
                c = c * x ** k
            expected = expected + c
        assert _evaluate(f, pt) == expected
    assert _evaluate(HomForm.zero(3, 2), pt) == ZERO
    with pytest.raises(ValueError):
        _evaluate(_var(0, 3), pt[:2])


def test_partial_derivatives_satisfy_euler_relation():
    rng = random.Random(53)
    for _ in range(20):
        f = _random_form(rng, 3, 4)
        pt = _integer_pairs([_random_proj_tuple(rng, 3)])[0]
        euler = sum((_evaluate(f.partial(i), pt) * FieldElement(*pt[i])
                     for i in range(3)), ZERO)
        assert euler == _evaluate(f, pt) * FieldElement(4)


def _reference_evaluation_row(point, degree, nvars, cols):
    """The monomials at the point itself, as FieldElements.

    This is the FieldElement row the package computed before evaluation
    moved onto Z[phi] pairs, kept as a reference.
    """
    if len(point) != nvars:
        raise ValueError("point dimension does not match variable count")
    powers = []
    for x in point:
        table = [ONE, x]
        for _ in range(degree - 1):
            table.append(table[-1] * x)
        powers.append(table)
    row = []
    for e in cols:
        factors = [table[k] for table, k in zip(powers, e) if k]
        term = factors[0] if factors else ONE
        for f in factors[1:]:
            term = term * f
        row.append(term)
    return row


def _evaluation_points(rng, nvars):
    """Points with rational coordinates, integer content > 1 and zeros."""
    yield tuple(_random_elem(rng) for _ in range(nvars))
    yield tuple(FieldElement(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                for _ in range(nvars))
    yield tuple(FieldElement(6 * rng.randint(-5, 5), 4 * rng.randint(-5, 5))
                for _ in range(nvars))
    yield tuple(FieldElement(Fraction(10, 3), Fraction(-4, 9)) * x
                for x in _random_proj_tuple(rng, nvars))
    pt = [_random_elem(rng) for _ in range(nvars)]
    pt[rng.randrange(nvars)] = ZERO
    yield tuple(pt)
    yield tuple(ONE if i == 1 else ZERO for i in range(nvars))
    yield (ZERO,) * nvars


def _scale_of(row, ref):
    """The k with row == k * ref entry by entry; ZERO for a zero reference."""
    values = [FieldElement(x, y) for x, y in row]
    j = next((j for j, r in enumerate(ref) if not r.is_zero()), None)
    k = ZERO if j is None else values[j] / ref[j]
    assert values == [k * r for r in ref]
    return k


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_pair_rows_are_the_field_rows_times_lambda_to_the_degree(nvars):
    rng = random.Random(97 + nvars)
    seen = set()
    for _ in range(6):
        for pt in _evaluation_points(rng, nvars):
            # The pairs are lambda*point: coprime integer pairs, lambda a
            # positive rational (zero only for the zero point), and the
            # degree-1 row is the pairs themselves.
            pairs = primitive_numerators(pt)
            same = [FieldElement(*w) for w in pairs]
            linear = monomials(1, nvars)
            numerators = _evaluation_row(pairs, 1, nvars, linear)
            assert numerators == pairs
            lam = _scale_of(numerators, _reference_evaluation_row(pt, 1, nvars, linear))
            if lam.is_zero():
                assert all(x == y == 0 for x, y in numerators)
            else:
                assert lam.b == 0 and lam.a > 0
                assert gcd(*(v for w in numerators for v in w)) == 1
            for degree in range(0, 6):
                cols = monomials(degree, nvars)
                ref = _reference_evaluation_row(pt, degree, nvars, cols)
                row = _evaluation_row(pairs, degree, nvars, cols)
                # The pair row is the FieldElement row at the same point.
                assert [FieldElement(*w) for w in row] == \
                    _reference_evaluation_row(same, degree, nvars, cols)
                if degree == 0:
                    assert row == [(1, 0)] and ref == [ONE]
                elif lam.is_zero():
                    assert row == [(0, 0)] * len(cols)
                else:
                    assert _scale_of(row, ref) == lam ** degree
                # A sparse column set, in the form's order.
                sub = cols[::2]
                assert _evaluation_row(pairs, degree, nvars, sub) == row[::2]
            seen.add((lam.is_zero(), lam == ONE))
    assert seen == {(True, False), (False, True), (False, False)}
    with pytest.raises(ValueError):
        _evaluation_row(((1, 0),) * (nvars - 1), 2, nvars, monomials(2, nvars))


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_residue_rows_are_the_exact_rows_mod_p(nvars):
    """Reduction mod P is a ring map, so the F_p power-table row is the
    residue of the exact pair row, entry by entry."""
    rng = random.Random(131 + nvars)
    big = 10 ** 12
    for _ in range(6):
        points = [primitive_numerators(pt) for pt in _evaluation_points(rng, nvars)]
        points.append([(rng.randint(-big, big), rng.randint(-big, big))
                       for _ in range(nvars)])
        for pairs in points:
            for degree in range(0, 7):
                cols = monomials(degree, nvars)
                exact = _evaluation_row(pairs, degree, nvars, cols)
                assert _residue_row(pairs, degree, nvars, cols) == \
                    [(x + y * _PHI_ROOT) % _PRIME for x, y in exact]
    with pytest.raises(ValueError):
        _residue_row(((1, 0),) * (nvars - 1), 2, nvars, monomials(2, nvars))


def _reference_value(f, pt):
    ref = _reference_evaluation_row(pt, f.degree, f.nvars, f.coeffs)
    return sum((c * v for c, v in zip(f.coeffs.values(), ref)), ZERO)


def test_evaluate_and_vanishes_at_agree_with_the_field_reference():
    rng = random.Random(101)
    scales = (FieldElement(Fraction(-3, 5)), FieldElement(Fraction(7, 2), 1),
              PHI, FieldElement(12))
    outcomes = set()
    for nvars in (2, 3, 4):
        for _ in range(8):
            for pt in _evaluation_points(rng, nvars):
                pairs = primitive_numerators(pt)
                same = [FieldElement(*w) for w in pairs]
                for degree in (0, 1, 2, 4):
                    f = _random_form(rng, nvars, degree,
                                     rational=rng.random() < 0.5)
                    j = next((j for j, x in enumerate(pt) if not x.is_zero()),
                             None)
                    forms = [f]
                    if j is not None and degree:
                        # f minus its value at pt times (x_j / pt_j)^d
                        # vanishes at pt.
                        e = tuple(degree if i == j else 0 for i in range(nvars))
                        c = _reference_value(f, pt) / pt[j] ** degree
                        forms.append(_add(f, HomForm(nvars, degree, {e: -c})))
                    for g in forms:
                        value = _reference_value(g, same)
                        assert _evaluate(g, pairs) == value
                        assert g.vanishes_at(pairs) == value.is_zero()
                        for k in scales:
                            # moved is the pairs of mu*k*same, mu > 0 rational.
                            moved = primitive_numerators([k * x for x in same])
                            mu_k = _scale_of(moved, same)
                            assert g.vanishes_at(moved) == g.vanishes_at(pairs)
                            assert _evaluate(g, moved) == value * mu_k ** degree
                        outcomes.add(value.is_zero())
    assert outcomes == {True, False}
    assert HomForm.zero(3, 2).vanishes_at(((1, 0), (0, 1), (0, 0)))


def test_coefficient_pairs_are_scaled_once_per_form(monkeypatch):
    """k zero tests of one form at pair points scale the coefficients once
    and no point: one call of primitive_numerators, not k."""
    calls = []
    scale = forms.primitive_numerators

    def counting(elems):
        calls.append(1)
        return scale(elems)

    monkeypatch.setattr(forms, "primitive_numerators", counting)
    # x*y - phi*z^2 / 2 vanishes at (phi, 2, 2) and (1, 2 phi, 2), not at the rest.
    two = FieldElement(2)
    f = HomForm(3, 2, {(1, 1, 0): ONE, (0, 0, 2): -PHI / two})
    points = _pairs_of([(PHI, two, two), (ONE, PHI, ZERO), (ONE, two * PHI, two),
                        (FieldElement(Fraction(1, 3)), ONE, ONE)])
    assert [f.vanishes_at(p) for p in points] == [True, False, True, False]
    assert len(calls) == 1
    assert f.pairs() == scale(f.coeffs.values())


def test_vanishing_space_basis_vanishes_at_inputs():
    rng = random.Random(59)
    for _ in range(15):
        pts = _pairs_of([_random_proj_tuple(rng, 3)
                         for _ in range(rng.randint(1, 8))])
        basis = vanishing_space(pts, 3, 3)
        assert basis, "degree-3 space through at most 8 points is nonempty"
        for f in basis:
            for p in pts:
                assert f.vanishes_at(p)


def test_vanishing_space_dimension_without_points():
    basis = vanishing_space([], 2, 3)
    assert len(basis) == len(monomials(2, 3))


def _reference_vanishing_space(points, degree, nvars):
    """Exact nullspace of every evaluation row, with x ** k per monomial.

    The nullspace comes from the FieldElement Bareiss reference of
    test_linalg.py, not from the kernel `vanishing_space` runs on.
    """
    cols = monomials(degree, nvars)
    rows = []
    for p in points:
        row = []
        for e in cols:
            term = ONE
            for x, k in zip(p, e):
                term = term * x ** k
            row.append(term)
        rows.append(row)
    basis = []
    for vec in reference_nullspace(rows):
        lead = next(c for c in vec if not c.is_zero())
        basis.append(HomForm(nvars, degree,
                             {e: c / lead for e, c in zip(cols, vec)}))
    return basis


def _random_elem(rng):
    return FieldElement(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def _point_sets(rng, nvars):
    """Seeded point sets with dimension 0 and dimension > 0 in low degree."""
    for size in (3, 6, 11):
        yield [_random_proj_tuple(rng, nvars) for _ in range(size)]
        yield [tuple(_random_elem(rng) for _ in range(nvars))
               for _ in range(size)]
    # Points on a common line: a + t*b.
    a, b = _random_proj_tuple(rng, nvars), _random_proj_tuple(rng, nvars)
    yield [tuple(x + FieldElement(t, t % 3) * y for x, y in zip(a, b))
           for t in range(-4, 5)]
    # Points on the conic [s^2 : s*t : t^2 (: s*t*phi)], s/t rational.
    yield [(FieldElement(s * s), FieldElement(s * t), FieldElement(t * t))
           + ((FieldElement(0, s * t),) if nvars == 4 else ())
           for s, t in ((1, 0), (0, 1), (1, 1), (2, 1), (1, -3), (5, 2),
                        (-2, 7), (3, 4))]
    # Repeated points, some rescaled by a Q(phi) scalar.
    pts = [tuple(_random_elem(rng) for _ in range(nvars)) for _ in range(4)]
    scale = FieldElement(Fraction(2, 3), Fraction(-5, 7))
    yield pts + pts[:3] + [tuple(x * scale for x in p) for p in pts[1:]]


@pytest.mark.parametrize("nvars", [3, 4])
def test_vanishing_space_matches_elimination_of_all_rows(nvars):
    rng = random.Random(83 + nvars)
    seen = set()
    for pts in _point_sets(rng, nvars):
        for degree in (1, 2, 3):
            basis = vanishing_space(_pairs_of(pts), degree, nvars)
            assert basis == _reference_vanishing_space(pts, degree, nvars)
            seen.add(len(basis) == 0)
    assert seen == {True, False}


def test_rank_lost_modulo_the_prime_is_repaired(monkeypatch):
    calls = []
    nullspace = linalg.nullspace

    def counting_nullspace(rows):
        calls.append(len(rows))
        return nullspace(rows)

    monkeypatch.setattr(linalg, "nullspace", counting_nullspace)
    p = FieldElement(_PRIME)
    # Exact dimension 0, but (1, p) = (1, 0) mod P: the rank drops to 1.
    assert vanishing_space(_pairs_of([(ONE, ZERO), (ONE, p)]), 1, 2) == []
    assert calls == [1, 2]
    # phi - r lies in P, so both points reduce to (1, 0, 0); only z survives.
    calls.clear()
    pts = [(ONE, ZERO, ZERO), (ONE, PHI - FieldElement(_PHI_ROOT), ZERO)]
    basis = vanishing_space(_pairs_of(pts), 1, 3)
    assert basis == [_var(2, 3)]
    assert calls == [1, 2]
    monkeypatch.undo()
    assert basis == _reference_vanishing_space(pts, 1, 3)


def test_no_row_independent_modulo_the_prime():
    # Every row lies in P, so nothing is chosen; the exact rank is still 1.
    pts = [(PHI - FieldElement(_PHI_ROOT), ZERO)]
    basis = vanishing_space(_pairs_of(pts), 1, 2)
    assert basis == [_var(1, 2)]
    assert basis == _reference_vanishing_space(pts, 1, 2)
    # The zero point imposes no condition, and neither does the empty set.
    for pts in ([(ZERO, ZERO, ZERO)], [(ZERO, ZERO, ZERO), (ZERO, ZERO, ZERO)]):
        assert (vanishing_space(_pairs_of(pts), 2, 3)
                == _reference_vanishing_space(pts, 2, 3))
        assert len(vanishing_space(_pairs_of(pts), 2, 3)) == 6
    assert vanishing_space([], 2, 3) == [HomForm(3, 2, {e: ONE})
                                         for e in monomials(2, 3)]


def test_full_rank_modulo_the_prime_skips_exact_elimination(monkeypatch):
    monkeypatch.setattr(linalg, "nullspace", None)
    pts = [((1, 0), (0, 0), (0, 0)), ((0, 0), (1, 0), (0, 0)),
           ((0, 0), (0, 0), (1, 0))]
    assert vanishing_space(pts, 1, 3) == []


def test_kernel_missing_a_chosen_row_raises(monkeypatch):
    calls = []

    def wrong_nullspace(rows):
        # e_0 does not kill the row of (1, 0, 0), which is chosen.
        calls.append(len(rows))
        if len(calls) > 3:
            pytest.fail("vanishing_space keeps eliminating the same rows")
        return [[(1, 0), (0, 0), (0, 0)]]

    monkeypatch.setattr(linalg, "nullspace", wrong_nullspace)
    pts = [((1, 0), (0, 0), (0, 0)), ((0, 0), (1, 0), (0, 0))]
    with pytest.raises(ArithmeticError, match="row 0"):
        vanishing_space(pts, 1, 3)
    assert calls == [2]


@pytest.fixture(scope="module")
def seed1_images(cfg):
    """The 60 images at vertex seed 1, and points 1-12 of them (dimensions
    0, 0, 1, 4, 9, 16 at d = 1..6), each with the reference basis for
    every d, from the FieldElement elimination of all rows."""
    proj = sample_generic_vertex(cfg, 1)
    sets = {"all": [proj.images[i] for i in sorted(cfg.points)],
            "points 1-12": [proj.images[i] for i in range(1, 13)]}
    return {name: (pts, {d: _reference_vanishing_space(
        [tuple(FieldElement(*w) for w in p) for p in pts], d, 3) for d in range(1, 7)})
        for name, pts in sets.items()}


def test_vanishing_space_on_the_images_matches_the_reference(seed1_images,
                                                             kernel_prime):
    dims = {}
    for name, (pts, reference) in seed1_images.items():
        dims[name] = []
        for d in range(1, 7):
            basis = vanishing_space(pts, d, 3)
            assert basis == reference[d]
            dims[name].append(len(basis))
    assert dims == {"all": [0, 0, 0, 0, 0, 1], "points 1-12": [0, 0, 1, 4, 9, 16]}
    assert bool(kernel_prime) == (linalg._KERNEL_PRIME == (11, 4))


def test_seed1_sextic_and_the_gcds_of_its_partials(seed1_images):
    """The sextic is the reference one, its partials are coprime, and the
    gcd recovers planted common factors."""
    pts, reference = seed1_images["all"]
    [sextic] = vanishing_space(pts, 6, 3)
    assert [sextic] == reference[6]
    partials = [sextic.partial(i) for i in range(3)]
    one = HomForm(3, 0, {(0, 0, 0): ONE})
    assert gcd_forms(partials[0], partials[1]) == one
    assert gcd_forms(gcd_forms(partials[0], partials[1]), partials[2]) == one
    assert gcd_forms(sextic, sextic * partials[0]) == sextic
    assert gcd_forms(partials[0] * partials[1], partials[1] * partials[2]) \
        == partials[1].monic()


def test_divisibility_roundtrip():
    rng = random.Random(61)
    for _ in range(25):
        f = _random_form(rng, 3, rng.randint(1, 2))
        g = _random_form(rng, 3, rng.randint(1, 3))
        if f.is_zero() or g.is_zero():
            continue
        prod = f * g
        assert divides(f, prod)
        q = try_quotient(f, prod)
        assert q == g
    x, y = _var(0, 3), _var(1, 3)
    assert not divides(x, y)
    assert try_quotient(_add(x, y), x * x) is None


def test_linear_divisors_are_decided_as_long_division_decides(monkeypatch):
    """A line and a nonzero ternary form go to no long division, and the
    verdict is `try_quotient`'s: on products l*q, on forms that l does not
    divide, on constants, with the pivot at x, y or z, and with Z[phi] and
    rational coefficients."""
    quotient = forms.try_quotient

    def no_division(f, g):
        if f.degree == 1 and f.nvars == g.nvars == 3 \
                and not (f.is_zero() or g.is_zero()):
            pytest.fail("a linear divisor went to long division")
        return quotient(f, g)

    monkeypatch.setattr(forms, "try_quotient", no_division)
    rng = random.Random(97)
    seen = set()
    for trial in range(90):
        pivot, rational = trial % 3, trial % 2 == 1

        def coeff():
            if rational:
                return _random_elem(rng)
            return FieldElement(rng.randint(-3, 3), rng.randint(-2, 2))

        lead = coeff()
        if lead.is_zero():
            continue
        line = HomForm.linear([ZERO] * pivot + [lead]
                              + [coeff() for _ in range(2 - pivot)])
        q = _random_form(rng, 3, rng.randint(0, 4), rational=rational)
        near = _add(line * q, _random_form(rng, 3, q.degree + 1, density=0.2))
        for g in (line * q, _scale(line * q, PHI), q, near,
                  HomForm(3, 0, {(0, 0, 0): lead})):
            got = divides(line, g)
            assert got == (quotient(line, g) is not None)
            seen.add((pivot, got))
    assert seen == {(k, b) for k in range(3) for b in (True, False)}
    # On z = 0 the points are (1, t, 0), t = 0..5: the product of y - t*x,
    # t < 5, vanishes at all of them but the last.
    x, y, z = (_var(i, 3) for i in range(3))
    fan = prod((_add(y, _scale(x, FieldElement(-t))) for t in range(5)),
               start=HomForm(3, 0, {(0, 0, 0): ONE}))
    assert not divides(z, fan) and divides(z, fan * z)
    assert divides(_var(2, 3), HomForm.zero(3, 4))
    with pytest.raises(ZeroDivisionError):
        divides(HomForm.zero(3, 1), _var(0, 3))
    with pytest.raises(ValueError):
        divides(_var(0, 3), _var(0, 2))


def test_gcd_of_products_recovers_common_factor():
    rng = random.Random(67)
    for _ in range(15):
        h = _random_form(rng, 3, 1)
        f = _random_form(rng, 3, 2)
        g = _random_form(rng, 3, 2)
        if h.is_zero() or f.is_zero() or g.is_zero():
            continue
        d = gcd_forms(f * h, g * h)
        assert divides(h, d)
        assert divides(d, f * h) and divides(d, g * h)


def test_gcd_normalization_and_edge_cases():
    x, y = _var(0, 2), _var(1, 2)
    g = gcd_forms(x * x * y, x * y * y)
    assert g == (x * y).monic()
    assert gcd_forms(HomForm.zero(2, 3), x) == x.monic()
    with pytest.raises(ValueError):
        gcd_forms(HomForm.zero(2, 1), HomForm.zero(2, 1))


def _reference_partial(f: HomForm, var: int) -> HomForm:
    """d/dx_var term by term in FieldElement arithmetic."""
    c = {}
    for e, v in f.coeffs.items():
        if e[var] == 0:
            continue
        e2 = list(e)
        e2[var] -= 1
        c[tuple(e2)] = v * e[var]
    return HomForm(f.nvars, max(f.degree - 1, 0), c)


def _reference_try_quotient(f: HomForm, g: HomForm):
    """Long division in FieldElement arithmetic, by the inverse of f's
    leading coefficient; f nonzero, in as many variables as g."""
    if g.is_zero():
        return HomForm.zero(f.nvars, 0)
    if g.degree < f.degree:
        return None
    lead = max(f.coeffs)
    inv = f.coeffs[lead].inverse()
    q = {}
    r = dict(g.coeffs)
    while r:
        top = max(r)
        e = tuple(a - b for a, b in zip(top, lead))
        if min(e) < 0:
            return None
        c = r[top] * inv
        q[e] = c
        for ef, cf in f.coeffs.items():
            t = tuple(a + b for a, b in zip(e, ef))
            v = r.get(t, ZERO) - c * cf
            if v.is_zero():
                r.pop(t, None)
            else:
                r[t] = v
    return HomForm(f.nvars, g.degree - f.degree, q)


def _reference_gcd(f: HomForm, g: HomForm) -> HomForm:
    """The multiplication-map gcd of two nonzero forms, with -g and the
    quotient taken in FieldElement arithmetic."""
    nvars, m, n = f.nvars, f.degree, g.degree
    neg_g = _scale(g, -ONE)
    for k in range(min(m, n), -1, -1):
        ucols, vcols = monomials(n - k, nvars), monomials(m - k, nvars)
        rows = {e: i for i, e in enumerate(monomials(m + n - k, nvars))}
        matrix = [[(0, 0)] * (len(ucols) + len(vcols)) for _ in rows]
        shifts = [(u, f) for u in ucols] + [(v, neg_g) for v in vcols]
        for j, (shift, form) in enumerate(shifts):
            for e, w in zip(form.coeffs, form.pairs()):
                matrix[rows[tuple(a + b for a, b in zip(shift, e))]][j] = w
        kernel = linalg.nullspace(matrix)
        if kernel:
            v = HomForm(nvars, m - k, {e: FieldElement(*w) for e, w
                                       in zip(vcols, kernel[0][len(ucols):])})
            return _reference_monic(_reference_try_quotient(v, f))
    raise AssertionError("unreachable: at k = 0, (b, a) is in the kernel")


def test_pair_kernels_match_the_field_references():
    """`partial`, `try_quotient` and `gcd_forms` on common numerators give
    the FieldElement references' forms: on random Z[phi] and rational forms
    in 2 to 4 variables, on divisors whose leading pair has positive and
    negative norm, on constant divisors, and on divisible and non-divisible
    pairs."""
    rng = random.Random(107)
    norms, outcomes, gcd_degrees = set(), set(), set()
    for trial in range(60):
        nvars, rational = 2 + trial % 3, trial % 2 == 1
        f = _random_form(rng, nvars, rng.randint(0, 3), rational=rational)
        h = _random_form(rng, nvars, rng.randint(0, 2), rational=rational)
        if f.is_zero() or h.is_zero():
            continue
        for form in (f, h, f * h):
            for var in range(nvars):
                got, ref = form.partial(var), _reference_partial(form, var)
                assert got == ref and got.degree == ref.degree
        lead = dict(zip(f.coeffs, f.pairs()))[max(f.coeffs)]
        norms.add(norm(lead) > 0)
        noise = _random_form(rng, nvars, f.degree + h.degree, density=0.2)
        for g in (f * h, _add(f * h, noise), h, _scale(f * h, PHI),
                  HomForm.zero(nvars, 2)):
            got, ref = try_quotient(f, g), _reference_try_quotient(f, g)
            assert got == ref
            if got is not None:
                assert got.degree == ref.degree and f * got == g
            outcomes.add(got is not None)
        if nvars < 4 and f.degree + h.degree <= 4:
            k = _random_form(rng, nvars, rng.randint(0, 2), rational=rational)
            if not k.is_zero():
                got = gcd_forms(f * h, k * h)
                assert got == _reference_gcd(f * h, k * h)
                gcd_degrees.add(got.degree)
    assert norms == {True, False} and outcomes == {True, False}
    assert {0, 1, 2} <= gcd_degrees


def test_smoothness_needs_a_curve():
    """A nonzero constant cuts out no curve, so it has no singular point
    to report; it is refused as the zero form is."""
    for f in (HomForm(3, 0, {(0, 0, 0): ONE}), HomForm.zero(3, 2),
              _var(0, 2) * _var(1, 2)):
        with pytest.raises(ValueError, match="positive degree in 3 variables"):
            plane_curve_is_smooth(f)


def test_gcd_and_divides_match_sympy_over_q_sqrt5():
    sympy = pytest.importorskip("sympy")
    # Elements are built in the field directly: sympy expressions with
    # sqrt(5) would make each Poly find minimal polynomials, about 20x slower.
    field = sympy.QQ.algebraic_field(sympy.sqrt(5))
    half = field.convert(sympy.QQ(1, 2))
    phi = half + half * field.from_sympy(sympy.sqrt(5))
    rng = random.Random(89)
    cases, outcomes = 0, set()
    for nvars in (2, 3):
        gens = sympy.symbols(f"x0:{nvars}")

        def poly(f):
            return sympy.Poly.from_dict(
                {e: field.convert(sympy.QQ(c.a.numerator, c.a.denominator))
                 + field.convert(sympy.QQ(c.b.numerator, c.b.denominator)) * phi
                 for e, c in f.coeffs.items()}, *gens, domain=field)

        for trial in range(9):
            rational = trial % 2 == 1
            h, f, g = (_random_form(rng, nvars, rng.randint(lo, 2), rational=rational)
                       for lo in (1, 0, 1))
            if h.is_zero() or f.is_zero() or g.is_zero():
                continue
            a, b = f * h, g * h
            got = gcd_forms(a, b)
            # Both sides made monic under sympy's order: equal up to a constant.
            assert poly(got).monic() == sympy.gcd(poly(a), poly(b)).monic()
            for p, q in ((h, a), (f, a), (a, b), (got, b), (g, a)):
                _, rem = poly(q).div(poly(p))
                assert divides(p, q) == rem.is_zero
                outcomes.add(rem.is_zero)
            cases += 1
        if nvars == 3:  # linear divisors, decided by evaluation
            line_rng, linear_outcomes = random.Random(91), set()
            for trial in range(8):
                rational = trial % 2 == 1
                line, q = (_random_form(line_rng, 3, d, rational=rational)
                           for d in (1, line_rng.randint(0, 3)))
                if line.is_zero() or q.is_zero():
                    continue
                for g in (line * q, q,
                          _add(line * q, _random_form(line_rng, 3, q.degree + 1))):
                    if not g.is_zero():
                        _, rem = poly(g).div(poly(line))
                        assert divides(line, g) == rem.is_zero
                        linear_outcomes.add(rem.is_zero)
            assert linear_outcomes == {True, False}
    assert cases >= 12 and outcomes == {True, False}


def test_one_patch_moves_every_rank_test_to_another_prime(cfg, monkeypatch):
    """`linalg._PRIME` and `_PHI_ROOT` are read at call time by the rank
    test of interpolation's row choice; the grid quadric reads no prime."""
    independent = linalg.independent_rows_mod
    moduli = []

    def recording(rows, p):
        moduli.append(p)
        rows = list(rows)  # the rows may come as a generator
        assert all(0 <= v < p for row in rows for v in row)
        return independent(rows, p)

    monkeypatch.setattr(linalg, "independent_rows_mod", recording)
    monkeypatch.setattr(linalg, "_PRIME", 11)
    monkeypatch.setattr(linalg, "_PHI_ROOT", 4)
    images = [cfg.points[i].pairs for i in range(1, 11)]
    assert forms.independent_evaluation_rows(images, 1, 4) == [0, 1, 2, 3]
    half = config.HALVES[0]
    quadric = config.grid_quadric(cfg.points, cfg.lines, cfg.line_points,
                                  cfg.meets, half.l_lines, half.m_lines)
    assert quadric == cfg.grid_quadrics[0]
    assert moduli == [11]


def test_stored_split_prime_is_the_first_split_prime():
    assert next(_split_primes()) == (_PRIME, _PHI_ROOT)


def test_univariate_resultant_known_cases():
    """The chart test reads "the eliminants share a root" as a zero resultant."""
    p, r = next(_split_primes())
    x2_minus_1 = [p - 1, 0, 1]
    x_minus_1 = [p - 1, 1]
    assert _resultant_mod(x2_minus_1, x_minus_1, p) == 0
    # x + 2 takes the values 3 and 1 at the roots 1 and -1 of x^2 - 1
    assert _resultant_mod(x2_minus_1, [2, 1], p) == 3
    # common factor with phi in it: (x - phi)(x + 1) and (x - phi)(x - 2),
    # with phi reduced to the prime's root r
    a = [-r, 1 - r, 1]
    b = [2 * r, -r - 2, 1]
    assert _resultant_mod(a, b, p) == 0


def test_eliminant_matches_sympy_resultant():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    p, _ = next(_split_primes())
    rng = random.Random(79)
    for _ in range(20):
        u, v = ({(i, j): rng.randint(1, 9) for i in range(5) for j in range(5)
                 if i + j <= d and rng.random() < 0.6}
                for d in (rng.randint(1, 4), rng.randint(1, 4)))
        if not any(j for _, j in u) and not any(j for _, j in v):
            assert _eliminant(u, v, p) is None
            continue
        su, sv = (sum((c * x**i * y**j for (i, j), c in w.items()),
                      sympy.Integer(0)) for w in (u, v))
        res = sympy.Poly(sympy.resultant(su, sv, y), x).all_coeffs()
        want = [int(c) % p for c in reversed(res)]
        while want and not want[-1]:
            want.pop()
        # Only the roots matter; sympy's sign convention differs when
        # deg u < deg v in y.
        assert _eliminant(u, v, p) in (want, [-c % p for c in want])


def sylvester_rows(a, b):
    """The Sylvester matrix on the formal degrees m = len(a) - 1 and
    n = len(b) - 1: n shifted rows of a, then m of b, top coefficient first."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * k + a[::-1] + [0] * (n - 1 - k) for k in range(n)]
    return rows + [[0] * k + b[::-1] + [0] * (m - 1 - k) for k in range(m)]


def reference_eliminant(u, v, p):
    """Sylvester determinants at keep = 0, 1, ..., D, then interpolation."""
    m = max((j for _, j in u), default=0)
    n = max((j for _, j in v), default=0)
    du = max((i + j for i, j in u), default=0)
    dv = max((i + j for i, j in v), default=0)
    values = []
    for x in range(n * du + m * dv - m * n + 1):
        a, b = [0] * (m + 1), [0] * (n + 1)
        for (i, j), c in u.items():
            a[j] = (a[j] + c * pow(x, i, p)) % p
        for (i, j), c in v.items():
            b[j] = (b[j] + c * pow(x, i, p)) % p
        values.append(determinant_mod(sylvester_rows(a, b), p))
    return _interpolate_mod(values, p)


@pytest.mark.parametrize("p", [7, _PRIME])
def test_resultant_matches_the_sylvester_determinant(p):
    rng = random.Random(83)
    seen = set()
    for _ in range(1500):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        a = [rng.randrange(p) for _ in range(m + 1)]
        b = [rng.randrange(p) for _ in range(n + 1)]
        # Zero the top za, zb formal coefficients; all of them gives the
        # zero polynomial.
        za, zb = rng.choice([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1),
                             (m + 1, 0), (0, n + 1), (m + 1, n + 1)])
        a[len(a) - min(za, len(a)):] = [0] * min(za, len(a))
        b[len(b) - min(zb, len(b)):] = [0] * min(zb, len(b))
        seen.add((a[-1] == 0, b[-1] == 0, not any(a), not any(b)))
        got = _resultant_mod(a, b, p)
        assert got == determinant_mod(sylvester_rows(a, b), p), (a, b)
        assert 0 <= got < p
    # Zero leading coefficients on one side and on both, and zero
    # polynomials on either side.
    assert {(True, False, False, False), (False, True, False, False),
            (True, True, False, False), (True, False, True, False),
            (False, True, False, True)} <= seen


def test_seed1_chart_eliminants_match_the_sylvester_reference(geproci_cert_seed1):
    blob = geproci_cert_seed1.to_json()
    p, r = blob["sextic_smooth"]["prime"], blob["sextic_smooth"]["phi_root"]
    f = hom_form(blob["sextic"])
    fp = {e: (x + y * r) % p for e, (x, y) in zip(f.coeffs, f.pairs())}
    if blob["sextic_smooth"]["coordinate_change"] is not None:
        fp = _compose_mod(fp, blob["sextic_smooth"]["coordinate_change"], p)
    checked = 0
    for keep, elim in ((1, 2), (0, 2), (0, 1)):
        def on_chart(g):
            return {(e[keep], e[elim]): c for e, c in g.items()}

        u = on_chart(_partial_mod(fp, keep, p))
        for v in (on_chart(_partial_mod(fp, elim, p)), on_chart(fp)):
            got = _eliminant(u, v, p)
            assert got and got == reference_eliminant(u, v, p)
            checked += 1
    assert checked == 6


def test_smooth_conic_certifies():
    conic = HomForm(3, 2, {(2, 0, 0): ONE, (0, 2, 0): ONE, (0, 0, 2): ONE})
    report = plane_curve_is_smooth(conic)
    assert report.smooth


def test_line_pair_is_singular_at_the_intersection():
    xy = HomForm(3, 2, {(1, 1, 0): ONE})
    report = plane_curve_is_smooth(xy)
    assert not report.smooth
    assert "[0:0:1]" in report.reason


def test_fermat_cubic_is_smooth():
    f = HomForm(3, 3, {(3, 0, 0): ONE, (0, 3, 0): ONE, (0, 0, 3): ONE})
    assert plane_curve_is_smooth(f).smooth


def test_double_line_is_singular():
    x = _var(0, 3)
    report = plane_curve_is_smooth(x * x)
    assert not report.smooth


def test_repeated_component_is_caught_by_the_partials_gcd():
    x, y, z = (_var(i, 3) for i in range(3))
    line = HomForm.linear([FieldElement(2), PHI, FieldElement(Fraction(-1, 3))])
    other = HomForm.linear([ONE, FieldElement(-3), FieldElement(1, 1)])
    conic = _add(_scale(x * x, PHI), x * y, _scale(y * y, FieldElement(Fraction(-1, 2))),
                 _scale(z * z, FieldElement(3)))
    for curve, witness in (
            (line * line * other, "(1)*x + (1/2*phi)*y + (-1/6)*z"),
            (conic * conic * other, "(1)*x^2 + (-1 + 1*phi)*x*y"
             " + (1/2 - 1/2*phi)*y^2 + (-3 + 3*phi)*z^2")):
        assert all(any(col) for col in zip(*curve.coeffs)), "a variable is missing"
        report = plane_curve_is_smooth(curve)
        assert report.smooth is False
        assert report.reason == f"partials share a component: {witness}"


def test_linear_form_is_smooth():
    f = HomForm.linear([ONE, PHI, FieldElement(2)])
    assert plane_curve_is_smooth(f).smooth


def test_nodal_cubic_never_certifies_smooth(monkeypatch):
    # y^2 z = x^2 (x + z) has a node at [0:0:1]; an isolated singular point
    # is beyond the chart gcd certificate, so the verdict is indeterminate,
    # never a false pass.
    f = HomForm(3, 3, {(0, 2, 1): ONE, (3, 0, 0): -ONE, (2, 0, 1): -ONE})
    monkeypatch.setattr(forms, "_MAX_RETRIES", 2)
    try:
        report = plane_curve_is_smooth(f)
    except SmoothnessIndeterminate:
        return
    assert not report.smooth


def test_bad_first_prime_is_retried_never_believed(monkeypatch):
    # Smooth over Q(phi), but x^2 + y^2 modulo the first prime (p0, phi - r0).
    p0, r0 = next(_split_primes())
    conic = HomForm(3, 2, {(2, 0, 0): ONE, (0, 2, 0): ONE,
                           (0, 0, 2): PHI - FieldElement(r0)})
    with monkeypatch.context() as patch:
        patch.setattr(forms, "_MAX_RETRIES", 1)
        with pytest.raises(SmoothnessIndeterminate):
            plane_curve_is_smooth(conic)
    report = plane_curve_is_smooth(conic)
    assert report.smooth and report.prime != p0
    # Attempt 0 skips the prime search; the retry still walks it.
    primes = _split_primes()
    next(primes)
    assert report.prime == next(primes)[0]
    assert report.coordinate_change is not None
    assert determinant_mod(report.coordinate_change, report.prime) != 0


def test_form_vanishing_mod_the_first_prime_is_skipped(monkeypatch):
    p0, r0 = next(_split_primes())
    k = PHI - FieldElement(r0)
    f = HomForm(3, 2, {(2, 0, 0): k, (0, 2, 0): k, (0, 0, 2): k})
    with monkeypatch.context() as patch:
        patch.setattr(forms, "_MAX_RETRIES", 1)
        with pytest.raises(SmoothnessIndeterminate, match="vanishes"):
            plane_curve_is_smooth(f)
    report = plane_curve_is_smooth(f)
    assert report.smooth and report.prime != p0


def test_smoothness_certificate_replays_from_json(geproci_cert_seed1):
    blob = json.loads(json.dumps(geproci_cert_seed1.to_json()))
    smooth = blob["sextic_smooth"]
    p, r = smooth["prime"], smooth["phi_root"]
    assert p > 5 and p % 5 in (1, 4)
    assert all(p % q for q in range(2, isqrt(p) + 1))
    assert (r * r - r - 1) % p == 0
    f = hom_form(blob["sextic"])
    fp = {e: (x + y * r) % p for e, (x, y) in zip(f.coeffs, f.pairs())}
    if smooth["coordinate_change"] is not None:
        fp = _compose_mod(fp, smooth["coordinate_change"], p)
    clean, trail = _chart_test(fp, p)
    assert clean and trail == smooth["chart_trail"]
    assert all("clean (eliminant degrees" in step for step in trail)


def test_a_prime_with_too_few_nodes_reads_not_clean(geproci_cert_seed1,
                                                    monkeypatch):
    """At p = 11 the sextic's eliminants need more interpolation nodes than
    F_p has: no certificate, so the chart is not clean and a retry moves on
    to a larger prime."""
    sextic = geproci_cert_seed1.sextic
    clean, trail = _chart_test(_reduce(sextic, 11, 4), 11)
    assert (clean, trail) == (False, ["chart 0: degenerate eliminant"])
    monkeypatch.setattr(linalg, "_PRIME", 11)
    monkeypatch.setattr(linalg, "_PHI_ROOT", 4)
    report = plane_curve_is_smooth(sextic)
    assert report.smooth and report.reason == "certified on attempt 1"


def test_form_json_roundtrip():
    rng = random.Random(71)
    f = _random_form(rng, 3, 4)
    assert hom_form(f.to_json()) == f


def test_equal_forms_hash_alike():
    # Zero forms of different degrees are equal, so they must hash alike.
    assert HomForm.zero(3, 5) == HomForm.zero(3, 2)
    assert HomForm.zero(3, 5) in {HomForm.zero(3, 2)}
    assert HomForm.zero(3, 2) not in {HomForm.zero(4, 2)}
    rng = random.Random(79)
    f = _random_form(rng, 3, 4)
    g = hom_form(f.to_json())
    assert g in {f} and hash(g) == hash(f)
    assert f not in {_scale(f, FieldElement(2))}
    assert _var(0, 3) not in {_var(0, 3) * _var(0, 3)}


def test_compose_linear_matches_substitution():
    rng = random.Random(73)
    f = _random_form(rng, 3, 3)
    m = [[FieldElement(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    pt = _random_proj_tuple(rng, 3)
    mapped = tuple(sum((m[i][j] * pt[j] for j in range(3)), ZERO)
                   for i in range(3))
    assert (_evaluate(_compose_linear(f, m), _integer_pairs([pt])[0])
            == _evaluate(f, _integer_pairs([mapped])[0]))
