"""Field axioms and serialization for Q(phi) elements."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h4geproci.field import (FieldElement, ONE, PHI, PHI2, ZERO,
                             common_numerators, primitive_numerators)
from json_readers import field_element


def _random_element(rng: random.Random) -> FieldElement:
    return FieldElement(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                        Fraction(rng.randint(-50, 50), rng.randint(1, 20)))


def test_phi_satisfies_its_minimal_polynomial():
    assert PHI * PHI == PHI + ONE
    assert PHI2 == PHI + ONE
    assert PHI.norm() == -1
    assert PHI.inverse() == PHI - ONE


def test_field_axioms_on_random_triples():
    rng = random.Random(20260824)
    for _ in range(10_000):
        x, y, z = (_random_element(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x and x * ONE == x
        assert x + (-x) == ZERO


def test_inverses_and_norm_multiplicativity():
    rng = random.Random(7)
    for _ in range(2_000):
        x, y = _random_element(rng), _random_element(rng)
        if not x.is_zero():
            assert x * x.inverse() == ONE
            assert (ONE / x) * x == ONE
        assert (x * y).norm() == x.norm() * y.norm()
        assert x * x.conjugate() == FieldElement(x.norm())


def test_conjugation_is_a_field_homomorphism():
    rng = random.Random(11)
    for _ in range(2_000):
        x, y = _random_element(rng), _random_element(rng)
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate().conjugate() == x


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        PHI / ZERO
    with pytest.raises(ZeroDivisionError):
        1 / ZERO


def test_powers_match_repeated_multiplication():
    x = FieldElement(Fraction(3, 2), Fraction(-1, 3))
    acc = ONE
    for k in range(8):
        assert x ** k == acc
        acc = acc * x
    assert x ** -2 == (x * x).inverse()


def test_coercion_from_int_and_fraction():
    assert FieldElement(2) + 3 == FieldElement(5)
    assert 2 * PHI == PHI + PHI
    assert PHI - Fraction(1, 2) == FieldElement(Fraction(-1, 2), 1)


_rationals = st.fractions(min_value=-10**6, max_value=10**6,
                          max_denominator=10**4)
_elements = st.builds(FieldElement, _rationals, _rationals)


@settings(max_examples=300, deadline=None)
@given(_elements, _elements)
def test_subtraction_inverts_addition(x, y):
    assert (x + y) - y == x


@settings(max_examples=300, deadline=None)
@given(_elements, _elements)
def test_division_inverts_multiplication(x, y):
    if not y.is_zero():
        assert (x * y) / y == x


@settings(max_examples=300, deadline=None)
@given(_elements)
def test_json_roundtrip(x):
    assert field_element(x.to_json()) == x


def test_immutability_and_hash_consistency():
    x = FieldElement(1, 2)
    with pytest.raises(AttributeError):
        x.a = Fraction(3)
    assert hash(FieldElement(1, 2)) == hash(x)
    assert len({FieldElement(1, 2), FieldElement(1, 2), PHI}) == 2
    assert 3 in {FieldElement(3)} and FieldElement(3) in {3}
    assert Fraction(1, 2) in {FieldElement(Fraction(1, 2))}
    assert FieldElement(Fraction(1, 2)) in {Fraction(1, 2)}


class _Reference:
    """The Fraction-pair arithmetic of a + b*phi that the field layer replaced.

    Kept as the reference for the differential tests below.
    """

    def __init__(self, a, b):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, other):
        return _Reference(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return _Reference(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _Reference(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)

    def norm(self):
        return self.a * self.a + self.a * self.b - self.b * self.b

    def conjugate(self):
        return _Reference(self.a + self.b, -self.b)

    def inverse(self):
        n = self.norm()
        return _Reference((self.a + self.b) / n, -self.b / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = _Reference(1, 0)
        for _ in range(k):
            result = result * self
        return result

    def to_json(self):
        return {"a": str(self.a), "b": str(self.b)}


def _assert_agrees(x: FieldElement, ref: _Reference) -> None:
    assert (x.a, x.b) == (ref.a, ref.b)
    assert x.to_json() == ref.to_json()
    assert hash(x) == hash(FieldElement(ref.a, ref.b))
    if ref.b == 0:
        assert x == ref.a and hash(x) == hash(ref.a)


_pairs = st.tuples(_rationals, _rationals)


@settings(max_examples=300, deadline=None)
@given(_pairs, _pairs, st.integers(min_value=-5, max_value=5))
def test_agrees_with_fraction_pair_reference(p, q, k):
    x, y = FieldElement(*p), FieldElement(*q)
    rx, ry = _Reference(*p), _Reference(*q)
    _assert_agrees(x, rx)
    _assert_agrees(x + y, rx + ry)
    _assert_agrees(x - y, rx - ry)
    _assert_agrees(x * y, rx * ry)
    _assert_agrees(x.conjugate(), rx.conjugate())
    assert x.norm() == rx.norm()
    if not y.is_zero():
        _assert_agrees(x / y, rx / ry)
        _assert_agrees(y.inverse(), ry.inverse())
        _assert_agrees(y ** k, ry ** k)
    if not x.is_zero():
        _assert_agrees(x ** -1, rx ** -1)


@settings(max_examples=300, deadline=None)
@given(_elements, _elements)
def test_normal_form(x, y):
    for z in (x, y, x + y, x - y, x * y, x.conjugate(), -x):
        num, phi_num, den = z._v
        assert den > 0 and gcd(num, phi_num, den) == 1
        assert FieldElement(z.a, z.b)._v == z._v
    assert (x + y - y)._v == x._v
    if not y.is_zero():
        assert ((x * y) / y)._v == x._v
        assert (x / y * y)._v == x._v
    assert (x - x)._v == ZERO._v == (0, 0, 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(_elements, max_size=5))
def test_common_numerators_are_the_elements_over_the_lcm(xs):
    pairs, d = common_numerators(xs)
    assert d == lcm(*(Fraction(x.a).denominator for x in xs),
                    *(Fraction(x.b).denominator for x in xs))
    assert [FieldElement(Fraction(a, d), Fraction(b, d))
            for a, b in pairs] == xs


@settings(max_examples=200, deadline=None)
@given(st.lists(_elements, min_size=1, max_size=5))
def test_primitive_numerators_scale_by_one_positive_rational(xs):
    pairs = primitive_numerators(xs)
    ints = [v for pair in pairs for v in pair]
    lead = next((k for k, x in enumerate(xs) if not x.is_zero()), None)
    if lead is None:
        assert not any(ints)
        return
    assert gcd(*ints) == 1
    ratio = FieldElement(*pairs[lead]) / xs[lead]
    assert ratio.b == 0 and ratio.a > 0
    assert [FieldElement(*pair) for pair in pairs] == [x * ratio for x in xs]
