"""Field axioms and serialization for Q(phi) elements, and the Z[phi]
pair kernels: products, dot products, conjugate, norm and residues."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h4geproci import linalg
from h4geproci.field import (FieldElement, ONE, PHI, PHI2, ZERO, _dot,
                             conj, json_pair, norm, primitive_numerators,
                             products, residues)
from h4geproci.forms import HomForm
from h4geproci.projective import ProjPoint, canonicalize
from elements import point
from json_readers import field_element


def _random_element(rng: random.Random) -> FieldElement:
    return FieldElement(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                        Fraction(rng.randint(-50, 50), rng.randint(1, 20)))


def common_numerators(xs):
    """Pairs (x, y) over one denominator d, the lcm: each element is (x + y*phi)/d."""
    d = lcm(*(v.denominator for x in xs for v in (x.a, x.b)))
    return [(int(x.a * d), int(x.b * d)) for x in xs], d


def _numerator(x: FieldElement):
    """The Z[phi] pair u and the integer d with x = u/d."""
    [u], d = common_numerators([x])
    return u, d


def test_phi_satisfies_its_minimal_polynomial():
    assert PHI * PHI == PHI + ONE
    assert PHI2 == PHI + ONE
    assert products([((0, 1), (0, 1))]) == [(1, 1)]
    assert norm((0, 1)) == -1
    assert conj((0, 1)) == (1, -1)  # phi + conj(phi) = 1
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
        (u, _), (v, _) = _numerator(x), _numerator(y)
        [uv] = products([(u, v)])
        assert norm(uv) == norm(u) * norm(v)
        assert products([(u, conj(u))]) == [(norm(u), 0)]
        assert (norm(u) == 0) == x.is_zero()


def test_conjugation_is_a_field_homomorphism():
    rng = random.Random(11)
    for _ in range(2_000):
        (u, _), (v, _) = (_numerator(_random_element(rng)) for _ in range(2))
        (a, b), (c, d) = conj(u), conj(v)
        assert conj((u[0] + v[0], u[1] + v[1])) == (a + c, b + d)
        [uv] = products([(u, v)])
        assert products([(conj(u), conj(v))]) == [conj(uv)]
        assert conj(conj(u)) == u


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


def test_only_ints_and_fractions_enter_q_phi():
    """Elements take one rule: an int (a bool too) or a Fraction, never a
    float or a string, which would enter Q(phi) rounded or parsed.  Form
    numerators and point pairs take ints only, and a coordinate vector of
    elements enters by its canonical pairs."""
    for bad in (lambda: FieldElement(0.1), lambda: FieldElement(0, 0.5),
                lambda: FieldElement("1/2", "3"), lambda: FieldElement(1) + 0.1,
                lambda: FieldElement(1) - 0.1, lambda: 0.1 - FieldElement(1)):
        with pytest.raises(TypeError, match="into Q\\(phi\\)"):
            bad()
    for bad in (lambda: HomForm(3, 1, {(1, 0, 0): (0.5, 0)}),
                lambda: HomForm(3, 1, {(1, 0, 0): (Fraction(1, 2), 0)}),
                lambda: ProjPoint.of(0.1, 1, 0, 0),
                lambda: ProjPoint.of(Fraction(1, 2), 1, 0, 0)):
        with pytest.raises(TypeError):
            bad()
    assert FieldElement(True, Fraction(2, 4)) == FieldElement(1, Fraction(1, 2))
    assert ProjPoint([(1, 0), (0, 0), (0, 0), (0, 0)]) == ProjPoint.of(1, 0, 0, 0)
    assert point(2, Fraction(1, 2), ONE, PHI) == point(4, 1, 2, 2 * PHI)
    assert ProjPoint(canonicalize([ONE, PHI, ZERO, ZERO])) == point(1, PHI, 0, 0)


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
    [u], d = common_numerators([x])
    assert field_element(json_pair(u, d)) == x


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
    integral = ref.a.denominator == ref.b.denominator == 1
    assert {type(x.a), type(x.b)} == {int if integral else Fraction}
    assert eval(repr(x), {"FieldElement": FieldElement, "Fraction": Fraction}) == x
    [u], d = common_numerators([x])
    assert json_pair(u, d) == ref.to_json()
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
    (u, v), d = common_numerators([x, y])
    _assert_agrees(FieldElement(*conj(u)) / d, rx.conjugate())
    assert Fraction(norm(u), d * d) == rx.norm()
    [uv] = products([(u, v)])
    _assert_agrees(FieldElement(*uv) / (d * d), rx * ry)
    _assert_agrees(FieldElement(*_dot([u, u], [v, conj(u)])) / (d * d),
                   rx * ry + rx * rx.conjugate())
    if not y.is_zero():
        _assert_agrees(x / y, rx / ry)
        _assert_agrees(y.inverse(), ry.inverse())
        _assert_agrees(y ** k, ry ** k)
    if not x.is_zero():
        _assert_agrees(x ** -1, rx ** -1)


@settings(max_examples=300, deadline=None)
@given(_elements, _elements)
def test_normal_form(x, y):
    for z in (x, y, x + y, x - y, x * y, x.inverse() if x else x, -x):
        num, phi_num, den = z._v
        assert den > 0 and gcd(num, phi_num, den) == 1
        assert FieldElement(z.a, z.b)._v == z._v
    assert (x + y - y)._v == x._v
    if not y.is_zero():
        assert ((x * y) / y)._v == x._v
        assert (x / y * y)._v == x._v
    assert (x - x)._v == ZERO._v == (0, 0, 1)


@settings(max_examples=200, deadline=None)
@given(_elements, st.integers(min_value=1, max_value=10**6))
def test_json_pair_writes_the_element_over_its_denominator(x, k):
    """Every pair-based value writes its numbers by `json_pair`: the
    element's numerators over any common denominator give its JSON."""
    [u], d = common_numerators([x])
    ref = _Reference(x.a, x.b).to_json()
    assert json_pair(u, d) == ref
    assert json_pair((u[0] * k, u[1] * k), d * k) == ref


@settings(max_examples=200, deadline=None)
@given(st.lists(_elements, min_size=1, max_size=5))
def test_primitive_numerators_scale_by_one_positive_rational(xs):
    pairs = primitive_numerators((x.a, x.b) for x in xs)
    ints = [v for pair in pairs for v in pair]
    lead = next((k for k, x in enumerate(xs) if not x.is_zero()), None)
    if lead is None:
        assert not any(ints)
        return
    assert gcd(*ints) == 1
    ratio = FieldElement(*pairs[lead]) / xs[lead]
    assert ratio.b == 0 and ratio.a > 0
    assert [FieldElement(*pair) for pair in pairs] == [x * ratio for x in xs]


_integers = st.integers(min_value=-10**30, max_value=10**30)
_zpairs = st.tuples(_integers, _integers)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_zpairs, _zpairs), max_size=6))
def test_products_and_dot_are_the_field_products(factors):
    """`products` and `_dot` on Z[phi] pairs agree with FieldElement `*`."""
    exact = [FieldElement(*u) * FieldElement(*v) for u, v in factors]
    assert [FieldElement(*w) for w in products(factors)] == exact
    us, vs = [u for u, _ in factors], [v for _, v in factors]
    assert FieldElement(*_dot(us, vs)) == sum(exact, ZERO)


@pytest.mark.parametrize("p, r", [(linalg._PRIME, linalg._PHI_ROOT),
                                  linalg._KERNEL_PRIME],
                         ids=["rank prime", "kernel prime"])
@settings(max_examples=200, deadline=None)
@given(u=_zpairs, v=_zpairs)
def test_residues_are_a_ring_map(p, r, u, v):
    """x + y*phi -> (x + y*r) mod p is a ring map at both stored primes,
    and conj(w) at r is w at the other root 1 - r, as `nullspace`'s
    two-root lift reads it."""
    assert (r * r - r - 1) % p == 0
    assert residues([(1, 0), (0, 1)], p, r) == [1, r % p]
    ru, rv = residues([u, v], p, r)
    [uv] = products([(u, v)])
    assert residues([(u[0] + v[0], u[1] + v[1]), uv], p, r) == \
        [(ru + rv) % p, ru * rv % p]
    assert residues([conj(u)], p, r) == residues([u], p, 1 - r)
    assert residues([(norm(u), 0)], p, r) == \
        [ru * residues([u], p, 1 - r)[0] % p]
