"""FieldElement views of the package's values, for the tests' references.

Flats keep only canonical Z[phi] pairs and forms only Z[phi] numerators over
one integer denominator; the references compute in FieldElement arithmetic.
These helpers translate both ways: `coords` and `coefficients` read a value
as FieldElements, and `point`, `plane`, `form` and `linear` build one from
FieldElements, ints or Fractions."""

from math import lcm

from h4geproci.field import FieldElement, primitive_numerators
from h4geproci.forms import HomForm, monomials
from h4geproci.projective import ProjPlane, ProjPoint


def element(x) -> FieldElement:
    """An int or a Fraction as a FieldElement; a FieldElement as it is."""
    return x if isinstance(x, FieldElement) else FieldElement(x)


def pairs_of(elems):
    """The elements scaled by one positive rational to coprime Z[phi] pairs."""
    return primitive_numerators((e.a, e.b) for e in map(element, elems))


def elements(pairs):
    """Z[phi] pairs as FieldElements."""
    return tuple(FieldElement(x, y) for x, y in pairs)


def coords(flat):
    """The canonical coordinates of a point or plane as FieldElements."""
    return elements(flat.pairs)


def point(*xs) -> ProjPoint:
    return ProjPoint(pairs_of(xs))


def plane(xs) -> ProjPlane:
    return ProjPlane(pairs_of(xs))


def form(nvars, degree, coeffs) -> HomForm:
    """The form with these coefficients, over the lcm of their denominators."""
    coeffs = {e: element(c) for e, c in coeffs.items()}
    den = lcm(*(v.denominator for c in coeffs.values() for v in (c.a, c.b)))
    return HomForm(nvars, degree, {e: (int(c.a * den), int(c.b * den))
                                   for e, c in coeffs.items()}, den)


def linear(coeffs) -> HomForm:
    """The linear form sum coeffs[i] * x_i."""
    return form(len(coeffs), 1, dict(zip(monomials(1, len(coeffs)), coeffs)))


def coefficients(f: HomForm):
    """The coefficients of a form, by exponent tuple, as FieldElements."""
    return {e: FieldElement(x, y) / f.den for e, (x, y) in f.terms.items()}
