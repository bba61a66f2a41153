"""Readers of the JSON the package writes: the inverses of the `to_json`
methods of FieldElement, ProjPoint, ProjLine and HomForm.  The package
writes certificates and never reads them back; the round-trip tests and the
certificate replay read them here."""

from fractions import Fraction

from h4geproci.field import FieldElement
from h4geproci.projective import ProjLine
from elements import form, point


def field_element(obj):
    """{"a": "p/q", "b": "r/s"} as a + b*phi."""
    return FieldElement(Fraction(obj["a"]), Fraction(obj["b"]))


def proj_point(obj):
    return point(*map(field_element, obj))


def proj_line(obj):
    """The line through the two points of its "span"."""
    return ProjLine(*map(proj_point, obj["span"]))


def hom_form(obj):
    return form(obj["nvars"], obj["degree"],
                {tuple(t["exponents"]): field_element(t["coeff"])
                 for t in obj["terms"]})
