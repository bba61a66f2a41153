"""Exact references on forms that the package itself does not compute:
long division, partial derivatives and monic scaling of a given form.  The
tests state shared components, singular points and printed equations with
them."""

from h4geproci.field import ZERO
from h4geproci.forms import HomForm
from elements import coefficients, form


def monic(f: HomForm) -> HomForm:
    """f scaled so its graded-lex leading coefficient is 1."""
    return HomForm.monic_from_pairs(f.nvars, f.degree, f.terms.items())


def reference_partial(f: HomForm, var: int) -> HomForm:
    """d/dx_var term by term in FieldElement arithmetic."""
    c = {}
    for e, v in coefficients(f).items():
        if e[var] == 0:
            continue
        e2 = list(e)
        e2[var] -= 1
        c[tuple(e2)] = v * e[var]
    return form(f.nvars, max(f.degree - 1, 0), c)


def reference_quotient(f: HomForm, g: HomForm):
    """g / f by long division in FieldElement arithmetic, by the inverse of
    f's leading coefficient, or None when f does not divide g; f nonzero,
    in as many variables as g."""
    if g.is_zero():
        return HomForm(f.nvars, 0, {})
    if g.degree < f.degree:
        return None
    fc = coefficients(f)
    lead = max(fc)
    inv = fc[lead].inverse()
    q = {}
    r = coefficients(g)
    while r:
        top = max(r)
        e = tuple(a - b for a, b in zip(top, lead))
        if min(e) < 0:
            return None
        c = r[top] * inv
        q[e] = c
        for ef, cf in fc.items():
            t = tuple(a + b for a, b in zip(e, ef))
            v = r.get(t, ZERO) - c * cf
            if v.is_zero():
                r.pop(t, None)
            else:
                r[t] = v
    return form(f.nvars, g.degree - f.degree, q)
