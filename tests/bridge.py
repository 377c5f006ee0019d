"""Test-only bridge from oracle vectors to closed-form elements.

The oracle never builds a `GradedPoly`: its vectors are printed from
their raw monomials (`claims.render_vec`). Tests that compare an oracle
vector with closed-form arithmetic build the element here. The
`GradedPoly` constructor drops every term the closed-form rules kill,
so on a mutated ring this is not the oracle's vector.
"""

from prozero.fields import QQ
from prozero.oracle import index_of_mono
from prozero.rings import GradedPoly


def poly_of_vec(ring, vec, field=QQ):
    """The closed-form element with the raw vector's terms."""
    terms = {}
    for m, c in vec.items():
        terms.setdefault((m[0], m[1]), {})[index_of_mono(m, ring)] = c
    return GradedPoly(ring, terms, field)
