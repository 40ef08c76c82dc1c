"""Generic Schur values assembled term by term, the reference the packed Schur engine is tested against.

The coefficient of prod t_k^{m_k} in s_{outer/inner}(t) is chi(rho) / prod m_k!, rho having m_k parts equal
to k.  Each term is built here as a decoded ``mono`` with its Fraction, from ``characters`` alone: no per-grade
table, no packed key.
"""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from taukit.poly import GradedPoly, Var, mono
from taukit.schur import characters


def decoded_schur(outer, inner, family, d):
    """s_{outer/inner} at the generic times of the family, in the box (d, d)."""
    terms = {}
    for rho, chi in characters(outer, inner).items():
        mults = Counter(rho)
        key = mono((Var(family, k), e) for k, e in mults.items())
        terms[key] = Fraction(chi, prod(factorial(e) for e in mults.values()))
    return GradedPoly(d, d, terms)
