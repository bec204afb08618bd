"""nagao_series sums -A_p = n / p from integers; the reference below takes
-float(A_p) of each exact rational A_p, built from ``char_sum`` and
``hyperelliptic_trace`` one prime at a time, and must give the same doubles."""

from fractions import Fraction

import pytest

from nagaolab.curves import hyperelliptic_trace
from nagaolab.finite_field import char_sum
from nagaolab.finite_field import primes_in
from nagaolab.polynomials import parse_polynomial
from nagaolab.twist import nagao_series, twist_surface
from oracles import nagao_reference

SURFACES = [
    ("T^3+T", "T^3+T"),  # self-twist, odd degree
    ("x^5-x+1", "x^4+3"),  # even D with a square lead
    ("x^3+x+1", "2*x^6+x+5"),  # even D whose lead is not a square mod every p
    ("x^6+1", "x^5+x+7"),
]


@pytest.mark.parametrize("f, D", SURFACES, ids=[f"{f} by {D}" for f, D in SURFACES])
def test_nagao_series_matches_the_exact_reference(f, D):
    """A_p = chi-sum of D times a_p(f), over p.  The grid holds every good
    prime, so a single wrong A_p changes the doubles at its own cutoff."""
    s = twist_surface(parse_polynomial(f), parse_polynomial(D))
    good = [p for p in primes_in(3, 3001) if p not in s.bad_primes]
    exact = [(p, Fraction(char_sum(s.D, p) * hyperelliptic_trace(s.f, p), p)) for p in good]
    grid = sorted({2, 100, 101, 997, 1500, 3000, *good})
    ns = nagao_series(s, 3000, grid)
    # exact equality: the same doubles, not merely close ones
    assert list(zip(ns.s1, ns.s2, ns.n_primes)) == nagao_reference(exact, grid)
