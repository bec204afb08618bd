"""nagao_series sums -A_p = n / p from integers; the reference below takes
-float(A_p) of each exact rational A_p and must give the same doubles."""

import math

import pytest

from nagaolab.polynomials import parse_polynomial
from nagaolab.twist import nagao_series, twist_surface


def _kahan(xs):
    s = c = 0.0
    for x in xs:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def _reference(records, grid):
    """(S1, S2, n_primes) at each cutoff from the exact (p, A_p) records."""
    out = []
    for cut in grid:
        below = [(p, -float(a)) for p, a in records if p <= cut]
        s_w = _kahan(v * math.log(p) for p, v in below)
        s_u = _kahan(v for _, v in below)
        out.append((s_w / cut, s_u / len(below) if below else 0.0, len(below)))
    return out


SURFACES = [
    ("T^3+T", "T^3+T"),  # self-twist, odd degree
    ("x^5-x+1", "x^4+3"),  # even D with a square lead
    ("x^3+x+1", "2*x^6+x+5"),  # even D whose lead is not a square mod every p
    ("x^6+1", "x^5+x+7"),
]


@pytest.mark.parametrize("f, D", SURFACES, ids=[f"{f} by {D}" for f, D in SURFACES])
def test_nagao_series_matches_the_exact_reference(f, D):
    s = twist_surface(parse_polynomial(f), parse_polynomial(D))
    grid = [2, 100, 101, 997, 1500, 3000]
    ns = nagao_series(s, 3000, grid)
    assert [p for p, _ in ns.records] == [p for p, _ in ns.scaled]
    assert all(p * a == pa for (p, a), (_, pa) in zip(ns.records, ns.scaled))
    # exact equality: the same doubles, not merely close ones
    assert list(zip(ns.s1, ns.s2, ns.n_primes)) == _reference(ns.records, grid)
