"""nagao_series sums -A_p = n / p from integers; the reference below takes
S1 from ``math.fsum`` of the double terms -float(A_p) log p and S2 from the
exact ``Fraction`` mean of the -A_p, and must give the same doubles."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import nagaolab.stats as stats_mod
import nagaolab.twist as twist_mod
from nagaolab.curves import good_primes, hyperelliptic_trace, sweep_traces
from nagaolab.finite_field import char_sum
from nagaolab.finite_field import primes_in
from nagaolab.polynomials import parse_polynomial
from nagaolab.twist import geometric_grid, nagao_series, twist_surface
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


# The golden nagao-twist surface.  Both curves have odd degree, so D has no
# infinity term and n = a_f a_D = -p A_p.
TWIST = twist_surface(parse_polynomial("x^3+x"), parse_polynomial("x^3+5*x+7"))
ODD_PRIMES = primes_in(3, 3001)


def _twist_run(n_max):
    """(p, a_f, a_D) of the nagao-twist surface at its good primes <= n_max."""
    primes = good_primes(TWIST.bad_primes, n_max)
    return [(p, a_f, a_D) for p, (a_f, a_D) in sweep_traces([TWIST.f, TWIST.D], primes)]


@st.composite
def runs(draw):
    """Ascending odd primes, each with genus-1 traces a_f and a_D inside the
    Weil bound a^2 <= 4p, and a grid of cutoffs in [2, n_max]."""
    primes = sorted(draw(st.sets(st.sampled_from(ODD_PRIMES), max_size=120)))
    n_max = draw(st.integers(max([2, *primes]), 3000))
    bounds = [math.isqrt(4 * p) for p in primes]
    run = [(p, draw(st.integers(-b, b)), draw(st.integers(-b, b))) for p, b in zip(primes, bounds)]
    grid = draw(st.lists(st.integers(2, n_max), min_size=1, max_size=12))
    return run, n_max, grid


def _series_and_reference(run, n_max, grid):
    """nagao_series fed ``run`` through its sweep parameter, and the reference
    of the same exact A_p, both as (S1, S2, n_primes) per sorted cutoff."""
    ns = nagao_series(TWIST, n_max, grid, sweep=lambda polys, primes: ((p, (a, b)) for p, a, b in run))
    exact = [(p, Fraction(-a * b, p)) for p, a, b in run]
    return list(zip(ns.s1, ns.s2, ns.n_primes)), nagao_reference(exact, sorted(set(grid)))


@settings(max_examples=200, deadline=None)
@given(runs())
@example((_twist_run(1500), 1500, geometric_grid(1500, 4)))  # the golden nagao-twist case
@example(([(p, 0, 0) for p in ODD_PRIMES[:50]], 300, [2, 3, 100, 300]))  # every n is 0
def test_nagao_series_equals_the_fsum_and_fraction_reference(args):
    got, want = _series_and_reference(*args)
    assert got == want


def test_an_undecided_s2_is_settled_by_the_kept_terms(monkeypatch):
    """With 2 fraction bits the fixed-point interval of S2 is too wide to
    decide its rounding, so the exact Fraction sum of the kept (n, p) gives
    S2.  S1 needs the full 192 bits to be exact, so only S2 is compared."""
    monkeypatch.setattr(stats_mod, "_K", 2)
    monkeypatch.setattr(twist_mod, "_K", 2)
    run, grid = _twist_run(1500), [100, 1000, 1500]
    for cut in grid:
        terms = [(a * b, p) for p, a, b in run if p <= cut]
        s = sum((n << 2) // p for n, p in terms)
        inexact = sum(n % p != 0 for n, p in terms)
        scale = len(terms) << 2
        assert s / scale != (s + inexact) / scale  # the fallback runs
    got, want = _series_and_reference(run, 1500, grid)
    assert [g[1:] for g in got] == [w[1:] for w in want]
