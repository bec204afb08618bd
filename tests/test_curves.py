import math
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nagaolab.curves as curves_mod
from nagaolab.cache import TraceCache
from nagaolab.curves import (
    BadPrimeError,
    CapExceededError,
    CurveError,
    CurveSpec,
    TraceRecord,
    curve_from_poly,
    curve_trace,
    good_primes,
    hyperelliptic_bad_primes,
    l_polynomial_genus2,
    lpoly_roots,
    normalized_angle,
    sweep_traces,
    trace_oracle_exhaustive,
)
from nagaolab.finite_field import legendre, primes_in
from nagaolab.polynomials import IntPolynomial, parse_polynomial


def curve(s):
    return curve_from_poly(parse_polynomial(s))


def test_curve_from_poly_genus_and_bad_primes():
    c = curve("x^3+x")
    assert c.genus == 1
    assert c.bad_primes == {2}  # disc = -4
    assert curve("x^5-x+1").genus == 2
    assert curve("x^4+x+1").genus == 1
    assert curve("x^6+1").genus == 2


def test_curve_from_poly_rejects_repeated_root():
    with pytest.raises(CurveError, match="repeated root"):
        curve_from_poly(IntPolynomial((0, 0, -1, 1)))  # x^2 (x - 1)


def test_curve_from_poly_rejects_bad_degree():
    for s in ("x^2+1", "x^7+x+1"):
        with pytest.raises(CurveError):
            curve(s)


def test_bad_primes_include_lead_and_disc():
    c = curve_from_poly(IntPolynomial((1, 0, 0, 3)))  # 3x^3 + 1
    assert 3 in c.bad_primes and 2 in c.bad_primes


def test_trace_elliptic_known():
    c = curve("x^3+x")
    assert curve_trace(c, 5).a == 2  # #E(F_5) = 4
    assert curve_trace(c, 3).a == 0  # #E(F_3) = 4
    with pytest.raises(BadPrimeError):
        curve_trace(c, 2)


def test_trace_genus2_known():
    c = curve("x^5-x")
    assert curve_trace(c, 3).a == 0  # x^5 = x for all x mod 3
    assert curve_trace(curve("x^5+1"), 7).a == 0  # x -> x^5 bijective mod 7
    with pytest.raises(BadPrimeError):
        curve_trace(c, 2)


def test_oracle_known_values():
    c = curve("x^3+x")
    assert trace_oracle_exhaustive(c, 5).a == 2
    assert trace_oracle_exhaustive(c, 3).a == 0


def _random_squarefree(rng, degree):
    while True:
        coeffs = [rng.randrange(-8, 9) for _ in range(degree)] + [rng.choice([1, -1, 2, 3])]
        f = IntPolynomial(tuple(coeffs))
        if f.degree == degree and f.is_squarefree():
            return f


def test_oracle_equivalence_random_curves():
    rng = random.Random(2024)
    corpus = [_random_squarefree(rng, d) for d in (3, 3, 3, 4, 5, 5, 5, 6, 6, 6)]
    for f in corpus:
        c = curve_from_poly(f)
        for p in primes_in(3, 100):
            if p in c.bad_primes:
                continue
            assert curve_trace(c, p).a == trace_oracle_exhaustive(c, p).a, (f, p)


def test_weil_bounds_on_sweeps():
    for s, g in (("x^3+x+1", 1), ("x^5-x+1", 2), ("x^6+1", 2)):
        c = curve(s)
        for p in primes_in(3, 2000):
            if p in c.bad_primes:
                continue
            a = curve_trace(c, p).a
            assert a * a <= 4 * g * g * p


def test_quadratic_twist_covariance():
    # twist of y^2 = f(x) by d: y^2 = d^3 f(x/d) has trace chi_p(d) * a_p
    f = parse_polynomial("x^3+x+1")
    c = curve_from_poly(f)
    d = 5
    twisted = IntPolynomial(
        tuple(coef * d ** (3 - k) for k, coef in enumerate(f.coeffs))
    )
    ct = curve_from_poly(twisted)
    for p in primes_in(3, 1000):
        if p in c.bad_primes or p in ct.bad_primes:
            continue
        assert curve_trace(ct, p).a == legendre(d, p) * curve_trace(c, p).a


def test_cm_vanishing_mod4_regression():
    c = curve("x^3+x")
    for p in primes_in(3, 10**4):
        a = curve_trace(c, p).a
        assert (a == 0) == (p % 4 == 3)


# -- the sweep engine --------------------------------------------------------

PETERSON_D = parse_polynomial("x^10+2*x^8+3*x^6+3*x^4+2*x^2+1")

squarefree_curves = (
    st.integers(3, 6)
    .flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-9, 9), min_size=d, max_size=d),
            st.sampled_from([1, -1, 2, 3]),
        )
    )
    .map(lambda t: IntPolynomial(tuple(t[0]) + (t[1],)))
    .filter(lambda f: f.is_squarefree())
)

# f(x) = h(x^2) of degree 4 and 6: the squares path of char_sum, together with
# the point-at-infinity correction of even degree
even_curves = (
    st.integers(2, 3)
    .flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-9, 9), min_size=d, max_size=d),
            st.sampled_from([1, -1, 2, 3]),
        )
    )
    .map(lambda t: IntPolynomial(tuple(c for h in t[0] + [t[1]] for c in (h, 0))[:-1]))
    .filter(lambda f: f.is_squarefree())
)


def _oracle(f: IntPolynomial, p: int) -> int:
    spec = CurveSpec(f, (f.degree - 1) // 2, hyperelliptic_bad_primes(f))
    return trace_oracle_exhaustive(spec, p).a


@settings(max_examples=15, deadline=None)
@given(
    st.lists(squarefree_curves, min_size=1, max_size=3),
    even_curves,
    st.booleans(),
    st.sampled_from([1, 2]),
)
def test_sweep_matches_oracle(curves, even, cached, threads):
    polys = curves + [curves[0], even, PETERSON_D]  # a repeated curve, f(x) = h(x^2), a degree-10 D
    bad = frozenset().union(*(hyperelliptic_bad_primes(g) for g in polys))
    primes = good_primes(bad, 300)
    want = [(p, tuple(_oracle(g, p) for g in polys)) for p in primes]
    with tempfile.TemporaryDirectory() as cache_dir:
        for _ in range(2 if cached else 1):  # cold, then warm from the cache files
            caches = [TraceCache(cache_dir, g) for g in set(polys)] if cached else None
            assert list(sweep_traces(polys, primes, threads, caches)) == want


def test_sweep_serial_is_lazy(monkeypatch):
    calls = []
    real = curves_mod.hyperelliptic_trace

    def counted(f, p, table=None):
        calls.append(p)
        return real(f, p, table)

    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", counted)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(curve_from_poly(f).bad_primes, 3000)
    assert len(primes) > 2 * 128
    first = next(iter(sweep_traces([f], primes)))
    assert first == (primes[0], (curve_trace(curve_from_poly(f), primes[0]).a,))
    assert len(calls) == 128 + 1  # one block, plus the curve_trace above


def test_l_polynomial_known():
    lp = l_polynomial_genus2(curve("x^5-x"), 3)
    assert (lp.a, lp.b) == (0, -2)  # #C(F_3)=4, #C(F_9)=6


def test_l_polynomial_cap_and_bad_prime():
    c = curve("x^5-x")
    with pytest.raises(CapExceededError):
        l_polynomial_genus2(c, 10007, cap=10**4)
    with pytest.raises(BadPrimeError):
        l_polynomial_genus2(c, 2)
    with pytest.raises(CurveError):
        l_polynomial_genus2(curve("x^3+x"), 7)


def test_l_polynomial_functional_equation():
    # Frobenius eigenvalues all of modulus sqrt(p)
    for s in ("x^5-x+1", "x^6+1", "x^5+x"):
        c = curve(s)
        for p in primes_in(3, 200):
            if p in c.bad_primes:
                continue
            lp = l_polynomial_genus2(c, p)
            roots = lpoly_roots(lp)
            assert np.allclose(np.abs(roots), math.sqrt(p), atol=1e-9), (s, p)
            # roots pair off into alpha, p/alpha
            assert abs(np.prod(roots).real - p * p) < 1e-6 * p * p


def test_normalized_angle():
    assert normalized_angle(TraceRecord(7, 0, 1)) == pytest.approx(math.pi / 2)
    assert normalized_angle(TraceRecord(5, 2, 1)) == pytest.approx(1.1071487, abs=1e-6)
    with pytest.raises(AssertionError):
        normalized_angle(TraceRecord(5, 5, 1))
    with pytest.raises(CurveError):
        normalized_angle(TraceRecord(5, 2, 2))
