import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nagaolab.curves import (
    BadPrimeError,
    CapExceededError,
    CurveError,
    curve_from_poly,
    good_primes,
    hyperelliptic_bad_primes,
    hyperelliptic_trace,
    sweep_traces,
)
from nagaolab.finite_field import char_sum, primes_in
from nagaolab.polynomials import IntPolynomial, PolynomialError, parse_polynomial
from nagaolab.twist import (
    MAX_D_DEGREE,
    MobiusTransform,
    PetersonError,
    average_trace,
    geometric_grid,
    nagao_series,
    permutes_roots,
    peterson_D,
    twist_surface,
    verify_factorization,
)
from oracles import nagao_reference


def surface(f, d=None):
    fp = parse_polynomial(f)
    dp = parse_polynomial(d) if d else fp
    return twist_surface(fp, dp)


def test_char_sum_known():
    assert char_sum(parse_polynomial("x^3+x"), 5) == -2
    for p in (5, 13, 101):
        assert char_sum(parse_polynomial("x^2"), p) == p - 1
        assert char_sum(parse_polynomial("x"), p) == 0


def test_average_trace_examples():
    s = surface("x^3+x")
    assert average_trace(s, 5) == Fraction(-4, 5)
    assert average_trace(s, 3) == 0
    # trace factor vanishes => A_p = 0 regardless of D
    s2 = surface("x^3+x", "x^3+x+1")
    assert average_trace(s2, 3) == 0
    with pytest.raises(BadPrimeError):
        average_trace(s, 2)


def _assert_series_at_every_good_prime(s, n_max, exact):
    """nagao_series on a grid of every good prime <= n_max, and n_max, equals
    the fsum and Fraction reference of the exact (p, A_p): a single wrong A_p
    changes the doubles at its own cutoff."""
    grid = sorted({*(p for p, _ in exact), n_max})
    ns = nagao_series(s, n_max, grid)
    assert list(zip(ns.s1, ns.s2, ns.n_primes)) == nagao_reference(exact, grid)


def _good(s, n_max):
    return [p for p in primes_in(3, n_max + 1) if p not in s.bad_primes]


def test_mode_agreement_corpus():
    polys = [
        "x^3+x", "x^3+x+1", "x^3-x+3", "x^5-x+1", "x^5+x",
        "x^6+1", "x^6+2", "x^5+x^3+x", "x^3+2*x+5", "x^6+x^2+1",
    ]
    # D runs over odd and even degrees, so both chi-sum corrections are exercised
    for f, d in zip(polys, polys[1:] + polys[:1]):
        s = surface(f, d)
        _assert_series_at_every_good_prime(s, 2000, [(p, average_trace(s, p)) for p in _good(s, 2000)])


def test_self_twist_identity_both_genera():
    # p * A_p = -a_p(f)^2 when D = f
    for f in ("x^3+x+1", "x^5-x+1"):
        s = surface(f)
        exact = [(p, Fraction(-hyperelliptic_trace(s.f, p) ** 2, p)) for p in _good(s, 10**4)]
        _assert_series_at_every_good_prime(s, 10**4, exact)


def test_nagao_series_empty_sum():
    s = surface("x^3+x")
    ns = nagao_series(s, 2, [2])
    assert ns.s1 == (0.0,) and ns.s2 == (0.0,) and ns.n_primes == (0,)


def test_nagao_series_grid_validation():
    s = surface("x^3+x")
    with pytest.raises(ValueError):
        nagao_series(s, 100, [1000])
    with pytest.raises(CapExceededError):
        nagao_series(s, 10**7 + 1, [100])


def test_nagao_series_matches_direct_sum():
    import math

    s = surface("x^3+x", "x^3+x+1")
    ns = nagao_series(s, 500, [500])
    good = [p for p in primes_in(3, 501) if p not in s.bad_primes]
    s1 = sum(-float(average_trace(s, p)) * math.log(p) for p in good) / 500
    s2 = sum(-float(average_trace(s, p)) for p in good) / len(good)
    assert ns.s1[0] == pytest.approx(s1, abs=1e-12)
    assert ns.s2[0] == pytest.approx(s2, abs=1e-12)


def test_geometric_grid():
    g = geometric_grid(10**5)
    assert g[0] == 1000 and g[-1] == 10**5
    assert g == sorted(set(g))
    assert geometric_grid(500) == [500]
    assert geometric_grid(500, 30_000_000) == [500]  # one cutoff, returned before the point check
    with pytest.raises(ValueError, match="at most 100000 points"):  # refused before its loop
        geometric_grid(10**5, 30_000_000)


def test_mobius_basics():
    with pytest.raises(PolynomialError):
        MobiusTransform(2, 2, 1, 1)  # determinant 0


def test_records_survive_a_pickle_round_trip():
    """The fork pool pickles what it sends to a worker: each record comes back
    equal, with its own type and hash."""
    f = parse_polynomial("x^3+x+1")
    s = twist_surface(f, parse_polynomial("T^3+T"))
    for rec in [f, s.bad_primes, MobiusTransform(1, 1, -3, 1), s]:
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is type(rec) and hash(back) == hash(rec)
    assert all((p in s.bad_primes) == (p in pickle.loads(pickle.dumps(s.bad_primes))) for p in range(2, 100))


def test_permutes_roots():
    f = parse_polynomial("x^3-x")
    assert permutes_roots(MobiusTransform(1, 1, -3, 1), f)
    assert permutes_roots(MobiusTransform(0, 1, 1, 0), parse_polynomial("x^5+2*x^4+3*x^3+3*x^2+2*x+1"))
    assert not permutes_roots(MobiusTransform(1, 1, 0, 1), f)  # x + 1


def _permutes_roots_numeric(sigma: MobiusTransform, f: IntPolynomial) -> bool:
    """Independent oracle: sigma maps the numeric roots of a squarefree f onto themselves."""
    roots = np.roots(list(reversed(f.coeffs)))
    scale = 1e-7 * max(1.0, float(np.abs(roots).max()))
    dens = sigma.c * roots + sigma.d
    if np.abs(dens).min() < scale:  # a pole at a root sends it to infinity
        return False
    images = (sigma.a * roots + sigma.b) / dens
    nearest = [int(np.argmin(np.abs(roots - z))) for z in images]
    close = all(abs(roots[k] - z) < scale * max(1.0, abs(z)) for k, z in zip(nearest, images))
    return close and sorted(nearest) == list(range(len(roots)))


_small = st.integers(-4, 4)
_nonzero = _small.filter(bool)


@st.composite
def _palindromic(draw):
    """a x^n + ... + a with mirrored coefficients, n in {3, 5}: 1/x permutes its roots."""
    n = draw(st.sampled_from((3, 5)))
    half = [draw(_nonzero)] + [draw(_small) for _ in range((n - 1) // 2)]
    return IntPolynomial(tuple(half + half[::-1]))


@settings(max_examples=150, deadline=None)
@given(_palindromic(), _nonzero)
def test_permutes_roots_palindromic_oracle(f, k):
    assume(f.is_squarefree())
    sigma = MobiusTransform(0, k, k, 0)  # 1/x
    assert _permutes_roots_numeric(sigma, f)
    assert permutes_roots(sigma, f)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _palindromic(),
        st.lists(_small, min_size=4, max_size=6)
        .filter(lambda c: c[-1] != 0 and len(c) in (4, 6))
        .map(lambda c: IntPolynomial(tuple(c))),
    ),
    st.tuples(_small, _small, _small, _small).filter(lambda m: m[0] * m[3] != m[1] * m[2]),
)
def test_permutes_roots_random_sigma_oracle(f, m):
    assume(f.is_squarefree())
    sigma = MobiusTransform(*m)
    assert permutes_roots(sigma, f) == _permutes_roots_numeric(sigma, f)


def test_peterson_palindromic_quintic():
    f = parse_polynomial("x^5+2*x^4+3*x^3+3*x^2+2*x+1")
    res = peterson_D(f, MobiusTransform(0, 1, 1, 0))
    # f(0) = 1 and sigma^{-1}(inf) = 0, so D(T) = f(T^2)
    assert res.D == parse_polynomial("T^10+2*T^8+3*T^6+3*T^4+2*T^2+1")
    assert res.multiplier == 1


def test_peterson_three_cycle_cubic():
    f = parse_polynomial("x^3-x")
    res = peterson_D(f, MobiusTransform(1, 1, -3, 1))
    # integral model of f(27 T^2 / 8 + 1/3), scaled by a square
    m = Fraction(res.multiplier)
    for t in (0, 1, 2, Fraction(1, 2)):
        want = f(Fraction(27, 8) * t * t + Fraction(1, 3)) * m * m
        assert res.D(t) == want
    assert verify_factorization(res.D, f, 2, 500).passed


def test_peterson_three_cycle_exact_model():
    res = peterson_D(parse_polynomial("x^3-x"), MobiusTransform(1, 1, -3, 1))
    assert res.D.coeffs == (-56623104, 0, -429981696, 0, 2176782336, 0, 7346640384)
    assert res.multiplier == 13824 and type(res.multiplier) is int


def test_peterson_errors():
    f = parse_polynomial("x^3-x")
    with pytest.raises(PetersonError, match="pole at infinity"):
        peterson_D(f, MobiusTransform(-1, 0, 0, 1))  # sigma = -x
    with pytest.raises(PetersonError, match="permute"):
        peterson_D(f, MobiusTransform(1, 1, 1, 0))
    with pytest.raises(PetersonError, match="degree"):
        peterson_D(parse_polynomial("x^4+1"), MobiusTransform(0, 1, 1, 0))


def test_peterson_D_of_a_double_root_is_not_squarefree():
    # sigma = x/(x+2) fixes both roots of x^2 (x+1), the double root 0 included
    with pytest.raises(PetersonError, match="constructed D\\(T\\) is not squarefree"):
        peterson_D(parse_polynomial("x^3+x^2"), MobiusTransform(1, 0, 1, 2))


def test_verify_factorization_identity_case():
    f = parse_polynomial("x^3+x+1")
    assert verify_factorization(f, f, 1, 1000).passed


def test_verify_factorization_failure_reports_least_prime():
    rep = verify_factorization(parse_polynomial("x^6+2"), parse_polynomial("x^3+x"), 2, 100)
    assert not rep.passed
    assert rep.first_failing_prime == 5


def test_verify_factorization_above_cap_raises():
    f = parse_polynomial("x^3+x")
    with pytest.raises(CapExceededError):
        verify_factorization(f, f, 1, n_max=10**7 + 1)


def test_D_degree_cap_before_discriminant(monkeypatch):
    """A D above the degree cap raises before its discriminant is computed."""
    f = parse_polynomial("x^3+x")
    peterson = peterson_D(parse_polynomial("x^5+2*x^4+3*x^3+3*x^2+2*x+1"), MobiusTransform(0, 1, 1, 0))
    assert peterson.D.degree == MAX_D_DEGREE == 10
    D = parse_polynomial("x^11+x+1")
    monkeypatch.setattr(IntPolynomial, "discriminant", lambda self: pytest.fail("discriminant computed"))
    with pytest.raises(CapExceededError, match="degree 11"):
        twist_surface(f, D)
    with pytest.raises(CapExceededError, match="degree 11"):
        verify_factorization(D, f, 2, 100)


def test_verify_mixed_reduces_to_plain():
    f = parse_polynomial("x^3+x+1")
    assert verify_factorization(f, f, 1, 1000, others=[]).passed
    # a_p(f) = 0 * a_p(E) + a_p(f): f itself as the only extra factor
    e = parse_polynomial("x^3+2*x+3")
    assert verify_factorization(f, e, 0, 1000, others=[f]).passed


def test_verify_mixed_failure():
    f = parse_polynomial("x^3+x+1")
    other = curve_from_poly(parse_polynomial("x^3+2*x+3"))
    rep = verify_factorization(f, f, 1, 200, others=[other.f])
    assert not rep.passed
    # the reported prime is the least good one where the extra term is nonzero
    bad = curve_from_poly(f).bad_primes | other.bad_primes
    for p in primes_in(3, 200):
        if p in bad:
            continue
        if hyperelliptic_trace(other.f, p) != 0:
            assert rep.first_failing_prime == p
            break


def test_verify_mixed_rejects_higher_genus():
    e = parse_polynomial("x^3+x+1")
    g2 = parse_polynomial("x^5-x+1")
    for f, others in ((g2, [e]), (e, [g2])):
        with pytest.raises(CurveError, match=re.escape(str(g2))):
            verify_factorization(e, f, 1, 100, others=others)


def test_each_sweep_names_its_curves_and_good_primes():
    """nagao_series sweeps [f, D] and verify_factorization [D, f, *others],
    each over the good primes of the union of their bad primes."""
    f, D, e = (parse_polynomial(g) for g in ("x^3+x+1", "x^5-x+1", "x^3+2*x+3"))
    calls = []

    def recording(polys, primes):
        calls.append((list(polys), list(primes)))
        return sweep_traces(polys, primes)

    bad = hyperelliptic_bad_primes
    s = twist_surface(f, D)
    assert nagao_series(s, 500, [100, 500], sweep=recording) == nagao_series(s, 500, [100, 500])
    assert calls == [([f, D], good_primes(bad(f) | bad(D), 500))]
    calls.clear()
    want = verify_factorization(D, f, 2, 500, others=[e])
    assert verify_factorization(D, f, 2, 500, others=[e], sweep=recording) == want
    assert calls == [([D, f, e], good_primes(bad(D) | bad(f) | bad(e), 500))]
