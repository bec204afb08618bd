import itertools
import math
import multiprocessing
import operator
import os
import random
import tempfile
from functools import reduce

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import nagaolab.curves as curves_mod
from nagaolab.cache import TraceCache
from nagaolab.curves import (
    CurveError,
    CurveSpec,
    TraceRecord,
    char_sum,
    curve_from_poly,
    genus2_b,
    good_primes,
    hyperelliptic_bad_primes,
    hyperelliptic_trace,
    normalized_angle,
    sweep_traces,
    trace_oracle_exhaustive,
)
from nagaolab.finite_field import legendre, primes_in, residue_table
from nagaolab.polynomials import IntPolynomial, parse_polynomial


def curve(s):
    return curve_from_poly(parse_polynomial(s))


def test_curve_from_poly_genus_and_bad_primes():
    c = curve("x^3+x")
    assert c.genus == 1
    assert [p for p in primes_in(2, 100) if p in c.bad_primes] == [2]  # disc = -4
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


@given(
    st.integers(3, 6).flatmap(lambda d: st.lists(st.integers(-100, 100), min_size=d, max_size=d)),
    st.integers(1, 100),
)
def test_bad_primes_match_sympy(low, lead):
    """p < 400 is bad iff p = 2, p | lead(f), or f mod p has a repeated factor
    (sympy's squarefree factorization over F_p; its ``is_sqf`` is wrong there)."""
    F = sympy.Poly([lead, *reversed(low)], sympy.Symbol("x"))
    if F.discriminant() == 0:
        return
    bad = hyperelliptic_bad_primes(IntPolynomial((*low, lead)))
    for p in primes_in(2, 400):
        want = p == 2 or lead % p == 0 or any(k > 1 for _, k in F.set_modulus(p).sqf_list()[1])
        assert (p in bad) == want, p


def test_trace_elliptic_known():
    c = curve("x^3+x")
    # #E(F_3) = #E(F_5) = 4; the bad prime 2 is never swept
    assert list(sweep_traces([c.f], good_primes(c.bad_primes, 5))) == [(3, (0,)), (5, (2,))]


def test_trace_genus2_known():
    c = curve("x^5-x")
    assert hyperelliptic_trace(c.f, 3) == 0  # x^5 = x for all x mod 3
    assert hyperelliptic_trace(curve("x^5+1").f, 7) == 0  # x -> x^5 bijective mod 7
    assert good_primes(c.bad_primes, 7) == [3, 5, 7]  # disc = -2^8: only 2 is bad


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
            assert hyperelliptic_trace(f, p) == trace_oracle_exhaustive(c, p).a, (f, p)


def test_weil_bounds_on_sweeps():
    for s, g in (("x^3+x+1", 1), ("x^5-x+1", 2), ("x^6+1", 2)):
        c = curve(s)
        for p, (a,) in sweep_traces([c.f], good_primes(c.bad_primes, 2000)):
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
        assert hyperelliptic_trace(twisted, p) == legendre(d, p) * hyperelliptic_trace(f, p)


def test_cm_vanishing_mod4_regression():
    c = curve("x^3+x")
    for p, (a,) in sweep_traces([c.f], good_primes(c.bad_primes, 10**4)):
        assert (a == 0) == (p % 4 == 3)


# -- the character sum -------------------------------------------------------

SMALL_PRIMES = primes_in(3, 2000)
PARITY = ("even terms only", "odd terms only", "mixed", "g(0) = 0", "lead = 0 mod p")


def _chi_sum_oracle(g: IntPolynomial, p: int) -> int:
    """sum_x chi_p(g(x)) by exact evaluation and the scalar character: no table."""
    return sum(legendre(g(x) % p, p) for x in range(p))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.sampled_from([3, 5]), st.sampled_from(SMALL_PRIMES)),
    st.integers(1, 10),
    st.sampled_from(PARITY),
    st.data(),
)
def test_char_sum_matches_scalar_oracle(p, degree, parity, data):
    coeffs = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=degree + 1, max_size=degree + 1))
    coeffs[degree] = coeffs[degree] or 1
    if parity == "even terms only":
        coeffs = [c if i % 2 == 0 else 0 for i, c in enumerate(coeffs)]
    elif parity == "odd terms only":
        coeffs = [c if i % 2 == 1 else 0 for i, c in enumerate(coeffs)]
    elif parity == "g(0) = 0":
        coeffs[0] = 0
    elif parity == "lead = 0 mod p":
        coeffs[degree] = p * data.draw(st.integers(1, 10**4))
    g = IntPolynomial(tuple(coeffs))
    assert char_sum(g, p, residue_table(p)) == _chi_sum_oracle(g, p)


@pytest.mark.parametrize("p", [3, 5])
def test_char_sum_every_small_polynomial(p):
    """Every g of degree <= 4 with coefficients in [0, p): where E + O - p and
    E - O reach -p."""
    tab = residue_table(p)
    for coeffs in itertools.product(range(p), repeat=5):
        g = IntPolynomial(coeffs)
        assert char_sum(g, p, tab) == _chi_sum_oracle(g, p), coeffs


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
    primes = good_primes(reduce(operator.or_, map(hyperelliptic_bad_primes, polys)), 300)
    want = [(p, tuple(_oracle(g, p) for g in polys)) for p in primes]
    with tempfile.TemporaryDirectory() as cache_dir:
        for _ in range(2 if cached else 1):  # cold, then warm from the cache files
            caches = [TraceCache(cache_dir, g) for g in set(polys)] if cached else None
            assert list(sweep_traces(polys, primes, threads, caches)) == want


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("warm", ["alternating", "holes"])
def test_sweep_partly_warm(tmp_path, monkeypatch, warm, threads):
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    polys = [parse_polynomial("x^3+x+1"), parse_polynomial("x^5-x+1")]
    primes = good_primes(hyperelliptic_bad_primes(polys[0]) | hyperelliptic_bad_primes(polys[1]), 150)
    cold = [TraceCache(tmp_path / "cold", g) for g in polys]
    want = list(sweep_traces(polys, primes, 1, cold))
    if warm == "alternating":  # hits and misses alternate inside every block
        held = [range(0, len(primes), 2), range(0, len(primes), 3)]
    else:  # a hole inside the second block, and one across the second and third
        everything = range(len(primes))
        held = [[i for i in everything if not 5 <= i <= 6], [i for i in everything if not 6 <= i <= 10]]
    for k, g in enumerate(polys):
        TraceCache(tmp_path / "warm", g).append([(want[i][0], want[i][1][k]) for i in held[k]])
    misses = sorted((k, p) for k in range(2) for i, p in enumerate(primes) if i not in held[k])

    # Each call appends a line to a file, which forked workers reach too.
    log = tmp_path / "calls.log"
    real = curves_mod.hyperelliptic_trace

    def counted(f, p, table=None):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()},{polys.index(f)},{p}\n")
        return real(f, p, table)

    def calls():
        lines = log.read_text().splitlines() if log.exists() else []
        return [tuple(map(int, line.split(","))) for line in lines]

    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", counted)
    warm_caches = [TraceCache(tmp_path / "warm", g) for g in polys]
    assert list(sweep_traces(polys, primes, threads, warm_caches)) == want
    assert sorted((k, p) for _, k, p in calls()) == misses
    in_process = {pid for pid, _, _ in calls()} == {os.getpid()}
    assert in_process == (threads == 1)  # with 2 threads every trace ran in a worker
    for c_cold, c_warm in zip(cold, warm_caches):
        assert c_warm.path.read_bytes() == c_cold.path.read_bytes()

    def no_pool(*args, **kwargs):
        raise AssertionError("a fully warm sweep started a worker pool")

    monkeypatch.setattr(curves_mod, "_process_pool", no_pool)
    log.unlink()
    full = [TraceCache(tmp_path / "warm", g) for g in polys]
    assert list(sweep_traces(polys, primes, 2, full)) == want
    assert calls() == []


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
    assert first == (primes[0], (hyperelliptic_trace(f, primes[0]),))
    assert len(calls) == 128  # one block


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_weil_violation_raises_before_caching_its_block(tmp_path, monkeypatch, threads):
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(curve_from_poly(f).bad_primes, 100)
    bad_p = primes[5]  # in the second block
    real = curves_mod.hyperelliptic_trace

    def past_weil(g, p, table=None):  # genus 1: a^2 <= 4p
        return math.isqrt(4 * p) + 1 if p == bad_p else real(g, p, table)

    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", past_weil)
    with pytest.raises(AssertionError, match=f"Weil bound violated at p={bad_p}:"):
        list(sweep_traces([f], primes, threads, [TraceCache(tmp_path, f)]))
    assert sorted(TraceCache(tmp_path, f).records) == primes[:4]  # the first block only


def _counted_pools(monkeypatch) -> list[int]:
    """Record the worker count of every pool a sweep builds."""
    sizes = []
    real = curves_mod._process_pool

    def recorded(workers):
        sizes.append(workers)
        return real(workers)

    monkeypatch.setattr(curves_mod, "_process_pool", recorded)
    return sizes


def test_pool_size_is_the_blocks_with_a_miss(tmp_path, monkeypatch):
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(curve_from_poly(f).bad_primes, 200)
    want = list(sweep_traces([f], primes))
    held = [(p, a) for i, (p, (a,)) in enumerate(want) if i not in (1, 9, 10, 30)]  # misses in blocks 0, 2, 7
    TraceCache(tmp_path, f).append(held)
    sizes = _counted_pools(monkeypatch)
    assert list(sweep_traces([f], primes, 8, [TraceCache(tmp_path, f)])) == want
    assert sizes == [3]


@pytest.mark.parametrize("end", ["finished", "closed after one block", "Weil violation"])
def test_no_worker_outlives_a_sweep(end, monkeypatch):
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(curve_from_poly(f).bad_primes, 300)
    sizes = _counted_pools(monkeypatch)
    sweep = sweep_traces([f], primes, 2)
    if end == "finished":
        assert len(list(sweep)) == len(primes)
    elif end == "closed after one block":
        assert next(sweep)[0] == primes[0]
        sweep.close()
    else:
        real = curves_mod.hyperelliptic_trace
        monkeypatch.setattr(
            curves_mod, "hyperelliptic_trace", lambda g, p, t=None: 10**6 if p == primes[9] else real(g, p, t)
        )
        with pytest.raises(AssertionError, match=f"Weil bound violated at p={primes[9]}:"):
            list(sweep)
    assert sizes == [2]
    assert multiprocessing.active_children() == []


def test_genus2_b_bound_violation_raises(monkeypatch):
    f, p = parse_polynomial("x^5-x+1"), 7
    a = hyperelliptic_trace(f, p)
    # b = (a^2 - (p^2 + 1 - #C(F_p^2))) / 2 = 6p + 1: an even numerator, past |b| <= 6p
    monkeypatch.setattr(curves_mod, "_count_fp2", lambda g, q: q * q + 1 - a * a + 2 * (6 * q + 1))
    with pytest.raises(AssertionError, match=f"violated at p={p}: b={6 * p + 1}"):
        genus2_b(f, p, a)


def test_l_polynomial_known():
    c = curve("x^5-x")
    assert genus2_b(c.f, 3, hyperelliptic_trace(c.f, 3)) == -2  # a = 0, #C(F_3)=4, #C(F_9)=6


def test_l_polynomial_functional_equation():
    # Frobenius eigenvalues all of modulus sqrt(p)
    for s in ("x^5-x+1", "x^6+1", "x^5+x"):
        c = curve(s)
        for p in primes_in(3, 200):
            if p in c.bad_primes:
                continue
            a = hyperelliptic_trace(c.f, p)
            b = genus2_b(c.f, p, a)
            roots = np.roots([1, -a, b, -p * a, p * p])
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


def _two_curves(n_max):
    polys = [parse_polynomial("x^3+x+1"), parse_polynomial("x^5-x+1")]
    return polys, good_primes(reduce(operator.or_, map(hyperelliptic_bad_primes, polys)), n_max)


@pytest.mark.parametrize("threads", [1, 2])
def test_fully_warm_sweep_only_reads_its_cache(tmp_path, monkeypatch, threads):
    """Every a_p cached: no block is filled, no residue table is built, no
    pool is started, nothing is appended, and the cache files keep their
    bytes and mtimes."""
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    polys, primes = _two_curves(150)
    want = list(sweep_traces(polys, primes, 1, [TraceCache(tmp_path, g) for g in polys]))
    files = sorted(tmp_path.iterdir())
    before = [(f.read_bytes(), f.stat().st_mtime_ns) for f in files]

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a fully warm sweep called {name}")

        return call

    for name in ("_fill", "residue_table", "_process_pool"):
        monkeypatch.setattr(curves_mod, name, forbidden(name))
    monkeypatch.setattr(TraceCache, "append", forbidden("TraceCache.append"))
    caches = [TraceCache(tmp_path, g) for g in polys]
    assert list(sweep_traces(polys, primes, threads, caches)) == want
    assert [(f.read_bytes(), f.stat().st_mtime_ns) for f in files] == before


@settings(max_examples=12, deadline=None)
@given(st.data(), st.sampled_from([1, 2]))
def test_partly_warm_sweep_matches_the_uncached_one(data, threads):
    """Any subset of the a_p of each curve cached: the rows and the final
    cache bytes are those of a sweep that starts with no cache."""
    polys, primes = _two_curves(150)
    held = [data.draw(st.sets(st.sampled_from(primes)), label=f"cached primes of {g}") for g in polys]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(curves_mod, "_BLOCK", 4)
        want = list(sweep_traces(polys, primes))
        cold = [TraceCache(os.path.join(tmp, "cold"), g) for g in polys]
        assert list(sweep_traces(polys, primes, 1, cold)) == want
        for k, g in enumerate(polys):
            TraceCache(os.path.join(tmp, "warm"), g).append([(p, a[k]) for p, a in want if p in held[k]])
        warm = [TraceCache(os.path.join(tmp, "warm"), g) for g in polys]
        assert list(sweep_traces(polys, primes, threads, warm)) == want
        assert [c.path.read_bytes() for c in warm] == [c.path.read_bytes() for c in cold]
        assert multiprocessing.active_children() == []
