import itertools
import math
import multiprocessing
import operator
import os
import random
import tempfile
from collections import Counter
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import nagaolab.curves as curves_mod
import nagaolab.finite_field as ff_mod
from nagaolab.cache import HEADER, CacheCorruptError, TraceCache, cache_path, fingerprint
from nagaolab.curves import (
    MAX_THREADS,
    BadPrimeError,
    CapExceededError,
    CurveError,
    CurveSpec,
    TraceRecord,
    curve_from_poly,
    genus2_b,
    good_primes,
    hyperelliptic_bad_primes,
    hyperelliptic_trace,
    normalized_angle,
    sweep_traces,
    trace_oracle_exhaustive,
    traces_at,
)
from nagaolab.finite_field import char_sum, char_sums, legendre, poly_eval_all_mod, primes_in
from nagaolab.polynomials import IntPolynomial, parse_polynomial
from oracles import count_fp2_direct, genus1_trace_mod_p, genus2_trace_mod_p


def curve(s):
    return curve_from_poly(parse_polynomial(s))


# For the tests whose examples are checked by an exhaustive count at many
# primes: a broken kernel fails every example, and shrinking one through
# those counts took minutes.
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


def test_curve_from_poly_genus_and_bad_primes():
    c = curve("x^3+x")
    assert c.genus == 1
    assert [p for p in primes_in(2, 100) if p in c.bad_primes] == [2]  # disc = -4
    assert curve("x^5-x+1").genus == 2
    assert curve("x^4+x+1").genus == 1
    assert curve("x^6+1").genus == 2
    assert [parse_polynomial(f"x^{d}+1").genus for d in range(1, 11)] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    for d in range(3, 7):
        assert curve(f"x^{d}+1").genus == parse_polynomial(f"x^{d}+1").genus


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


def squarefree(lo, hi):
    """Squarefree polynomials of degree lo..hi, coefficients in [-20, 20], lead in [-30, 30]."""
    low = st.integers(lo, hi).flatmap(lambda d: st.lists(st.integers(-20, 20), min_size=d, max_size=d))
    lead = st.integers(-30, 30).filter(bool)
    return st.builds(lambda c, a: IntPolynomial((*c, a)), low, lead).filter(IntPolynomial.is_squarefree)


@settings(max_examples=60, deadline=None)
@given(squarefree(3, 6), squarefree(1, 10), squarefree(3, 6))
def test_bad_primes_reason_of_a_union(f, D, E):
    """The union of three curves' bad primes holds p <= 500 iff p = 2 or p
    divides a leading coefficient or a discriminant, and its ``reason`` is the
    first of those that holds."""
    polys = (f, D, E)
    discs = [g.discriminant() for g in polys]
    bad = hyperelliptic_bad_primes(f) | hyperelliptic_bad_primes(D)
    bad = bad | hyperelliptic_bad_primes(E)
    for p in primes_in(2, 501):
        lead = any(g.lead % p == 0 for g in polys)
        assert (p in bad) == (p == 2 or lead or any(d % p == 0 for d in discs)), p
        if p in bad:
            assert bad.reason(p) == ("p=2" if p == 2 else "lead" if lead else "disc"), p


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


def test_oracle_refuses_large_and_bad_primes():
    c = curve("x^3+x+1")  # discriminant -31
    with pytest.raises(CapExceededError):
        trace_oracle_exhaustive(c, 10007)
    with pytest.raises(BadPrimeError):
        trace_oracle_exhaustive(c, 31)


def _random_squarefree(rng, degree):
    while True:
        coeffs = [rng.randrange(-8, 9) for _ in range(degree)] + [rng.choice([1, -1, 2, 3])]
        f = IntPolynomial(tuple(coeffs))
        if f.degree == degree and f.is_squarefree():
            return f


def test_oracle_equivalence_random_curves():
    """a_p of y^2 = f, with its points at infinity, equals an exhaustive count
    for f of every degree 1..10 (genus 0..4): every --f, and every nagao or
    factor-check D evaluated alone, at every good p < 400."""
    rng = random.Random(2024)
    corpus = [_random_squarefree(rng, d) for d in (3, 3, 3, 4, 5, 5, 5, 6, 6, 6, 1, 2, 7, 8, 9, 10)]
    for f in corpus:
        for p in good_primes(hyperelliptic_bad_primes(f), 399):
            assert hyperelliptic_trace(f, p) == _oracle(f, p), (f, p)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda g: st.sampled_from([2 * g + 1, 2 * g + 2])),
    st.integers(-9, 9),
    st.sampled_from(primes_in(3, 2000)),
    st.sampled_from([1, -1]),
)
def test_weil_boundary_in_the_sweep_and_the_cache(degree, c0, p, sign):
    """The largest |a| with a^2 <= 4 g^2 p passes the sweep's check and loads
    from a cache file; one more raises in the sweep and quarantines the file."""
    f = IntPolynomial((c0,) + (0,) * (degree - 1) + (1,))
    g = f.genus
    inside = sign * math.isqrt(4 * g * g * p)
    outside = inside + sign

    def sweep(a):  # the sweep's own check, on a value the kernel is patched to give
        with mock.patch.object(curves_mod, "traces_at", lambda fs, q: [a]):
            return list(sweep_traces([f], [p]))

    def load(a, cache_dir):
        cache_path(cache_dir, f).write_bytes(f"{HEADER}\n{fingerprint(f)}\n{p},{a}\n".encode())
        return TraceCache(cache_dir, f).records

    assert sweep(inside) == [(p, (inside,))]
    with pytest.raises(AssertionError, match=f"Weil bound violated at p={p}: a={outside}, genus {g} "):
        sweep(outside)
    with tempfile.TemporaryDirectory() as cache_dir:
        assert load(inside, cache_dir) == {p: inside}
    with tempfile.TemporaryDirectory() as cache_dir:
        with pytest.raises(CacheCorruptError, match="outside the Weil bound"):
            load(outside, cache_dir)
        assert [q.name for q in Path(cache_dir).iterdir()] == [cache_path(cache_dir, f).name + ".corrupt"]


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
    assert char_sum(g, p) == _chi_sum_oracle(g, p)


@pytest.mark.parametrize("p", [3, 5])
def test_char_sum_every_small_polynomial(p):
    """Every g of degree <= 4 with coefficients in [0, p): where E + O - p and
    E - O reach -p."""
    for coeffs in itertools.product(range(p), repeat=5):
        g = IntPolynomial(coeffs)
        assert char_sum(g, p) == _chi_sum_oracle(g, p), coeffs


# 3 and 1 mod 4: the first primes whose (p - 1)/2 squares take two chunks.
TWO_CHUNK_PRIMES = [32771, 32789]
# 1 and 3 mod 4: the first primes on int64 lanes.
INT64_PRIMES = [46349, 46351]


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(
    st.one_of(st.sampled_from([3, 5, *TWO_CHUNK_PRIMES, *INT64_PRIMES]), st.sampled_from(SMALL_PRIMES)),
    st.integers(1, 6),
    st.sampled_from(PARITY),
    st.data(),
)
def test_twisted_chunk_sums_match_scalar_oracle(p, degree, parity, data):
    """The twisted sum T = sum_{u != 0} chi(u) chi(h(u)) of ``char_sums``,
    at p = 1 and 3 mod 4, past one CHUNK of squares (p = 32771, 32789) and
    on int64 lanes (p = 46349, 46351)."""
    assert all((q - 1) // 2 > ff_mod.CHUNK for q in TWO_CHUNK_PRIMES)  # else a larger CHUNK drops the coverage
    assert all(q > ff_mod.INT32_MAX_P for q in INT64_PRIMES)
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
    h = IntPolynomial(tuple(coeffs))
    s, t = char_sums(h, p, True)
    assert s == _chi_sum_oracle(h, p)
    assert t == sum(legendre(u, p) * legendre(h(u) % p, p) for u in range(1, p))
    assert s + t == _chi_sum_oracle(IntPolynomial(tuple(c for a in h.coeffs for c in (a, 0))), p)


# The primes either side of 2^15 and of the end of the int32 lanes: 46337 is
# the last prime whose residue table has int32 squares, 46349 the first with
# int64 ones.
LANE_PRIMES = [32749, 32771, 46337, 46349]


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(st.sampled_from(LANE_PRIMES), st.integers(1, 10), st.data())
def test_chunk_sums_across_the_lane_boundary(p, degree, data):
    """Coefficients at the top of [0, p), where the Horner values of the int32
    lanes come closest to 2^31 - 1."""
    coeff = st.one_of(st.sampled_from([0, 1, -1, p - 1, p - 2]), st.integers(-(10**6), 10**6))
    coeffs = data.draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
    coeffs[degree] = coeffs[degree] or 1
    g = IntPolynomial(tuple(coeffs))
    chi_g = [legendre(g(x) % p, p) for x in range(p)]
    s, t = char_sums(g, p, True)
    assert s == sum(chi_g)
    assert t == sum(legendre(u, p) * chi_g[u] for u in range(1, p))


def test_poly_eval_int32_at_the_last_int32_prime():
    """Every coefficient p - 1 at p = 46337: each Horner step reaches
    p (p - 1), just under 2^31, before a reduction."""
    p = 46337
    x = np.arange(p, dtype=np.int32)
    for degree in range(1, 11):
        coeffs = (p - 1,) * (degree + 1)
        got = poly_eval_all_mod(coeffs, p, x)
        assert got.dtype == np.int32
        want = [reduce(lambda v, c: (v * u + c) % p, reversed(coeffs)) for u in range(p)]
        assert got.tolist() == want, degree


@pytest.mark.parametrize("p, dtype", [(46337, np.int32), (46349, np.int64)])
def test_poly_eval_monic_starts(p, dtype):
    """A top coefficient 1 is not multiplied by: Horner starts from x + c, or
    from x * x + c' after a 0.  Checked with the next coefficient 0, nonzero
    and p - 1 (and 2p + 1 and -p, which reduce to 1 and 0), on either lane."""
    rng = random.Random(p)
    xs = [0, 1, 2, p - 2, p - 1] + [rng.randrange(p) for _ in range(495)]
    x = np.array(xs, dtype=dtype)
    tails = [(), (0,), (p - 1,), (0, p - 1), (0, 0, p - 1), (5, p - 1, p - 1)]
    for top in (1, 2 * p + 1):
        for c in (0, -p, 7, p - 1):
            for tail in tails:
                coeffs = (*reversed(tail), c, top)  # ascending: constant first
                got = poly_eval_all_mod(coeffs, p, x)
                assert got.dtype == dtype
                want = [reduce(lambda v, a: (v * u + a) % p, reversed(coeffs)) for u in xs]
                assert got.tolist() == want, coeffs
    fresh = poly_eval_all_mod((0, 1), p, x)  # v = x + 0: a new array, which callers write to
    assert not np.shares_memory(fresh, x)


def test_residue_tables_across_the_lane_boundary_count_one_per_prime():
    """Sweeping primes either side of INT32_MAX_P builds one table per prime
    and the shared k and k^2 once."""
    g = parse_polynomial("x^5-x+1")
    primes = [p for p in primes_in(46300, 46400) if p not in hyperelliptic_bad_primes(g)]
    assert min(primes) <= ff_mod.INT32_MAX_P < max(primes)
    want = [hyperelliptic_trace(g, p) for p in primes]
    ff_mod._residue_table.cache_clear()
    ff_mod.int32_ks.cache_clear()
    assert [a for _, (a,) in sweep_traces([g], primes)] == want
    assert ff_mod._residue_table.cache_info().misses == len(primes)
    assert ff_mod.int32_ks.cache_info().misses == 1


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
    spec = CurveSpec(f, f.genus, hyperelliptic_bad_primes(f))
    return trace_oracle_exhaustive(spec, p).a


def _opener(caches):
    """The ``open_cache`` of ``sweep_traces`` that hands out these caches, matched by curve."""
    return {c.poly: c for c in caches or ()}.get


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
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
            assert list(sweep_traces(polys, primes, threads, _opener(caches))) == want


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("warm", ["alternating", "holes"])
def test_sweep_partly_warm(tmp_path, monkeypatch, warm, threads):
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    polys = [parse_polynomial("x^3+x+1"), parse_polynomial("x^5-x+1")]
    primes = good_primes(hyperelliptic_bad_primes(polys[0]) | hyperelliptic_bad_primes(polys[1]), 150)
    cold = [TraceCache(tmp_path / "cold", g) for g in polys]
    want = list(sweep_traces(polys, primes, 1, _opener(cold)))
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
    real = curves_mod.traces_at

    def counted(fs, p):
        with open(log, "a") as fh:
            fh.writelines(f"{os.getpid()},{polys.index(f)},{p}\n" for f in fs)
        return real(fs, p)

    def calls():
        lines = log.read_text().splitlines() if log.exists() else []
        return [tuple(map(int, line.split(","))) for line in lines]

    monkeypatch.setattr(curves_mod, "traces_at", counted)
    warm_caches = [TraceCache(tmp_path / "warm", g) for g in polys]
    assert list(sweep_traces(polys, primes, threads, _opener(warm_caches))) == want
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
    assert list(sweep_traces(polys, primes, 2, _opener(full))) == want
    assert calls() == []


def test_sweep_serial_is_lazy(monkeypatch):
    calls = []
    real = curves_mod.traces_at

    def counted(fs, p):
        calls.extend([p] * len(fs))
        return real(fs, p)

    monkeypatch.setattr(curves_mod, "traces_at", counted)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(curve_from_poly(f).bad_primes, 3000)
    assert len(primes) > 2 * 128
    first = next(iter(sweep_traces([f], primes)))
    assert len(calls) == 128  # one block
    assert first == (primes[0], (hyperelliptic_trace(f, primes[0]),))


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_weil_violation_raises_before_caching_its_block(tmp_path, monkeypatch, threads):
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(curve_from_poly(f).bad_primes, 100)
    bad_p = primes[5]  # in the second block
    real = curves_mod.traces_at

    def past_weil(fs, p):  # genus 1: a^2 <= 4p
        return [math.isqrt(4 * p) + 1] * len(fs) if p == bad_p else real(fs, p)

    monkeypatch.setattr(curves_mod, "traces_at", past_weil)
    with pytest.raises(AssertionError, match=f"Weil bound violated at p={bad_p}:"):
        list(sweep_traces([f], primes, threads, _opener([TraceCache(tmp_path, f)])))
    assert sorted(TraceCache(tmp_path, f).records) == primes[:4]  # the first block only


def _squared(h: IntPolynomial) -> IntPolynomial:
    """D(T) = h(T^2)."""
    return IntPolynomial(tuple(c for a in h.coeffs for c in (a, 0)))


@st.composite
def halves(draw):
    """A squarefree h of degree 2..5 with D(T) = h(T^2) squarefree; about half
    the draws have no odd term (and so even degree)."""
    even_only = draw(st.booleans())
    degree = draw(st.sampled_from([2, 4] if even_only else [2, 3, 4, 5]))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree))
    if even_only:
        coeffs = [c if i % 2 == 0 else 0 for i, c in enumerate(coeffs)]
    h = IntPolynomial((*coeffs, draw(st.sampled_from([1, -1, 2, 3]))))
    assume(h.is_squarefree() and _squared(h).is_squarefree())
    return h


@settings(max_examples=12, deadline=None, phases=NO_SHRINK)
@given(halves(), st.sampled_from([1, 2]), st.sampled_from(["none", "D", "h"]))
def test_even_polynomial_from_its_half_matches_oracle(h, threads, held):
    """D = h(T^2) swept with its half h, in either order, or each alone: the
    same values, equal to the exhaustive count; with no cache, with D's values
    cached at every other prime, or with h's."""
    D = _squared(h)
    primes = good_primes(hyperelliptic_bad_primes(h) | hyperelliptic_bad_primes(D), 300)
    want = {p: (_oracle(D, p), _oracle(h, p)) for p in primes}
    with tempfile.TemporaryDirectory() as cache_dir:
        caches = []
        if held != "none":
            g = D if held == "D" else h
            caches = [TraceCache(cache_dir, g)]
            caches[0].append([(p, want[p][held == "h"]) for p in primes[::2]])
        for polys in ([D, h], [h, D], [D], [h]):
            got = list(sweep_traces(polys, primes, threads, _opener(caches)))
            assert got == [(p, tuple(want[p][g is h] for g in polys)) for p in primes], polys


def test_chain_of_halves_matches_oracle():
    """k, h = k(x^2) and g = h(x^2) in one sweep: h reads its sum from k, and g,
    whose half h is served itself, computes on its own."""
    k = parse_polynomial("x^3+x+1")
    h, g = _squared(k), _squared(_squared(k))
    primes = good_primes(reduce(operator.or_, map(hyperelliptic_bad_primes, (k, h, g))), 200)
    want = [(p, tuple(_oracle(c, p) for c in (g, h, k))) for p in primes]
    assert list(sweep_traces([g, h, k], primes)) == want


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(halves(), st.data())
def test_traces_at_matches_oracle_with_one_loop_per_base(h, data):
    """traces_at on a shuffled subset of {h, h(x^2), h(x^4), a cubic}, one of
    them possibly twice: every value is the exhaustive count, and each base
    runs its chunk loop once, twisted exactly when a polynomial reads its
    sum from it.  An even g reads its half's loop unless the half reads
    its own from its half."""
    h2 = _squared(h)
    h4 = _squared(h2)
    cubic = parse_polynomial("x^3-x+1")
    assume(h != cubic)
    chosen = data.draw(st.lists(st.sampled_from([h, h2, h4, cubic]), min_size=1, max_size=4, unique=True))
    polys = data.draw(st.permutations(chosen + data.draw(st.lists(st.sampled_from(chosen), max_size=1))))
    derived = {}  # g -> the half whose loop serves it
    if h in polys and h2 in polys:
        derived[h2] = h
    elif h2 in polys and h4 in polys:
        derived[h4] = h2
    want_loops = Counter((b, b in derived.values()) for b in set(polys) if b not in derived)
    primes = good_primes(reduce(operator.or_, map(hyperelliptic_bad_primes, polys)), 300)
    real = char_sums
    for p in data.draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3, unique=True)):
        loops = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curves_mod, "char_sums", lambda g, q, tw: loops.append((g, tw)) or real(g, q, tw))
            got = traces_at(polys, p)
        assert got == [_oracle(g, p) for g in polys], (polys, p)
        assert Counter(loops) == want_loops


def _root_count(g: IntPolynomial, p: int) -> int:
    """r_p = deg gcd(g, x^p - x) over F_p, the number of roots of g in F_p,
    for a g whose leading coefficient is a unit mod p."""

    def reduce_mod(a, b):  # a mod b, coefficient lists constant first
        a = [c % p for c in a]
        inv = pow(b[-1], -1, p)
        while True:
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                return a
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p

    def mul_mod(a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return reduce_mod(prod, m)

    m = [c % p for c in g.coeffs]
    power = [1]  # x^p mod g, by square and multiply
    for bit in bin(p)[2:]:
        power = mul_mod(power, power)
        if bit == "1":
            power = reduce_mod([0, *power], m)
    power += [0] * (2 - len(power))
    power[1] -= 1
    a, b = m, reduce_mod(power, m)
    while b:
        a, b = b, reduce_mod(a, b)
    return len(a) - 1


def test_root_count_matches_brute_force():
    rng = random.Random(7)
    for _ in range(30):
        g = _random_squarefree(rng, rng.choice([3, 4, 5, 6, 10]))
        for p in (3, 5, 7, 11, 101):
            if g.lead % p:
                assert _root_count(g, p) == sum(g(x) % p == 0 for x in range(p)), (g, p)


def test_even_polynomial_from_its_half_past_the_oracle():
    """At random good primes in [10^4, 10^6], beyond the exhaustive oracle:
    a_p(g) for g = h(x^2) read from h's loop equals g's own pass, and every
    a_p = r_p + [deg odd] (mod 2).  Over each x, y^2 = g(x) has one point at a
    root and 0 or 2 elsewhere; infinity has 1 point for odd degree and
    1 + chi_p(lead) for even, and p + 1 is even.  Parity sees a lost
    chi_p(lead g); the own pass sees a wrong T, which moves a by 2T."""
    rng = random.Random(16)
    for h in (parse_polynomial("x^5+2*x^4+3*x^3+3*x^2+2*x+1"), parse_polynomial("x^3+x+1")):
        g = _squared(h)
        bad = hyperelliptic_bad_primes(h) | hyperelliptic_bad_primes(g)
        primes = set()
        while len(primes) < 9:
            p = sympy.nextprime(rng.randrange(10**4, 10**6))
            if p not in bad:
                primes.add(p)
        for p in sorted(primes):
            a_g, a_h = traces_at([g, h], p)
            assert a_g == traces_at([g], p)[0], (g, p)
            for f, a in ((g, a_g), (h, a_h)):
                assert (a - _root_count(f, p) - f.degree) % 2 == 0, (f, p, a)


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(squarefree_curves, st.integers(10**4, 9999991).map(lambda n: sympy.nextprime(n - 1)))
def test_trace_parity_and_weil_bound_up_to_the_cap(f, p):
    """At a good prime in [10^4, 9999991], past the exhaustive oracle and up to
    N_HARD_CAP: a_p = r_p + [deg f odd] (mod 2), as in the test above, and
    a_p^2 <= 4 g^2 p.  A k off by one in the chunk loop's odd part moves
    the values at the nonzero x."""
    assume(p not in hyperelliptic_bad_primes(f))
    a = traces_at([f], p)[0]
    assert (a - _root_count(f, p) - f.degree) % 2 == 0, (f, p, a)
    genus = (f.degree - 1) // 2
    assert a * a <= 4 * genus * genus * p, (f, p, a)


@st.composite
def split_halves(draw):
    """A squarefree h of degree 2 or 3 with h(0) != 0, so that g = h(x^2), an
    even quartic or sextic, is squarefree too."""
    degree = draw(st.sampled_from([2, 3]))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree))
    h = IntPolynomial((*coeffs, draw(st.sampled_from([1, -1, 2, 3]))))
    assume(h(0) != 0 and h.is_squarefree())
    return h


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(split_halves(), st.lists(st.integers(10**4, 10**5).map(lambda n: sympy.nextprime(n - 1)), max_size=3))
def test_even_polynomial_splits_into_two_lower_genus_curves(h, large):
    """g = h(x^2) has a_p(g) = a_p(h) + a_p(x h) at every good p of g: from
    sum_x chi(h(x^2)) = sum_u chi(h(u)) (1 + chi(u)), and exactly one of h and
    x h has even degree, with the lead of g.  Each value is its own
    ``hyperelliptic_trace`` call, so no call sees g together with its half;
    below 300, a_p(g) is also the exhaustive count."""
    g = _squared(h)
    xh = IntPolynomial((0, *h.coeffs))
    bad = hyperelliptic_bad_primes(g)
    for p in [*primes_in(3, 2000), *large]:
        if p in bad:
            continue
        a_g = hyperelliptic_trace(g, p)
        assert a_g == hyperelliptic_trace(h, p) + hyperelliptic_trace(xh, p), (h, p)
        if p < 300:
            assert a_g == _oracle(g, p), (g, p)


# Good primes past the exhaustive oracle; 2x^4-3x^2+x+7 has a lead that is
# not a square mod 50021 and is one mod 199999.
GENUS1_PAST_THE_ORACLE = [
    ("x^3+x+1", 10007),
    ("x^3-2*x+5", 100003),
    ("x^4+x+1", 199999),
    ("2*x^4-3*x^2+x+7", 50021),
    ("2*x^4-3*x^2+x+7", 199999),
    ("x^3+x+1", 199999),
]


@pytest.mark.parametrize("f, p", GENUS1_PAST_THE_ORACLE)
def test_genus1_trace_is_the_hasse_invariant_past_the_oracle(f, p):
    """a_p of a cubic or quartic equals the symmetric residue of the
    coefficient of x^(p-1) in f^((p-1)/2) mod p (``oracles.genus1_trace_mod_p``),
    which fixes a_p outright, where parity and the Weil bound would pass a
    negated a_p."""
    f = parse_polynomial(f)
    assert p not in hyperelliptic_bad_primes(f)
    assert hyperelliptic_trace(f, p) == genus1_trace_mod_p(f, p)


# Good primes past the exhaustive oracle; the sextic's lead 2 is a square mod
# 10009 and not one mod 50021 or 100003.
GENUS2_PAST_THE_ORACLE = [
    ("x^5-x+1", 10007),
    ("x^5-x+1", 100003),
    ("x^5-x+1", 199999),
    ("2*x^6+3*x^2+x+5", 10009),
    ("2*x^6+3*x^2+x+5", 50021),
    ("2*x^6+3*x^2+x+5", 100003),
]


@pytest.mark.parametrize("f, p", GENUS2_PAST_THE_ORACLE)
def test_genus2_trace_is_the_hasse_witt_trace_past_the_oracle(f, p):
    """a_p of a quintic or sextic equals the symmetric residue of the trace
    c_(p-1) + c_(2p-2) of the Hasse-Witt matrix of f^((p-1)/2) mod p
    (``oracles.genus2_trace_mod_p``), which fixes a_p for p > 64, where
    parity and the Weil bound would pass a negated a_p."""
    f = parse_polynomial(f)
    assert p not in hyperelliptic_bad_primes(f)
    assert hyperelliptic_trace(f, p) == genus2_trace_mod_p(f, p)


@pytest.mark.parametrize("threads", [1, 2])
def test_even_polynomial_swept_with_its_half_evaluates_no_squares_path(tmp_path, monkeypatch, threads):
    """The Peterson D of a quintic f with f(0) = 1 and sigma = 1/x is f(T^2).
    Swept with f, D's own squares path (its even coefficients at the squares)
    is never evaluated, and its values are those of D swept alone."""
    f, D = parse_polynomial("x^5+2*x^4+3*x^3+3*x^2+2*x+1"), PETERSON_D
    assert D == _squared(f)
    primes = good_primes(hyperelliptic_bad_primes(f) | hyperelliptic_bad_primes(D), 2000)
    # Each evaluation appends its coefficients to a file, which forked workers reach too.
    log = tmp_path / "evals.log"
    real = ff_mod.poly_eval_all_mod

    def logged(coeffs, p, x):
        with open(log, "a") as fh:
            fh.write(f"{tuple(coeffs)}\n")
        return real(coeffs, p, x)

    monkeypatch.setattr(ff_mod, "poly_eval_all_mod", logged)
    paired = list(sweep_traces([D, f], primes, threads))
    evaluated = set(log.read_text().splitlines())
    assert str(D.coeffs[::2]) not in evaluated and str(f.coeffs[::2]) in evaluated
    alone = list(sweep_traces([D], primes, threads))
    assert str(D.coeffs[::2]) in set(log.read_text().splitlines())  # the probe sees it
    assert [(p, a_D) for p, (a_D, _) in paired] == [(p, a) for p, (a,) in alone]
    assert all(a_D == 2 * a_f for _, (a_D, a_f) in paired)


@pytest.mark.parametrize("threads", [1, 2])
def test_weil_guard_covers_the_value_derived_from_the_half(tmp_path, monkeypatch, threads):
    """A wrong twisted sum of f at one prime makes D's derived a_p fail the
    Weil bound before that block reaches either cache."""
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    f, D = parse_polynomial("x^5+2*x^4+3*x^3+3*x^2+2*x+1"), PETERSON_D
    primes = good_primes(hyperelliptic_bad_primes(f) | hyperelliptic_bad_primes(D), 300)
    bad_p = primes[5]  # in the second block
    real = char_sums

    def corrupted(g, p, twisted):
        s, t = real(g, p, twisted)
        return (s, t + 100 * p) if twisted and p == bad_p else (s, t)

    monkeypatch.setattr(curves_mod, "char_sums", corrupted)
    caches = [TraceCache(tmp_path, g) for g in (D, f)]
    with pytest.raises(AssertionError, match=f"Weil bound violated at p={bad_p}: a=-?\\d+, genus 4 "):
        list(sweep_traces([D, f], primes, threads, _opener(caches)))
    for g in (D, f):
        assert sorted(TraceCache(tmp_path, g).records) == primes[:4]  # the first block only


def test_sweep_builds_one_residue_table_per_prime_with_a_miss(tmp_path):
    """One block of [D, f, x^3+x+1] with D cached at every other prime: where
    D misses it comes from f's loop, where it is cached f and the cubic run
    two loops, and either way the chunk loops at p share one table."""
    f, D, cubic = parse_polynomial("x^5+2*x^4+3*x^3+3*x^2+2*x+1"), PETERSON_D, parse_polynomial("x^3+x+1")
    polys = [D, f, cubic]
    primes = good_primes(reduce(operator.or_, map(hyperelliptic_bad_primes, polys)), 700)
    assert len(primes) <= curves_mod._BLOCK
    want = list(sweep_traces(polys, primes))
    TraceCache(tmp_path, D).append([(p, a_D) for p, (a_D, _, _) in want[::2]])
    ff_mod._residue_table.cache_clear()
    assert list(sweep_traces(polys, primes, 1, _opener([TraceCache(tmp_path, D)]))) == want
    assert ff_mod._residue_table.cache_info().misses == len(primes)


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
    assert list(sweep_traces([f], primes, 8, _opener([TraceCache(tmp_path, f)]))) == want
    assert sizes == [3]


@pytest.mark.parametrize("cache", ["cold, one block", "warm, misses in one block"])
def test_two_thread_sweep_with_one_block_to_compute_builds_no_pool(tmp_path, monkeypatch, cache):
    """Misses in one block only, cold or warm: a two-thread sweep fills it in
    this process, builds no pool and yields the one-thread tuples."""
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(curve_from_poly(f).bad_primes, 200)
    if cache == "cold, one block":
        primes = primes[:4]
    want = list(sweep_traces([f], primes))
    if cache == "warm, misses in one block":
        TraceCache(tmp_path, f).append([(p, a) for i, (p, (a,)) in enumerate(want) if i not in (5, 6)])
    sizes = _counted_pools(monkeypatch)
    assert list(sweep_traces([f], primes, 2, _opener([TraceCache(tmp_path, f)]))) == want
    assert sizes == []
    assert sorted(TraceCache(tmp_path, f).records) == primes


@pytest.mark.parametrize("threads", [MAX_THREADS + 1, 10**5])
def test_sweep_refuses_threads_above_the_cap_before_any_work(threads, monkeypatch):
    """Above MAX_THREADS a library sweep raises before it opens a cache or
    builds a pool; at the cap it goes on to build its pool."""

    def refused(*args):
        raise AssertionError("called above the thread cap")

    monkeypatch.setattr(curves_mod, "_process_pool", refused)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(hyperelliptic_bad_primes(f), 10**4)
    with pytest.raises(CapExceededError, match=f"exceeds the cap {MAX_THREADS}"):
        next(sweep_traces([f], primes, threads, refused))
    with pytest.raises(AssertionError, match="called above the thread cap"):
        next(sweep_traces([f], primes, MAX_THREADS))


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
        real = curves_mod.traces_at
        monkeypatch.setattr(
            curves_mod, "traces_at", lambda fs, p: [10**6] * len(fs) if p == primes[9] else real(fs, p)
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


# Quintics and sextics, monic and not, and every prime below 300 for the count over F_{p^2}.
GENUS2 = st.builds(
    lambda c, a: IntPolynomial((*c, a)),
    st.integers(5, 6).flatmap(lambda d: st.lists(st.integers(-5, 5), min_size=d, max_size=d)),
    st.sampled_from([1, -1, 2, 3]),
).filter(IntPolynomial.is_squarefree)
FP2_PRIMES = primes_in(3, 300)


@settings(max_examples=50, deadline=None)
@given(GENUS2, st.lists(st.sampled_from(FP2_PRIMES), max_size=3))
def test_count_fp2_matches_direct_count(f, drawn):
    """#C(F_{p^2}) from chi-sums over F_p equals the count over F_p[u]/(u^2 - n),
    at p = 3, 5 and the drawn primes where f has good reduction."""
    bad = hyperelliptic_bad_primes(f)
    for p in sorted({3, 5, *drawn}):
        if p not in bad:
            assert curves_mod._count_fp2(f, p) == count_fp2_direct(f, p), p


def test_normalized_angle():
    assert normalized_angle(TraceRecord(7, 0)) == pytest.approx(math.pi / 2)
    assert normalized_angle(TraceRecord(5, 2)) == pytest.approx(1.1071487, abs=1e-6)
    assert normalized_angle((5, 2)) == normalized_angle(TraceRecord(5, 2))  # a plain pair
    with pytest.raises(AssertionError):
        normalized_angle(TraceRecord(5, 5))


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
    want = list(sweep_traces(polys, primes, 1, _opener([TraceCache(tmp_path, g) for g in polys])))
    files = sorted(tmp_path.iterdir())
    before = [(f.read_bytes(), f.stat().st_mtime_ns) for f in files]

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a fully warm sweep called {name}")

        return call

    for mod, name in ((curves_mod, "_fill"), (ff_mod, "residue_table"), (curves_mod, "_process_pool")):
        monkeypatch.setattr(mod, name, forbidden(name))
    monkeypatch.setattr(TraceCache, "append", forbidden("TraceCache.append"))
    caches = [TraceCache(tmp_path, g) for g in polys]
    assert list(sweep_traces(polys, primes, threads, _opener(caches))) == want
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
        assert list(sweep_traces(polys, primes, 1, _opener(cold))) == want
        for k, g in enumerate(polys):
            TraceCache(os.path.join(tmp, "warm"), g).append([(p, a[k]) for p, a in want if p in held[k]])
        warm = [TraceCache(os.path.join(tmp, "warm"), g) for g in polys]
        assert list(sweep_traces(polys, primes, threads, _opener(warm))) == want
        assert [c.path.read_bytes() for c in warm] == [c.path.read_bytes() for c in cold]
        assert multiprocessing.active_children() == []
