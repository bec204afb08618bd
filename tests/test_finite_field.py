import inspect
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from sympy import isprime

from nagaolab.finite_field import (
    INT32_MAX_P,
    N_HARD_CAP,
    CapExceededError,
    ResidueTable,
    _residue_table,
    int32_ks,
    legendre,
    poly_eval_all_mod,
    primes_in,
    residue_table,
)
from nagaolab.polynomials import IntPolynomial


def test_primes_in_first_primes():
    for lo in (0, 1, 2):
        assert primes_in(lo, 12) == [2, 3, 5, 7, 11]
        assert primes_in(lo, 11) == [2, 3, 5, 7]  # hi prime: excluded
        assert primes_in(lo, 3) == [2]  # hi one past the prime 2
    assert primes_in(3, 14) == [3, 5, 7, 11, 13]  # hi one past the prime 13


def test_primes_in_empty_range():
    assert primes_in(10, 11) == []
    assert primes_in(7, 7) == []
    assert primes_in(100, 50) == []
    for lo in (0, 1):
        assert primes_in(lo, 2) == []  # hi equal to the prime 2
        assert primes_in(lo, lo) == primes_in(lo, 1) == []
    assert primes_in(14, 17) == []  # hi equal to the prime 17


def test_prime_count_to_1e5_against_plain_sieve():
    # independent oracle: a bytearray sieve
    n = 100001
    flags = bytearray([1]) * n
    flags[0] = flags[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    assert sum(flags) == 9592
    assert len(primes_in(2, n)) == 9592


def test_primes_in_segment_boundaries():
    # a range around 2^20 agrees with membership tests
    lo, hi = (1 << 20) - 50, (1 << 20) + 50
    assert primes_in(lo, hi) == [n for n in range(lo, hi) if isprime(n)]


@given(st.integers(0, 5000), st.integers(0, 5000))
def test_primes_in_equals_membership_tests(lo, hi):
    # empty and inverted ranges included: hi <= lo yields []
    assert primes_in(lo, hi) == [n for n in range(lo, hi) if isprime(n)]


def test_prime_counts_to_1e6_and_1e7():
    assert len(primes_in(0, 10**6)) == 78498
    assert len(primes_in(0, 10**7)) == 664579


def test_legendre_zero_convention():
    assert legendre(0, 7) == 0
    assert legendre(14, 7) == 0


def test_legendre_known_values():
    assert legendre(4, 5) == 1
    assert legendre(2, 5) == -1  # squares mod 5 are {1, 4}
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1


def test_legendre_euler_criterion_random():
    # oracle without pow: a nonzero residue is a square iff it is k^2 mod p for
    # some k <= (p-1)/2, as (p-k)^2 = k^2
    rng = random.Random(7)
    primes = [p for p in primes_in(3, 10000)]
    squares = {}
    for _ in range(10**4):
        p = rng.choice(primes)
        if p not in squares:
            squares[p] = {k * k % p for k in range(1, p // 2 + 1)}
        a = rng.randrange(-(10**9), 10**9)
        expected = 0 if a % p == 0 else (1 if a % p in squares[p] else -1)
        assert legendre(a, p) == expected


def test_legendre_periodic_and_balanced():
    for p in (3, 5, 13, 101):
        assert sum(legendre(a, p) for a in range(p)) == 0
        for a in range(p):
            assert legendre(a, p) == legendre(a + 3 * p, p)


@given(st.integers(-500, 500), st.integers(-500, 500), st.sampled_from([3, 5, 7, 11, 13, 97]))
def test_legendre_multiplicative(a, b, p):
    assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


def test_residue_table_small():
    t5 = residue_table(5)
    assert {a for a in range(1, 5) if t5.chi[a] == 1} == {1, 4}
    t3 = residue_table(3)
    assert {a for a in range(1, 3) if t3.chi[a] == 1} == {1}
    assert t5.chi[0] == 0


def test_residue_table_popcount_balance():
    # 46337 is the last prime with int32 squares, 46349 the first with int64
    assert ResidueTable._fields == ("chi", "squares")
    for p in primes_in(3, 1000) + [46337, 46349]:
        tab = residue_table(p)
        assert int(np.count_nonzero(tab.chi == 1)) == (p - 1) // 2
        assert np.unique(tab.squares).size == tab.squares.size == (p - 1) // 2
        assert (tab.chi[tab.squares] == 1).all()
        w = 4 if p <= 46337 else 8
        assert tab.chi.nbytes + tab.squares.nbytes == p + w * ((p - 1) // 2)


def test_shared_int32_ks_are_k_and_k_squared():
    k, k2 = int32_ks()
    assert k.dtype == k2.dtype == np.int32
    assert len(k) == len(k2) == INT32_MAX_P // 2 == 23168
    assert k.tolist() == list(range(1, 23169))
    assert k2.tolist() == [v * v for v in range(1, 23169)]
    for a in (k, k2):
        with pytest.raises(ValueError):
            a[0] = 0
    assert int32_ks()[1] is k2  # built once per process


@pytest.mark.parametrize("p", [3, 5, 32771, 32789, 46337, 46349])
def test_residue_table_squares_are_k_squared_mod_p(p):
    """From the shared k^2 up to INT32_MAX_P, from an int64 arange above."""
    squares = _residue_table(p).squares
    assert squares.dtype == (np.int32 if p <= INT32_MAX_P else np.int64)
    assert squares.tolist() == [k * k % p for k in range(1, (p - 1) // 2 + 1)]


def test_residue_table_matches_legendre_exhaustive():
    for p in primes_in(3, 3000):
        tab = residue_table(p)
        for a in range(p):
            assert tab.chi[a] == legendre(a, p)


def test_residue_table_is_read_only():
    """Every caller at one p gets the same table, so none can write to it."""
    with pytest.raises(ValueError):
        residue_table(5).chi[1] = 0
    with pytest.raises(ValueError):
        residue_table(5).squares[0] = 0
    assert [residue_table(5).chi[a] for a in range(5)] == [legendre(a, 5) for a in range(5)]


def test_residue_table_keeps_only_the_last_table():
    """One table per p, freed once the next p's is built.  The memo sits on
    the private builder, so residue_table stays a plain function that a
    per-call wrapper sees at every call."""
    assert inspect.isfunction(residue_table)
    assert residue_table(101) is residue_table(101)
    old = weakref.ref(residue_table(101).chi)
    assert old() is not None
    residue_table(103)
    assert old() is None


def test_residue_table_cap():
    with pytest.raises(CapExceededError):
        residue_table(N_HARD_CAP + 1)  # raises before it allocates
    with pytest.raises(CapExceededError):
        primes_in(3, N_HARD_CAP + 2)  # raises before it allocates


# On either side of p^4 = 2^63 (55108.5) and p^3 = 2^63 (2097152), and at
# 2^31 - 1, whose square nearly fills an int64: where the lazy reduction in
# poly_eval_all_mod changes how many Horner steps run without a reduction.
@pytest.mark.parametrize("p", [55103, 55109, 2097143, 2097169, 2**31 - 1])
def test_poly_eval_all_mod_exact_at_reduction_thresholds(p):
    assert isprime(p)
    rng = random.Random(p)
    xs = [p - 1, p - 2, 1, 0] + [rng.randrange(p) for _ in range(996)]
    x = np.array(xs, dtype=np.int64)
    for deg in range(3, 11):
        worst = (-1,) * (deg + 1)  # every coefficient p - 1 mod p: the largest bound
        rand = tuple(rng.randint(-(10**9), 10**9) for _ in range(deg)) + (rng.choice([1, -1, 10**9 - 7]),)
        vanishing_top = rand[:-2] + (p, -2 * p)  # the top two coefficients are 0 mod p
        for f in (worst, rand, vanishing_top):
            want = [IntPolynomial(f)(v) % p for v in xs]
            assert poly_eval_all_mod(f, p, x).tolist() == want, (deg, f)
            if p < 2**17:
                assert poly_eval_all_mod(f, p, np.arange(p, dtype=np.int64))[x].tolist() == want, (deg, f)
