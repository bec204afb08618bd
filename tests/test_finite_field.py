import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nagaolab.finite_field import (
    TableTooLargeError,
    is_prime,
    legendre,
    poly_eval_all_mod,
    poly_eval_mod,
    primes_in,
    residue_table,
)


def test_primes_in_first_primes():
    assert primes_in(2, 12) == [2, 3, 5, 7, 11]


def test_primes_in_empty_range():
    assert primes_in(10, 11) == []
    assert primes_in(7, 7) == []
    assert primes_in(100, 50) == []


def test_prime_count_to_1e5_against_plain_sieve():
    # independent oracle: dense sieve, no segmentation
    n = 100001
    flags = bytearray([1]) * n
    flags[0] = flags[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    assert sum(flags) == 9592
    assert len(primes_in(2, n)) == 9592


def test_primes_in_segment_boundaries():
    # range straddling a segment edge agrees with membership tests
    lo, hi = (1 << 20) - 50, (1 << 20) + 50
    assert primes_in(lo, hi) == [n for n in range(lo, hi) if is_prime(n)]


def test_is_prime_small():
    small = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in small)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)


def test_legendre_zero_convention():
    assert legendre(0, 7) == 0
    assert legendre(14, 7) == 0


def test_legendre_known_values():
    assert legendre(4, 5) == 1
    assert legendre(2, 5) == -1  # squares mod 5 are {1, 4}
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1


def test_legendre_euler_criterion_random():
    rng = random.Random(7)
    primes = [p for p in primes_in(3, 10000)]
    for _ in range(10**4):
        p = rng.choice(primes)
        a = rng.randrange(-(10**9), 10**9)
        euler = pow(a % p, (p - 1) // 2, p)
        expected = 0 if a % p == 0 else (1 if euler == 1 else -1)
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
    assert {a for a in range(1, 5) if t5.is_square(a)} == {1, 4}
    t3 = residue_table(3)
    assert {a for a in range(1, 3) if t3.is_square(a)} == {1}
    assert t5.chi_of(0) == 0


def test_residue_table_popcount_balance():
    for p in primes_in(3, 1000):
        tab = residue_table(p)
        assert int(np.count_nonzero(tab.chi == 1)) == (p - 1) // 2
        assert np.unique(tab.squares).size == tab.squares.size == (p - 1) // 2
        assert (tab.chi[tab.squares] == 1).all()


def test_residue_table_matches_legendre_exhaustive():
    for p in primes_in(3, 3000):
        tab = residue_table(p)
        for a in range(p):
            assert tab.chi_of(a) == legendre(a, p)


def test_residue_table_cap():
    with pytest.raises(TableTooLargeError):
        residue_table(101, cap=100)


def test_poly_eval_mod():
    f = (0, 1, 0, 1)  # x^3 + x
    assert poly_eval_mod(f, 2, 5) == 0
    assert poly_eval_mod(f, 1, 5) == 2
    assert poly_eval_mod((0, -1, 0, 0, 0, 1), 2, 3) == 0  # x^5 - x at 2 mod 3


# On either side of p^4 = 2^63 (55108.5) and p^3 = 2^63 (2097152), and the
# residue-table cap 2^31 - 1: where the lazy reduction in poly_eval_all_mod
# changes how many Horner steps run without a reduction.
@pytest.mark.parametrize("p", [55103, 55109, 2097143, 2097169, 2**31 - 1])
def test_poly_eval_all_mod_exact_at_reduction_thresholds(p):
    assert is_prime(p)
    rng = random.Random(p)
    xs = [p - 1, p - 2, 1, 0] + [rng.randrange(p) for _ in range(996)]
    x = np.array(xs, dtype=np.int64)
    for deg in range(3, 11):
        worst = (-1,) * (deg + 1)  # every coefficient p - 1 mod p: the largest bound
        rand = tuple(rng.randint(-(10**9), 10**9) for _ in range(deg)) + (rng.choice([1, -1, 10**9 - 7]),)
        for f in (worst, rand):
            want = [poly_eval_mod(f, v, p) for v in xs]
            assert poly_eval_all_mod(f, p, x).tolist() == want, (deg, f)
            if p < 2**17:
                assert poly_eval_all_mod(f, p)[x].tolist() == want, (deg, f)
