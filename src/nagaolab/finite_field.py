"""Modular arithmetic substrate: primality, prime ranges, and the quadratic
character.

Everything here works with plain Python integers (exact) plus numpy tables on
the performance path.  ``legendre`` is the one scalar character; a
``ResidueTable`` serves only vector gathers, chi_p at a whole array of
residues at once.  Nothing is factored: a curve's bad primes are a
divisibility test (``curves.BadPrimes``).
All primes handled downstream are odd; ``primes_in`` itself still reports 2
when it lies in the requested range and callers filter.

numpy is imported by the functions that build arrays (``residue_table`` and
``poly_eval_all_mod``), not by this module: the sieve and the character are
pure Python, so a run whose traces all come from the cache never loads it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import compress, dropwhile
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

# Bound on the sieve and on residue tables; at p <= TABLE_CAP, p**2 fits in
# a signed 64-bit intermediate.
TABLE_CAP = 1 << 31

_INT64_MAX = (1 << 63) - 1

# Entries per pass of the array kernels over the (p-1)/2 squares.  An int64
# array of one pass takes 64 KiB: it stays in cache however large p is, and
# below the 128 KiB at which glibc's malloc maps fresh pages for a block, so
# the temporaries of a pass reuse heap memory instead of page-faulting.
CHUNK = 1 << 13

# Witness set deterministic for every n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class TableTooLargeError(ValueError):
    """Raised when a residue table or the sieve would pass TABLE_CAP."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in the half-open range [lo, hi), ascending, for hi - 1 <= TABLE_CAP.

    A slice of ``_primes_below(hi)``.  An empty or inverted range yields [];
    hi - 1 > TABLE_CAP raises TableTooLargeError before any allocation.
    """
    if hi - 1 > TABLE_CAP:
        raise TableTooLargeError(f"primes up to {hi - 1} exceed the sieve cap {TABLE_CAP}")
    lo = max(lo, 2)
    if lo >= hi:
        return []
    primes = _primes_below(hi)
    return list(primes[bisect_left(primes, lo) :])


@lru_cache(maxsize=1)
def _primes_below(hi: int) -> tuple[int, ...]:
    """All primes below hi >= 3, ascending.

    Sieve of Eratosthenes over the odd numbers below hi, one byte each:
    ``odd[i]`` marks 2i + 1.  Memoised for the last hi, so the sweep of a
    run and its ``.skipped`` sidecar share one sieve.
    """
    n = hi // 2  # the odd numbers 1, 3, ..., below hi
    odd = bytearray([1]) * n
    odd[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(hi - 1) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            start = p * p // 2
            odd[start::p] = bytes(len(range(start, n, p)))
    return (2, *compress(range(1, hi, 2), odd))


def legendre(a: int, p: int) -> int:
    """Quadratic character chi_p(a) in {-1, 0, +1} for an odd prime p, with chi_p(0) = 0.

    Euler's criterion: a^((p-1)/2) is 1, p - 1 or 0 mod p.
    """
    r = pow(a, (p - 1) // 2, p)
    return r - p if r > 1 else r


class ResidueTable(NamedTuple):
    """Precomputed chi_p values for all residues mod p, for vector gathers
    ``chi[values]``; a single residue goes through ``legendre``.

    ``chi`` is an int8 array of length p with chi[0] = 0 (the distinguished
    zero mark), +1 on nonzero squares, -1 on non-squares; an index in [-p, 0)
    reads chi of its residue.  ``roots`` is the int64 array k = 1..(p-1)/2
    and ``squares`` the int64 array k^2 mod p, each nonzero square once.
    Never written after it is built; a forked worker builds its own.
    """

    p: int
    chi: np.ndarray
    roots: np.ndarray
    squares: np.ndarray


def residue_table(p: int) -> ResidueTable:
    """Build the chi_p lookup table for an odd prime p <= TABLE_CAP.

    k^2 = (p - k)^2, so the squares of 1..(p-1)/2 already hit every nonzero
    square.  They are reduced CHUNK at a time, so each pass stays in cache.
    """
    if p > TABLE_CAP:
        raise TableTooLargeError(f"table for p={p} too large (cap {TABLE_CAP})")
    import numpy as np

    roots = np.arange(1, p // 2 + 1, dtype=np.int64)
    squares = roots * roots
    for i in range(0, len(squares), CHUNK):
        v = squares[i : i + CHUNK]
        v -= v // p * p
    chi = np.full(p, -1, dtype=np.int8)
    chi[squares] = 1
    chi[0] = 0
    return ResidueTable(p, chi, roots, squares)


def poly_eval_all_mod(coeffs, p: int, x: np.ndarray) -> np.ndarray:
    """Vectorized Horner: f at every entry of x mod p, as an int64 array.

    ``x`` holds residues in [0, p); p^2 must fit in int64.  The coefficients
    are reduced once, and those of the top degrees that vanish mod p are
    skipped.  The running values are reduced only when a bound on them says
    the next v*x + c could pass 2^63 - 1, and at the end if the bound passes
    p - 1: for p < 55108 a quintic takes 2 reductions instead of 6.  A
    reduction of the nonnegative values is v - (v // p) * p: numpy divides
    an array by a scalar about twice as fast as it takes the remainder.
    """
    import numpy as np

    reduced = [c % p for c in reversed(coeffs)]
    top, *rest = list(dropwhile(operator.not_, reduced)) or [0]  # [0]: zero mod p
    v = np.full(len(x), top, dtype=np.int64)
    bound = top  # every entry of v lies in [0, bound]
    for c in rest:
        if bound * (p - 1) + c > _INT64_MAX:
            v -= v // p * p
            bound = p - 1
        v *= x
        if c:
            v += c
        bound = bound * (p - 1) + c
    if bound >= p:
        v -= v // p * p
    return v
