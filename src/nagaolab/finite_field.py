"""Prime ranges, the quadratic character and the chi-sum kernel mod p.

Everything here works with plain Python integers (exact) plus numpy tables on
the performance path.  ``legendre`` is the one scalar character; a
``ResidueTable`` serves only vector gathers, chi_p at a whole array of
residues at once.  ``residue_table`` alone decides when a table is built and
how long it lives: it keeps the last one, read-only, for every caller at
that p; ``char_sums``, the one kernel, sums chi_p(g) over one.  Nothing is
factored: a curve's bad primes are a divisibility test (``curves.BadPrimes``).
All primes handled downstream are odd; ``primes_in`` itself still reports 2
when it lies in the requested range and callers filter.  One cap, N_HARD_CAP,
bounds the sieve and the residue tables, and so every sweep.

``_numpy`` is the one place numpy is loaded, with BLAS held to one thread, by
the functions that build or read arrays (``int32_ks``, ``_residue_table``,
``poly_eval_all_mod`` and ``char_sums``), not at module load: the sieve and
the character are pure Python, so a run whose traces all come from the cache
never loads it.
"""

from __future__ import annotations

import math
import operator
import os
from bisect import bisect_left
from functools import lru_cache
from itertools import compress, dropwhile
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

    from .polynomials import IntPolynomial

N_HARD_CAP = 10**7

# The largest prime with p^2 - 1 < 2^31: up to it the squares of a residue
# table, and so every lane of ``char_sums``, are int32; above it int64.
INT32_MAX_P = 46337

# Entries per pass of ``char_sums`` and ``_residue_table`` over the (p-1)/2
# squares on int32 lanes; ``chunk_len`` gives every lane width the same
# 64 KiB, so int64 lanes take CHUNK // 2.  A pass stays in cache however
# large p is.  With 16384 entries an int64 pass (128 KiB) page-faulted: in a
# fresh process one char_sum at p = 9999991 took 15180 minor faults and 20 %
# longer than with 8192.  The intp gather indices of an int32 pass are
# 128 KiB too, but there a sweep stays near one fault per prime: the table
# build maps and frees a larger intp copy at each p, which raises glibc's
# mmap threshold.  On int32 lanes a prime p > 2 CHUNK + 1 takes two passes
# or more.
CHUNK = 1 << 14


def chunk_len(lanes: np.ndarray) -> int:
    """Entries per pass over an array of ``lanes``' dtype: 64 KiB of them."""
    return CHUNK * 4 // lanes.itemsize


class CapExceededError(ValueError):
    """An input passes a hard cap; raised before the work the cap bounds."""


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in the half-open range [lo, hi), ascending, for hi - 1 <= N_HARD_CAP.

    A slice of ``_primes_below(hi)``.  An empty or inverted range yields [];
    hi - 1 > N_HARD_CAP raises CapExceededError before any allocation.
    """
    if hi - 1 > N_HARD_CAP:
        raise CapExceededError(f"N = {hi - 1} exceeds the hard cap {N_HARD_CAP}")
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
    reads chi of its residue.  ``squares`` is the array k^2 mod p for
    k = 1..(p-1)/2, each nonzero square once, int32 for p <= INT32_MAX_P and
    int64 above: p + w (p-1)/2 bytes in all, w = 4 or 8.  Its dtype is the
    lane width of ``char_sums`` at p.  Read-only: every caller at one p
    gets the same table.
    """

    chi: np.ndarray
    squares: np.ndarray


def residue_table(p: int) -> ResidueTable:
    """The chi_p table of an odd prime p <= N_HARD_CAP; a larger p raises CapExceededError first."""
    if p > N_HARD_CAP:
        raise CapExceededError(f"p = {p} exceeds the hard cap {N_HARD_CAP}")
    return _residue_table(p)


@lru_cache(maxsize=None)
def _numpy():
    """numpy, loaded with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS
    at 1 and then each put back as it was, set or unset: BLAS reads its thread count
    as it loads, and nagaolab does no linear algebra, so BLAS starts no thread."""
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {var: os.environ.pop(var, None) for var in blas}
    os.environ.update(dict.fromkeys(blas, "1"))
    try:
        import numpy
    finally:
        for var in blas:
            del os.environ[var]
        os.environ.update((var, value) for var, value in saved.items() if value is not None)
    return numpy


@lru_cache(maxsize=None)
def int32_ks() -> tuple[np.ndarray, np.ndarray]:
    """(k, k^2) for k = 1..INT32_MAX_P // 2, as read-only int32 arrays.

    Built on first use and kept for the process: 181 KiB that every prime
    on int32 lanes slices, so neither ``_residue_table`` nor a pass of
    ``char_sums`` makes its own arange.  k^2 < INT32_MAX_P^2 / 4 fits int32.
    """
    np = _numpy()
    k = np.arange(1, INT32_MAX_P // 2 + 1, dtype=np.int32)
    k2 = k * k
    k.flags.writeable = k2.flags.writeable = False
    return k, k2


@lru_cache(maxsize=1)
def _residue_table(p: int) -> ResidueTable:
    """Build the table of ``residue_table``, memoised for the last p.

    k^2 = (p - k)^2, so the squares of 1..(p-1)/2 already hit every nonzero
    square.  Up to INT32_MAX_P they are the shared k^2 of ``int32_ks``
    reduced mod p; above, one int64 arange is squared and reduced in place,
    ``chunk_len`` at a time, so each pass stays in cache.  chi is scattered
    through an intp view of the squares (a copy when they are int32).  Calls
    at one p share the table, which is freed after the next is built: freed
    first, its pages faulted in at every prime.
    """
    np = _numpy()
    if p <= INT32_MAX_P:
        k2 = int32_ks()[1][: p // 2]
        q = k2 // p
        q *= p
        squares = k2 - q
    else:
        squares = np.arange(1, p // 2 + 1, dtype=np.int64)
        step = chunk_len(squares)
        for i in range(0, len(squares), step):
            v = squares[i : i + step]
            v *= v
            v -= v // p * p
    chi = np.full(p, -1, dtype=np.int8)
    chi[squares.astype(np.intp, copy=False)] = 1
    chi[0] = 0
    chi.flags.writeable = squares.flags.writeable = False
    return ResidueTable(chi, squares)


def poly_eval_all_mod(coeffs, p: int, x: np.ndarray) -> np.ndarray:
    """Vectorized Horner: f at every entry of x mod p, as a new array of x's dtype.

    ``x`` holds residues in [0, p) in a signed integer dtype that holds
    p (p - 1).  The coefficients are reduced once, and those of the top
    degrees that vanish mod p are skipped.  A top coefficient 1 is not
    multiplied by: Horner starts from x + c, or from x * x + c' when the
    next coefficient c is 0.  The running values are reduced only when a
    bound on them says the next v*x + c could pass the dtype's maximum, and
    at the end if the bound passes p - 1: for p < 55108 an int64 quintic
    takes 2 reductions instead of 6.  A reduction of the nonnegative values
    is v - (v // p) * p: numpy divides an array by a scalar about twice as
    fast as it takes the remainder.
    """
    np = _numpy()
    reduced = [c % p for c in reversed(coeffs)]
    top, *rest = list(dropwhile(operator.not_, reduced)) or [0]  # [0]: zero mod p
    if not rest:
        return np.full(len(x), top, dtype=x.dtype)
    limit = (1 << 8 * x.itemsize - 1) - 1  # the largest value of x's signed dtype
    c, *rest = rest
    if top != 1:
        v = x * top
        if c:
            v += c
        bound = top * (p - 1) + c  # every entry of v lies in [0, bound]
    elif c or not rest:
        v = x + c  # a new array even when c = 0
        bound = p - 1 + c
    else:
        c, *rest = rest
        v = x * x
        if c:
            v += c
        bound = (p - 1) * (p - 1) + c
    for c in rest:
        if bound * (p - 1) + c > limit:
            v -= v // p * p
            bound = p - 1
        v *= x
        if c:
            v += c
        bound = bound * (p - 1) + c
    if bound >= p:
        v -= v // p * p
    return v


def char_sum(g: IntPolynomial, p: int) -> int:
    """sum_x chi_p(g(x)) over x = 0..p-1, from the residue table of p (``char_sums``)."""
    return char_sums(g, p, False)[0]


def char_sums(g: IntPolynomial, p: int, twisted: bool) -> tuple[int, int]:
    """(S, T) with S = sum_x chi_p(g(x)) over x = 0..p-1 and, when ``twisted``,
    T = sum_{u != 0} chi_p(u) chi_p(g(u)), else T = 0.

    S + T = sum_t chi_p(g(t^2)), since t^2 = u has 1 + chi_p(u) roots t.
    Split g(x) = e(x^2) + x o(x^2).  For k = 1..(p-1)/2 and s = k^2, let
    E = e(s) and O = k o(s), reduced mod p; then g(+-k) = E +- O, so
    S = chi(g(0)) + sum_k (chi[E + O - p] + chi[E - O]), both indices in
    [-p, p), where ``chi`` reads chi of the residue.  chi(k) is the slice
    chi[1 : (p+1)/2] and chi(-k) = chi(-1) chi(k), so
    T = sum_k chi(k) (chi[E + O - p] + chi(-1) chi[E - O]).  When o = 0,
    S = chi(g(0)) + 2 sum_k chi[E] and T = (1 + chi(-1)) sum_k chi(k) chi[E].

    e and o are evaluated at the table's ``squares``, ``chunk_len`` at a
    time, so every lane has the squares' dtype: on int32 lanes k is a slice
    of the shared k of ``int32_ks``, on int64 lanes an arange per chunk.
    Gathers index with intp, and each chunk's int8 values sum in int32.
    """
    np = _numpy()
    chi, squares = residue_table(p)
    even, odd = g.coeffs[::2], g.coeffs[1::2]
    ks = int32_ks()[0] if squares.itemsize == 4 else None
    step = chunk_len(squares)
    minus = p % 4 == 3  # chi(-1) = -1
    total = twist = 0
    for i in range(0, len(squares), step):
        s = squares[i : i + step]
        if any(odd):
            o = poly_eval_all_mod(odd, p, s)
            o *= np.arange(i + 1, i + 1 + len(s), dtype=s.dtype) if ks is None else ks[i : i + len(s)]
            o -= o // p * p
            e = poly_eval_all_mod(even, p, s)
            neg = chi[(e - o).astype(np.intp, copy=False)]
            e += o
            e -= p
            pos = chi[e.astype(np.intp, copy=False)]
            w = pos + neg
            total += int(w.sum(dtype=np.int32))
            if twisted:
                if minus:
                    w = pos - neg
                twist += int((chi[i + 1 : i + 1 + len(s)] * w).sum(dtype=np.int32))
        else:
            v = chi[poly_eval_all_mod(even, p, s).astype(np.intp, copy=False)]
            total += 2 * int(v.sum(dtype=np.int32))
            if twisted and not minus:
                twist += 2 * int((chi[i + 1 : i + 1 + len(s)] * v).sum(dtype=np.int32))
    return legendre(g(0), p) + total, twist
