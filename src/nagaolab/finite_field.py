"""Modular arithmetic substrate: primality, prime ranges, and the quadratic character.

Everything here works with plain Python integers (exact) plus numpy tables on
the performance path.  All primes handled downstream are odd; ``primes_in``
itself still reports 2 when it lies in the requested range and callers filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Caps chosen so p**2 fits in a signed 64-bit intermediate.
PRIME_CAP = 1 << 62
DEFAULT_TABLE_CAP = 1 << 31

_SEGMENT = 1 << 20
_INT64_MAX = (1 << 63) - 1

# Witness set deterministic for every n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class TableTooLargeError(ValueError):
    """Raised when a residue table would exceed the configured cap."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    """All primes in the half-open range [lo, hi), ascending.

    Segmented sieve of Eratosthenes; an empty or inverted range yields [].
    """
    if hi > PRIME_CAP:
        raise ValueError(f"upper bound {hi} exceeds cap 2^62")
    lo = max(lo, 2)
    if lo >= hi:
        return []
    root = int(hi**0.5) + 1
    base = _small_sieve(root + 1)
    out: list[int] = []
    for start in range(lo, hi, _SEGMENT):
        stop = min(start + _SEGMENT, hi)
        seg = np.ones(stop - start, dtype=bool)
        for p in base:
            if p * p >= stop:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            seg[first - start :: p] = False
        if start <= 1:
            seg[: 2 - start] = False
        out.extend(int(i) for i in np.nonzero(seg)[0] + start)
    return out


def _small_sieve(n: int) -> list[int]:
    if n < 2:
        return []
    flags = np.ones(n, dtype=bool)
    flags[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return [int(i) for i in np.nonzero(flags)[0]]


def legendre(a: int, p: int) -> int:
    """Quadratic character chi_p(a) in {-1, 0, +1}, with chi_p(0) = 0.

    Binary Jacobi-symbol algorithm; for prime odd p the Jacobi symbol is the
    Legendre symbol.  Euler's criterion serves as the independent test oracle.
    """
    a %= p
    if a == 0:
        return 0
    n = p
    t = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


@dataclass(frozen=True)
class ResidueTable:
    """Precomputed chi_p values for all residues mod p.

    ``chi`` is an int8 array of length p with chi[0] = 0 (the distinguished
    zero mark), +1 on nonzero squares, -1 on non-squares.  ``squares`` is the
    int64 array k^2 mod p for k = 1..(p-1)/2, each nonzero square once.
    Immutable and shareable across threads.
    """

    p: int
    chi: np.ndarray = field(repr=False)
    squares: np.ndarray = field(repr=False)

    def chi_of(self, a: int) -> int:
        return int(self.chi[a % self.p])

    def is_square(self, a: int) -> bool:
        """True iff a is a nonzero square mod p.  a = 0 is never a 'square' here."""
        return int(self.chi[a % self.p]) == 1


def residue_table(p: int, cap: int = DEFAULT_TABLE_CAP) -> ResidueTable:
    """Build the chi_p lookup table for an odd prime p below the cap.

    k^2 = (p - k)^2, so the squares of 1..(p-1)/2 already hit every nonzero
    square.
    """
    if p > cap:
        raise TableTooLargeError(
            f"table for p={p} too large (cap {cap}); use legendre() per element"
        )
    k = np.arange(1, p // 2 + 1, dtype=np.int64)
    squares = k * k % p
    chi = np.full(p, -1, dtype=np.int8)
    chi[squares] = 1
    chi[0] = 0
    return ResidueTable(p, chi, squares)


def poly_eval_mod(coeffs, x: int, p: int) -> int:
    """Horner evaluation of a polynomial (constant term first) at x mod p."""
    v = 0
    x %= p
    for c in reversed(coeffs):
        v = (v * x + c) % p
    return v


def poly_eval_all_mod(coeffs, p: int, x: np.ndarray | None = None) -> np.ndarray:
    """Vectorized Horner: f at every entry of x mod p, as an int64 array.

    ``x`` holds residues in [0, p) and defaults to 0, ..., p-1; p^2 must fit
    in int64.  The coefficients are reduced once.  The running values are
    reduced only when a bound on them says the next v*x + c could pass
    2^63 - 1, and once at the end: for p < 55108 a quintic takes 2
    reductions instead of 6.
    """
    if x is None:
        x = np.arange(p, dtype=np.int64)
    top, *rest = [c % p for c in reversed(coeffs)] or [0]  # [0]: the zero polynomial
    v = np.full(len(x), top, dtype=np.int64)
    bound = top  # every entry of v lies in [0, bound]
    for c in rest:
        if bound * (p - 1) + c > _INT64_MAX:
            v %= p
            bound = p - 1
        v *= x
        v += c
        bound = bound * (p - 1) + c
    v %= p
    return v
