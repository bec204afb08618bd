"""Hyperelliptic curve models y^2 = f(x): bad primes, Frobenius traces, L-polynomials.

The bad primes are those dividing 2 * disc(f) * lead(f), tested by divisibility
(``BadPrimes``): nothing is factored.

Sign convention: ``a`` is always the trace of Frobenius, so #C(F_p) = p + 1 - a
for both genus 1 and genus 2 (the stored ``a`` is the negative of the linear
L-polynomial coefficient in the 1 + a_p T + ... normalization).

The smooth projective model of y^2 = f(x) has one point at infinity when
deg f is odd and 1 + chi_p(lead f) points when deg f is even; the character-sum
trace formula carries that correction and is cross-checked against the
exhaustive counting oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .cache import TraceCache
from .finite_field import CHUNK, ResidueTable, legendre, poly_eval_all_mod, primes_in, residue_table
from .polynomials import IntPolynomial, PolynomialError

DEFAULT_LPOLY_CAP = 10**4
N_HARD_CAP = 10**7

_BLOCK = 128  # primes per worker block


class CurveError(PolynomialError):
    pass


class BadPrimeError(ValueError):
    def __init__(self, p: int):
        super().__init__(f"p = {p} is a prime of bad reduction for this curve")
        self.p = p


class CapExceededError(ValueError):
    pass


@dataclass(frozen=True)
class BadPrimes:
    """The primes dividing ``modulus``: ``p in bad`` is ``modulus % p == 0`` for
    a prime p, and ``bad | other`` holds the primes of either."""

    modulus: int

    def __contains__(self, p: int) -> bool:
        return self.modulus % p == 0

    def __or__(self, other: BadPrimes) -> BadPrimes:
        return BadPrimes(self.modulus * other.modulus)


@dataclass(frozen=True)
class CurveSpec:
    """A curve y^2 = f(x) of genus 1 or 2 with its bad primes."""

    f: IntPolynomial
    genus: int
    bad_primes: BadPrimes


@dataclass(frozen=True)
class TraceRecord:
    p: int
    a: int
    genus: int


def hyperelliptic_bad_primes(f: IntPolynomial) -> BadPrimes:
    """2 together with the primes dividing disc(f) or the leading coefficient."""
    if f.is_zero or f.degree == 0:
        raise CurveError(f"{f} is constant, not a curve")
    disc = f.discriminant()
    if disc == 0:
        raise CurveError(f"{f} has a repeated root (not squarefree over Q)")
    return BadPrimes(2 * disc * f.lead)


def curve_from_poly(f: IntPolynomial) -> CurveSpec:
    """Build a CurveSpec from a squarefree f of degree 3..6."""
    if f.is_zero or not 3 <= f.degree <= 6:
        got = "the zero polynomial" if f.is_zero else f.degree
        raise CurveError(f"degree must be 3..6, got {got}")
    genus = 1 if f.degree <= 4 else 2
    return CurveSpec(f, genus, hyperelliptic_bad_primes(f))


def char_sum(g: IntPolynomial, p: int, table: ResidueTable) -> int:
    """sum_x chi_p(g(x)) over x = 0..p-1, with ``table`` the residue table of p.

    Split g(x) = e(x^2) + x o(x^2).  For k = 1..(p-1)/2 and s = k^2, let
    E = e(s) and O = k o(s), reduced mod p; then g(k) = E + O and
    g(-k) = E - O, and the sum is chi(g(0)) + sum_k (chi[E + O - p] + chi[E - O]).
    Both indices lie in [-p, p), where ``table.chi`` reads chi of the residue.
    e and o have half the degree of g and are evaluated at the (p-1)/2
    entries of ``table.squares``, CHUNK at a time.  When o = 0 the sum is
    chi(g(0)) + 2 sum_k chi[E].
    """
    even, odd = g.coeffs[::2], g.coeffs[1::2]
    total = 0
    for i in range(0, len(table.squares), CHUNK):
        s = table.squares[i : i + CHUNK]
        e = poly_eval_all_mod(even, p, s)
        if any(odd):
            o = poly_eval_all_mod(odd, p, s)
            o *= table.roots[i : i + CHUNK]
            o -= o // p * p
            total += int(table.chi[e - o].sum(dtype="int64"))
            e += o
            e -= p
            total += int(table.chi[e].sum(dtype="int64"))
        else:
            total += 2 * int(table.chi[e].sum(dtype="int64"))
    return legendre(g(0), p) + total


def hyperelliptic_trace(f: IntPolynomial, p: int, table: ResidueTable | None = None) -> int:
    """Trace of Frobenius of the smooth projective model of y^2 = f(x) at a good p.

    a = -sum_x chi_p(f(x)) minus the point-at-infinity correction chi_p(lead f)
    for even degree.  Valid for any degree >= 1, genus (deg - 1) // 2; in
    genus 0 (degree 1 or 2) the trace is 0.
    """
    tab = table if table is not None and table.p == p else residue_table(p)
    corr = legendre(f.lead, p) if f.degree % 2 == 0 else 0
    return -char_sum(f, p, tab) - corr


def good_primes(bad: BadPrimes, n_max: int) -> list[int]:
    """The odd primes p <= n_max outside ``bad``, ascending.

    Every sweep takes its primes from here, so this is where N is checked
    against the hard cap, before the sieve and before any trace.
    """
    if n_max > N_HARD_CAP:
        raise CapExceededError(f"N = {n_max} exceeds the hard cap {N_HARD_CAP}")
    return [p for p in primes_in(3, n_max + 1) if p not in bad]


def _fill(
    distinct: Sequence[IntPolynomial], block_primes: Sequence[int], block_rows: list[list]
) -> list[list]:
    """Fill the misses (None) of each row in place and return the rows: row i
    holds a_p(g) for p = block_primes[i] and g in ``distinct``.

    A prime with a miss gets one residue table, shared by every polynomial
    that missed, and every computed a_p is checked against the Weil bound
    a^2 <= 4 g^2 p with g = (deg - 1) // 2.
    """
    for p, row in zip(block_primes, block_rows):
        if None not in row:
            continue
        tab = residue_table(p)
        for k, g in enumerate(distinct):
            if row[k] is None:
                a = hyperelliptic_trace(g, p, tab)
                genus = (g.degree - 1) // 2
                if a * a > 4 * genus * genus * p:
                    raise AssertionError(
                        f"Weil bound violated at p={p}: a={a}, genus {genus} (counting bug)"
                    )
                row[k] = a
    return block_rows


def _process_pool(workers: int):
    """A pool of ``workers`` forked processes.

    Fork, not spawn: a forked worker starts with the parent's modules and
    needs no import of its own.  The CLI forks before it has loaded numpy,
    so with no thread of its own.  The pool modules are imported here, not at
    module load, so a run on one thread or with every a_p cached never loads
    them.
    """
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def sweep_traces(
    polys: Sequence[IntPolynomial],
    primes: Sequence[int],
    threads: int = 1,
    caches: Iterable[TraceCache] | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (p, (a_p(g) for g in polys)) for the given good primes, ascending.

    The one trace sweep behind every command.  Identical polynomials are
    computed once.  A value held by the cache of its polynomial (caches are
    matched through ``TraceCache.poly``) is read, not computed; ``_fill``
    computes the rest.  The primes run in blocks of _BLOCK consecutive ones.
    When threads > 1 and some prime misses, the blocks go to a pool of
    min(threads, blocks with a miss) forked worker processes; this generator
    takes the blocks in order, appends each to the caches and then yields it,
    so the output does not depend on the thread count.  With one thread the
    blocks run in this process, each only when the consumer reaches it.
    """
    distinct = list(dict.fromkeys(polys))
    slot = [distinct.index(g) for g in polys]
    by_poly = {c.poly: c for c in caches or ()}
    stores = [by_poly.get(g) for g in distinct]
    values = [[None if c is None else c.get(p) for c in stores] for p in primes]
    blocks = [range(k, min(k + _BLOCK, len(primes))) for k in range(0, len(primes), _BLOCK)]
    missing = sum(any(None in values[i] for i in block) for block in blocks)
    pool = _process_pool(min(threads, missing)) if threads > 1 and missing else None
    args = (
        repeat(distinct),
        [primes[b.start : b.stop] for b in blocks],
        [values[b.start : b.stop] for b in blocks],
    )
    try:
        for block, rows in zip(blocks, pool.map(_fill, *args) if pool else map(_fill, *args)):
            values[block.start : block.stop] = rows
            for k, c in enumerate(stores):
                if c is not None:
                    c.append([(primes[i], values[i][k]) for i in block])
            for i in block:
                yield primes[i], tuple(values[i][k] for k in slot)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def _count_fp2(f: IntPolynomial, p: int) -> int:
    """#C(F_{p^2}) for the smooth model of y^2 = f, with F_{p^2} = F_p[u]/(u^2 - n)."""
    import numpy as np

    tab = residue_table(p)
    n = next(a for a in range(2, p) if legendre(a, p) == -1)
    # z = z0 + z1 u is a nonzero square in F_{p^2}  iff  chi_p(Norm z) = 1,
    # Norm(z) = z0^2 - n z1^2.
    total = 0
    x1 = np.arange(p, dtype=np.int64)
    for x0 in range(p):
        v0 = np.zeros(p, dtype=np.int64)
        v1 = np.zeros(p, dtype=np.int64)
        for c in reversed(f.coeffs):
            v0, v1 = (v0 * x0 + n * v1 * x1 + c) % p, (v0 * x1 + v1 * x0) % p
        norm = (v0 * v0 - n * v1 * v1) % p
        total += p + int(tab.chi[norm].sum(dtype=np.int64))
    if f.degree % 2 == 1:
        total += 1
    else:
        # lead is a square in F_{p^2} iff it is nonzero mod p (norm of lead is lead^2)
        total += 1 + (1 if f.lead % p else 0)
    return total


def genus2_b(f: IntPolynomial, p: int, a: int) -> int:
    """The L-coefficient b = (a^2 - (p^2 + 1 - #C(F_{p^2}))) / 2 of a genus-2
    curve at a good p with trace a: an exact integer, checked against |b| <= 6p."""
    num = a * a - (p * p + 1 - _count_fp2(f, p))
    assert num % 2 == 0, "parity failure in b (counting bug)"
    b = num // 2
    if abs(b) > 6 * p:
        raise AssertionError(f"|b| <= 6p violated at p={p}: b={b}")
    return b


def normalized_angle(rec: TraceRecord) -> float:
    """theta_p = arccos(a / 2 sqrt(p)) in [0, pi], genus-1 records only."""
    if rec.genus != 1:
        raise CurveError("normalized_angle is defined for genus-1 records")
    z = rec.a / (2.0 * math.sqrt(rec.p))
    if abs(z) > 1.0:
        raise AssertionError(f"Hasse bound violated at p={rec.p}: a={rec.a}")
    return math.acos(z)


def trace_oracle_exhaustive(c: CurveSpec, p: int) -> TraceRecord:
    """Brute-force point count of the smooth projective model (test oracle).

    Counts y-solutions per x via a square-count histogram; deliberately avoids
    the quadratic-character path.  Restricted to p < 10^4.
    """
    if p >= 10**4:
        raise CapExceededError("exhaustive oracle limited to p < 10^4")
    if p in c.bad_primes:
        raise BadPrimeError(p)
    sq = [0] * p
    for y in range(p):
        sq[y * y % p] += 1
    affine = sum(sq[c.f(x) % p] for x in range(p))
    if c.f.degree % 2 == 1:
        infinity = 1
    else:
        infinity = sq[c.f.lead % p]
    return TraceRecord(p, p + 1 - (affine + infinity), c.genus)
