"""Hyperelliptic curve models y^2 = f(x): bad primes, Frobenius traces, L-polynomials.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
import sympy

from .cache import TraceCache
from .finite_field import (
    ResidueTable,
    poly_eval_all_mod,
    poly_eval_mod,
    primes_in,
    residue_table,
)
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
class CurveSpec:
    """A curve y^2 = f(x) of genus 1 or 2 with its bad-prime set."""

    f: IntPolynomial
    genus: int
    bad_primes: frozenset[int]


@dataclass(frozen=True)
class TraceRecord:
    p: int
    a: int
    genus: int


@dataclass(frozen=True)
class LPolynomial2:
    """Genus-2 local data (a, b): trace convention, so the L-polynomial in the
    opposite sign convention reads 1 - aT + bT^2 - paT^3 + p^2 T^4."""

    p: int
    a: int
    b: int


def hyperelliptic_bad_primes(f: IntPolynomial) -> frozenset[int]:
    """{2} together with primes dividing disc(f) or the leading coefficient."""
    if not f.is_squarefree():
        raise CurveError(f"f = {f} has a repeated root (not squarefree over Q)")
    bad = {2}
    disc = f.discriminant()
    for n in (abs(disc), abs(f.lead)):
        if n > 1:
            bad.update(int(q) for q in sympy.factorint(n))
    return frozenset(bad)


def curve_from_poly(f: IntPolynomial) -> CurveSpec:
    """Build a CurveSpec from a squarefree f of degree 3..6."""
    if f.is_zero or not 3 <= f.degree <= 6:
        raise CurveError(f"degree must be 3..6, got {f.coeffs and f.degree}")
    genus = 1 if f.degree <= 4 else 2
    return CurveSpec(f, genus, hyperelliptic_bad_primes(f))


def char_sum(g: IntPolynomial, p: int, table: ResidueTable | None = None) -> int:
    """sum_x chi_p(g(x)) over x = 0..p-1.

    When g has no odd-degree term, g(x) = h(x^2) = g(-x), and the sum is
    chi_p(h(0)) + 2 sum_k chi_p(h(k^2)) over k = 1..(p-1)/2: h has half the
    degree of g and is evaluated at the (p-1)/2 entries of ``table.squares``.
    """
    tab = table if table is not None and table.p == p else residue_table(p)
    if any(g.coeffs[1::2]):
        return int(tab.chi[poly_eval_all_mod(g.coeffs, p)].sum(dtype=np.int64))
    vals = poly_eval_all_mod(g.coeffs[::2], p, tab.squares)
    return tab.chi_of(g(0)) + 2 * int(tab.chi[vals].sum(dtype=np.int64))


def hyperelliptic_trace(f: IntPolynomial, p: int, table: ResidueTable | None = None) -> int:
    """Trace of Frobenius of the smooth projective model of y^2 = f(x) at a good p.

    a = -sum_x chi_p(f(x)) minus the point-at-infinity correction chi_p(lead f)
    for even degree.  Valid for any degree >= 1, genus (deg - 1) // 2; in
    genus 0 (degree 1 or 2) the trace is 0.
    """
    tab = table if table is not None and table.p == p else residue_table(p)
    corr = tab.chi_of(f.lead) if f.degree % 2 == 0 else 0
    return -char_sum(f, p, tab) - corr


def good_primes(bad: frozenset[int] | set[int], n_max: int) -> list[int]:
    """The odd primes p <= n_max outside ``bad``, ascending."""
    return [p for p in primes_in(3, n_max + 1) if p not in bad]


def sweep_traces(
    polys: Sequence[IntPolynomial],
    primes: Sequence[int],
    threads: int = 1,
    caches: Iterable[TraceCache] | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (p, (a_p(g) for g in polys)) for the given good primes, ascending.

    The one trace sweep behind every command.  Identical polynomials are
    computed once.  A value held by the cache of its polynomial (caches are
    matched through ``TraceCache.poly``) is read, not computed.  A prime with
    a miss gets one residue table, shared by every polynomial that missed, and
    every computed a_p is checked against the Weil bound a^2 <= 4 g^2 p with
    g = (deg - 1) // 2.  Misses run in blocks of _BLOCK primes, on a pool of
    ``threads`` workers when threads > 1; this generator merges the blocks in
    ascending p and makes every cache write, so the output does not depend on
    the thread count.  With one thread a block is computed only when the
    consumer reaches it.
    """
    distinct = list(dict.fromkeys(polys))
    slot = [distinct.index(g) for g in polys]
    by_poly = {c.poly: c for c in caches or ()}
    stores = [by_poly.get(g) for g in distinct]
    values = [[None if c is None else c.get(p) for c in stores] for p in primes]
    need = [i for i, vals in enumerate(values) if None in vals]
    blocks = [need[k : k + _BLOCK] for k in range(0, len(need), _BLOCK)]

    def work(block: list[int]) -> list[list[int]]:
        out = []
        for i in block:
            p = primes[i]
            tab = residue_table(p)
            row = []
            for g, a in zip(distinct, values[i]):
                if a is None:
                    a = hyperelliptic_trace(g, p, tab)
                    genus = (g.degree - 1) // 2
                    if a * a > 4 * genus * genus * p:
                        raise AssertionError(
                            f"Weil bound violated at p={p}: a={a}, genus {genus} (counting bug)"
                        )
                row.append(a)
            out.append(row)
        return out

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 and blocks else None
    try:
        done = pool.map(work, blocks) if pool else map(work, blocks)
        pending = iter(blocks)
        block = next(pending, None)
        for i, p in enumerate(primes):
            if block and i == block[0]:
                for j, row in zip(block, next(done)):
                    values[j] = row
                for k, c in enumerate(stores):
                    if c is not None:
                        c.append([(primes[j], values[j][k]) for j in block])
                block = next(pending, None)
            vals = values[i]
            yield p, tuple(vals[k] for k in slot)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def curve_trace(c: CurveSpec, p: int) -> TraceRecord:
    """The Weil-checked trace a = p + 1 - #C(F_p) at one good prime."""
    if p in c.bad_primes:
        raise BadPrimeError(p)
    ((_, (a,)),) = sweep_traces([c.f], [p])
    return TraceRecord(p, a, c.genus)


def _count_fp2(f: IntPolynomial, p: int) -> int:
    """#C(F_{p^2}) for the smooth model of y^2 = f, with F_{p^2} = F_p[u]/(u^2 - n)."""
    tab = residue_table(p)
    n = next(a for a in range(2, p) if tab.chi_of(a) == -1)
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


def l_polynomial_genus2(c: CurveSpec, p: int, cap: int = DEFAULT_LPOLY_CAP) -> LPolynomial2:
    """Local genus-2 L-data (a, b) via counts over F_p and F_{p^2}.

    b = (a^2 - (p^2 + 1 - #C(F_{p^2}))) / 2, an exact integer.
    """
    if c.genus != 2:
        raise CurveError("l_polynomial_genus2 requires a genus-2 curve (degree 5 or 6)")
    if p > cap:
        raise CapExceededError(f"p = {p} exceeds the F_p^2 counting cap {cap}")
    rec = curve_trace(c, p)
    a2 = p * p + 1 - _count_fp2(c.f, p)
    num = rec.a * rec.a - a2
    assert num % 2 == 0, "parity failure in b (counting bug)"
    b = num // 2
    if abs(b) > 6 * p:
        raise AssertionError(f"|b| <= 6p violated at p={p}: b={b}")
    return LPolynomial2(p, rec.a, b)


def lpoly_roots(lp: LPolynomial2) -> np.ndarray:
    """Complex roots of the encoded quartic x^4 - a x^3 + b x^2 - pa x + p^2.

    These are the Frobenius eigenvalues; all have absolute value sqrt(p).
    """
    return np.roots([1, -lp.a, lp.b, -lp.p * lp.a, lp.p * lp.p])


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
    affine = sum(sq[poly_eval_mod(c.f.coeffs, x, p)] for x in range(p))
    if c.f.degree % 2 == 1:
        infinity = 1
    else:
        infinity = sq[c.f.lead % p]
    return TraceRecord(p, p + 1 - (affine + infinity), c.genus)
