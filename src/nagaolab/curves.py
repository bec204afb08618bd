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
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class WorkerDiedError(RuntimeError):
    def __init__(self, p: int):
        super().__init__(f"a worker process died; the sweep stopped at the block from p = {p}")
        self.p = p


class BadPrimes(NamedTuple):
    """The primes dividing ``modulus``: ``p in bad`` is ``modulus % p == 0`` for
    a prime p, and ``bad | other`` holds the primes of either."""

    modulus: int

    def __contains__(self, p: int) -> bool:
        return self.modulus % p == 0

    def __or__(self, other: BadPrimes) -> BadPrimes:
        return BadPrimes(self.modulus * other.modulus)


class CurveSpec(NamedTuple):
    """A curve y^2 = f(x) of genus 1 or 2 with its bad primes."""

    f: IntPolynomial
    genus: int
    bad_primes: BadPrimes


class TraceRecord(NamedTuple):
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
    return _chunk_sums(g, p, table, False)[0]


def _chunk_sums(g: IntPolynomial, p: int, table: ResidueTable, twisted: bool) -> tuple[int, int]:
    """The chunk loop of ``char_sum``: (S, T) with S = sum_x chi_p(g(x)) and,
    when ``twisted``, T = sum_{u != 0} chi_p(u) chi_p(g(u)), else T = 0.

    S + T = sum_t chi_p(g(t^2)), since t^2 = u has 1 + chi_p(u) roots t.
    chi(k) for k = 1..(p-1)/2 is the slice chi[1 : (p+1)/2] and
    chi(-k) = chi(-1) chi(k), so T = sum_k chi(k) (chi[E + O - p] + chi(-1) chi[E - O]),
    and (1 + chi(-1)) sum_k chi(k) chi[E] when o = 0.
    """
    even, odd = g.coeffs[::2], g.coeffs[1::2]
    minus = p % 4 == 3  # chi(-1) = -1
    total = twist = 0
    for i in range(0, len(table.squares), CHUNK):
        s = table.squares[i : i + CHUNK]
        e = poly_eval_all_mod(even, p, s)
        if any(odd):
            o = poly_eval_all_mod(odd, p, s)
            o *= table.roots[i : i + CHUNK]
            o -= o // p * p
            neg = table.chi[e - o]
            total += int(neg.sum(dtype="int64"))
            e += o
            e -= p
            pos = table.chi[e]
            total += int(pos.sum(dtype="int64"))
            if twisted:
                w = pos - neg if minus else pos + neg
                twist += int((table.chi[i + 1 : i + 1 + len(s)] * w).sum(dtype="int64"))
        else:
            v = table.chi[e]
            total += 2 * int(v.sum(dtype="int64"))
            if twisted and not minus:
                twist += 2 * int((table.chi[i + 1 : i + 1 + len(s)] * v).sum(dtype="int64"))
    return legendre(g(0), p) + total, twist


class _PairedTable:
    """The residue table of one prime in ``_fill`` where an even g = h(x^2)
    and its half h are both computed, h first: the fields of a
    ``ResidueTable``, and ``halves`` and ``sums``.

    ``halves`` maps each such h to its g.  Computing h stores
    sum_t chi_p(g(t)) = S + T of h's chunk loop in ``sums`` under g, and g
    reads it there instead of evaluating itself.
    """

    __slots__ = ("p", "chi", "roots", "squares", "halves", "sums")

    def __init__(self, p: int, chi, roots, squares, halves: dict):
        self.p, self.chi, self.roots, self.squares = p, chi, roots, squares
        self.halves = halves
        self.sums: dict = {}


def hyperelliptic_trace(f: IntPolynomial, p: int, table: ResidueTable | None = None) -> int:
    """Trace of Frobenius of the smooth projective model of y^2 = f(x) at a good p.

    a = -sum_x chi_p(f(x)) minus the point-at-infinity correction chi_p(lead f)
    for even degree.  Valid for any degree >= 1, genus (deg - 1) // 2; in
    genus 0 (degree 1 or 2) the trace is 0.  On a ``_PairedTable`` a half h
    also leaves the sum of its g there, and g reads it.
    """
    tab = table if table is not None and table.p == p else residue_table(p)
    corr = legendre(f.lead, p) if f.degree % 2 == 0 else 0
    if isinstance(tab, _PairedTable):
        if (s := tab.sums.get(f)) is not None:
            return -s - corr
        if (g := tab.halves.get(f)) is not None:
            s, t = _chunk_sums(f, p, tab, True)
            tab.sums[g] = s + t
            return -s - corr
    return -char_sum(f, p, tab) - corr


def good_primes(bad: BadPrimes, n_max: int) -> list[int]:
    """The odd primes p <= n_max outside ``bad``, ascending.

    Every sweep takes its primes from here, so this is where N is checked
    against the hard cap, before the sieve and before any trace.
    """
    if n_max > N_HARD_CAP:
        raise CapExceededError(f"N = {n_max} exceeds the hard cap {N_HARD_CAP}")
    return [p for p in primes_in(3, n_max + 1) if p not in bad]


def _halves(distinct: Sequence[IntPolynomial]) -> dict[int, int]:
    """{k: j} for each g = distinct[k] with no odd term whose half
    h = distinct[j] is in the sweep too, g(x) = h(x^2).  In a chain h(x),
    h(x^2), h(x^4) the last computes on its own: its half is served itself."""
    index = {g: j for j, g in enumerate(distinct)}
    halves = {
        k: index[h]
        for k, g in enumerate(distinct)
        if not any(g.coeffs[1::2]) and (h := IntPolynomial(g.coeffs[::2])) in index
    }
    return {k: j for k, j in halves.items() if j not in halves}


def _fill(
    distinct: Sequence[IntPolynomial], block_primes: Sequence[int], block_cols: list[list]
) -> list[list]:
    """Fill the misses (None) of each column in place and return the columns:
    column k holds a_p(distinct[k]) for p in ``block_primes``.

    A prime with a miss gets one residue table, shared by every polynomial
    that missed, and every computed a_p is checked against the Weil bound
    a^2 <= 4 g^2 p with g = (deg - 1) // 2.  Where an even g = h(x^2) and its
    half h both missed, h goes first and g takes its sum from h's chunk loop
    (``_PairedTable``).
    """
    halves = _halves(distinct)
    order = sorted(range(len(distinct)), key=halves.__contains__)  # each half before its g
    for i, p in enumerate(block_primes):
        missed = [k for k in order if block_cols[k][i] is None]
        if not missed:
            continue
        tab = residue_table(p)
        pairs = {distinct[j]: distinct[k] for k, j in halves.items() if k in missed and j in missed}
        if pairs:
            tab = _PairedTable(*tab, pairs)
        for k in missed:
            g = distinct[k]
            a = hyperelliptic_trace(g, p, tab)
            genus = (g.degree - 1) // 2
            if a * a > 4 * genus * genus * p:
                raise AssertionError(
                    f"Weil bound violated at p={p}: a={a}, genus {genus} (counting bug)"
                )
            block_cols[k][i] = a
    return block_cols


def _process_pool(workers: int):
    """A pool of ``workers`` forked processes.

    Fork, not spawn: a forked worker starts with the parent's modules and
    needs no import of its own.  The CLI forks before it has loaded numpy,
    so with no thread of its own.  A Ctrl-C reaches the whole process group:
    the workers take SIGINT's default action and end at once, without a
    traceback, and the CLI alone reports it.  The pool modules are imported
    here, not at module load, so a run on one thread or with every a_p
    cached never loads them.
    """
    import multiprocessing
    import signal
    from concurrent.futures.process import ProcessPoolExecutor

    return ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_DFL),
    )


def sweep_traces(
    polys: Sequence[IntPolynomial],
    primes: Sequence[int],
    threads: int = 1,
    caches: Iterable[TraceCache] | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (p, (a_p(g) for g in polys)) for the given good primes, ascending.

    The one trace sweep behind every command.  Identical polynomials are
    computed once.  A polynomial g with no odd-degree term whose half h,
    g(x) = h(x^2), is swept too (the Peterson D of ``factor-check`` and
    ``nagao`` when D's half is f) is not evaluated where both miss: h's
    chunk loop also returns T = sum_{u != 0} chi_p(u) chi_p(h(u)), and
    sum_t chi_p(g(t)) = sum_u chi_p(h(u)) + T.  Where only g misses, it is
    evaluated on its own, as is every g whose half is not swept.  The cache
    of each polynomial (caches are matched through ``TraceCache.poly``) is
    read by column, one ``TraceCache.get`` per prime.
    The primes run in blocks of _BLOCK consecutive ones.  A block whose
    values are all cached is yielded straight from its columns: nothing is
    computed or appended for it.  ``_fill`` computes the misses of the other
    blocks.  When threads > 1, those blocks go to a pool of min(threads,
    blocks with a miss) forked worker processes; this generator takes the
    blocks in order, appends each filled one to the caches and then yields
    it, so the output does not depend on the thread count.  With one thread
    a block is filled in this process, only when the consumer reaches it.

    A worker that dies raises WorkerDiedError naming the first prime of the
    block that was lost; the blocks before it are already in the caches.
    """
    distinct = list(dict.fromkeys(polys))
    slot = [distinct.index(g) for g in polys]
    by_poly = {c.poly: c for c in caches or ()}
    stores = [by_poly.get(g) for g in distinct]
    cols = [[None] * len(primes) if c is None else list(map(c.get, primes)) for c in stores]
    blocks = [slice(k, k + _BLOCK) for k in range(0, len(primes), _BLOCK)]
    block_cols = [[col[b] for col in cols] for b in blocks]
    missed = [any(None in col for col in bc) for bc in block_cols]
    todo = (
        repeat(distinct),
        [primes[b] for b, miss in zip(blocks, missed) if miss],
        [bc for bc, miss in zip(block_cols, missed) if miss],
    )
    pool, died = None, ()  # died: what the pool raises when a worker dies
    if threads > 1 and any(missed):
        pool = _process_pool(min(threads, sum(missed)))
        from concurrent.futures.process import BrokenProcessPool as died
    try:
        filled = pool.map(_fill, *todo) if pool else map(_fill, *todo)
        for b, bc, miss in zip(blocks, block_cols, missed):
            if miss:
                try:
                    bc = next(filled)
                except died:
                    raise WorkerDiedError(primes[b.start]) from None
                for c, col in zip(stores, bc):
                    if c is not None:
                        c.append(list(zip(primes[b], col)))
            yield from zip(primes[b], zip(*(bc[k] for k in slot)))
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
