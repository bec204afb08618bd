"""Hyperelliptic curve models y^2 = f(x): bad primes, Frobenius traces, L-polynomials.

The bad primes are those dividing 2 * disc(f) * lead(f), tested by divisibility
(``BadPrimes``): nothing is factored.

Sign convention: ``a`` is always the trace of Frobenius, so #C(F_p) = p + 1 - a
for both genus 1 and genus 2 (the stored ``a`` is the negative of the linear
L-polynomial coefficient in the 1 + a_p T + ... normalization).

The smooth projective model of y^2 = f(x) has one point at infinity when
deg f is odd and 1 + chi_p(lead f) points when deg f is even; the character-sum
trace formula subtracts the excess, ``IntPolynomial.infinity_term``, and is
cross-checked against the exhaustive counting oracle in the test suite.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Sequence

from .cache import TraceCache
from .finite_field import CapExceededError, _numpy, char_sum, char_sums, legendre, primes_in
from .polynomials import IntPolynomial, PolynomialError, _mul

DEFAULT_LPOLY_CAP = 10**4

_BLOCK = 128  # primes per worker block

# The most worker processes a sweep may ask for: a forked pool starts them all at once.
MAX_THREADS = 64


class CurveError(PolynomialError):
    pass


class BadPrimeError(ValueError):
    def __init__(self, p: int):
        super().__init__(f"p = {p} is a prime of bad reduction for this curve")
        self.p = p


class WorkerDiedError(RuntimeError):
    def __init__(self, p: int):
        super().__init__(f"a worker process died; the sweep stopped at the block from p = {p}")
        self.p = p


class BadPrimes(NamedTuple):
    """The bad primes of curves whose leading coefficients multiply to ``leads``: ``p in
    bad`` is ``modulus % p == 0`` for a prime p, and ``bad | other`` holds the primes of either."""

    modulus: int
    leads: int

    def __contains__(self, p: int) -> bool:
        return self.modulus % p == 0

    def __or__(self, other: BadPrimes) -> BadPrimes:
        return BadPrimes(self.modulus * other.modulus, self.leads * other.leads)

    def reason(self, p: int) -> str:
        """Why the bad prime p is bad: "p=2", else "lead" if p divides ``leads``, else "disc"."""
        return "p=2" if p == 2 else "lead" if self.leads % p == 0 else "disc"


class CurveSpec(NamedTuple):
    """A curve y^2 = f(x) of genus 1 or 2 with its bad primes."""

    f: IntPolynomial
    genus: int
    bad_primes: BadPrimes


class TraceRecord(NamedTuple):
    p: int
    a: int


def hyperelliptic_bad_primes(f: IntPolynomial) -> BadPrimes:
    """2 together with the primes dividing disc(f) or the leading coefficient."""
    if f.is_zero or f.degree == 0:
        raise CurveError(f"{f} is constant, not a curve")
    disc = f.discriminant()
    if disc == 0:
        raise CurveError(f"{f} has a repeated root (not squarefree over Q)")
    return BadPrimes(2 * disc * f.lead, f.lead)


def curve_from_poly(f: IntPolynomial) -> CurveSpec:
    """Build a CurveSpec from a squarefree f of degree 3..6."""
    if f.is_zero or not 3 <= f.degree <= 6:
        got = "the zero polynomial" if f.is_zero else f.degree
        raise CurveError(f"degree must be 3..6, got {got}")
    return CurveSpec(f, f.genus, hyperelliptic_bad_primes(f))


def hyperelliptic_trace(f: IntPolynomial, p: int) -> int:
    """Trace of Frobenius of the smooth projective model of y^2 = f(x) at a good p.

    a = -sum_x chi_p(f(x)) - ``f.infinity_term(p)``.  Valid for any degree
    >= 1 (any ``f.genus``); in genus 0 (degree 1 or 2) the trace is 0.
    """
    return traces_at([f], p)[0]


def traces_at(polys: Sequence[IntPolynomial], p: int) -> list[int]:
    """[a_p(g) for g in polys], each as ``hyperelliptic_trace`` defines it, at
    one p.  No Weil check here: at a bad p, where ``hyperelliptic_trace`` is
    called too, |a| can pass 2 g sqrt(p).

    Each base polynomial runs ``char_sums`` once.  An even g(x) = h(x^2)
    whose half h is in ``polys`` too is not a base: sum_t chi_p(g(t)) = S + T
    from h's twisted sums, and only such an h computes T.
    In a chain h(x), h(x^2), h(x^4) the last is a base, since its half is
    not one.
    """
    halves = {g: h for g in polys if not any(g.coeffs[1::2]) for h in polys if h.coeffs == g.coeffs[::2]}
    halves = {g: h for g, h in halves.items() if h not in halves}
    loops = {}  # base -> its (S, T)
    for g in polys:
        if g not in halves and g not in loops:
            loops[g] = char_sums(g, p, g in halves.values())
    sums = [sum(loops[halves[g]]) if g in halves else loops[g][0] for g in polys]
    return [-s - g.infinity_term(p) for g, s in zip(polys, sums)]


def good_primes(bad: BadPrimes, n_max: int) -> list[int]:
    """The odd primes p <= n_max outside ``bad``, ascending.

    Every sweep takes its primes from here, so the sieve's check of N against
    N_HARD_CAP comes before any trace.
    """
    return [p for p in primes_in(3, n_max + 1) if p not in bad]


def _fill(
    distinct: Sequence[IntPolynomial], block_primes: Sequence[int], block_cols: list[list]
) -> list[list]:
    """Fill the misses (None) of each column in place and return the columns:
    column k holds a_p(distinct[k]) for p in ``block_primes``.

    At each prime one ``traces_at`` call computes every polynomial that
    missed, and each value is checked against the Weil bound
    a^2 <= ``IntPolynomial.weil_constant`` * p.
    """
    weil = [g.weil_constant for g in distinct]
    for i, p in enumerate(block_primes):
        missed = [k for k, col in enumerate(block_cols) if col[i] is None]
        for k, a in zip(missed, traces_at([distinct[k] for k in missed], p)):
            if a * a > weil[k] * p:
                raise AssertionError(
                    f"Weil bound violated at p={p}: a={a}, genus {distinct[k].genus} (counting bug)"
                )
            block_cols[k][i] = a
    return block_cols


def _process_pool(workers: int):
    """A pool of ``workers`` forked processes.

    Fork, not spawn: a forked worker starts with the parent's modules and
    needs no import of its own.  numpy is loaded here (``_numpy``), before
    the fork, so the workers inherit it instead of each importing it.  A
    Ctrl-C reaches the whole process group: the workers take SIGINT's
    default action and end at once, without a traceback, and the CLI alone
    reports it.  A process that ignores SIGINT (as a non-interactive shell
    starts its background jobs) has its workers ignore it too, so a group
    SIGINT stops neither.  The pool modules are imported here, not at module
    load, so a run on one thread, with every a_p cached or with one block to
    compute never loads them.
    """
    import multiprocessing
    import signal
    from concurrent.futures.process import ProcessPoolExecutor

    _numpy()
    ignored = signal.getsignal(signal.SIGINT) == signal.SIG_IGN
    return ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN if ignored else signal.SIG_DFL),
    )


def sweep_traces(
    polys: Sequence[IntPolynomial],
    primes: Sequence[int],
    threads: int = 1,
    open_cache: Callable[[IntPolynomial], TraceCache | None] | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (p, (a_p(g) for g in polys)) for the given good primes, ascending.

    The one trace sweep behind every command.  Identical polynomials are
    computed once.  A polynomial g with no odd-degree term whose half h,
    g(x) = h(x^2), is swept too (the Peterson D of ``factor-check`` and
    ``nagao`` when D's half is f) is not evaluated where both miss: h's
    ``char_sums`` also returns T = sum_{u != 0} chi_p(u) chi_p(h(u)), and
    sum_t chi_p(g(t)) = sum_u chi_p(h(u)) + T (``traces_at``).  Where only g
    misses, it is evaluated on its own, as is every g whose half is not
    swept.  As it starts, the sweep opens each distinct polynomial's cache by
    ``open_cache(g)`` (None: no cache), read by column, one ``get`` per prime.
    The primes run in blocks of _BLOCK consecutive ones.  A block whose
    values are all cached is yielded straight from its columns: nothing is
    computed or appended for it.  ``_fill`` computes the misses of the other
    blocks.  When threads > 1 and two blocks or more have a miss, those
    blocks go to a pool of min(threads, blocks with a miss) forked worker
    processes; this generator takes the blocks in order, appends each filled
    one to the caches and then yields it, so the output does not depend on
    the thread count.  Otherwise a block is filled in this process, only
    when the consumer reaches it.
    Each process keeps its own last residue table (``residue_table``).

    threads > MAX_THREADS raises CapExceededError before any cache is opened.
    A worker that dies raises WorkerDiedError naming the first prime of the
    block that was lost; the blocks before it are already in the caches.
    """
    if threads > MAX_THREADS:
        raise CapExceededError(f"thread count {threads} exceeds the cap {MAX_THREADS}")
    distinct = list(dict.fromkeys(polys))
    slot = [distinct.index(g) for g in polys]
    stores = [open_cache(g) if open_cache else None for g in distinct]
    blocks = [slice(k, k + _BLOCK) for k in range(0, len(primes), _BLOCK)]
    block_cols = [
        [[None] * len(primes[b]) if c is None else list(map(c.get, primes[b])) for c in stores]
        for b in blocks
    ]
    missed = [any(None in col for col in bc) for bc in block_cols]
    todo = (
        repeat(distinct),
        [primes[b] for b, miss in zip(blocks, missed) if miss],
        [bc for bc, miss in zip(block_cols, missed) if miss],
    )
    pool, died = None, ()  # died: what the pool raises when a worker dies
    if threads > 1 and sum(missed) > 1:
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
    """#C(F_{p^2}) for the smooth model of y^2 = f, by ``char_sum`` over F_p.

    A nonzero z in F_{p^2} is a square iff its norm z zbar is a square mod p.
    Each z is x + y with x in F_p and y^2 = t, where t = 0 or t is one of the
    (p-1)/2 non-residues, each for two y.  With f(x +- y) = A_t(x) +- y B_t(x),
    the norm of f(z) is G_t(x) = A_t^2 - t B_t^2, so the affine points number
    p^2 + S(G_0) + 2 sum_t S(G_t), S(g) = sum_x chi_p(g(x)).  Every nonzero
    lead is a square in F_{p^2}, so an even degree has two points at infinity.
    """
    # f(x + y) = sum_j D_j(x) y^j, D_j = f^(j)/j! padded to deg f + 1 terms; column i
    # of the even (odd) j is the x^i coefficient of A_t (B_t), a polynomial in t = y^2.
    taylor = [[math.comb(i, j) * c for i, c in enumerate(f.coeffs)][j:] + [0] * j for j in range(f.degree + 1)]
    even = [IntPolynomial(col) for col in zip(*taylor[::2])]
    odd = [IntPolynomial(col) for col in zip(*taylor[1::2])]
    total = p * p + (1 if f.degree % 2 else 1 + (f.lead % p != 0))
    for t in [0, *(t for t in range(1, p) if legendre(t, p) == -1)]:
        A = [h(t) % p for h in even]
        B = [h(t) % p for h in odd]
        G = IntPolynomial(u - t * v for u, v in zip(_mul(A, A), _mul(B, B)))
        total += (2 if t else 1) * char_sum(G, p)
    return total


def genus2_b(f: IntPolynomial, p: int, a: int) -> int:
    """The L-coefficient b = (a^2 - (p^2 + 1 - #C(F_{p^2}))) / 2 of a genus-2
    curve at a good p with trace a: an exact integer, checked against |b| <= 6p."""
    num = a * a - (p * p + 1 - _count_fp2(f, p))
    if num % 2:
        raise AssertionError("parity failure in b (counting bug)")
    b = num // 2
    if abs(b) > 6 * p:
        raise AssertionError(f"|b| <= 6p violated at p={p}: b={b}")
    return b


def normalized_angle(rec: tuple[int, int]) -> float:
    """theta_p = arccos(a / 2 sqrt(p)) in [0, pi] of a genus-1 trace (p, a)."""
    p, a = rec
    z = a / (2.0 * math.sqrt(p))
    if abs(z) > 1.0:
        raise AssertionError(f"Hasse bound violated at p={p}: a={a}")
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
    return TraceRecord(p, p + 1 - (affine + infinity))
