"""Quadratic-twist surfaces D(T) y^2 = f(x): fibral traces, average-trace series,
the Peterson twist construction, and Jacobian-factorization certification.

The average trace at p is

    A_p = (1/p) sum_t chi_p(D(t)) * a_p(f),

an exact rational with denominator p.  The two partial-sum estimators are the
log-weighted sum S1(N) = (1/N) sum_{p<=N} -A_p log p and the plain average
S2(N) = (1/pi(N)) sum_{p<=N} -A_p; at the limit both equal the predicted rank.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import reduce
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .cache import TraceCache
from .curves import (
    BadPrimeError,
    BadPrimes,
    CapExceededError,
    CurveError,
    good_primes,
    hyperelliptic_bad_primes,
    hyperelliptic_trace,
    sweep_traces,
)
from .finite_field import legendre, residue_table
from .polynomials import IntPolynomial, PolynomialError

if TYPE_CHECKING:
    from fractions import Fraction

# The largest degree of a twisting polynomial D, checked before its
# discriminant, whose cost grows fast with the degree: 10 is the degree of the
# Peterson D of a quintic, the largest that peterson_D builds.
MAX_D_DEGREE = 10


class PetersonError(ValueError):
    pass


def _check_D_degree(D: IntPolynomial) -> None:
    if not D.is_zero and D.degree > MAX_D_DEGREE:
        raise CapExceededError(f"D has degree {D.degree}, above the cap {MAX_D_DEGREE}")


class TwistSurfaceSpec(NamedTuple):
    """The surface D(T) y^2 = f(x) with the union of both curves' bad primes."""

    f: IntPolynomial
    D: IntPolynomial
    bad_primes: BadPrimes


def twist_surface(f: IntPolynomial, D: IntPolynomial) -> TwistSurfaceSpec:
    """The surface D(T) y^2 = f(x); CapExceededError for deg D > MAX_D_DEGREE."""
    _check_D_degree(D)
    return TwistSurfaceSpec(f, D, hyperelliptic_bad_primes(f) | hyperelliptic_bad_primes(D))


def average_trace(s: TwistSurfaceSpec, p: int) -> Fraction:
    """A_p as an exact rational with denominator p, summed fiber by fiber.

    The test oracle for ``nagao_series``, which derives the same value from
    a_p(f) and a_p(D).
    """
    from fractions import Fraction

    if p in s.bad_primes:
        raise BadPrimeError(p)
    tab = residue_table(p)
    chi_sum = int(tab.chi[[s.D(t) % p for t in range(p)]].sum(dtype="int64"))
    return Fraction(chi_sum * hyperelliptic_trace(s.f, p, tab), p)


class NagaoSeries(NamedTuple):
    n_grid: tuple[int, ...]
    s1: tuple[float, ...]
    s2: tuple[float, ...]
    n_primes: tuple[int, ...]
    scaled: tuple[tuple[int, int], ...]  # (p, p * A_p) ascending in p

    @property
    def records(self) -> tuple[tuple[int, Fraction], ...]:
        """(p, A_p) ascending in p, as exact rationals built on demand."""
        from fractions import Fraction

        return tuple((p, Fraction(pa, p)) for p, pa in self.scaled)


def geometric_grid(n_max: int, points: int = 20) -> list[int]:
    """Cutoff grid: geometric, `points` values from min(1000, n_max) to n_max."""
    if points < 1:
        raise ValueError(f"a geometric grid needs at least 1 point, got {points}")
    lo = min(1000, n_max)
    if points == 1 or lo == n_max:
        return [n_max]
    ratio = (n_max / lo) ** (1.0 / (points - 1))
    grid = sorted({min(n_max, max(lo, round(lo * ratio**k))) for k in range(points)})
    return grid


def nagao_series(
    s: TwistSurfaceSpec,
    n_max: int,
    grid: Sequence[int],
    threads: int = 1,
    caches: Iterable[TraceCache] | None = None,
) -> NagaoSeries:
    """Both partial-sum estimators on a cutoff grid, over good primes <= n_max.

    One sweep of [f, D] gives a_p(f) and a_p(D); the chi-sum over D is
    sum_t chi_p(D(t)) = -a_p(D) - [deg D even] chi_p(lead D).
    """
    grid = sorted(set(grid))
    if not grid or grid[0] < 2 or grid[-1] > n_max:
        raise ValueError("a grid needs at least one cutoff, and every cutoff in [2, N]")
    even_D = s.D.degree % 2 == 0
    lead_D = s.D.lead
    log = math.log
    scaled: list[tuple[int, int]] = []
    # Kahan-compensated sums of -A_p log p (w) and of -A_p (u), fed ascending in p.
    sum_w = comp_w = sum_u = comp_u = 0.0
    closed: list[tuple[float, float, int]] = []  # (sum_w, sum_u, primes summed) at each cutoff
    cuts = [*grid, math.inf]

    sweep = sweep_traces([s.f, s.D], good_primes(s.bad_primes, n_max), threads, caches)
    for p, (a_f, a_D) in sweep:
        while cuts[len(closed)] < p:
            closed.append((sum_w, sum_u, len(scaled)))
        # n = a_f (a_D + [deg D even] chi_p(lead D)) = -p A_p, and n / p is
        # the correctly rounded -A_p.
        n = a_f * (a_D + legendre(lead_D, p)) if even_D else a_f * a_D
        scaled.append((p, -n))
        v = n / p
        y = v * log(p) - comp_w
        t = sum_w + y
        comp_w = (t - sum_w) - y
        sum_w = t
        y = v - comp_u
        t = sum_u + y
        comp_u = (t - sum_u) - y
        sum_u = t
    closed += [(sum_w, sum_u, len(scaled))] * (len(grid) - len(closed))
    return NagaoSeries(
        tuple(grid),
        tuple(w / cut for (w, _, _), cut in zip(closed, grid)),
        tuple(u / k if k else 0.0 for _, u, k in closed),
        tuple(k for _, _, k in closed),
        tuple(scaled),
    )


# ---------------------------------------------------------------------------
# Peterson construction and factorization certification
# ---------------------------------------------------------------------------


class MobiusTransform(namedtuple("MobiusTransform", "a b c d")):
    """x -> (a x + b) / (c x + d) with integer entries and ad - bc != 0."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if a * d - b * c == 0:
            raise PolynomialError("degenerate Moebius transform (ad - bc = 0)")
        return super().__new__(cls, a, b, c, d)


def _mul(p: list, q: list) -> list:
    """Product of two coefficient lists (constant term first), exact in their type."""
    out = [0] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def permutes_roots(sigma: MobiusTransform, f: IntPolynomial) -> bool:
    """Exact check that sigma permutes the roots of f.

    The numerator of f(sigma(x)) is N(x) = sum_i f_i (ax+b)^i (cx+d)^(n-i); sigma
    permutes the roots iff N is a scalar multiple of f of the same degree.
    """
    n = f.degree
    num, den = [sigma.b, sigma.a], [sigma.d, sigma.c]
    N = [0] * (n + 1)
    for i, fi in enumerate(f.coeffs):
        term = [fi]
        for factor in [num] * i + [den] * (n - i):
            term = _mul(term, factor)
        N = [u + v for u, v in zip(N, term)]
    return N[n] != 0 and all(v * f.lead == c * N[n] for v, c in zip(N, f.coeffs))


class PetersonResult(NamedTuple):
    D: IntPolynomial  # integral model, equal to multiplier^2 times the rational D(T)
    multiplier: int


def peterson_D(f: IntPolynomial, sigma: MobiusTransform) -> PetersonResult:
    """The twisting polynomial D(T) = f(T^2 / f(sigma(inf)) + sigma^{-1}(inf)).

    The Jacobian of y^2 = D is isogenous to two copies of the Jacobian of
    y^2 = f, certifiable through the trace identity a_p(J_D) = 2 a_p(J_f).
    The rational D is returned cleared to an integral model scaled by the
    square of ``multiplier`` (a square twist, so all chi-sums are unchanged).
    """
    from fractions import Fraction

    if f.is_zero or f.degree not in (3, 5):
        raise PetersonError("f must have degree 3 or 5")
    if sigma.c == 0:
        raise PetersonError("sigma has a pole at infinity")
    if not permutes_roots(sigma, f):
        raise PetersonError("sigma does not permute the roots of f")
    # sigma(inf) = a/c, and c0 != 0: permutes_roots checked N[n] = c^n f(a/c) != 0.
    c0 = f(Fraction(sigma.a, sigma.c))
    e = Fraction(-sigma.d, sigma.c)  # sigma^{-1}(inf) = -d/c
    inner = [e, 0, 1 / c0]  # T^2 / c0 + e
    D = [Fraction(f.lead)]
    for fi in reversed(f.coeffs[:-1]):  # Horner: D = D * inner + f_i
        D = _mul(D, inner)
        D[0] += fi
    m = math.lcm(*(c.denominator for c in D))
    d_int = IntPolynomial(tuple(int(m * m * c) for c in D))
    if not d_int.is_squarefree():
        raise PetersonError("constructed D(T) is not squarefree")
    return PetersonResult(d_int, m)


class FactorizationReport(NamedTuple):
    passed: bool
    first_failing_prime: int | None
    primes_checked: int


def verify_factorization(
    D: IntPolynomial,
    f: IntPolynomial,
    r: int,
    n_max: int,
    others: Sequence[IntPolynomial] = (),
    threads: int = 1,
    caches: Iterable[TraceCache] | None = None,
) -> FactorizationReport:
    """Certify a_p(J_D) = r * a_p(J_f) + sum_i a_p(E_i) at every good odd prime <= n_max.

    A necessary condition for J_D ~ J_f^r x prod E_i (trace identity on the
    L-polynomial linear coefficients), not a proof of the isogeny.  With
    ``others`` given, f and every E_i must be genus-1 curves (else CurveError).
    deg D > MAX_D_DEGREE raises CapExceededError.  Stops at, and reports, the
    least violating prime.
    """
    _check_D_degree(D)
    wrong = [g for g in (f, *others) if not 3 <= g.degree <= 4]
    if others and wrong:
        g = wrong[0]
        raise CurveError(
            f"{g} has degree {g.degree}: with --s-curves, --f and s-curves need degree 3 or 4"
        )
    polys = [D, f, *others]
    bad = reduce(operator.or_, map(hyperelliptic_bad_primes, polys))
    checked = 0
    for p, (a_D, a_f, *a_others) in sweep_traces(polys, good_primes(bad, n_max), threads, caches):
        if a_D != r * a_f + sum(a_others):
            return FactorizationReport(False, p, checked)
        checked += 1
    return FactorizationReport(True, None, checked)
