"""Quadratic-twist surfaces D(T) y^2 = f(x): fibral traces, average-trace series,
the Peterson twist construction, and Jacobian-factorization certification.

The average trace at p is

    A_p = (1/p) sum_t chi_p(D(t)) * a_p(f),

an exact rational with denominator p.  The two partial-sum estimators are the
log-weighted sum S1(N) = (1/N) sum_{p<=N} -A_p log p and the plain average
S2(N) = (1/pi(N)) sum_{p<=N} -A_p; at the limit both equal the predicted rank.
S2 is the exact mean rounded once, by the ``stats`` helper of the trace
moments, and S1 is ``math.fsum`` of the doubles -A_p log p, divided by N.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import reduce
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .curves import (
    BadPrimeError,
    BadPrimes,
    CurveError,
    good_primes,
    hyperelliptic_bad_primes,
    hyperelliptic_trace,
    sweep_traces,
)
from .finite_field import CapExceededError, legendre
from .polynomials import IntPolynomial, PolynomialError, _mul
from .stats import _K, _certified_mean

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
    a_p(f) and a_p(D): here each chi_p(D(t)) is a ``legendre`` of its own.
    """
    from fractions import Fraction

    if p in s.bad_primes:
        raise BadPrimeError(p)
    chi_sum = sum(legendre(s.D(t), p) for t in range(p))
    return Fraction(chi_sum * hyperelliptic_trace(s.f, p), p)


class NagaoSeries(NamedTuple):
    n_grid: tuple[int, ...]
    s1: tuple[float, ...]
    s2: tuple[float, ...]
    n_primes: tuple[int, ...]


def geometric_grid(n_max: int, points: int = 20) -> list[int]:
    """Cutoff grid: geometric, `points` <= n_max values from min(1000, n_max) to n_max."""
    if points < 1:
        raise ValueError(f"a geometric grid needs at least 1 point, got {points}")
    lo = min(1000, n_max)
    if points == 1 or lo == n_max:
        return [n_max]
    if points > n_max:
        raise ValueError(f"a geometric grid in [2, {n_max}] takes at most {n_max} points, got {points}")
    ratio = (n_max / lo) ** (1.0 / (points - 1))
    return sorted({min(n_max, max(lo, round(lo * ratio**k))) for k in range(points)})


def nagao_series(
    s: TwistSurfaceSpec,
    n_max: int,
    grid: Sequence[int],
    sweep=sweep_traces,
) -> NagaoSeries:
    """Both partial-sum estimators on a cutoff grid, over good primes <= n_max.

    One ``sweep`` of [f, D] gives a_p(f) and a_p(D); the chi-sum over D is
    sum_t chi_p(D(t)) = -a_p(D) - ``D.infinity_term(p)``, so -p A_p is
    n = a_f (a_D + ``D.infinity_term(p)``).  S2 is the exact mean of the n / p
    rounded by ``stats._certified_mean``, each p and n kept for its fallback.
    S1 is ``math.fsum`` of the doubles t = (n / p) log p, over the cutoff: a
    nonzero |t| > 1/p > 2^-24 is a multiple of 2^-76, so the integers t 2^K
    add exactly, and one int true division rounds their sum as fsum does.
    """
    from array import array

    grid = sorted(set(grid))
    if not grid or grid[0] < 2 or grid[-1] > n_max:
        raise ValueError("a grid needs at least one cutoff, and every cutoff in [2, N]")
    log, scale = math.log, float(1 << _K)
    w = u = inexact = 0  # fixed-point sums of -A_p log p (w) and -A_p (u); inexact floors in u
    ps, ns = array("q"), array("q")
    closed: list[tuple[int, int, int, int]] = []  # (w, u, inexact, primes summed) at each cutoff
    cuts = [*grid, math.inf]

    for p, (a_f, a_D) in sweep([s.f, s.D], good_primes(s.bad_primes, n_max)):
        while cuts[len(closed)] < p:
            closed.append((w, u, inexact, len(ns)))
        n = a_f * (a_D + s.D.infinity_term(p))
        ps.append(p)
        ns.append(n)
        w += int(n / p * log(p) * scale)
        u += (n << _K) // p
        inexact += n % p != 0
    closed += [(w, u, inexact, len(ns))] * (len(grid) - len(closed))
    return NagaoSeries(
        tuple(grid),
        tuple(w / (1 << _K) / cut for (w, *_), cut in zip(closed, grid)),
        tuple(_certified_mean(u, e, k, islice(zip(ns, ps), k)) if k else 0.0 for _, u, e, k in closed),
        tuple(k for *_, k in closed),
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
    sweep=sweep_traces,
) -> FactorizationReport:
    """Certify a_p(J_D) = r * a_p(J_f) + sum_i a_p(E_i) at every good odd prime <= n_max.

    A necessary condition for J_D ~ J_f^r x prod E_i (trace identity on the
    L-polynomial linear coefficients), not a proof of the isogeny.  With
    ``others`` given, f and every E_i must be genus-1 curves (else CurveError).
    deg D > MAX_D_DEGREE raises CapExceededError.  Stops at, and reports, the
    least violating prime.  One ``sweep`` of [D, f, *others] gives the traces.
    """
    _check_D_degree(D)
    g = next((g for g in (f, *others) if g.genus != 1), None)
    if others and g is not None:
        raise CurveError(
            f"{g} has degree {g.degree}: with --s-curves, --f and s-curves need degree 3 or 4"
        )
    polys = [D, f, *others]
    bad = reduce(operator.or_, map(hyperelliptic_bad_primes, polys))
    checked = 0
    for p, (a_D, a_f, *a_others) in sweep(polys, good_primes(bad, n_max)):
        if a_D != r * a_f + sum(a_others):
            return FactorizationReport(False, p, checked)
        checked += 1
    return FactorizationReport(True, None, checked)
