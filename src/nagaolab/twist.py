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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cache import TraceCache
from .curves import (
    N_HARD_CAP,
    BadPrimeError,
    CapExceededError,
    char_sum,  # re-exported: the one chi-sum kernel lives in curves
    good_primes,
    hyperelliptic_bad_primes,
    hyperelliptic_trace,
    sweep_traces,
)
from .finite_field import ResidueTable, legendre, poly_eval_mod, residue_table
from .polynomials import (
    IntPolynomial,
    PolynomialError,
    clear_denominators,
    frac_add,
    frac_coeffs,
    frac_compose,
    frac_mul,
    frac_pow,
    frac_scale,
    frac_trim,
)


class PetersonError(ValueError):
    pass


@dataclass(frozen=True)
class TwistSurfaceSpec:
    """The surface D(T) y^2 = f(x) with the union of both curves' bad primes."""

    f: IntPolynomial
    D: IntPolynomial
    bad_primes: frozenset[int]


def twist_surface(f: IntPolynomial, D: IntPolynomial) -> TwistSurfaceSpec:
    bad = hyperelliptic_bad_primes(f) | hyperelliptic_bad_primes(D)
    return TwistSurfaceSpec(f, D, frozenset(bad))


def fiber_trace(s: TwistSurfaceSpec, p: int, t: int, table: ResidueTable | None = None) -> int:
    """Trace at the fiber T = t: chi_p(D(t)) * a_p(y^2 = f); 0 when p | D(t)."""
    if p in s.bad_primes:
        raise BadPrimeError(p)
    tab = table if table is not None and table.p == p else residue_table(p)
    chi = tab.chi_of(poly_eval_mod(s.D.coeffs, t, p))
    if chi == 0:
        return 0
    return chi * hyperelliptic_trace(s.f, p, tab)


def average_trace(s: TwistSurfaceSpec, p: int, table: ResidueTable | None = None) -> Fraction:
    """A_p as an exact rational with denominator p, summed fiber by fiber.

    The test oracle for ``nagao_series``, which derives the same value from
    a_p(f) and a_p(D).
    """
    if p in s.bad_primes:
        raise BadPrimeError(p)
    tab = table if table is not None and table.p == p else residue_table(p)
    a_f = hyperelliptic_trace(s.f, p, tab)
    total = 0
    for t in range(p):
        chi = tab.chi_of(poly_eval_mod(s.D.coeffs, t, p))
        total += chi * a_f
    return Fraction(total, p)


@dataclass(frozen=True)
class NagaoSeries:
    n_grid: tuple[int, ...]
    s1: tuple[float, ...]
    s2: tuple[float, ...]
    n_primes: tuple[int, ...]
    records: tuple[tuple[int, Fraction], ...]  # (p, A_p) ascending in p


class _Kahan:
    """Compensated accumulator; order-sensitive, so feed it primes ascending."""

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def geometric_grid(n_max: int, points: int = 20, lo: int = 1000) -> list[int]:
    """Default cutoff grid: geometric, `points` values from lo to n_max."""
    lo = min(lo, n_max)
    if points <= 1 or lo == n_max:
        return [n_max]
    ratio = (n_max / lo) ** (1.0 / (points - 1))
    grid = sorted({min(n_max, max(lo, round(lo * ratio**k))) for k in range(points)})
    return grid


def nagao_series(
    s: TwistSurfaceSpec,
    n_max: int,
    grid: Sequence[int] | None = None,
    threads: int = 1,
    caches: Iterable[TraceCache] | None = None,
) -> NagaoSeries:
    """Both partial-sum estimators on a cutoff grid, over good primes <= n_max.

    One sweep of [f, D] gives a_p(f) and a_p(D); the chi-sum over D is
    sum_t chi_p(D(t)) = -a_p(D) - [deg D even] chi_p(lead D).
    """
    if n_max > N_HARD_CAP:
        raise CapExceededError(f"N = {n_max} exceeds the hard cap {N_HARD_CAP}")
    grid = sorted(set(grid)) if grid else geometric_grid(n_max)
    if any(g < 2 or g > n_max for g in grid):
        raise ValueError("grid cutoffs must lie in [2, N]")
    even_D = s.D.degree % 2 == 0
    records: list[tuple[int, Fraction]] = []
    sum_w = _Kahan()  # sum of -A_p log p
    sum_u = _Kahan()  # sum of -A_p
    count = 0
    s1: list[float] = []
    s2: list[float] = []
    n_primes: list[int] = []

    def close_cutoffs(below: float) -> None:  # report every open cutoff < below
        while len(s1) < len(grid) and grid[len(s1)] < below:
            s1.append(sum_w.s / grid[len(s1)])
            s2.append(sum_u.s / count if count else 0.0)
            n_primes.append(count)

    sweep = sweep_traces([s.f, s.D], good_primes(s.bad_primes, n_max), threads, caches)
    for p, (a_f, a_D) in sweep:
        close_cutoffs(p)
        cs = -a_D - (legendre(s.D.lead, p) if even_D else 0)
        a_avg = Fraction(a_f * cs, p)
        records.append((p, a_avg))
        v = -float(a_avg)
        sum_w.add(v * math.log(p))
        sum_u.add(v)
        count += 1
    close_cutoffs(math.inf)
    return NagaoSeries(tuple(grid), tuple(s1), tuple(s2), tuple(n_primes), tuple(records))


# ---------------------------------------------------------------------------
# Peterson construction and factorization certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MobiusTransform:
    """x -> (a x + b) / (c x + d) with integer entries and ad - bc != 0."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c == 0:
            raise PolynomialError("degenerate Moebius transform (ad - bc = 0)")

    @property
    def has_pole_at_infinity(self) -> bool:
        return self.c == 0

    def at_infinity(self) -> Fraction:
        if self.c == 0:
            raise PetersonError("sigma has a pole at infinity")
        return Fraction(self.a, self.c)

    def inverse_at_infinity(self) -> Fraction:
        if self.c == 0:
            raise PetersonError("sigma has a pole at infinity")
        return Fraction(-self.d, self.c)

    def __call__(self, x: Fraction) -> Fraction:
        den = self.c * x + self.d
        if den == 0:
            raise ZeroDivisionError("pole of the Moebius transform")
        return Fraction(self.a * x + self.b, 1) / den


def permutes_roots(sigma: MobiusTransform, f: IntPolynomial) -> bool:
    """Exact check that sigma permutes the roots of f.

    The numerator of f(sigma(x)) is N(x) = sum_i f_i (ax+b)^i (cx+d)^(n-i); sigma
    permutes the roots iff N is a scalar multiple of f of the same degree.
    """
    n = f.degree
    num_ax = [Fraction(sigma.b), Fraction(sigma.a)]
    num_cx = [Fraction(sigma.d), Fraction(sigma.c)]
    acc: list[Fraction] = []
    for i, fc in enumerate(f.coeffs):
        term = frac_mul(frac_pow(num_ax, i), frac_pow(num_cx, n - i))
        acc = frac_add(acc, frac_scale(term, Fraction(fc)))
    acc = frac_trim(acc)
    if len(acc) != n + 1:
        return False
    lam = acc[-1] / f.lead
    return acc == frac_scale(frac_coeffs(f), lam)


@dataclass(frozen=True)
class PetersonResult:
    D: IntPolynomial  # integral model, equal to multiplier^2 times the rational D(T)
    multiplier: int


def peterson_D(f: IntPolynomial, sigma: MobiusTransform) -> PetersonResult:
    """The twisting polynomial D(T) = f(T^2 / f(sigma(inf)) + sigma^{-1}(inf)).

    The Jacobian of y^2 = D is isogenous to two copies of the Jacobian of
    y^2 = f, certifiable through the trace identity a_p(J_D) = 2 a_p(J_f).
    The rational D is returned cleared to an integral model scaled by the
    square of ``multiplier`` (a square twist, so all chi-sums are unchanged).
    """
    if f.is_zero or f.degree not in (3, 5):
        raise PetersonError("f must have degree 3 or 5")
    if sigma.has_pole_at_infinity:
        raise PetersonError("sigma has a pole at infinity")
    if not permutes_roots(sigma, f):
        raise PetersonError("sigma does not permute the roots of f")
    c0 = f(sigma.at_infinity())
    if c0 == 0:
        raise PetersonError("f(sigma(infinity)) = 0")
    e = sigma.inverse_at_infinity()
    inner = [e, Fraction(0), Fraction(1) / c0]  # T^2 / c0 + e
    rational_d = frac_compose(frac_coeffs(f), inner)
    _, m = clear_denominators(rational_d)
    d_int = IntPolynomial(tuple(int(v * m * m) for v in rational_d))
    if not d_int.is_squarefree():
        raise PetersonError("constructed D(T) is not squarefree")
    return PetersonResult(d_int, m)


@dataclass(frozen=True)
class FactorizationReport:
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
    ``others`` given, f and every E_i must be genus-1 curves.  Stops at, and
    reports, the least violating prime.
    """
    if others and any(not 3 <= g.degree <= 4 for g in (f, *others)):
        raise PolynomialError("E and all E_i must be genus-1 curves")
    polys = [D, f, *others]
    bad = frozenset().union(*(hyperelliptic_bad_primes(g) for g in polys))
    checked = 0
    for p, (a_D, a_f, *a_others) in sweep_traces(polys, good_primes(bad, n_max), threads, caches):
        if a_D != r * a_f + sum(a_others):
            return FactorizationReport(False, p, checked)
        checked += 1
    return FactorizationReport(True, None, checked)
