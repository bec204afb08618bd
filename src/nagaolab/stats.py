"""Sato-Tate statistics: empirical moments, equidistribution distances, the
Haar-measure moment oracles (by adaptive Simpson quadrature), the Sato-Tate
groups of elliptic curves and of abelian surfaces over Q, and classification
by second moment.

The key identity consumed here: for each group in the table, the second moment
E[a_p^2/p] equals the real rank of the endomorphism algebra, which equals the
predicted generic rank of the self-twist surface f(T) y^2 = f(x).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import namedtuple
from typing import Callable, Iterable, NamedTuple, Sequence

from .polynomials import IntPolynomial, parse_polynomial

MOMENT_CLASSES = (1, 2, 4)
CLASS_TOLERANCE = 0.25


class STGroupRecord(NamedTuple):
    name: str
    endo_algebra: str
    endo_rank: int
    second_moment: int
    example_curve: IntPolynomial


def load_st_table() -> tuple[STGroupRecord, ...]:
    """The 34 Sato-Tate group rows for abelian surfaces over Q, from the
    versioned data file shipped with the package."""
    from importlib import resources

    text = resources.files("nagaolab").joinpath("data/st_groups_q.txt").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, endo, rank, moment, curve = line.split(";")
        rows.append(
            STGroupRecord(name, endo, int(rank), int(moment), parse_polynomial(curve))
        )
    return tuple(rows)


# -- angle measures on [0, pi] ----------------------------------------------

SATO_TATE = "sato-tate"
UNIFORM = "uniform"
HALF_UNIFORM_DIRAC = "half-uniform-dirac"

# The Sato-Tate groups of elliptic curves over Q with their second moments,
# the Haar moments of the sato-tate, half-uniform-dirac and uniform measures.
GENUS1_GROUPS = (("SU(2)", 1), ("N(U(1))", 1), ("U(1)", 2))


# Each angle law once, keyed by its tag: the density of its continuous part,
# its CDF (the atom included) and the mass of its atom at pi/2, in that order.
_LAWS = {
    SATO_TATE: (
        lambda t: (2.0 / math.pi) * math.sin(t) ** 2, lambda t: (t - math.sin(t) * math.cos(t)) / math.pi, 0.0
    ),
    UNIFORM: (lambda t: 1.0 / math.pi, lambda t: t / math.pi, 0.0),
    HALF_UNIFORM_DIRAC: (
        lambda t: 1.0 / (2.0 * math.pi), lambda t: t / (2.0 * math.pi) + (0.5 if t >= math.pi / 2 else 0.0), 0.5
    ),
}
MEASURE_TAGS = tuple(_LAWS)


class STMeasure1D(namedtuple("STMeasure1D", "tag density cdf atom_mass")):
    """An angle law on [0, pi]: its tag, one of MEASURE_TAGS, with its row of
    _LAWS.  Any other tag raises ValueError."""

    __slots__ = ()

    def __new__(cls, tag: str):
        if tag not in MEASURE_TAGS:
            raise ValueError(f"unknown measure tag {tag!r}")
        return super().__new__(cls, tag, *_LAWS[tag])

    def __getnewargs__(self):  # copy and pickle rebuild the law from its tag
        return (self.tag,)


# -- Haar-measure oracles by adaptive Simpson quadrature ---------------------


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Integral of fn over [a, b] with absolute error budget tol."""
    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _refine(fn, a, b, fa, fm, fb, whole, tol, 50)


def _refine(fn, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _refine(fn, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _refine(
        fn, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def haar_second_moment(measure: STMeasure1D) -> float:
    """E[a^2/p] = integral of 4 cos^2(theta) against the measure.

    The pi/2 atom contributes 4 cos^2(pi/2) * mass = 0.  Closed forms:
    sato-tate -> 1, uniform -> 2, half-uniform-dirac -> 1.
    """
    density = measure.density
    return adaptive_simpson(lambda t: 4.0 * math.cos(t) ** 2 * density(t), 0.0, math.pi, 1e-10)


def usp4_expectation(g) -> float:
    """Expectation of g(theta1, theta2) under the full-group Haar angle density
    (8/pi^2) (cos t1 - cos t2)^2 sin^2 t1 sin^2 t2 on [0, pi]^2, by iterated
    1-D adaptive Simpson: error budget 1e-9 for each inner integral over t2,
    1e-7 for the outer one over t1."""

    def integrand(t1: float, t2: float) -> float:
        dens = (
            (8.0 / math.pi**2)
            * (math.cos(t1) - math.cos(t2)) ** 2
            * math.sin(t1) ** 2
            * math.sin(t2) ** 2
        )
        return g(t1, t2) * dens

    def inner(t1: float) -> float:
        return adaptive_simpson(lambda t2: integrand(t1, t2), 0.0, math.pi, 1e-9)

    return adaptive_simpson(inner, 0.0, math.pi, 1e-7)


def haar_second_moment_usp4() -> float:
    """Second moment of the normalized trace 2cos(t1) + 2cos(t2) for the generic
    genus-2 distribution; equals 1."""
    return usp4_expectation(lambda t1, t2: 4.0 * (math.cos(t1) + math.cos(t2)) ** 2)


# -- empirical statistics ----------------------------------------------------


class MomentReport(NamedTuple):
    n_primes: int
    second_moment: float
    fourth_moment: float
    zero_fraction: float


def empirical_moments(traces: Sequence[tuple[int, int]]) -> MomentReport:
    """Second/fourth moments of a_p/sqrt(p) and the exact zero fraction, over
    the traces (p, a).

    Each moment is the exact mean of its terms rounded once by
    ``_certified_mean`` after one linear pass over the traces (a term with
    a = 0 is exact), so it does not depend on the order of the traces.
    """
    if not traces:
        raise ValueError("empirical_moments requires a nonempty trace sequence")
    s2 = s4 = zeros = 0
    for p, a in traces:
        a2 = a * a
        s2 += (a2 << _K) // p
        s4 += (a2 * a2 << _K) // (p * p)
        zeros += a == 0
    n = len(traces)
    m2 = _certified_mean(s2, n - zeros, n, ((a * a, p) for p, a in traces))
    m4 = _certified_mean(s4, n - zeros, n, ((a**4, p * p) for p, a in traces))
    return MomentReport(n, m2, m4, zeros / n)


# Fraction bits of the fixed-point terms that _certified_mean rounds.
_K = 192


def _certified_mean(s: int, inexact: int, n: int, terms: Iterable[tuple[int, int]]) -> float:
    """float(sum(num / den) / n) over the n terms (num, den), correctly
    rounded, from s, the sum of the floors (num << K) // den, of which at most
    ``inexact`` were not exact: the mean lies in [s, s + inexact] / (n 2^K).
    Rounding is monotone, so when both ends round to the same double (always
    if inexact = 0), that is the mean's.  Otherwise (a mean within about 2^-K
    of a rounding boundary) the exact Fraction sum of ``terms``, read only
    then, decides in O(n^2) time: each gcd is on a growing denominator.
    """
    scale = n << _K
    mean = s / scale  # int true division rounds correctly
    if mean == (s + inexact) / scale:
        return mean
    from fractions import Fraction

    return float(sum((Fraction(num, den) for num, den in terms), Fraction(0)) / n)


def ks_distance(angles: Sequence[float], measure: STMeasure1D) -> float:
    """Kolmogorov-Smirnov distance between the empirical angle law and a measure.

    For the atom-carrying measure the continuous part is compared after removing
    samples that sit exactly on the atom (theta = pi/2, i.e. a_p = 0), and the
    atom's mass mismatch |fraction at pi/2 - mass| enters as a separate term;
    the reported distance is the max of the two.

    One sort and two reductions over the CDF values F_i: (i+1)/n - F_i >= i/n - F_i,
    so max(F_i - i/n, (i+1)/n - F_i) is the larger of their absolute values.
    """
    if len(angles) == 0:
        raise ValueError("ks_distance requires a nonempty sample")
    xs = sorted(angles)
    atom_dev = 0.0
    if measure.atom_mass > 0.0:
        # the atom's samples are a run of the sorted list
        lo, hi = bisect_left(xs, math.pi / 2), bisect_right(xs, math.pi / 2)
        atom_dev = abs((hi - lo) / len(xs) - measure.atom_mass)
        del xs[lo:hi]
        if not xs:
            return atom_dev
        # continuous part of the limit law, renormalized, is uniform on [0, pi]
        measure = STMeasure1D(UNIFORM)
    n = len(xs)
    steps = [i / n for i in range(n + 1)]
    cdf = list(map(measure.cdf, xs))
    return max(atom_dev, max(map(operator.sub, cdf, steps)), max(map(operator.sub, steps[1:], cdf)))


# -- classification --------------------------------------------------------


def moment_class(value: float) -> int | None:
    """The moment class in {1, 2, 4} within CLASS_TOLERANCE of value, or None.

    The classes lie at least 1 apart, so at most one is within tolerance; the
    Sato-Tate candidates of a curve are the groups of its genus whose second
    moment equals this class.
    """
    for m in MOMENT_CLASSES:
        if abs(value - m) <= CLASS_TOLERANCE:
            return m
    return None
