"""Sato-Tate statistics: empirical moments, equidistribution distances, the
Haar-measure moment oracles, the Sato-Tate groups of elliptic curves and of
abelian surfaces over Q, and classification by second moment.

The key identity consumed here: for each group in the table, the second moment
E[a_p^2/p] equals the real rank of the endomorphism algebra, which equals the
predicted generic rank of the self-twist surface f(T) y^2 = f(x).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .curves import TraceRecord
from .polynomials import IntPolynomial, parse_polynomial
from .quadrature import adaptive_simpson, adaptive_simpson_2d

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

MEASURE_TAGS = (SATO_TATE, UNIFORM, HALF_UNIFORM_DIRAC)

# The Sato-Tate groups of elliptic curves over Q with their second moments,
# the Haar moments of the sato-tate, half-uniform-dirac and uniform measures.
GENUS1_GROUPS = (("SU(2)", 1), ("N(U(1))", 1), ("U(1)", 2))


class STMeasure1D(NamedTuple):
    """An angle law on [0, pi]: a continuous density plus an optional atom at pi/2."""

    tag: str
    atom_mass: float = 0.0

    def density(self, theta: float) -> float:
        if self.tag == SATO_TATE:
            return (2.0 / math.pi) * math.sin(theta) ** 2
        if self.tag == UNIFORM:
            return 1.0 / math.pi
        return 1.0 / (2.0 * math.pi)

    def cdf(self, theta: float) -> float:
        if self.tag == SATO_TATE:
            return (theta - math.sin(theta) * math.cos(theta)) / math.pi
        if self.tag == UNIFORM:
            return theta / math.pi
        return theta / (2.0 * math.pi) + (self.atom_mass if theta >= math.pi / 2 else 0.0)

    def total_mass(self) -> float:
        return adaptive_simpson(self.density, 0.0, math.pi, 1e-10) + self.atom_mass


def st_measure(tag: str) -> STMeasure1D:
    if tag == HALF_UNIFORM_DIRAC:
        return STMeasure1D(tag, atom_mass=0.5)
    if tag in (SATO_TATE, UNIFORM):
        return STMeasure1D(tag)
    raise ValueError(f"unknown measure tag {tag!r}")


def haar_second_moment(measure: STMeasure1D) -> float:
    """E[a^2/p] = integral of 4 cos^2(theta) against the measure.

    The pi/2 atom contributes 4 cos^2(pi/2) * mass = 0.  Closed forms:
    sato-tate -> 1, uniform -> 2, half-uniform-dirac -> 1.
    """
    integral = adaptive_simpson(
        lambda t: 4.0 * math.cos(t) ** 2 * measure.density(t), 0.0, math.pi, 1e-10
    )
    return integral  # + 0.0 from the atom


def usp4_expectation(g) -> float:
    """Expectation of g(theta1, theta2) under the full-group Haar angle density
    (8/pi^2) (cos t1 - cos t2)^2 sin^2 t1 sin^2 t2 on [0, pi]^2."""

    def integrand(t1: float, t2: float) -> float:
        dens = (
            (8.0 / math.pi**2)
            * (math.cos(t1) - math.cos(t2)) ** 2
            * math.sin(t1) ** 2
            * math.sin(t2) ** 2
        )
        return g(t1, t2) * dens

    return adaptive_simpson_2d(integrand, 0.0, math.pi, 0.0, math.pi)


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


def empirical_moments(traces: Sequence[TraceRecord]) -> MomentReport:
    """Second/fourth moments of a_p/sqrt(p) and the exact zero fraction.

    Each moment is float(m / n) for the exact rational sum m of its n terms,
    rounded once, so the result does not depend on the order of the traces.
    ``_certified_mean`` gets it in linear time.
    """
    if not traces:
        raise ValueError("empirical_moments requires a nonempty trace sequence")
    squares = [(rec.a * rec.a, rec.p) for rec in traces]
    zeros = sum(1 for rec in traces if rec.a == 0)
    n = len(traces)
    return MomentReport(
        n,
        _certified_mean(squares),
        _certified_mean([(a2 * a2, p * p) for a2, p in squares]),
        zeros / n,
    )


# Fraction bits of the fixed-point terms in _certified_mean.
_K = 192


def _certified_mean(terms: list[tuple[int, int]]) -> float:
    """float(sum(num / den) / n), correctly rounded, over n terms (num, den)
    with num >= 0 and den > 0.

    Each term times 2^K is floored to an integer; their sum S is within n of
    the exact sum times 2^K, so the mean lies in [S, S + n) / (n 2^K).
    Rounding is monotone, so when both ends round to the same double that is
    the mean's double.  Otherwise (a mean within about 2^-K of a rounding
    boundary, or an exact 0) the exact Fraction sum decides.  Adding exact
    Fractions costs a gcd on a denominator that grows with every prime, so
    O(n^2); the fixed-point sum is linear.
    """
    n = len(terms)
    s = sum((num << _K) // den for num, den in terms)
    scale = n << _K
    mean = s / scale  # int true division rounds correctly
    if mean == (s + n) / scale:
        return mean
    from fractions import Fraction

    return float(sum((Fraction(num, den) for num, den in terms), Fraction(0)) / n)


def ks_distance(angles: Sequence[float], measure: STMeasure1D) -> float:
    """Kolmogorov-Smirnov distance between the empirical angle law and a measure.

    For the atom-carrying measure the continuous part is compared after removing
    samples that sit exactly on the atom (theta = pi/2, i.e. a_p = 0), and the
    atom's mass mismatch |fraction at pi/2 - mass| enters as a separate term;
    the reported distance is the max of the two.
    """
    if len(angles) == 0:
        raise ValueError("ks_distance requires a nonempty sample")
    if measure.atom_mass > 0.0:
        half_pi = math.pi / 2
        cont = [t for t in angles if t != half_pi]
        atom_dev = abs((len(angles) - len(cont)) / len(angles) - measure.atom_mass)
        if not cont:
            return atom_dev
        # continuous part of the limit law, renormalized, is uniform on [0, pi]
        return max(atom_dev, ks_distance(cont, st_measure(UNIFORM)))
    xs = sorted(angles)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        fx = measure.cdf(x)
        d = max(d, abs(i / n - fx), abs((i + 1) / n - fx))
    return d


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
