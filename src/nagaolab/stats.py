"""Sato-Tate statistics: empirical moments, equidistribution distances, the
Haar-measure moment oracles, the group table for abelian surfaces over Q, and
rank prediction for self-twist surfaces.

The key identity consumed here: for each group in the table, the second moment
E[a_p^2/p] equals the real rank of the endomorphism algebra, which equals the
predicted generic rank of the self-twist surface f(T) y^2 = f(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Iterable, Sequence

from .curves import TraceRecord
from .polynomials import IntPolynomial, parse_polynomial
from .quadrature import adaptive_simpson, adaptive_simpson_2d

MOMENT_CLASSES = (1, 2, 4)
DEFAULT_CLASS_TOLERANCE = 0.25

_ENDO_RANKS = {"C": 2, "R": 1, "M2(R)": 4, "RxR": 2}


@dataclass(frozen=True)
class STGroupRecord:
    name: str
    endo_algebra: str
    endo_rank: int
    second_moment: int
    example_curve: IntPolynomial


def _parse_table(lines: Iterable[str]) -> tuple[STGroupRecord, ...]:
    rows = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, endo, rank, moment, curve = line.split(";")
        rows.append(
            STGroupRecord(name, endo, int(rank), int(moment), parse_polynomial(curve))
        )
    return tuple(rows)


def load_st_table(path: str | None = None) -> tuple[STGroupRecord, ...]:
    """The 34 Sato-Tate group rows for abelian surfaces over Q.

    Reads the versioned data file shipped with the package, or an explicit path.
    """
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return _parse_table(fh)
    text = resources.files("nagaolab").joinpath("data/st_groups_q.txt").read_text()
    return _parse_table(text.splitlines())


# -- angle measures on [0, pi] ----------------------------------------------

SATO_TATE = "sato-tate"
UNIFORM = "uniform"
HALF_UNIFORM_DIRAC = "half-uniform-dirac"

MEASURE_TAGS = (SATO_TATE, UNIFORM, HALF_UNIFORM_DIRAC)


@dataclass(frozen=True)
class STMeasure1D:
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

    def total_mass(self, tol: float = 1e-10) -> float:
        return adaptive_simpson(self.density, 0.0, math.pi, tol) + self.atom_mass


def st_measure(tag: str) -> STMeasure1D:
    if tag == HALF_UNIFORM_DIRAC:
        return STMeasure1D(tag, atom_mass=0.5)
    if tag in (SATO_TATE, UNIFORM):
        return STMeasure1D(tag)
    raise ValueError(f"unknown measure tag {tag!r}")


def haar_second_moment(measure: STMeasure1D, tol: float = 1e-10) -> float:
    """E[a^2/p] = integral of 4 cos^2(theta) against the measure.

    The pi/2 atom contributes 4 cos^2(pi/2) * mass = 0.  Closed forms:
    sato-tate -> 1, uniform -> 2, half-uniform-dirac -> 1.
    """
    integral = adaptive_simpson(
        lambda t: 4.0 * math.cos(t) ** 2 * measure.density(t), 0.0, math.pi, tol
    )
    return integral  # + 0.0 from the atom


def usp4_expectation(g, tol: float = 1e-7) -> float:
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

    return adaptive_simpson_2d(integrand, 0.0, math.pi, 0.0, math.pi, tol)


def haar_second_moment_usp4(tol: float = 1e-7) -> float:
    """Second moment of the normalized trace 2cos(t1) + 2cos(t2) for the generic
    genus-2 distribution; equals 1."""
    return usp4_expectation(lambda t1, t2: 4.0 * (math.cos(t1) + math.cos(t2)) ** 2, tol)


# -- empirical statistics ----------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    n_primes: int
    second_moment: float
    fourth_moment: float
    zero_fraction: float
    N: int


def empirical_moments(traces: Sequence[TraceRecord], N: int | None = None) -> MomentReport:
    """Second/fourth moments of a_p/sqrt(p) and the exact zero fraction.

    Accumulation is over exact rationals (permutation-invariant); the single
    final division is done in double precision.
    """
    if not traces:
        raise ValueError("empirical_moments requires a nonempty trace sequence")
    m2 = Fraction(0)
    m4 = Fraction(0)
    zeros = 0
    for rec in traces:
        m2 += Fraction(rec.a * rec.a, rec.p)
        m4 += Fraction(rec.a**4, rec.p * rec.p)
        if rec.a == 0:
            zeros += 1
    n = len(traces)
    cutoff = N if N is not None else max(rec.p for rec in traces)
    return MomentReport(n, float(m2 / n), float(m4 / n), zeros / n, cutoff)


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


# -- classification and rank prediction --------------------------------------


def moment_class(value: float, tolerance: float = DEFAULT_CLASS_TOLERANCE) -> int | None:
    """The moment class in {1, 2, 4} within tolerance of value, or None."""
    for m in MOMENT_CLASSES:
        if abs(value - m) <= tolerance:
            return m
    return None


def identify_st_class(
    report: MomentReport,
    tolerance: float = DEFAULT_CLASS_TOLERANCE,
    table: tuple[STGroupRecord, ...] | None = None,
) -> list[STGroupRecord]:
    """All table rows whose second moment is within tolerance of the empirical one.

    Classification is only ever by moment class {1, 2, 4}; the groups inside a
    class are indistinguishable from second moments alone.  An empty list means
    no class lies within tolerance.
    """
    tab = table if table is not None else load_st_table()
    return [row for row in tab if abs(report.second_moment - row.second_moment) <= tolerance]


def predict_rank(f: IntPolynomial, moment_cls: int) -> int:
    """Predicted rank of the self-twist surface f(T) y^2 = f(x) over Q(T).

    The rank equals the real endomorphism-algebra rank, which coincides with
    the second-moment class.
    """
    if moment_cls not in MOMENT_CLASSES:
        raise ValueError(f"moment class must be one of {MOMENT_CLASSES}")
    if f.is_zero or not 3 <= f.degree <= 6:
        raise ValueError("f must define a genus-1 or genus-2 curve (degree 3..6)")
    return moment_cls

