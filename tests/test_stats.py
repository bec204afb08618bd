import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nagaolab.stats as stats_mod
from nagaolab.curves import TraceRecord, curve_from_poly, good_primes, sweep_traces
from nagaolab.finite_field import primes_in
from nagaolab.stats import (
    GENUS1_GROUPS,
    HALF_UNIFORM_DIRAC,
    MEASURE_TAGS,
    SATO_TATE,
    UNIFORM,
    STMeasure1D,
    adaptive_simpson,
    empirical_moments,
    haar_second_moment,
    haar_second_moment_usp4,
    ks_distance,
    load_st_table,
    moment_class,
    usp4_expectation,
)
from oracles import ks_distance_loop


# -- table -------------------------------------------------------------------


def test_table_has_34_rows():
    assert len(load_st_table()) == 34


def test_table_moment_equals_endo_rank():
    for row in load_st_table():
        assert row.second_moment == row.endo_rank, row.name


def test_table_curves_land_in_their_moment_class():
    """The engine end to end: every example curve of the table, swept to
    N = 10^4 (all on the int32 lanes), has the second moment of its group.
    The classes come from Fite-Kedlaya-Rotger-Sutherland (2012), not from
    this code; a trace rule applied where it does not hold moves a moment
    by a whole class."""
    wrong = {}
    for row in load_st_table():
        c = curve_from_poly(row.example_curve)
        primes = good_primes(c.bad_primes, 10**4)
        traces = [TraceRecord(p, a) for p, (a,) in sweep_traces([c.f], primes)]
        m2 = empirical_moments(traces).second_moment
        if moment_class(m2) != row.second_moment:
            wrong[row.name] = (row.second_moment, m2)
    assert wrong == {}


def test_table_example_curves_are_genus2():
    for row in load_st_table():
        assert row.example_curve.degree in (5, 6), row.name
        assert row.example_curve.is_squarefree(), row.name


def test_table_class_sizes():
    by_moment = {}
    for row in load_st_table():
        by_moment.setdefault(row.second_moment, []).append(row.name)
    assert len(by_moment[4]) == 2
    assert sorted(by_moment[4]) == ["C_{2,1}", "E_1"]
    assert len(by_moment[1]) == 16
    assert len(by_moment[2]) == 16


# -- measures and Haar oracles ----------------------------------------------


def test_measures_total_mass_one():
    for tag in MEASURE_TAGS:
        m = STMeasure1D(tag)
        assert adaptive_simpson(m.density, 0.0, math.pi, 1e-10) + m.atom_mass == pytest.approx(1.0, abs=1e-9)


def test_measure_is_its_tag():
    """Every law has total mass 1 at pi (the atom included), and an unknown
    tag is refused."""
    for tag in MEASURE_TAGS:
        assert STMeasure1D(tag).cdf(math.pi) == pytest.approx(1.0, abs=1e-12)
    assert STMeasure1D(HALF_UNIFORM_DIRAC).cdf(math.pi) == 1.0
    with pytest.raises(ValueError, match="unknown measure tag 'bogus'"):
        STMeasure1D("bogus")


def test_measure_copies_and_pickles_as_its_tag():
    """A measure carries its law's functions, yet copy and pickle rebuild it
    from its tag alone, so it crosses a process boundary as the tag did."""
    import copy
    import pickle

    for tag in MEASURE_TAGS:
        m = STMeasure1D(tag)
        assert copy.copy(m) == copy.deepcopy(m) == pickle.loads(pickle.dumps(m)) == m


def test_measure_cdfs():
    m = STMeasure1D(SATO_TATE)
    assert m.cdf(0.0) == 0.0
    assert m.cdf(math.pi) == pytest.approx(1.0, abs=1e-12)
    assert m.cdf(math.pi / 2) == pytest.approx(0.5, abs=1e-12)
    d = STMeasure1D(HALF_UNIFORM_DIRAC)
    assert d.cdf(math.pi / 2 - 1e-9) == pytest.approx(0.25, abs=1e-6)
    assert d.cdf(math.pi / 2) == pytest.approx(0.75, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(
    tag=st.sampled_from(MEASURE_TAGS),
    theta=st.one_of(st.floats(0.0, math.pi, allow_nan=False), st.just(math.pi / 2)),
)
def test_measure_cdf_integrates_its_density(tag, theta):
    """Each law's two columns agree: its density integrated over [0, theta],
    plus its atom once theta reaches pi/2, is its CDF at theta."""
    m = STMeasure1D(tag)
    mass = adaptive_simpson(m.density, 0.0, theta, 1e-12) + (m.atom_mass if theta >= math.pi / 2 else 0.0)
    assert mass == pytest.approx(m.cdf(theta), abs=1e-9)


def test_haar_second_moments_1d():
    assert haar_second_moment(STMeasure1D(SATO_TATE)) == pytest.approx(1.0, abs=1e-9)
    assert haar_second_moment(STMeasure1D(UNIFORM)) == pytest.approx(2.0, abs=1e-9)
    assert haar_second_moment(STMeasure1D(HALF_UNIFORM_DIRAC)) == pytest.approx(1.0, abs=1e-9)


def test_haar_second_moment_usp4():
    assert haar_second_moment_usp4() == pytest.approx(1.0, abs=1e-6)


def test_usp4_density_normalized_and_odd_moment_zero():
    assert usp4_expectation(lambda a, b: 1.0) == pytest.approx(1.0, abs=1e-6)
    first = usp4_expectation(lambda a, b: 2.0 * (math.cos(a) + math.cos(b)))
    assert first == pytest.approx(0.0, abs=1e-6)


# -- empirical moments -------------------------------------------------------


def test_empirical_moments_all_zero():
    traces = [TraceRecord(p, 0) for p in (5, 13, 17)]
    rep = empirical_moments(traces)
    assert rep.second_moment == 0.0
    assert rep.zero_fraction == 1.0


def test_empirical_moments_single_record():
    rep = empirical_moments([TraceRecord(5, 2)])
    assert rep.second_moment == pytest.approx(4 / 5)
    assert rep.zero_fraction == 0.0
    assert rep.n_primes == 1


def test_empirical_moments_empty_rejected():
    with pytest.raises(ValueError):
        empirical_moments([])


def test_empirical_moments_permutation_invariant():
    rng = random.Random(5)
    traces = [TraceRecord(p, rng.randrange(-4, 5)) for p in (5, 7, 11, 13, 17, 19)]
    rep1 = empirical_moments(traces)
    shuffled = traces[:]
    rng.shuffle(shuffled)
    rep2 = empirical_moments(shuffled)
    assert rep1.second_moment == rep2.second_moment  # exact, rational accumulation
    assert rep1.fourth_moment == rep2.fourth_moment


def fraction_moments(traces):
    """The oracle: exact Fraction sums, one final rounding."""
    n = len(traces)
    m2 = sum((Fraction(t.a * t.a, t.p) for t in traces), Fraction(0))
    m4 = sum((Fraction(t.a**4, t.p * t.p) for t in traces), Fraction(0))
    return float(m2 / n).hex(), float(m4 / n).hex()


def moments_hex(traces):
    rep = empirical_moments(traces)
    return rep.second_moment.hex(), rep.fourth_moment.hex()


PRIMES = primes_in(3, 20000)


@st.composite
def hasse_traces(draw):
    """Traces of a genus-1 or genus-2 curve, |a| <= 2 g sqrt(p), at distinct primes."""
    genus = draw(st.sampled_from([1, 2]))
    ps = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=200, unique=True))
    bounds = [math.isqrt(4 * genus * genus * p) for p in ps]
    return [TraceRecord(p, draw(st.integers(-b, b))) for p, b in zip(ps, bounds)]


@given(hasse_traces())
def test_empirical_moments_equal_fraction_oracle(traces):
    assert moments_hex(traces) == fraction_moments(traces)
    assert empirical_moments([(p, a) for p, a in traces]) == empirical_moments(traces)  # plain pairs


def test_empirical_moments_fallback_equals_fraction_oracle(monkeypatch):
    """With 2 fraction bits the fixed-point interval is a quarter wide, too wide
    to decide the rounding, so the exact Fraction sum gives the result."""
    monkeypatch.setattr(stats_mod, "_K", 2)
    rng = random.Random(11)
    for size in (1, 2, 7, 300):
        traces = [TraceRecord(p, rng.randint(-40, 40)) for p in rng.sample(PRIMES[100:], size)]
        n = len(traces)
        s = sum((t.a * t.a << 2) // t.p for t in traces)
        inexact = sum(t.a != 0 for t in traces)  # a term with a = 0 is exact
        assert float(Fraction(s, n << 2)) != float(Fraction(s + inexact, n << 2))  # the fallback runs
        assert moments_hex(traces) == fraction_moments(traces)


# -- KS distance -------------------------------------------------------------


def test_ks_quantile_samples_fit():
    n = 1000
    for tag in (SATO_TATE, UNIFORM):
        m = STMeasure1D(tag)
        # invert the CDF by bisection at the midpoints of a uniform grid
        samples = []
        for i in range(n):
            target = (i + 0.5) / n
            lo, hi = 0.0, math.pi
            for _ in range(60):
                mid = (lo + hi) / 2
                if m.cdf(mid) < target:
                    lo = mid
                else:
                    hi = mid
            samples.append(lo)
        assert ks_distance(samples, m) <= 1.0 / n + 1e-6


def test_ks_constant_sample_vs_sato_tate():
    d = ks_distance([math.pi / 2] * 100, STMeasure1D(SATO_TATE))
    assert d >= 0.4  # CDF at pi/2 is exactly 1/2, sup gap 1/2


def test_ks_dirac_split():
    # half the sample exactly at pi/2, rest uniform quantiles: small distance
    n = 500
    cont = [(i + 0.5) / n * math.pi for i in range(n)]
    sample = cont + [math.pi / 2] * n
    d = ks_distance(sample, STMeasure1D(HALF_UNIFORM_DIRAC))
    assert d <= 1.0 / n + 1e-6
    # atom mass wildly off -> large distance
    d2 = ks_distance([math.pi / 2] * 100, STMeasure1D(HALF_UNIFORM_DIRAC))
    assert d2 == pytest.approx(0.5)


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_distance([], STMeasure1D(UNIFORM))


_ANGLE = st.floats(0.0, math.pi, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    angles=st.one_of(
        st.lists(_ANGLE, min_size=1, max_size=60),  # random angles, unsorted
        st.lists(st.one_of(_ANGLE, st.just(math.pi / 2)), min_size=1, max_size=60),  # a share on the atom
        st.integers(1, 40).map(lambda n: [math.pi / 2] * n),  # every angle on the atom
        _ANGLE.map(lambda t: [t]),  # a single angle
    ),
    tag=st.sampled_from(MEASURE_TAGS),
)
def test_ks_distance_equals_the_running_max_loop(angles, tag):
    """The two reductions over one sorted sample give the loop's double exactly."""
    m = STMeasure1D(tag)
    want = ks_distance_loop(angles, m)
    assert ks_distance(angles, m) == want
    assert ks_distance(sorted(angles), m) == want
    assert ks_distance(sorted(angles, reverse=True), m) == want


# -- classification ----------------------------------------------------------


def test_identify_class_out_of_range():
    assert moment_class(10.0) is None


def test_genus1_group_moments_are_haar_moments():
    tags = {"SU(2)": SATO_TATE, "N(U(1))": HALF_UNIFORM_DIRAC, "U(1)": UNIFORM}
    assert [name for name, _ in GENUS1_GROUPS] == list(tags)
    for name, moment in GENUS1_GROUPS:
        assert moment == round(haar_second_moment(STMeasure1D(tags[name]))), name


def test_moment_class_stability_at_centers():
    for center in (1, 2, 4):
        for eps in (-0.12, 0.0, 0.12):
            assert moment_class(center + eps) == center

