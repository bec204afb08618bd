import math
import random

import pytest

from nagaolab.curves import TraceRecord
from nagaolab.polynomials import parse_polynomial
from nagaolab.stats import (
    HALF_UNIFORM_DIRAC,
    MEASURE_TAGS,
    SATO_TATE,
    UNIFORM,
    empirical_moments,
    haar_second_moment,
    haar_second_moment_usp4,
    identify_st_class,
    ks_distance,
    load_st_table,
    moment_class,
    predict_rank,
    st_measure,
    usp4_expectation,
)


# -- table -------------------------------------------------------------------


def test_table_has_34_rows():
    assert len(load_st_table()) == 34


def test_table_moment_equals_endo_rank():
    for row in load_st_table():
        assert row.second_moment == row.endo_rank, row.name


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
        assert st_measure(tag).total_mass() == pytest.approx(1.0, abs=1e-9)


def test_measure_cdfs():
    m = st_measure(SATO_TATE)
    assert m.cdf(0.0) == 0.0
    assert m.cdf(math.pi) == pytest.approx(1.0, abs=1e-12)
    assert m.cdf(math.pi / 2) == pytest.approx(0.5, abs=1e-12)
    d = st_measure(HALF_UNIFORM_DIRAC)
    assert d.cdf(math.pi / 2 - 1e-9) == pytest.approx(0.25, abs=1e-6)
    assert d.cdf(math.pi / 2) == pytest.approx(0.75, abs=1e-6)


def test_haar_second_moments_1d():
    assert haar_second_moment(st_measure(SATO_TATE)) == pytest.approx(1.0, abs=1e-9)
    assert haar_second_moment(st_measure(UNIFORM)) == pytest.approx(2.0, abs=1e-9)
    assert haar_second_moment(st_measure(HALF_UNIFORM_DIRAC)) == pytest.approx(1.0, abs=1e-9)


def test_haar_second_moment_usp4():
    assert haar_second_moment_usp4() == pytest.approx(1.0, abs=1e-6)


def test_usp4_density_normalized_and_odd_moment_zero():
    assert usp4_expectation(lambda a, b: 1.0) == pytest.approx(1.0, abs=1e-6)
    first = usp4_expectation(lambda a, b: 2.0 * (math.cos(a) + math.cos(b)))
    assert first == pytest.approx(0.0, abs=1e-6)


# -- empirical moments -------------------------------------------------------


def test_empirical_moments_all_zero():
    traces = [TraceRecord(p, 0, 1) for p in (5, 13, 17)]
    rep = empirical_moments(traces)
    assert rep.second_moment == 0.0
    assert rep.zero_fraction == 1.0


def test_empirical_moments_single_record():
    rep = empirical_moments([TraceRecord(5, 2, 1)])
    assert rep.second_moment == pytest.approx(4 / 5)
    assert rep.zero_fraction == 0.0
    assert rep.n_primes == 1
    assert rep.N == 5


def test_empirical_moments_empty_rejected():
    with pytest.raises(ValueError):
        empirical_moments([])


def test_empirical_moments_permutation_invariant():
    rng = random.Random(5)
    traces = [TraceRecord(p, rng.randrange(-4, 5), 1) for p in (5, 7, 11, 13, 17, 19)]
    rep1 = empirical_moments(traces, N=20)
    shuffled = traces[:]
    rng.shuffle(shuffled)
    rep2 = empirical_moments(shuffled, N=20)
    assert rep1.second_moment == rep2.second_moment  # exact, rational accumulation
    assert rep1.fourth_moment == rep2.fourth_moment


# -- KS distance -------------------------------------------------------------


def test_ks_quantile_samples_fit():
    n = 1000
    for tag in (SATO_TATE, UNIFORM):
        m = st_measure(tag)
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
    d = ks_distance([math.pi / 2] * 100, st_measure(SATO_TATE))
    assert d >= 0.4  # CDF at pi/2 is exactly 1/2, sup gap 1/2


def test_ks_dirac_split():
    # half the sample exactly at pi/2, rest uniform quantiles: small distance
    n = 500
    cont = [(i + 0.5) / n * math.pi for i in range(n)]
    sample = cont + [math.pi / 2] * n
    d = ks_distance(sample, st_measure(HALF_UNIFORM_DIRAC))
    assert d <= 1.0 / n + 1e-6
    # atom mass wildly off -> large distance
    d2 = ks_distance([math.pi / 2] * 100, st_measure(HALF_UNIFORM_DIRAC))
    assert d2 == pytest.approx(0.5)


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_distance([], st_measure(UNIFORM))


# -- classification ----------------------------------------------------------


def test_identify_class_moment4():
    from nagaolab.stats import MomentReport

    rep = MomentReport(100, 4.02, 0.0, 0.0, 1000)
    names = {r.name for r in identify_st_class(rep)}
    assert names == {"C_{2,1}", "E_1"}


def test_identify_class_moment2():
    from nagaolab.stats import MomentReport

    rows = identify_st_class(MomentReport(100, 1.9, 0.0, 0.0, 1000))
    assert len(rows) == 16
    assert all(r.second_moment == 2 for r in rows)


def test_identify_class_out_of_range():
    from nagaolab.stats import MomentReport

    assert identify_st_class(MomentReport(100, 10.0, 0.0, 0.0, 1000)) == []
    assert moment_class(10.0) is None


def test_moment_class_stability_at_centers():
    for center in (1, 2, 4):
        for eps in (-0.12, 0.0, 0.12):
            assert moment_class(center + eps) == center


def test_predict_rank():
    assert predict_rank(parse_polynomial("x^5-x+1"), 1) == 1
    assert predict_rank(parse_polynomial("x^6+1"), 4) == 4
    assert predict_rank(parse_polynomial("x^3+x"), 1) == 1
    with pytest.raises(ValueError):
        predict_rank(parse_polynomial("x^3+x"), 3)
