"""Micro-benchmarks of the trace kernel's layers at one prime, p = 40009, of
the whole character sum there, at p = 32771 (the first prime whose squares
take two chunks), either side of the end of the int32 lanes (p = 46337 and
46349) and at p = 9999991 (where the arrays leave the cache),
of the traces of a quintic f and its Peterson D = f(T^2) on one
table, apart (two ``hyperelliptic_trace`` calls) and in one ``traces_at``
call (D read from f's chunk loop), of the scalar quadratic character, of
the prime sieve, of the trace moments, of the three Kolmogorov-Smirnov
distances of a genus-1 ``moments`` run at the 10^7 cap, of the Nagao sums
over a seeded synthetic sweep at the cap (no kernel and no cache), of one
count of #C(F_{p^2}) for ``lpoly``'s b at p = 1009, and of a trace cache of
a seeded synthetic sweep at the cap, appended in blocks of 128 primes into
an empty directory (the path a cold sweep takes) and loaded back.

``residue_table`` keeps the table of the last p, so the table builds are
timed on the memo's builder, and each kernel case fetches the table of its
own p before it is timed: the cases at different primes alternate.

Outside the tier-1 ``testpaths``; run them from the repository root with

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import math
import random
import shutil
from array import array

import numpy as np
import pytest

from nagaolab import curves, finite_field
from nagaolab.cache import TraceCache
from nagaolab.curves import TraceRecord, hyperelliptic_trace, traces_at
from nagaolab.finite_field import char_sum, legendre, poly_eval_all_mod, primes_in, residue_table
from nagaolab.polynomials import parse_polynomial
from nagaolab.stats import MEASURE_TAGS, STMeasure1D, empirical_moments, ks_distance
from nagaolab.twist import geometric_grid, nagao_series, twist_surface

P = 40009
BIG_P = 9999991
TWO_CHUNK_P = 32771  # the first prime with (p - 1)/2 > CHUNK = 16384
LANE_PRIMES = [46337, 46349]  # the last prime with int32 lanes, the first with int64
QUINTIC = parse_polynomial("x^5+2*x^4+3*x^3+3*x^2+2*x+1")
PETERSON_D = parse_polynomial("x^10+2*x^8+3*x^6+3*x^4+2*x^2+1")  # D(x) = h(x^2)
SAMPLE_QUINTIC = parse_polynomial("x^5-x+1")  # odd and even terms
SEXTIC = parse_polynomial("x^6+1")


@pytest.fixture(scope="module")
def table():
    return residue_table(P)


def test_residue_table(benchmark):
    benchmark(finite_field._residue_table.__wrapped__, P)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_eval_quintic(benchmark, dtype):
    benchmark(poly_eval_all_mod, QUINTIC.coeffs, P, np.arange(P, dtype=dtype))


def test_eval_peterson_D_full(benchmark):
    benchmark(poly_eval_all_mod, PETERSON_D.coeffs, P, np.arange(P, dtype=np.int64))


def test_eval_peterson_D_even(benchmark, table):
    benchmark(poly_eval_all_mod, PETERSON_D.coeffs[::2], P, table.squares)


def test_chi_gather(benchmark, table):
    vals = poly_eval_all_mod(QUINTIC.coeffs, P, np.arange(P, dtype=np.int64))
    benchmark(lambda: int(table.chi[vals].sum(dtype=np.int64)))


def test_residue_table_big(benchmark):
    benchmark(finite_field._residue_table.__wrapped__, BIG_P)


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_residue_table_lanes(benchmark, p):
    benchmark(finite_field._residue_table.__wrapped__, p)


@pytest.mark.parametrize("g", [SAMPLE_QUINTIC, PETERSON_D], ids=["x^5-x+1", "peterson-D"])
def test_char_sum(benchmark, g):
    residue_table(P)
    benchmark(char_sum, g, P)


def test_char_sum_two_chunks(benchmark):
    assert (TWO_CHUNK_P - 1) // 2 > finite_field.CHUNK
    residue_table(TWO_CHUNK_P)
    benchmark(char_sum, SAMPLE_QUINTIC, TWO_CHUNK_P)


@pytest.mark.parametrize("p", LANE_PRIMES)
@pytest.mark.parametrize("g", [SAMPLE_QUINTIC, SEXTIC], ids=["x^5-x+1", "x^6+1"])
def test_char_sum_lanes(benchmark, g, p):
    residue_table(p)
    benchmark(char_sum, g, p)


@pytest.mark.parametrize("g", [SAMPLE_QUINTIC, SEXTIC, PETERSON_D], ids=["x^5-x+1", "x^6+1", "peterson-D"])
def test_char_sum_big(benchmark, g):
    residue_table(BIG_P)
    benchmark(char_sum, g, BIG_P)


@pytest.mark.parametrize("paired", [False, True], ids=["apart", "D-from-f"])
def test_trace_peterson_pair(benchmark, paired):
    # a_p(f) and a_p(D) at one prime sharing one residue table: two traces, or
    # both from f's chunk loop in one traces_at call, as _fill runs them
    def apart():
        return hyperelliptic_trace(QUINTIC, P), hyperelliptic_trace(PETERSON_D, P)

    def from_f():
        return traces_at([QUINTIC, PETERSON_D], P)

    residue_table(P)
    a_f, a_D = benchmark(from_f if paired else apart)
    assert a_D == 2 * a_f


def test_legendre(benchmark):
    # the scalar chi_p of the even path and of the point at infinity
    benchmark(legendre, 31337, P)


def test_primes_in(benchmark):
    # the sieve itself: primes_in memoises it for the last bound
    benchmark(finite_field._primes_below.__wrapped__, 10**6)


def test_empirical_moments(benchmark):
    # Hasse-bounded genus-2 traces at the first 10^4 primes but 2
    rng = random.Random(0)
    primes = primes_in(3, 104744)
    traces = [TraceRecord(p, rng.randint(-math.isqrt(16 * p), math.isqrt(16 * p))) for p in primes]
    benchmark(empirical_moments, traces)


@pytest.fixture(scope="module")
def cap_angles():
    # as many angles as odd primes below 10^7 (664,578), about half on the
    # atom at pi/2 as for the CM curve T^3+T, the rest acos of a uniform draw
    rng = random.Random(0)
    return [math.pi / 2 if rng.random() < 0.5 else math.acos(rng.uniform(-1.0, 1.0)) for _ in range(664578)]


@pytest.mark.parametrize("tag", MEASURE_TAGS)
def test_ks_distance_at_the_cap(benchmark, cap_angles, tag):
    benchmark(ks_distance, cap_angles, STMeasure1D(tag))


@pytest.fixture(scope="module")
def cap_pairs():
    # the 664,578 odd primes below 10^7, each with seeded genus-1 traces
    # a_f and a_D inside the Weil bound a^2 <= 4p
    rng = random.Random(0)
    primes = primes_in(3, 10**7 + 1)
    draw = [rng.randint(-b, b) for p in primes for b in (math.isqrt(4 * p),) * 2]
    return primes, array("q", draw[::2]), array("q", draw[1::2])


def test_nagao_series_at_the_cap(benchmark, cap_pairs):
    primes, a_f, a_D = cap_pairs
    surface = twist_surface(parse_polynomial("x^3+x"), parse_polynomial("x^3+5*x+7"))

    def sweep(polys, good):
        # the sums alone: the drawn pairs, with no kernel and no cache
        return zip(primes, zip(a_f, a_D))

    series = benchmark(nagao_series, surface, 10**7, geometric_grid(10**7), sweep)
    assert series.n_primes[-1] == len(primes)


def test_count_fp2(benchmark):
    # lpoly's b at one prime: (p + 1)/2 char sums of degree-10 polynomials on one table
    residue_table(1009)
    assert benchmark(curves._count_fp2, SAMPLE_QUINTIC, 1009) == 1017237


@pytest.fixture(scope="module")
def cap_traces():
    # the 664,578 odd primes below 10^7, each with a seeded genus-1 trace
    # inside the Weil bound a^2 <= 4p
    rng = random.Random(0)
    return [(p, rng.randint(-b, b)) for p in primes_in(3, 10**7 + 1) for b in (math.isqrt(4 * p),)]


@pytest.mark.parametrize("path", ["append", "load"])
def test_trace_cache_at_the_cap(benchmark, cap_traces, tmp_path, path):
    f = parse_polynomial("x^3+x")
    blocks = [cap_traces[k : k + 128] for k in range(0, len(cap_traces), 128)]
    cache_dir = tmp_path / "cache"

    def fill():
        cache = TraceCache(cache_dir, f)
        for block in blocks:
            cache.append(block)
        return cache

    def empty_dir():  # each round appends into an empty directory
        shutil.rmtree(cache_dir, ignore_errors=True)
        return (), {}

    if path == "append":
        cache = benchmark.pedantic(fill, setup=empty_dir, rounds=5)
    else:
        fill()
        cache = benchmark(TraceCache, cache_dir, f)
    assert cache.records == dict(cap_traces)
