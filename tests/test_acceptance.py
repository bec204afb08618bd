"""Acceptance gate: seven end-to-end criteria at their stated tolerances.

Each test prints exactly one PASS/FAIL line.  The heavy trace sweeps (the
self-twist series and the genus-2 moment runs at N = 10^5) write to a shared
session cache so the determinism criterion can replay them warm.
"""

import math

import pytest

from nagaolab.cli import EXIT_OK, ExperimentConfig, run
from nagaolab.curves import curve_from_poly, hyperelliptic_trace, normalized_angle, TraceRecord
from nagaolab.finite_field import primes_in
from nagaolab.polynomials import parse_polynomial
from nagaolab.stats import (
    haar_second_moment,
    haar_second_moment_usp4,
    ks_distance,
    STMeasure1D,
)
from nagaolab.twist import peterson_D, verify_factorization
from nagaolab.cli import parse_mobius

N_BIG = 10**5

MOMENT_CURVES = [  # (polynomial, expected second moment)
    ("x^5-x+1", 1.0),
    ("x^5+x", 2.0),
    ("x^6+1", 4.0),
    ("x^5-x", 2.0),
]


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance-cache"))


@pytest.fixture(scope="session")
def artifacts():
    """CSV bytes produced by the heavy runs, replayed by the determinism test."""
    return {}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence():
    from nagaolab.curves import trace_oracle_exhaustive

    corpus = [
        "x^3+x", "x^3-x", "x^3+x+1", "x^3-2", "x^3+x^2-1", "x^3+5*x+7",
        "x^3-4*x+2",
        "x^5-x+1", "x^5+x", "x^5-x", "x^5+2*x", "x^5+x^3-x", "x^5+1",
        "x^5+3*x^2+1", "x^5-7",
        "x^6+1", "x^6+x+2", "x^6+x^3-2", "x^6-5*x^4+10*x^3-5*x^2+2*x-1",
        "x^6+2*x^5+3*x+3", "x^6-x-1",
    ]
    assert len(corpus) >= 20
    mismatches = 0
    for text in corpus:
        c = curve_from_poly(parse_polynomial(text))
        for p in primes_in(3, 500):
            if p in c.bad_primes:
                continue
            if hyperelliptic_trace(c.f, p) != trace_oracle_exhaustive(c, p).a:
                mismatches += 1
    report(
        "criterion 1: oracle equivalence",
        mismatches == 0,
        f"{len(corpus)} curves, all good p < 500, {mismatches} mismatches",
    )


def test_criterion_2_self_twist_series(cache_dir, artifacts, tmp_path):
    out = tmp_path / "nagao.csv"
    rc = run(
        ExperimentConfig(
            command="nagao", f="x^3+x", N=N_BIG, grid="geometric:20",
            threads=4, cache_dir=cache_dir, output=str(out),
        )
    )
    assert rc == EXIT_OK
    artifacts["nagao"] = out.read_bytes()
    last = out.read_text().splitlines()[-1].split(",")
    s1, s2 = float(last[1]), float(last[2])
    ok = 0.85 <= s2 <= 1.15 and abs(s1 - s2) < 0.1
    report(
        "criterion 2: rank-1 series limit",
        ok,
        f"S2(1e5) = {s2:.4f} (target [0.85, 1.15]), |S1 - S2| = {abs(s1 - s2):.4f} (< 0.1)",
    )


@pytest.mark.parametrize("poly,expected", MOMENT_CURVES)
def test_criterion_3_second_moments(poly, expected, cache_dir, artifacts, tmp_path):
    out = tmp_path / "moments.csv"
    rc = run(
        ExperimentConfig(
            command="moments", f=poly, N=N_BIG, threads=4,
            cache_dir=cache_dir, output=str(out),
        )
    )
    assert rc == EXIT_OK
    artifacts["moments:" + poly] = out.read_bytes()
    header, row = out.read_text().splitlines()
    m2 = float(dict(zip(header.split(","), row.split(",")))["second_moment"])
    report(
        f"criterion 3: second moment of {poly}",
        abs(m2 - expected) <= 0.25,
        f"measured {m2:.4f}, expected {expected} +/- 0.25",
    )


def test_criterion_4_haar_oracles():
    errs = [
        abs(haar_second_moment(STMeasure1D("sato-tate")) - 1.0),
        abs(haar_second_moment(STMeasure1D("uniform")) - 2.0),
        abs(haar_second_moment(STMeasure1D("half-uniform-dirac")) - 1.0),
    ]
    err4 = abs(haar_second_moment_usp4() - 1.0)
    ok = max(errs) <= 1e-9 and err4 <= 1e-6
    report(
        "criterion 4: Haar moment oracles",
        ok,
        f"1-D errors {[f'{e:.2e}' for e in errs]} (tol 1e-9), USp(4) error {err4:.2e} (tol 1e-6)",
    )


def test_criterion_5_peterson_factorization():
    quintics = [
        "x^5+2*x^4+3*x^3+3*x^2+2*x+1",
        "x^5+x^4+x^3+x^2+x+1",
        "x^5+3*x^4+x^3+x^2+3*x+1",
        "x^5-x^4+2*x^3+2*x^2-x+1",
        "x^5+4*x^4+6*x^3+6*x^2+4*x+1",
        "x^5+x^4-x^3-x^2+x+1",
    ]
    sigma = parse_mobius("1/x")
    passed = 0
    for text in quintics:
        f = parse_polynomial(text)
        result = peterson_D(f, sigma)
        assert result.multiplier == 1
        rep = verify_factorization(result.D, f, 2, 1000)
        if rep.passed:
            passed += 1
    report(
        "criterion 5: twist-construction certificates",
        passed == len(quintics),
        f"{passed}/{len(quintics)} palindromic quintics certified exactly for p <= 1000",
    )


def test_criterion_6_cm_dichotomy(cache_dir):
    from nagaolab.cache import TraceCache

    f = parse_polynomial("x^3+x")
    cache = TraceCache(cache_dir, f)  # warm from criterion 2
    traces = []
    for p in primes_in(3, N_BIG):
        a = cache.get(p)
        if a is None:
            a = hyperelliptic_trace(f, p)
        traces.append((p, a))
    vanishing_ok = all((a == 0) == (p % 4 == 3) for p, a in traces)
    zero_frac = sum(1 for _, a in traces if a == 0) / len(traces)
    angles = [normalized_angle(TraceRecord(p, a)) for p, a in traces if a != 0]
    ks = ks_distance(angles, STMeasure1D("uniform"))
    ok = vanishing_ok and 0.49 <= zero_frac <= 0.51 and ks <= 0.02
    report(
        "criterion 6: CM trace dichotomy",
        ok,
        f"a_p = 0 iff p = 3 mod 4: {vanishing_ok}; zero fraction {zero_frac:.4f} "
        f"(target [0.49, 0.51]); KS to uniform {ks:.4f} (<= 0.02)",
    )


def test_criterion_7_determinism(cache_dir, artifacts, tmp_path):
    assert "nagao" in artifacts, "criterion 2 must run first"
    mismatched = []
    for threads in (1, 4, 8):
        out = tmp_path / f"nagao-{threads}.csv"
        run(
            ExperimentConfig(
                command="nagao", f="x^3+x", N=N_BIG, grid="geometric:20",
                threads=threads, cache_dir=cache_dir, output=str(out),
            )
        )
        if out.read_bytes() != artifacts["nagao"]:
            mismatched.append(f"nagao/threads={threads}")
        for poly, _ in MOMENT_CURVES:
            out_m = tmp_path / f"moments-{threads}.csv"
            run(
                ExperimentConfig(
                    command="moments", f=poly, N=N_BIG, threads=threads,
                    cache_dir=cache_dir, output=str(out_m),
                )
            )
            if out_m.read_bytes() != artifacts["moments:" + poly]:
                mismatched.append(f"moments({poly})/threads={threads}")
    # a cold-cache sweep at a smaller N, exercising the parallel compute path
    cold = []
    for threads in (1, 4, 8):
        out = tmp_path / f"cold-{threads}.csv"
        run(
            ExperimentConfig(
                command="nagao", f="x^3+x", N=20000, grid="geometric:10",
                threads=threads, cache_dir=str(tmp_path / f"cold-cache-{threads}"),
                output=str(out),
            )
        )
        cold.append(out.read_bytes())
    if not (cold[0] == cold[1] == cold[2]):
        mismatched.append("cold-cache nagao")
    report(
        "criterion 7: thread-count determinism",
        not mismatched,
        "byte-identical CSV under 1/4/8 workers" if not mismatched else f"mismatches: {mismatched}",
    )
