import json
import os

import pytest

import nagaolab.cli as cli_mod
import nagaolab.curves as curves_mod
import nagaolab.twist as twist_mod
from nagaolab.cache import HEADER, TraceCache, cache_path, fingerprint
from nagaolab.cli import (
    EXIT_BAD_CURVE,
    EXIT_CACHE,
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_OK,
    ExperimentConfig,
    main,
    parse_mobius,
    run,
)
from nagaolab.curves import curve_from_poly, curve_trace
from nagaolab.polynomials import ParseError, PolynomialError, parse_polynomial


def cfg(command, **kw):
    return ExperimentConfig(command=command, **kw)


def test_parse_mobius_shorthand():
    m = parse_mobius("1/x")
    assert (m.a, m.b, m.c, m.d) == (0, 1, 1, 0)


def test_parse_mobius_general():
    m = parse_mobius("(x+1)/(-3x+1)")
    assert (m.a, m.b, m.c, m.d) == (1, 1, -3, 1)
    m2 = parse_mobius("-x")
    assert (m2.a, m2.b, m2.c, m2.d) == (-1, 0, 0, 1)


def test_parse_mobius_degenerate():
    with pytest.raises(PolynomialError):
        parse_mobius("(2x+2)/(x+1)")


def test_parse_mobius_rejects_quadratic():
    with pytest.raises(ParseError):
        parse_mobius("(x^2+1)/x")


def test_trace_command_csv(tmp_path):
    out = tmp_path / "t.csv"
    rc = run(cfg("trace", f="x^3+x", N=20, output=str(out)))
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "p,a"
    assert lines[1] == "3,0"
    assert lines[2] == "5,2"
    skipped = (tmp_path / "t.csv.skipped").read_text().splitlines()
    assert skipped == ["2,p=2"]


def test_lpoly_command(tmp_path):
    out = tmp_path / "l.csv"
    assert run(cfg("lpoly", f="x^5-x", N=10, output=str(out))) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "p,a,b"
    assert lines[1] == "3,0,-2"


def test_lpoly_cap_checked_before_any_count(monkeypatch):
    calls = []
    monkeypatch.setattr(cli_mod, "l_polynomial_genus2", lambda c, p: calls.append(p))
    assert run(cfg("lpoly", f="x^5-x+1", N=20000, output="-")) == EXIT_CAP
    assert calls == []


def test_json_mirrors_csv_fields(tmp_path):
    out_c = tmp_path / "m.csv"
    out_j = tmp_path / "m.json"
    assert run(cfg("moments", f="x^3+x", N=200, output=str(out_c))) == EXIT_OK
    assert run(cfg("moments", f="x^3+x", N=200, output=str(out_j), fmt="json")) == EXIT_OK
    header = out_c.read_text().splitlines()[0].split(",")
    payload = json.loads(out_j.read_text())
    assert list(payload[0].keys()) == header


def test_nagao_csv_columns(tmp_path):
    out = tmp_path / "n.csv"
    assert run(cfg("nagao", f="T^3+T", N=300, grid="100,300", output=str(out))) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "N,S1,S2,n_primes"
    assert len(lines) == 3


def test_exit_code_parse_error(tmp_path, capsys):
    assert run(cfg("trace", f="x^^3", N=10, output="-")) == EXIT_CONFIG
    assert run(cfg("nagao", f="", N=10, output="-")) == EXIT_CONFIG
    assert main(["trace", "--badflag"]) == EXIT_CONFIG
    assert main(["nagao", "--f", "T^3+T", "--N", "100", "--mode", "fiberwise"]) == EXIT_CONFIG
    for grid in ("5000", "1,50", "geometric:x"):  # a cutoff outside [2, N], a bad point count
        capsys.readouterr()
        assert main(["nagao", "--f", "T^3+T", "--N", "100", "--grid", grid]) == EXIT_CONFIG
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_exit_code_bad_curve():
    assert run(cfg("trace", f="x^3-3*x+2", N=10, output="-")) == EXIT_BAD_CURVE
    assert run(cfg("trace", f="x^2+1", N=10, output="-")) == EXIT_BAD_CURVE


def test_exit_code_cap():
    assert run(cfg("nagao", f="T^3+T", N=10**7 + 1, output="-")) == EXIT_CAP


def test_st_classify_runs(tmp_path, monkeypatch):
    calls = []
    real = cli_mod.empirical_moments

    def counted(traces, N=None):
        calls.append(N)
        return real(traces, N=N)

    monkeypatch.setattr(cli_mod, "empirical_moments", counted)
    out = tmp_path / "s.json"
    assert run(cfg("st-classify", f="x^5-x+1", N=3000, output=str(out), fmt="json")) == EXIT_OK
    assert calls == [3000]
    (row,) = json.loads(out.read_text())
    assert row["moment_class"] in (1, 2, None)
    if row["moment_class"] == 1:
        assert row["predicted_rank"] == 1
        assert "USp(4)" in row["candidates"]


def test_peterson_and_factor_check_cli(tmp_path):
    out = tmp_path / "p.csv"
    quintic = "x^5+2*x^4+3*x^3+3*x^2+2*x+1"
    assert run(cfg("peterson", f=quintic, sigma="1/x", output=str(out))) == EXIT_OK
    header, row = out.read_text().splitlines()
    assert header == "D,multiplier"
    d_str, mult = row.rsplit(",", 1)
    assert mult == "1"
    assert parse_polynomial(d_str) == parse_polynomial("T^10+2*T^8+3*T^6+3*T^4+2*T^2+1")

    out2 = tmp_path / "fc.csv"
    rc = run(
        cfg("factor-check", f=quintic, D="auto-peterson", sigma="1/x", r=2, N=1000, output=str(out2))
    )
    assert rc == EXIT_OK
    assert out2.read_text().splitlines()[1].startswith("pass,")


def test_factor_check_failure_row(tmp_path):
    out = tmp_path / "fc.csv"
    rc = run(cfg("factor-check", f="x^3+x", D="x^6+2", r=2, N=100, output=str(out)))
    assert rc == EXIT_OK
    assert out.read_text().splitlines()[1] == "fail,5,0"


def test_peterson_error_exit_code():
    assert run(cfg("peterson", f="x^3-x", sigma="-x", output="-")) == EXIT_CONFIG


# -- cache behavior ----------------------------------------------------------


def test_cache_cold_warm_identical(tmp_path):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = dict(f="T^3+T", N=500, grid="100,500", cache_dir=str(cache))
    assert run(cfg("nagao", output=str(out1), **base)) == EXIT_OK
    assert run(cfg("nagao", output=str(out2), **base)) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    files = list(cache.glob("trace_*.txt"))
    assert len(files) == 1
    lines = files[0].read_text().splitlines()
    assert lines[0] == HEADER
    assert lines[1] == fingerprint(parse_polynomial("T^3+T"))
    ps = [int(line.split(",")[0]) for line in lines[2:]]
    assert ps == sorted(ps)


def test_cache_extended_not_rewritten(tmp_path):
    cache = tmp_path / "cache"
    f = parse_polynomial("x^3+x")
    run(cfg("trace", f="x^3+x", N=100, cache_dir=str(cache), output=str(tmp_path / "o1.csv")))
    path = cache_path(cache, f)
    before = path.read_text()
    run(cfg("trace", f="x^3+x", N=300, cache_dir=str(cache), output=str(tmp_path / "o2.csv")))
    after = path.read_text()
    assert after.startswith(before)  # append-only
    assert len(after) > len(before)


def test_cache_fills_hole_below_max(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    f = parse_polynomial("x^3+x")
    path = cache_path(cache, f)
    base = dict(f="x^3+x", N=3000, cache_dir=str(cache))
    assert run(cfg("nagao", D="x^3+5*x+7", output=str(tmp_path / "n.csv"), **base)) == EXIT_OK
    assert 1823 not in TraceCache(cache, f).records  # bad for D = x^3+5x+7 (disc -1823) only
    assert run(cfg("trace", output=str(tmp_path / "t1.csv"), **base)) == EXIT_OK
    filled = path.read_bytes()
    records = TraceCache(cache, f).records  # loading checks the order
    assert records[1823] == curve_trace(curve_from_poly(f), 1823).a
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        cache_path(cache, parse_polynomial(g)).name for g in ("x^3+x", "x^3+5*x+7")
    )
    computed = []
    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", lambda *a: computed.append(a))
    assert run(cfg("trace", output=str(tmp_path / "t2.csv"), **base)) == EXIT_OK
    assert computed == [] and path.read_bytes() == filled
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_cache_corruption_quarantined(tmp_path):
    cache = tmp_path / "cache"
    run(cfg("trace", f="x^3+x", N=100, cache_dir=str(cache), output=str(tmp_path / "o.csv")))
    path = cache_path(cache, parse_polynomial("x^3+x"))
    path.write_text("NOT A CACHE\n")
    rc = run(cfg("trace", f="x^3+x", N=100, cache_dir=str(cache), output=str(tmp_path / "o2.csv")))
    assert rc == EXIT_CACHE
    assert path.with_suffix(".txt.corrupt").exists()


def test_verify_cache_detects_bad_record(tmp_path):
    cache = tmp_path / "cache"
    run(cfg("trace", f="x^3+x", N=100, cache_dir=str(cache), output=str(tmp_path / "o.csv")))
    path = cache_path(cache, parse_polynomial("x^3+x"))
    lines = path.read_text().splitlines()
    p, a = lines[2].split(",")
    lines[2] = f"{p},{int(a) + 1}"
    path.write_text("\n".join(lines) + "\n")
    rc = run(
        cfg(
            "trace",
            f="x^3+x",
            N=100,
            cache_dir=str(cache),
            output=str(tmp_path / "o2.csv"),
            verify_cache=True,
        )
    )
    assert rc == EXIT_CACHE


def test_cache_env_var_overrides(tmp_path, monkeypatch):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("NAGAOLAB_CACHE", str(env_cache))
    run(cfg("trace", f="x^3+x", N=50, cache_dir=str(tmp_path / "flagcache"), output=str(tmp_path / "o.csv")))
    assert env_cache.exists()
    assert not (tmp_path / "flagcache").exists()


def test_thread_count_determinism_small(tmp_path):
    outs = []
    for threads in (1, 3):
        out = tmp_path / f"n{threads}.csv"
        assert (
            run(cfg("nagao", f="T^3+T", N=2000, grid="geometric:5", threads=threads, output=str(out)))
            == EXIT_OK
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_warm_self_twist_builds_no_residue_table(tmp_path, monkeypatch):
    tables = []
    real = curves_mod.residue_table

    def counted(p, *args):
        tables.append(p)
        return real(p, *args)

    for mod in (curves_mod, twist_mod):
        monkeypatch.setattr(mod, "residue_table", counted)
    base = dict(f="T^3+T", N=2000, grid="500,2000", cache_dir=str(tmp_path / "cache"))
    assert run(cfg("nagao", output=str(tmp_path / "cold.csv"), **base)) == EXIT_OK
    assert tables  # the cold run computed its traces
    tables.clear()
    assert run(cfg("nagao", output=str(tmp_path / "warm.csv"), **base)) == EXIT_OK
    assert tables == []
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
