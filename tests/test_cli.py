import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nagaolab.cli as cli_mod
import nagaolab.curves as curves_mod
import nagaolab.finite_field as ff_mod
import nagaolab.twist as twist_mod
from nagaolab.cache import HEADER, TraceCache, cache_path, fingerprint
from nagaolab.cli import (
    EXIT_BAD_CURVE,
    EXIT_CACHE,
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_WORKER,
    MAX_THREADS,
    ExperimentConfig,
    main,
    parse_mobius,
    run,
)
from nagaolab.curves import curve_from_poly, good_primes, hyperelliptic_trace
from nagaolab.polynomials import ParseError, PolynomialError, parse_polynomial
from nagaolab.stats import load_st_table


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


def test_trace_to_a_file_sieves_once(tmp_path):
    """The sweep's good primes and the ``.skipped`` sidecar share one sieve."""
    ff_mod._primes_below.cache_clear()
    out = tmp_path / "t.csv"
    assert run(cfg("trace", f="x^3+x+1", N=3001, output=str(out))) == EXIT_OK
    info = ff_mod._primes_below.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert (tmp_path / "t.csv.skipped").read_text().splitlines() == ["2,p=2", "31,disc"]  # disc = -31


def test_lpoly_command(tmp_path):
    out = tmp_path / "l.csv"
    assert run(cfg("lpoly", f="x^5-x", N=10, output=str(out))) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "p,a,b"
    assert lines[1] == "3,0,-2"


def test_lpoly_cap_checked_before_any_count(monkeypatch):
    calls = []
    monkeypatch.setattr(curves_mod, "_count_fp2", lambda *a: calls.append(a))
    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", lambda *a: calls.append(a))
    assert run(cfg("lpoly", f="x^5-x+1", N=20000, output="-")) == EXIT_CAP
    assert calls == []


def test_lpoly_warm_rerun_reads_cache(tmp_path, monkeypatch):
    base = dict(f="x^5-x+1", N=300, cache_dir=str(tmp_path / "cache"))
    assert run(cfg("lpoly", output=str(tmp_path / "cold.csv"), **base)) == EXIT_OK
    computed = []
    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", lambda *a: computed.append(a))
    assert run(cfg("lpoly", output=str(tmp_path / "warm.csv"), **base)) == EXIT_OK
    assert computed == []
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


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


def test_exit_code_parse_error(tmp_path, capsys, monkeypatch):
    computed = []
    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", lambda *a: computed.append(a))
    assert run(cfg("trace", f="x^^3", N=10, output="-")) == EXIT_CONFIG
    assert run(cfg("nagao", f="", N=10, output="-")) == EXIT_CONFIG
    assert main(["trace", "--badflag"]) == EXIT_CONFIG
    assert main(["nagao", "--f", "T^3+T", "--N", "100", "--mode", "fiberwise"]) == EXIT_CONFIG
    assert main(["nagao", "--f", "T^3+T", "--N", "100", "--gr", "100"]) == EXIT_CONFIG  # no prefix of --grid
    # a cutoff outside [2, N], a bad point count, a kind that is not exactly "geometric"
    for grid in ("5000", "1,50", "geometric:x", "geometric:0", "geometricXYZ", "geometric:"):
        capsys.readouterr()
        assert main(["nagao", "--f", "T^3+T", "--N", "100", "--grid", grid]) == EXIT_CONFIG
        assert len(capsys.readouterr().err.splitlines()) == 1
    for command, f in (("moments", "x^3+x"), ("st-classify", "x^5-x+1")):  # no good prime <= N
        assert main([command, "--f", f, "--N", "2"]) == EXIT_CONFIG
        assert len(capsys.readouterr().err.splitlines()) == 1
    assert main(["trace", "--f", "x^3+x", "--N", "50", "--verify-cache"]) == EXIT_CONFIG  # no cache to verify
    assert capsys.readouterr().err == "error: --verify-cache requires --cache-dir\n"
    assert computed == []


def test_exit_code_bad_curve():
    assert run(cfg("trace", f="x^3-3*x+2", N=10, output="-")) == EXIT_BAD_CURVE
    assert run(cfg("trace", f="x^2+1", N=10, output="-")) == EXIT_BAD_CURVE


CURVE_ERRORS = [
    (["trace", "--f", "0"], "error: degree must be 3..6, got the zero polynomial"),
    (["nagao", "--f", "T^3+T", "--D", "5", "--N", "50"], "error: 5 is constant, not a curve"),
    (
        ["factor-check", "--f", "x^3+x", "--D", "x^2-2*x+1", "--N", "50"],
        "error: x^2 - 2*x + 1 has a repeated root (not squarefree over Q)",
    ),
]


@pytest.mark.parametrize("argv, line", CURVE_ERRORS, ids=[a[0] for a, _ in CURVE_ERRORS])
def test_curve_error_names_the_polynomial(argv, line, capsys):
    assert main(argv) == EXIT_BAD_CURVE
    assert capsys.readouterr().err == line + "\n"


SIDECAR_LEAD = [
    (["trace", "--f", "3*x^3+1", "--N", "20"], "2,p=2\n3,lead\n"),
    (["nagao", "--f", "x^3+x", "--D", "5*x^3+x+1", "--N", "60", "--grid", "60"], "2,p=2\n5,lead\n"),
]


@pytest.mark.parametrize("argv, sidecar", SIDECAR_LEAD, ids=[a[0] for a, _ in SIDECAR_LEAD])
def test_sidecar_lead_reason(argv, sidecar, tmp_path):
    """A prime that divides a leading coefficient is skipped as "lead"; in nagao
    5 divides only the leading coefficient of D."""
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == EXIT_OK
    assert (tmp_path / "out.csv.skipped").read_text() == sidecar


def test_exit_code_cap():
    assert run(cfg("nagao", f="T^3+T", N=10**7 + 1, output="-")) == EXIT_CAP


QUINTIC = "x^5+2*x^4+3*x^3+3*x^2+2*x+1"
BIG_N = str(10**7 + 1)
LONG_COEF = "1" * 5000

# (argv, documented exit code); a cache-corruption case finds a garbled cache
# file of its --f curve in --cache-dir.
EXIT_CASES = [
    (["trace", "--f", "x^3+x", "--N", "50"], EXIT_OK),
    (["trace", "--f", "x^^3"], EXIT_CONFIG),
    (["trace", "--f", "x^999999999", "--N", "10"], EXIT_CONFIG),  # exponent cap, before any allocation
    (["trace", "--f", LONG_COEF + "*x^3+x", "--N", "10"], EXIT_CONFIG),  # beyond int()'s digit limit
    (["trace"], EXIT_CONFIG),
    (["trace", "--f", "x^3-3*x+2"], EXIT_BAD_CURVE),
    (["trace", "--f", "x^2+1"], EXIT_BAD_CURVE),
    (["trace", "--f", "x^3+x", "--N", BIG_N], EXIT_CAP),
    (["trace", "--f", "x^3+x", "--N", "50"], EXIT_CACHE),
    (["lpoly", "--f", "x^5-x", "--N", "20"], EXIT_OK),
    (["lpoly", "--f", "x^5-x", "--threads", "0"], EXIT_CONFIG),
    (["trace", "--f", "x^3+x", "--N", "5000", "--threads", str(MAX_THREADS + 1)], EXIT_CONFIG),
    (["lpoly", "--f", "x^3+x"], EXIT_BAD_CURVE),
    (["lpoly", "--f", "x^5-x", "--N", BIG_N], EXIT_CAP),
    (["lpoly", "--f", "x^5-x", "--N", "20000"], EXIT_CAP),
    (["lpoly", "--f", "x^5-x", "--N", "20"], EXIT_CACHE),
    (["nagao", "--f", "T^3+T", "--N", "200", "--grid", "100,200"], EXIT_OK),
    (["nagao", "--f", "T^3+T", "--N", "200", "--grid", "300"], EXIT_CONFIG),
    (["nagao", "--f", "T^3+T", "--D", "T^2-2*T+1", "--N", "200"], EXIT_BAD_CURVE),
    (["nagao", "--f", "x^7+x+1", "--N", "200"], EXIT_BAD_CURVE),  # accepted before
    (["nagao", "--f", "T^3+T", "--N", BIG_N], EXIT_CAP),
    (["nagao", "--f", "T^3+T", "--D", "x^11+x+1", "--N", "200"], EXIT_CAP),  # deg D > 10
    (["nagao", "--f", "T^3+T", "--N", "200", "--grid", "200"], EXIT_CACHE),
    (["moments", "--f", "x^3+x+1", "--N", "200"], EXIT_OK),
    (["moments", "--f", "x^3+x", "--N", "2"], EXIT_CONFIG),
    (["moments", "--f", "x^4"], EXIT_BAD_CURVE),
    (["moments", "--f", "x^3+x", "--N", BIG_N], EXIT_CAP),
    (["moments", "--f", "x^3+x+1", "--N", "200"], EXIT_CACHE),
    (["st-classify", "--f", "x^5-x+1", "--N", "200"], EXIT_OK),
    (["st-classify", "--f", "x^5-x+1", "--N", "2"], EXIT_CONFIG),
    (["st-classify", "--f", "x^7+1"], EXIT_BAD_CURVE),
    (["st-classify", "--f", "x^5-x+1", "--N", BIG_N], EXIT_CAP),
    (["st-classify", "--f", "x^5-x+1", "--N", "200"], EXIT_CACHE),
    (["peterson", "--f", QUINTIC, "--sigma", "1/x"], EXIT_OK),
    (["peterson", "--f", "x^3-x", "--sigma", "-x"], EXIT_CONFIG),
    (["peterson", "--f", "x^3-x"], EXIT_CONFIG),
    (["peterson", "--f", "x^3", "--sigma", "1/x"], EXIT_BAD_CURVE),  # exit 1 before
    (["factor-check", "--f", "x^3+x", "--D", "x^6+2", "--N", "100"], EXIT_OK),
    (["factor-check", "--f", "x^3+x", "--N", "100"], EXIT_CONFIG),
    (["factor-check", "--f", "x^3+x", "--D", "auto-peterson", "--N", "100"], EXIT_CONFIG),
    (["factor-check", "--f", "x^3+x", "--D", "x^6+2", "--s-curves", "x^3", "--N", "100"], EXIT_BAD_CURVE),
    (["factor-check", "--f", "x^7+x+1", "--D", "x^3+x", "--N", "100"], EXIT_BAD_CURVE),  # accepted before
    (["factor-check", "--f", "x^3+x", "--D", "x^3+x", "--r", "1", "--s-curves", "x^5-x+1", "--N", "50"], EXIT_BAD_CURVE),
    (["factor-check", "--f", "x^5-x+1", "--D", "x^3+x", "--r", "1", "--s-curves", "x^3+x+1", "--N", "50"], EXIT_BAD_CURVE),
    (["factor-check", "--f", QUINTIC, "--D", "auto-peterson", "--sigma", "1/x", "--N", BIG_N], EXIT_CAP),
    (["factor-check", "--f", "x^3+x", "--D", "x^11+x+1", "--N", "100"], EXIT_CAP),  # deg D > 10
    (["factor-check", "--f", "x^3+x", "--D", "x^6+2", "--N", "100"], EXIT_CACHE),
]


@pytest.mark.parametrize(
    "argv, code",
    EXIT_CASES,
    ids=[" ".join(a).replace(LONG_COEF, "<5000 ones>") + f" -> {c}" for a, c in EXIT_CASES],
)
def test_exit_codes(argv, code, tmp_path, capsys, monkeypatch):
    """Each command's documented exit codes; a failure prints one stderr line
    and computes no trace, and no case builds a worker pool."""
    computed = []
    real = curves_mod.hyperelliptic_trace
    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", lambda *a: computed.append(a) or real(*a))

    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} workers was built")

    monkeypatch.setattr(curves_mod, "_process_pool", no_pool)
    cache = tmp_path / "cache"
    if code == EXIT_CACHE:
        cache.mkdir()
        cache_path(cache, parse_polynomial(argv[argv.index("--f") + 1])).write_text("NOT A CACHE\n")
    assert main(argv + ["--cache-dir", str(cache), "--output", str(tmp_path / "out.csv")]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == "" and (tmp_path / "out.csv").exists()
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert computed == []


def test_commands_run_without_sympy():
    """Every command runs in a fresh interpreter where sympy cannot be imported.
    The cubic with 38-digit coefficients and the degree-10 D with them (a
    379-digit discriminant) are curves whose bad primes no longer need
    factoring, which took minutes on them."""
    big = "10000000000000000000000000000000000007*x+10000000000000000000000000000000000009"
    runs = [
        ["trace", "--f", "x^3+" + big, "--N", "50"],
        ["lpoly", "--f", "x^5-x+1", "--N", "30"],
        ["nagao", "--f", "T^3+T", "--D", "x^10+" + big, "--N", "100", "--grid", "100"],
        ["moments", "--f", "x^3+x+1", "--N", "100"],
        ["st-classify", "--f", "x^5-x+1", "--N", "100"],
        ["peterson", "--f", QUINTIC, "--sigma", "1/x"],
        ["factor-check", "--f", QUINTIC, "--D", "auto-peterson", "--sigma", "1/x", "--N", "100"],
    ]
    proc = fresh_python(
        "sys.modules['sympy'] = None  # any import of sympy now fails",
        "from nagaolab.cli import main",
        f"for argv in {runs!r}:",
        "    assert main(argv) == 0, argv",
    )
    assert proc.returncode == 0, proc.stderr


def fresh_python(*lines: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run the lines, after ``import sys``, in a fresh interpreter started
    with the interpreter ``flags`` on the package source; stdout and stderr
    are captured as bytes."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "\n".join(["import sys", *lines])
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, timeout=60)


def test_pool_modules_load_only_for_a_pool(tmp_path):
    """The process-pool modules stay out of start-up and out of a cold run on
    one thread.  A cold run on two threads loads them (the probe can see
    them), and its own process, which forks the workers, never loads numpy."""
    argv = ["st-classify", "--f", "x^5-x+1", "--N", "2000", "--output", str(tmp_path / "out.csv")]
    pool = "'concurrent.futures.process'"
    one = fresh_python(
        "from nagaolab.cli import main",
        f"assert {pool} not in sys.modules, 'loaded by import nagaolab.cli'",
        f"assert main({argv!r}) == 0",
        f"assert {pool} not in sys.modules, 'loaded by a one-thread run'",
    )
    assert one.returncode == 0, one.stderr
    two = fresh_python(
        "from nagaolab.cli import main",
        f"assert main({argv + ['--threads', '2']!r}) == 0",
        f"assert {pool} in sys.modules, 'a two-thread run built no pool'",
        "assert 'numpy' not in sys.modules, 'numpy loaded outside the workers'",
    )
    assert two.returncode == 0, two.stderr


WARM_RUNS = [
    ["trace", "--f", "x^5-x+1", "--N", "300"],
    ["moments", "--f", "x^3+x+1", "--N", "300"],
    ["st-classify", "--f", "x^5-x+1", "--N", "2000", "--threads", "2"],  # cold: the traces run in workers
    ["nagao", "--f", "T^3+T", "--D", "x^4+3", "--N", "300", "--grid", "100,300"],
    ["factor-check", "--f", QUINTIC, "--D", "auto-peterson", "--sigma", "1/x", "--N", "300"],
]


@pytest.mark.parametrize("argv", WARM_RUNS, ids=[a[0] for a in WARM_RUNS])
def test_warm_run_needs_no_numpy(argv, tmp_path):
    """numpy loads only to compute a trace: with numpy blocked, a run whose
    every a_p is in the cache its cold run filled exits 0 with the cold
    run's stdout bytes."""
    argv = argv + ["--cache-dir", str(tmp_path / "cache")]
    cold = fresh_python("from nagaolab.cli import main", f"sys.exit(main({argv!r}))")
    assert cold.returncode == 0, cold.stderr
    warm = fresh_python(
        "sys.modules['numpy'] = None  # any import of numpy now fails",
        "from nagaolab.cli import main",
        f"sys.exit(main({argv!r}))",
    )
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout and cold.stdout


COMMON = ["--f", "--threads", "--cache-dir", "--output", "--format"]
SWEEP = COMMON + ["--N", "--verify-cache"]
ACCEPTED = {
    "trace": SWEEP,
    "lpoly": SWEEP,
    "nagao": SWEEP + ["--D", "--grid"],
    "moments": SWEEP,
    "st-classify": SWEEP,
    "peterson": COMMON + ["--sigma"],
    "factor-check": SWEEP + ["--D", "--sigma", "--r", "--s-curves"],
}
FLAG_VALUES = {
    "--f": "x^3+x", "--D": "x^3+5*x+7", "--sigma": "1/x", "--N": "50", "--grid": "geometric:3",
    "--r": "2", "--s-curves": "x^3+x+1", "--threads": "2", "--cache-dir": "cache",
    "--output": "-", "--format": "json", "--verify-cache": None,
}
FLAG_CASES = [(command, flag) for command in ACCEPTED for flag in FLAG_VALUES]


@pytest.mark.parametrize("command, flag", FLAG_CASES, ids=[f"{c} {f}" for c, f in FLAG_CASES])
def test_command_accepts_only_its_flags(command, flag, capsys, monkeypatch):
    """Each command parses exactly the flags it reads; any other flag exits 1
    with one error line before any trace."""
    computed = []
    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", lambda *a: computed.append(a))
    argv = [command, flag] + ([] if FLAG_VALUES[flag] is None else [FLAG_VALUES[flag]])
    if flag in ACCEPTED[command]:
        args = vars(cli_mod.build_parser().parse_args(argv))
        assert len(args) == 2  # the command and this flag; the rest keep the config defaults
        ExperimentConfig(**args)
        return
    assert main(argv + ["--f", "x^3+x"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: unrecognized arguments: " + flag), err
    assert computed == []


def test_config_builds_from_the_parser():
    """``main`` builds its config as ExperimentConfig(**vars(args)): every flag
    lands in its field, and a flag left out keeps the field's default."""
    argv = [
        "factor-check", "--f", "x^3+x", "--D", "auto-peterson", "--sigma", "1/x", "--N", "500",
        "--r", "3", "--s-curves", "x^3+1,x^3+2", "--threads", "2", "--cache-dir", "c",
        "--output", "o.csv", "--format", "json", "--verify-cache",
    ]
    full = ExperimentConfig(**vars(cli_mod.build_parser().parse_args(argv)))
    assert full == ExperimentConfig(
        "factor-check", "x^3+x", "auto-peterson", "1/x", 500, "geometric:20", 3,
        ["x^3+1", "x^3+2"], 2, "c", "o.csv", "json", True,
    )
    bare = ExperimentConfig(**vars(cli_mod.build_parser().parse_args(["nagao"])))
    assert bare == ExperimentConfig("nagao") and bare.s_curves == () and bare.cache_dir is None


@pytest.mark.parametrize("where", ["missing-output-dir", "output-is-dir", "cache-dir-is-file"])
def test_unwritable_path_fails_before_any_trace(where, tmp_path, capsys, monkeypatch):
    computed = []
    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", lambda *a: computed.append(a))
    out, cache = tmp_path / "out.csv", tmp_path / "cache"
    if where == "missing-output-dir":
        out = tmp_path / "no-such-dir" / "out.csv"
    elif where == "output-is-dir":
        out.mkdir()
    else:
        cache.write_text("a file\n")
    argv = ["nagao", "--f", "T^3+T", "--N", "300", "--cache-dir", str(cache), "--output", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert computed == []


def test_cache_not_utf8_quarantined(tmp_path, capsys):
    cache = tmp_path / "cache"
    base = dict(f="x^3+x+1", N=50, cache_dir=str(cache))
    assert run(cfg("trace", output=str(tmp_path / "cold.csv"), **base)) == EXIT_OK
    path = cache_path(cache, parse_polynomial("x^3+x+1"))
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    capsys.readouterr()
    assert run(cfg("trace", output=str(tmp_path / "warm.csv"), **base)) == EXIT_CACHE
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert path.with_suffix(".txt.corrupt").exists() and not path.exists()



def test_st_classify_runs(tmp_path, monkeypatch):
    calls = []
    real = cli_mod.empirical_moments

    def counted(traces):
        calls.append(len(traces))
        return real(traces)

    monkeypatch.setattr(cli_mod, "empirical_moments", counted)
    out = tmp_path / "s.json"
    assert run(cfg("st-classify", f="x^5-x+1", N=3000, output=str(out), fmt="json")) == EXIT_OK
    assert len(calls) == 1
    (row,) = json.loads(out.read_text())
    assert row["moment_class"] in (1, 2, None)
    if row["moment_class"] == 1:
        assert row["predicted_rank"] == 1
        assert "USp(4)" in row["candidates"]


@pytest.mark.parametrize("f", ["x^3+x", "x^3+x+1"], ids=["cm", "non-cm"])
def test_st_classify_genus1_candidates(f, tmp_path):
    out = tmp_path / "s.json"
    assert run(cfg("st-classify", f=f, N=3000, output=str(out), fmt="json")) == EXIT_OK
    (row,) = json.loads(out.read_text())
    assert row["moment_class"] == 1
    assert row["candidates"] == "SU(2)|N(U(1))"
    assert not set(row["candidates"].split("|")) & {r.name for r in load_st_table()}


CLASS_2 = (
    "J(C_2)|J(C_4)|J(C_6)|C_{6,1}|D_{2,1}|D_{3,2}|D_{4,2}|D_{6,2}"
    "|E_2|E_3|E_4|E_6|J(E_1)|F_{a,b}|N(G_{1,3})|G_{3,3}"
)


@pytest.mark.parametrize(
    "f, cls, candidates", [("x^6+1", 4, "C_{2,1}|E_1"), ("x^5+x", 2, CLASS_2)], ids=["class-4", "class-2"]
)
def test_st_classify_genus2_candidates(f, cls, candidates, tmp_path):
    """The candidates are the table's groups whose second moment is the class,
    in table order."""
    out = tmp_path / "s.json"
    assert run(cfg("st-classify", f=f, N=3000, output=str(out), fmt="json")) == EXIT_OK
    (row,) = json.loads(out.read_text())
    assert row["moment_class"] == row["predicted_rank"] == cls
    assert row["candidates"] == candidates
    assert candidates.split("|") == [r.name for r in load_st_table() if r.second_moment == cls]


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


def test_peterson_three_cycle_cli_bytes(tmp_path):
    base = dict(f="x^3-x", sigma="(x+1)/(-3x+1)")
    d = "7346640384*T^6 + 2176782336*T^4 - 429981696*T^2 - 56623104"
    csv_out, json_out = tmp_path / "p.csv", tmp_path / "p.json"
    assert run(cfg("peterson", output=str(csv_out), **base)) == EXIT_OK
    assert csv_out.read_text() == f"D,multiplier\n{d},13824\n"
    assert run(cfg("peterson", output=str(json_out), fmt="json", **base)) == EXIT_OK
    assert json_out.read_text() == json.dumps([{"D": d, "multiplier": 13824}], indent=2) + "\n"


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
    assert records[1823] == hyperelliptic_trace(f, 1823)
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        cache_path(cache, parse_polynomial(g)).name for g in ("x^3+x", "x^3+5*x+7")
    )
    computed = []
    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", lambda *a: computed.append(a))
    assert run(cfg("trace", output=str(tmp_path / "t2.csv"), **base)) == EXIT_OK
    assert computed == [] and path.read_bytes() == filled
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


# A record line TraceCache cannot read, in place of the first record.
MALFORMED = {"no comma": "3", "three fields": "3,0,0", "non-integer p": "3.0,0"}


def _garble(path, how):
    """Damage a cache file of x^3+x in one of the ways TraceCache rejects."""
    head, fp, *records = path.read_text().splitlines()
    if how in MALFORMED:
        lines = [head, fp, MALFORMED[how], *records[1:]]
    elif how == "bad header":
        lines = ["NOT A CACHE"]
    elif how == "fingerprint mismatch":  # another curve's fingerprint
        lines = [head, fingerprint(parse_polynomial("x^3+x+1")), *records]
    elif how == "out of order":
        lines = [head, fp, records[1], records[0], *records[2:]]
    else:  # a duplicated p
        lines = [head, fp, records[0], *records]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "how, reason",
    [
        ("bad header", "bad header"),
        ("fingerprint mismatch", "fingerprint mismatch"),
        ("out of order", "records not strictly ascending in p"),
        ("duplicated p", "records not strictly ascending in p"),
        *((how, f"malformed record {line!r}") for how, line in MALFORMED.items()),
    ],
    ids=["bad-header", "fingerprint", "out-of-order", "duplicated-p", *(h.replace(" ", "-") for h in MALFORMED)],
)
def test_cache_corruption_quarantined(how, reason, tmp_path, capsys):
    cache = tmp_path / "cache"
    run(cfg("trace", f="x^3+x", N=100, cache_dir=str(cache), output=str(tmp_path / "o.csv")))
    path = cache_path(cache, parse_polynomial("x^3+x"))
    _garble(path, how)
    capsys.readouterr()
    rc = run(cfg("trace", f="x^3+x", N=100, cache_dir=str(cache), output=str(tmp_path / "o2.csv")))
    assert rc == EXIT_CACHE
    assert path.with_suffix(".txt.corrupt").exists() and not path.exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and line.endswith(": " + reason), line


@pytest.mark.parametrize("cut", ["397,2", "-"], ids=["parses", "unparsable"])
def test_cache_torn_tail_recovered(tmp_path, cut):
    """An append cut short by a crash loses only its unterminated last line."""
    cache = tmp_path / "cache"
    base = dict(f="x^3+x+1", N=400, cache_dir=str(cache))
    assert run(cfg("trace", output=str(tmp_path / "cold.csv"), **base)) == EXIT_OK
    path = cache_path(cache, parse_polynomial("x^3+x+1"))
    full = path.read_bytes()
    if cut == "-":  # the last negative record, cut right after its sign
        end = full.rindex(b",-") + 2
    else:
        assert full.endswith(b"\n397,25\n")
        end = len(full) - 2
    path.write_bytes(full[:end])
    assert run(cfg("trace", output=str(tmp_path / "warm.csv"), **base)) == EXIT_OK
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
    assert not list(cache.glob("*.corrupt"))
    assert path.read_bytes() == full


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


LAYER_MODULES = ["finite_field", "polynomials", "curves", "twist", "stats", "cache", "cli"]
# Every name nagaolab/__init__.py exports.
PACKAGE_EXPORTS = [
    "BadPrimeError", "BadPrimes", "CurveSpec", "TraceRecord", "char_sum", "curve_from_poly",
    "hyperelliptic_trace", "normalized_angle", "sweep_traces", "trace_oracle_exhaustive",
    "is_prime", "legendre", "primes_in", "residue_table",
    "IntPolynomial", "ParseError", "parse_polynomial", "poly_to_str",
    "MomentReport", "STGroupRecord", "STMeasure1D", "empirical_moments", "haar_second_moment",
    "haar_second_moment_usp4", "ks_distance", "load_st_table", "moment_class", "st_measure",
    "MobiusTransform", "NagaoSeries", "PetersonError", "TwistSurfaceSpec", "average_trace",
    "nagao_series", "peterson_D", "twist_surface", "verify_factorization",
]


# Modules that load only where they are used, never at start-up: the records
# are NamedTuples and slots classes, not dataclasses (which import inspect).
LAZY_MODULES = [
    "dataclasses", "inspect", "hashlib", "tempfile", "shutil", "importlib.resources",
    "numpy", "json", "fractions",
]


def test_cli_import_loads_every_layer_and_no_numpy_json_or_fractions():
    """``import nagaolab.cli`` loads the seven layer modules, none lazily, and
    adds none of LAZY_MODULES, with and without the site hooks: under -S
    none of them is preloaded, so the import itself is checked."""
    for flags in [(), ("-S",)]:
        proc = fresh_python(
            "before = set(sys.modules)",
            "import nagaolab.cli",
            f"missing = [m for m in {LAYER_MODULES!r} if 'nagaolab.' + m not in sys.modules]",
            "assert not missing, f'layers not loaded: {missing}'",
            f"added = [m for m in {LAZY_MODULES!r} if m in set(sys.modules) - before]",
            "assert not added, f'loaded at start-up: {added}'",
            f"from nagaolab import {', '.join(PACKAGE_EXPORTS)}",
            flags=flags,
        )
        assert proc.returncode == 0, (flags, proc.stderr)


def _sweep_argv(tmp_path, cache, out, threads):
    return [
        "trace", "--f", "x^3+x+1", "--N", "300", "--threads", str(threads),
        "--cache-dir", str(tmp_path / cache), "--output", str(tmp_path / out),
    ]


def test_dead_worker_exits_5_and_keeps_the_complete_blocks(tmp_path, capsys, monkeypatch):
    """A worker that dies ends the run with one error line and exit 5; the
    cache keeps only complete blocks below the lost one, and a rerun gives
    the report and cache bytes of an uninterrupted run."""
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(curve_from_poly(f).bad_primes, 300)
    die_at = primes[9]  # in the third block
    parent = os.getpid()
    real = curves_mod.hyperelliptic_trace

    def dying(g, p, table=None):  # forked workers inherit the patch
        if p == die_at and os.getpid() != parent:
            os._exit(1)
        return real(g, p, table)

    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", dying)
    assert main(_sweep_argv(tmp_path, "cache", "out.csv", 2)) == EXIT_WORKER
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: a worker process died"), err
    # Every block still in flight when the worker died is lost, so the named
    # block is the first of them: the died one or one before it.
    lost = primes.index(int(re.search(r"p = (\d+)", err).group(1)))
    assert lost % 4 == 0 and lost <= primes.index(die_at)
    assert sorted(TraceCache(tmp_path / "cache", f).records) == primes[:lost]
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", real)
    assert main(_sweep_argv(tmp_path, "cache", "out.csv", 2)) == EXIT_OK
    assert main(_sweep_argv(tmp_path, "cold", "cold.csv", 1)) == EXIT_OK
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
    assert cache_path(tmp_path / "cache", f).read_bytes() == cache_path(tmp_path / "cold", f).read_bytes()
    assert multiprocessing.active_children() == []


def test_interrupt_exits_130_and_keeps_the_complete_blocks(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(curve_from_poly(f).bad_primes, 300)
    real = curves_mod.hyperelliptic_trace

    def interrupted(g, p, table=None):
        if p == primes[9]:
            raise KeyboardInterrupt
        return real(g, p, table)

    monkeypatch.setattr(curves_mod, "hyperelliptic_trace", interrupted)
    assert main(_sweep_argv(tmp_path, "cache", "out.csv", 1)) == EXIT_INTERRUPTED
    assert capsys.readouterr().err == "error: interrupted\n"
    assert sorted(TraceCache(tmp_path / "cache", f).records) == primes[:8]


def test_ctrl_c_on_two_threads_prints_one_line_and_leaves_no_process(tmp_path):
    """SIGINT to the process group of a run on two worker processes, one of
    them idle and one deep in a block: the CLI prints one error line and
    exits 130, and no process of the group is left."""
    cache = tmp_path / "cache"
    # Two blocks of 128 primes; every prime of the second one takes a minute.
    script = "\n".join([
        "import sys, time",
        "import nagaolab.curves as curves",
        "from nagaolab.cli import main",
        "real = curves.hyperelliptic_trace",
        "curves.hyperelliptic_trace = lambda g, p, t=None: time.sleep(60) if p > 800 else real(g, p, t)",
        f"sys.exit(main({['trace', '--f', 'x^3+x+1', '--N', '1000', '--threads', '2', '--cache-dir', str(cache)]!r}))",
    ])
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,  # its own process group, shared by its workers
    )
    try:
        deadline = time.monotonic() + 30
        while not any(cache.glob("trace_*.txt")):  # the first block is in; one worker idles
            assert proc.poll() is None and time.monotonic() < deadline, "no block was cached"
            time.sleep(0.01)
        time.sleep(0.2)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err) == (EXIT_INTERRUPTED, b"error: interrupted\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # the group is empty: no worker outlived the CLI
