import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nagaolab.cli as cli_mod
import nagaolab.curves as curves_mod
import nagaolab.finite_field as ff_mod
from nagaolab.cache import HEADER, CacheCorruptError, TraceCache, _header, cache_path, fingerprint
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
from nagaolab.polynomials import IntPolynomial, ParseError, PolynomialError, parse_polynomial, poly_to_str
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


@pytest.mark.parametrize(
    "text, column",
    [("(x+*)/(2x+1)", 3), (" ( x+1 ) / ( 2x+* )", 16), ("(x+1)/(2x+*)", 10), ("x/", 2)],
)
def test_parse_mobius_error_column_counts_from_the_option(text, column):
    with pytest.raises(ParseError) as err:
        parse_mobius(text)
    assert err.value.column == column
    assert text[column : column + 1] in ("*", "")  # the "*", or the end of an empty part


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
    monkeypatch.setattr(curves_mod, "traces_at", lambda *a: calls.append(a))
    assert run(cfg("lpoly", f="x^5-x+1", N=20000, output="-")) == EXIT_CAP
    assert calls == []


def test_lpoly_warm_rerun_reads_cache(tmp_path, monkeypatch):
    base = dict(f="x^5-x+1", N=300, cache_dir=str(tmp_path / "cache"))
    assert run(cfg("lpoly", output=str(tmp_path / "cold.csv"), **base)) == EXIT_OK
    computed = []
    monkeypatch.setattr(curves_mod, "traces_at", lambda *a: computed.append(a))
    assert run(cfg("lpoly", output=str(tmp_path / "warm.csv"), **base)) == EXIT_OK
    assert computed == []
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def test_exit_code_parse_error(tmp_path, capsys, monkeypatch):
    computed = []
    monkeypatch.setattr(curves_mod, "traces_at", lambda *a: computed.append(a))
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
    # more geometric points than N: refused before the grid loop and the sweep
    assert main(["nagao", "--f", "T^3+T", "--N", "100000", "--grid", "geometric:1000000000"]) == EXIT_CONFIG
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


def test_report_without_sidecar_removes_a_stale_one(tmp_path):
    """factor-check writes no sidecar, so the one a trace left at the same
    output name (31 is a bad prime of x^3+x+1 only) is removed."""
    out = tmp_path / "o.csv"
    assert run(cfg("trace", f="x^3+x+1", N=100, output=str(out))) == EXIT_OK
    assert (tmp_path / "o.csv.skipped").read_text() == "2,p=2\n31,disc\n"
    assert run(cfg("factor-check", f="x^3+x", D="x^3+x", r=1, N=100, output=str(out))) == EXIT_OK
    assert not (tmp_path / "o.csv.skipped").exists()


def test_exit_code_cap():
    assert run(cfg("nagao", f="T^3+T", N=10**7 + 1, output="-")) == EXIT_CAP


def test_unknown_command_exits_1(capsys):
    assert run(cfg("bogus", f="x^3+x+1")) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["error: unknown command 'bogus'"]


QUINTIC = "x^5+2*x^4+3*x^3+3*x^2+2*x+1"
BIG_N = str(10**7 + 1)
LONG_COEF = "1" * 5000

# (argv, documented exit code); a cache-corruption case finds a garbled cache
# file of its --f curve in --cache-dir, which every command but peterson takes.
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
    (["factor-check", "--f", "x^3+x", "--D", "x^6+2", "--N", "2"], EXIT_CONFIG),
    (["factor-check", "--f", "x^3+x", "--N", "100"], EXIT_CONFIG),
    (["factor-check", "--f", "x^3+x", "--D", "auto-peterson", "--N", "100"], EXIT_CONFIG),
    (["factor-check", "--f", "x^3+x", "--D", "x^6+2", "--s-curves", "x^3", "--N", "100"], EXIT_BAD_CURVE),
    (["factor-check", "--f", "x^7+x+1", "--D", "x^3+x", "--N", "100"], EXIT_BAD_CURVE),  # accepted before
    (["factor-check", "--f", "x^3+x", "--D", "x^3+x", "--r", "1", "--s-curves", "x^5-x+1", "--N", "50"], EXIT_BAD_CURVE),
    (["factor-check", "--f", "x^5-x+1", "--D", "x^3+x", "--r", "1", "--s-curves", "x^3+x+1", "--N", "50"], EXIT_BAD_CURVE),
    (["factor-check", "--f", QUINTIC, "--D", "auto-peterson", "--sigma", "1/x", "--N", BIG_N], EXIT_CAP),
    (["factor-check", "--f", "x^3+x", "--D", "x^11+x+1", "--N", "100"], EXIT_CAP),  # deg D > 10
    (["factor-check", "--f", "x^3+x", "--D", "x^6+2", "--N", "100"], EXIT_CACHE),
    # an option given an empty value is read by its parser, not taken as absent
    (["nagao", "--f", "T^3+T", "--N", "200", "--D="], EXIT_CONFIG),  # exit 0 before: D = f
    (["factor-check", "--f", "x^3+x", "--D", "x^6+2", "--N", "100", "--s-curves="], EXIT_CONFIG),  # exit 0 before
    (["peterson", "--f", "x^3-x", "--sigma="], EXIT_CONFIG),
    (["trace", "--f=", "--N", "50"], EXIT_CONFIG),
    (["trace", "--f", "x^3+x", "--N", "50", "--cache-dir="], EXIT_CONFIG),  # exit 0 before: no cache
    (["trace", "--f", "x^3+x", "--N", "50", "--cache-dir=", "--verify-cache"], EXIT_CONFIG),
]


@pytest.mark.parametrize(
    "argv, code",
    EXIT_CASES,
    ids=[" ".join(a).replace(LONG_COEF, "<5000 ones>") + f" -> {c}" for a, c in EXIT_CASES],
)
def test_exit_codes(argv, code, tmp_path, capsys, monkeypatch):
    """Each command's documented exit codes; a failure prints one stderr line
    and computes no trace, and no case builds a worker pool.  Every sweeping
    case but one that names its own --cache-dir runs on a cache dir."""
    computed = []
    real = curves_mod.traces_at
    monkeypatch.setattr(curves_mod, "traces_at", lambda *a: computed.append(a) or real(*a))

    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} workers was built")

    monkeypatch.setattr(curves_mod, "_process_pool", no_pool)
    cache = tmp_path / "cache"
    if code == EXIT_CACHE:
        cache.mkdir()
        cache_path(cache, parse_polynomial(argv[argv.index("--f") + 1])).write_text("NOT A CACHE\n")
    cache_flag = [] if argv[0] == "peterson" or "--cache-dir=" in argv else ["--cache-dir", str(cache)]
    assert main(argv + cache_flag + ["--output", str(tmp_path / "out.csv")]) == code
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


def test_genus2_b_parity_check_survives_python_O():
    """The parity check of b raises under -O too, where an assert would vanish."""
    proc = fresh_python(
        "import nagaolab.curves as curves",
        "from nagaolab.polynomials import parse_polynomial",
        "assert sys.flags.optimize == 1",
        "curves._count_fp2 = lambda f, p: 1  # a^2 - (p^2 + 1 - 1) is odd at p = 3, a = 0",
        "try:",
        "    print(curves.genus2_b(parse_polynomial('x^5-x+1'), 3, 0))",
        "except AssertionError as e:",
        "    print(e)",
        flags=("-O",),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"parity failure in b (counting bug)\n"


def test_pool_modules_load_only_for_a_pool(tmp_path):
    """The process-pool modules stay out of start-up and out of a cold run on
    one thread.  A cold run on two threads loads them (the probe can see
    them) and numpy, which its workers inherit; its process has one thread
    at every fork, with OPENBLAS_NUM_THREADS unset or asking for 4 threads,
    and the BLAS settings it had before the run after it."""
    argv = ["st-classify", "--f", "x^5-x+1", "--N", "2000", "--output", str(tmp_path / "out.csv")]
    pool = "'concurrent.futures.process'"
    one = fresh_python(
        "from nagaolab.cli import main",
        f"assert {pool} not in sys.modules, 'loaded by import nagaolab.cli'",
        f"assert main({argv!r}) == 0",
        f"assert {pool} not in sys.modules, 'loaded by a one-thread run'",
    )
    assert one.returncode == 0, one.stderr
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = [f"os.environ.pop({var!r}, None)" for var in blas_vars]
    for want in (None, "4"):
        blas = [] if want is None else [f"os.environ['OPENBLAS_NUM_THREADS'] = {want!r}"]
        two = fresh_python(
            "import os",
            *unset,
            *blas,
            "threads = []  # the thread count of this process at each fork",
            "os.register_at_fork(before=lambda: threads.append(len(os.listdir('/proc/self/task'))))",
            "from nagaolab.cli import main",
            f"assert main({argv + ['--threads', '2']!r}) == 0",
            f"assert {pool} in sys.modules, 'a two-thread run built no pool'",
            "assert 'numpy' in sys.modules, 'numpy not loaded before the fork'",
            "assert threads == [1, 1], threads",
            f"assert [os.environ.get(var) for var in {blas_vars!r}] == [{want!r}, None, None], 'BLAS settings not put back'",
        )
        assert two.returncode == 0, (blas, two.stderr)


def test_one_thread_cold_run_loads_numpy_with_blas_on_one_thread(tmp_path):
    """numpy has one loader, with BLAS held to one thread, on the path of a
    one-thread run too: after a cold one-thread trace, with OPENBLAS_NUM_THREADS
    unset or asking for 4 threads, numpy is loaded, the process has one OS
    thread, and each BLAS variable is as it was before the run."""
    argv = ["trace", "--f", "x^5-x+1", "--N", "300", "--output", str(tmp_path / "out.csv")]
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for want in (None, "4"):
        proc = fresh_python(
            "import os",
            *(f"os.environ.pop({var!r}, None)" for var in blas_vars),
            *([] if want is None else [f"os.environ['OPENBLAS_NUM_THREADS'] = {want!r}"]),
            "from nagaolab.cli import main",
            f"assert main({argv!r}) == 0",
            "assert 'numpy' in sys.modules, 'a cold run loaded no numpy'",
            "assert len(os.listdir('/proc/self/task')) == 1, os.listdir('/proc/self/task')",
            f"assert [os.environ.get(var) for var in {blas_vars!r}] == [{want!r}, None, None], 'BLAS settings not put back'",
        )
        assert proc.returncode == 0, (want, proc.stderr)


def test_pool_puts_blas_settings_back():
    """Building the pool loads numpy, then puts each BLAS variable back as it
    was, set or unset; a pool given no work starts no worker."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    proc = fresh_python(
        "import os, multiprocessing",
        *(f"os.environ.pop({var!r}, None)" for var in blas_vars),
        "os.environ['OPENBLAS_NUM_THREADS'] = '4'",
        "from nagaolab.curves import _process_pool",
        "assert 'numpy' not in sys.modules, 'numpy loaded before the pool'",
        "_process_pool(1).shutdown()",
        "assert multiprocessing.active_children() == [], 'a worker started'",
        "assert 'numpy' in sys.modules, 'numpy not loaded by the pool'",
        f"assert [os.environ.get(var) for var in {blas_vars!r}] == ['4', None, None], 'BLAS settings not put back'",
    )
    assert proc.returncode == 0, proc.stderr


def test_import_and_warm_run_build_no_shared_ks(tmp_path):
    """The shared int32 k and k^2 of the kernel are built by the first trace
    computed, not by the import or by a run whose every a_p is cached."""
    argv = ["moments", "--f", "x^3+x+1", "--N", "300", "--cache-dir", str(tmp_path / "cache")]
    built = "nagaolab.finite_field.int32_ks.cache_info().misses"
    proc = fresh_python(
        "import nagaolab.cli, nagaolab.finite_field",
        f"assert {built} == 0, 'built by import nagaolab.cli'",
        f"assert nagaolab.cli.main({argv!r}) == 0",
        f"assert {built} == 1, 'a cold run built no k'",
        "nagaolab.finite_field.int32_ks.cache_clear()",
        f"assert nagaolab.cli.main({argv!r}) == 0",
        f"assert {built} == 0, 'built by a warm run'",
    )
    assert proc.returncode == 0, proc.stderr


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


COMMON = ["--f", "--output", "--format"]
SWEEP = COMMON + ["--N", "--threads", "--cache-dir", "--verify-cache"]
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
    monkeypatch.setattr(curves_mod, "traces_at", lambda *a: computed.append(a))
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


@pytest.mark.parametrize("where", ["missing-output-dir", "output-is-dir", "cache-dir-is-file", "empty-output"])
def test_unwritable_path_fails_before_any_trace(where, tmp_path, capsys, monkeypatch):
    computed = []
    monkeypatch.setattr(curves_mod, "traces_at", lambda *a: computed.append(a))
    out, cache = tmp_path / "out.csv", tmp_path / "cache"
    if where == "missing-output-dir":
        out = tmp_path / "no-such-dir" / "out.csv"
    elif where == "output-is-dir":
        out.mkdir()
    elif where == "empty-output":
        out = ""
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



def test_every_curve_of_a_sweep_has_its_cache_opened_and_verified(tmp_path, capsys, monkeypatch):
    """nagao with D != f reads D's cache as well as f's.  With one wrong record
    in D's file only: above the N cap the run exits 3 before any cache is
    opened (nothing computed, no file changed); with --verify-cache it exits 4
    with one error line, D's file quarantined and f's bytes kept."""
    cache = tmp_path / "cache"
    base = dict(f="x^3+x+1", D="x^5-x+1", cache_dir=str(cache), output=str(tmp_path / "o.csv"))
    assert run(cfg("nagao", N=300, **base)) == EXIT_OK
    f_path, D_path = (cache_path(cache, parse_polynomial(g)) for g in ("x^3+x+1", "x^5-x+1"))
    f_bytes = f_path.read_bytes()
    head, fp, *records = D_path.read_text().splitlines()
    p, a = map(int, records[-1].split(","))
    records[-1] = f"{p},{a + 1 if a <= 0 else a - 1}"  # toward 0: inside the Weil bound
    D_path.write_text("\n".join([head, fp, *records]) + "\n")
    files = {q.name: q.read_bytes() for q in cache.iterdir()}
    computed = []
    real = curves_mod.traces_at
    monkeypatch.setattr(curves_mod, "traces_at", lambda *a: computed.append(a) or real(*a))
    capsys.readouterr()
    assert run(cfg("nagao", N=10**7 + 1, verify_cache=True, **base)) == EXIT_CAP
    assert computed == [] and {q.name: q.read_bytes() for q in cache.iterdir()} == files
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert run(cfg("nagao", N=300, verify_cache=True, **base)) == EXIT_CACHE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: corrupt cache file {D_path}: "), line
    assert line.endswith(f"cached a_p disagrees with recomputation at p={p}"), line
    assert not D_path.exists() and D_path.with_suffix(".txt.corrupt").exists()
    assert f_path.read_bytes() == f_bytes


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


def test_peterson_error_exit_code():
    assert run(cfg("peterson", f="x^3-x", sigma="-x", output="-")) == EXIT_CONFIG


# -- cache behavior ----------------------------------------------------------


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
    monkeypatch.setattr(curves_mod, "traces_at", lambda *a: computed.append(a))
    assert run(cfg("trace", output=str(tmp_path / "t2.csv"), **base)) == EXIT_OK
    assert computed == [] and path.read_bytes() == filled
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_cache_rewrite_failure_leaves_file(tmp_path, monkeypatch, capsys):
    """A hole fill whose rewrite cannot replace the cache file exits 1 with
    one error line, removes its temporary file and leaves the cache file's
    bytes as they were; the next run fills the hole."""
    cache = tmp_path / "cache"
    f = parse_polynomial("x^3+x")
    path = cache_path(cache, f)
    base = dict(f="x^3+x", N=3000, cache_dir=str(cache))
    assert run(cfg("nagao", D="x^3+5*x+7", output=str(tmp_path / "n.csv"), **base)) == EXIT_OK
    before, names = path.read_bytes(), sorted(p.name for p in cache.iterdir())

    def fail(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", fail)
    capsys.readouterr()
    assert run(cfg("trace", output=str(tmp_path / "t1.csv"), **base)) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: cannot replace {path}"
    assert sorted(p.name for p in cache.iterdir()) == names  # no *.tmp left
    assert path.read_bytes() == before
    monkeypatch.undo()
    assert run(cfg("trace", output=str(tmp_path / "t2.csv"), **base)) == EXIT_OK
    assert TraceCache(cache, f).records[1823] == hyperelliptic_trace(f, 1823)


# A record line TraceCache cannot read, in place of the first record.
MALFORMED = {
    "no comma": "3",
    "three fields": "3,0,0",
    "non-integer p": "3.0,0",
    "non-ASCII digit": "\u0663,0",  # ARABIC-INDIC DIGIT THREE
    "CR before LF": "3,0\r",
    "space before p": " 3,0",
    "sign on p": "+3,0",
    "leading zero": "03,0",
    "negative zero": "3,-0",
    "space after a": "3,0 ",
    "underscore in p": "1_3,0",
    # each line is checked against the grammar before the Weil and ascending checks
    "leading zero past Weil": "3,04",
    "zero p as 00": "00,0",
}


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
    elif how == "Weil bound":  # a_3 = 4 of a genus-1 curve: 4^2 > 4 * 3
        lines = [head, fp, "3,4", *records[1:]]
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
        ("Weil bound", "record '3,4' outside the Weil bound"),
        *((how, f"malformed record {line!r}") for how, line in MALFORMED.items()),
    ],
    ids=[
        "bad-header", "fingerprint", "out-of-order", "duplicated-p", "weil-bound",
        *(h.replace(" ", "-") for h in MALFORMED),
    ],
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


@pytest.mark.parametrize(
    "cut", ["397,2", "-", "empty", "fingerprint"], ids=["parses", "unparsable", "empty", "in-fingerprint"]
)
def test_cache_torn_tail_recovered(tmp_path, cut):
    """An append cut short by a crash loses only its unterminated last line; a
    header write cut short (an empty file, or one that ends inside the
    fingerprint line) leaves no cache: it is written again."""
    cache = tmp_path / "cache"
    base = dict(f="x^3+x+1", N=400, cache_dir=str(cache))
    assert run(cfg("trace", output=str(tmp_path / "cold.csv"), **base)) == EXIT_OK
    path = cache_path(cache, parse_polynomial("x^3+x+1"))
    full = path.read_bytes()
    if cut == "-":  # the last negative record, cut right after its sign
        end = full.rindex(b",-") + 2
    elif cut == "empty":
        end = 0
    elif cut == "fingerprint":  # two bytes into the fingerprint line
        end = full.index(b"\n") + 3
    else:
        assert full.endswith(b"\n397,25\n")
        end = len(full) - 2
    path.write_bytes(full[:end])
    assert run(cfg("trace", output=str(tmp_path / "warm.csv"), **base)) == EXIT_OK
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
    assert not list(cache.glob("*.corrupt"))
    assert path.read_bytes() == full


BYTES = st.sampled_from(list(b"0123456789,-+_ \t\n\r\x0b\x0c")) | st.integers(0, 255)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cache_loads_only_what_append_writes(data):
    """One byte substituted, inserted or deleted among the records of a file
    written by append: the next load quarantines the file, or leaves on disk
    exactly the header and the round-trip encoding of the records it read."""
    f = parse_polynomial("x^3+x+1")  # genus 1: a^2 <= 4p
    ps = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=12, unique=True))
    records = [(p, data.draw(st.integers(-math.isqrt(4 * p), math.isqrt(4 * p)))) for p in ps]
    k = data.draw(st.integers(0, len(records)))  # a second append below the maximum rewrites
    header = f"{HEADER}\n{fingerprint(f)}\n".encode()

    def encoded(recs):
        return header + b"".join(b"%d,%d\n" % r for r in sorted(recs))

    with tempfile.TemporaryDirectory() as d:
        TraceCache(d, f).append(records[:k])
        TraceCache(d, f).append(records[k:])
        path = cache_path(d, f)
        full = path.read_bytes()
        assert full == encoded(records)
        how = data.draw(st.sampled_from(["substitute", "insert", "delete"]))
        i = data.draw(st.integers(len(header), len(full) - (how != "insert")))
        new = b"" if how == "delete" else bytes([data.draw(BYTES)])
        path.write_bytes(full[:i] + new + full[i + (how != "insert") :])
        try:
            loaded = TraceCache(d, f).records
        except CacheCorruptError:
            return
        assert path.read_bytes() == encoded(loaded.items())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cache_state_is_its_records(data):
    """One TraceCache through any sequence of appends (blocks above the cached
    maximum, holes below it, p already cached, empty blocks): its records stay
    ascending in p and equal a fresh load, and the file is the header followed
    by those records (no file while nothing was appended)."""
    f = parse_polynomial("x^3+x+1")  # genus 1: a^2 <= 4p
    ps = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=30, unique=True))
    traces = {p: data.draw(st.integers(-math.isqrt(4 * p), math.isqrt(4 * p))) for p in ps}
    blocks = data.draw(st.lists(st.lists(st.sampled_from(ps), max_size=8, unique=True), max_size=6))
    with tempfile.TemporaryDirectory() as d:
        cache = TraceCache(d, f)
        for block in blocks:
            cache.append([(p, traces[p]) for p in block])
        assert list(cache.records) == sorted(cache.records)
        assert cache.records == {p: traces[p] for block in blocks for p in block}
        assert TraceCache(d, f).records == cache.records
        path = cache_path(d, f)
        if cache.records:
            assert path.read_bytes() == _header(f) + b"".join(b"%d,%d\n" % r for r in cache.records.items())
        else:
            assert not path.exists()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 30")
def test_two_writers_on_one_cache_file_keep_it_loadable(tmp_path):
    """Two TraceCache objects opened on one empty path append blocks of one
    curve's traces in turn: A[:20], B[:10], B[10:30], A[20:40].  A third open
    must then load the file with every record.  Each object trusts the
    records it read at open, so B appends below A's maximum and the third
    open quarantines the file."""
    f = parse_polynomial("x^3+x+1")
    traces = [(p, hyperelliptic_trace(f, p)) for p in good_primes(curve_from_poly(f).bad_primes, 300)][:40]
    assert len(traces) == 40
    A, B = TraceCache(tmp_path, f), TraceCache(tmp_path, f)
    A.append(traces[:20])
    B.append(traces[:10])
    B.append(traces[10:30])
    A.append(traces[20:40])
    assert TraceCache(tmp_path, f).records == dict(traces)


# (curve, N, how its cache is damaged): a wrong a_p, a record at a bad prime
# (x^6+2x^4+2x^3+x^2+2x+20 = (x^3+x+1)^2 + 19, so 19 divides the
# discriminant; its a_p breaks the Weil bound there), and one at p = 1.
BAD_RECORDS = {
    "wrong value": ("x^3+x", 100, None),
    "bad prime": ("x^6+2*x^4+2*x^3+x^2+2*x+20", 60, "19,0"),
    "p = 1": ("x^3+x", 100, "1,0"),
}


@pytest.mark.parametrize("case", BAD_RECORDS)
def test_verify_cache_detects_bad_record(case, tmp_path, capsys, monkeypatch):
    """A record that disagrees with recomputation, or whose p is not a good
    prime of the curve (found before any recomputation), exits 4 with one
    error line and quarantines the file."""
    f, n, extra = BAD_RECORDS[case]
    cache = tmp_path / "cache"
    base = dict(f=f, N=n, cache_dir=str(cache), output=str(tmp_path / "o.csv"))
    assert run(cfg("trace", **base)) == EXIT_OK
    path = cache_path(cache, parse_polynomial(f))
    head, fp, *records = path.read_text().splitlines()
    if extra is None:
        p, a = records[0].split(",")
        records[0] = f"{p},{int(a) + 1}"
    else:
        records = sorted(records + [extra], key=lambda line: int(line.split(",")[0]))
    path.write_text("\n".join([head, fp, *records]) + "\n")
    capsys.readouterr()
    computed = []
    real = curves_mod.traces_at
    monkeypatch.setattr(curves_mod, "traces_at", lambda *a: computed.append(a) or real(*a))
    assert run(cfg("trace", verify_cache=True, **base)) == EXIT_CACHE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: corrupt cache file"), err
    assert not path.exists() and path.with_suffix(".txt.corrupt").exists()
    assert (computed == []) == (extra is not None)


# -- every execution mode ----------------------------------------------------

MODE_CURVES = ["x^3+x", "x^3+x+1", "x^4+x+1", "x^5-x+1", "x^6+1", "5*x^3+x+1"]
PETERSON_CURVES = [QUINTIC, "x^3+2*x^2+2*x+1"]  # palindromic: sigma = 1/x permutes the roots
# the D of a nagao run that leaves holes in f's cache at D's odd bad primes
HOLE_MAKERS = ["x^3-x+1", "x^3+x+1", "x^3+7", "5*x^3+x+1"]
HISTORIES = ["none", "cold", "warm", "prefix", "holes", "verify"]


@st.composite
def squarefree_curves(draw, degrees, palindromic=False):
    """A random squarefree f of a degree in ``degrees``, with f(0) != 0 (so
    f(T^2) is squarefree too), as text; palindromic for the Peterson pair."""
    d = draw(st.sampled_from(degrees))
    coef, nonzero = st.integers(-3, 3), st.sampled_from([1, -1, 2, -2, 3, -3])
    if palindromic:  # odd d
        half = [draw(nonzero)] + [draw(coef) for _ in range(d // 2)]
        coeffs = half + half[::-1]
    else:
        coeffs = [draw(nonzero)] + [draw(coef) for _ in range(d - 1)] + [draw(nonzero)]
    f = IntPolynomial(tuple(coeffs))
    assume(f.is_squarefree())
    return poly_to_str(f)


def _cache_files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())} if d.exists() else {}


def _merged(*runs: dict[str, bytes]) -> dict[str, bytes]:
    """Per cache file, the header and the union of the records of every run's files."""
    merged = {}
    for files in runs:
        for name, data in files.items():
            lines = data.splitlines(keepends=True)
            records = merged.setdefault(name, (b"".join(lines[:2]), {}))[1]
            records.update((int(line.split(b",")[0]), line) for line in lines[2:])
    return {name: head + b"".join(r for _, r in sorted(recs.items())) for name, (head, recs) in merged.items()}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_execution_mode_writes_the_reference_bytes(data):
    """Whatever the threads (1 or 2) and the cache history (none; cold; warm;
    each file cut to its own prefix; holes left by a nagao run with another
    D; --verify-cache), a run writes the exit code, report and .skipped
    bytes of the one-thread run with no cache, and leaves every cache file
    as a cold one-thread run does (after holes: as the two cold runs merged)."""
    command = data.draw(st.sampled_from(["trace", "moments", "st-classify", "nagao", "factor-check"]))
    kw = {}
    if command == "factor-check":  # the Peterson pair: D = f(T^2) read from its half's pass
        f = data.draw(st.sampled_from(PETERSON_CURVES) | squarefree_curves([3, 5], palindromic=True))
        kw = dict(D="auto-peterson", sigma="1/x")
    elif command == "nagao":
        twist = data.draw(st.sampled_from(["D = f", "D != f", "D = f(T^2)"]))
        if twist == "D = f(T^2)":  # deg D <= 10
            f = data.draw(st.sampled_from(MODE_CURVES[1:4]) | squarefree_curves([3, 4, 5]))
            g = parse_polynomial(f).coeffs
            kw = dict(D=poly_to_str(IntPolynomial(tuple(c for a in g for c in (a, 0))[:-1])))
        else:
            f = data.draw(st.sampled_from(MODE_CURVES) | squarefree_curves([3, 4, 5, 6]))
            if twist == "D != f":
                kw = dict(D=data.draw(st.sampled_from(MODE_CURVES) | squarefree_curves([3, 4, 5, 6])))
    else:
        f = data.draw(st.sampled_from(MODE_CURVES) | squarefree_curves([3, 4, 5, 6]))
    n = data.draw(st.integers(700, 3000) | st.integers(3, 700))  # 128-prime blocks: 1 to 4
    threads = data.draw(st.sampled_from([1, 2]))
    history = data.draw(st.sampled_from(HISTORIES))

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def go(name, **more):
            out = tmp / f"{name}.csv"
            rc = run(cfg(command, f=f, N=n, output=str(out), **kw, **more))
            sidecar = Path(f"{out}.skipped")
            return rc, out.exists() and out.read_bytes(), sidecar.exists() and sidecar.read_bytes()

        ref = go("ref")
        assert go("cold", cache_dir=str(tmp / "cold")) == ref
        expected = _cache_files(tmp / "cold")
        cache = tmp / "cache"
        if history in ("warm", "prefix", "verify"):
            go("history", cache_dir=str(cache))
        if history == "prefix":
            for name, full in _cache_files(cache).items():
                (cache / name).write_bytes(full[: data.draw(st.integers(0, len(full)))])
        if history == "holes":
            holes = dict(f=f, D=data.draw(st.sampled_from(HOLE_MAKERS)), N=data.draw(st.integers(3, n)))
            run(cfg("nagao", cache_dir=str(cache), output=str(tmp / "holes.csv"), **holes))
            run(cfg("nagao", cache_dir=str(tmp / "holes"), output=str(tmp / "holes.csv"), **holes))
            expected = _merged(expected, _cache_files(tmp / "holes"))
        mode = dict(threads=threads, verify_cache=history == "verify")
        assert go("mode", cache_dir=None if history == "none" else str(cache), **mode) == ref
        assert _cache_files(cache) == (expected if history != "none" else {})


def test_warm_self_twist_builds_no_residue_table(tmp_path, monkeypatch):
    tables = []
    real = ff_mod.residue_table

    def counted(p, *args):
        tables.append(p)
        return real(p, *args)

    monkeypatch.setattr(ff_mod, "residue_table", counted)
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
    "legendre", "primes_in", "residue_table",
    "IntPolynomial", "ParseError", "parse_polynomial", "poly_to_str",
    "MomentReport", "STGroupRecord", "STMeasure1D", "empirical_moments", "haar_second_moment",
    "haar_second_moment_usp4", "ks_distance", "load_st_table", "moment_class",
    "MobiusTransform", "NagaoSeries", "PetersonError", "TwistSurfaceSpec", "average_trace",
    "nagao_series", "peterson_D", "twist_surface", "verify_factorization",
]


# Modules that load only where they are used, never at start-up: the records
# are NamedTuples and slots classes, not dataclasses (which import inspect),
# and pathlib is imported by the cache when it opens a file.
LAZY_MODULES = [
    "dataclasses", "inspect", "hashlib", "tempfile", "shutil", "importlib.resources",
    "numpy", "json", "fractions", "pathlib",
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


def test_pathlib_loads_only_with_a_cache(tmp_path):
    """Under -S (no site hook preloads it) a run that opens no cache never
    loads pathlib; naming a cache file does, so the probe sees it."""
    proc = fresh_python(
        "from nagaolab.cli import main",
        f"assert main(['peterson', '--f', {QUINTIC!r}, '--sigma', '1/x']) == 0",
        "assert 'pathlib' not in sys.modules, 'loaded by a run without a cache'",
        "from nagaolab.cache import cache_path",
        "from nagaolab.polynomials import parse_polynomial",
        f"cache_path({str(tmp_path)!r}, parse_polynomial('x^3+x'))",
        "assert 'pathlib' in sys.modules",
        flags=("-S",),
    )
    assert proc.returncode == 0, proc.stderr


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
    real = curves_mod.traces_at

    def dying(fs, p):  # forked workers inherit the patch
        if p == die_at and os.getpid() != parent:
            os._exit(1)
        return real(fs, p)

    monkeypatch.setattr(curves_mod, "traces_at", dying)
    assert main(_sweep_argv(tmp_path, "cache", "out.csv", 2)) == EXIT_WORKER
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: a worker process died"), err
    # Every block still in flight when the worker died is lost, so the named
    # block is the first of them: the died one or one before it.
    lost = primes.index(int(re.search(r"p = (\d+)", err).group(1)))
    assert lost % 4 == 0 and lost <= primes.index(die_at)
    assert sorted(TraceCache(tmp_path / "cache", f).records) == primes[:lost]
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(curves_mod, "traces_at", real)
    assert main(_sweep_argv(tmp_path, "cache", "out.csv", 2)) == EXIT_OK
    assert main(_sweep_argv(tmp_path, "cold", "cold.csv", 1)) == EXIT_OK
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
    assert cache_path(tmp_path / "cache", f).read_bytes() == cache_path(tmp_path / "cold", f).read_bytes()
    assert multiprocessing.active_children() == []


def test_interrupt_exits_130_and_keeps_the_complete_blocks(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(curves_mod, "_BLOCK", 4)
    f = parse_polynomial("x^3+x+1")
    primes = good_primes(curve_from_poly(f).bad_primes, 300)
    real = curves_mod.traces_at

    def interrupted(fs, p):
        if p == primes[9]:
            raise KeyboardInterrupt
        return real(fs, p)

    monkeypatch.setattr(curves_mod, "traces_at", interrupted)
    assert main(_sweep_argv(tmp_path, "cache", "out.csv", 1)) == EXIT_INTERRUPTED
    assert capsys.readouterr().err == "error: interrupted\n"
    assert sorted(TraceCache(tmp_path / "cache", f).records) == primes[:8]


def _group_sigint(tmp_path, sigint, slow):
    """Run ``trace --f x^3+x+1 --N 1000`` on two threads in a child whose
    SIGINT disposition is ``sigint``, send SIGINT to its process group once
    the first of its two 128-prime blocks is cached, and return its exit code
    and stderr.  Every prime above 800, in the second block, sleeps ``slow``
    seconds.  The group must be empty once the child has exited."""
    cache = tmp_path / "cache"
    argv = ["trace", "--f", "x^3+x+1", "--N", "1000", "--threads", "2", "--cache-dir", str(cache)]
    script = "\n".join([
        "import sys, time",
        "import nagaolab.curves as curves",
        "from nagaolab.cli import main",
        "real = curves.traces_at",
        f"curves.traces_at = lambda fs, p: time.sleep({slow} if p > 800 else 0) or real(fs, p)",
        f"sys.exit(main({[*argv, '--output', str(tmp_path / 'out.csv')]!r}))",
    ])
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,  # its own process group, shared by its workers
        preexec_fn=lambda: signal.signal(signal.SIGINT, sigint),  # not what pytest was started with
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
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # the group is empty: no worker outlived the CLI
    return proc.returncode, err


def test_ctrl_c_on_two_threads_prints_one_line_and_leaves_no_process(tmp_path):
    """SIGINT to the process group of a run on two worker processes, one of
    them idle and one deep in a block: the CLI prints one error line and
    exits 130, and no process of the group is left."""
    # every prime of the second block takes a minute
    assert _group_sigint(tmp_path, signal.SIG_DFL, 60) == (EXIT_INTERRUPTED, b"error: interrupted\n")


def test_group_sigint_ignored_on_two_threads_finishes_the_run(tmp_path):
    """A run started with SIGINT ignored (a shell's background job) ignores it
    in its workers too: a group SIGINT during its second block changes
    nothing, and the run ends with the report and cache of an uninterrupted
    run and leaves no process."""
    assert _group_sigint(tmp_path, signal.SIG_IGN, 0.1) == (EXIT_OK, b"")
    cold = ["trace", "--f", "x^3+x+1", "--N", "1000", "--cache-dir", str(tmp_path / "cold")]
    assert main([*cold, "--output", str(tmp_path / "cold.csv")]) == EXIT_OK
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
    f = parse_polynomial("x^3+x+1")
    assert cache_path(tmp_path / "cache", f).read_bytes() == cache_path(tmp_path / "cold", f).read_bytes()
