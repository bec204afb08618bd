"""Command-line front end: parsing, sweep orchestration, caching, CSV/JSON reports.

Exit codes: 0 success, 1 parse/config or I/O error, 2 bad curve (non-squarefree
or bad degree), 3 cap exceeded, 4 cache corruption, 5 a worker process died,
130 interrupted (Ctrl-C).  Each failure prints one ``error:`` line; the blocks
of traces a failed run completed stay in the cache.  Progress goes to stderr;
report data only to the output file (or stdout with ``--output -``).
An option left out is None (or its default); one given, even empty, is parsed.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .cache import CacheCorruptError, TraceCache
from .curves import (
    DEFAULT_LPOLY_CAP,
    MAX_THREADS,
    BadPrimes,
    CurveError,
    CurveSpec,
    WorkerDiedError,
    curve_from_poly,
    genus2_b,
    good_primes,
    hyperelliptic_bad_primes,
    normalized_angle,
    sweep_traces,
)
from .finite_field import N_HARD_CAP, CapExceededError, primes_in
from .polynomials import IntPolynomial, ParseError, PolynomialError, parse_polynomial, poly_to_str
from .stats import (
    GENUS1_GROUPS,
    MEASURE_TAGS,
    MomentReport,
    STMeasure1D,
    empirical_moments,
    ks_distance,
    load_st_table,
    moment_class,
)
from .twist import (
    MobiusTransform,
    PetersonError,
    geometric_grid,
    nagao_series,
    peterson_D,
    twist_surface,
    verify_factorization,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BAD_CURVE = 2
EXIT_CAP = 3
EXIT_CACHE = 4
EXIT_WORKER = 5
EXIT_INTERRUPTED = 130


class ConfigError(Exception):
    pass


class ExperimentConfig(NamedTuple):
    command: str
    f: str | None = None
    D: str | None = None
    sigma: str | None = None
    N: int = 1000
    grid: str = "geometric:20"
    r: int = 2
    s_curves: Sequence[str] = ()
    threads: int = 1
    cache_dir: str | None = None
    output: str = "-"
    fmt: str = "csv"
    verify_cache: bool = False


class Report(NamedTuple):
    """A command's result: the report rows, each a tuple in the order of ``columns`` (an
    iterable that ``_write`` reads once, so a sweep's rows are made as it runs), and the
    bad primes of the sweep for the ``.skipped`` sidecar, or None for no sidecar."""

    columns: list[str]
    rows: Iterable[tuple]
    skipped: BadPrimes | None = None


def parse_mobius(text: str) -> MobiusTransform:
    """Parse "(a x + b)/(c x + d)" (shorthands like "1/x" and "-x" accepted).

    A syntax error's column counts from the start of ``text``.
    """
    if "/" in text:
        num_s, _, den_s = text.partition("/")
    else:
        num_s, den_s = text, "1"

    def linear(part: str, offset: int, what: str) -> tuple[int, int]:
        offset += len(part) - len(part.lstrip())
        part = part.strip()
        if part.startswith("(") and part.endswith(")"):
            part, offset = part[1:-1], offset + 1
        try:
            poly = parse_polynomial(part)
        except ParseError as e:
            raise ParseError(e.reason, e.column + offset) from None
        if not poly.is_zero and poly.degree > 1:
            raise ParseError(f"{what} of a Moebius transform must be linear")
        c = poly.coeffs + (0, 0)
        return c[1], c[0]

    a, b = linear(num_s, 0, "numerator")
    c, d = linear(den_s, len(num_s) + 1, "denominator")
    return MobiusTransform(a, b, c, d)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return "" if v is None else str(v)


def _write(report: Report, cfg: ExperimentConfig) -> None:
    """The report to the output file (or stdout), and beside an output file the
    ``.skipped`` sidecar of the bad primes p <= N, each with its ``reason``; a
    report without one removes the sidecar an earlier run left there."""
    cols = report.columns
    if cfg.fmt == "json":
        import json

        text = json.dumps([dict(zip(cols, row)) for row in report.rows], indent=2) + "\n"
    else:
        lines = [",".join(cols)] + [",".join(map(_fmt, row)) for row in report.rows]
        text = "\n".join(lines) + "\n"
    if cfg.output == "-":
        sys.stdout.write(text)
        return
    with open(cfg.output, "w", newline="\n") as fh:
        fh.write(text)
    bad = report.skipped
    if bad is None:
        with suppress(FileNotFoundError):
            os.remove(cfg.output + ".skipped")
        return
    with open(cfg.output + ".skipped", "w", newline="\n") as fh:
        fh.write("".join(f"{p},{bad.reason(p)}\n" for p in primes_in(2, cfg.N + 1) if p in bad))


def run_verify_cache(cache: TraceCache, threads: int) -> None:
    """Recompute every cached record; quarantine and fail on any disagreement,
    and before any recomputation on a p that is not a good prime of the curve
    up to N_HARD_CAP."""
    primes = list(cache.records)  # ascending
    good = set(good_primes(hyperelliptic_bad_primes(cache.poly), min(max(primes, default=0), N_HARD_CAP)))
    for p in primes:
        if p not in good:
            cache.quarantine(f"cached p={p} is not a good prime p <= {N_HARD_CAP} of this curve")
    for p, (a,) in sweep_traces([cache.poly], primes, threads):
        if a != cache.records[p]:
            cache.quarantine(f"cached a_p disagrees with recomputation at p={p}")


def _sweep(cfg: ExperimentConfig) -> Callable[..., Iterator[tuple[int, tuple[int, ...]]]]:
    """``sweep_traces`` on cfg.threads, with the cache of each distinct curve
    under --cache-dir (with --verify-cache rechecked first).  The engine opens
    them when its sweep starts, so after ``good_primes`` has checked the N cap."""
    cache_dir = cfg.cache_dir

    def open_cache(g: IntPolynomial) -> TraceCache:
        cache = TraceCache(cache_dir, g)
        if cfg.verify_cache:
            run_verify_cache(cache, cfg.threads)
        return cache

    opener = None if cache_dir is None else open_cache
    return lambda polys, primes: sweep_traces(polys, primes, cfg.threads, opener)


def _parse_grid(cfg: ExperimentConfig) -> list[int]:
    text = cfg.grid.strip()
    kind, colon, k = text.partition(":")
    try:
        if kind == "geometric":  # a bare "geometric" means 20 points
            grid = geometric_grid(cfg.N, int(k) if colon else 20)
        else:
            grid = sorted({int(v) for v in text.split(",")})
    except ValueError as e:
        raise ConfigError(f"bad grid {text!r}: {e}") from None
    if grid[0] < 2 or grid[-1] > cfg.N:
        raise ConfigError(f"bad grid {text!r}: cutoffs must lie in [2, N] = [2, {cfg.N}]")
    return grid


def _traces(cfg: ExperimentConfig, c: CurveSpec) -> Iterator[tuple[int, int]]:
    """The curve's traces (p, a), yielded as the sweep reaches them; the N cap
    is checked here, when this is called."""
    return ((p, a) for p, (a,) in _sweep(cfg)([c.f], good_primes(c.bad_primes, cfg.N)))


def cmd_trace(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    return Report(["p", "a"], _traces(cfg, c), c.bad_primes)


def cmd_lpoly(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    if c.f.genus != 2:
        raise CurveError("lpoly requires a genus-2 curve (degree 5 or 6)")
    primes = good_primes(c.bad_primes, cfg.N)
    if primes and primes[-1] > DEFAULT_LPOLY_CAP:
        raise CapExceededError(
            f"p = {primes[-1]} exceeds the F_p^2 counting cap {DEFAULT_LPOLY_CAP}"
        )
    rows = ((p, a, genus2_b(c.f, p, a)) for p, (a,) in _sweep(cfg)([c.f], primes))
    return Report(["p", "a", "b"], rows, c.bad_primes)


def cmd_nagao(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    D = cfg.D
    surface = twist_surface(c.f, c.f if D is None else parse_polynomial(D))
    series = nagao_series(surface, cfg.N, _parse_grid(cfg), _sweep(cfg))
    rows = zip(series.n_grid, series.s1, series.s2, series.n_primes)
    return Report(["N", "S1", "S2", "n_primes"], rows, surface.bad_primes)


def _moments(cfg: ExperimentConfig, c: CurveSpec) -> tuple[list[tuple[int, int]], MomentReport]:
    """The curve's traces (p, a) and their moments; ConfigError if it has none."""
    traces = list(_traces(cfg, c))
    if not traces:
        raise ConfigError(f"no good prime p <= N = {cfg.N} to take moments over")
    return traces, empirical_moments(traces)


def cmd_moments(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    """The trace moments, and in genus 1 the KS distances of the angles to the 1-D measures."""
    traces, m = _moments(cfg, c)
    columns = ["N", "second_moment", "fourth_moment", "zero_fraction", "n_primes"]
    columns += ["ks_" + tag.replace("-", "_") for tag in MEASURE_TAGS]
    # the 1-D angle measures do not apply in genus 2; sorted once, so each
    # ks_distance sorts a sorted list
    angles = sorted(map(normalized_angle, traces)) if c.f.genus == 1 else None
    ks = [ks_distance(angles, STMeasure1D(tag)) if angles else None for tag in MEASURE_TAGS]
    row = (cfg.N, m.second_moment, m.fourth_moment, m.zero_fraction, m.n_primes, *ks)
    return Report(columns, [row], c.bad_primes)


def cmd_st_classify(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    """The second moment's class, its Sato-Tate groups in the curve's genus and the predicted rank."""
    _, m = _moments(cfg, c)
    cls = moment_class(m.second_moment)
    table = GENUS1_GROUPS if c.f.genus == 1 else [(r.name, r.second_moment) for r in load_st_table()]
    groups = [name for name, moment in table if moment == cls]
    columns = [
        "N", "second_moment", "zero_fraction", "moment_class", "candidates", "predicted_rank", "flag"
    ]
    flag = "" if cls is not None else "no class within tolerance"
    row = (cfg.N, m.second_moment, m.zero_fraction, cls, "|".join(groups), cls, flag)
    return Report(columns, [row], c.bad_primes)


def cmd_peterson(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    sigma = cfg.sigma
    if sigma is None:
        raise ConfigError("peterson requires --sigma")
    result = peterson_D(c.f, parse_mobius(sigma))
    return Report(["D", "multiplier"], [(poly_to_str(result.D, "T"), result.multiplier)])


def cmd_factor_check(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    text, sigma = cfg.D, cfg.sigma
    if text is None:
        raise ConfigError("--D (a polynomial or 'auto-peterson') is required")
    if text == "auto-peterson":
        if sigma is None:
            raise ConfigError("--D auto-peterson requires --sigma")
        D = peterson_D(c.f, parse_mobius(sigma)).D
    else:
        D = parse_polynomial(text)
    others = [curve_from_poly(parse_polynomial(s)).f for s in cfg.s_curves]
    rep = verify_factorization(D, c.f, cfg.r, cfg.N, others, _sweep(cfg))
    if rep.passed and rep.primes_checked == 0:
        raise ConfigError(f"no good prime p <= N = {cfg.N} to check the identity at")
    row = ("pass" if rep.passed else "fail", rep.first_failing_prime, rep.primes_checked)
    return Report(["passed", "first_failing_prime", "primes_checked"], [row])


# Each command's handler and the flags it reads; its parser accepts no others.
# run reads _COMMON for every command, and every sweep reads _SWEEP.
_COMMON = ("--f", "--output", "--format")
_SWEEP = (*_COMMON, "--N", "--threads", "--cache-dir", "--verify-cache")

_COMMANDS = {
    "trace": (cmd_trace, _SWEEP),
    "lpoly": (cmd_lpoly, _SWEEP),
    "nagao": (cmd_nagao, (*_SWEEP, "--D", "--grid")),
    "moments": (cmd_moments, _SWEEP),
    "st-classify": (cmd_st_classify, _SWEEP),
    "peterson": (cmd_peterson, (*_COMMON, "--sigma")),
    "factor-check": (cmd_factor_check, (*_SWEEP, "--D", "--sigma", "--r", "--s-curves")),
}

# Exception -> exit code; the first match wins, so CurveError precedes its
# base class PolynomialError (which ParseError also derives from).
_EXIT_CODES = {
    CacheCorruptError: EXIT_CACHE,
    WorkerDiedError: EXIT_WORKER,
    CapExceededError: EXIT_CAP,
    CurveError: EXIT_BAD_CURVE,
    PolynomialError: EXIT_CONFIG,
    PetersonError: EXIT_CONFIG,
    ConfigError: EXIT_CONFIG,
    OSError: EXIT_CONFIG,
}


def _exit_code(e: Exception) -> int:
    print(f"error: {e}", file=sys.stderr)
    return next(code for kind, code in _EXIT_CODES.items() if isinstance(e, kind))


def _check_paths(cfg: ExperimentConfig) -> None:
    """Fail before any work on an empty path, an output or cache path that
    cannot be written, or on --verify-cache without a cache to verify."""
    out = cfg.output
    if out == "":
        raise ConfigError("--output is empty: name a file, or - for stdout")
    if out != "-" and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ConfigError(f"cannot write --output {out}: a directory, or in a missing one")
    cache_dir = cfg.cache_dir
    if cache_dir == "":
        raise ConfigError("--cache-dir is empty: name a directory")
    if cache_dir is not None and os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        raise ConfigError(f"cache dir {cache_dir} is not a directory")
    if cfg.verify_cache and cache_dir is None:
        raise ConfigError("--verify-cache requires --cache-dir")


def run(cfg: ExperimentConfig) -> int:
    """Execute a command; returns the process exit code.

    Every command needs the curve y^2 = f(x) of --f, squarefree of degree
    3..6.  Its handler returns a Report, which is written here.
    """
    try:
        if cfg.command not in _COMMANDS:
            raise ConfigError(f"unknown command {cfg.command!r}")
        handler, _ = _COMMANDS[cfg.command]
        if cfg.threads < 1:
            raise ConfigError("thread count must be >= 1")
        if cfg.threads > MAX_THREADS:
            raise ConfigError(f"thread count must be <= {MAX_THREADS}")
        f = cfg.f
        if f is None:
            raise ConfigError("--f is required")
        _check_paths(cfg)
        _write(handler(cfg, curve_from_poly(parse_polynomial(f))), cfg)
        return EXIT_OK
    except tuple(_EXIT_CODES) as e:
        return _exit_code(e)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ConfigError(message)


_FLAGS = {
    "--f": dict(help="curve polynomial f(x)"),
    "--D": dict(help="twisting polynomial D(T), or 'auto-peterson'"),
    "--sigma": dict(help="Moebius transform, e.g. '(x+1)/(-3x+1)' or '1/x'"),
    "--N": dict(type=int),
    "--grid": dict(help="'geometric:k' or comma-separated cutoffs"),
    "--r": dict(type=int),
    "--s-curves": dict(type=lambda text: text.split(","), help="comma-separated genus-1 polynomials"),
    "--threads": dict(type=int),
    "--cache-dir": dict(),
    "--output": dict(),
    "--format": dict(dest="fmt", choices=["csv", "json"]),
    "--verify-cache": dict(action="store_true"),
}


def build_parser() -> _Parser:
    """One subparser per command with the flags of ``_COMMANDS``; a flag left
    out keeps the default of its ExperimentConfig field."""
    parser = _Parser(prog="nagaolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
        return run(ExperimentConfig(**vars(args)))
    except tuple(_EXIT_CODES) as e:  # a parse error; run handles its own
        return _exit_code(e)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
