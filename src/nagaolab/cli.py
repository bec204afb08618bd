"""Command-line front end: parsing, sweep orchestration, caching, CSV/JSON reports.

Exit codes: 0 success, 1 parse/config or I/O error, 2 bad curve (non-squarefree
or bad degree), 3 cap exceeded, 4 cache corruption, 5 a worker process died,
130 interrupted (Ctrl-C).  Each failure prints one ``error:`` line; the blocks
of traces a failed run completed stay in the cache.  Progress goes to stderr;
report data only to the output file (or stdout with ``--output -``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterator, NamedTuple, Sequence

from .cache import CacheCorruptError, TraceCache
from .curves import (
    DEFAULT_LPOLY_CAP,
    BadPrimes,
    CapExceededError,
    CurveError,
    CurveSpec,
    TraceRecord,
    WorkerDiedError,
    curve_from_poly,
    genus2_b,
    good_primes,
    normalized_angle,
    sweep_traces,
)
from .finite_field import primes_in
from .polynomials import IntPolynomial, ParseError, PolynomialError, parse_polynomial, poly_to_str
from .stats import (
    GENUS1_GROUPS,
    MEASURE_TAGS,
    empirical_moments,
    ks_distance,
    load_st_table,
    moment_class,
    st_measure,
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

# The largest --threads: a sweep's worker processes start all at once.
MAX_THREADS = 64


class ConfigError(Exception):
    pass


class ExperimentConfig(NamedTuple):
    command: str
    f: str = ""
    D: str = ""
    sigma: str = ""
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
    """A command's result: the report rows, and for the ``.skipped`` sidecar
    the curves of the sweep with their bad primes, or None for no sidecar."""

    columns: list[str]
    rows: list[dict]
    skipped: tuple[list[IntPolynomial], BadPrimes] | None = None


def parse_mobius(text: str) -> MobiusTransform:
    """Parse "(a x + b)/(c x + d)" (shorthands like "1/x" and "-x" accepted)."""
    s = text.strip()
    if "/" in s:
        num_s, _, den_s = s.partition("/")
    else:
        num_s, den_s = s, "1"

    def linear(part: str, what: str) -> tuple[int, int]:
        part = part.strip()
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        poly = parse_polynomial(part)
        if not poly.is_zero and poly.degree > 1:
            raise ParseError(f"{what} of a Moebius transform must be linear")
        c = poly.coeffs + (0, 0)
        return c[1], c[0]

    a, b = linear(num_s, "numerator")
    c, d = linear(den_s, "denominator")
    return MobiusTransform(a, b, c, d)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return "" if v is None else str(v)


def _write(report: Report, cfg: ExperimentConfig) -> None:
    """The report to the output file (or stdout), and beside an output file the
    ``.skipped`` sidecar of the bad primes p <= N with reasons (p=2 | lead | disc)."""
    cols = report.columns
    if cfg.fmt == "json":
        import json

        text = json.dumps([{k: row.get(k) for k in cols} for row in report.rows], indent=2) + "\n"
    else:
        lines = [",".join(cols)] + [",".join(_fmt(row.get(k)) for k in cols) for row in report.rows]
        text = "\n".join(lines) + "\n"
    if cfg.output == "-":
        sys.stdout.write(text)
        return
    with open(cfg.output, "w", newline="\n") as fh:
        fh.write(text)
    if report.skipped is None:
        return
    polys, bad = report.skipped
    skipped = []
    for p in (q for q in primes_in(2, cfg.N + 1) if q in bad):
        if p == 2:
            reason = "p=2"
        elif any(f.lead % p == 0 for f in polys):
            reason = "lead"
        else:
            reason = "disc"
        skipped.append(f"{p},{reason}\n")
    with open(cfg.output + ".skipped", "w", newline="\n") as fh:
        fh.write("".join(skipped))


def run_verify_cache(cache: TraceCache, threads: int = 1) -> None:
    """Recompute every cached record; quarantine and fail on any disagreement."""
    for p, (a,) in sweep_traces([cache.poly], sorted(cache.records), threads):
        if a != cache.records[p]:
            cache._fail(f"cached a_p disagrees with recomputation at p={p}")


def _open_caches(cfg: ExperimentConfig, polys: list[IntPolynomial]) -> Iterator[TraceCache]:
    """One cache per distinct curve of a sweep, or none without a cache dir.

    Lazy: the engine opens the caches (and with --verify-cache rechecks them)
    when its sweep starts, so after ``good_primes`` has checked the N cap.
    """
    for g in dict.fromkeys(polys) if cfg.cache_dir else ():
        cache = TraceCache(cfg.cache_dir, g)
        if cfg.verify_cache:
            run_verify_cache(cache, cfg.threads)
        yield cache


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


def _traces(cfg: ExperimentConfig, c: CurveSpec) -> list[TraceRecord]:
    primes = good_primes(c.bad_primes, cfg.N)
    sweep = sweep_traces([c.f], primes, cfg.threads, _open_caches(cfg, [c.f]))
    return [TraceRecord(p, a, c.genus) for p, (a,) in sweep]


def cmd_trace(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    rows = [{"p": t.p, "a": t.a} for t in _traces(cfg, c)]
    return Report(["p", "a"], rows, ([c.f], c.bad_primes))


def cmd_lpoly(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    if c.genus != 2:
        raise CurveError("lpoly requires a genus-2 curve (degree 5 or 6)")
    primes = good_primes(c.bad_primes, cfg.N)
    if primes and primes[-1] > DEFAULT_LPOLY_CAP:
        raise CapExceededError(
            f"p = {primes[-1]} exceeds the F_p^2 counting cap {DEFAULT_LPOLY_CAP}"
        )
    rows = [{"p": t.p, "a": t.a, "b": genus2_b(c.f, t.p, t.a)} for t in _traces(cfg, c)]
    return Report(["p", "a", "b"], rows, ([c.f], c.bad_primes))


def cmd_nagao(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    D = parse_polynomial(cfg.D) if cfg.D else c.f
    surface = twist_surface(c.f, D)
    caches = _open_caches(cfg, [c.f, D])
    series = nagao_series(surface, cfg.N, _parse_grid(cfg), cfg.threads, caches)
    rows = [
        {"N": n, "S1": s1, "S2": s2, "n_primes": k}
        for n, s1, s2, k in zip(series.n_grid, series.s1, series.s2, series.n_primes)
    ]
    return Report(["N", "S1", "S2", "n_primes"], rows, ([c.f, D], surface.bad_primes))


def cmd_moments(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    """``moments``: the trace moments, with Kolmogorov-Smirnov distances of the
    angles to the 1-D measures in genus 1.  ``st-classify``: the moment class
    of the second moment, its candidate groups of the curve's genus and the
    predicted rank."""
    traces = _traces(cfg, c)
    if not traces:
        raise ConfigError(f"no good prime p <= N = {cfg.N} to take moments over")
    m = empirical_moments(traces)
    if cfg.command == "st-classify":
        cls = moment_class(m.second_moment)
        if c.genus == 1:
            table = GENUS1_GROUPS
        else:
            table = [(r.name, r.second_moment) for r in load_st_table()]
        groups = [name for name, moment in table if moment == cls]
        row = {
            "N": cfg.N,
            "second_moment": m.second_moment,
            "zero_fraction": m.zero_fraction,
            "moment_class": cls,
            "candidates": "|".join(groups),
            "predicted_rank": cls,
            "flag": "" if cls is not None else "no class within tolerance",
        }
    else:
        row = {
            "N": cfg.N,
            "second_moment": m.second_moment,
            "fourth_moment": m.fourth_moment,
            "zero_fraction": m.zero_fraction,
            "n_primes": m.n_primes,
        }
        angles = [normalized_angle(t) for t in traces] if c.genus == 1 else None
        for tag in MEASURE_TAGS:  # the 1-D angle measures do not apply in genus 2
            ks = None if angles is None else ks_distance(angles, st_measure(tag))
            row["ks_" + tag.replace("-", "_")] = ks
    return Report(list(row), [row], ([c.f], c.bad_primes))


def cmd_peterson(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    if not cfg.sigma:
        raise ConfigError("peterson requires --sigma")
    result = peterson_D(c.f, parse_mobius(cfg.sigma))
    row = {"D": poly_to_str(result.D, "T"), "multiplier": result.multiplier}
    return Report(list(row), [row])


def cmd_factor_check(cfg: ExperimentConfig, c: CurveSpec) -> Report:
    if cfg.D == "auto-peterson":
        if not cfg.sigma:
            raise ConfigError("--D auto-peterson requires --sigma")
        D = peterson_D(c.f, parse_mobius(cfg.sigma)).D
    elif cfg.D:
        D = parse_polynomial(cfg.D)
    else:
        raise ConfigError("--D (a polynomial or 'auto-peterson') is required")
    others = [curve_from_poly(parse_polynomial(s)).f for s in cfg.s_curves]
    caches = _open_caches(cfg, [D, c.f, *others])
    rep = verify_factorization(D, c.f, cfg.r, cfg.N, others, cfg.threads, caches)
    row = {
        "passed": "pass" if rep.passed else "fail",
        "first_failing_prime": rep.first_failing_prime,
        "primes_checked": rep.primes_checked,
    }
    return Report(list(row), [row])


# Each command's handler and the flags it reads; its parser accepts no others.
# run reads _COMMON for every command, and every sweep reads _SWEEP.
_COMMON = ("--f", "--threads", "--cache-dir", "--output", "--format")
_SWEEP = (*_COMMON, "--N", "--verify-cache")

_COMMANDS = {
    "trace": (cmd_trace, _SWEEP),
    "lpoly": (cmd_lpoly, _SWEEP),
    "nagao": (cmd_nagao, (*_SWEEP, "--D", "--grid")),
    "moments": (cmd_moments, _SWEEP),
    "st-classify": (cmd_moments, _SWEEP),
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
    """Fail before any work on an output or cache path that cannot be written,
    or on --verify-cache without a cache to verify."""
    out = cfg.output
    if out != "-" and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ConfigError(f"cannot write --output {out}: a directory, or in a missing one")
    cache_dir = cfg.cache_dir
    if cache_dir and os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        raise ConfigError(f"cache dir {cache_dir} is not a directory")
    if cfg.verify_cache and not cache_dir:
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
        if not cfg.f:
            raise ConfigError("--f is required")
        _check_paths(cfg)
        _write(handler(cfg, curve_from_poly(parse_polynomial(cfg.f))), cfg)
        return EXIT_OK
    except tuple(_EXIT_CODES) as e:
        return _exit_code(e)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ConfigError(message)


def _split_curves(text: str) -> list[str]:
    return [s for s in text.split(",") if s.strip()]


_FLAGS = {
    "--f": dict(help="curve polynomial f(x)"),
    "--D": dict(help="twisting polynomial D(T), or 'auto-peterson'"),
    "--sigma": dict(help="Moebius transform, e.g. '(x+1)/(-3x+1)' or '1/x'"),
    "--N": dict(type=int),
    "--grid": dict(help="'geometric:k' or comma-separated cutoffs"),
    "--r": dict(type=int),
    "--s-curves": dict(type=_split_curves, help="comma-separated genus-1 polynomials"),
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
