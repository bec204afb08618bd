"""Command-line front end: parsing, sweep orchestration, caching, CSV/JSON reports.

Exit codes: 0 success, 1 parse/config error, 2 bad curve (non-squarefree or
bad degree), 3 cap exceeded, 4 cache corruption.  Progress goes to stderr;
report data only to the output file (or stdout with ``--output -``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from .cache import CacheCorruptError, TraceCache
from .curves import (
    DEFAULT_LPOLY_CAP,
    N_HARD_CAP,
    CapExceededError,
    CurveError,
    CurveSpec,
    TraceRecord,
    curve_from_poly,
    good_primes,
    l_polynomial_genus2,
    normalized_angle,
    sweep_traces,
)
from .polynomials import IntPolynomial, ParseError, PolynomialError, parse_polynomial, poly_to_str
from .stats import (
    MEASURE_TAGS,
    MomentReport,
    empirical_moments,
    identify_st_class,
    ks_distance,
    moment_class,
    predict_rank,
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


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    command: str
    f: str = ""
    D: str = ""
    sigma: str = ""
    N: int = 1000
    grid: str = "geometric:20"
    r: int = 2
    s_curves: list[str] = field(default_factory=list)
    threads: int = 1
    cache_dir: str | None = None
    output: str = "-"
    fmt: str = "csv"
    verify_cache: bool = False


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


def _write_report(rows: list[dict], columns: list[str], cfg: ExperimentConfig) -> None:
    if cfg.fmt == "json":
        payload = [{k: row.get(k) for k in columns} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row.get(k)) for k in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    if cfg.output == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", newline="\n") as fh:
            fh.write(text)


def _write_skipped(bad_polys: list[IntPolynomial], bad: set[int], n_max: int, cfg: ExperimentConfig) -> None:
    """Sidecar log of skipped bad primes with reasons (p=2 | lead | disc)."""
    if cfg.output == "-":
        return
    lines = []
    for p in sorted(q for q in bad if q <= n_max):
        if p == 2:
            reason = "p=2"
        elif any(f.lead % p == 0 for f in bad_polys):
            reason = "lead"
        else:
            reason = "disc"
        lines.append(f"{p},{reason}")
    with open(cfg.output + ".skipped", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def run_verify_cache(cache: TraceCache, threads: int = 1) -> None:
    """Recompute every cached record; quarantine and fail on any disagreement."""
    for p, (a,) in sweep_traces([cache.poly], sorted(cache.records), threads):
        if a != cache.records[p]:
            cache._fail(f"cached a_p disagrees with recomputation at p={p}")


def _open_caches(cfg: ExperimentConfig, polys: list[IntPolynomial]) -> list[TraceCache]:
    """One cache per distinct curve of a sweep, or none without a cache dir."""
    cache_dir = os.environ.get("NAGAOLAB_CACHE", cfg.cache_dir)
    if not cache_dir:
        return []
    caches = [TraceCache(cache_dir, g) for g in dict.fromkeys(polys)]
    if cfg.verify_cache:
        for cache in caches:
            run_verify_cache(cache, cfg.threads)
    return caches


def _parse_grid(cfg: ExperimentConfig) -> list[int]:
    text = cfg.grid.strip()
    try:
        if text.startswith("geometric"):
            _, _, k = text.partition(":")
            grid = geometric_grid(cfg.N, int(k) if k else 20)
        else:
            grid = sorted({int(v) for v in text.split(",")})
    except ValueError as e:
        raise ConfigError(f"bad grid {text!r}: {e}") from None
    if grid[0] < 2 or grid[-1] > cfg.N:
        raise ConfigError(f"bad grid {text!r}: cutoffs must lie in [2, N] = [2, {cfg.N}]")
    return grid


def _curve(cfg: ExperimentConfig) -> CurveSpec:
    if not cfg.f:
        raise ConfigError("--f is required")
    return curve_from_poly(parse_polynomial(cfg.f))


def _check_n(cfg: ExperimentConfig) -> None:
    if cfg.N > N_HARD_CAP:
        raise CapExceededError(f"N = {cfg.N} exceeds the hard cap {N_HARD_CAP}")


def _traces(cfg: ExperimentConfig, c: CurveSpec) -> list[TraceRecord]:
    primes = good_primes(c.bad_primes, cfg.N)
    sweep = sweep_traces([c.f], primes, cfg.threads, _open_caches(cfg, [c.f]))
    return [TraceRecord(p, a, c.genus) for p, (a,) in sweep]


def cmd_trace(cfg: ExperimentConfig) -> None:
    _check_n(cfg)
    c = _curve(cfg)
    rows = [{"p": t.p, "a": t.a} for t in _traces(cfg, c)]
    _write_report(rows, ["p", "a"], cfg)
    _write_skipped([c.f], set(c.bad_primes), cfg.N, cfg)


def cmd_lpoly(cfg: ExperimentConfig) -> None:
    _check_n(cfg)
    c = _curve(cfg)
    if c.genus != 2:
        raise CurveError("lpoly requires a genus-2 curve (degree 5 or 6)")
    primes = good_primes(c.bad_primes, cfg.N)
    if primes and primes[-1] > DEFAULT_LPOLY_CAP:
        raise CapExceededError(
            f"p = {primes[-1]} exceeds the F_p^2 counting cap {DEFAULT_LPOLY_CAP}"
        )
    rows = []
    for p in primes:
        lp = l_polynomial_genus2(c, p)
        rows.append({"p": p, "a": lp.a, "b": lp.b})
    _write_report(rows, ["p", "a", "b"], cfg)
    _write_skipped([c.f], set(c.bad_primes), cfg.N, cfg)


def cmd_nagao(cfg: ExperimentConfig) -> None:
    _check_n(cfg)
    f = parse_polynomial(cfg.f) if cfg.f else None
    if f is None:
        raise ConfigError("--f is required")
    D = parse_polynomial(cfg.D) if cfg.D else f
    surface = twist_surface(f, D)
    caches = _open_caches(cfg, [f, D])
    series = nagao_series(surface, cfg.N, _parse_grid(cfg), cfg.threads, caches)
    rows = [
        {"N": n, "S1": s1, "S2": s2, "n_primes": k}
        for n, s1, s2, k in zip(series.n_grid, series.s1, series.s2, series.n_primes)
    ]
    _write_report(rows, ["N", "S1", "S2", "n_primes"], cfg)
    _write_skipped([f, D], set(surface.bad_primes), cfg.N, cfg)


def _moment_rows(cfg: ExperimentConfig) -> tuple[CurveSpec, MomentReport, dict]:
    _check_n(cfg)
    c = _curve(cfg)
    traces = _traces(cfg, c)
    report = empirical_moments(traces, N=cfg.N)
    row = {
        "N": cfg.N,
        "second_moment": report.second_moment,
        "fourth_moment": report.fourth_moment,
        "zero_fraction": report.zero_fraction,
        "n_primes": report.n_primes,
    }
    if c.genus == 1:
        angles = [normalized_angle(t) for t in traces]
        for tag in MEASURE_TAGS:
            row["ks_" + tag.replace("-", "_")] = ks_distance(angles, st_measure(tag))
    else:
        for tag in MEASURE_TAGS:
            row["ks_" + tag.replace("-", "_")] = None
    return c, report, row


_MOMENT_COLUMNS = [
    "N",
    "second_moment",
    "fourth_moment",
    "zero_fraction",
    "n_primes",
] + ["ks_" + t.replace("-", "_") for t in MEASURE_TAGS]


def cmd_moments(cfg: ExperimentConfig) -> None:
    c, _, row = _moment_rows(cfg)
    _write_report([row], _MOMENT_COLUMNS, cfg)
    _write_skipped([c.f], set(c.bad_primes), cfg.N, cfg)


def cmd_st_classify(cfg: ExperimentConfig) -> None:
    c, report, _ = _moment_rows(cfg)
    cls = moment_class(report.second_moment)
    candidates = identify_st_class(report) if cls is not None else []
    out = {
        "N": cfg.N,
        "second_moment": report.second_moment,
        "zero_fraction": report.zero_fraction,
        "moment_class": cls,
        "candidates": "|".join(r.name for r in candidates),
        "predicted_rank": predict_rank(c.f, cls) if cls is not None else None,
        "flag": "" if cls is not None else "no class within tolerance",
    }
    _write_report(
        [out],
        ["N", "second_moment", "zero_fraction", "moment_class", "candidates", "predicted_rank", "flag"],
        cfg,
    )
    _write_skipped([c.f], set(c.bad_primes), cfg.N, cfg)


def cmd_peterson(cfg: ExperimentConfig) -> None:
    if not cfg.f or not cfg.sigma:
        raise ConfigError("peterson requires --f and --sigma")
    f = parse_polynomial(cfg.f)
    sigma = parse_mobius(cfg.sigma)
    result = peterson_D(f, sigma)
    _write_report(
        [{"D": poly_to_str(result.D, "T"), "multiplier": result.multiplier}],
        ["D", "multiplier"],
        cfg,
    )


def cmd_factor_check(cfg: ExperimentConfig) -> None:
    _check_n(cfg)
    if not cfg.f:
        raise ConfigError("--f is required")
    f = parse_polynomial(cfg.f)
    if cfg.D == "auto-peterson":
        if not cfg.sigma:
            raise ConfigError("--D auto-peterson requires --sigma")
        D = peterson_D(f, parse_mobius(cfg.sigma)).D
    elif cfg.D:
        D = parse_polynomial(cfg.D)
    else:
        raise ConfigError("--D (a polynomial or 'auto-peterson') is required")
    others = []
    if cfg.s_curves:
        curve_from_poly(f)  # a bad E exits 2, like a bad E_i
        others = [curve_from_poly(parse_polynomial(s)).f for s in cfg.s_curves]
    caches = _open_caches(cfg, [D, f, *others])
    rep = verify_factorization(D, f, cfg.r, cfg.N, others, cfg.threads, caches)
    _write_report(
        [
            {
                "passed": "pass" if rep.passed else "fail",
                "first_failing_prime": rep.first_failing_prime,
                "primes_checked": rep.primes_checked,
            }
        ],
        ["passed", "first_failing_prime", "primes_checked"],
        cfg,
    )


_COMMANDS = {
    "trace": cmd_trace,
    "lpoly": cmd_lpoly,
    "nagao": cmd_nagao,
    "moments": cmd_moments,
    "st-classify": cmd_st_classify,
    "peterson": cmd_peterson,
    "factor-check": cmd_factor_check,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute a command; returns the process exit code."""
    try:
        handler = _COMMANDS.get(cfg.command)
        if handler is None:
            raise ConfigError(f"unknown command {cfg.command!r}")
        if cfg.threads < 1:
            raise ConfigError("thread count must be >= 1")
        handler(cfg)
        return EXIT_OK
    except CacheCorruptError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CACHE
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except CurveError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CURVE
    except (ConfigError, ParseError, PetersonError, PolynomialError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="nagaolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--f", default="", help="curve polynomial f(x)")
        p.add_argument("--D", default="", help="twisting polynomial D(T), or 'auto-peterson'")
        p.add_argument("--sigma", default="", help="Moebius transform, e.g. '(x+1)/(-3x+1)' or '1/x'")
        p.add_argument("--N", type=int, default=1000)
        p.add_argument("--grid", default="geometric:20", help="'geometric:k' or comma-separated cutoffs")
        p.add_argument("--r", type=int, default=2)
        p.add_argument("--s-curves", default="", help="comma-separated genus-1 polynomials")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--output", default="-")
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        p.add_argument("--verify-cache", action="store_true")
    return parser


def config_from_args(argv: list[str]) -> ExperimentConfig:
    args = build_parser().parse_args(argv)
    return ExperimentConfig(
        command=args.command,
        f=args.f,
        D=args.D,
        sigma=args.sigma,
        N=args.N,
        grid=args.grid,
        r=args.r,
        s_curves=[s for s in args.s_curves.split(",") if s.strip()],
        threads=args.threads,
        cache_dir=args.cache_dir,
        output=args.output,
        fmt=args.fmt,
        verify_cache=args.verify_cache,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = config_from_args(sys.argv[1:] if argv is None else argv)
    except (ConfigError, ParseError, PolynomialError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
