"""The three benchmark workloads: seeded inputs, CLI argv, and output checks.

Seed 0 reproduces the curves named in BENCHMARK.json; any other seed draws a
squarefree curve of the same degree from the same family, so the work per
prime stays the same.  The checks here run outside the timed region and use
sympy and nagaolab's exhaustive point-count oracle, never the character-sum
trace kernel.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import sympy

DEFAULT_SEED = 0
ORACLE_P_MAX = 2000
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

_X = sympy.Symbol("x")


class CheckError(Exception):
    """An output disagrees with the oracle or with the seed commit's bytes."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


@dataclass(frozen=True)
class Inputs:
    f: str
    N: int
    D: str = ""  # twisting polynomial, for the Peterson workload only


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    draw: Callable[[int, random.Random], Inputs]  # (seed, rng seeded from name and seed)
    extra: tuple[str, ...] = ()
    cache: str = "none"  # "cold", "warm" or "none"
    threads: int | None = None  # passed as --threads when set

    def inputs(self, seed: int) -> Inputs:
        return self.draw(seed, random.Random(f"{self.name}:{seed}"))

    def argv(self, inp: Inputs, cache_dir: str | None) -> list[str]:
        args = [self.command, "--f", inp.f, "--N", str(inp.N), *self.extra]
        if self.threads is not None:
            args += ["--threads", str(self.threads)]
        if cache_dir is not None:
            args += ["--cache-dir", cache_dir]
        return args

    def setup_code(self, inp: Inputs) -> str:
        """Python run in a fresh interpreter: import, parse, build curve specs."""
        lines = [
            "from nagaolab.cli import parse_mobius",
            "from nagaolab.curves import curve_from_poly, hyperelliptic_bad_primes",
            "from nagaolab.polynomials import parse_polynomial",
            "from nagaolab.twist import peterson_D, twist_surface",
            f"f = parse_polynomial({inp.f!r})",
        ]
        if self.command == "nagao":
            lines.append("twist_surface(f, f)")
        elif self.command == "factor-check":
            lines += [
                "D = peterson_D(f, parse_mobius('1/x')).D",
                "curve_from_poly(f)",
                "hyperelliptic_bad_primes(D)",
            ]
        else:
            lines.append("curve_from_poly(f)")
        return "\n".join(lines) + "\n"


def _poly(text: str) -> sympy.Poly:
    return sympy.Poly(sympy.sympify(text.replace("^", "**").replace("T", "x")), _X)


def _squarefree(text: str) -> bool:
    return _poly(text).discriminant() != 0


def _poly_text(coeffs: list[int]) -> str:
    """The polynomial with coefficients c_0, c_1, ... in the CLI's syntax."""
    n = len(coeffs) - 1
    terms = []
    for k in range(n, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if mono and abs(c) == 1:
            term = mono
        else:
            term = f"{abs(c)}*{mono}" if mono else str(abs(c))
        sign = "-" if c < 0 else "+"
        terms.append((sign, term))
    text = "".join(f"{s}{t}" for s, t in terms)
    return text[1:] if text.startswith("+") else text


def _quintic(seed: int, rng: random.Random) -> str:
    if seed == DEFAULT_SEED:
        return "x^5-x+1"
    while True:
        low = [rng.randint(-4, 4) for _ in range(5)]
        if low[0] != 0 and any(low[1:]):
            text = _poly_text(low + [1])
            if _squarefree(text):
                return text


def _g2_classify(seed: int, rng: random.Random) -> Inputs:
    return Inputs(_quintic(seed, rng), 40000)


def _selftwist(seed: int, rng: random.Random) -> Inputs:
    if seed == DEFAULT_SEED:
        return Inputs("T^3+T", 60000)
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        text = _poly_text([b, a, 0, 1]).replace("x", "T")
        if (a, b) != (0, 0) and _squarefree(text):
            return Inputs(text, 60000)


def _peterson(seed: int, rng: random.Random) -> Inputs:
    while True:
        a, b = (2, 3) if seed == DEFAULT_SEED else (rng.randint(-4, 4), rng.randint(-4, 4))
        f = _poly_text([1, a, b, b, a, 1])
        # sigma = 1/x maps infinity to 0 and f(0) = 1, so peterson_D gives
        # D(T) = f(T^2), which is squarefree whenever f is.
        if _squarefree(f):
            return Inputs(f, 25000, D=_poly_text([1, 0, a, 0, b, 0, b, 0, a, 0, 1]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("g2-classify-cold", "st-classify", _g2_classify, cache="cold", threads=2),
        Workload("selftwist-nagao-warm", "nagao", _selftwist, ("--grid", "geometric:20"), cache="warm", threads=1),
        Workload("peterson-factor", "factor-check", _peterson, ("--D", "auto-peterson", "--sigma", "1/x", "--r", "2")),
    )
}


# -- independent reference data ----------------------------------------------


def bad_primes(*texts: str) -> set[int]:
    """2 and the primes dividing the discriminant or leading coefficient."""
    bad = {2}
    for text in texts:
        poly = _poly(text)
        for n in (abs(int(poly.discriminant())), abs(int(poly.LC()))):
            if n > 1:
                bad.update(int(q) for q in sympy.factorint(n))
    return bad


def good_primes(inp: Inputs) -> list[int]:
    bad = bad_primes(inp.f, inp.D) if inp.D else bad_primes(inp.f)
    return [int(p) for p in sympy.primerange(3, inp.N + 1) if p not in bad]


def expected_report(name: str) -> bytes:
    return (EXPECTED_DIR / f"{name}.out").read_bytes()


def _oracle_traces(text: str, primes: list[int]) -> dict[int, int]:
    from nagaolab.curves import CurveSpec, trace_oracle_exhaustive
    from nagaolab.polynomials import parse_polynomial

    f = parse_polynomial(text)
    spec = CurveSpec(f, 1 if f.degree <= 4 else (f.degree - 1) // 2, frozenset())
    return {p: trace_oracle_exhaustive(spec, p).a for p in primes}


def _csv(report: bytes) -> list[dict[str, str]]:
    header, *rows = report.decode().splitlines()
    cols = header.split(",")
    return [dict(zip(cols, row.split(","))) for row in rows]


def _close(x: float, y: float, rel: float = 1e-10) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=1e-12)


def _read_cache(cache_dir: Path) -> dict[int, int]:
    files = list(cache_dir.glob("trace_*.txt"))
    _require(len(files) == 1, f"expected one cache file in {cache_dir}, found {len(files)}")
    records = {}
    for line in files[0].read_text().splitlines()[2:]:
        p, a = line.split(",")
        records[int(p)] = int(a)
    return records


def check_outputs(w: Workload, inp: Inputs, report: bytes, cache_dir: Path | None) -> None:
    """Oracle checks on one invocation's report (and its cache, if any)."""
    rows = _csv(report)
    good = good_primes(inp)
    small = [p for p in good if p < ORACLE_P_MAX]
    if w.command == "st-classify":
        records = _read_cache(cache_dir)
        _require(sorted(records) == good, "cache records are not exactly the good primes")
        oracle = _oracle_traces(inp.f, small)
        _require(all(records[p] == oracle[p] for p in small), "a_p differs from the oracle")
        _require(len(rows) == 1, "st-classify printed more than one row")
        row = rows[0]
        m2 = math.fsum(a * a / p for p, a in records.items()) / len(good)
        zeros = sum(1 for a in records.values() if a == 0) / len(good)
        _require(_close(float(row["second_moment"]), m2), "second moment differs from fsum")
        _require(_close(float(row["zero_fraction"]), zeros), "zero fraction differs")
    elif w.command == "nagao":
        records = _read_cache(cache_dir)
        _require(sorted(records) == good, "prefilled cache does not hold every good prime")
        oracle = _oracle_traces(inp.f, small)
        _require(all(records[p] == oracle[p] for p in small), "cached a_p differs from the oracle")
        first = rows[0]
        cutoff = int(first["N"])
        upto = [p for p in small if p <= cutoff]
        _require(cutoff < ORACLE_P_MAX and int(first["n_primes"]) == len(upto), "n_primes differs")
        # Odd-degree self-twist: A_p = -a_p^2 / p, so -A_p = a_p^2 / p.
        terms = [Fraction(oracle[p] ** 2, p) for p in upto]
        s1 = math.fsum(float(t) * math.log(p) for t, p in zip(terms, upto)) / cutoff
        s2 = float(sum(terms) / len(terms))
        _require(_close(float(first["S1"]), s1, 1e-9), "S1 at the smallest cutoff differs")
        _require(_close(float(first["S2"]), s2, 1e-9), "S2 at the smallest cutoff differs")
    elif w.command == "factor-check":
        _require(len(rows) == 1, "factor-check printed more than one row")
        row = rows[0]
        _require(row["passed"] == "pass", "factor-check did not pass")
        _require(int(row["primes_checked"]) == len(good), "primes_checked is not the good-prime count")
        a_f = _oracle_traces(inp.f, small)
        a_D = _oracle_traces(inp.D, small)
        _require(all(a_D[p] == 2 * a_f[p] for p in small), "oracle a_p(D) != 2 a_p(f)")
