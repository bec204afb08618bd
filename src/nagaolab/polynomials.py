"""Exact integer polynomials: the carrier type for curve equations and twist data.

Coefficients are stored constant-term first, always as Python ints (or
Fractions in the rational helpers used by the Peterson construction).
Squarefreeness and discriminants are exact, via sympy's integer resultants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy

_X = sympy.symbols("x")


class PolynomialError(ValueError):
    pass


class ParseError(PolynomialError):
    """Syntax error in a polynomial or Moebius string; carries a column."""

    def __init__(self, message: str, column: int = -1):
        super().__init__(message if column < 0 else f"{message} (column {column})")
        self.column = column


@dataclass(frozen=True)
class IntPolynomial:
    """Univariate polynomial with exact integer coefficients, constant term first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise PolynomialError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise PolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def to_sympy(self, var=_X):
        return sympy.Poly(list(reversed(self.coeffs or (0,))), var)

    def discriminant(self) -> int:
        return int(sympy.discriminant(self.to_sympy().as_expr(), _X))

    def is_squarefree(self) -> bool:
        """Squarefree over Q, i.e. gcd(f, f') is constant (resultant nonzero)."""
        if self.is_zero or self.degree == 0:
            return False
        if self.degree == 1:
            return True
        return int(sympy.resultant(self.to_sympy().as_expr(), self.derivative().to_sympy().as_expr(), _X)) != 0

    def __str__(self) -> str:
        return poly_to_str(self)


def poly_to_str(f: IntPolynomial, var: str = "x") -> str:
    """Canonical printable form, highest degree first; round-trips through the parser."""
    if f.is_zero:
        return "0"
    parts = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            term = f"{head}{var}" + (f"^{k}" if k > 1 else "")
        parts.append((sign, term))
    first_sign, first_term = parts[0]
    out = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse terms like ``c*x^k`` joined by + and -, variable x or T.

    Whitespace-insensitive.  Raises ParseError with the offending column.
    """
    pos = 0
    n = len(text)
    coeffs: dict[int, int] = {}

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(msg):
        raise ParseError(msg, pos)

    first = True
    while True:
        skip_ws()
        if pos >= n:
            if first:
                fail("empty polynomial")
            break
        sign = 1
        if text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos += 1
            skip_ws()
        elif not first:
            fail("expected '+' or '-' between terms")
        first = False
        # term: [int][*][var[^int]]  -- at least one of coefficient / variable
        coef = None
        if pos < n and text[pos].isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos < n and text[pos] == ".":
                fail("non-integer coefficient")
            coef = int(text[start:pos])
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
        power = 0
        if pos < n and text[pos] in "xT":
            pos += 1
            power = 1
            skip_ws()
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                if pos >= n or not text[pos].isdigit():
                    fail("expected integer exponent")
                start = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                if pos < n and text[pos] == ".":
                    fail("non-integer exponent")
                power = int(text[start:pos])
        elif coef is None:
            fail("expected a coefficient or variable")
        if coef is None:
            coef = 1
        coeffs[power] = coeffs.get(power, 0) + sign * coef
    deg = max(coeffs) if coeffs else 0
    return IntPolynomial(tuple(coeffs.get(k, 0) for k in range(deg + 1)))


# ---------------------------------------------------------------------------
# Exact rational-coefficient helpers (Peterson construction, root-permutation
# checks).  These operate on plain lists of Fractions, constant term first.
# ---------------------------------------------------------------------------


def frac_coeffs(f: IntPolynomial) -> list[Fraction]:
    return [Fraction(c) for c in f.coeffs]


def frac_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def frac_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return frac_trim(out)


def frac_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u == 0:
            continue
        for j, v in enumerate(b):
            out[i + j] += u * v
    return frac_trim(out)


def frac_scale(a: list[Fraction], s: Fraction) -> list[Fraction]:
    return frac_trim([v * s for v in a])


def frac_compose(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """f(g(x)) by Horner over the coefficient list of f."""
    out: list[Fraction] = []
    for c in reversed(f):
        out = frac_add(frac_mul(out, g), [c])
    return out


def frac_pow(a: list[Fraction], k: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(k):
        out = frac_mul(out, a)
    return out


def clear_denominators(c: list[Fraction]) -> tuple[IntPolynomial, int]:
    """Scale a rational polynomial to an integral one by the LCM of denominators.

    Returns (M * poly, M).  Callers that need a square scaling multiply twice.
    """
    m = 1
    for v in c:
        m = m * v.denominator // sympy.gcd(m, v.denominator)
    ints = [v * m for v in c]
    assert all(v.denominator == 1 for v in ints)
    return IntPolynomial(tuple(int(v) for v in ints)), int(m)
