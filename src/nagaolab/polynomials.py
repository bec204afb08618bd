"""Exact integer polynomials: the carrier type for curve equations and twist data.

Coefficients are stored constant-term first, always as Python ints.
Squarefreeness and discriminants are exact, via sympy; any other exact
polynomial algebra goes through ``to_sympy`` and ``sympy.Poly``.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy

_X = sympy.symbols("x")

# The largest exponent the parser accepts, checked before the dense coefficient
# tuple is built: far above every degree a command sweeps (the Peterson D of a
# quintic has degree 10).
MAX_EXPONENT = 1000


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

    def to_sympy(self):
        return sympy.Poly(list(reversed(self.coeffs or (0,))), _X)

    def discriminant(self) -> int:
        return int(self.to_sympy().discriminant())

    def is_squarefree(self) -> bool:
        """Squarefree over Q: disc(f) = +-Res(f, f')/lead(f) is nonzero (1 in degree 1)."""
        return not self.is_zero and self.degree >= 1 and self.discriminant() != 0

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

    Whitespace-insensitive; an exponent is at most MAX_EXPONENT.  Raises
    ParseError with the offending column.
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
                power = 0
                while pos < n and text[pos].isdigit():
                    power = 10 * power + int(text[pos])
                    if power > MAX_EXPONENT:
                        fail(f"exponent above {MAX_EXPONENT}")
                    pos += 1
                if pos < n and text[pos] == ".":
                    fail("non-integer exponent")
        elif coef is None:
            fail("expected a coefficient or variable")
        if coef is None:
            coef = 1
        coeffs[power] = coeffs.get(power, 0) + sign * coef
    deg = max(coeffs) if coeffs else 0
    return IntPolynomial(tuple(coeffs.get(k, 0) for k in range(deg + 1)))

