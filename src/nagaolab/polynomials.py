"""Exact integer polynomials: the carrier type for curve equations and twist data.

Coefficients are stored constant-term first, always as Python ints.
Discriminants, and with them squarefreeness, are exact: a sub-resultant
remainder sequence on Python ints.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .finite_field import legendre

# The largest exponent the parser accepts, checked before int() reads the
# exponent's digits and before the dense coefficient tuple is built: far above
# every degree a command sweeps (the Peterson D of a quintic has degree 10).
MAX_EXPONENT = 1000

# One term: [+|-] [digits] [[*] x|T [^ digits]], where '*' follows a coefficient.
_TERM = re.compile(
    r"(?P<sign>[+-]?)\s*"
    r"(?:(?P<coef>[0-9]+)(?:\s*\*(?=\s*[xT]))?\s*)?"
    r"(?:(?P<var>[xT])(?:\s*\^\s*(?P<exp>[0-9]*))?)?\s*"
)


class PolynomialError(ValueError):
    pass


class ParseError(PolynomialError):
    """Syntax error in a polynomial or Moebius string; carries a column and
    the message without it (``reason``)."""

    def __init__(self, message: str, column: int = -1):
        super().__init__(message if column < 0 else f"{message} (column {column})")
        self.reason = message
        self.column = column


class IntPolynomial(namedtuple("IntPolynomial", "coeffs")):
    """Univariate polynomial with exact integer coefficients, constant term first.

    A 1-tuple of its trimmed coefficients: equal to, and hashed like, another
    IntPolynomial with the same coefficients, so it keys the sweep engine's
    dicts, and never equal to its coefficient tuple.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        c = tuple(int(v) for v in coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        return super().__new__(cls, c)

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

    @property
    def genus(self) -> int:
        """(deg - 1) // 2: the genus of y^2 = g(x) for a squarefree g, 0 in degree 1 or 2."""
        return (self.degree - 1) // 2

    @property
    def weil_constant(self) -> int:
        """4 genus^2: a trace a of y^2 = g(x) at a good p has a^2 <= weil_constant * p."""
        return 4 * self.genus**2

    def infinity_term(self, p: int) -> int:
        """The points at infinity of y^2 = g(x) over F_p less one: chi_p(lead g)
        in even degree, 0 in odd, so a_p = -sum_x chi_p(g(x)) - infinity_term(p)."""
        return legendre(self.lead, p) if self.degree % 2 == 0 else 0

    def __call__(self, x):
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def discriminant(self) -> int:
        """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lead(f): 1 in degree 1, 0 for a constant."""
        if len(self.coeffs) < 2:
            return 0
        n = self.degree
        res = _resultant(list(self.coeffs), [k * c for k, c in enumerate(self.coeffs)][1:])
        return (-1) ** (n * (n - 1) // 2) * res // self.lead

    def is_squarefree(self) -> bool:
        """Squarefree over Q: disc(f) = +-Res(f, f')/lead(f) is nonzero (1 in degree 1)."""
        return not self.is_zero and self.degree >= 1 and self.discriminant() != 0

    def __str__(self) -> str:
        return poly_to_str(self)


def _mul(p: list, q: list) -> list:
    """Product of two coefficient lists (constant term first), exact in their type."""
    out = [0] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _prem(A: list[int], B: list[int]) -> list[int]:
    """Pseudo-remainder lead(B)^(deg A - deg B + 1) * A mod B, as a trimmed list."""
    r, lead_b, deg_b = list(A), B[-1], len(B) - 1
    steps = len(A) - deg_b
    while len(r) > deg_b:
        q, shift = r[-1], len(r) - 1 - deg_b
        r = [lead_b * c for c in r]
        for i, b in enumerate(B):
            r[shift + i] -= q * b
        while r and r[-1] == 0:
            r.pop()
        steps -= 1
    return [lead_b**steps * c for c in r]


def _resultant(A: list[int], B: list[int]) -> int:
    """Res(A, B) of nonzero integer polynomials given as trimmed lists, constant
    first, with deg A >= deg B.

    The sub-resultant algorithm: Cohen, A Course in Computational Algebraic
    Number Theory, GTM 138, Algorithm 3.3.7.  Every division is exact.
    """
    a, b = math.gcd(*A), math.gcd(*B)
    t = a ** (len(B) - 1) * b ** (len(A) - 1)
    A, B = [c // a for c in A], [c // b for c in B]
    s = g = h = 1
    while len(B) > 1:
        delta = len(A) - len(B)
        if (len(A) - 1) * (len(B) - 1) % 2:
            s = -s
        R = _prem(A, B)
        if not R:
            return 0
        A, B = B, [c // (g * h**delta) for c in R]
        g = A[-1]
        h = g**delta * h // h**delta  # h^(1 - delta) g^delta
    n = len(A) - 1
    return s * t * (B[0] ** n * h // h**n)  # h^(1 - n) lead(B)^n


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
    coeffs: dict[int, int] = {}
    pos = len(text) - len(text.lstrip())
    if pos == len(text):
        raise ParseError("empty polynomial", pos)
    while pos < len(text):
        m = _TERM.match(text, pos)  # every part is optional: it always matches
        sign, coef, var, exp = m.group("sign", "coef", "var", "exp")
        if coeffs and not sign:
            raise ParseError("expected '+' or '-' between terms", pos)
        if coef is None and var is None:
            raise ParseError("expected a coefficient or variable", m.end())
        if exp == "":
            raise ParseError("expected integer exponent", m.start("exp"))
        if text.startswith(".", m.end()) and m.end() in (m.end("coef"), m.end("exp")):  # "2.5", "x^1.5"
            raise ParseError("non-integer " + ("exponent" if exp else "coefficient"), m.end())
        try:
            c = int(sign + (coef or "1"))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"coefficient of {len(coef)} digits is too long", m.start("coef")) from None
        # one significant digit more than MAX_EXPONENT has is enough to exceed it
        digits = (exp or "").lstrip("0")[: len(str(MAX_EXPONENT)) + 1]
        power = 0 if var is None else 1 if exp is None else int(digits or 0)
        if power > MAX_EXPONENT:
            raise ParseError(f"exponent above {MAX_EXPONENT}", m.start("exp"))
        coeffs[power] = coeffs.get(power, 0) + c
        pos = m.end()
    return IntPolynomial(coeffs.get(k, 0) for k in range(max(coeffs) + 1))
