"""Exact integer polynomials: the carrier type for curve equations and twist data.

Coefficients are stored constant-term first, always as Python ints.
Discriminants, and with them squarefreeness, are exact: a sub-resultant
remainder sequence on Python ints.
"""

from __future__ import annotations

import math

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


class IntPolynomial:
    """Univariate polynomial with exact integer coefficients, constant term first.

    Immutable: equal to, and hashed like, another IntPolynomial with the same
    coefficients, so it keys the sweep engine's dicts; pickled by its
    coefficients, so the worker processes receive it.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        c = tuple(int(v) for v in coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError(f"IntPolynomial is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"IntPolynomial is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not IntPolynomial:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs,))

    def __reduce__(self):
        return IntPolynomial, (self.coeffs,)

    def __repr__(self) -> str:
        return f"IntPolynomial(coeffs={self.coeffs!r})"

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
            try:
                coef = int(text[start:pos])
            except ValueError:  # more digits than int() converts
                raise ParseError(f"coefficient of {pos - start} digits is too long", start) from None
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

