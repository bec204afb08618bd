from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from nagaolab.polynomials import (
    MAX_EXPONENT,
    IntPolynomial,
    ParseError,
    PolynomialError,
    parse_polynomial,
    poly_to_str,
)


def test_parse_basic():
    assert parse_polynomial("x^5 - x + 1").coeffs == (1, -1, 0, 0, 0, 1)
    assert parse_polynomial("T^3+T").coeffs == (0, 1, 0, 1)
    assert parse_polynomial("2*x^2 - 3*x + 7").coeffs == (7, -3, 2)
    assert parse_polynomial("3x").coeffs == (0, 3)
    assert parse_polynomial("-x^2").coeffs == (0, 0, -1)
    assert parse_polynomial("5").coeffs == (5,)
    assert parse_polynomial(f"x^{MAX_EXPONENT}").degree == MAX_EXPONENT
    # leading zeros do not count against the cap, however many (int() alone refuses thousands)
    assert parse_polynomial("x^0003").coeffs == parse_polynomial("x^" + "0" * 5000 + "3").coeffs == (0, 0, 0, 1)


def test_parse_collects_like_terms():
    assert parse_polynomial("x + x + 1 - 1").coeffs == (0, 2)


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ParseError) as e:
        parse_polynomial("x^1.5")
    assert e.value.column >= 0


def test_parse_rejects_long_coefficient_with_its_column():
    # int() refuses more than 4300 digits; the parser names where they start
    with pytest.raises(ParseError) as e:
        parse_polynomial("x^3 + " + "1" * 5000 + "*x")
    assert e.value.column == 6


def test_parse_rejects_garbage():
    # '*' stands only before the variable; digits are ASCII ('²' and the Arabic-Indic one are not)
    star_and_digits = ("x^3+2*", "2 *", "x^3+x+1 *", "x^²+1", "x^3+x+\u0661")
    for bad in ("", "x^", "++x", "x**2", "2.5*x", f"x^{MAX_EXPONENT + 1}", "x^" + "9" * 5000, *star_and_digits):
        with pytest.raises(ParseError):
            parse_polynomial(bad)


_ws = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def _terms(draw):
    """A well-formed polynomial string in free form and the coefficients it denotes."""
    text, coeffs = "", {}
    for i in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from(["+", "-"] + ([""] if i == 0 else [])))
        coef = draw(st.none() | st.integers(0, 10**6))
        var = draw(st.none() | st.sampled_from("xT")) if coef is not None else draw(st.sampled_from("xT"))
        power = 0 if var is None else draw(st.none() | st.integers(0, 12))
        parts = [sign]
        if coef is not None:
            parts.append("0" * draw(st.integers(0, 2)) + str(coef))
            if var is not None and draw(st.booleans()):
                parts.append("*")
        if var is not None:
            parts.append(var)
            if power is not None:
                parts += ["^", "0" * draw(st.integers(0, 2)) + str(power)]
        text += "".join(draw(_ws) + part for part in parts) + draw(_ws)
        k = 1 if power is None else power
        coeffs[k] = coeffs.get(k, 0) + (-1 if sign == "-" else 1) * (1 if coef is None else coef)
    return text, IntPolynomial(tuple(coeffs.get(k, 0) for k in range(max(coeffs) + 1)))


@given(_terms())
def test_parse_free_form_terms(case):
    """Any sum of terms c, x, c*x^k and c x^k, with leading zeros, repeated
    degrees and whitespace anywhere, parses to the sum of its terms."""
    text, expected = case
    assert parse_polynomial(text) == expected


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=8).filter(lambda c: any(c))
)
def test_print_parse_roundtrip(coeffs):
    f = IntPolynomial(tuple(coeffs))
    assert parse_polynomial(poly_to_str(f)) == f


def test_degree_and_lead():
    f = IntPolynomial((1, 0, 0, 2))
    assert f.degree == 3 and f.lead == 2
    z = IntPolynomial(())
    assert z.is_zero
    with pytest.raises(PolynomialError):
        z.degree


def test_zero_polynomial_has_no_lead_and_prints_as_0():
    z = IntPolynomial(())
    with pytest.raises(PolynomialError, match="no leading coefficient"):
        z.lead
    assert poly_to_str(z) == "0"


def test_trailing_zeros_trimmed():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)


def test_int_polynomial_is_an_immutable_value():
    """Equal and hashed by its trimmed coefficients, so it can key a dict;
    never equal to its coefficient tuple; its coefficients cannot be set."""
    f, g = IntPolynomial([1, 2, 0]), IntPolynomial((1, 2))
    assert f.coeffs == (1, 2) and f is not g
    assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1
    assert f != IntPolynomial((2, 1)) and f != (1, 2) and (1, 2) != f
    with pytest.raises(AttributeError):
        f.coeffs = (3,)
    with pytest.raises(AttributeError):
        del f.coeffs
    assert f.coeffs == (1, 2)


def test_evaluate_exact():
    f = parse_polynomial("x^3 - x")
    assert f(3) == 24
    assert f(Fraction(-1, 3)) == Fraction(8, 27)


def test_discriminant_and_squarefree():
    assert parse_polynomial("x^3+x").discriminant() == -4
    assert parse_polynomial("x^3+x").is_squarefree()
    assert not IntPolynomial((0, 0, -1, 1)).is_squarefree()  # x^2 (x - 1)
    assert not parse_polynomial("x^3-3*x+2").is_squarefree()  # (x-1)^2 (x+2)
    assert IntPolynomial((3, 2)).is_squarefree()
    assert not IntPolynomial((5,)).is_squarefree() and not IntPolynomial(()).is_squarefree()


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=11))
def test_discriminant_matches_sympy(coeffs):
    f = IntPolynomial(tuple(coeffs))
    oracle = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x")).discriminant()
    assert f.discriminant() == int(oracle)
