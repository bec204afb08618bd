"""Adaptive Simpson quadrature for the smooth Haar-measure integrands."""

from __future__ import annotations

from typing import Callable


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Integral of fn over [a, b] with absolute error budget tol."""
    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _refine(fn, a, b, fa, fm, fb, whole, tol, 50)


def _refine(fn, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _refine(fn, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _refine(
        fn, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def adaptive_simpson_2d(
    fn: Callable[[float, float], float], a: float, b: float, c: float, d: float
) -> float:
    """Iterated 1-D adaptive Simpson over the rectangle [a,b] x [c,d]: error
    budget 1e-9 for each inner integral, 1e-7 for the outer one."""

    def inner(x: float) -> float:
        return adaptive_simpson(lambda y: fn(x, y), c, d, 1e-9)

    return adaptive_simpson(inner, a, b, 1e-7)
