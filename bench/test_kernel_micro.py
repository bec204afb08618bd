"""Micro-benchmarks of the trace kernel's layers at one prime, p = 40009.

Outside the tier-1 ``testpaths``; run them from the repository root with

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import numpy as np
import pytest

from nagaolab.finite_field import poly_eval_all_mod, residue_table
from nagaolab.polynomials import parse_polynomial

P = 40009
QUINTIC = parse_polynomial("x^5+2*x^4+3*x^3+3*x^2+2*x+1")
PETERSON_D = parse_polynomial("x^10+2*x^8+3*x^6+3*x^4+2*x^2+1")  # D(x) = h(x^2)


@pytest.fixture(scope="module")
def table():
    return residue_table(P)


def test_residue_table(benchmark):
    benchmark(residue_table, P)


def test_eval_quintic(benchmark):
    benchmark(poly_eval_all_mod, QUINTIC.coeffs, P)


def test_eval_peterson_D_full(benchmark):
    benchmark(poly_eval_all_mod, PETERSON_D.coeffs, P)


def test_eval_peterson_D_even(benchmark, table):
    benchmark(poly_eval_all_mod, PETERSON_D.coeffs[::2], P, table.squares)


def test_chi_gather(benchmark, table):
    vals = poly_eval_all_mod(QUINTIC.coeffs, P)
    benchmark(lambda: int(table.chi[vals].sum(dtype=np.int64)))
