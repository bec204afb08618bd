"""Start-up benchmark: ``import nagaolab.cli`` in a fresh interpreter, with
the site hooks and without them (``-S``), against a bare interpreter that
imports nothing.  The difference is what a warm run pays for the import
before it reads its first cached value.  One more case times a cold
one-thread ``trace`` with no BLAS variable set, the environment that
perfbench, which sets them to 1 for every run, never measures.

Outside the tier-1 ``testpaths``; run it from the repository root with

    PYTHONPATH=src python -m pytest bench/test_startup.py --benchmark-only
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
@pytest.mark.parametrize("code", ["pass", "import nagaolab.cli"], ids=["bare", "import-cli"])
def test_startup(benchmark, flags, code):
    argv = [sys.executable, *flags, "-c", code]
    benchmark(subprocess.run, argv, env=ENV, check=True)


def test_cold_trace_without_blas_settings(benchmark, tmp_path):
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in ENV.items() if k not in blas}
    out = tmp_path / "out.csv"
    argv = [sys.executable, "-m", "nagaolab.cli", "trace", "--f", "x^5-x+1", "--N", "3000", "--output", str(out)]
    benchmark(subprocess.run, argv, env=env, check=True)
