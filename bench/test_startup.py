"""Start-up benchmark: ``import nagaolab.cli`` in a fresh interpreter, with
the site hooks and without them (``-S``), against a bare interpreter that
imports nothing.  The difference is what a warm run pays for the import
before it reads its first cached value.

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
