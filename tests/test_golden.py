"""Golden bytes: every command's reports, sidecars and cache files.

Each case runs cold (CSV) and then warm (JSON) on one cache directory, at 1
and at 3 threads, and every file it leaves must equal the bytes stored under
``tests/golden/<case>/``.  A sweep may also leave the cache file of a curve
it swept that the stored run did not cache; such files are listed per case.

Regenerate the stored bytes (only when a report format changes on purpose):

    PYTHONPATH=src python tests/test_golden.py
"""

import shutil
import sys
from pathlib import Path

import pytest

from nagaolab.cache import cache_path
from nagaolab.cli import EXIT_OK, main
from nagaolab.polynomials import parse_polynomial

GOLDEN = Path(__file__).resolve().parent / "golden"

QUINTIC = "x^5+2*x^4+3*x^3+3*x^2+2*x+1"
PETERSON_D = "x^10+2*x^8+3*x^6+3*x^4+2*x^2+1"

# name -> (argv, curves whose cache file a sweep may add)
CASES = {
    "trace": (["trace", "--f", "x^3+x", "--N", "400"], []),
    "lpoly": (["lpoly", "--f", "x^5-x+1", "--N", "60"], []),
    "nagao-self": (["nagao", "--f", "T^3+T", "--N", "1500", "--grid", "200,700,1500"], []),
    "nagao-self-even": (["nagao", "--f", "x^6+1", "--N", "800", "--grid", "geometric:3"], []),
    "nagao-twist": (
        ["nagao", "--f", "x^3+x", "--D", "x^3+5*x+7", "--N", "1500", "--grid", "geometric:4"],
        ["x^3+5*x+7"],
    ),
    "nagao-twist-quadratic": (
        ["nagao", "--f", "x^5-x+1", "--D", "T^2+3", "--N", "800", "--grid", "400,800"],
        ["x^2+3"],
    ),
    "moments-g1": (["moments", "--f", "x^3+x+1", "--N", "1500"], []),
    "moments-g2": (["moments", "--f", "x^5-x+1", "--N", "1500"], []),
    "st-classify": (["st-classify", "--f", "x^5+x", "--N", "2000"], []),
    "peterson": (["peterson", "--f", QUINTIC, "--sigma", "1/x"], []),
    "factor-check-pass": (
        ["factor-check", "--f", QUINTIC, "--D", "auto-peterson", "--sigma", "1/x", "--r", "2", "--N", "600"],
        [QUINTIC, PETERSON_D],
    ),
    "factor-check-fail": (
        ["factor-check", "--f", "x^3+x", "--D", "x^6+2", "--r", "2", "--N", "100"],
        ["x^3+x", "x^6+2"],
    ),
    "factor-check-s-curves": (
        ["factor-check", "--f", "x^3+x", "--D", "x^3+x+1", "--r", "-1", "--s-curves", "x^3+x+1,x^3+x", "--N", "500"],
        ["x^3+x", "x^3+x+1"],
    ),
}


def _run_case(argv: list[str], threads: int, workdir: Path) -> None:
    cache = workdir / "cache"
    for fmt in ("csv", "json"):  # cold, then warm
        out = workdir / f"out.{fmt}"
        args = argv + ["--threads", str(threads), "--cache-dir", str(cache), "--format", fmt]
        assert main(args + ["--output", str(out)]) == EXIT_OK, args


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, threads, tmp_path, monkeypatch):
    monkeypatch.delenv("NAGAOLAB_CACHE", raising=False)
    argv, extra_curves = CASES[name]
    _run_case(argv, threads, tmp_path)
    got = _files(tmp_path)
    want = _files(GOLDEN / name)
    for rel, data in want.items():
        assert got.get(rel) == data, f"{name}: {rel} differs from the stored bytes"
    allowed = {str(cache_path("cache", parse_polynomial(text))) for text in extra_curves}
    assert set(got) - set(want) <= allowed, f"{name}: unexpected files {sorted(set(got) - set(want) - allowed)}"


def regenerate() -> None:
    for name, (argv, _) in CASES.items():
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        _run_case(argv, 1, target)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
