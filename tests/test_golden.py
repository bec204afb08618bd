"""Golden bytes: every command's reports, sidecars and cache files.

Each case runs cold (CSV) and then warm (JSON) on one cache directory, at 1
and at 3 threads, and every file it leaves must equal the bytes stored under
``tests/golden/<case>/``: the same set of files, each with the same bytes.

Regenerate the stored bytes (only when a report format changes on purpose):

    PYTHONPATH=src python tests/test_golden.py
"""

import shutil
import sys
from pathlib import Path

import pytest

from nagaolab.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

QUINTIC = "x^5+2*x^4+3*x^3+3*x^2+2*x+1"

# name -> argv
CASES = {
    "trace": ["trace", "--f", "x^3+x", "--N", "400"],
    "lpoly": ["lpoly", "--f", "x^5-x+1", "--N", "60"],
    # non-monic and of even degree: two points at infinity over F_{p^2}, and 3 | lead
    "lpoly-sextic": ["lpoly", "--f", "3*x^6+x^2-x+1", "--N", "60"],
    "nagao-self": ["nagao", "--f", "T^3+T", "--N", "1500", "--grid", "200,700,1500"],
    "nagao-self-even": ["nagao", "--f", "x^6+1", "--N", "800", "--grid", "geometric:3"],
    "nagao-twist": ["nagao", "--f", "x^3+x", "--D", "x^3+5*x+7", "--N", "1500", "--grid", "geometric:4"],
    "nagao-twist-quadratic": ["nagao", "--f", "x^5-x+1", "--D", "T^2+3", "--N", "800", "--grid", "400,800"],
    "moments-g1": ["moments", "--f", "x^3+x+1", "--N", "1500"],
    # CM: a_p = 0 at every p = 3 mod 4, so about half the angles sit on the atom at pi/2
    "moments-g1-cm": ["moments", "--f", "x^3+x", "--N", "1500"],
    # j = 1728 again, on int32 and int64 lanes alike
    "moments-g1-cm-lanes": ["moments", "--f", "x^3+x", "--N", "46500"],
    # j = 0, and a half of x^6+1
    "moments-g1-j0": ["moments", "--f", "x^3+1", "--N", "5000"],
    "moments-g2": ["moments", "--f", "x^5-x+1", "--N", "1500"],
    # p <= 46337 runs on int32 lanes, p >= 46349 on int64: N crosses both
    "moments-g2-lanes": ["moments", "--f", "x^5-x+1", "--N", "46500"],
    "st-classify": ["st-classify", "--f", "x^5+x", "--N", "2000"],
    "peterson": ["peterson", "--f", QUINTIC, "--sigma", "1/x"],
    "peterson-3cycle": ["peterson", "--f", "x^3-x", "--sigma", "(x+1)/(-3x+1)"],
    "factor-check-pass": [
        "factor-check", "--f", QUINTIC, "--D", "auto-peterson", "--sigma", "1/x", "--r", "2", "--N", "600",
    ],
    # a degree-6 D of a sigma of order 3, evaluated on its own
    "factor-check-3cycle": [
        "factor-check", "--f", "x^3-x", "--D", "auto-peterson", "--sigma", "(x+1)/(-3x+1)", "--r", "2", "--N", "600",
    ],
    "factor-check-fail": ["factor-check", "--f", "x^3+x", "--D", "x^6+2", "--r", "2", "--N", "100"],
    "factor-check-s-curves": [
        "factor-check", "--f", "x^3+x", "--D", "x^3+x+1", "--r", "-1", "--s-curves", "x^3+x+1,x^3+x", "--N", "500",
    ],
}


def _run_case(argv: list[str], threads: int, workdir: Path) -> None:
    cache = workdir / "cache"
    # peterson sweeps nothing, so it takes neither --threads nor --cache-dir
    sweep = [] if argv[0] == "peterson" else ["--threads", str(threads), "--cache-dir", str(cache)]
    for fmt in ("csv", "json"):  # cold, then warm
        out = workdir / f"out.{fmt}"
        args = argv + sweep + ["--format", fmt]
        assert main(args + ["--output", str(out)]) == EXIT_OK, args


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, threads, tmp_path):
    _run_case(CASES[name], threads, tmp_path)
    got = _files(tmp_path)
    want = _files(GOLDEN / name)
    assert sorted(got) == sorted(want), f"{name}: the files left differ from the stored set"
    for rel, data in want.items():
        assert got[rel] == data, f"{name}: {rel} differs from the stored bytes"


def regenerate() -> None:
    for name, argv in CASES.items():
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        _run_case(argv, 1, target)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
