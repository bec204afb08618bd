"""nagaolab benchmark: time CLI invocations of one workload, or trace one by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``): every timed sample is one fresh-interpreter
``python -m nagaolab.cli ...`` with PYTHONPATH=src, repeated until S seconds
are used up; the end-to-end metrics are medians over the samples.  Traced
(``--trace 1``): one untraced invocation, then at least two invocations under
``perfbench/tracer.py``; the per-layer metrics are medians over the traced
ones and their operation counts must repeat exactly.

Every invocation's report must equal the bytes the seed commit produced (seed
0) or the run's first report (other seeds), and the first report is checked
against independent oracles outside the timed region.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind under the benchmark's own directory

from tracer import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CheckError, Workload, check_outputs, expected_report, good_primes  # noqa: E402

SETUP_REPS = 6  # half before the timed samples, half after
MIN_TRACED = 2
PREFILL_THREADS = 2


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    report: bytes
    cache_dir: Path | None


class Bench:
    def __init__(self, root: Path, work: Path, workload: Workload, seed: int):
        self.root = root
        self.work = work
        self.w = workload
        self.seed = seed
        self.inp = workload.inputs(seed)
        self.n_good = len(good_primes(self.inp))
        self.env = {k: v for k, v in os.environ.items() if k != "NAGAOLAB_CACHE"}
        self.env["PYTHONPATH"] = str(root / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.warm_dir: Path | None = None
        self._n = 0

    def _fresh(self, tag: str) -> Path:
        self._n += 1
        path = self.work / f"{tag}{self._n}"
        path.mkdir()
        return path

    def spawn(self, argv: list[str]) -> tuple[float, float, float, int, bytes]:
        """Run one child to completion: wall, CPU (own rusage), max RSS, exit code, stdout."""
        out = self.work / "stdout"
        with open(out, "wb") as fh_out, open(self.work / "stderr", "wb") as fh_err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh_out, stderr=fh_err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, out.read_bytes()

    def cli(self, prefix: list[str] | None = None) -> Sample:
        cache_dir = self._fresh("cold") if self.w.cache == "cold" else self.warm_dir
        argv = (prefix or [sys.executable, "-m", "nagaolab.cli"]) + self.w.argv(
            self.inp, None if cache_dir is None else str(cache_dir)
        )
        return Sample(*self.spawn(argv), cache_dir)

    def setup_times(self, reps: int) -> list[float]:
        code = self.w.setup_code(self.inp)
        times = []
        for _ in range(reps):
            wall, _, _, rc, _ = self.spawn([sys.executable, "-c", code])
            if rc != 0:
                raise RuntimeError(f"set-up snippet failed with exit code {rc}")
            times.append(wall)
        return times

    def prefill(self) -> bytes:
        """Untimed: fill the warm cache with the commit under test; returns its bytes."""
        self.warm_dir = self._fresh("warm")
        argv = [sys.executable, "-m", "nagaolab.cli", "trace", "--f", self.inp.f, "--N", str(self.inp.N)]
        argv += ["--threads", str(PREFILL_THREADS), "--cache-dir", str(self.warm_dir)]
        argv += ["--output", str(self.work / "prefill.csv")]
        _, _, _, rc, _ = self.spawn(argv)
        if rc != 0:
            raise RuntimeError(f"cache prefill failed with exit code {rc}")
        return self._cache_bytes(self.warm_dir)

    @staticmethod
    def _cache_bytes(cache_dir: Path) -> bytes:
        return b"".join(p.read_bytes() for p in sorted(cache_dir.glob("trace_*.txt")))

    def failures(self, samples: list[Sample]) -> tuple[list[bool], list[str]]:
        """Flag samples that failed: nonzero exit, or a report unlike the reference."""
        notes = []
        reference = expected_report(self.w.name) if self.seed == DEFAULT_SEED else samples[0].report
        bad = [s.code != 0 or s.report != reference for s in samples]
        if any(bad):
            notes.append(f"{sum(bad)} invocation(s) exited nonzero or changed the report bytes")
        if self.w.cache == "cold":
            first = self._cache_bytes(samples[0].cache_dir)
            for i, s in enumerate(samples):
                if self._cache_bytes(s.cache_dir) != first:
                    bad[i] = True
                    notes.append("cold cache files differ between invocations")
        try:
            check_outputs(self.w, self.inp, samples[0].report, samples[0].cache_dir)
        except (CheckError, ValueError, KeyError, IndexError) as e:  # malformed reports too
            notes.append(f"oracle check failed: {e!r}")
            bad = [True] * len(samples)
        return bad, notes

    # -- untraced ----------------------------------------------------------

    def run_timed(self, seconds: float) -> tuple[dict, int, int, list[str]]:
        setup = self.setup_times(SETUP_REPS // 2)
        warm_bytes = self.prefill() if self.w.cache == "warm" else None
        samples: list[Sample] = []
        start = time.perf_counter()
        while True:
            samples.append(self.cli())
            walls = [s.wall_s for s in samples]
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        setup += self.setup_times(SETUP_REPS - SETUP_REPS // 2)
        bad, notes = self.failures(samples)
        if warm_bytes is not None and self._cache_bytes(self.warm_dir) != warm_bytes:
            bad, notes = [True] * len(samples), notes + ["a warm run changed the cache (hit ratio < 1)"]
        failed = sum(bad)
        wall = statistics.median(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "primes_per_s": (statistics.median(self.n_good / w for w in walls), "1/s"),
            "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
            "peak_rss_mb": (statistics.median(s.rss_mb for s in samples), "MB"),
            "setup_s": (statistics.median(setup), "s"),
            "ok_frac": (1.0 - failed / len(samples), "fraction"),
        }
        notes.append(
            f"{len(samples)} samples, wall {', '.join(f'{w:.3f}' for w in walls)} s; "
            f"setup {', '.join(f'{t:.3f}' for t in setup)} s; {self.n_good} good primes"
        )
        return metrics, len(samples), failed, notes

    # -- traced ------------------------------------------------------------

    def run_traced(self, seconds: float) -> tuple[dict, int, int, list[str]]:
        if self.w.cache == "warm":
            self.prefill()
        untraced, traced, summaries = [], [], []
        start = time.perf_counter()
        while len(traced) < MIN_TRACED or time.perf_counter() - start + statistics.median(
            u.wall_s + t.wall_s for u, t in zip(untraced, traced)
        ) <= seconds:
            untraced.append(self.cli())
            out = self.work / f"trace{len(traced)}.json"
            traced.append(self.cli([sys.executable, str(HERE / "tracer.py"), str(out)]))
            if not out.exists():
                raise RuntimeError(f"traced invocation exited {traced[-1].code} without a summary")
            summaries.append(json.loads(out.read_text()))
        bad, notes = self.failures(untraced + traced)
        metrics = [layer_metrics(s, self.n_good) for s in summaries]

        def exact(m: dict) -> dict:
            return {k: v for k, (v, unit) in m.items() if not _is_timing(k, unit)}

        for i, m in enumerate(metrics):
            problems = []
            if exact(m) != exact(metrics[0]):
                problems.append("operation counts differ between traced runs")
            if m["trace.negative_self_spans"][0]:
                problems.append("a span has negative self time")
            if self.w.cache == "warm" and m["cache.hit_ratio"][0] != 1.0:
                problems.append("a warm run computed a trace (hit ratio < 1)")
            if problems:
                bad[len(untraced) + i] = True
                notes += problems
        merged = {
            k: (statistics.median(m[k][0] for m in metrics) if _is_timing(k, unit) else v, unit)
            for k, (v, unit) in metrics[0].items()
        }
        traced_wall = statistics.median(t.wall_s for t in traced)
        untraced_wall = statistics.median(u.wall_s for u in untraced)
        merged["trace.wall_s"] = (traced_wall, "s")
        merged["trace.untraced_wall_s"] = (untraced_wall, "s")
        merged["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        merged["trace.unattributed_s"] = (
            statistics.median(t.wall_s - s["import_s"] - s["root_s"] - s["summarize_s"] for t, s in zip(traced, summaries)),
            "s",
        )
        notes.append(
            f"{len(traced)} traced runs, wall {', '.join(f'{t.wall_s:.3f}' for t in traced)} s; "
            f"untraced wall {', '.join(f'{u.wall_s:.3f}' for u in untraced)} s"
        )
        return merged, len(bad), sum(bad), notes


_TIME_RATIOS = {"cli.sweep_traces.busy_per_interval"}


def _is_timing(name: str, unit: str) -> bool:
    return unit == "s" or name in _TIME_RATIOS


_CALLS = ("finite_field.poly_eval_all_mod", "finite_field.residue_table", "curves.hyperelliptic_trace", "stats.empirical_moments")
_BUSY = (
    "finite_field.poly_eval_all_mod",
    "finite_field.residue_table",
    "finite_field.primes_in",
    "curves.curve_from_poly",
    "stats.empirical_moments",
    "twist.peterson_D",
    "polynomials.parse_polynomial",
)
_SELF = (
    "curves.hyperelliptic_trace",
    "twist.nagao_series",
    "twist.verify_factorization",
    "cli.sweep_traces",
    "cli.run",
)
_COUNTS = (
    ("finite_field.poly_eval_all_mod.horner_steps", "count"),
    ("finite_field.residue_table.bytes_computed", "bytes"),
    ("cache.TraceCache.records_loaded", "count"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
)


def layer_metrics(s: dict, n_good: int) -> dict:
    """Per-layer metrics of one traced invocation's summary (see tracer.summarize)."""
    calls, busy, self_s, counts = s["calls"], s["busy_s"], s["self_s"], s["counts"]
    m = {f"{fn}.calls": (calls.get(fn, 0), "count") for fn in _CALLS}
    m.update({f"{fn}.busy_s": (busy.get(fn, 0.0), "s") for fn in _BUSY})
    m.update({f"{fn}.self_s": (self_s.get(fn, 0.0), "s") for fn in _SELF})
    m.update({name: (counts.get(name, 0), unit) for name, unit in _COUNTS})
    m.update({f"{layer}.self_s": (sum(v for k, v in self_s.items() if k.startswith(layer + ".")), "s") for layer in LAYERS})
    lookups = counts.get("cache.lookups", 0)
    sweep_interval = sum(i for i, _ in s["sweep_intervals"])
    sweep_busy = sum(b for _, b in s["sweep_intervals"])
    m.update(
        {
            "finite_field.residue_table.per_prime": (calls.get("finite_field.residue_table", 0) / n_good, "ratio"),
            "cache.TraceCache.load_s": (busy.get("cache.TraceCache.load", 0.0), "s"),
            "cache.TraceCache.append_s": (busy.get("cache.TraceCache.append", 0.0), "s"),
            "cache.TraceCache.records_appended": (s["records_appended"], "count"),
            "cache.hit_ratio": (counts.get("cache.hits", 0) / lookups if lookups else 0.0, "ratio"),
            "cli.sweep_traces.interval_s": (sweep_interval, "s"),
            "cli.sweep_traces.busy_per_interval": (sweep_busy / sweep_interval if sweep_interval else 0.0, "ratio"),
            "cli.import_s": (s["import_s"], "s"),
            "trace.spans": (s["spans"], "count"),
            "trace.negative_self_spans": (s["negative_self_spans"], "count"),
        }
    )
    return m


def declared_metrics(root: Path, trace: bool) -> list[str] | None:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "nagaolab" / "cli.py").is_file():
        print(f"error: no nagaolab sources under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        bench = Bench(root, work, WORKLOADS[args.workload], args.seed)
        run = bench.run_traced if args.trace else bench.run_timed
        metrics, attempted, failed, notes = run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = declared_metrics(root, bool(args.trace))
    if declared is not None and sorted(declared) != sorted(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    for note in notes:
        print(f"# {args.workload} seed {args.seed}: {note}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
