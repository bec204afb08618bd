"""Span recorder for the traced run, and the traced child process itself.

Run as ``python perfbench/tracer.py OUT.json CLI-ARGS...`` with nagaolab on
PYTHONPATH: it imports ``nagaolab.cli``, wraps every public function of the
seven layer modules in each module namespace that holds it, runs
``nagaolab.cli.main(CLI-ARGS)`` and writes the per-layer summary to OUT.json.
The program itself is not edited; everything is patched at run time.

Each thread keeps its own span stack.  A span started in a pool worker with an
empty stack takes as parent the span that submitted the work.  A span's
exclusive time is its interval minus the union of its children's intervals;
where exclusive time of several threads overlaps, each instant is split
equally among them, so the self times of all spans sum to the root's interval.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("finite_field", "polynomials", "curves", "twist", "stats", "cache", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent span or None, start, end]
        self.counts: Counter = Counter()
        self.caches: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "root", None)

    def count(self, **amounts: int) -> None:
        with self._lock:
            self.counts.update(amounts)

    def wrap(self, name: str, fn, counter=None):
        """Return fn recording one span per call; counter(args, result) adds counts."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.current(), 0.0, 0.0]
            stack = self._stack()
            self.spans.append(span)
            stack.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                counter(args, result)
            return result

        return traced

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks inherit the submitting span as parent."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    tracer._local.root = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.root = None

                return super().submit(task)

        return TracedPool


def _counters(tracer: Tracer) -> dict:
    """Exact operation counts, keyed by the traced function's span name."""

    def eval_all(args, result):
        coeffs, p = args[0], args[1]
        tracer.count(**{"finite_field.poly_eval_all_mod.horner_steps": p * len(coeffs)})

    def table(args, result):
        tracer.count(**{"finite_field.residue_table.bytes_computed": result.chi.nbytes})

    def cache_init(args, result):
        tracer.caches.append(args[0])
        tracer.count(**{"cache.TraceCache.records_loaded": len(args[0].records)})

    return {
        "finite_field.poly_eval_all_mod": eval_all,
        "finite_field.residue_table": table,
        "cache.TraceCache.load": cache_init,
    }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer wherever they are bound by name."""
    import nagaolab
    import nagaolab.cli  # noqa: F401  (imports every layer)

    modules = [nagaolab] + [sys.modules[f"nagaolab.{m}"] for m in LAYERS]
    counters = _counters(tracer)
    wrapped = {}
    for layer, mod in zip(LAYERS, modules[1:]):
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(fn)] = tracer.wrap(name, fn, counters.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])

    cls = nagaolab.cache.TraceCache
    cls.__init__ = tracer.wrap("cache.TraceCache.load", cls.__init__, counters["cache.TraceCache.load"])
    cls.append = tracer.wrap("cache.TraceCache.append", cls.append)
    get = cls.get

    def counted_get(self, p):  # per prime and cheap: counted, not spanned
        a = get(self, p)
        tracer.count(**{"cache.lookups": 1, "cache.hits": a is not None})
        return a

    cls.get = counted_get
    nagaolab.cli.ThreadPoolExecutor = tracer.pool_class()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def _gaps(start: float, end: float, intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Parts of [start, end] not covered by the intervals."""
    out, cur = [], start
    for s, e in sorted(intervals):
        if s > cur:
            out.append((cur, min(s, end)))
        cur = max(cur, e)
        if cur >= end:
            break
    if cur < end:
        out.append((cur, end))
    return [(s, e) for s, e in out if e > s]


def summarize(tracer: Tracer) -> dict:
    """Per-function calls, busy (inclusive) and self time, plus counts."""
    spans = tracer.spans
    index = {id(s): i for i, s in enumerate(spans)}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[index[id(s[1])]].append((s[2], s[3]))

    calls: Counter = Counter()
    busy: Counter = Counter()
    negative = 0
    events = []  # (time, +1/-1, span index) over exclusive segments
    for i, (name, _, start, end) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        kids = children.get(i, [])
        if end - start - _union_length(kids) < -1e-9:
            negative += 1
        for s, e in _gaps(start, end, kids):
            events.append((s, 1, i))
            events.append((e, -1, i))

    # Split every instant equally among the spans exclusively active in it.
    events.sort(key=lambda ev: (ev[0], ev[1]))
    self_time: Counter = Counter()
    active: set[int] = set()
    last = None
    for t, kind, i in events:
        if active and t > last:
            share = (t - last) / len(active)
            for j in active:
                self_time[spans[j][0]] += share
        last = t
        if kind > 0:
            active.add(i)
        else:
            active.discard(i)

    roots = [s for s in spans if s[1] is None]
    return {
        "calls": dict(calls),
        "busy_s": dict(busy),
        "self_s": dict(self_time),
        "counts": dict(tracer.counts),
        "records_appended": sum(len(c.records) for c in tracer.caches)
        - tracer.counts["cache.TraceCache.records_loaded"],
        "root_s": sum(s[3] - s[2] for s in roots),
        "sweep_intervals": [
            (s[3] - s[2], sum(e - b for b, e in children.get(i, [])))
            for i, s in enumerate(spans)
            if s[0] == "cli.sweep_traces"
        ],
        "spans": len(spans),
        "negative_self_spans": negative,
    }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import nagaolab.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = nagaolab.cli.main(cli_args)
    sys.stdout.flush()
    t1 = time.perf_counter()
    summary = summarize(tracer)
    summary["summarize_s"] = time.perf_counter() - t1
    summary["import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
