"""Layer spans recorded from outside termflow, by replacing module attributes.

``instrumented(tracer)`` swaps each public layer function for a timing
wrapper in every loaded ``termflow`` module that holds it, so by-name imports
such as ``trend.count_matches`` and ``diffusion.count_matches`` are traced
too, and restores the originals on exit. Spans (id, name, start, end,
parent, op id) stay in memory until the run writes them out. Functions
called once per document (``tokenize`` and each step of the
``read_jsonl_records`` generator) are aggregated into one span per
(name, parent) so tracing stays cheap.

A span's self time is its duration minus the time covered by its children.
Work counts come from return values, so hot inner functions need no wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import LAYER_METRICS


class Tally:
    """Self time, entry counts and work counts of one traced pass."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.entered: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self.root_self_s = 0.0

    def merge(self, other: "Tally") -> None:
        for k, v in other.self_s.items():
            self.self_s[k] += v
        self.entered.update(other.entered)
        self.counts.update(other.counts)
        self.root_s += other.root_s
        self.root_self_s += other.root_self_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.hot: dict[tuple, list] = {}
        self.tally = Tally()
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._ids = itertools.count(1)
        self._op = None

    def enter(self, name: str) -> None:
        self._stack.append([next(self._ids), name, perf_counter(), 0.0])

    def leave(self, hot: bool = False) -> None:
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.tally.self_s[name] += duration - child
        self.tally.entered[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        else:
            self.tally.root_s += duration
            self.tally.root_self_s += duration - child
        parent_id = parent[0] if parent is not None else None
        if hot:
            agg = self.hot.setdefault((name, parent_id, self._op), [start, end, 0.0, 0])
            agg[1] = end
            agg[2] += duration
            agg[3] += 1
        else:
            self.spans.append((span_id, name, start, end, parent_id, self._op))

    @contextmanager
    def op(self, op_id: str, name: str):
        """The root span of one op; its self time is time outside every layer."""
        self._op = op_id
        self.enter(name)
        try:
            yield
        finally:
            self.leave()
            self._op = None

    def records(self) -> list[dict]:
        out = [
            {"id": s, "name": n, "start": a, "end": b, "parent": p, "op": o}
            for s, n, a, b, p, o in self.spans
        ]
        out += [
            {"name": n, "start": a, "end": b, "parent": p, "op": o,
             "aggregated_s": total, "calls": calls}
            for (n, p, o), (a, b, total, calls) in self.hot.items()
        ]
        return out


class NullTracer:
    """Stands in for a Tracer on untraced passes."""

    @contextmanager
    def op(self, op_id: str, name: str):
        yield


# ---------------------------------------------------------------------------
# Work counts, read from return values (and, for count_matches, arguments).
# ---------------------------------------------------------------------------


def _count_synth(c, result, bound):
    c["synth.docs"] += len(result[0])


def _count_ingest(c, index, bound):
    c["corpus.index.terms"] += len(index.postings)
    c["corpus.index.cells"] += sum(map(len, index.postings.values()))


def _count_matches(c, result, bound):
    a = bound.arguments
    query = a["query"]
    if len(query.term) > 1 or query.required_coterms:
        c["corpus.count_matches.scanned_docs"] += a["index"].doc_count(
            a["discipline"], a["time_bin"]
        )


def _count_rank(c, ranking, bound):
    c["rank.terms_ranked"] += len(ranking)
    for r in ranking:
        c["rank.method." + r.method] += 1


def _count_growth(c, growth, bound):
    for reason in growth.mask:
        if reason is not None:
            c["trend.masked." + reason] += 1


def _count_svg(c, svg, bound):
    c["plotting.svg_bytes"] += len(svg.encode("utf-8"))


# (module, function, counter over (counts, result, bound args) or None)
TARGETS = (
    ("synth", "generate", _count_synth),
    ("synth", "generate_succession", _count_synth),
    ("corpus", "write_jsonl_records", None),
    ("corpus", "ingest", _count_ingest),
    ("corpus", "count_matches", _count_matches),
    ("rank", "rank_terms", _count_rank),
    ("rank", "write_ranking_csv", None),
    ("measure", "load_annotations", None),
    ("measure", "m_delta", None),
    ("trend", "growth_pipeline", _count_growth),
    ("trend", "frequency_series", None),
    ("trend", "write_series_csv", None),
    ("diffusion", "adoption_series", None),
    ("diffusion", "fit", None),
    ("migration", "classify_roles", None),
    ("migration", "detect_succession", None),
    ("plotting", "growth_chart_svg", _count_svg),
)


def _wrap(tracer: Tracer, name: str, fn, count):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if count is not None:
            tracer.enter("trace.bookkeeping")
            try:
                count(tracer.tally.counts, result, signature.bind(*args, **kwargs))
            finally:
                tracer.leave(hot=True)
        return result

    return wrapper


def _wrap_tokenize(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(text):
        tracer.enter("corpus.tokenize")
        try:
            result = fn(text)
        finally:
            tracer.leave(hot=True)
        tracer.tally.counts["corpus.tokenize.tokens"] += len(result)
        return result

    return wrapper


def _wrap_reader(tracer: Tracer, fn):
    """Time each step of the record generator, not the generator's creation."""
    name = "corpus.read_jsonl_records"

    @functools.wraps(fn)
    def wrapper(path):
        if isinstance(path, (str, os.PathLike)) and path != "-":
            tracer.tally.counts[name + ".bytes"] += os.path.getsize(path)
        records = fn(path)

        def steps():
            while True:
                tracer.enter(name)
                try:
                    rec = next(records)
                except StopIteration:
                    return
                finally:
                    tracer.leave(hot=True)
                tracer.tally.counts[name + ".docs"] += 1
                yield rec

        return steps()

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every layer function in every termflow module that references it."""
    wrappers = []
    for module, attr, count in TARGETS:
        fn = getattr(importlib.import_module(f"termflow.{module}"), attr)
        wrappers.append((fn, _wrap(tracer, f"{module}.{attr}", fn, count)))
    corpus = importlib.import_module("termflow.corpus")
    wrappers.append((corpus.tokenize, _wrap_tokenize(tracer, corpus.tokenize)))
    wrappers.append(
        (corpus.read_jsonl_records, _wrap_reader(tracer, corpus.read_jsonl_records))
    )

    by_id = {id(fn): wrapper for fn, wrapper in wrappers}
    modules = [m for n, m in sys.modules.items() if n == "termflow" or n.startswith("termflow.")]
    patched = []
    for mod in modules:
        for key, value in list(vars(mod).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                patched.append((mod, key, value))
                setattr(mod, key, wrapper)
    try:
        yield
    finally:
        for mod, key, value in reversed(patched):
            setattr(mod, key, value)


class TraceError(AssertionError):
    """A traced run entered a span the workload must not, or missed one it must."""


def check_entered(tally: Tally, must: tuple, must_not: tuple, workload: str) -> None:
    missing = [n for n in must if not tally.entered[n]]
    extra = [n for n in must_not if tally.entered[n]]
    if missing or extra:
        raise TraceError(
            f"{workload}: spans never entered {missing}, spans entered but bypassed {extra}; "
            "a layer function moved or the workload changed"
        )


def layer_metrics(tally: Tally, root: str, overhead: float) -> dict[str, float]:
    """Every per-layer metric of ``LAYER_METRICS`` from one traced pass."""
    ms = {n: s * 1000.0 for n, s in tally.self_s.items()}
    out: dict[str, float] = {}
    for name, _unit, _moves, _where in LAYER_METRICS:
        if name == "cli.other.ms":
            value = ms.get(root, 0.0)
        elif name.endswith(".ms"):
            value = ms.get(name[: -len(".ms")], 0.0)
        elif name.endswith(".calls"):
            value = tally.entered[name[: -len(".calls")]]
        elif name == "trace.coverage":
            covered = tally.root_s - tally.root_self_s - tally.self_s["trace.bookkeeping"]
            value = covered / tally.root_s if tally.root_s else 0.0
        elif name == "trace.overhead":
            value = overhead
        else:
            value = tally.counts[name]
        out[name] = value
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
