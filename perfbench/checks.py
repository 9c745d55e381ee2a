"""Output checks and the oracles they compare against.

Oracles are computed from the synth output with the benchmark's own parsing
and tokenizing (the README's rule: lowercase, split on anything that is not
a letter or digit, drop single letters), never inside a timed region. A
check returns an error string, or None when the artifact is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[^\W_]+")


def tokens_of(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) > 1 or t.isdigit()]


def query_parts(query: str) -> tuple[tuple[str, ...], frozenset[str]]:
    """Split ``phrase+coterm`` CLI syntax into its phrase and co-terms."""
    head, *coterms = query.split("+")
    return tuple(tokens_of(head)), frozenset(t for c in coterms for t in tokens_of(c))


def matches(tokens: list[str], phrase: tuple[str, ...], coterms: frozenset[str]) -> bool:
    present = set(tokens)
    if not coterms <= present or not set(phrase) <= present:
        return False
    n = len(phrase)
    return any(tuple(tokens[i : i + n]) == phrase for i in range(len(tokens) - n + 1))


@dataclass
class CorpusOracle:
    """What a correct analysis of one synth corpus must report."""

    disciplines: list[str]
    bin_starts: list[int]
    doc_counts: dict[tuple[str, int], int]
    match_counts: dict[tuple[str, int], int]
    terms: dict[str, set[str]]
    donor: str
    docs: int
    tokens: int
    jsonl_bytes: int

    @property
    def vocabulary(self) -> int:
        return len(set().union(*self.terms.values()))


def corpus_oracle(corpus_path: str, truth_path: str, query: str) -> CorpusOracle:
    phrase, coterms = query_parts(query)
    by_year: Counter = Counter()
    match_by_year: Counter = Counter()
    terms: dict[str, set[str]] = defaultdict(set)
    docs = tokens = size = 0
    with open(corpus_path, "rb") as handle:
        for line in handle:
            size += len(line)
            rec = json.loads(line)
            toks = tokens_of(rec["title"] + " " + rec["abstract"])
            key = (rec["discipline"], rec["year"])
            by_year[key] += 1
            if matches(toks, phrase, coterms):
                match_by_year[key] += 1
            terms[rec["discipline"]].update(toks)
            docs += 1
            tokens += len(toks)
    with open(truth_path, encoding="utf-8") as handle:
        donor = json.load(handle)["donor"]

    years = [y for _, y in by_year]
    first = min(years) - min(years) % 2
    starts = list(range(first, max(years) + 1, 2))
    disciplines = sorted(terms)
    doc_counts = {(d, s): 0 for d in disciplines for s in starts}
    match_counts = dict(doc_counts)
    for (d, y), n in by_year.items():
        doc_counts[(d, y - y % 2)] += n
    for (d, y), n in match_by_year.items():
        match_counts[(d, y - y % 2)] += n
    return CorpusOracle(
        disciplines=disciplines,
        bin_starts=starts,
        doc_counts=doc_counts,
        match_counts=match_counts,
        terms=dict(terms),
        donor=donor,
        docs=docs,
        tokens=tokens,
        jsonl_bytes=size,
    )


def technical(term: str, injected: set[str]) -> bool:
    """The benchmark's annotation judgment: injected terms are technical, and
    background terms on a fixed one-in-three pattern, so that top and bottom
    lists get a mix of judgments."""
    return term in injected or sum(map(ord, term)) % 3 == 0


def write_annotations(path: str, oracle: CorpusOracle, injected: set[str]) -> None:
    """An annotation CSV covering every (term, discipline) pair of the corpus."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["term", "discipline", "technical"])
        for disc in oracle.disciplines:
            for term in sorted(oracle.terms[disc]):
                writer.writerow([term, disc, int(technical(term, injected))])


def _csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        body = "".join(line for line in handle if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def ranking_error(rows: list[tuple[str, float]], expected_terms: set[str]) -> str | None:
    """One row per term seen in the target, percentiles in [0,1], sorted descending."""
    terms = [t for t, _ in rows]
    if len(terms) != len(set(terms)) or set(terms) != expected_terms:
        return f"rank rows cover {len(set(terms))} terms, expected {len(expected_terms)}"
    pct = [p for _, p in rows]
    if not all(0.0 <= p <= 1.0 for p in pct):
        return "rank percentile outside [0, 1]"
    if any(b > a for a, b in zip(pct, pct[1:])):
        return "rank rows not sorted by percentile descending"
    return None


def svg_error(text: str, n_series: int) -> str | None:
    """The SVG parses and draws one line per series (one color each)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return f"svg does not parse: {exc}"
    colors = set()
    for el in root.iter():
        tag = el.tag.rsplit("}", 1)[-1]
        if tag == "polyline":
            colors.add(el.get("stroke"))
        elif tag == "circle":
            colors.add(el.get("fill"))
    if len(colors) != n_series:
        return f"svg draws {len(colors)} series, expected {n_series}"
    return None


class CliChecker:
    """Checks each CLI artifact of a session against the corpus oracle."""

    def __init__(self, oracle: CorpusOracle, files: dict, target: str, n_series: int):
        self.oracle = oracle
        self.files = files
        self.target = target
        self.n_series = n_series
        self.ingest_counts: dict[tuple[str, int], int] | None = None

    def __call__(self, cmd: str) -> str | None:
        return getattr(self, "check_" + cmd)(self.files[cmd])

    def check_ingest(self, path: str) -> str | None:
        counts = {
            (r["discipline"], int(r["bin_start"])): int(r["documents"]) for r in _csv_rows(path)
        }
        self.ingest_counts = counts
        if counts != self.oracle.doc_counts:
            return "ingest cell counts differ from the corpus"
        return None

    def check_rank(self, path: str) -> str | None:
        rows = [(r["term"], float(r["percentile"])) for r in _csv_rows(path)]
        return ranking_error(rows, self.oracle.terms[self.target])

    def check_mdelta(self, path: str) -> str | None:
        discs = [r["discipline"] for r in _csv_rows(path)]
        if sorted(discs) != self.oracle.disciplines:
            return f"mdelta rows {discs} != one per discipline"
        return None

    def check_trend(self, path: str) -> str | None:
        totals = self.ingest_counts or self.oracle.doc_counts
        rows = _csv_rows(path)
        if [int(r["bin_start"]) for r in rows] != self.oracle.bin_starts:
            return "trend bins differ from the corpus bins"
        for r in rows:
            cell = (self.target, int(r["bin_start"]))
            n, total = int(r["n"]), int(r["N"])
            if total != totals[cell]:
                return f"trend N={total} at {cell} differs from ingest {totals[cell]}"
            if n > total or n != self.oracle.match_counts[cell]:
                return f"trend n={n} at {cell}, expected {self.oracle.match_counts[cell]}"
        return None

    def check_migrate(self, path: str) -> str | None:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        if report["donor"]["discipline"] != self.oracle.donor:
            return f"donor {report['donor']['discipline']} != truth {self.oracle.donor}"
        if any(b["lag_years"] <= 0 for b in report["borrowers"]):
            return "a borrower lag is not positive"
        return None

    def check_fit(self, path: str) -> str | None:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        last = sum(n for (d, _), n in self.oracle.match_counts.items() if d == self.target)
        if not math.isfinite(result["rmse"]):
            return "fit rmse is not finite"
        if result["p_m"] < last:
            return f"fit p_m {result['p_m']} below the last cumulative count {last}"
        return None

    def check_plot(self, path: str) -> str | None:
        with open(path, encoding="utf-8") as handle:
            return svg_error(handle.read(), self.n_series)
