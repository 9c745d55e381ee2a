"""Poisson-percentile term ranking against pooled background disciplines.

A term's percentile is the cumulative probability, under a Poisson model of
its background occurrence rate, of seeing the observed document count or
fewer in the target discipline. Terms unique to the target approach 1;
terms occurring everywhere at the background rate land mid-band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .corpus import CorpusIndex, UnknownDiscipline, write_csv
from .errors import TermflowError


class NegativeLambda(TermflowError):
    pass


class SingleDisciplineCorpus(TermflowError):
    pass


class NonPositiveLambda(TermflowError):
    pass


class EmptyDictionary(TermflowError):
    pass


#: Above this expected count the normal approximation replaces exact summation.
NORMAL_SWITCH_LAMBDA = 50.0

# Beyond exp(-745) the running-product seed underflows; switch to log domain.
_LOG_DOMAIN_LAMBDA = 700.0


def poisson_cdf(k: int, lam: float) -> float:
    """P(X <= k) for X ~ Poisson(lam), computed without naive factorials.

    Uses the running-product recurrence term_i = term_{i-1} * lam / i for
    moderate rates and a log-domain accumulation once exp(-lam) would
    underflow.
    """
    if not math.isfinite(lam) or lam < 0:
        raise NegativeLambda(f"lambda must be finite and >= 0, got {lam!r}")
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    k = int(k)
    if lam == 0.0:
        return 1.0

    if lam <= _LOG_DOMAIN_LAMBDA:
        term = math.exp(-lam)
        total = term
        for i in range(1, k + 1):
            term *= lam / i
            total += term
            if i > lam and term < total * 1e-18:
                break
        return min(total, 1.0)

    log_lam = math.log(lam)
    log_term = -lam
    log_total = log_term
    for i in range(1, k + 1):
        log_term += log_lam - math.log(i)
        if log_term > log_total:
            log_total = log_term + math.log1p(math.exp(log_total - log_term))
        else:
            log_total = log_total + math.log1p(math.exp(log_term - log_total))
        if i > lam and log_term < log_total - 42.0:
            break
    return min(math.exp(log_total), 1.0)


def normal_percentile(k: float, lam: float) -> float:
    """Normal approximation of the Poisson CDF, cheap for large rates.

    Continuity-corrected, z = (k + 0.5 - lam) / sqrt(lam), plus the
    first-order skewness adjustment phi(z) (1 - z^2) / (6 sqrt(lam));
    without the adjustment the error only drops below 0.01 around
    lam = 45, with it the approximation is good from lam ~ 10.
    """
    if not math.isfinite(lam) or lam <= 0:
        raise NonPositiveLambda(f"lambda must be finite and > 0, got {lam!r}")
    z = (k + 0.5 - lam) / math.sqrt(lam)
    phi_z = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    value = 0.5 * math.erfc(-z / math.sqrt(2.0))
    value += phi_z * (1.0 - z * z) / (6.0 * math.sqrt(lam))
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class PoissonRank:
    term: str
    target_discipline: str
    observed_k: int
    lam: float
    percentile: float
    method: str  # "poisson" | "normal"


@dataclass(frozen=True)
class Dictionary:
    """Controlled vocabulary for one discipline, used to filter selections."""

    discipline: str
    terms: frozenset[str]


def load_dictionary(path: str, discipline: str = "") -> Dictionary:
    """Read a dictionary file: one normalized term per line, '#' comments."""
    terms: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                terms.add(line.lower())
    return Dictionary(discipline=discipline, terms=frozenset(terms))


def poisson_percentile(
    index: CorpusIndex,
    term: str,
    target_discipline: str,
    normal_switch: float = NORMAL_SWITCH_LAMBDA,
) -> PoissonRank:
    """Rank one term by the probability of its observed-or-lower frequency.

    The background per-document rate pools every non-target discipline;
    the expected count is that rate scaled to the target's document total.
    A term absent from all backgrounds gets percentile 1 exactly.
    """
    if target_discipline not in index.discipline_totals:
        raise UnknownDiscipline(f"unknown discipline {target_discipline!r}")
    if len(index.disciplines) < 2:
        raise SingleDisciplineCorpus(
            "percentile ranking needs at least two disciplines"
        )

    cell_ids, counts = index.term_postings(term)
    cells = list(zip(map(index.cells.__getitem__, cell_ids.tolist()), counts.tolist()))
    k = sum(c for (disc, _), c in cells if disc == target_discipline)
    bg_hits = sum(c for (disc, _), c in cells if disc != target_discipline)
    lam, pct, method = _percentile(index, target_discipline, k, bg_hits, normal_switch)
    return PoissonRank(
        term=term,
        target_discipline=target_discipline,
        observed_k=k,
        lam=lam,
        percentile=pct,
        method=method,
    )


def _percentile(
    index: CorpusIndex,
    target_discipline: str,
    k: int,
    bg_hits: int,
    normal_switch: float,
) -> tuple[float, float, str]:
    """(lambda, percentile, method) of a term in ``k`` target documents and
    ``bg_hits`` documents of the other disciplines."""
    bg_docs = sum(
        n for disc, n in index.discipline_totals.items() if disc != target_discipline
    )
    lam = (bg_hits / bg_docs) * index.discipline_totals[target_discipline]
    if lam > normal_switch:
        return lam, normal_percentile(k, lam), "normal"
    return lam, poisson_cdf(k, lam), "poisson"


def rank_terms(
    index: CorpusIndex,
    target_discipline: str,
    dictionary: Optional[Dictionary] = None,
    normal_switch: float = NORMAL_SWITCH_LAMBDA,
) -> list[PoissonRank]:
    """All terms seen in the target, ranked by percentile descending.

    Ties break by observed count descending, then lexicographically, so the
    output is reproducible byte-for-byte. With a dictionary, only member
    terms are ranked (so top/bottom selections are dictionary-filtered).
    Terms share their percentile computation when they share the target
    count and the background hits, so each distinct pair is evaluated once.
    """
    if dictionary is not None and not dictionary.terms:
        raise EmptyDictionary("dictionary has no terms; cannot filter")
    if target_discipline not in index.discipline_totals:
        raise UnknownDiscipline(f"unknown discipline {target_discipline!r}")

    terms, table = index.term_counts
    k = table[:, index.disciplines.index(target_discipline)]
    keep = k > 0
    if dictionary is not None:
        keep &= np.fromiter(map(dictionary.terms.__contains__, terms), bool, len(terms))
    rows = np.flatnonzero(keep)
    if rows.size == 0:
        return []
    if len(index.disciplines) < 2:
        raise SingleDisciplineCorpus(
            "percentile ranking needs at least two disciplines"
        )

    k = k[rows].astype(np.int64)
    bg_hits = table[rows].sum(axis=1, dtype=np.int64) - k
    span = int(bg_hits.max()) + 1
    pairs, pair_of_row = np.unique(k * span + bg_hits, return_inverse=True)
    stats = [
        _percentile(index, target_discipline, pair // span, pair % span, normal_switch)
        for pair in pairs.tolist()
    ]
    percentile = np.array([pct for _, pct, _ in stats])[pair_of_row]
    order = np.lexsort((rows, -k, -percentile))
    return [
        PoissonRank(terms[row], target_discipline, observed_k, *stats[pair])
        for row, observed_k, pair in zip(
            rows[order].tolist(), k[order].tolist(), pair_of_row[order].tolist()
        )
    ]


def top_terms(ranking: Sequence[PoissonRank], k: int = 10) -> list[str]:
    return [r.term for r in ranking[:k]]


def bottom_terms(ranking: Sequence[PoissonRank], k: int = 10) -> list[str]:
    return [r.term for r in ranking[-k:]] if ranking else []


def write_ranking_csv(
    ranking: Iterable[PoissonRank],
    handle: IO[str],
    config_line: Optional[str] = None,
) -> None:
    rows = (
        (r.term, r.observed_k, f"{r.lam:.12g}", f"{r.percentile:.12g}", r.method)
        for r in ranking
    )
    write_csv(handle, ("term", "k", "lambda", "percentile", "method"), rows, config_line)
