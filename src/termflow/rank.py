"""Poisson-percentile term ranking against pooled background disciplines.

A term's percentile is the cumulative probability, under a Poisson model of
its background occurrence rate, of seeing the observed document count or
fewer in the target discipline. Terms unique to the target approach 1;
terms occurring everywhere at the background rate land mid-band.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .corpus import CorpusIndex, UnknownDiscipline, _decoding, write_csv
from .errors import TermflowError


class NegativeLambda(TermflowError):
    pass


class SingleDisciplineCorpus(TermflowError):
    pass


class NonPositiveLambda(TermflowError):
    pass


class EmptyDictionary(TermflowError):
    pass


class MalformedDictionary(TermflowError):
    pass


class InvalidListLength(TermflowError, ValueError):
    pass


#: Above this expected count the normal approximation replaces exact summation.
NORMAL_SWITCH_LAMBDA = 50.0

# Beyond exp(-745) the running-product seed underflows; switch to log domain.
_LOG_DOMAIN_LAMBDA = 700.0


def poisson_cdf(k: int, lam: float) -> float:
    """P(X <= k) for X ~ Poisson(lam), computed without naive factorials.

    Uses the running-product recurrence term_i = term_{i-1} * lam / i for
    moderate rates and a log-domain accumulation once exp(-lam) would
    underflow. For k > lam it returns 1 - P(X > k): the tail sums with full
    relative accuracy, so the result is monotone up to one ulp of 1.
    """
    if not math.isfinite(lam) or lam < 0:
        raise NegativeLambda(f"lambda must be finite and >= 0, got {lam!r}")
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    k = int(k)
    if lam == 0.0:
        return 1.0

    if lam <= _LOG_DOMAIN_LAMBDA:
        term = total = math.exp(-lam)
        for i in range(1, k + 1):
            term *= lam / i
            total += term
            if term == 0.0:  # past the mode, so every later term is 0 too
                break
        if k <= lam:
            return min(total, 1.0)
        tail = 0.0
        for i in itertools.count(k + 1):
            term *= lam / i
            tail += term
            if term <= tail * 1e-18:
                return 1.0 - tail

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


def load_dictionary(path: str) -> frozenset[str]:
    """The terms of a dictionary file: one normalized term per line, '#'
    comments. A dictionary filters a ranking's selections to its terms."""
    terms: set[str] = set()
    # "-" names a file, as every other path does
    with open(path, "r", encoding="utf-8") as handle, _decoding(path, MalformedDictionary):
        for lineno, line in enumerate(handle, start=1):
            # the mark would stay on the first term, which then matches nothing
            if lineno == 1 and line.startswith("\ufeff"):
                raise MalformedDictionary("dictionary starts with a byte-order mark")
            line = line.split("#", 1)[0].strip()
            if line:
                terms.add(line.lower())
    return frozenset(terms)


def _percentile(
    k: int,
    bg_hits: int,
    bg_docs: int,
    target_docs: int,
    normal_switch: float,
) -> tuple[float, float]:
    """(lambda, percentile) of a term in ``k`` of the ``target_docs`` target
    documents and ``bg_hits`` of the ``bg_docs`` documents of the other
    disciplines; above ``normal_switch`` the percentile is the normal
    approximation."""
    lam = (bg_hits / bg_docs) * target_docs
    if lam > normal_switch:
        return lam, normal_percentile(k, lam)
    return lam, poisson_cdf(k, lam)


@dataclass(frozen=True, eq=False)
class Ranking:
    """Ranked terms as aligned read-only columns: position i, best first, is
    ``terms[rows[i]]`` with ``k[i]``, ``lam[i]`` and ``percentile[i]``. Its
    method is "normal" exactly where ``lam > normal_switch``, as in
    ``_percentile``. Iteration builds each :class:`PoissonRank`; it cannot be indexed.
    """

    target_discipline: str
    terms: Sequence[str]
    rows: np.ndarray
    k: np.ndarray
    lam: np.ndarray
    percentile: np.ndarray
    normal_switch: float

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        columns = self.k.tolist(), self.lam.tolist(), self.percentile.tolist()
        for term, k, lam, percentile in zip(self.term_list(), *columns):
            yield PoissonRank(term, self.target_discipline, k, lam, percentile, self.method(lam))

    def term_list(self, start: Optional[int] = None, stop: Optional[int] = None) -> list[str]:
        """The terms of positions ``start:stop``, in rank order."""
        return list(map(self.terms.__getitem__, self.rows[start:stop].tolist()))

    def method(self, lam: float) -> str:
        return "normal" if lam > self.normal_switch else "poisson"


def rank_terms(
    index: CorpusIndex,
    target_discipline: str,
    dictionary: Optional[frozenset[str]] = None,
    normal_switch: float = NORMAL_SWITCH_LAMBDA,
) -> Ranking:
    """All terms seen in the target, ranked by percentile descending.

    Ties break by observed count descending, then lexicographically, so the
    output is reproducible byte-for-byte. With a dictionary, only member
    terms are ranked (so top/bottom selections are dictionary-filtered).
    Terms share their percentile computation when they share the target
    count and the background hits, so each distinct pair is evaluated once.
    """
    if dictionary is not None and not dictionary:
        raise EmptyDictionary("dictionary has no terms; cannot filter")
    if target_discipline not in index.discipline_totals:
        raise UnknownDiscipline(f"unknown discipline {target_discipline!r}")

    terms, table = index.term_counts
    k = table[:, index.disciplines.index(target_discipline)]
    keep = k > 0
    if dictionary is not None:
        keep &= np.fromiter(map(dictionary.__contains__, terms), bool, len(terms))
    rows = np.flatnonzero(keep)
    if rows.size and len(index.disciplines) < 2:
        raise SingleDisciplineCorpus(
            "percentile ranking needs at least two disciplines"
        )

    k = k[rows].astype(np.int64)
    bg_hits = table[rows].sum(axis=1, dtype=np.int64) - k
    span = int(bg_hits.max(initial=0)) + 1
    pairs, pair_of_row = np.unique(k * span + bg_hits, return_inverse=True)
    totals = index.discipline_totals
    bg_docs = sum(n for disc, n in totals.items() if disc != target_discipline)
    target_docs = totals[target_discipline]
    stats = [
        _percentile(pair // span, pair % span, bg_docs, target_docs, normal_switch)
        for pair in pairs.tolist()
    ]
    lam, percentile = np.array(stats, float).reshape(-1, 2)[pair_of_row].T
    order = np.lexsort((rows, -k, -percentile))
    columns = [rows[order], k[order], lam[order], percentile[order]]
    for column in columns:
        column.flags.writeable = False
    return Ranking(target_discipline, terms, *columns, normal_switch)


def top_terms(ranking: Ranking, k: int = 10) -> list[str]:
    return ranking.term_list(stop=_list_length(k))


def bottom_terms(ranking: Ranking, k: int = 10) -> list[str]:
    return ranking.term_list(start=-_list_length(k))


def _list_length(k: int) -> int:
    """``k`` if it is at least 1, as ``mdelta --list-length`` requires."""
    if k < 1:
        raise InvalidListLength(f"list length must be an integer >= 1, got {k!r}")
    return k


def write_ranking_csv(
    ranking: Ranking,
    handle: IO[str],
    config_line: Optional[str] = None,
) -> None:
    rows = zip(
        ranking.term_list(),
        _formatted(ranking.k, ""),
        _formatted(ranking.lam, ".12g"),
        _formatted(ranking.percentile, ".12g"),
        np.where(ranking.lam > ranking.normal_switch, "normal", "poisson").tolist(),
    )
    write_csv(handle, ("term", "k", "lambda", "percentile", "method"), rows, config_line)


def _formatted(column: np.ndarray, spec: str) -> list[str]:
    """``format(x, spec)`` of each value of ``column``, an int64 or float64
    array, formatting each distinct value once: a ranking's columns hold far
    fewer distinct values than rows."""
    # distinct bit patterns, so that -0.0 and 0.0 stay apart
    bits, at = np.unique(column.view(np.int64), return_inverse=True)
    text = [format(x, spec) for x in bits.view(column.dtype).tolist()]
    return list(map(text.__getitem__, at.tolist()))
