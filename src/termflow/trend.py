"""Normalized frequency series and smoothed log growth rates.

A frequency series divides matching-document counts by total documents per
bin. Growth is the natural log of consecutive frequency ratios, one value
per bin transition; points are masked instead of fabricated when the log is
undefined or the underlying document support is too thin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import IO, Optional, Sequence

from .corpus import (
    MatchCounts,
    TermQuery,
    TimeBin,
    UnknownDiscipline,
    count_matches,
    write_csv,
)
from .errors import TermflowError


class TooFewBins(TermflowError):
    pass


LOW_SUPPORT = "low_support"
ZERO_FREQUENCY = "zero_frequency"
MISSING_BIN = "missing_bin"

DEFAULT_SMOOTHING_WINDOW = 3
DEFAULT_SUPPORT_THRESHOLD = 8


@dataclass(frozen=True)
class FrequencySeries:
    """Per-bin matching counts n, totals N, and normalized frequencies f = n/N."""

    discipline: str
    query: TermQuery
    bins: tuple[TimeBin, ...]
    n: tuple[int, ...]
    N: tuple[int, ...]
    f: tuple[Optional[float], ...]


@dataclass(frozen=True)
class GrowthSeries:
    """Log growth per bin transition, aligned to the transition's later bin.

    Element i covers the transition bins[i] -> bins[i+1]; ``mask`` holds one
    reason per omitted point and None where the point is kept.
    """

    freq: FrequencySeries
    r: tuple[Optional[float], ...]
    mask: tuple[Optional[str], ...]
    smoothing_window: int
    support_threshold: Optional[int] = None

    @cached_property
    def smoothed_r(self) -> tuple[Optional[float], ...]:
        """``r`` smoothed over the kept points only, so masked points never
        leak into downstream peak or lag computations."""
        return _smooth(self.r, [m is None for m in self.mask], self.smoothing_window)

    @property
    def transition_bins(self) -> tuple[TimeBin, ...]:
        return self.freq.bins[1:]

    def unmasked_points(self) -> list[tuple[int, TimeBin, float]]:
        """(index, bin, smoothed rate) for every kept point."""
        return [
            (i, b, s)
            for i, (b, s, m) in enumerate(
                zip(self.transition_bins, self.smoothed_r, self.mask)
            )
            if m is None and s is not None
        ]


def frequency_series(
    index: MatchCounts, query: TermQuery, discipline: str
) -> FrequencySeries:
    """Normalized per-bin frequency of ``query`` in one discipline.

    ``index`` is any counts :func:`count_matches` reads: a
    :class:`CorpusIndex`, or :class:`QueryCounts` taken for ``query``. Bins
    with no documents at all get an undefined frequency rather than a
    fabricated zero.
    """
    if discipline not in index.discipline_totals:
        raise UnknownDiscipline(f"unknown discipline {discipline!r}")
    n: list[int] = []
    totals: list[int] = []
    f: list[Optional[float]] = []
    for b in index.bins:
        total = index.doc_count(discipline, b.start_year)
        matched = count_matches(index, query, discipline, b.start_year) if total else 0
        n.append(matched)
        totals.append(total)
        f.append(matched / total if total > 0 else None)
    return FrequencySeries(
        discipline=discipline,
        query=query,
        bins=index.bins,
        n=tuple(n),
        N=tuple(totals),
        f=tuple(f),
    )


def _smooth(
    values: Sequence[Optional[float]],
    defined: Sequence[bool],
    window: int,
) -> tuple[Optional[float], ...]:
    """Mass-conserving centered smoothing over the defined points.

    Each defined value spreads equally over the defined indices inside its
    centered window, so the total (and hence the mean over defined points)
    is preserved exactly; on a fully defined interior this reduces to the
    plain centered moving average. Windows shrink at edges and around
    masked points.
    """
    half = window // 2
    n = len(values)
    out: list[Optional[float]] = [0.0 if defined[i] else None for i in range(n)]
    for j in range(n):
        if not defined[j]:
            continue
        members = [
            i for i in range(max(0, j - half), min(n, j + half + 1)) if defined[i]
        ]
        share = values[j] / len(members)  # type: ignore[operand]
        for i in members:
            out[i] += share  # type: ignore[operator]
    return tuple(out)


def growth_series(
    freq: FrequencySeries, smoothing_window: int = DEFAULT_SMOOTHING_WINDOW
) -> GrowthSeries:
    """Log growth rates ln(f_t / f_{t-1}) with undefined transitions masked.

    Transitions touching an empty bin are masked ``missing_bin``; transitions
    touching a zero frequency are masked ``zero_frequency`` (epsilon-padding
    would fabricate infinite growth at term birth).
    """
    if len(freq.bins) < 2:
        raise TooFewBins("growth needs at least two bins")
    if smoothing_window < 1 or smoothing_window % 2 == 0:
        raise ValueError("smoothing_window must be an odd integer >= 1")

    r: list[Optional[float]] = []
    mask: list[Optional[str]] = []
    for prev, cur in zip(freq.f, freq.f[1:]):
        if prev is None or cur is None:
            r.append(None)
            mask.append(MISSING_BIN)
        elif prev == 0.0 or cur == 0.0:
            r.append(None)
            mask.append(ZERO_FREQUENCY)
        else:
            r.append(math.log(cur / prev))
            mask.append(None)
    return GrowthSeries(
        freq=freq, r=tuple(r), mask=tuple(mask), smoothing_window=smoothing_window
    )


def apply_support_filter(
    growth: GrowthSeries, threshold: int = DEFAULT_SUPPORT_THRESHOLD
) -> GrowthSeries:
    """Mask transitions whose two adjacent bins hold fewer than ``threshold`` docs.

    For the default two-year bins the pair of adjacent bins is the four-year
    window a growth point is derived from; the boundary is inclusive (a
    combined support equal to the threshold is kept). The result's
    ``smoothed_r`` covers the surviving points only.
    """
    n = growth.freq.n
    mask = list(growth.mask)
    for i in range(len(growth.r)):
        if mask[i] is None and n[i] + n[i + 1] < threshold:
            mask[i] = LOW_SUPPORT
    return replace(growth, mask=tuple(mask), support_threshold=threshold)


def growth_pipeline(
    index: MatchCounts,
    query: TermQuery,
    discipline: str,
    smoothing_window: int = DEFAULT_SMOOTHING_WINDOW,
    support_threshold: int = DEFAULT_SUPPORT_THRESHOLD,
) -> GrowthSeries:
    """frequency_series -> growth_series -> apply_support_filter in one call,
    over any counts :func:`frequency_series` reads."""
    freq = frequency_series(index, query, discipline)
    return apply_support_filter(
        growth_series(freq, smoothing_window), support_threshold
    )


def write_series_csv(
    growth: GrowthSeries, handle: IO[str], config_line: Optional[str] = None
) -> None:
    """One row per bin; growth columns describe the transition into the bin."""

    def fmt(x: Optional[float]) -> str:
        return "" if x is None else f"{x:.12g}"

    freq = growth.freq
    # the first bin has no transition into it; csv writes None as an empty field
    rows = zip(
        (b.start_year for b in freq.bins),
        freq.n,
        freq.N,
        map(fmt, freq.f),
        map(fmt, (None,) + growth.r),
        map(fmt, (None,) + growth.smoothed_r),
        (None,) + growth.mask,
    )
    header = ("bin_start", "n", "N", "f", "r", "smoothed_r", "mask_reason")
    write_csv(handle, header, rows, config_line)
