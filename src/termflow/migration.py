"""Growth-peak detection, cross-discipline lags, and donor/borrower roles.

Roles are temporal only: the discipline with the earliest strong growth
peak for a query is labeled the donor, later-peaking disciplines are
borrowers, annotated with their lag in years. No causal claim is made;
establishing causality would need evidence beyond timing (e.g. citation
links), which is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .corpus import TimeBin
from .errors import TermflowError
from .trend import GrowthSeries


class NoPositiveGrowth(TermflowError):
    pass


class AllMasked(TermflowError):
    pass


class NoPeaks(TermflowError):
    pass


class BinMismatch(TermflowError):
    pass


ROLE_SEMANTICS = "temporal order only; no causal direction is claimed"

#: Default: a peak is "strong" at half the best peak rate seen for the query.
DEFAULT_STRONG_FRACTION = 0.5

# A succession's decline may sit up to this many bin transitions from the rise.
_SUCCESSION_WINDOW = 1


@dataclass(frozen=True)
class GrowthPeak:
    discipline: str
    bin: TimeBin
    peak_rate: float
    support: int


@dataclass(frozen=True)
class MigrationReport:
    query_label: str
    strong_threshold: float
    donor: GrowthPeak
    borrowers: tuple[tuple[GrowthPeak, int], ...]  # (peak, lag in years)
    pre_donor: tuple[GrowthPeak, ...]
    non_adopters: tuple[str, ...]
    peaks: tuple[GrowthPeak, ...]

    def to_dict(self) -> dict:
        def peak_dict(p: GrowthPeak) -> dict:
            return {
                "discipline": p.discipline,
                "bin_start": p.bin.start_year,
                "peak_rate": p.peak_rate,
                "support": p.support,
            }

        all_peaks = sorted(self.peaks, key=lambda p: (p.bin.start_year, p.discipline))
        pairwise = [
            {"a": a.discipline, "b": b.discipline, "lag_years": lag(a, b)}
            for i, a in enumerate(all_peaks)
            for b in all_peaks[i + 1 :]
        ]
        return {
            "query": self.query_label,
            "role_semantics": ROLE_SEMANTICS,
            "strong_threshold": self.strong_threshold,
            "donor": peak_dict(self.donor),
            "borrowers": [
                dict(peak_dict(p), lag_years=years) for p, years in self.borrowers
            ],
            "pre_donor": [peak_dict(p) for p in self.pre_donor],
            "non_adopters": list(self.non_adopters),
            "peaks": [peak_dict(p) for p in all_peaks],
            "pairwise_lags": pairwise,
        }


@dataclass(frozen=True)
class SuccessionEvent:
    old_label: str
    new_label: str
    crossover_bin: TimeBin
    old_rate_at_crossover: float
    new_rate_at_crossover: float


def detect_peak(growth: GrowthSeries) -> GrowthPeak:
    """Location and height of the maximum positive smoothed growth rate.

    Ties go to the earliest bin; masked points are never candidates.
    """
    points = growth.unmasked_points()
    if not points:
        raise AllMasked("every growth point is masked")
    best_i, best_bin, best_rate = max(points, key=lambda p: (p[2], -p[1].start_year))
    if best_rate <= 0:
        raise NoPositiveGrowth("no unmasked positive growth rate")
    support = growth.freq.n[best_i] + growth.freq.n[best_i + 1]
    return GrowthPeak(
        discipline=growth.freq.discipline,
        bin=best_bin,
        peak_rate=best_rate,
        support=support,
    )


def lag(peak_a: GrowthPeak, peak_b: GrowthPeak) -> int:
    """Signed years from a's peak bin to b's peak bin."""
    return peak_b.bin.start_year - peak_a.bin.start_year


def classify_roles(
    series_by_discipline: Mapping[str, GrowthSeries],
    strong_threshold: Optional[float] = None,
    query_label: str = "",
) -> MigrationReport:
    """Assign donor/borrower roles from per-discipline growth series.

    The donor is the earliest peak among those at or above the strong
    threshold (default: half the maximum peak rate for this query); ties
    prefer the higher rate, then the lexicographically smaller label.
    Peaked disciplines after the donor become borrowers ordered by peak
    time; peaked disciplines before the donor (necessarily weak) are
    reported separately; disciplines with no positive peak are non-adopters.
    """
    peaks: list[GrowthPeak] = []
    non_adopters: list[str] = []
    label = query_label
    for disc in sorted(series_by_discipline):
        growth = series_by_discipline[disc]
        if not label:
            label = growth.freq.query.label()
        try:
            peaks.append(detect_peak(growth))
        except (NoPositiveGrowth, AllMasked):
            non_adopters.append(disc)
    if not peaks:
        raise NoPeaks(f"no discipline shows a positive growth peak for {label!r}")

    max_rate = max(p.peak_rate for p in peaks)
    threshold = (
        strong_threshold
        if strong_threshold is not None
        else DEFAULT_STRONG_FRACTION * max_rate
    )
    strong = [p for p in peaks if p.peak_rate >= threshold]
    if not strong:
        raise NoPeaks(
            f"no peak reaches the strong threshold {threshold:.6g} for {label!r}"
        )
    donor = min(strong, key=lambda p: (p.bin.start_year, -p.peak_rate, p.discipline))

    borrowers = []
    pre_donor = []
    for p in sorted(peaks, key=lambda p: (p.bin.start_year, p.discipline)):
        if p is donor:
            continue
        if p.bin.start_year < donor.bin.start_year:
            pre_donor.append(p)
        else:
            borrowers.append((p, lag(donor, p)))

    return MigrationReport(
        query_label=label,
        strong_threshold=threshold,
        donor=donor,
        borrowers=tuple(borrowers),
        pre_donor=tuple(pre_donor),
        non_adopters=tuple(non_adopters),
        peaks=tuple(peaks),
    )


def detect_succession(
    old_growth: GrowthSeries, new_growth: GrowthSeries
) -> Optional[SuccessionEvent]:
    """Earliest bin where the new term rises while the old term declines.

    The decline may sit up to ``_SUCCESSION_WINDOW`` transitions away from
    the rise (nearest one wins, earlier on ties). Returns None when the two
    series never cross over.
    """
    if old_growth.freq.bins != new_growth.freq.bins:
        raise BinMismatch("succession requires series over identical bins")

    old_ok = {
        i: s for i, _, s in old_growth.unmasked_points()
    }
    for i, b, new_rate in new_growth.unmasked_points():
        if new_rate <= 0:
            continue
        candidates = [
            (abs(j - i), j)
            for j in range(i - _SUCCESSION_WINDOW, i + _SUCCESSION_WINDOW + 1)
            if j in old_ok and old_ok[j] < 0
        ]
        if candidates:
            _, j = min(candidates)
            return SuccessionEvent(
                old_label=old_growth.freq.query.label(),
                new_label=new_growth.freq.query.label(),
                crossover_bin=b,
                old_rate_at_crossover=old_ok[j],
                new_rate_at_crossover=new_rate,
            )
    return None
