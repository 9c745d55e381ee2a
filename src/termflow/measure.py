"""Technical-sense measurement of term lists and the hardness statistic.

The fraction of a term list used in a discipline-specific (technical) sense
is an expert judgment supplied as an annotation file, never computed from
text. The hardness statistic is the log ratio of that fraction over the
most-unique versus least-unique terms of a discipline; its sign separates
donor-leaning from borrower-leaning fields.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import IO, Collection, Iterable, Mapping, Optional, Sequence

from .corpus import write_csv
from .errors import TermflowError


class MissingAnnotation(TermflowError):
    def __init__(self, pairs: Sequence[tuple[str, str]]):
        self.pairs = tuple(pairs)
        listing = "; ".join(f"({t!r}, {d!r})" for t, d in self.pairs)
        super().__init__(f"unannotated (term, discipline) pairs: {listing}")


class EmptyTermList(TermflowError):
    pass


class ZeroMValue(TermflowError):
    pass


class MalformedAnnotation(TermflowError):
    pass


DONOR_LEANING = "donor-leaning"
BORROWER_LEANING = "borrower-leaning"
NEUTRAL = "neutral"


@dataclass(frozen=True)
class AnnotationSet:
    """Expert judgments: (term, discipline) -> used in a technical sense?

    Lookups of unannotated pairs return None, which is distinguishable
    from an explicit False.
    """

    flags: Mapping[tuple[str, str], bool]

    def get(self, term: str, discipline: str) -> Optional[bool]:
        return self.flags.get((term, discipline))


def load_annotations(
    path: str, pairs: Optional[Collection[tuple[str, str]]] = None
) -> AnnotationSet:
    """Read a CSV with header term,discipline,technical (technical in {0,1}).

    Rows are read as ``csv.DictReader`` would: columns in any header order,
    blank rows skipped (they do not count as lines), short rows padded with
    None. Every row is checked; with ``pairs``, only the flags of those
    (term, discipline) pairs are kept.
    """
    flags: dict[tuple[str, str], bool] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or set(header) != {"term", "discipline", "technical"}:
                raise MalformedAnnotation("header must be exactly term,discipline,technical")
            # the last of repeated header names wins, as in DictReader's dict
            column = {name: i for i, name in enumerate(header)}
            pick = operator.itemgetter(
                column["term"], column["discipline"], column["technical"]
            )
            width = len(header)
            for lineno, row in enumerate(filter(None, reader), start=2):
                if len(row) < width:
                    row += [None] * (width - len(row))
                term, discipline, value = pick(row)
                value = (value or "").strip()
                if value not in ("0", "1"):
                    raise MalformedAnnotation(
                        f"line {lineno}: technical must be 0 or 1, got {value!r}"
                    )
                if pairs is None or (term, discipline) in pairs:
                    flags[(term, discipline)] = value == "1"
        # a field past csv's size limit; reader.line_num counts blank lines too
        except csv.Error as exc:
            raise MalformedAnnotation(f"line {reader.line_num}: invalid CSV ({exc})") from exc
    return AnnotationSet(flags=flags)


def m_value(
    terms: Sequence[str],
    discipline: str,
    annotations: AnnotationSet,
    smoothing: bool = False,
) -> float:
    """Fraction of ``terms`` annotated as technical for ``discipline``.

    With smoothing, the Laplace-adjusted fraction (true + 1) / (n + 2) is
    used so downstream log ratios stay defined for all-false lists.
    """
    if not terms:
        raise EmptyTermList(f"no terms supplied for {discipline!r}")
    missing = [(t, discipline) for t in terms if annotations.get(t, discipline) is None]
    if missing:
        raise MissingAnnotation(missing)
    technical = sum(1 for t in terms if annotations.get(t, discipline))
    if smoothing:
        return (technical + 1) / (len(terms) + 2)
    return technical / len(terms)


@dataclass(frozen=True)
class MDeltaReport:
    discipline: str
    m_top: float
    m_bottom: float
    m_delta: float
    label: str
    smoothed: bool


def m_delta(
    top_terms: Sequence[str],
    bottom_terms: Sequence[str],
    discipline: str,
    annotations: AnnotationSet,
    smoothing: bool = False,
) -> MDeltaReport:
    """Log ratio of the technical fractions of the top and bottom term lists.

    Positive means donor-leaning, negative borrower-leaning. A zero fraction
    on either side is a hard error unless smoothing was requested; silent
    smoothing would fabricate the statistic.
    """
    m_top = m_value(top_terms, discipline, annotations, smoothing=smoothing)
    m_bottom = m_value(bottom_terms, discipline, annotations, smoothing=smoothing)
    if m_top == 0.0 or m_bottom == 0.0:
        side = "top" if m_top == 0.0 else "bottom"
        raise ZeroMValue(
            f"{discipline!r}: {side} M value is zero; enable smoothing or fix lists"
        )
    delta = math.log(m_top / m_bottom)
    if delta > 0:
        label = DONOR_LEANING
    elif delta < 0:
        label = BORROWER_LEANING
    else:
        label = NEUTRAL
    return MDeltaReport(
        discipline=discipline,
        m_top=m_top,
        m_bottom=m_bottom,
        m_delta=delta,
        label=label,
        smoothed=smoothing,
    )


def hardness_ranking(reports: Iterable[MDeltaReport]) -> list[MDeltaReport]:
    """Disciplines ordered by top-list technical fraction, highest first."""
    return sorted(reports, key=lambda r: (-r.m_top, r.discipline))


def write_reports_csv(
    reports: Iterable[MDeltaReport],
    handle: IO[str],
    config_line: Optional[str] = None,
) -> None:
    rows = (
        (r.discipline, f"{r.m_top:.12g}", f"{r.m_bottom:.12g}", f"{r.m_delta:.12g}",
         r.label, 1 if r.smoothed else 0)
        for r in reports
    )
    header = ("discipline", "m_top", "m_bottom", "m_delta", "label", "smoothed")
    write_csv(handle, header, rows, config_line)
