"""Corpus ingestion and the per-discipline, time-binned term index.

Documents are bibliographic records (id, discipline, year, title, abstract).
All counting is binary per document: a term occurring once or ten times in
the same title+abstract counts as one document. The index built here is
immutable; everything downstream is a pure read.
"""

from __future__ import annotations

import csv
import functools
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import TermflowError


class MalformedRecord(TermflowError):
    pass


class DuplicateId(TermflowError):
    pass


class UnknownDiscipline(TermflowError):
    pass


class UnknownBin(TermflowError):
    pass


class InvalidQuery(TermflowError, ValueError):
    pass


RECORD_FIELDS = ("id", "discipline", "year", "title", "abstract")
YEAR_MIN = 1000
YEAR_MAX = 3000

# Runs of letters/digits; underscore is a separator like any other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it on any non-alphanumeric character.

    Single-character tokens are dropped unless they are digits, so acronyms
    such as ADD or MBD survive while stray letters do not. No stemming is
    applied: discipline-specific term variants must stay distinct. Token
    order is preserved so phrase queries can check adjacency.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    return [t for t in tokens if len(t) > 1 or t.isdigit()]


@dataclass(frozen=True, order=True)
class TimeBin:
    """A half-open slice of the year axis: [start_year, start_year + width)."""

    start_year: int
    width_years: int = 2

    def __post_init__(self) -> None:
        if self.width_years < 1:
            raise ValueError("width_years must be >= 1")

    @property
    def end_year(self) -> int:
        """Last calendar year covered by this bin (inclusive)."""
        return self.start_year + self.width_years - 1


@dataclass(frozen=True)
class DocumentRecord:
    """One bibliographic item; title/abstract may be empty strings."""

    id: str
    discipline: str
    year: int
    title: str
    abstract: str


@dataclass(frozen=True)
class TermQuery:
    """A phrase (adjacent token sequence) plus optional required co-terms.

    ``term`` of length one matches a single token; longer tuples must appear
    as adjacent tokens. Every token in ``required_coterms`` must also occur
    somewhere in the same document (title or abstract).
    """

    term: tuple[str, ...]
    required_coterms: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.term:
            raise InvalidQuery("query term must have at least one token")
        for tok in list(self.term) + list(self.required_coterms):
            if tokenize(tok) != [tok]:
                raise InvalidQuery(f"query token {tok!r} is not normalized")

    @classmethod
    def parse(cls, term_text: str, coterms: Iterable[str] = ()) -> "TermQuery":
        """Build a query from raw text, normalizing through the tokenizer."""
        term = tuple(tokenize(term_text))
        required = frozenset(t for c in coterms for t in tokenize(c))
        if not term:
            raise InvalidQuery(f"no tokens survive normalization of {term_text!r}")
        return cls(term=term, required_coterms=required)

    def label(self) -> str:
        """Stable human-readable form, e.g. ``cold fusion+attention``."""
        base = " ".join(self.term)
        if self.required_coterms:
            base += "+" + "+".join(sorted(self.required_coterms))
        return base


Cell = tuple[str, int]  # (discipline, bin start year)


@dataclass(frozen=True)
class CorpusIndex:
    """Immutable per-discipline, per-time-bin term occurrence index.

    ``postings`` maps each term to the number of distinct documents
    containing it per cell; ``doc_counts`` holds the total documents per
    cell. Per-document token sequences are retained so phrase and co-term
    queries can be evaluated after the build.
    """

    bin_width: int
    anchor_offset: int
    disciplines: tuple[str, ...]
    bins: tuple[TimeBin, ...]
    doc_counts: Mapping[Cell, int]
    postings: Mapping[str, Mapping[Cell, int]]
    discipline_totals: Mapping[str, int]
    n_documents: int
    doc_ids: frozenset = field(repr=False)
    cell_tokens: Mapping[Cell, tuple[tuple[str, ...], ...]] = field(
        repr=False, compare=False
    )

    def doc_count(self, discipline: str, time_bin: Union[TimeBin, int]) -> int:
        return self.doc_counts.get((discipline, _bin_start(time_bin)), 0)

    @functools.cached_property
    def term_counts(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Sorted terms, and a read-only int32 matrix of their document counts.

        Row i counts the documents of each discipline (columns in
        ``disciplines`` order) that contain term i. Built from ``postings``
        on first use.
        """
        terms = tuple(sorted(self.postings))
        column = {d: j for j, d in enumerate(self.disciplines)}
        cell_column = {cell: column[cell[0]] for cell in self.doc_counts}
        per_term = list(map(self.postings.__getitem__, terms))
        lengths = np.fromiter(map(len, per_term), np.intp, len(terms))
        n_entries = int(lengths.sum())
        columns = np.fromiter(
            map(cell_column.__getitem__, chain.from_iterable(per_term)), np.int32, n_entries
        )
        counts = np.fromiter(
            chain.from_iterable(cells.values() for cells in per_term), np.int32, n_entries
        )
        table = np.zeros((len(terms), len(self.disciplines)), np.int32)
        rows = np.repeat(np.arange(len(terms), dtype=np.int32), lengths)
        np.add.at(table, (rows, columns), counts)
        table.flags.writeable = False
        return terms, table


def _bin_start(time_bin: Union[TimeBin, int]) -> int:
    return time_bin.start_year if isinstance(time_bin, TimeBin) else int(time_bin)


def _validate_record(rec: DocumentRecord) -> None:
    if not isinstance(rec.id, str) or not rec.id:
        raise MalformedRecord(f"record id must be a non-empty string, got {rec.id!r}")
    if not isinstance(rec.discipline, str) or not rec.discipline.strip():
        raise MalformedRecord(f"record {rec.id!r} has an empty discipline")
    if isinstance(rec.year, bool) or not isinstance(rec.year, int):
        raise MalformedRecord(f"record {rec.id!r} has unparsable year {rec.year!r}")
    if not YEAR_MIN <= rec.year <= YEAR_MAX:
        raise MalformedRecord(
            f"record {rec.id!r} year {rec.year} outside [{YEAR_MIN}, {YEAR_MAX}]"
        )
    if not isinstance(rec.title, str) or not isinstance(rec.abstract, str):
        raise MalformedRecord(f"record {rec.id!r} title/abstract must be strings")


def ingest(
    records: Iterable[DocumentRecord],
    bin_width: int = 2,
    anchor_year: Optional[int] = None,
) -> CorpusIndex:
    """Build a :class:`CorpusIndex` from a stream of records.

    Bins anchor at the earliest ingested year rounded down to a multiple of
    ``bin_width`` unless ``anchor_year`` pins the grid explicitly. Duplicate
    ids are an error, not a silent overwrite.
    """
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")

    seen_ids: set[str] = set()
    staged: list[tuple[DocumentRecord, tuple[str, ...]]] = []
    canon: dict[str, str] = {}
    for rec in records:
        _validate_record(rec)
        if rec.id in seen_ids:
            raise DuplicateId(f"duplicate document id {rec.id!r}")
        seen_ids.add(rec.id)
        toks = tokenize(rec.title + " " + rec.abstract)
        toks = tuple(map(canon.setdefault, toks, toks))
        staged.append((rec, toks))

    if anchor_year is None:
        min_year = min((rec.year for rec, _ in staged), default=0)
        anchor_year = min_year - (min_year % bin_width)
    offset = anchor_year % bin_width

    cell_tokens: dict[Cell, list[tuple[str, ...]]] = {}
    for rec, toks in staged:
        start = rec.year - ((rec.year - offset) % bin_width)
        cell_tokens.setdefault((rec.discipline, start), []).append(toks)
    return _assemble(bin_width, offset, cell_tokens, seen_ids)


def _assemble(
    bin_width: int,
    offset: int,
    cell_tokens: dict[Cell, list[tuple[str, ...]]],
    doc_ids: set[str],
) -> CorpusIndex:
    """Derive every count of an index from the token sequences of its cells."""
    doc_counts: dict[Cell, int] = {}
    discipline_totals: dict[str, int] = {}
    postings: dict[str, dict[Cell, int]] = {}
    for cell, docs in cell_tokens.items():
        doc_counts[cell] = len(docs)
        discipline_totals[cell[0]] = discipline_totals.get(cell[0], 0) + len(docs)
        # binary counting: each document contributes a term at most once
        for tok, n in Counter(chain.from_iterable(map(set, docs))).items():
            postings.setdefault(tok, {})[cell] = n

    starts = sorted({start for _, start in cell_tokens})
    bins = (
        tuple(TimeBin(s, bin_width) for s in range(starts[0], starts[-1] + 1, bin_width))
        if starts
        else ()
    )
    return CorpusIndex(
        bin_width=bin_width,
        anchor_offset=offset,
        disciplines=tuple(sorted(discipline_totals)),
        bins=bins,
        doc_counts=doc_counts,
        postings=postings,
        discipline_totals=discipline_totals,
        n_documents=len(doc_ids),
        doc_ids=frozenset(doc_ids),
        cell_tokens={cell: tuple(docs) for cell, docs in cell_tokens.items()},
    )


def merge_indexes(parts: Sequence[CorpusIndex]) -> CorpusIndex:
    """Merge partition indexes into the index of their combined documents.

    Partitions must share the bin grid (width and anchor parity); document
    ids must be disjoint across partitions.
    """
    if not parts:
        raise ValueError("nothing to merge")
    widths = {p.bin_width for p in parts}
    offsets = {p.anchor_offset for p in parts if p.n_documents}
    if len(widths) > 1 or len(offsets) > 1:
        raise ValueError("partition indexes are on incompatible bin grids")

    merged_ids: set[str] = set()
    for p in parts:
        overlap = merged_ids & p.doc_ids
        if overlap:
            raise DuplicateId(f"duplicate document id {sorted(overlap)[0]!r} across partitions")
        merged_ids |= p.doc_ids

    cell_tokens: dict[Cell, list[tuple[str, ...]]] = {}
    for p in parts:
        for cell, docs in p.cell_tokens.items():
            cell_tokens.setdefault(cell, []).extend(docs)
    return _assemble(
        widths.pop(), offsets.pop() if offsets else 0, cell_tokens, merged_ids
    )


def _has_phrase(tokens: tuple[str, ...], phrase: tuple[str, ...]) -> bool:
    n = len(phrase)
    if n == 1:
        return phrase[0] in tokens
    for i in range(len(tokens) - n + 1):
        if tokens[i : i + n] == phrase:
            return True
    return False


def count_matches(
    index: CorpusIndex,
    query: TermQuery,
    discipline: str,
    time_bin: Union[TimeBin, int],
) -> int:
    """Number of distinct documents in (discipline, bin) matching ``query``."""
    if discipline not in index.discipline_totals:
        raise UnknownDiscipline(f"unknown discipline {discipline!r}")
    start = _bin_start(time_bin)
    if not any(b.start_year == start for b in index.bins):
        raise UnknownBin(f"no bin starting at year {start}")
    cell = (discipline, start)

    if len(query.term) == 1 and not query.required_coterms:
        return index.postings.get(query.term[0], {}).get(cell, 0)

    count = 0
    for tokens in index.cell_tokens.get(cell, ()):
        token_set = set(tokens)
        if not query.required_coterms <= token_set:
            continue
        if not all(t in token_set for t in query.term):
            continue
        if _has_phrase(tokens, query.term):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Record I/O: JSON-lines and CSV with the same field names.
# ---------------------------------------------------------------------------


def _open_read(path: Union[str, IO[str]]):
    if hasattr(path, "read"):
        return path, False
    if path == "-":
        return sys.stdin, False
    return open(path, "r", encoding="utf-8"), True


def _record_from_mapping(obj: Mapping, where: str) -> DocumentRecord:
    if set(obj) != set(RECORD_FIELDS):
        raise MalformedRecord(
            f"{where}: expected exactly the fields {', '.join(RECORD_FIELDS)}"
        )
    return DocumentRecord(
        id=obj["id"],
        discipline=obj["discipline"],
        year=obj["year"],
        title=obj["title"],
        abstract=obj["abstract"],
    )


def read_jsonl_records(path: Union[str, IO[str]]) -> Iterator[DocumentRecord]:
    """Yield records from a JSON-lines file (one object per line)."""
    handle, owned = _open_read(path)
    try:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise MalformedRecord(f"line {lineno}: expected a JSON object")
            rec = _record_from_mapping(obj, f"line {lineno}")
            _validate_record(rec)
            yield rec
    finally:
        if owned:
            handle.close()


def read_csv_records(path: Union[str, IO[str]]) -> Iterator[DocumentRecord]:
    """Yield records from a CSV file with header id,discipline,year,title,abstract."""
    handle, owned = _open_read(path)
    try:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or set(reader.fieldnames) != set(RECORD_FIELDS):
            raise MalformedRecord(
                f"CSV header must be exactly {', '.join(RECORD_FIELDS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                year = int(row["year"])
            except (TypeError, ValueError) as exc:
                raise MalformedRecord(
                    f"line {lineno}: unparsable year {row.get('year')!r}"
                ) from exc
            rec = DocumentRecord(
                id=row["id"],
                discipline=row["discipline"],
                year=year,
                title=row["title"] or "",
                abstract=row["abstract"] or "",
            )
            _validate_record(rec)
            yield rec
    finally:
        if owned:
            handle.close()


class _RowEnds:
    r"""File object for csv.writer that writes each row's "\r\n" ending as "\n".

    csv.writer hands every whole row to a single ``write`` call.
    """

    def __init__(self, handle: IO[str]) -> None:
        self._handle = handle

    def write(self, row: str) -> int:
        return self._handle.write(row[:-2] + "\n")


def write_csv(
    handle: IO[str],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    config_line: Optional[str] = None,
) -> None:
    r"""Write ``header`` and ``rows`` as CSV with minimal RFC 4180 quoting.

    ``config_line``, if given, goes first as a raw ``# ...`` comment line.
    Rows end in "\n". The writer itself is told "\r\n" so that it quotes
    every field holding "\r" or "\n"; with a "\n" terminator Python 3.11
    leaves a field with a bare "\r" unquoted, which readers split.
    """
    if config_line is not None:
        handle.write(f"# {config_line}\n")
    writer = csv.writer(_RowEnds(handle), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_jsonl_records(records: Iterable[DocumentRecord], handle: IO[str]) -> None:
    for rec in records:
        handle.write(
            json.dumps(
                {
                    "id": rec.id,
                    "discipline": rec.discipline,
                    "year": rec.year,
                    "title": rec.title,
                    "abstract": rec.abstract,
                },
                sort_keys=True,
            )
        )
        handle.write("\n")
