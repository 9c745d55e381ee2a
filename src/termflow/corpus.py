"""Corpus ingestion and the per-discipline, time-binned term index.

Documents are bibliographic records (id, discipline, year, title, abstract).
All counting is binary per document: a term occurring once or ten times in
the same title+abstract counts as one document. The index built here is
immutable; everything downstream is a pure read.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import operator
import re
import sys
from bisect import bisect_left
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType
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
_FIELD_SET = frozenset(RECORD_FIELDS)
_field_values = operator.itemgetter(*RECORD_FIELDS)
# the C scanner json.loads runs on a line once past its leading whitespace
_scan_json = json.JSONDecoder().scan_once
# the string escaper json.dumps runs with its default ensure_ascii
_json_string = json.encoder.encode_basestring_ascii
YEAR_MIN = 1000
YEAR_MAX = 3000

# Runs of letters/digits; underscore is a separator like any other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same rule on ASCII text, as a str.translate table: token characters map
# to their lowercase form, every other character to a space.
_ASCII_TABLE = "".join(
    c.lower() if _TOKEN_RE.fullmatch(c) else " " for c in map(chr, range(128))
)
# the only one-character tokens that translate table leaves and tokenize drops
_ASCII_LETTERS = frozenset(map(chr, range(ord("a"), ord("z") + 1)))

# ingest joins the texts of a (discipline, year) group with the first of
# termflowdocsep0, termflowdocsep1, ... that is no term yet, a token tokenize
# keeps as it is, and flushes its open groups past BATCH_CHARS
_SEPARATOR = "termflowdocsep{}"
DOC_SEPARATOR = _SEPARATOR.format(0)
BATCH_CHARS = 1 << 18
# term_counts sorts one int64 key per token of a run of year cells up to this size
COUNT_TOKENS = 1 << 15


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it on any non-alphanumeric character.

    Single-character tokens are dropped unless they are digits, so acronyms
    such as ADD or MBD survive while stray letters do not. No stemming is
    applied: discipline-specific term variants must stay distinct. Token
    order is preserved so phrase queries can check adjacency.
    """
    if text.isascii():
        tokens = text.translate(_ASCII_TABLE).split()
        if _ASCII_LETTERS.isdisjoint(tokens):
            return tokens
        return list(itertools.filterfalse(_ASCII_LETTERS.__contains__, tokens))
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) > 1 or t.isdigit()]


@dataclass(frozen=True, order=True)
class TimeBin:
    """A half-open slice of the year axis: [start_year, start_year + width)."""

    start_year: int
    width_years: int = 2

    def __post_init__(self) -> None:
        if self.width_years < 1:
            raise ValueError("width_years must be >= 1")


class DocumentRecord(namedtuple("DocumentRecord", RECORD_FIELDS)):
    """One bibliographic item; title/abstract may be empty strings.

    An immutable named tuple. Every construction path (positional, keyword,
    ``_make``, ``_replace``, unpickling) validates the fields and raises
    :class:`MalformedRecord`. A record equals only another record, never the
    plain tuple of its fields, and hashes as that tuple. The synthetic
    generator alone skips the checks: its ``ScenarioSpec`` has applied them.
    """

    __slots__ = ()

    def __new__(cls, id: str, discipline: str, year: int, title: str, abstract: str):
        if not isinstance(id, str) or not id:
            raise MalformedRecord(f"record id must be a non-empty string, got {id!r}")
        if not isinstance(discipline, str) or not discipline.strip():
            raise MalformedRecord(f"record {id!r} has an empty discipline")
        if isinstance(year, bool) or not isinstance(year, int):
            raise MalformedRecord(f"record {id!r} has unparsable year {year!r}")
        if not YEAR_MIN <= year <= YEAR_MAX:
            raise MalformedRecord(f"record {id!r} year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
        if not isinstance(title, str) or not isinstance(abstract, str):
            raise MalformedRecord(f"record {id!r} title/abstract must be strings")
        return tuple.__new__(cls, (id, discipline, year, title, abstract))

    @classmethod
    def _make(cls, iterable: Iterable) -> "DocumentRecord":
        return cls(*iterable)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


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


Cell = tuple[str, int]  # (discipline, year) of a year cell, or of a bin by its start


@dataclass(frozen=True, eq=False)
class CellCounts:
    """How many documents each year cell, discipline and bin of a corpus holds.

    Documents are laid out by year cell, a (discipline, year) pair: year
    cell c is ``cells[c]`` in sorted order and holds documents
    ``cell_offsets[c]`` to ``cell_offsets[c + 1] - 1``. A bin of the grid
    (``bin_width``, ``anchor_offset``) is read as the contiguous run of its
    year cells, which is exact because each document has one year.
    """

    bin_width: int
    anchor_offset: int
    disciplines: tuple[str, ...]
    bins: tuple[TimeBin, ...]
    discipline_totals: Mapping[str, int]
    n_documents: int
    cells: tuple[Cell, ...] = field(repr=False)
    cell_offsets: np.ndarray = field(repr=False)

    def documents(self, discipline: str, start: int) -> tuple[int, int]:
        """Documents ``first`` to ``last - 1`` of the bin of ``discipline`` at
        ``start``; an empty range if ``start`` is not on the grid."""
        if (start - self.anchor_offset) % self.bin_width:
            return 0, 0
        lo = bisect_left(self.cells, (discipline, start))
        hi = bisect_left(self.cells, (discipline, start + self.bin_width), lo)
        return int(self.cell_offsets[lo]), int(self.cell_offsets[hi])

    def doc_count(self, discipline: str, start: int) -> int:
        first, last = self.documents(discipline, start)
        return last - first


@dataclass(frozen=True, eq=False)
class CorpusIndex(CellCounts):
    """Immutable per-discipline, per-time-bin term occurrence index.

    The :class:`CellCounts` layout plus the documents' terms. Terms are
    numbered by their positions in the sorted ``vocabulary``, and every
    array is read-only. ``tokens`` holds the int32 term ids of every
    document in order, documents grouped by year cell: document d is
    ``tokens[doc_offsets[d]:doc_offsets[d + 1]]``. Every count and query is
    evaluated from this stream.
    """

    vocabulary: tuple[str, ...] = field(repr=False)
    tokens: np.ndarray = field(repr=False)
    doc_offsets: np.ndarray = field(repr=False)

    def term_id(self, term: str) -> int:
        """Position of ``term`` in ``vocabulary``, or -1 if no document has it."""
        i = bisect_left(self.vocabulary, term)
        return i if i < len(self.vocabulary) and self.vocabulary[i] == term else -1

    def _term_counts(self, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
        """Distinct term ids of documents ``first`` to ``last - 1``, ascending,
        and how many of those documents hold each."""
        n_docs = last - first
        # binary counting: one key per (term, document), each kept once
        keys = self.tokens[self.doc_offsets[first] : self.doc_offsets[last]].astype(np.int64)
        keys *= n_docs
        keys += np.repeat(np.arange(n_docs), np.diff(self.doc_offsets[first : last + 1]))
        keys.sort()
        terms = keys[_run_starts(keys)] // n_docs
        first_of = _run_starts(terms)
        return terms[first_of], np.diff(np.append(np.flatnonzero(first_of), len(terms)))

    def matches(self, query: TermQuery, first: int, last: int) -> int:
        """Documents ``first`` to ``last - 1`` that match ``query``, counted
        by a scan of their slice of the token stream."""
        phrase = [self.term_id(t) for t in query.term]
        coterms = [self.term_id(t) for t in query.required_coterms]
        if first == last or min(phrase + coterms) < 0:
            return 0
        # the documents' slice of the token stream, and their bounds within it
        base = self.doc_offsets[first]
        bounds = self.doc_offsets[first : last + 1] - base
        stream = self.tokens[base : self.doc_offsets[last]]

        span = len(stream) - len(phrase) + 1
        if span <= 0:
            return 0
        at = stream[:span] == phrase[0]
        for i, t in enumerate(phrase[1:], start=1):
            at &= stream[i : i + span] == t
        pos = np.flatnonzero(at)
        doc = np.searchsorted(bounds, pos, side="right") - 1
        matched = np.zeros(last - first, bool)
        # a phrase counts only where it ends inside the document it starts in
        matched[doc[pos + len(phrase) <= bounds[doc + 1]]] = True
        for t in coterms:
            holding = np.zeros_like(matched)
            holding[np.searchsorted(bounds, np.flatnonzero(stream == t), side="right") - 1] = True
            matched &= holding
        return int(np.count_nonzero(matched))

    @functools.cached_property
    def postings(self) -> Mapping[str, Mapping[Cell, int]]:
        """Read-only ``{term: {cell: documents}}`` view, cells ascending.

        Built from the token stream on first use; the analyses do not read it.
        """
        by_term: list[dict[Cell, int]] = [{} for _ in self.vocabulary]
        for d in self.disciplines:
            for b in self.bins:
                terms, counts = self._term_counts(*self.documents(d, b.start_year))
                for t, n in zip(terms.tolist(), counts.tolist()):
                    by_term[t][d, b.start_year] = n
        return MappingProxyType(dict(zip(self.vocabulary, map(MappingProxyType, by_term))))

    @functools.cached_property
    def term_counts(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Sorted terms, and a read-only int32 matrix of their document counts.

        Row i counts the documents of each discipline (columns in
        ``disciplines`` order) that contain term i. Built from the token
        stream on first use, one run of a discipline's consecutive year cells
        at a time, each run ending before it would pass ``COUNT_TOKENS``
        tokens (a run holds at least one cell).
        """
        table = np.zeros((len(self.vocabulary), len(self.disciplines)), np.int32)
        # token offset of each year cell's first document, and of the end
        cell_starts = self.doc_offsets[self.cell_offsets].tolist()
        first = 0
        for c, (disc, _) in enumerate(self.cells, start=1):
            if c == len(self.cells) or self.cells[c][0] != disc or (
                cell_starts[c + 1] - cell_starts[first] > COUNT_TOKENS
            ):
                terms, counts = self._term_counts(*self.cell_offsets[[first, c]])
                table[terms, self.disciplines.index(disc)] += counts
                first = c
        table.flags.writeable = False
        return self.vocabulary, table


def ingest(
    records: Iterable[DocumentRecord],
    bin_width: int = 2,
    anchor_year: Optional[int] = None,
) -> CorpusIndex:
    """Build a :class:`CorpusIndex` from a stream of records.

    Bins anchor at the earliest ingested year rounded down to a multiple of
    ``bin_width`` unless ``anchor_year`` pins the grid explicitly. Duplicate
    ids are an error, not a silent overwrite, reported once every record
    is read.

    The texts of each (discipline, year) group are buffered and tokenized in
    one :func:`tokenize` call, joined by a separator token: the first of
    :data:`DOC_SEPARATOR`, ``termflowdocsep1``, ... that is no term yet. Every
    open group is flushed once ``BATCH_CHARS`` characters are buffered. If
    the group's separator count shows that some document holds the separator
    token itself, that token becomes an ordinary term and the group is
    tokenized once more with the next candidate, which none of its tokens is.
    """
    offset = _grid_offset(bin_width, anchor_year)
    # term ids in order of first appearance; _build sorts them
    term_ids = defaultdict(itertools.count().__next__)
    # flushed groups (year cell, document ids, token ids, per-document token counts)
    groups: list[tuple[Cell, Sequence[str], np.ndarray, np.ndarray]] = []
    # (discipline, year) -> the buffered ids and "title abstract" texts, in record order
    open_groups = defaultdict(lambda: ([], []))
    buffered = 0

    def flush() -> None:
        for cell, (doc_ids, texts) in open_groups.items():
            while True:
                sep = next(
                    s for s in map(_SEPARATOR.format, itertools.count()) if s not in term_ids
                )
                toks = tokenize(f" {sep} ".join(texts))
                term_ids[sep] = -1  # pinned while the group is mapped: it takes no term id
                ids = np.fromiter(map(term_ids.__getitem__, toks), np.int32, len(toks))
                del toks, term_ids[sep]  # before the next group's tokens are made
                bounds = np.flatnonzero(ids < 0)
                if len(bounds) == len(texts) - 1:
                    break
                # a document holds sep: make it a term, as every other token of the
                # group now is, so that the next candidate is none of those tokens
                term_ids[sep]
            lengths = np.diff(bounds, prepend=-1, append=len(ids)) - 1
            groups.append((cell, doc_ids, ids[ids >= 0], lengths))
        open_groups.clear()

    # one unpacking per record: a named tuple's attribute reads cost more
    for rec_id, discipline, year, title, abstract in records:
        text = title + " " + abstract
        doc_ids, texts = open_groups[discipline, year]
        doc_ids.append(rec_id)
        texts.append(text)
        buffered += len(text)
        if buffered > BATCH_CHARS:
            flush()
            buffered = 0
    flush()

    terms = list(term_ids)
    del term_ids  # the interning dict goes before _build allocates the stream
    return _build(bin_width, offset, terms, groups)


def census(
    records: Iterable[DocumentRecord],
    bin_width: int = 2,
    anchor_year: Optional[int] = None,
) -> CellCounts:
    """The :class:`CellCounts` of a stream of records, as :func:`ingest`
    lays them out and with its id check, without tokenizing any text."""
    offset = _grid_offset(bin_width, anchor_year)
    cells: defaultdict[Cell, list[str]] = defaultdict(list)
    for rec_id, discipline, year, _, _ in records:
        cells[discipline, year].append(rec_id)
    return CellCounts(**_layout(bin_width, offset, sorted(cells.items())))


@dataclass(frozen=True, eq=False)
class QueryCounts(CellCounts):
    """The :class:`CellCounts` layout plus, for each query it was taken for,
    which documents match it: ``flags[query][d]`` is document d's flag, in
    layout order, and every flag array is read-only."""

    flags: Mapping[TermQuery, np.ndarray] = field(repr=False)

    def matches(self, query: TermQuery, first: int, last: int) -> int:
        """Documents ``first`` to ``last - 1`` that match ``query``, one of the
        queries these counts were taken for."""
        if query not in self.flags:
            raise InvalidQuery(f"no counts were taken for query {query.label()!r}")
        return int(np.count_nonzero(self.flags[query][first:last]))


# what count_matches reads a bin's matches from
MatchCounts = Union[CorpusIndex, QueryCounts]


def query_counts(
    records: Iterable[DocumentRecord],
    queries: Iterable[TermQuery],
    bin_width: int = 2,
    anchor_year: Optional[int] = None,
) -> QueryCounts:
    """The :class:`CellCounts` of a stream of records, as :func:`census`
    takes them, plus which documents match each of ``queries``, by
    :func:`count_matches`' rule, without building a token index.

    Only a document whose lowered ``title + " " + abstract`` holds every
    phrase and co-term token of a query is tokenized: every token
    :func:`tokenize` returns is a substring of that text, so no other
    document can match. A tokenized document matches if its tokens hold the
    phrase as adjacent tokens and every co-term.
    """
    offset = _grid_offset(bin_width, anchor_year)
    queries = tuple(dict.fromkeys(queries))
    needles = [(q.term + tuple(q.required_coterms), list(q.term), q.required_coterms)
               for q in queries]
    # (discipline, year) -> the ids, and for each query the positions of its matches
    cells: defaultdict[Cell, tuple[list[str], list[list[int]]]] = defaultdict(
        lambda: ([], [[] for _ in queries])
    )
    for rec_id, discipline, year, title, abstract in records:
        doc_ids, hits = cells[discipline, year]
        text = title + " " + abstract
        lowered = text.lower()
        tokens = None
        for (needle, phrase, coterms), hit in zip(needles, hits):
            for n in needle:
                if n not in lowered:
                    break
            else:
                if tokens is None:
                    tokens = tokenize(text)
                if _holds(tokens, phrase, coterms):
                    hit.append(len(doc_ids))
        doc_ids.append(rec_id)
    ordered = sorted(cells.items())
    layout = _layout(bin_width, offset, [(cell, ids) for cell, (ids, _) in ordered])
    flags = {}
    for j, query in enumerate(queries):
        matched = np.zeros(layout["n_documents"], bool)
        for start, (_, (_, hits)) in zip(layout["cell_offsets"].tolist(), ordered):
            matched[[start + h for h in hits[j]]] = True
        matched.flags.writeable = False
        flags[query] = matched
    return QueryCounts(**layout, flags=MappingProxyType(flags))


def _holds(tokens: list[str], phrase: list[str], coterms: frozenset[str]) -> bool:
    """Whether a document's ``tokens`` hold ``phrase`` as adjacent tokens and
    every one of ``coterms``."""
    for t in coterms:
        if t not in tokens:
            return False
    i = -1
    try:
        while True:
            i = tokens.index(phrase[0], i + 1)
            if tokens[i : i + len(phrase)] == phrase:
                return True
    except ValueError:
        return False


def _grid_offset(bin_width: int, anchor_year: Optional[int]) -> int:
    # the default anchor, the earliest year rounded down, is a multiple of bin_width
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    return 0 if anchor_year is None else anchor_year % bin_width


def _concat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype)


def _offsets(lengths: np.ndarray) -> np.ndarray:
    out = np.zeros(len(lengths) + 1, np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values starts in ``values``."""
    starts = np.empty(len(values), bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _layout(
    bin_width: int, offset: int, cells: Sequence[tuple[Cell, Sequence[str]]]
) -> dict:
    """The :class:`CellCounts` fields, on the grid (``bin_width``, ``offset``),
    of documents given as ``(year_cell, doc_ids)`` pairs in year-cell order;
    one year cell may come in several adjacent pairs.

    A document id given twice raises :class:`DuplicateId`, naming the
    repeated id that occurs first in that order; ids are not stored.
    """
    doc_ids = [i for _, ids in cells for i in ids]
    if len(set(doc_ids)) < len(doc_ids):
        repeated = next(i for i, n in Counter(doc_ids).items() if n > 1)
        raise DuplicateId(f"duplicate document id {repeated!r}")
    cell_counts: dict[Cell, int] = {}
    discipline_totals: dict[str, int] = {}
    for cell, ids in cells:
        cell_counts[cell] = cell_counts.get(cell, 0) + len(ids)
        discipline_totals[cell[0]] = discipline_totals.get(cell[0], 0) + len(ids)
    bins: tuple[TimeBin, ...] = ()
    if cell_counts:
        years = [year for _, year in cell_counts]
        first = min(years) - (min(years) - offset) % bin_width
        bins = tuple(TimeBin(s, bin_width) for s in range(first, max(years) + 1, bin_width))
    cell_offsets = _offsets(np.array(list(cell_counts.values()), np.int64))
    cell_offsets.flags.writeable = False
    return dict(
        bin_width=bin_width,
        anchor_offset=offset,
        disciplines=tuple(discipline_totals),
        bins=bins,
        discipline_totals=MappingProxyType(discipline_totals),
        n_documents=len(doc_ids),
        cells=tuple(cell_counts),
        cell_offsets=cell_offsets,
    )


def _build(
    bin_width: int,
    offset: int,
    terms: Sequence[str],
    groups: Iterable[tuple[Cell, Sequence[str], np.ndarray, np.ndarray]],
) -> CorpusIndex:
    """Assemble an index on the grid (``bin_width``, ``offset``) from the
    groups :func:`ingest` flushed.

    Each group ``(year_cell, doc_ids, term_ids, lengths)`` holds
    ``len(lengths)`` documents in order: document d has id ``doc_ids[d]``
    and holds the next ``lengths[d]`` ids of ``term_ids``, and term id i
    stands for ``terms[i]``. Groups come in flush order and are laid out by
    year cell, stably, since one year cell may span several flushes; the
    layout and its id check are :func:`_layout`'s.

    The token stream is allocated once and written in place: each group's
    ids go into their slice through the map from first-appearance ids to
    sorted ids, so no concatenated or remapped copy of it is made.
    """
    groups = sorted(groups, key=operator.itemgetter(0))
    layout = _layout(bin_width, offset, [(cell, ids) for cell, ids, _, _ in groups])

    order = sorted(range(len(terms)), key=terms.__getitem__)
    sorted_id = np.empty(len(terms), np.int32)
    sorted_id[order] = np.arange(len(terms), dtype=np.int32)
    tokens = np.empty(sum(len(ids) for _, _, ids, _ in groups), np.int32)
    end = 0
    for _, _, ids, _ in groups:
        start, end = end, end + len(ids)
        np.take(sorted_id, ids, out=tokens[start:end])
    doc_offsets = _offsets(_concat([lengths for _, _, _, lengths in groups], np.int64))
    tokens.flags.writeable = doc_offsets.flags.writeable = False
    return CorpusIndex(
        **layout,
        vocabulary=tuple(map(terms.__getitem__, order)),
        tokens=tokens,
        doc_offsets=doc_offsets,
    )


def count_matches(
    index: MatchCounts,
    query: TermQuery,
    discipline: str,
    time_bin: int,
) -> int:
    """Documents matching ``query`` in the bin of ``discipline`` starting at ``time_bin``."""
    if discipline not in index.discipline_totals:
        raise UnknownDiscipline(f"unknown discipline {discipline!r}")
    if not any(b.start_year == time_bin for b in index.bins):
        raise UnknownBin(f"no bin starting at year {time_bin}")
    return index.matches(query, *index.documents(discipline, time_bin))


# ---------------------------------------------------------------------------
# Record I/O: JSON-lines and CSV with the same field names.
# ---------------------------------------------------------------------------


def _open_read(path: Union[str, IO[str]], newline: Optional[str] = None):
    if hasattr(path, "read"):
        return path, False
    if path == "-":
        return sys.stdin, False
    return open(path, "r", encoding="utf-8", newline=newline), True


def read_jsonl_records(path: Union[str, IO[str]]) -> Iterator[DocumentRecord]:
    """Yield records from a JSON-lines file (one object per line).

    A line that is one JSON value and then JSON whitespace is decoded by the
    scanner alone; any other line takes ``json.loads``, which words every error."""
    handle, owned = _open_read(path)
    try:
        for lineno, line in enumerate(handle, start=1):
            try:
                obj, end = _scan_json(line, 0)
                scanned = not line[end:].strip(" \t\n\r")
            except (StopIteration, ValueError, RecursionError):
                scanned = False
            if not scanned:
                if not line.strip():
                    continue
                # JSONDecodeError is a ValueError, as a number past the int-string limit is
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise MalformedRecord(f"line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise MalformedRecord(f"line {lineno}: expected a JSON object")
            if obj.keys() != _FIELD_SET:
                raise MalformedRecord(
                    f"line {lineno}: expected exactly the fields {', '.join(RECORD_FIELDS)}"
                )
            yield DocumentRecord(*_field_values(obj))
    finally:
        if owned:
            handle.close()


def read_csv_rows(
    path: Union[str, IO[str]], fields: Sequence[str], error: type[TermflowError]
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield ``(line, values)`` for each non-blank row of a CSV file whose
    header holds exactly the names ``fields``, in any order; ``values`` are
    the row's fields in ``fields`` order and ``line`` is its physical line.

    The last of a repeated header name wins, as in ``csv.DictReader``. A
    header with other names, a row wider or narrower than the header, or a
    ``csv.Error`` raises ``error``, numbered by physical line.
    """
    # newline="" keeps a quoted "\r" or "\r\n" in a field as it was written
    handle, owned = _open_read(path, newline="")
    reader = csv.reader(handle)
    try:
        header = next(reader, [])
        if set(header) != set(fields):
            raise error(f"CSV header must be exactly {', '.join(fields)}")
        column = {name: i for i, name in enumerate(header)}
        pick = operator.itemgetter(*map(column.__getitem__, fields))
        width = len(header)
        for row in filter(None, reader):
            if len(row) != width:
                raise error(
                    f"line {reader.line_num}: expected exactly the fields {', '.join(fields)}"
                )
            yield reader.line_num, pick(row)
    # a field past csv's size limit, e.g. one opened by a quote that never closes
    except csv.Error as exc:
        raise error(f"line {reader.line_num}: invalid CSV ({exc})") from exc
    finally:
        if owned:
            handle.close()


def read_csv_records(path: Union[str, IO[str]]) -> Iterator[DocumentRecord]:
    """Yield records from a CSV file with header id,discipline,year,title,abstract."""
    for line, (id_, discipline, year, title, abstract) in read_csv_rows(
        path, RECORD_FIELDS, MalformedRecord
    ):
        # the JSON integer grammar; int() alone also takes "1_990", " +1991 " and "١٩٩٢"
        try:
            if not re.fullmatch(r"-?(?:0|[1-9][0-9]*)", year):
                raise ValueError
            number = int(year)
        except ValueError as exc:
            raise MalformedRecord(f"line {line}: unparsable year {year!r}") from exc
        yield DocumentRecord(id_, discipline, number, title, abstract)


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
    """One ``json.dumps(dict(zip(RECORD_FIELDS, rec)), sort_keys=True)`` line
    per record, byte for byte: the keys in sorted order, each string through
    json's own escaper and the year as ``int.__repr__``, as json writes it."""
    q = _json_string
    handle.writelines(
        f'{{"abstract": {q(abstract)}, "discipline": {q(discipline)}, "id": {q(id_)}, '
        f'"title": {q(title)}, "year": {int.__repr__(year)}}}\n'
        for id_, discipline, year, title, abstract in records
    )
