"""Corpus ingestion and the per-discipline, time-binned term index.

Documents are bibliographic records (id, discipline, year, title, abstract).
All counting is binary per document: a term occurring once or ten times in
the same title+abstract counts as one document. The index built here is
immutable; everything downstream is a pure read.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import functools
import itertools
import json
import operator
import os
import re
import stat
import sys
from bisect import bisect_left
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import IO, Collection, Iterable, Iterator, Mapping, Optional, Sequence, Union

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
_SURROGATE = re.compile("[\ud800-\udfff]")
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
# the same table for UTF-8 bytes; a byte past ASCII stays as it is
_TOKEN_BYTES = _ASCII_TABLE.encode("ascii") + bytes(range(128, 256))

# ingest joins the texts of a (discipline, year) group with the first of
# termflowdocsep0, termflowdocsep1, ... that is no term yet, a token tokenize
# keeps as it is, and flushes its open groups past BATCH_CHARS
_SEPARATOR = "termflowdocsep{}"
DOC_SEPARATOR = _SEPARATOR.format(0)
BATCH_CHARS = 1 << 18


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
    ``flags[query]`` is a read-only array: whether each document matches.
    """

    bin_width: int
    anchor_offset: int
    disciplines: tuple[str, ...]
    bins: tuple[TimeBin, ...]
    discipline_totals: Mapping[str, int]
    n_documents: int
    cells: tuple[Cell, ...] = field(repr=False)
    cell_offsets: np.ndarray = field(repr=False)
    flags: Mapping[TermQuery, np.ndarray] = field(repr=False)

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
    evaluated from this stream; ``flags`` keeps the last query it scanned.
    """

    vocabulary: tuple[str, ...] = field(repr=False)
    tokens: np.ndarray = field(repr=False)
    doc_offsets: np.ndarray = field(repr=False)

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

    def _bin_term_counts(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """``(column, bin start, term ids, counts)`` of each bin of each
        discipline, by :meth:`_term_counts`, in ``disciplines`` × ``bins`` order."""
        for col, d in enumerate(self.disciplines):
            for b in self.bins:
                yield col, b.start_year, *self._term_counts(*self.documents(d, b.start_year))

    @functools.cached_property
    def postings(self) -> Mapping[str, Mapping[Cell, int]]:
        """Read-only ``{term: {cell: documents}}`` view, cells ascending.

        Built from the token stream on first use; the analyses do not read it.
        """
        by_term: list[dict[Cell, int]] = [{} for _ in self.vocabulary]
        for col, start, terms, counts in self._bin_term_counts():
            for t, n in zip(terms.tolist(), counts.tolist()):
                by_term[t][self.disciplines[col], start] = n
        return MappingProxyType(dict(zip(self.vocabulary, map(MappingProxyType, by_term))))

    @functools.cached_property
    def term_counts(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Sorted terms, and a read-only int32 matrix of their document counts.

        Row i counts the documents of each discipline (columns in
        ``disciplines`` order) that contain term i: the sum of its counts in
        the discipline's bins, which are counted from the token stream one
        at a time on first use. The sum is exact, since every year cell lies
        in one bin.
        """
        table = np.zeros((len(self.vocabulary), len(self.disciplines)), np.int32)
        for col, _, terms, counts in self._bin_term_counts():
            table[terms, col] += counts
        table.flags.writeable = False
        return self.vocabulary, table


class _StreamFlags(dict):
    """A :class:`CorpusIndex`'s ``flags``: a missing query is scanned from the
    stream, and only the query scanned last is kept."""

    def __init__(self, vocabulary: tuple[str, ...], stream: np.ndarray, bounds: np.ndarray):
        self._stream = vocabulary, stream, bounds

    def __missing__(self, query: TermQuery) -> np.ndarray:
        vocabulary, stream, bounds = self._stream
        # a term no document has takes the id -1, which no token equals
        ids = {t: bisect_left(vocabulary, t) for t in (*query.term, *query.required_coterms)}
        ids = {t: i if vocabulary[i : i + 1] == (t,) else -1 for t, i in ids.items()}
        matched = _matches(
            [ids[t] for t in query.term], [ids[t] for t in query.required_coterms], stream, bounds
        )
        matched.flags.writeable = False
        self.clear()
        self[query] = matched
        return matched


def _matches(phrase: Sequence[int], coterms: Iterable[int], stream, bounds) -> np.ndarray:
    """Whether each document of a token id ``stream`` holds the ids
    ``phrase`` as adjacent tokens and every id of ``coterms``; document d
    is ``stream[bounds[d]:bounds[d + 1]]``."""
    at = stream[: max(len(stream) - len(phrase) + 1, 0)] == phrase[0]
    for i, t in enumerate(phrase[1:], start=1):
        at &= stream[i : i + len(at)] == t
    pos = np.flatnonzero(at)
    doc = np.searchsorted(bounds, pos, side="right") - 1
    # a phrase counts only where it ends inside the document it starts in
    doc = doc[pos + len(phrase) <= bounds[doc + 1]]
    matched = np.bincount(doc, minlength=len(bounds) - 1) > 0
    for t in coterms:
        holders = np.searchsorted(bounds, np.flatnonzero(stream == t), side="right") - 1
        matched &= np.bincount(holders, minlength=len(matched)) > 0
    return matched


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
    # term ids in order of first appearance, sorted once every record is read
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
    del term_ids  # the interning dict goes before the stream is allocated
    # one year cell may span several flushes: lay the groups out by year cell, stably
    groups.sort(key=operator.itemgetter(0))
    layout = _layout(bin_width, offset, [(cell, ids) for cell, ids, _, _ in groups])
    order = sorted(range(len(terms)), key=terms.__getitem__)
    sorted_id = np.empty(len(terms), np.int32)
    sorted_id[order] = np.arange(len(terms), dtype=np.int32)
    # the stream is allocated once, and each group's ids are written into their slice
    tokens = np.empty(sum(len(ids) for _, _, ids, _ in groups), np.int32)
    end = 0
    for _, _, ids, _ in groups:
        start, end = end, end + len(ids)
        np.take(sorted_id, ids, out=tokens[start:end])
    doc_offsets = _offsets(np.concatenate([np.zeros(0, np.int64)] + [n for *_, n in groups]))
    tokens.flags.writeable = doc_offsets.flags.writeable = False
    vocabulary = tuple(map(terms.__getitem__, order))
    return CorpusIndex(
        **layout,
        flags=MappingProxyType(_StreamFlags(vocabulary, tokens, doc_offsets)),
        vocabulary=vocabulary,
        tokens=tokens,
        doc_offsets=doc_offsets,
    )


def query_counts(
    records: Iterable[DocumentRecord],
    queries: Iterable[TermQuery],
    bin_width: int = 2,
    anchor_year: Optional[int] = None,
) -> CellCounts:
    """The :class:`CellCounts` of a stream of records, as :func:`ingest`
    lays them out and with its id check, with the ``flags`` of each of
    ``queries``, by :func:`count_matches`' rule, without building a token
    index. With no queries, no text is looked at, and the counts are the
    layout alone.

    Only a document whose lowered ``title + " " + abstract`` holds every
    phrase and co-term token of some query is a candidate: every token
    :func:`tokenize` returns is a substring of that text, so no other
    document can match. Candidates are flushed once ``BATCH_CHARS``
    characters are buffered. A flush splits them into tokens in one byte
    pass, each query token taking an id of its own and every other token
    one more, and scans each query over those ids as an index scans its
    stream.
    """
    offset = _grid_offset(bin_width, anchor_year)
    queries = tuple(dict.fromkeys(queries))
    needles = [q.term + tuple(q.required_coterms) for q in queries]
    words = {t: i for i, t in enumerate(dict.fromkeys(t for n in needles for t in n))}
    scans = [([words[t] for t in q.term], [words[t] for t in q.required_coterms])
             for q in queries]
    # (discipline, year) -> the ids, and for each query the positions of its matches
    cells: defaultdict[Cell, tuple[list[str], list[list[int]]]] = defaultdict(
        lambda: ([], [[] for _ in queries])
    )
    # the buffered candidate texts, and each one's year cell match lists and position there
    texts, where, buffered = [], [], 0

    def flush() -> None:
        data, starts, lengths, bounds = _byte_tokens(texts)
        stream = _word_ids(data, starts, lengths, words)
        for j, (phrase, coterms) in enumerate(scans):
            for i in np.flatnonzero(_matches(phrase, coterms, stream, bounds)).tolist():
                hits, position = where[i]
                hits[j].append(position)
        texts.clear()
        where.clear()

    for rec_id, discipline, year, title, abstract in records:
        doc_ids, hits = cells[discipline, year]
        if needles:
            text = title + " " + abstract
            lowered = text.lower()
            for needle in needles:
                for n in needle:
                    if n not in lowered:
                        break
                else:
                    texts.append(text)
                    where.append((hits, len(doc_ids)))
                    buffered += len(text)
                    if buffered > BATCH_CHARS:
                        flush()
                        buffered = 0
                    break
        doc_ids.append(rec_id)
    flush()
    ordered = sorted(cells.items())
    layout = _layout(bin_width, offset, [(cell, ids) for cell, (ids, _) in ordered])
    flags = {}
    for j, query in enumerate(queries):
        matched = np.zeros(layout["n_documents"], bool)
        for start, (_, (_, hits)) in zip(layout["cell_offsets"].tolist(), ordered):
            matched[[start + h for h in hits[j]]] = True
        matched.flags.writeable = False
        flags[query] = matched
    return CellCounts(**layout, flags=MappingProxyType(flags))


def _byte_tokens(texts: Sequence[str]) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray]:
    """The ``texts`` joined by " " as UTF-8 bytes, with one " " before and
    after, an ASCII text translated as :func:`tokenize` translates it and any
    other text replaced by its tokens joined by " "; the start and length in
    those bytes of each token tokenize keeps, as int32 where the bytes'
    length allows; and the token bounds: text i holds tokens ``bounds[i]``
    to ``bounds[i + 1] - 1``."""
    texts = [t if t.isascii() else " ".join(tokenize(t)) for t in texts]
    # text i starts past byte text_starts[i], so its first token is the first to start there
    sizes = (len(t) if t.isascii() else len(t.encode()) for t in texts)
    text_starts = _offsets(np.fromiter(sizes, np.int64, len(texts)) + 1)
    data = " ".join(["", *texts, ""]).encode().translate(_TOKEN_BYTES)
    word = np.frombuffer(data, np.uint8) != ord(" ")
    # with a space at either end, tokens start and end in turn where word and space meet
    edges = np.flatnonzero(word[1:] != word[:-1])
    del word
    index = _index_type(len(data))
    starts, lengths = (edges[::2] + 1).astype(index), (edges[1::2] - edges[::2]).astype(index)
    del edges
    # single letters go, single digits stay
    keep = (lengths > 1) | (np.frombuffer(data, np.uint8)[starts] < ord("a"))
    starts, lengths = starts[keep], lengths[keep]
    return data, starts, lengths, np.searchsorted(starts, text_starts)


def _word_ids(data: bytes, starts, lengths, words: Mapping[str, int]) -> np.ndarray:
    """The id in ``words`` of each token of :func:`_byte_tokens`, and
    ``len(words)`` for a token that is none of them."""
    ids = np.full(len(starts), len(words), np.int32)
    keys = _byte_keys(data)
    for word, i in words.items():
        word_bytes = word.encode()
        at = np.flatnonzero(lengths == len(word_bytes))
        for k in range(0, len(word_bytes), 8):
            piece = word_bytes[k : k + 8]
            shift = 8 * (8 - len(piece))
            at = at[keys[starts[at] + k] >> shift == int.from_bytes(piece, "big")]
        ids[at] = i
    return ids


def _byte_keys(data: bytes) -> np.ndarray:
    """The 8 bytes from each offset of ``data`` as one big-endian integer;
    8 zero bytes pad the end."""
    return np.ndarray((len(data),), ">u8", data + bytes(8), 0, (1,))


def _index_type(size: int) -> type:
    """int32 for offsets into ``size`` bytes where they fit, else int64."""
    return np.int32 if size < 1 << 31 else np.int64


def _grid_offset(bin_width: int, anchor_year: Optional[int]) -> int:
    # the default anchor, the earliest year rounded down, is a multiple of bin_width
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    return 0 if anchor_year is None else anchor_year % bin_width


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


def count_matches(
    index: CellCounts,
    query: TermQuery,
    discipline: str,
    time_bin: int,
) -> int:
    """Documents matching ``query`` in the bin of ``discipline`` starting at ``time_bin``."""
    if discipline not in index.discipline_totals:
        raise UnknownDiscipline(f"unknown discipline {discipline!r}")
    if not any(b.start_year == time_bin for b in index.bins):
        raise UnknownBin(f"no bin starting at year {time_bin}")
    try:
        flags = index.flags[query]
    except KeyError:
        raise InvalidQuery(f"no counts were taken for query {query.label()!r}") from None
    first, last = index.documents(discipline, time_bin)
    return int(np.count_nonzero(flags[first:last]))


# ---------------------------------------------------------------------------
# Record I/O: JSON-lines and CSV with the same field names.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _open_read(
    path: Union[str, IO[str]], error: type[TermflowError], newline: Optional[str] = None
) -> Iterator[IO[str]]:
    """A text handle on ``path``: a handle as it is, standard input for "-",
    or the file at ``path`` read as UTF-8 and closed on exit. A byte of that
    file that is not UTF-8 raises ``error``, naming its line and offset."""
    if hasattr(path, "read"):
        yield path
    elif path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8", newline=newline) as handle, _decoding(path, error):
            yield handle


@contextlib.contextmanager
def _decoding(path: str, error: type[TermflowError]) -> Iterator[None]:
    """Turn a ``UnicodeDecodeError`` into ``error``, naming the line and
    offset of the first byte of the file at ``path`` that does not decode."""
    try:
        yield
    except UnicodeDecodeError as exc:
        where = _first_undecodable(path)
        if where is None:
            raise
        raise error(where) from exc


def _first_undecodable(path: str) -> Optional[str]:
    r"""``line N: not UTF-8 (byte 0xNN at offset M)`` for the first byte of
    the file at ``path`` that does not decode as UTF-8, read again in chunks;
    None if every byte decodes. Lines end at "\n", "\r" or "\r\n", as the
    readers count them, and ``M`` counts bytes from 0."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line, offset = 1, 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 16)
            if chunk.endswith(b"\r"):  # a chunk never splits "\r\n"
                chunk += handle.read(1)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # exc.object is the incomplete character the decoder held back, then chunk
                at = exc.start - (len(exc.object) - len(chunk))
                line += _line_ends(chunk[: max(at, 0)])
                byte = exc.object[exc.start]
                return f"line {line}: not UTF-8 (byte {byte:#04x} at offset {offset + at})"
            if not chunk:
                return None
            line += _line_ends(chunk)
            offset += len(chunk)


def _line_ends(data: bytes) -> int:
    r"""How many "\n", "\r" and "\r\n" line ends ``data`` holds."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def read_jsonl_records(path: Union[str, IO[str]]) -> Iterator[DocumentRecord]:
    """Yield records from a JSON-lines file (one object per line).

    A line that is one JSON value and then JSON whitespace is decoded by the
    scanner alone; any other line takes ``json.loads``, which words every error."""
    with _open_read(path, MalformedRecord) as handle:
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
    with _open_read(path, error, newline="") as handle:
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


def _plain_csv_rows(
    path: Union[str, IO[str]], fields: Sequence[str], keep: Collection[str], bits: str
) -> Optional[list[tuple[str, ...]]]:
    r"""The values, in ``fields`` order, of the rows :func:`read_csv_rows`
    yields whose ``fields[0]`` value may be in ``keep``, if ``path`` names a
    plain file: a regular file that decodes as UTF-8, holds no '"', no NUL
    and no "\r" but before "\n" or at its end, passes every check of
    read_csv_rows and holds only "0" or "1" in its field ``bits``. None for
    any other file, standard input or a handle, which read_csv_rows reads
    and words exactly.

    The file is read in chunks of ``BATCH_CHARS`` bytes cut at line ends.
    numpy finds each chunk's commas and line ends, and checks every row by
    them. A row is decoded only if a 16-bit hash of the length and first 8
    bytes of its ``fields[0]`` value is that of a kept value: every row
    whose value is kept, and a few others, which the caller checks.
    """
    if hasattr(path, "read") or path == "-":
        return None
    wanted = [value.encode("utf-8", "surrogatepass") for value in keep]
    hashed = np.zeros(1 << 16, bool)
    hashed[_prefix_hash([int.from_bytes(w[:8], "big") for w in wanted], [*map(len, wanted)])] = True
    limit = csv.field_size_limit()
    rows = []
    with open(path, "rb") as handle:
        if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            return None  # a pipe could not be read again
        header = handle.readline()
        if not _plain(header):
            return None
        header = header.decode().removesuffix("\n").removesuffix("\r").split(",")
        if set(header) != set(fields) or max(map(len, header)) > limit:
            return None
        column = {name: i for i, name in enumerate(header)}
        picks, first, flag = [column[f] for f in fields], column[fields[0]], column[bits]
        while data := handle.read(BATCH_CHARS):
            data += handle.readline()
            if not _plain(data):
                return None
            data += b"" if data.endswith(b"\n") else b"\n"
            chars = np.frombuffer(data, np.uint8)
            # a field ends at a comma or a line end, less the "\r" of a "\r\n"
            ends = chars == ord(",")
            ends |= chars == ord("\n")
            ends = np.flatnonzero(ends).astype(_index_type(len(data)))
            line_ends = np.flatnonzero(chars[ends] == ord("\n"))
            starts = np.roll(ends + 1, 1)
            starts[0] = 0
            crlf = chars[ends - 1] == ord("\r")
            ends -= crlf
            # a blank line is one empty field; every other line must be a full row
            n_fields = np.diff(line_ends, prepend=-1)
            blank = (n_fields == 1) & (starts[line_ends] == ends[line_ends])
            if not np.all((n_fields == len(header)) | blank) or np.count_nonzero(
                chars == ord("\r")
            ) != np.count_nonzero(crlf[line_ends]):
                return None
            starts = np.delete(starts, line_ends[blank]).reshape(-1, len(header))
            sizes = np.delete(ends, line_ends[blank]).reshape(-1, len(header)) - starts
            bit = chars[starts[:, flag]]
            if sizes.max(initial=0) > limit or not np.all(
                (sizes[:, flag] == 1) & ((bit == ord("0")) | (bit == ord("1")))
            ):
                return None
            n = sizes[:, first]
            shift = (64 - 8 * np.minimum(n, 8)).astype(np.uint64)
            heads = _byte_keys(data)[starts[:, first]] >> shift
            for r in np.flatnonzero(hashed[_prefix_hash(heads, n)]).tolist():
                at = zip(starts[r, picks].tolist(), sizes[r, picks].tolist())
                rows.append(tuple(data[s : s + k].decode() for s, k in at))
    return rows


def _prefix_hash(heads, lengths) -> np.ndarray:
    """A 16-bit Fibonacci hash of each value's first 8 bytes, as a big-endian
    integer, and its length."""
    mixed = np.asarray(heads, np.uint64) ^ np.asarray(lengths, np.uint64)
    return (mixed * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(48)).astype(np.intp)


def _plain(data: bytes) -> bool:
    """Whether ``data`` decodes as UTF-8 and holds no '"' and no NUL."""
    try:
        if not data.isascii():
            data.decode()
    except UnicodeDecodeError:
        return False
    return b'"' not in data and b"\0" not in data


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


# rows write_csv joins, or hands to csv.writer, at a time: it holds one chunk's text
_CSV_CHUNK = 2048


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

    The header and rows go out in chunks of ``_CSV_CHUNK`` rows. A chunk
    whose fields are all ``str`` and need no quoting is joined by "," and
    "\n" in one piece; any other goes through ``csv.writer``. The bytes are
    the same either way.
    """
    if config_line is not None:
        handle.write(f"# {config_line}\n")
    writer = csv.writer(_RowEnds(handle), lineterminator="\r\n")
    rows = itertools.chain((header,), rows)
    while chunk := list(itertools.islice(rows, _CSV_CHUNK)):
        try:
            text = "\n".join(map(",".join, chunk)) + "\n"
        except TypeError:  # a field that is not a str
            writer.writerows(chunk)
            continue
        # csv.writer quotes a field holding ",", '"', "\r" or "\n", and a row
        # of one empty field; a row of none it writes as an empty line
        if (
            '"' in text
            or "\r" in text
            or text.startswith("\n")
            or "\n\n" in text
            or text.count("\n") != len(chunk)
            or text.count(",") != sum(map(len, chunk)) - len(chunk)
        ):
            writer.writerows(chunk)
        else:
            handle.write(text)


def write_jsonl_records(records: Iterable[DocumentRecord], handle: IO[str]) -> None:
    """One ``json.dumps(dict(zip(RECORD_FIELDS, rec)), sort_keys=True)`` line
    per record, byte for byte: the keys in sorted order, each string through
    json's own escaper and the year as ``int.__repr__``, as json writes it.

    A record whose text holds a surrogate code point raises
    :class:`MalformedRecord`: JSON writes it as a ``\\uXXXX`` escape, and a
    lone high one followed by a lone low one would read back as one astral
    character. Records go out in chunks of ``_CSV_CHUNK``, and only the
    texts of a chunk that holds a ``\\ud`` escape are looked at again."""
    q = _json_string
    records = iter(records)
    while chunk := list(itertools.islice(records, _CSV_CHUNK)):
        text = "".join(
            f'{{"abstract": {q(abstract)}, "discipline": {q(discipline)}, "id": {q(id_)}, '
            f'"title": {q(title)}, "year": {int.__repr__(year)}}}\n'
            for id_, discipline, year, title, abstract in chunk
        )
        # one memchr for the backslash every escape starts with, before the slower search
        if "\\" in text and "\\ud" in text:
            for record in chunk:
                for name, value in zip(RECORD_FIELDS, record):
                    if isinstance(value, str) and _SURROGATE.search(value):
                        raise MalformedRecord(
                            f"record {record[0]!r} field {name!r} holds a surrogate"
                        )
        handle.write(text)
