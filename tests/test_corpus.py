import dataclasses
import io
import json
import pickle
import re
import tracemalloc
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from termflow import corpus
from termflow.corpus import (
    DocumentRecord,
    DuplicateId,
    MalformedRecord,
    TermQuery,
    UnknownBin,
    UnknownDiscipline,
    census,
    count_matches,
    ingest,
    query_counts,
    read_csv_records,
    read_jsonl_records,
    tokenize,
    write_csv,
    write_jsonl_records,
)
from termflow.errors import TermflowError
from termflow.synth import BackgroundVocabulary, DisciplineSpec, ScenarioSpec, generate

from conftest import make_doc


def test_tokenize_acronyms_survive():
    assert tokenize("Attention Deficit Disorder (ADD)") == [
        "attention",
        "deficit",
        "disorder",
        "add",
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_splits_punctuation():
    assert tokenize("non-linear chaos!") == ["non", "linear", "chaos"]


def test_tokenize_drops_single_letters_keeps_digits():
    assert tokenize("a 7 x2 b") == ["7", "x2"]


def test_tokenize_keeps_every_token_of_a_text_without_single_letters():
    assert tokenize("Chaos in 2 nonlinear systems") == ["chaos", "in", "2", "nonlinear", "systems"]


def test_tokenize_keeps_letters_that_occur_only_inside_longer_tokens():
    assert tokenize("MBD ax a1 1b za") == ["mbd", "ax", "a1", "1b", "za"]


def test_tokenize_underscore_is_separator():
    assert tokenize("cold_fusion") == ["cold", "fusion"]


def _regex_tokens(text):
    return [t for t in re.findall(r"[^\W_]+", text.lower()) if len(t) > 1 or t.isdigit()]


def test_ascii_table_keeps_exactly_the_token_characters():
    for code in range(128):
        char = chr(code)
        is_token = re.fullmatch(r"[^\W_]", char) is not None
        assert corpus._ASCII_TABLE[code] == (char.lower() if is_token else " "), repr(char)


@given(
    st.one_of(
        st.text(st.characters(max_codepoint=127)),
        st.lists(
            st.sampled_from(list("aZ9 _-.\t") + ["ab", "Cd", "x7", "é", "É", "²", "ß", "İ"])
        ).map("".join),
    )
)
@settings(max_examples=300, deadline=None)
def test_tokenize_matches_the_regex_rule(text):
    assert tokenize(text) == _regex_tokens(text)


def test_binary_occurrence(small_index):
    # "chaos" appears in 2 math docs in 1974-75 even though one repeats it
    q = TermQuery.parse("chaos")
    assert count_matches(small_index, q, "math", 1974) == 2
    assert count_matches(small_index, q, "math", 1976) == 1
    assert count_matches(small_index, q, "education", 1976) == 1


def test_phrase_requires_adjacency():
    index = ingest([make_doc("phys", 1990, "fusion cold start")])
    with pytest.raises(Exception):
        # single-discipline corpora are fine for counting; only bad bins fail
        count_matches(index, TermQuery.parse("cold fusion"), "phys", 1992)
    assert count_matches(index, TermQuery.parse("cold fusion"), "phys", 1990) == 0
    index2 = ingest([make_doc("phys", 1990, "a cold fusion claim")])
    assert count_matches(index2, TermQuery.parse("cold fusion"), "phys", 1990) == 1


def test_coterm_constraint():
    index = ingest(
        [
            make_doc("psych", 1984, "add attention problems"),
            make_doc("psych", 1984, "add sugar to taste"),
        ]
    )
    with_coterm = TermQuery.parse("add", coterms=["attention"])
    assert count_matches(index, with_coterm, "psych", 1984) == 1
    assert count_matches(index, TermQuery.parse("add"), "psych", 1984) == 2


def test_title_and_abstract_both_count_once():
    index = ingest([make_doc("phys", 1990, "quark models", title="Quark soup")])
    assert count_matches(index, TermQuery.parse("quark"), "phys", 1990) == 1


def test_empty_cell_counts_zero(small_index):
    q = TermQuery.parse("nonexistent")
    assert count_matches(small_index, q, "education", 1974) == 0


def test_unknown_discipline_and_bin(small_index):
    q = TermQuery.parse("chaos")
    with pytest.raises(UnknownDiscipline):
        count_matches(small_index, q, "physics", 1974)
    with pytest.raises(UnknownBin):
        count_matches(small_index, q, "math", 1950)


def test_empty_stream():
    index = ingest([])
    assert index.disciplines == ()
    assert index.bins == ()
    assert index.n_documents == 0


def test_duplicate_id_rejected():
    rec = make_doc("math", 1990, "whatever")
    dup = DocumentRecord(rec.id, "math", 1991, "", "other text")
    with pytest.raises(DuplicateId):
        ingest([rec, dup])


def test_malformed_records():
    with pytest.raises(MalformedRecord):
        ingest([DocumentRecord("x1", "", 1990, "", "text")])
    with pytest.raises(MalformedRecord):
        ingest([DocumentRecord("x2", "math", 999, "", "text")])
    with pytest.raises(MalformedRecord):
        ingest([DocumentRecord("x3", "math", "1990", "", "text")])


def test_document_record_semantics():
    fields = ("d1", "math", 1990, "On Chaos", "chaos theory")
    rec = DocumentRecord(*fields)
    assert rec == DocumentRecord(
        id="d1", discipline="math", year=1990, title="On Chaos", abstract="chaos theory"
    )
    assert not rec != DocumentRecord(*fields)
    assert (rec.id, rec.discipline, rec.year, rec.title, rec.abstract) == fields
    assert rec != DocumentRecord("d2", *fields[1:])
    # equal only to another record, never to the plain tuple of its fields
    assert not rec == fields and rec != fields
    assert not fields == rec and fields != rec
    assert hash(rec) == hash(fields)
    assert repr(rec) == (
        "DocumentRecord(id='d1', discipline='math', year=1990, title='On Chaos',"
        " abstract='chaos theory')"
    )
    for name in corpus.RECORD_FIELDS + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, name, "x")
    with pytest.raises(AttributeError):
        del rec.year
    assert rec == DocumentRecord(*fields)
    assert pickle.loads(pickle.dumps(rec)) == rec
    # the named-tuple helpers validate too
    assert DocumentRecord._make(fields) == rec
    assert rec._replace(year=1991) == DocumentRecord("d1", "math", 1991, *fields[3:])
    with pytest.raises(MalformedRecord, match="unparsable year '1990'"):
        DocumentRecord._make(("d1", "math", "1990", "", ""))
    with pytest.raises(MalformedRecord, match="year 999 outside"):
        rec._replace(year=999)

    cases = [
        (("", "math", 1990, "", ""), "record id must be a non-empty string, got ''"),
        ((7, "math", 1990, "", ""), "record id must be a non-empty string, got 7"),
        (("x", " ", 1990, "", ""), "record 'x' has an empty discipline"),
        (("x", None, 1990, "", ""), "record 'x' has an empty discipline"),
        (("x", "math", "1990", "", ""), "record 'x' has unparsable year '1990'"),
        (("x", "math", True, "", ""), "record 'x' has unparsable year True"),
        (("x", "math", 999, "", ""), "record 'x' year 999 outside [1000, 3000]"),
        (("x", "math", 3001, "", ""), "record 'x' year 3001 outside [1000, 3000]"),
        (("x", "math", 1990, None, ""), "record 'x' title/abstract must be strings"),
        (("x", "math", 1990, "", 5), "record 'x' title/abstract must be strings"),
    ]
    for args, message in cases:
        with pytest.raises(MalformedRecord) as exc:
            DocumentRecord(*args)
        assert str(exc.value) == message
        with pytest.raises(MalformedRecord) as exc:
            DocumentRecord(**dict(zip(corpus.RECORD_FIELDS, args)))
        assert str(exc.value) == message


def test_bins_anchor_even_and_partition(small_index):
    assert [b.start_year for b in small_index.bins] == [1974, 1976]
    # 1975 joins 1974's bin, 1977 joins 1976's
    assert small_index.doc_count("math", 1974) == 2
    assert small_index.doc_count("math", 1976) == 2
    # a start off the grid is no bin, though years 1975-1976 hold documents
    assert small_index.doc_count("math", 1975) == 0


def test_odd_min_year_rounds_down():
    index = ingest([make_doc("math", 1975, "chaos")], bin_width=2)
    assert index.bins[0].start_year == 1974


def test_anchor_year_configurable():
    index = ingest([make_doc("math", 1976, "chaos")], bin_width=2, anchor_year=1975)
    assert index.bins[0].start_year == 1975


def _doc_counts(index):
    """``{(discipline, bin start): documents}`` over every discipline and bin."""
    return {
        (d, b.start_year): index.doc_count(d, b.start_year)
        for d in index.disciplines
        for b in index.bins
    }


def test_doc_counts_sum_to_total(small_index):
    assert sum(_doc_counts(small_index).values()) == small_index.n_documents


def test_count_never_exceeds_cell_total(small_index):
    for term in list(small_index.postings):
        q = TermQuery(term=(term,))
        for disc in small_index.disciplines:
            for start in (b.start_year for b in small_index.bins):
                assert count_matches(small_index, q, disc, start) <= small_index.doc_count(
                    disc, start
                )


@given(
    st.lists(
        st.lists(st.sampled_from(["chaos", "entropy", "quark", "wave"]), min_size=1, max_size=6),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_duplicating_tokens_never_changes_counts(token_lists, dup_factor):
    base = [
        DocumentRecord(f"d{i}", "disc", 1990 + (i % 3), "", " ".join(tokens))
        for i, tokens in enumerate(token_lists)
    ]
    duplicated = [
        DocumentRecord(f"d{i}", "disc", 1990 + (i % 3), "", " ".join(tokens * dup_factor))
        for i, tokens in enumerate(token_lists)
    ]
    a, b = ingest(base), ingest(duplicated)
    assert a.postings == b.postings
    assert _doc_counts(a) == _doc_counts(b)


def test_index_is_immutable(small_index):
    with pytest.raises(Exception):
        small_index.n_documents = 99
    counted = census([make_doc("math", 1974, "chaos")])
    for layout in (small_index, counted):
        with pytest.raises(TypeError):
            layout.discipline_totals["math"] = 1000
    assert (small_index.discipline_totals["math"], counted.discipline_totals["math"]) == (4, 1)


def test_jsonl_round_trip(tmp_path):
    records = [make_doc("math", 1990, "chaos theory", title="On Chaos")]
    path = tmp_path / "corpus.jsonl"
    with open(path, "w") as handle:
        write_jsonl_records(records, handle)
    loaded = list(read_jsonl_records(str(path)))
    assert loaded == records


class _Year(int):
    """An int whose own repr and format differ from the integer's."""

    def __repr__(self):
        return f"_Year({int(self)})"

    __str__ = __repr__

    def __format__(self, spec):
        return "year"


# all of Unicode, lone surrogates and controls included, plus the characters
# an escaper treats specially
_ANY_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\x00\x1f\x7f\x80\u2028\u2029\ud800\udfff\U0001f600'),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            _ANY_TEXT.filter(bool),
            _ANY_TEXT.filter(str.strip),
            st.builds(lambda kind, year: kind(year), st.sampled_from([int, _Year]), st.integers(1000, 3000)),
            _ANY_TEXT,
            _ANY_TEXT,
        ),
        max_size=4,
    )
)
def test_jsonl_lines_equal_json_dumps_and_read_back(fields):
    records = [DocumentRecord(*f) for f in fields]
    buf = io.StringIO()
    write_jsonl_records(records, buf)
    expected = [json.dumps(dict(zip(corpus.RECORD_FIELDS, rec)), sort_keys=True) for rec in records]
    assert buf.getvalue() == "".join(line + "\n" for line in expected)
    # JSON cannot tell a lone high surrogate followed by a lone low one from
    # the pair of an astral character, so both read back as that character
    joined = [
        DocumentRecord(*(
            f.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")
            if isinstance(f, str) else f
            for f in rec
        ))
        for rec in records
    ]
    buf.seek(0)
    assert list(read_jsonl_records(buf)) == joined


def test_jsonl_rejects_extra_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(
            {
                "id": "a",
                "discipline": "math",
                "year": 1990,
                "title": "",
                "abstract": "",
                "extra": 1,
            }
        )
        + "\n"
    )
    with pytest.raises(MalformedRecord):
        list(read_jsonl_records(str(path)))


def test_jsonl_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "a", "discipline": "math", "year": 1990}) + "\n")
    with pytest.raises(MalformedRecord):
        list(read_jsonl_records(str(path)))


# field text that CSV must quote: commas, double quotes, "\r" and "\n"
_CSV_TEXT = st.text(alphabet='ab ,"\r\n', max_size=6)


@given(
    st.lists(
        st.builds(
            DocumentRecord,
            _CSV_TEXT.filter(bool),
            _CSV_TEXT.filter(str.strip),
            st.integers(corpus.YEAR_MIN, corpus.YEAR_MAX),
            _CSV_TEXT,
            _CSV_TEXT,
        ),
        max_size=5,
    )
)
@example([DocumentRecord("a1", "math", 1990, "On Chaos", "chaos, strange attractors")])
# a quoted "\r" or "\r\n" read back as "\n" while files were opened without newline=""
@example([DocumentRecord("a\rb", "math", 1990, "x\r\ny", "")])
@settings(max_examples=150, deadline=None)
def test_csv_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("csv") / "corpus.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_csv(handle, corpus.RECORD_FIELDS, records)
    assert list(read_csv_records(str(path))) == records


def test_csv_unparsable_year(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("id,discipline,year,title,abstract\na1,math,ninety,,x\n")
    with pytest.raises(MalformedRecord):
        list(read_csv_records(str(path)))


def test_csv_year_follows_json_integer_grammar(tmp_path):
    # int() alone reads each of these refused years as 1990, 1991 or 1992
    path = tmp_path / "corpus.csv"
    for year in ("1_990", " +1991 ", "\u0661\u0669\u0669\u0662", "01990"):
        path.write_text(f'id,discipline,year,title,abstract\na1,math,"{year}",t,chaos\n')
        with pytest.raises(MalformedRecord) as exc:
            list(read_csv_records(str(path)))
        assert str(exc.value) == f"line 2: unparsable year {year!r}"
    path.write_text("id,discipline,year,title,abstract\na1,math,1990,t,chaos\n")
    assert [rec.year for rec in read_csv_records(str(path))] == [1990]


_FIELDS_MESSAGE = "expected exactly the fields id, discipline, year, title, abstract"


def test_csv_rejects_extra_fields(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "id,discipline,year,title,abstract\na1,math,1990,t,chaos\na2,math,1991,t,chaos,EXTRA\n"
    )
    with pytest.raises(MalformedRecord, match=f"^line 3: {_FIELDS_MESSAGE}$"):
        list(read_csv_records(str(path)))


def test_csv_rejects_missing_fields(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "id,discipline,year,title,abstract\na1,math,1990,t,chaos\na2,math,1991\n"
    )
    with pytest.raises(MalformedRecord, match=f"^line 3: {_FIELDS_MESSAGE}$"):
        list(read_csv_records(str(path)))


def test_csv_rejects_unknown_fields(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("id,discipline,year,title,summary\na1,math,1990,t,chaos\n")
    with pytest.raises(
        MalformedRecord, match="^CSV header must be exactly id, discipline, year, title, abstract$"
    ):
        list(read_csv_records(str(path)))


def _reference_jsonl_records(handle):
    """The JSON-lines reader as one ``json.loads`` per line, field check by sets."""
    for lineno, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise MalformedRecord(f"line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise MalformedRecord(f"line {lineno}: expected a JSON object")
        if set(obj) != set(corpus.RECORD_FIELDS):
            raise MalformedRecord(
                f"line {lineno}: expected exactly the fields {', '.join(corpus.RECORD_FIELDS)}"
            )
        yield DocumentRecord(**obj)


def _read_outcome(reader, text, newline):
    """The records ``reader`` yields from ``text``, then its error type and message."""
    return _outcome(reader(io.StringIO(text, newline=newline)))


def _outcome(read):
    """The records the iterator ``read`` yields, then its error type and message."""
    records = []
    try:
        for rec in read:
            records.append(rec)
    except Exception as exc:  # the outcome is compared, not handled
        return records, type(exc), str(exc)
    return records, None, None


_RECORD = '{"id": "a", "discipline": "math", "year": 1990, "title": "", "abstract": "chaos"}'
# every character str.strip removes (JSON whitespace is four of them), and the BOM
_SPACES = "".join(c for c in map(chr, range(0x3001)) if c.isspace()) + "\ufeff"
# one valid line, then each way a line can go wrong
_LINE_MUTATIONS = (
    lambda line, extra: line,
    lambda line, extra: extra + line,
    lambda line, extra: line + extra,
    lambda line, extra: extra,
    lambda line, extra: "",
    lambda line, extra: line + " x",
    lambda line, extra: line + line,
    lambda line, extra: line + " " + json.dumps(extra),
    lambda line, extra: json.dumps(extra),
    lambda line, extra: json.dumps([extra, 1]),
    lambda line, extra: "null",
    lambda line, extra: '{"id": "dup", ' + line[1:],
    lambda line, extra: line.replace('"title": "", ', ""),
    lambda line, extra: line[:-1] + ', "extra": 1}',
    lambda line, extra: line.replace('"title"', '"summary"'),
    lambda line, extra: line.replace("1990", "NaN"),
    lambda line, extra: line.replace("1990", "-Infinity"),
    lambda line, extra: line.replace("1990", "1990.0"),
    lambda line, extra: line.replace("1990", "true"),
    lambda line, extra: line.replace("1990", "1" * 30),
    lambda line, extra: line.replace("1990", "9" * 5000),
    lambda line, extra: line.replace("1990", "01990"),
    lambda line, extra: line.replace('""', "[" * 40 + "]" * 40),
    lambda line, extra: line.replace('""', "[" * 5000 + "]" * 5000),
    lambda line, extra: line.replace("chaos", "\\x41"),
    lambda line, extra: line.replace("chaos", "\\ud800"),
    lambda line, extra: line.replace("chaos", extra),
    lambda line, extra: line.replace("chaos", "\\u00e9\\n\\t"),
    lambda line, extra: "\ufeff" + line,
)


def _record_line(draw):
    fields = dict(
        id=draw(st.text(min_size=0, max_size=4)),
        discipline=draw(st.sampled_from(["math", " ", "physé"])),
        year=draw(st.sampled_from([1990, 999, 3001])),
        title=draw(st.text(max_size=4)),
        abstract="chaos",
    )
    keys = draw(st.permutations(list(fields)))
    line = json.dumps({k: fields[k] for k in keys}, ensure_ascii=draw(st.booleans()))
    # most mutations edit the year, title or abstract of _RECORD's layout
    return line if draw(st.booleans()) else _RECORD


@st.composite
def _jsonl_files(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        mutate = draw(st.sampled_from(_LINE_MUTATIONS))
        extra = draw(st.text(st.sampled_from(_SPACES + "\x00\x01\x1fa"), max_size=3))
        lines.append(mutate(_record_line(draw), extra))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


# hand-made edge cases, each read as a one-line file
_EDGE_LINES = (
    "\x0c", "\x1c", "\xa0", _RECORD + "\x0c", "\x0c" + _RECORD, _RECORD + "\x1c",
    "\xa0" + _RECORD, _RECORD + "\xa0", "\ufeff" + _RECORD, "  " + _RECORD, "\t" + _RECORD,
    _RECORD + "  \t\r", "   ", _RECORD + " x", _RECORD + _RECORD, _RECORD + " " + _RECORD,
    "[1]", "1", "null",
    '{"id": ' + "[" * 5000 + "]" * 5000 + "}",
    _RECORD.replace("1990", "9" * 5000),
    _RECORD.replace("1990", "NaN"),
    _RECORD.replace("chaos", "\\ud800"),
    '{"id": "dup", ' + _RECORD[1:],
    _RECORD.replace('"title": "", ', ""),
    _RECORD[:-1] + ', "extra": 1}',
    _RECORD.replace("chaos", "a\x01b"),
)


def _with_edge_examples(test):
    for line in _EDGE_LINES:
        test = example(text=line + "\n", newline=None)(test)
    return test


@_with_edge_examples
@example(text=_RECORD + "\r\n" + _RECORD + "\r\n\r\n", newline="")
@given(text=_jsonl_files(), newline=st.sampled_from([None, ""]))
@settings(max_examples=120, deadline=None)
def test_jsonl_reader_equals_a_json_loads_loop(text, newline):
    assert _read_outcome(read_jsonl_records, text, newline) == _read_outcome(
        _reference_jsonl_records, text, newline
    )


# its "\r\n" read as "\n", json.loads places this line's error at "char 11", not 12
@example(text='{"id": "a"\r\n')
@given(text=_jsonl_files())
@settings(max_examples=40, deadline=None)
def test_jsonl_file_reads_with_newline_translation(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(read_jsonl_records(str(path))) == _read_outcome(
        _reference_jsonl_records, text, None
    )


def test_query_normalization_enforced():
    with pytest.raises(ValueError):
        TermQuery(term=("Chaos",))
    q = TermQuery.parse("Cold FUSION", coterms=["Plasma"])
    assert q.term == ("cold", "fusion")
    assert q.required_coterms == frozenset({"plasma"})
    assert q.label() == "cold fusion+plasma"


# Corpora of 1-3 disciplines over a few words, so tokens repeat, phrases
# overlap ("aa aa aa") and some documents have no tokens at all.
_WORDS = ("aa", "bb", "cc", "42")
_corpora = st.lists(
    st.tuples(
        st.sampled_from(("x", "y", "z")),
        st.integers(min_value=1990, max_value=1996),
        st.lists(st.sampled_from(_WORDS + ("!",)), max_size=8),
    ),
    min_size=1,
    max_size=24,
).map(
    lambda docs: [
        DocumentRecord(f"d{i}", disc, year, "", " ".join(words))
        for i, (disc, year, words) in enumerate(docs)
    ]
)
_queries = st.tuples(
    st.lists(st.sampled_from(_WORDS + ("zz",)), min_size=1, max_size=3),
    st.frozensets(st.sampled_from(_WORDS + ("zz",)), max_size=2),
)


def _reference_count(records, query, discipline, time_bin):
    """Documents of the cell matching ``query``, by a scan of each document."""
    count = 0
    for rec in records:
        if rec.discipline != discipline or not (
            time_bin.start_year <= rec.year < time_bin.start_year + time_bin.width_years
        ):
            continue
        tokens = tuple(tokenize(rec.title + " " + rec.abstract))
        if not query.required_coterms <= set(tokens):
            continue
        n = len(query.term)
        if any(tokens[i : i + n] == query.term for i in range(len(tokens) - n + 1)):
            count += 1
    return count


def _three_kinds(phrase, coterms):
    """One-token, phrase and phrase+co-term queries from one generated draw."""
    return [
        TermQuery(term=tuple(phrase[:1])),
        TermQuery(term=tuple(phrase)),
        TermQuery(term=tuple(phrase), required_coterms=coterms),
    ]


# bin grids: a width and an anchor year, or none for the default anchor
_grids = st.tuples(st.integers(1, 4), st.none() | st.integers(1985, 1997))


@given(_corpora, _queries, _grids)
@example(  # the phrase would span two adjacent documents of one cell
    [DocumentRecord("d0", "x", 1990, "", "cc aa"), DocumentRecord("d1", "x", 1990, "bb", "")],
    (["aa", "bb"], frozenset()),
    (1, None),
)
@settings(max_examples=150, deadline=None)
def test_count_matches_equals_a_document_scan(records, query_parts, grid):
    index = ingest(records, *grid)
    for query in _three_kinds(*query_parts):
        for disc in index.disciplines:
            for b in index.bins:
                assert count_matches(index, query, disc, b.start_year) == _reference_count(
                    records, query, disc, b
                ), (query, disc, b)
    # the derived counts: each term's postings by cell and term_counts by discipline
    terms, table = index.term_counts
    assert terms == index.vocabulary == tuple(index.postings)
    for t, term in enumerate(terms):
        cells = index.postings[term]
        assert list(cells) == sorted(cells) and 0 not in cells.values()
        query = TermQuery(term=(term,))
        for col, disc in enumerate(index.disciplines):
            expected = [_reference_count(records, query, disc, b) for b in index.bins]
            assert [cells.get((disc, b.start_year), 0) for b in index.bins] == expected
            assert table[t, col] == sum(expected), (term, disc)
    # term_counts reads runs of year cells cut at any token budget to the same
    # table, and only a run of one year cell passes the budget
    one_cell = set(zip(index.cell_offsets[:-1].tolist(), index.cell_offsets[1:].tolist()))
    real_term_counts = corpus.CorpusIndex._term_counts
    for budget in (0, 3, 10):
        runs = []

        def recording(self, first, last):
            runs.append((int(first), int(last)))
            return real_term_counts(self, first, last)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "COUNT_TOKENS", budget)
            patch.setattr(corpus.CorpusIndex, "_term_counts", recording)
            assert np.array_equal(ingest(records, *grid).term_counts[1], table), budget
        for first, last in runs:
            tokens = index.doc_offsets[last] - index.doc_offsets[first]
            assert tokens <= budget or (first, last) in one_cell, (budget, first, last)


def _cell_documents(index):
    """Each year cell's documents as term-id tuples, sorted."""
    return [
        sorted(
            tuple(index.tokens[index.doc_offsets[d] : index.doc_offsets[d + 1]].tolist())
            for d in range(index.cell_offsets[c], index.cell_offsets[c + 1])
        )
        for c in range(len(index.cells))
    ]


@given(_corpora, st.permutations(range(24)), _grids, st.integers(0, 40), _queries)
@example(  # the year cell (x, 1990) spans two flushes, with (y, 1990) flushed between
    [DocumentRecord("d0", "x", 1990, "", "aa"), DocumentRecord("d1", "y", 1990, "", "bb"),
     DocumentRecord("d2", "x", 1990, "", "cc")],
    list(range(24)),
    (2, None),
    0,
    (["aa"], frozenset()),
)
@settings(max_examples=100, deadline=None)
def test_ingest_in_any_record_order_and_flushing_equals_ingest_of_the_whole(
    records, permutation, grid, batch_chars, query_parts
):
    shuffled = [records[i] for i in permutation if i < len(records)]
    # flushes after a few records, so that _build gets one year cell's groups
    # split and out of year-cell order
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "BATCH_CHARS", batch_chars)
        flushed = ingest(shuffled, *grid)
    # flush points move no document: the same records in one flush give the same arrays
    one_flush = ingest(shuffled, *grid)
    for name in ("tokens", "doc_offsets", "cell_offsets"):
        assert getattr(flushed, name).tolist() == getattr(one_flush, name).tolist(), name
    whole = ingest(records, *grid)
    assert _doc_counts(flushed) == _doc_counts(whole)
    assert flushed.bins == whole.bins
    assert flushed.n_documents == whole.n_documents
    assert flushed.vocabulary == whole.vocabulary
    assert flushed.cells == whole.cells
    # record order moves documents only within their year cell
    assert _cell_documents(flushed) == _cell_documents(whole)
    assert flushed.postings == whole.postings
    assert flushed.term_counts[0] == whole.term_counts[0]
    assert np.array_equal(flushed.term_counts[1], whole.term_counts[1])
    for query in _three_kinds(*query_parts):
        for disc in whole.disciplines:
            for b in whole.bins:
                assert count_matches(flushed, query, disc, b.start_year) == count_matches(
                    whole, query, disc, b.start_year
                )


# Texts that are empty, non-ASCII or hold "\x00", the first separator ingest
# tries to join a group's texts with, in any letter case, and the second.
_any_case_separator = st.integers(0, 2 ** len(corpus.DOC_SEPARATOR) - 1).map(
    lambda upper: "".join(
        c.upper() if upper >> i & 1 else c for i, c in enumerate(corpus.DOC_SEPARATOR)
    )
)
_texts = st.tuples(
    st.sampled_from((" ", "", "\x00", "-")),
    st.lists(
        st.one_of(
            st.sampled_from(
                ("", "aa", "Éé", "ΣΑΣ", "x\x00y", "\x00", "42", "termflowdocsep1")
            ),
            _any_case_separator,
            st.text(max_size=6),
        ),
        max_size=4,
    ),
).map(lambda draw: draw[0].join(draw[1]))
_batch_records = st.lists(
    st.tuples(st.sampled_from(("x", "y")), st.integers(1990, 1993), _texts, _texts),
    min_size=1,
    max_size=16,
).map(
    lambda docs: [
        DocumentRecord(f"d{i}", disc, year, title, abstract)
        for i, (disc, year, title, abstract) in enumerate(docs)
    ]
)


@given(_batch_records, st.integers(min_value=0, max_value=40), st.integers(1, 3))
@example(  # groups are batched before a document holds the separator, and after it
    [
        DocumentRecord("d0", "x", 1990, "aa bb", "cc"),
        DocumentRecord("d1", "x", 1990, "", "bb"),
        DocumentRecord("d2", "y", 1991, "cc", "aa"),
        DocumentRecord("d3", "x", 1991, "Termflowdocsep0", "aa termflowdocsep0"),
        DocumentRecord("d4", "x", 1991, "cc", ""),
        DocumentRecord("d5", "x", 1990, "bb", "aa"),
        DocumentRecord("d6", "x", 1990, "aa", ""),
    ],
    12,
    2,
)
@example(  # one group holds both the first and the second separator
    [
        DocumentRecord("d0", "x", 1990, "termflowdocsep0 aa", "bb"),
        DocumentRecord("d1", "x", 1990, "TermflowDocSep1", "termflowdocsep0"),
        DocumentRecord("d2", "x", 1990, "", "aa"),
    ],
    40,
    1,
)
@example(  # a later group's first separator is a term of an earlier group
    [
        DocumentRecord("d0", "x", 1990, "aa", "termflowdocsep0"),
        DocumentRecord("d1", "x", 1990, "bb", ""),
        DocumentRecord("d2", "y", 1990, "aa bb", "cc"),
        DocumentRecord("d3", "y", 1990, "", "cc aa"),
        DocumentRecord("d4", "x", 1991, "cc", "aa"),
        DocumentRecord("d5", "x", 1991, "bb", "termflowdocsep1"),
    ],
    40,
    2,
)
@settings(max_examples=150, deadline=None)
def test_batched_ingest_equals_a_per_document_reference(records, batch_chars, width):
    anchor = 1990
    # stable: ingest orders documents by (discipline, year), then as they came
    in_group_order = sorted(records, key=lambda r: (r.discipline, r.year))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "BATCH_CHARS", batch_chars)
        index = ingest(records, bin_width=width, anchor_year=anchor)
    # the reference: each document's tokens, on the sorted vocabulary and year cells
    docs = [tokenize(r.title + " " + r.abstract) for r in in_group_order]
    vocabulary = sorted({t for doc in docs for t in doc})
    term_id = {t: i for i, t in enumerate(vocabulary)}
    per_cell = Counter((r.discipline, r.year) for r in in_group_order)
    assert index.vocabulary == tuple(vocabulary)
    assert index.cells == tuple(sorted(per_cell))
    assert index.tokens.tolist() == [term_id[t] for doc in docs for t in doc]
    assert index.doc_offsets.tolist() == list(accumulate(map(len, docs), initial=0))
    assert index.cell_offsets.tolist() == list(
        accumulate((per_cell[c] for c in index.cells), initial=0)
    )
    # and each document holds its own tokens
    terms = np.array(index.vocabulary, dtype=object)
    assert [
        terms[index.tokens[start:end]].tolist()
        for start, end in zip(index.doc_offsets[:-1], index.doc_offsets[1:])
    ] == docs


def test_ingest_tokenizes_each_group_once_and_a_group_holding_the_separator_twice():
    records = [
        DocumentRecord("d0", "x", 1990, corpus.DOC_SEPARATOR, "aa"),
        DocumentRecord("d1", "x", 1990, "bb", "cc"),
    ] + [DocumentRecord(f"d{i}", "x", 1991 + i % 3, "aa bb", "cc") for i in range(2, 32)]
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "tokenize", lambda text: calls.append(text) or tokenize(text))
        index = ingest(records)
    # four year cells in one flush, and the first tokenized again with another separator
    assert len(calls) == 5
    assert index.n_documents == 32
    assert corpus.DOC_SEPARATOR in index.vocabulary


def test_ingest_holds_one_copy_of_the_token_stream_while_it_builds_it():
    # 120,000 tokens, 80 to a document, over a 2,000-term background
    spec = ScenarioSpec(
        disciplines=(DisciplineSpec("a", 75), DisciplineSpec("b", 75)),
        year_range=(1990, 2009),
        background=BackgroundVocabulary(size=2000, tokens_per_doc=80),
        seed=3,
    )
    records, _ = generate(spec)
    tracemalloc.start()
    try:
        index = ingest(records)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.tokens) == 120_000
    # what ingest allocated and freed again, in token streams: the per-group
    # chunks beside the stream fit, one more whole copy of the stream does not
    assert peak - current <= 1.75 * index.tokens.nbytes


@st.composite
def _census_records(draw):
    """Records over a few year cells; in half the draws some ids come from a
    pool of two, so that ids repeat across cells in any order."""
    pool = ("r0", "r1", None) if draw(st.booleans()) else (None,)
    docs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("x", "y", "z")),
                st.integers(min_value=1990, max_value=1996),
                st.sampled_from(("", "Chaos!", "aa aa bb")),
                st.sampled_from(pool),
            ),
            max_size=16,
        )
    )
    return [
        DocumentRecord(rec_id or f"d{i}", disc, year, title, "")
        for i, (disc, year, title, rec_id) in enumerate(docs)
    ]


def _layout_or_error(build, records, width, anchor):
    try:
        layout = build(iter(records), width, anchor)
    except DuplicateId as exc:
        return str(exc)
    return {
        f.name: getattr(layout, f.name).tolist() if f.name == "cell_offsets"
        else getattr(layout, f.name)
        for f in dataclasses.fields(corpus.CellCounts)
    }


@given(_census_records(), st.integers(1, 3), st.none() | st.integers(1985, 1997))
@example([], 2, None)
@example(  # the repeat of r0 comes first in the file, the cell of r1 first in cell order
    [DocumentRecord("r0", "y", 1990, "", ""), DocumentRecord("r1", "x", 1991, "", ""),
     DocumentRecord("r0", "y", 1990, "", ""), DocumentRecord("r1", "x", 1991, "", "")],
    1,
    None,
)
@settings(max_examples=200, deadline=None)
def test_census_equals_the_layout_of_ingest(records, width, anchor):
    indexed = _layout_or_error(ingest, records, width, anchor)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "tokenize", None)  # census never tokenizes
        counted = _layout_or_error(census, records, width, anchor)
    if isinstance(indexed, str):
        assert counted == indexed
    else:
        for name, value in indexed.items():
            assert counted[name] == value, name


def test_duplicate_id_names_the_first_repeat_in_cell_order():
    records = [
        DocumentRecord("r0", "y", 1990, "", ""),
        DocumentRecord("r1", "x", 1990, "", ""),
        DocumentRecord("r0", "y", 1991, "", ""),
        DocumentRecord("r1", "x", 1991, "", ""),
    ]
    for build in (ingest, census):
        with pytest.raises(DuplicateId, match="^duplicate document id 'r1'$"):
            build(records)


# Texts glued from pieces: the query tokens, a token that holds one as a
# substring only ("aab"), other letter cases, a single letter and a single
# digit, the separator ingest tries first, and non-ASCII text, among it "İ",
# whose .lower() is one character longer. A phrase may be split by a single
# letter, "_" or punctuation, or glued into one token.
_PIECES = ("aa", "bb", "7", "42", "aab", "AA", "b", "termflowdocsep0", "İaa", "éé", "ΣΑΣ")
_GLUE = (" ", "_", ", ", " b ", " 7 ", "")
_query_texts = st.lists(
    st.tuples(st.sampled_from(_GLUE), st.sampled_from(_PIECES)), max_size=6
).map(lambda parts: "".join(glue + piece for glue, piece in parts))
_QUERY_TOKENS = ("aa", "bb", "7", "42", "aab", "termflowdocsep0", "éé", "σας")
_query_lists = st.lists(
    st.builds(
        TermQuery,
        st.lists(st.sampled_from(_QUERY_TOKENS), min_size=1, max_size=3).map(tuple),
        st.frozensets(st.sampled_from(_QUERY_TOKENS), max_size=2),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def _query_records(draw):
    """Records over a few year cells; in a quarter of the draws an id repeats."""
    pool = ("r0", None, None) if draw(st.integers(0, 3)) == 0 else (None,)
    docs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("x", "y")),
                st.integers(min_value=1990, max_value=1995),
                _query_texts,
                _query_texts,
                st.sampled_from(pool),
            ),
            max_size=12,
        )
    )
    return [
        DocumentRecord(rec_id or f"d{i}", disc, year, title, abstract)
        for i, (disc, year, title, abstract, rec_id) in enumerate(docs)
    ]


def _count_outcome(call, *args):
    """What ``call(*args)`` returns, or the class and message of what it raises."""
    try:
        return call(*args)
    except TermflowError as exc:
        return type(exc), str(exc)


@given(_query_records(), _query_lists, st.integers(1, 3), st.none() | st.integers(1985, 1997))
@example(  # a phrase split by a single letter, by "_", and by a single digit
    [DocumentRecord("d0", "x", 1990, "AA b bb", ""), DocumentRecord("d1", "x", 1990, "aa_bb", ""),
     DocumentRecord("d2", "x", 1991, "aa 7 bb", "")],
    [TermQuery(("aa", "bb"))],
    1,
    None,
)
@example(  # a co-term only inside a longer token, and the phrase only glued to one
    [DocumentRecord("d0", "x", 1990, "aa", "aab"), DocumentRecord("d1", "x", 1990, "aa", "aabb"),
     DocumentRecord("d2", "x", 1991, "aabb", "")],
    [TermQuery(("aa",), frozenset({"aab"})), TermQuery(("aa",), frozenset({"bb"}))],
    2,
    1990,
)
@settings(max_examples=150, deadline=None)
def test_query_counts_equal_count_matches_on_ingest(records, queries, width, anchor):
    def counted(records, width, anchor):
        return query_counts(records, queries, width, anchor)

    # the same layout and the same DuplicateId as census and ingest
    layout = _layout_or_error(counted, records, width, anchor)
    assert layout == _layout_or_error(ingest, records, width, anchor)
    if isinstance(layout, str):
        return
    index = ingest(records, width, anchor)
    counts = query_counts(iter(records), queries, width, anchor)
    # every (discipline, bin), and an unknown discipline and bin start
    for query in queries:
        for disc in (*index.disciplines, "w"):
            for start in (*(b.start_year for b in index.bins), 1980):
                counted = _count_outcome(count_matches, counts, query, disc, start)
                expected = _count_outcome(count_matches, index, query, disc, start)
                assert counted == expected, (query, disc, start)


def test_query_counts_tokenize_only_the_documents_that_hold_every_query_token():
    records = [
        DocumentRecord("d0", "x", 1990, "strange attractor", "nonlinear"),
        DocumentRecord("d1", "x", 1990, "strange", "attractors"),
        DocumentRecord("d2", "x", 1991, "attractor", ""),
        DocumentRecord("d3", "y", 1990, "chaos", ""),
    ]
    phrase, chaos = TermQuery(("strange", "attractor")), TermQuery(("chaos",))
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "tokenize", lambda text: calls.append(text) or tokenize(text))
        counts = query_counts(records, [phrase, chaos, phrase])
    # d1 holds "attractor" only inside "attractors": it is tokenized, and does not match
    assert calls == ["strange attractor nonlinear", "strange attractors", "chaos "]
    assert list(counts.flags) == [phrase, chaos]
    assert counts.flags[phrase].tolist() == [True, False, False, False]
    assert counts.flags[chaos].tolist() == [False, False, False, True]
    with pytest.raises(corpus.InvalidQuery, match="no counts were taken for query 'attractor'"):
        count_matches(counts, TermQuery(("attractor",)), "x", 1990)
