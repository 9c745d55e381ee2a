import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from termflow import corpus as corpus_mod
from termflow import trend as trend_mod
from termflow.cli import build_parser, main
from termflow.corpus import DocumentRecord, TermQuery, write_jsonl_records
from termflow.diffusion import DiffusionParams
from termflow.plotting import EmptySeriesSet, growth_chart_svg
from termflow.synth import (
    BackgroundVocabulary,
    DisciplineSpec,
    ScenarioSpec,
    SuccessionStage,
    generate,
    generate_succession,
    scenario_from_json,
)
from termflow.trend import growth_pipeline

PARAMS = DiffusionParams(c=0.6, p_m=1000.0, p_0=40.0)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    spec = ScenarioSpec(
        disciplines=(
            DisciplineSpec("math", 150, 1978, PARAMS),
            DisciplineSpec("education", 150, 1988, DiffusionParams(0.35, 1000.0, 40.0)),
        ),
        year_range=(1974, 1999),
        injected_query=TermQuery.parse("chaos"),
        background=BackgroundVocabulary(size=60, exponent=1.1, tokens_per_doc=8),
        seed=4,
    )
    records, _ = generate(spec)
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    with open(path, "w") as handle:
        write_jsonl_records(records, handle)
    return str(path)


@pytest.fixture(scope="module")
def csv_corpus_path(corpus_path):
    path = Path(corpus_path).with_suffix(".csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        records = corpus_mod.read_jsonl_records(corpus_path)
        corpus_mod.write_csv(handle, corpus_mod.RECORD_FIELDS, records)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ingest_summary(corpus_path, capsys):
    code, out, _ = run_cli(["ingest", "--corpus", corpus_path], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config")
    assert lines[1] == "discipline,bin_start,documents"
    assert any(line.startswith("math,1978,150") for line in lines)


def test_commands_read_and_tokenize_through_the_corpus_module(
    corpus_path, tmp_path, monkeypatch
):
    # perfbench's tracer times a run by swapping these module attributes, and
    # the ingest command counts its cells without the token index
    calls = Counter()

    def counting(name):
        real = getattr(corpus_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("read_jsonl_records", "tokenize", "ingest", "census", "query_counts"):
        monkeypatch.setattr(corpus_mod, name, counting(name))
    argv = ["--corpus", corpus_path, "--out", str(tmp_path / "out")]
    assert main(["rank", *argv, "--discipline", "math"]) == 0
    assert calls["read_jsonl_records"] == calls["ingest"] == 1 and calls["tokenize"] > 0, calls
    assert not calls["census"], calls
    calls.clear()
    assert main(["ingest", *argv]) == 0
    assert calls == {"read_jsonl_records": 1, "census": 1}, calls
    # the query commands tokenize only the documents that hold "chaos"
    for command in (["trend", "--term", "chaos", "--discipline", "math"],
                    ["migrate", "--term", "chaos"],
                    ["fit", "--term", "chaos", "--discipline", "math"],
                    ["plot", "--series", "chaos@math", "--series", "chaos@education"]):
        calls.clear()
        assert main([*command, *argv]) == 0
        assert calls["read_jsonl_records"] == calls["query_counts"] == 1, (command, calls)
        assert not calls["ingest"] and not calls["census"], (command, calls)


@pytest.mark.parametrize("command", ["ingest", "rank"])
def test_a_late_malformed_line_is_reported_before_a_repeated_id(command, tmp_path, capsys):
    record = '{"id": "a", "discipline": "math", "year": 1990, "title": "", "abstract": ""}\n'
    path = tmp_path / "corpus.jsonl"
    path.write_text(record * 2 + "{\n", encoding="utf-8")
    argv = [command, "--corpus", str(path), "--out", str(tmp_path / "out")]
    code, _, err = run_cli(argv + (["--discipline", "math"] if command == "rank" else []), capsys)
    assert code == 1
    assert err.startswith('error code=corpus.MalformedRecord msg="line 3: invalid JSON'), err


@pytest.mark.parametrize(
    "argv",
    [["trend", "--term", "!!", "--discipline", "math"], ["migrate", "--term", "!!"],
     ["fit", "--term", "!!", "--discipline", "math"], ["plot", "--series", "!!@math"],
     ["plot", "--series", "chaos@math", "--series", "!!@math"]],
    ids=["trend", "migrate", "fit", "plot", "plot_second"],
)
def test_query_commands_report_a_repeated_id_before_an_unparsable_query(
    argv, tmp_path, capsys
):
    record = '{"id": "a", "discipline": "math", "year": 1990, "title": "chaos", "abstract": ""}\n'
    path = tmp_path / "corpus.jsonl"
    path.write_text(record * 2, encoding="utf-8")
    code, _, err = run_cli([*argv, "--corpus", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err == 'error code=corpus.DuplicateId msg="duplicate document id \'a\'"\n', err


def test_plot_reports_a_missing_discipline_suffix_before_an_unparsable_query(
    corpus_path, tmp_path, capsys
):
    argv = ["plot", "--corpus", corpus_path, "--series", "chaos", "--series", "!!@math",
            "--out", str(tmp_path / "out")]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err == (
        'error code=errors.TermflowError msg="series \'chaos\' needs an @discipline suffix"\n'
    ), err
    # and an unknown discipline of an earlier series before a later unparsable query
    argv[4:7] = ["chaos@nowhere", "--series", "!!@math"]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error code=corpus.UnknownDiscipline"), err


@pytest.mark.parametrize(
    "argv",
    [["trend", "--term", "chaos", "--discipline", "math"], ["migrate", "--term", "chaos"],
     ["fit", "--term", "chaos", "--discipline", "math"], ["plot", "--series", "chaos@math"]],
    ids=["trend", "migrate", "fit", "plot"],
)
def test_series_commands_count_through_the_trend_module(
    argv, corpus_path, tmp_path, monkeypatch
):
    # perfbench's tracer times every count by swapping this module attribute
    calls = []
    real = trend_mod.count_matches

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trend_mod, "count_matches", counting)
    assert main([*argv, "--corpus", corpus_path, "--out", str(tmp_path / "out")]) == 0
    assert calls


def test_ingest_json_format(corpus_path, capsys):
    code, out, _ = run_cli(
        ["ingest", "--corpus", corpus_path, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["documents"] == 2 * 150 * 13
    assert payload["config"]["subcommand"] == "ingest"


def test_rank_csv(corpus_path, capsys):
    code, out, _ = run_cli(
        ["rank", "--corpus", corpus_path, "--discipline", "math"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "term,k,lambda,percentile,method"
    assert lines[2].startswith("chaos,")


def test_mdelta_report(corpus_path, capsys, tmp_path):
    # annotate every corpus term: math uses its vocabulary technically far
    # more often than education does

    index = corpus_mod.ingest(corpus_mod.read_jsonl_records(corpus_path))
    rows = ["term,discipline,technical"]
    for term in index.vocabulary:
        rows.append(f"{term},math,1")
        rows.append(f"{term},education,{1 if term == 'chaos' else 0}")
    ann_path = tmp_path / "ann.csv"
    ann_path.write_text("\n".join(rows) + "\n")

    code, out, _ = run_cli(
        ["mdelta", "--corpus", corpus_path, "--annotations", str(ann_path),
         "--smooth"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "discipline,m_top,m_bottom,m_delta,label,smoothed"
    first = lines[2].split(",")
    assert first[0] == "math"  # highest top-list technical fraction ranks first
    assert first[5] == "1"


def test_trend_csv_and_plot(corpus_path, capsys, tmp_path):
    svg_path = str(tmp_path / "chart.svg")
    code, out, _ = run_cli(
        [
            "trend",
            "--corpus",
            corpus_path,
            "--term",
            "chaos",
            "--discipline",
            "math",
            "--plot",
            svg_path,
        ],
        capsys,
    )
    assert code == 0
    assert "bin_start,n,N,f,r,smoothed_r,mask_reason" in out
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    assert root.get("version") == "1.1"


def test_trend_plot_failure_writes_neither_artifact(corpus_path, capsys, tmp_path):
    # every growth point of an unseen term is masked, so the chart cannot be drawn
    csv_path, svg_path = tmp_path / "series.csv", tmp_path / "chart.svg"
    argv = ["trend", "--corpus", corpus_path, "--term", "neverseen", "--discipline", "math"]
    code, _, err = run_cli([*argv, "--out", str(csv_path), "--plot", str(svg_path)], capsys)
    assert code == 1
    assert err.startswith("error code=plotting.EmptySeriesSet ")
    assert len(err.splitlines()) == 1
    assert not csv_path.exists() and not svg_path.exists()


def test_migrate_json(corpus_path, capsys):
    code, out, _ = run_cli(
        ["migrate", "--corpus", corpus_path, "--term", "chaos"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["donor"]["discipline"] == "math"
    assert payload["borrowers"][0]["discipline"] == "education"
    assert 8 <= payload["borrowers"][0]["lag_years"] <= 12
    assert payload["config"]["term"] == "chaos"


def test_fit_json(corpus_path, capsys):
    code, out, _ = run_cli(
        ["fit", "--corpus", corpus_path, "--term", "chaos", "--discipline", "math"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert {"c", "p_m", "p_0", "rmse", "n_points", "config"} <= set(payload)
    assert payload["c"] > 0


def test_simulate_closed_form(capsys):
    code, out, _ = run_cli(
        ["simulate", "--c", "0.6", "--pm", "100", "--p0", "50", "--t-end", "2", "--dt", "1"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "t,p"
    assert lines[2] == "0,50"


def test_synth_and_pipe_to_migrate(tmp_path, capsys, monkeypatch):
    scenario = {
        "disciplines": [
            {"label": "math", "docs_per_bin": 120, "onset_year": 1978,
             "diffusion": {"c": 0.6, "p_m": 1000, "p_0": 40}},
            {"label": "education", "docs_per_bin": 120, "onset_year": 1988,
             "diffusion": {"c": 0.35, "p_m": 1000, "p_0": 40}},
        ],
        "year_range": [1974, 1999],
        "injected_term": "chaos",
        "background": {"size": 60, "exponent": 1.1, "tokens_per_doc": 8},
        "seed": 12,
    }
    spec_path = tmp_path / "scenario.json"
    spec_path.write_text(json.dumps(scenario))
    truth_path = tmp_path / "truth.json"

    code, out, _ = run_cli(
        ["synth", "--spec", str(spec_path), "--truth", str(truth_path)], capsys
    )
    assert code == 0
    truth = json.loads(truth_path.read_text())
    assert truth["donor"] == "math"

    # pipe the JSONL through stdin, as `synth ... | migrate --corpus -` would
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out2, _ = run_cli(["migrate", "--corpus", "-", "--term", "chaos"], capsys)
    assert code == 0
    assert json.loads(out2)["donor"]["discipline"] == "math"


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    scenario = {
        "disciplines": [{"label": "math", "docs_per_bin": 20}],
        "year_range": [1990, 1993],
        "seed": 1,
    }
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(scenario))
    _, out_seed1, _ = run_cli(["synth", "--spec", str(spec_path)], capsys)
    monkeypatch.setenv("TERMFLOW_SEED", "2")
    _, out_env, _ = run_cli(["synth", "--spec", str(spec_path)], capsys)
    monkeypatch.delenv("TERMFLOW_SEED")
    _, out_seed1_again, _ = run_cli(["synth", "--spec", str(spec_path)], capsys)
    assert out_seed1 != out_env
    assert out_seed1 == out_seed1_again


def test_outputs_deterministic(corpus_path, capsys):
    _, first, _ = run_cli(
        ["migrate", "--corpus", corpus_path, "--term", "chaos"], capsys
    )
    _, second, _ = run_cli(
        ["migrate", "--corpus", corpus_path, "--term", "chaos"], capsys
    )
    assert first == second


def test_domain_error_exit_code_and_message(corpus_path, capsys):
    code, _, err = run_cli(
        ["rank", "--corpus", corpus_path, "--discipline", "physics"], capsys
    )
    assert code == 1
    assert err.startswith("error code=corpus.UnknownDiscipline")
    assert "\n" not in err.strip()


def test_fit_unknown_discipline_exit_code_and_message(corpus_path, capsys):
    code, _, err = run_cli(
        ["fit", "--corpus", corpus_path, "--term", "chaos", "--discipline", "nosuch"],
        capsys,
    )
    assert code == 1
    assert err.startswith("error code=corpus.UnknownDiscipline")
    assert "\n" not in err.strip()


def _csv_body(path) -> list[list[str]]:
    """Rows of a CSV artifact after its ``# config`` line."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        assert handle.readline().startswith("# config ")
        return list(csv.reader(handle))


# Code points XML 1.0 forbids; an SVG artifact shows each as U+FFFD.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@settings(max_examples=60, deadline=None)
@example(label="math, applied")
@example(label='the "hard" sciences')
@example(label="line\nbreak")
@example(label="carriage\rreturn")
@example(label="both\r\nends ")
@example(label="a\x01b")
@example(label="-dash@at")
@given(
    label=st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)
    .filter(lambda s: s.strip() and s != "other")
)
def test_discipline_label_round_trips_through_csv(label, tmp_path_factory):
    work = tmp_path_factory.mktemp("label")
    docs = [(label, 1990, "alpha beta"), (label, 1990, "beta"), (label, 1992, "alpha"),
            (label, 1994, "alpha beta"), ("other", 1990, "alpha gamma")]
    records = [DocumentRecord(f"d{i}", *doc[:2], "", doc[2]) for i, doc in enumerate(docs)]
    corpus_file = work / "corpus.jsonl"
    with open(corpus_file, "w", encoding="utf-8") as handle:
        write_jsonl_records(records, handle)
    ann_file = work / "ann.csv"
    with open(ann_file, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["term", "discipline", "technical"])
        for term in ("alpha", "beta", "gamma"):
            for disc in (label, "other"):
                writer.writerow([term, disc, 1])

    ingest_out = work / "ingest.csv"
    assert main(["ingest", "--corpus", str(corpus_file), "--out", str(ingest_out)]) == 0
    counts = {label: (2, 1, 1), "other": (1, 0, 0)}
    assert _csv_body(ingest_out) == [["discipline", "bin_start", "documents"]] + [
        [disc, str(1990 + 2 * i), str(n)] for disc in sorted(counts)
        for i, n in enumerate(counts[disc])
    ]

    mdelta_out = work / "mdelta.csv"
    argv = ["mdelta", "--corpus", str(corpus_file), "--annotations", str(ann_file),
            "--smooth", "--out", str(mdelta_out)]
    assert main(argv) == 0
    rows = _csv_body(mdelta_out)
    assert rows[0] == ["discipline", "m_top", "m_bottom", "m_delta", "label", "smoothed"]
    assert sorted(r[0] for r in rows[1:]) == sorted([label, "other"])
    assert all(len(r) == 6 for r in rows)

    # every growth point of alpha survives, so the label's series has two
    growth = ["--term=alpha", "--smoothing-window=1", "--support-threshold=1"]
    migrate_out = work / "migrate.json"
    argv = ["migrate", "--corpus", str(corpus_file), *growth, "--out", str(migrate_out)]
    assert main(argv) == 0
    report = json.loads(migrate_out.read_text(encoding="utf-8"))
    assert label in [p["discipline"] for p in report["peaks"]]

    plot_out = work / "plot.svg"
    argv = ["plot", "--corpus", str(corpus_file), f"--series=alpha@{label}", *growth[1:],
            "--out", str(plot_out)]
    assert main(argv) == 0
    root = ET.parse(plot_out).getroot()
    legend = [el.text for el in root.iter() if el.get("font-size") == "12"]
    assert legend == ["alpha / " + _XML_FORBIDDEN.sub("\ufffd", label)]


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(["ingest", "--corpus", "/does/not/exist.jsonl"], capsys)
    assert code == 1
    assert err.startswith("error code=io.")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--corpus"])
    assert exc.value.code == 2


CORPUS, SPEC = object(), object()
# a JSONL line holding byte 0xff; a corpus whose discipline is a lone surrogate;
# the artifact path, which must not exist after a failed run
BAD_BYTE, SURROGATE_CORPUS, OUT = object(), object(), object()
# corpus and scenario files past json's limits (5,000 nested objects, 5,000
# digits), and a document count that overflows to an infinite float
DEEP_CORPUS, HUGE_YEAR, DEEP_SPEC, HUGE_DOCS = object(), object(), object(), object()
# and scenarios past synth's cap: a 10^9 x 12 draw matrix if it were generated,
# and 2 x 10^20 bins of no documents; and documents dated 10^20, past numpy's int64
INFINITE_DOCS, OVER_CAP_DOCS, OVER_CAP_BINS, HUGE_YEARS = object(), object(), object(), object()
# CSV files past csv's field limit (131,072 characters): a long title, a quote
# that never closes before 20,000 more rows, and a long annotation term; and a
# JSONL corpus that holds one id twice
LONG_CSV_FIELD, OPEN_QUOTE_CSV, LONG_ANNOTATION = object(), object(), object()
REPEATED_ID = object()
# scenario fields of the wrong JSON type: each printed a traceback or, for the
# coterms, was read as a list of characters
INT_TERM, LIST_BACKGROUND, INT_DISCIPLINE = object(), object(), object()
STRING_DISCIPLINES, STRING_COTERMS = object(), object()
# and scenario numbers of the wrong JSON type: an int label failed as a record,
# and int() or float() read the others
INT_LABEL, BOOL_DOCS_PER_BIN, FLOAT_YEAR_RANGE = object(), object(), object()
STRING_SEED, FLOAT_ONSET_YEAR, BOOL_C = object(), object(), object()
# a diffusion block DiffusionParams refuses, which exited as diffusion.InvalidParams
ZERO_C = object()
# discipline labels no record may hold, and keys outside the scenario schema:
# each exited 0, or for a label with documents failed as a record
EMPTY_LABEL, BLANK_LABEL, EMPTY_LABEL_NO_DOCS = object(), object(), object()
UNKNOWN_TOP_KEY, UNKNOWN_DISCIPLINE_KEY, UNKNOWN_BACKGROUND_KEY = object(), object(), object()
# a term no token survives, which the query refuses
BANG_TERM = object()
_CSV_HEADER = "id,discipline,year,title,abstract\n"
_RECORD = '{"id": "a", "discipline": "x", "year": %s, "title": "", "abstract": ""}\n'
_DEEP = '{"a":' * 5000
_HUGE = "9" * 5000
_DOCS_SPEC = '{"disciplines": [{"label": "x", "docs_per_bin": %s}], "year_range": [1990, 1991]}'
_LABEL_SPEC = '{"disciplines": [{"label": %s, "docs_per_bin": %s}], "year_range": [1990, 1991]}'
_ONE_DOC_SPEC = '{"disciplines": [{"label": "x", "docs_per_bin": 1}], "year_range": %s}'
_DIFFUSION_SPEC = (
    '{"disciplines": [{"label": "x", "docs_per_bin": 1, "onset_year": %s, "diffusion": '
    '{"c": %s, "p_m": 1000, "p_0": 40}}], "year_range": [1990, 1993], "injected_term": "chaos"}'
)
RAW_FILES = {
    DEEP_CORPUS: _DEEP + "\n",
    HUGE_YEAR: _RECORD % _HUGE,
    DEEP_SPEC: _DEEP,
    HUGE_DOCS: _DOCS_SPEC % _HUGE,
    INFINITE_DOCS: _DOCS_SPEC % "1e400",
    OVER_CAP_DOCS: _DOCS_SPEC % "1000000000",
    OVER_CAP_BINS: '{"disciplines": [], "year_range": [-1%s, 1%s]}' % ("0" * 20, "0" * 20),
    HUGE_YEARS: '{"disciplines": [{"label": "x", "docs_per_bin": 1}], "year_range": [1%s, 1%s]}'
    % ("0" * 20, "0" * 20),
    LONG_CSV_FIELD: _CSV_HEADER + "a1,math,1990,%s,chaos\n" % ("x" * 200_000),
    OPEN_QUOTE_CSV: _CSV_HEADER + 'a0,math,1990,"open,chaos\n' + "a1,math,1990,t,chaos\n" * 20_000,
    LONG_ANNOTATION: "term,discipline,technical\n%s,math,1\n" % ("x" * 200_000),
    REPEATED_ID: _RECORD % 1990 + _RECORD % 1991,
    INT_TERM: '{"disciplines": [], "year_range": [1990, 1991], "injected_term": 5}',
    LIST_BACKGROUND: '{"disciplines": [], "year_range": [1990, 1991], "background": []}',
    INT_DISCIPLINE: '{"disciplines": [5], "year_range": [1990, 1991]}',
    STRING_DISCIPLINES: '{"disciplines": "math", "year_range": [1990, 1991]}',
    STRING_COTERMS: '{"disciplines": [{"label": "x", "docs_per_bin": 1}], "year_range": '
    '[1990, 1991], "injected_term": "chaos", "injected_coterms": "nonlinear"}',
    INT_LABEL: '{"disciplines": [{"label": 5, "docs_per_bin": 1}], "year_range": [1990, 1991]}',
    BOOL_DOCS_PER_BIN: _DOCS_SPEC % "true",
    FLOAT_YEAR_RANGE: _ONE_DOC_SPEC % "[1990.9, 1993]",
    STRING_SEED: _ONE_DOC_SPEC % '[1990, 1991], "seed": "3"',
    FLOAT_ONSET_YEAR: _DIFFUSION_SPEC % ("1990.5", "0.6"),
    BOOL_C: _DIFFUSION_SPEC % ("1990", "true"),
    ZERO_C: _DIFFUSION_SPEC % ("1990", "0"),
    EMPTY_LABEL: _LABEL_SPEC % ('""', 1),
    BLANK_LABEL: _LABEL_SPEC % ('" "', 1),
    EMPTY_LABEL_NO_DOCS: _LABEL_SPEC % ('""', 0),
    UNKNOWN_TOP_KEY: _ONE_DOC_SPEC % '[1990, 1991], "seeed": 5',
    UNKNOWN_DISCIPLINE_KEY: '{"disciplines": [{"label": "m", "docs_per_bin": 1, '
    '"onset_yaer": 1991}], "year_range": [1990, 1991]}',
    UNKNOWN_BACKGROUND_KEY: _ONE_DOC_SPEC % '[1990, 1991], "backgrond": {"size": 3}',
    BANG_TERM: '{"disciplines": [], "year_range": [1990, 1991], "injected_term": "!!"}',
}
# scenario files, each with its background: SPEC's is valid, the others are not;
# HUGE_EXPONENT's has an exponent of 400 digits, past a float's range
EMPTY_BG, NEGATIVE_BG, NEGATIVE_TOKENS = object(), object(), object()
NAN_EXPONENT, OVERFLOWING_EXPONENT, HUGE_EXPONENT = object(), object(), object()
SPEC_BACKGROUNDS = {SPEC: {}, EMPTY_BG: {"size": 0}, NEGATIVE_BG: {"size": -5},
                    NEGATIVE_TOKENS: {"tokens_per_doc": -1},
                    NAN_EXPONENT: {"size": 5, "exponent": "nan"},
                    OVERFLOWING_EXPONENT: {"size": 5, "exponent": -1e308},
                    HUGE_EXPONENT: {"size": 5, "exponent": 10**399}}
GOLDEN_ANNOTATIONS = str(Path(__file__).parent / "golden" / "annotations.csv")


@pytest.mark.parametrize(
    "env, argv, expected",
    [
        ({}, ["trend", "--corpus", CORPUS, "--term", "+", "--discipline", "math"], 1),
        ({}, ["simulate", "--c", "0.6", "--pm", "100", "--p0", "50", "--dt", "0"], 2),
        ({}, ["trend", "--corpus", CORPUS, "--term", "chaos", "--discipline", "math",
              "--smoothing-window", "2"], 2),
        ({}, ["ingest", "--corpus", CORPUS, "--bin-width", "0"], 2),
        ({"TERMFLOW_SEED": "x"}, ["synth", "--spec", SPEC], 1),
        ({}, ["rank", "--corpus", CORPUS, "--discipline", "math",
              "--normal-threshold", "-1"], 2),
        ({}, ["rank", "--corpus", CORPUS, "--discipline", "math",
              "--normal-threshold", "nan"], 2),
        ({}, ["simulate", "--c", "0.6", "--pm", "100", "--p0", "50", "--t-end", "nan"], 2),
        ({}, ["simulate", "--c", "0.6", "--pm", "100", "--p0", "50", "--t-end", "inf",
              "--euler"], 2),
        ({}, ["simulate", "--c", "0.6", "--pm", "100", "--p0", "50", "--t-end", "-3"], 2),
        ({}, ["simulate", "--c", "1", "--pm", "10", "--p0", "1", "--t-end", "1e300",
              "--dt", "1e-300"], 1),
        ({}, ["simulate", "--c", "1", "--pm", "10", "--p0", "1", "--t-end", "1e300",
              "--dt", "1e-300", "--euler"], 1),
        ({}, ["migrate", "--corpus", CORPUS, "--term", "chaos",
              "--strong-threshold", "inf"], 2),
        ({}, ["migrate", "--corpus", CORPUS, "--term", "chaos",
              "--strong-threshold=-inf"], 2),
        ({}, ["migrate", "--corpus", CORPUS, "--term", "chaos",
              "--strong-threshold", "nan"], 2),
        ({}, ["mdelta", "--corpus", CORPUS, "--annotations", GOLDEN_ANNOTATIONS, "--smooth",
              "--list-length=-3"], 2),
        ({}, ["mdelta", "--corpus", CORPUS, "--annotations", GOLDEN_ANNOTATIONS,
              "--list-length", "0"], 2),
        ({}, ["simulate", "--c", "1", "--pm", "10", "--p0", "1", "--t-end", "1e12",
              "--dt", "1e-6"], 1),
        ({}, ["simulate", "--c", "1", "--pm", "10", "--p0", "1", "--t-end", "1e12",
              "--dt", "1e-6", "--euler"], 1),
        ({}, ["ingest", "--corpus", BAD_BYTE, "--out", OUT], 1),
        ({}, ["mdelta", "--corpus", CORPUS, "--annotations", BAD_BYTE, "--out", OUT], 1),
        ({}, ["ingest", "--corpus", SURROGATE_CORPUS, "--out", OUT], 1),
        ({}, ["plot", "--corpus", CORPUS, "--series", "chaos@math", "--title", "x\ud800",
              "--out", OUT], 0),
        ({}, ["synth", "--spec", SPEC, "--seed=-1", "--out", OUT], 1),
        ({"TERMFLOW_SEED": "-1"}, ["synth", "--spec", SPEC, "--out", OUT], 1),
        ({}, ["synth", "--spec", EMPTY_BG, "--out", OUT], 1),
        ({}, ["synth", "--spec", NEGATIVE_BG, "--out", OUT], 1),
        ({}, ["synth", "--spec", NEGATIVE_TOKENS, "--out", OUT], 1),
        ({}, ["synth", "--spec", NAN_EXPONENT, "--out", OUT], 1),
        ({}, ["synth", "--spec", OVERFLOWING_EXPONENT, "--out", OUT], 1),
        ({}, ["ingest", "--corpus", DEEP_CORPUS, "--out", OUT], 1),
        ({}, ["ingest", "--corpus", HUGE_YEAR, "--out", OUT], 1),
        ({}, ["synth", "--spec", DEEP_SPEC, "--out", OUT], 1),
        ({}, ["synth", "--spec", HUGE_DOCS, "--out", OUT], 1),
        ({}, ["synth", "--spec", INFINITE_DOCS, "--out", OUT], 1),
        ({}, ["synth", "--spec", OVER_CAP_DOCS, "--out", OUT], 1),
        ({}, ["ingest", "--csv", "--corpus", LONG_CSV_FIELD, "--out", OUT],
         "corpus.MalformedRecord"),
        ({}, ["ingest", "--csv", "--corpus", OPEN_QUOTE_CSV, "--out", OUT],
         "corpus.MalformedRecord"),
        ({}, ["mdelta", "--corpus", CORPUS, "--annotations", LONG_ANNOTATION, "--out", OUT],
         "measure.MalformedAnnotation"),
        ({}, ["ingest", "--corpus", REPEATED_ID, "--out", OUT], "corpus.DuplicateId"),
        ({}, ["mdelta", "--corpus", CORPUS, "--annotations", BAD_BYTE, "--discipline", "x",
              "--out", OUT], "corpus.UnknownDiscipline"),
        ({}, ["synth", "--spec", OVER_CAP_BINS, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", HUGE_YEARS, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["mdelta", "--corpus", CORPUS, "--annotations", GOLDEN_ANNOTATIONS, "--smooth",
              "--discipline", "math", "--dictionary", f"nosuch={GOLDEN_ANNOTATIONS}",
              "--out", OUT], "errors.TermflowError"),
        # refused before the reported discipline's missing dictionary is opened
        ({}, ["mdelta", "--corpus", CORPUS, "--annotations", GOLDEN_ANNOTATIONS, "--smooth",
              "--dictionary", "math=missing.txt", "--dictionary", "nosuch=missing.txt",
              "--out", OUT], "errors.TermflowError"),
        ({}, ["synth", "--spec", INT_TERM, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", LIST_BACKGROUND, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", INT_DISCIPLINE, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", STRING_DISCIPLINES, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", STRING_COTERMS, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", INT_LABEL, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", BOOL_DOCS_PER_BIN, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", FLOAT_YEAR_RANGE, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", STRING_SEED, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", FLOAT_ONSET_YEAR, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", BOOL_C, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", ZERO_C, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", EMPTY_LABEL, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", BLANK_LABEL, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", EMPTY_LABEL_NO_DOCS, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", UNKNOWN_TOP_KEY, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", UNKNOWN_DISCIPLINE_KEY, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", UNKNOWN_BACKGROUND_KEY, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", BANG_TERM, "--out", OUT], "synth.InvalidSpec"),
        ({}, ["synth", "--spec", HUGE_EXPONENT, "--out", OUT], "synth.InvalidSpec"),
    ],
    ids=["term-plus", "dt-zero", "even-window", "bin-width-zero", "seed-env",
         "negative-threshold", "nan-threshold", "nan-t-end", "inf-t-end-euler",
         "negative-t-end", "overflowing-steps", "overflowing-steps-euler",
         "inf-strong-threshold", "negative-inf-strong-threshold",
         "nan-strong-threshold", "negative-list-length", "zero-list-length",
         "huge-steps", "huge-steps-euler", "undecodable-corpus",
         "undecodable-annotations", "unencodable-csv", "surrogate-title",
         "negative-seed", "negative-seed-env", "empty-background",
         "negative-background", "negative-tokens-per-doc", "nan-exponent",
         "overflowing-exponent", "deep-corpus", "huge-year", "deep-spec",
         "huge-docs-per-bin", "infinite-docs-per-bin", "over-cap-docs", "long-csv-field",
         "open-quote-csv", "long-annotation", "repeated-id",
         "unknown-discipline-before-annotations", "over-cap-bins", "huge-years",
         "unreported-dictionary", "unreported-dictionary-before-any-file",
         "int-injected-term", "list-background", "int-discipline", "string-disciplines",
         "string-coterms", "int-label", "bool-docs-per-bin", "float-year-range",
         "string-seed", "float-onset-year", "bool-c", "zero-c", "empty-label", "blank-label",
         "empty-label-no-docs", "unknown-top-key", "unknown-discipline-key",
         "unknown-background-key", "bang-injected-term", "huge-exponent"],
)
def test_invalid_input_follows_cli_contract(
    env, argv, expected, corpus_path, tmp_path, capsys, monkeypatch
):
    bad_byte_path = tmp_path / "bad.jsonl"
    bad_byte_path.write_bytes(b'{"id": "a\xff"}\n')
    surrogate_path = tmp_path / "surrogate.jsonl"
    surrogate_path.write_text(
        json.dumps({"id": "a", "discipline": "x\ud800", "year": 1990, "title": "",
                    "abstract": "chaos"}) + "\n"
    )
    out_path = tmp_path / "artifact"
    paths = {CORPUS: corpus_path, BAD_BYTE: bad_byte_path,
             SURROGATE_CORPUS: surrogate_path, OUT: out_path}
    for i, (spec, background) in enumerate(SPEC_BACKGROUNDS.items()):
        paths[spec] = tmp_path / f"s{i}.json"
        paths[spec].write_text(json.dumps(
            {"disciplines": [{"label": "math", "docs_per_bin": 2}], "year_range": [1990, 1993],
             "background": background}
        ))
    for name, text in RAW_FILES.items():
        paths[name] = tmp_path / f"raw{len(paths)}.json"
        paths[name].write_text(text)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [a if isinstance(a, str) else str(paths[a]) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    # an expected error code stands for exit 1 with that code
    error = re.escape(expected) if isinstance(expected, str) else r"\S+"
    if code == 1:
        assert re.fullmatch(rf'error code={error} msg=".*"\n', err)
    assert code == (1 if isinstance(expected, str) else expected)
    assert out_path.exists() == (code == 0)
    assert not list(tmp_path.glob("*.tmp"))


# Free text from all of Unicode, with surrogates and controls drawn often,
# mixed with words the conftest corpus holds so that some runs get far.
_FREE_TEXT = st.one_of(
    st.sampled_from(["chaos", "math", "education", "chaos@math", "chaos+bg000"]),
    st.text(
        st.one_of(st.characters(exclude_categories=()), st.characters(categories=["Cs", "Cc"])),
        max_size=8,
    ),
)


def _number(lo, hi):
    """Option text for a number in [lo, hi], or 0, a negative, nan or an infinity."""
    return st.one_of(
        st.sampled_from(["0", "-1", "nan", "inf", "-inf"]),
        st.integers(math.ceil(lo), math.floor(hi)).map(str),
        st.floats(lo, hi).map(repr),
    )


_FLAG = st.none()
_GROWTH_OPTIONS = {"--smoothing-window": _number(-3, 99),
                   "--support-threshold": _number(-10, 10**4)}
_CORPUS_OPTIONS = {"--bin-width": _number(-3, 10**6), "--anchor-year": _number(-10**4, 10**4),
                   "--csv": _FLAG}
# DICTIONARY stands for a dictionary file the test writes
_DICTIONARY = st.one_of(
    st.sampled_from(["DICTIONARY", "math=DICTIONARY", "x=DICTIONARY"]), _FREE_TEXT
)
# subcommand -> (required options, optional options), each with its values;
# --t-end <= 100 and --dt >= 0.01 keep simulate at 10^4 steps or fewer
_SUBCOMMANDS = {
    "ingest": ({}, {**_CORPUS_OPTIONS, "--format": st.sampled_from(["csv", "json"])}),
    "rank": ({"--discipline": _FREE_TEXT},
             {**_CORPUS_OPTIONS, "--normal-threshold": _number(-10, 10**6),
              "--dictionary": _DICTIONARY}),
    "mdelta": ({"--annotations": st.just(GOLDEN_ANNOTATIONS)},
               {**_CORPUS_OPTIONS, "--discipline": _FREE_TEXT,
                "--list-length": _number(-3, 10**6), "--smooth": _FLAG,
                "--dictionary": _DICTIONARY}),
    "trend": ({"--term": _FREE_TEXT, "--discipline": _FREE_TEXT},
              {**_CORPUS_OPTIONS, **_GROWTH_OPTIONS}),
    "migrate": ({"--term": _FREE_TEXT},
                {**_CORPUS_OPTIONS, **_GROWTH_OPTIONS,
                 "--strong-threshold": _number(-10**3, 10**3),
                 "--disciplines": st.one_of(_FLAG, _FREE_TEXT)}),
    "fit": ({"--term": _FREE_TEXT, "--discipline": _FREE_TEXT}, _CORPUS_OPTIONS),
    "plot": ({"--series": _FREE_TEXT},
             {**_CORPUS_OPTIONS, **_GROWTH_OPTIONS, "--title": _FREE_TEXT}),
    "simulate": ({"--c": _number(-10, 10), "--pm": _number(-10**4, 10**4),
                  "--p0": _number(-10**4, 10**4)},
                 {"--t-end": _number(-100, 100), "--dt": _number(0.01, 100),
                  "--euler": _FLAG}),
    "synth": ({}, {"--seed": _number(-10, 10**6)}),
}


@st.composite
def _cli_argv(draw):
    subcommand = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    required, optional = _SUBCOMMANDS[subcommand]
    argv = [subcommand]
    for option, values in [*required.items(), *optional.items()]:
        if option in required or draw(st.booleans()):
            value = draw(values)
            argv.append(option if value is None else f"{option}={value}")
    return argv


@settings(max_examples=150, deadline=None)
@example(argv=["plot", "--series=chaos@math", "--title=\ud800"])
@example(argv=["mdelta", f"--annotations={GOLDEN_ANNOTATIONS}", "--discipline=math",
               "--dictionary=DICTIONARY", "--csv"])
@given(argv=_cli_argv())
def test_any_argv_follows_cli_contract(argv, corpus_path, csv_corpus_path, tmp_path_factory):
    work = tmp_path_factory.mktemp("argv")
    dictionary = work / "dictionary.txt"
    dictionary.write_text("chaos\nbg001\n")
    argv = [a.replace("DICTIONARY", str(dictionary)) for a in argv]
    if argv[0] == "synth":
        spec_path = work / "s.json"
        spec_path.write_text(json.dumps(
            {"disciplines": [{"label": "math", "docs_per_bin": 2}], "year_range": [1990, 1993]}
        ))
        argv = [*argv, "--spec", str(spec_path)]
    elif argv[0] != "simulate":
        argv = [*argv, "--corpus", csv_corpus_path if "--csv" in argv else corpus_path]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out", str(work / "artifact")])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert re.fullmatch(r'error code=\S+ msg=".*"\n', err.getvalue())


# options the argv property does not draw: help, and the files a run reads or writes
_PATH_OPTIONS = {"-h", "--help", "--corpus", "--spec", "--out", "--plot", "--truth"}


def test_argv_property_draws_every_option():
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(_SUBCOMMANDS)
    for name, subparser in subparsers.choices.items():
        drawn = {*_SUBCOMMANDS[name][0], *_SUBCOMMANDS[name][1]}
        for action in subparser._actions:
            for option in action.option_strings:
                assert option in drawn | _PATH_OPTIONS, (name, option)


def test_infinite_normal_threshold_ranks_every_term_exactly(corpus_path, capsys):
    code, out, _ = run_cli(
        ["rank", "--corpus", corpus_path, "--discipline", "math",
         "--normal-threshold", "inf"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()[1:]))
    assert {r[4] for r in rows[1:]} == {"poisson"}

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    config = out.splitlines()[0].removeprefix("# config ")
    assert json.loads(config, parse_constant=refuse)["normal_threshold"] == "inf"


def test_bad_corpus_line_gives_one_error_line(tmp_path, capsys):
    record = {"id": "a1", "discipline": "math", "year": 1990, "title": "", "abstract": "chaos"}
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(record) + "\n" + json.dumps(dict(record, id="a2", year=99999)) + "\n"
    )
    code, out, err = run_cli(["ingest", "--corpus", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        'error code=corpus.MalformedRecord '
        'msg="record \'a2\' year 99999 outside [1000, 3000]"\n'
    )


def test_console_entry_point(corpus_path, tmp_path):
    out_path = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "termflow",
            "migrate",
            "--corpus",
            corpus_path,
            "--term",
            "chaos",
            "--out",
            str(out_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out_path.read_text())["donor"]["discipline"] == "math"


def test_plot_subcommand_multi_series(tmp_path, capsys):
    stages = (
        SuccessionStage(TermQuery.parse("mbd"), 1974, DiffusionParams(0.6, 1000, 40)),
        SuccessionStage(TermQuery.parse("add", ["attention"]), 1984, DiffusionParams(0.45, 1000, 40)),
        SuccessionStage(TermQuery.parse("adhd"), 1992, DiffusionParams(1.1, 1000, 40)),
    )
    records, _ = generate_succession(
        stages, "psychology", 250, (1974, 2003), seed=0,
        background=BackgroundVocabulary(60, 1.1, 8),
    )
    corpus_file = tmp_path / "psych.jsonl"
    with open(corpus_file, "w") as handle:
        write_jsonl_records(records, handle)
    out_path = tmp_path / "succession.svg"
    code, _, _ = run_cli(
        [
            "plot",
            "--corpus",
            str(corpus_file),
            "--series",
            "mbd@psychology",
            "--series",
            "add+attention@psychology",
            "--series",
            "adhd@psychology",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    root = ET.parse(out_path).getroot()
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) >= 3
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert any("adhd" in (t or "") for t in texts)


def test_growth_chart_empty_series_set():
    with pytest.raises(EmptySeriesSet):
        growth_chart_svg([])


def test_growth_chart_all_masked(corpus_path):

    index = corpus_mod.ingest(corpus_mod.read_jsonl_records(corpus_path))
    growth = growth_pipeline(index, TermQuery.parse("neverseen"), "math")
    with pytest.raises(EmptySeriesSet):
        growth_chart_svg([growth])


def test_growth_chart_constant_series_on_zero_rule(corpus_path):

    index = corpus_mod.ingest(corpus_mod.read_jsonl_records(corpus_path))
    # the top background token occurs at a steady rate: its line hugs zero
    growth = growth_pipeline(index, TermQuery.parse("bg000"), "math")
    svg = growth_chart_svg([growth], config={"probe": 1})
    assert 'stroke-dasharray="2,5"' in svg
    assert "<metadata>" in svg
    root = ET.fromstring(svg)
    assert root.get("version") == "1.1"


def test_trend_plot_write_failure_writes_neither_artifact(corpus_path, capsys, tmp_path):
    csv_path, svg_path = tmp_path / "series.csv", tmp_path / "nodir" / "chart.svg"
    argv = ["trend", "--corpus", corpus_path, "--term", "chaos", "--discipline", "math"]
    code, _, err = run_cli([*argv, "--out", str(csv_path), "--plot", str(svg_path)], capsys)
    assert code == 1
    assert err.startswith("error code=io.FileNotFoundError ")
    assert len(err.splitlines()) == 1
    assert not csv_path.exists() and not svg_path.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "row", ["a2,math,1990,On Chaos,chaos,EXTRA", "a2,math,1990"], ids=["extra", "missing"]
)
def test_csv_corpus_with_wrong_field_count_gives_one_error_line(row, tmp_path, capsys):
    path = tmp_path / "corpus.csv"
    path.write_text(f"id,discipline,year,title,abstract\na1,math,1990,,chaos\n{row}\n")
    code, out, err = run_cli(["ingest", "--csv", "--corpus", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        'error code=corpus.MalformedRecord msg="line 3: expected exactly the fields '
        'id, discipline, year, title, abstract"\n'
    )


def test_csv_corpus_keeps_carriage_returns_in_quoted_ids(tmp_path, capsys):
    # read back as "a\nb" twice, the two ids failed as a corpus.DuplicateId
    path = tmp_path / "corpus.csv"
    records = [DocumentRecord(i, "math", 1990, "", "chaos") for i in ("a\rb", "a\nb")]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        corpus_mod.write_csv(handle, corpus_mod.RECORD_FIELDS, records)
    argv = ["ingest", "--csv", "--corpus", str(path), "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["documents"] == 2


def _run_within_contract(argv, *artifacts) -> int:
    """Run ``argv``: it must exit 0 with every artifact written and nothing on
    stderr, or exit 1 with one ``error code=… msg=…`` line and no artifact."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert re.fullmatch(r'(error code=\S+ msg=".*"\n)?', err.getvalue())
    for artifact in artifacts:
        assert (err.getvalue() == "") == (code == 0) == artifact.exists()
    return code


def _with_rare_bytes(draw, data: bytes) -> bytes:
    """``data``, one time in eight behind a UTF-8 BOM, and one time in eight
    holding a stray 0xFF byte, which is not UTF-8."""
    rarely = st.sampled_from(range(8)).map(lambda i: i == 7)
    if draw(rarely):
        data = b"\xef\xbb\xbf" + data
    if draw(rarely):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


# CSV corpus contents: header names repeated, missing or unknown; ragged rows;
# stray and unterminated quotes; NUL, a lone "\r" and a BOM in fields; years
# such as 1e3, 1_990 and 5,000 digits; and bytes that are not UTF-8
_CSV_CELLS = st.one_of(
    st.sampled_from(['"', '""', '"a', 'a"b', "\x00", "\r", "a\rb", "\ufeff"]),
    st.text(max_size=8),
)
_CSV_YEARS = st.sampled_from(["1990", "1991", " 1990", "1e3", "1_990", "-1990", "9" * 5000])
_CSV_TEXT = st.one_of(st.sampled_from(["", "chaos"]), _CSV_CELLS)
_CSV_RECORD = st.tuples(
    st.sampled_from(["a1", "a2", "a3", ""]), st.sampled_from(["math", "x", ""]), _CSV_YEARS,
    _CSV_TEXT, _CSV_TEXT,
).map(list)
# a strategy listed twice is drawn twice as often, so that some runs exit 0
_CSV_HEADER_NAMES = st.one_of(
    st.permutations(corpus_mod.RECORD_FIELDS),
    st.permutations(corpus_mod.RECORD_FIELDS),
    st.lists(st.sampled_from([*corpus_mod.RECORD_FIELDS, "", "extra"]), max_size=7),
)


@st.composite
def _csv_corpus(draw):
    rows = [draw(_CSV_HEADER_NAMES)]
    ragged = st.lists(_CSV_CELLS, max_size=7)
    rows += draw(st.lists(st.one_of(_CSV_RECORD, _CSV_RECORD, ragged), max_size=6))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    data = "".join(",".join(row) + draw(ends) for row in rows).encode()
    return _with_rare_bytes(draw, data)


@settings(max_examples=150, deadline=None)
@example(data=b"id,discipline,year,title,abstract\na1,math,1990,,chaos\n")
@example(data=b"id,discipline,year,title,abstract\na1,math,1990,,chaos\na1,x,1991,,\n")
@example(data=b"id,discipline,year,title,abstract\na1,math,1_990,,chaos\n")
@example(data=b'id,discipline,year,"title,abstract\na1,math,1990,,chaos\n')
@given(data=_csv_corpus())
def test_any_csv_corpus_follows_cli_contract(data, tmp_path_factory):
    work = tmp_path_factory.mktemp("csv")
    (work / "corpus.csv").write_bytes(data)
    out = work / "artifact"
    _run_within_contract(
        ["ingest", "--csv", "--corpus", str(work / "corpus.csv"), "--out", str(out)], out
    )


# Annotation file contents, for mdelta on the golden corpus at --discipline math
# --list-length 1, which reads the pairs (chaos, math) and (bg026, math): header
# names repeated or missing; ragged rows; stray quotes, NUL and a BOM in fields;
# flags other than 0 and 1; and bytes that are not UTF-8
GOLDEN_CORPUS = str(Path(__file__).parent / "golden" / "corpus.jsonl")
_ANNOTATION_CELLS = st.sampled_from(['"', '""', 'a"b', "\x00", "\r", "\ufeff", "", "note"])
_ANNOTATION_TERMS = st.sampled_from(["chaos", "bg026", "bg041"])
_ANNOTATION_DISCIPLINES = st.sampled_from(["math", "history"])
_ANNOTATION_ROW = st.tuples(
    _ANNOTATION_TERMS, _ANNOTATION_DISCIPLINES, st.sampled_from(["0", "1", " 1 "])
).map(list)
_BAD_ANNOTATION_ROW = st.tuples(
    _ANNOTATION_TERMS, _ANNOTATION_DISCIPLINES, st.sampled_from(["2", "", "01", "1\x00"])
).map(list)
# a strategy listed twice is drawn twice as often, so that some runs exit 0
_ANNOTATION_HEADER = st.one_of(
    st.just(["term", "discipline", "technical"]),
    st.just(["term", "discipline", "technical"]),
    st.lists(st.sampled_from(["term", "discipline", "technical", "note", ""]), max_size=4),
)


@st.composite
def _annotation_file(draw):
    rows = [draw(_ANNOTATION_HEADER)]
    if draw(st.booleans()):  # the two pairs mdelta reads, each flagged 0 or 1
        rows += [[term, "math", draw(st.sampled_from("01"))] for term in ("chaos", "bg026")]
    ragged = st.lists(st.one_of(_ANNOTATION_CELLS, _ANNOTATION_TERMS), max_size=5)
    # half the files hold only well-formed rows after the header
    noisy = st.one_of(_ANNOTATION_ROW, _BAD_ANNOTATION_ROW, ragged)
    more = draw(st.sampled_from([_ANNOTATION_ROW, noisy]))
    rows += draw(st.lists(more, max_size=9 - len(rows)))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    data = "".join(",".join(row) + draw(ends) for row in rows).encode()
    return _with_rare_bytes(draw, data)


@settings(max_examples=150, deadline=None)
@example(data=b"term,discipline,technical\nchaos,math,1\nbg026,math,0\n")
@example(data=b"term,discipline,technical\nchaos,math,1\nbg026,math,0\nbg041,history,2\n")
@example(data=b"term,discipline,technical\nchaos,math,1\nbg026,math,0\n\xff\n")
@given(data=_annotation_file())
def test_any_annotation_file_follows_cli_contract(data, tmp_path_factory):
    work = tmp_path_factory.mktemp("annotations")
    (work / "annotations.csv").write_bytes(data)
    out = work / "artifact"
    code = _run_within_contract(
        ["mdelta", "--corpus", GOLDEN_CORPUS, "--annotations", str(work / "annotations.csv"),
         "--discipline", "math", "--list-length", "1", "--smooth", "--out", str(out)], out
    )
    if code == 0:
        assert out.read_text().splitlines()[1] == (
            "discipline,m_top,m_bottom,m_delta,label,smoothed"
        )


def test_mdelta_dictionary_path_alone_filters_the_one_discipline(tmp_path, capsys):
    # only chaos and theory are technical, and the dictionary holds neither
    terms = ["chaos", "theory", *(f"bg{i:03d}" for i in range(60))]
    annotations = tmp_path / "annotations.csv"
    annotations.write_text("term,discipline,technical\n" + "".join(
        f"{t},math,{int(t in ('chaos', 'theory'))}\n" for t in terms
    ))
    dictionary = tmp_path / "math.txt"
    dictionary.write_text("# background terms\nBG010\nbg026\nbg031 # rare\nbg040\n")
    argv = ["mdelta", "--corpus", GOLDEN_CORPUS, "--annotations", str(annotations),
            "--discipline", "math", "--list-length", "2", "--smooth"]
    rows = []
    for extra in ([], ["--dictionary", str(dictionary)], ["--dictionary", f"math={dictionary}"]):
        code, out, err = run_cli([*argv, *extra], capsys)
        assert (code, err) == (0, "")
        rows.append(out.splitlines()[1:])
    assert rows[1] == rows[2] != rows[0]


def test_dictionary_with_a_byte_order_mark_is_refused(tmp_path, capsys):
    # with the mark kept on "chaos", rank listed bg010 alone and exited 0
    dictionary = tmp_path / "dictionary.txt"
    dictionary.write_bytes(b"\xef\xbb\xbfchaos\nbg010\n")
    out = tmp_path / "ranking.csv"
    for command in (["rank"], ["mdelta", "--annotations", GOLDEN_ANNOTATIONS, "--smooth"]):
        argv = [*command, "--corpus", GOLDEN_CORPUS, "--discipline", "math",
                "--dictionary", str(dictionary), "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err == 'error code=rank.MalformedDictionary msg="dictionary starts with a byte-order mark"\n'
        assert not out.exists()
    # a mark after the first character is no byte-order mark, and stays in its term
    dictionary.write_bytes(b"bg010\n\xef\xbb\xbfchaos\n")
    code, _, err = run_cli(["rank", "--corpus", GOLDEN_CORPUS, "--discipline", "math",
                            "--dictionary", str(dictionary)], capsys)
    assert (code, err) == (0, "")


# Dictionary file lines, for rank and mdelta on the golden corpus at --discipline
# math: corpus terms in any case, terms the corpus lacks, '#' comments, blank
# lines, NUL and a BOM; lines end in "\n", "\r\n" or a lone "\r"; and some files
# hold a byte that is not UTF-8
_DICTIONARY_LINES = st.sampled_from(
    ["chaos", "Theory", "BG026", "bg010", "nosuchterm", "zz", "", "  ", "# note",
     "#chaos", "bg041 # note", "\x00", "bg0\x0010", "\ufeffchaos"]
)


@st.composite
def _dictionary_file(draw):
    lines = draw(st.lists(_DICTIONARY_LINES, max_size=8))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    data = "".join(line + draw(ends) for line in lines).encode()
    return _with_rare_bytes(draw, data)


@settings(max_examples=150, deadline=None)
@example(data=b"chaos\nbg026\n", command="mdelta", named=True)
@example(data=b"nosuchterm\n", command="mdelta", named=False)
@example(data=b"# none\n", command="rank", named=False)
@given(data=_dictionary_file(), command=st.sampled_from(["rank", "mdelta"]),
       named=st.booleans())
def test_any_dictionary_file_follows_cli_contract(data, command, named, tmp_path_factory):
    work = tmp_path_factory.mktemp("dictionary")
    path = work / "dictionary.txt"
    path.write_bytes(data)
    argv = [command, "--corpus", GOLDEN_CORPUS, "--discipline", "math"]
    if command == "mdelta":
        argv += ["--annotations", GOLDEN_ANNOTATIONS, "--list-length", "1", "--smooth"]
    out = work / "artifact"
    spec = f"math={path}" if named and command == "mdelta" else str(path)
    _run_within_contract([*argv, "--dictionary", spec, "--out", str(out)], out)


# Scenario numbers as JSON text: 0, -1, true, null, strings, 1.5, 1e400 (an
# infinite float) and 5,000 digits (past the int-string limit). Sizes stay
# small (docs_per_bin <= 20, background size <= 50, tokens_per_doc <= 8) or go
# past synth's cap, and year spans are at most 12 or at least 10^19 years.
# The other half also leave out every key, one time in twelve, and put a value
# of each JSON type in its place, one time in twelve. Half the files hold only
# plain numbers and shapes, so that some runs exit 0.
_EDGE_NUMBERS = ["0", "-1", "true", "null", '"7"', '"x"', "1.5", "1e400", "9" * 5000]
_EDGE_SHAPES = ["5", "true", "null", '"math"', "[]", '["x", 3]', "{}"]
_BIG = "1" + "0" * 20


def _scenario_number(lo, hi, *more):
    return st.one_of(st.sampled_from([*_EDGE_NUMBERS, *more]), st.integers(lo, hi).map(str))


_PLAIN_YEAR_RANGES = st.tuples(st.integers(1985, 1995), st.integers(-1, 12)).map(
    lambda p: (str(p[0]), str(p[0] + p[1]))
)
_YEAR_RANGES = st.one_of(
    _PLAIN_YEAR_RANGES,
    st.sampled_from([(f"-{_BIG}", _BIG), ("1990", _BIG), (f"-{_BIG}", "1990"), (_BIG, _BIG)]),
    # one bound an edge value, with a partner that keeps the span small
    st.sampled_from(
        [(e, "5") for e in ("0", "-1", "true", "1.5")]
        + [(e, "1990") for e in ("null", '"x"', '"1990"', "1e400", "9" * 5000)]
        + [("1990", e) for e in ("null", '"1995"', "1995.5", "1e400")]
    ),
)
# the keys _scenario_file writes in the object of each scenario dataclass;
# ScenarioSpec's injected_query is written as injected_term and injected_coterms
_SCENARIO_KEYS = {
    ScenarioSpec: ("disciplines", "year_range", "bin_width", "injected_term",
                   "injected_coterms", "background", "seed"),
    DisciplineSpec: ("label", "docs_per_bin", "onset_year", "diffusion"),
    DiffusionParams: ("c", "p_m", "p_0"),
    BackgroundVocabulary: ("size", "exponent", "tokens_per_doc"),
}


@st.composite
def _scenario_file(draw):
    plain = draw(st.booleans())

    def number(lo, hi, *more):
        return draw(st.integers(lo, hi).map(str) if plain else _scenario_number(lo, hi, *more))

    def obj(cls, values):
        """The JSON object of ``cls`` with the JSON text of ``values`` at each
        of its keys, or outside plain files one time in twelve with no text
        or an edge shape; a key whose text is None is left out."""
        entries = []
        for key in _SCENARIO_KEYS[cls]:
            text = values[key]
            roll = 2 if plain else draw(st.integers(0, 11))
            if roll == 0:
                text = None
            elif roll == 1:
                text = draw(st.sampled_from(_EDGE_SHAPES))
            if text is not None:
                entries.append(f'"{key}": {text}')
        return "{" + ", ".join(entries) + "}"

    disciplines = []
    for label in draw(st.lists(st.sampled_from(["math", "x"]), max_size=2)):
        onset_year = diffusion = None
        if draw(st.booleans()):
            onset_year = number(1985, 2000)
            params = {"c": number(0, 3), "p_m": number(1, 1000), "p_0": number(0, 1000)}
            diffusion = obj(DiffusionParams, params)
        disciplines.append(obj(DisciplineSpec, {
            "label": f'"{label}"',
            "docs_per_bin": number(0, 20, "1000000000"),
            "onset_year": onset_year,
            "diffusion": diffusion,
        }))
    lo, hi = draw(_PLAIN_YEAR_RANGES if plain else _YEAR_RANGES)
    background = {"size": number(1, 50, "100000000"), "exponent": number(0, 3, "1.1", "-1e308"),
                  "tokens_per_doc": number(0, 8)}
    return obj(ScenarioSpec, {
        "disciplines": "[" + ", ".join(disciplines) + "]",
        "year_range": f"[{lo}, {hi}]",
        "bin_width": number(1, 4),
        "injected_term": '"chaos"' if draw(st.booleans()) else None,
        "injected_coterms": '["nonlinear"]' if draw(st.booleans()) else None,
        "background": obj(BackgroundVocabulary, background),
        "seed": number(0, 100, _BIG),
    })


def test_scenario_property_draws_every_field():
    """Each field of the four scenario dataclasses is a key the property writes,
    leaves out and fills with each JSON type."""
    assert set(_SCENARIO_KEYS) == {ScenarioSpec, DisciplineSpec, DiffusionParams,
                                   BackgroundVocabulary}
    for cls, keys in _SCENARIO_KEYS.items():
        names = {f.name for f in dataclasses.fields(cls)}
        if cls is ScenarioSpec:
            names = names - {"injected_query"} | {"injected_term", "injected_coterms"}
        assert set(keys) == names, cls


@settings(max_examples=150, deadline=None)
@example(text='{"disciplines": [], "year_range": [-%s, %s]}' % (_BIG, _BIG))
@example(text='{"disciplines": [{"label": "math", "docs_per_bin": 3}], "year_range": [1991, 1994]}')
@given(text=_scenario_file())
def test_any_scenario_file_follows_cli_contract(text, tmp_path_factory):
    work = tmp_path_factory.mktemp("scenario")
    (work / "scenario.json").write_text(text)
    out, truth = work / "corpus.jsonl", work / "truth.json"
    argv = ["synth", "--spec", str(work / "scenario.json"), "--truth", str(truth),
            "--out", str(out)]
    if _run_within_contract(argv, out, truth) == 0:
        lo, hi = scenario_from_json(text).year_range
        documents = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(lo <= d["year"] <= hi for d in documents)
        assert len({d["id"] for d in documents}) == len(documents)
