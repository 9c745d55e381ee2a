import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from termflow import corpus as corpus_mod
from termflow import trend as trend_mod
from termflow.cli import main
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


def test_ingest_reads_and_tokenizes_through_the_corpus_module(
    corpus_path, tmp_path, monkeypatch
):
    # perfbench's tracer times a run by swapping these two module attributes
    calls = {"read_jsonl_records": 0, "tokenize": 0}

    def counting(name):
        real = getattr(corpus_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(corpus_mod, name, counting(name))
    assert main(["ingest", "--corpus", corpus_path, "--out", str(tmp_path / "out")]) == 0
    assert calls["read_jsonl_records"] == 1 and calls["tokenize"] > 0, calls


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
# and a scenario past synth's cap, a 10^9 x 12 draw matrix if it were generated
INFINITE_DOCS, OVER_CAP_DOCS = object(), object()
# CSV files past csv's field limit (131,072 characters): a long title, a quote
# that never closes before 20,000 more rows, and a long annotation term; and a
# JSONL corpus that holds one id twice
LONG_CSV_FIELD, OPEN_QUOTE_CSV, LONG_ANNOTATION = object(), object(), object()
REPEATED_ID = object()
_CSV_HEADER = "id,discipline,year,title,abstract\n"
_RECORD = '{"id": "a", "discipline": "x", "year": %s, "title": "", "abstract": ""}\n'
_DEEP = '{"a":' * 5000
_HUGE = "9" * 5000
_DOCS_SPEC = '{"disciplines": [{"label": "x", "docs_per_bin": %s}], "year_range": [1990, 1991]}'
RAW_FILES = {
    DEEP_CORPUS: _DEEP + "\n",
    HUGE_YEAR: _RECORD % _HUGE,
    DEEP_SPEC: _DEEP,
    HUGE_DOCS: _DOCS_SPEC % _HUGE,
    INFINITE_DOCS: _DOCS_SPEC % "1e400",
    OVER_CAP_DOCS: _DOCS_SPEC % "1000000000",
    LONG_CSV_FIELD: _CSV_HEADER + "a1,math,1990,%s,chaos\n" % ("x" * 200_000),
    OPEN_QUOTE_CSV: _CSV_HEADER + 'a0,math,1990,"open,chaos\n' + "a1,math,1990,t,chaos\n" * 20_000,
    LONG_ANNOTATION: "term,discipline,technical\n%s,math,1\n" % ("x" * 200_000),
    REPEATED_ID: _RECORD % 1990 + _RECORD % 1991,
}
# scenario files, each with its background: SPEC's is valid, the others are not
EMPTY_BG, NEGATIVE_BG, NEGATIVE_TOKENS = object(), object(), object()
NAN_EXPONENT, OVERFLOWING_EXPONENT = object(), object()
SPEC_BACKGROUNDS = {SPEC: {}, EMPTY_BG: {"size": 0}, NEGATIVE_BG: {"size": -5},
                    NEGATIVE_TOKENS: {"tokens_per_doc": -1},
                    NAN_EXPONENT: {"size": 5, "exponent": "nan"},
                    OVERFLOWING_EXPONENT: {"size": 5, "exponent": -1e308}}
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
         "unknown-discipline-before-annotations"],
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
_CORPUS_OPTIONS = {"--bin-width": _number(-3, 10**6), "--anchor-year": _number(-10**4, 10**4)}
# subcommand -> (required options, optional options), each with its values;
# --t-end <= 100 and --dt >= 0.01 keep simulate at 10^4 steps or fewer
_SUBCOMMANDS = {
    "ingest": ({}, {**_CORPUS_OPTIONS, "--format": st.sampled_from(["csv", "json"])}),
    "rank": ({"--discipline": _FREE_TEXT},
             {**_CORPUS_OPTIONS, "--normal-threshold": _number(-10, 10**6)}),
    "mdelta": ({"--annotations": st.just(GOLDEN_ANNOTATIONS)},
               {**_CORPUS_OPTIONS, "--discipline": _FREE_TEXT,
                "--list-length": _number(-3, 10**6), "--smooth": _FLAG}),
    "trend": ({"--term": _FREE_TEXT, "--discipline": _FREE_TEXT},
              {**_CORPUS_OPTIONS, **_GROWTH_OPTIONS}),
    "migrate": ({"--term": _FREE_TEXT},
                {**_CORPUS_OPTIONS, **_GROWTH_OPTIONS,
                 "--strong-threshold": _number(-10**3, 10**3)}),
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
@given(argv=_cli_argv())
def test_any_argv_follows_cli_contract(argv, corpus_path, tmp_path_factory):
    work = tmp_path_factory.mktemp("argv")
    if argv[0] == "synth":
        spec_path = work / "s.json"
        spec_path.write_text(json.dumps(
            {"disciplines": [{"label": "math", "docs_per_bin": 2}], "year_range": [1990, 1993]}
        ))
        argv = [*argv, "--spec", str(spec_path)]
    elif argv[0] != "simulate":
        argv = [*argv, "--corpus", corpus_path]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out", str(work / "artifact")])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert re.fullmatch(r'error code=\S+ msg=".*"\n', err.getvalue())


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
    rarely = st.sampled_from(range(8)).map(lambda i: i == 7)
    if draw(rarely):
        data = b"\xef\xbb\xbf" + data
    if draw(rarely):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


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
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["ingest", "--csv", "--corpus", str(work / "corpus.csv"), "--out", str(out)])
    assert code in (0, 1)
    assert re.fullmatch(r'(error code=\S+ msg=".*"\n)?', err.getvalue())
    assert (err.getvalue() == "") == (code == 0) == out.exists()


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
    rarely = st.sampled_from(range(8)).map(lambda i: i == 7)
    if draw(rarely):
        data = b"\xef\xbb\xbf" + data
    if draw(rarely):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=150, deadline=None)
@example(data=b"term,discipline,technical\nchaos,math,1\nbg026,math,0\n")
@example(data=b"term,discipline,technical\nchaos,math,1\nbg026,math,0\nbg041,history,2\n")
@example(data=b"term,discipline,technical\nchaos,math,1\nbg026,math,0\n\xff\n")
@given(data=_annotation_file())
def test_any_annotation_file_follows_cli_contract(data, tmp_path_factory):
    work = tmp_path_factory.mktemp("annotations")
    (work / "annotations.csv").write_bytes(data)
    out = work / "artifact"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["mdelta", "--corpus", GOLDEN_CORPUS, "--annotations",
                     str(work / "annotations.csv"), "--discipline", "math",
                     "--list-length", "1", "--smooth", "--out", str(out)])
    assert code in (0, 1)
    assert re.fullmatch(r'(error code=\S+ msg=".*"\n)?', err.getvalue())
    assert (err.getvalue() == "") == (code == 0) == out.exists()
    if code == 0:
        assert out.read_text().splitlines()[1] == (
            "discipline,m_top,m_bottom,m_delta,label,smoothed"
        )
