import csv
import io
import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    import termflow.corpus as corpus_mod

    index = corpus_mod.ingest(corpus_mod.read_jsonl_records(corpus_path))
    rows = ["term,discipline,technical"]
    for term in sorted(index.postings):
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


@settings(max_examples=60, deadline=None)
@example(label="math, applied")
@example(label='the "hard" sciences')
@example(label="line\nbreak")
@example(label="carriage\rreturn")
@example(label="both\r\nends ")
@given(
    label=st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)
    .filter(lambda s: s.strip() and s != "other")
)
def test_discipline_label_round_trips_through_csv(label, tmp_path_factory):
    work = tmp_path_factory.mktemp("label")
    records = [
        DocumentRecord(f"d{i}", disc, 1990 + i % 2, "", text)
        for i, (disc, text) in enumerate(
            [(label, "alpha beta"), (label, "beta"), ("other", "alpha gamma")]
        )
    ]
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
    assert _csv_body(ingest_out) == [["discipline", "bin_start", "documents"]] + [
        [disc, "1990", str(n)] for disc, n in sorted([(label, 2), ("other", 1)])
    ]

    mdelta_out = work / "mdelta.csv"
    argv = ["mdelta", "--corpus", str(corpus_file), "--annotations", str(ann_file),
            "--smooth", "--out", str(mdelta_out)]
    assert main(argv) == 0
    rows = _csv_body(mdelta_out)
    assert rows[0] == ["discipline", "m_top", "m_bottom", "m_delta", "label", "smoothed"]
    assert sorted(r[0] for r in rows[1:]) == sorted([label, "other"])
    assert all(len(r) == 6 for r in rows)


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(["ingest", "--corpus", "/does/not/exist.jsonl"], capsys)
    assert code == 1
    assert err.startswith("error code=io.")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--corpus"])
    assert exc.value.code == 2


CORPUS, SPEC = object(), object()
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
    ],
    ids=["term-plus", "dt-zero", "even-window", "bin-width-zero", "seed-env",
         "negative-threshold", "nan-threshold", "nan-t-end", "inf-t-end-euler",
         "negative-t-end", "overflowing-steps", "overflowing-steps-euler",
         "inf-strong-threshold", "negative-inf-strong-threshold",
         "nan-strong-threshold", "negative-list-length", "zero-list-length",
         "huge-steps", "huge-steps-euler"],
)
def test_invalid_input_follows_cli_contract(
    env, argv, expected, corpus_path, tmp_path, capsys, monkeypatch
):
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(
        {"disciplines": [{"label": "math", "docs_per_bin": 2}], "year_range": [1990, 1993]}
    ))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [corpus_path if a is CORPUS else str(spec_path) if a is SPEC else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (1, 2)
    if code == 1:
        assert re.fullmatch(r'error code=\S+ msg=".*"\n', err)
    assert code == expected


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
    import termflow.corpus as corpus_mod

    index = corpus_mod.ingest(corpus_mod.read_jsonl_records(corpus_path))
    growth = growth_pipeline(index, TermQuery.parse("neverseen"), "math")
    with pytest.raises(EmptySeriesSet):
        growth_chart_svg([growth])


def test_growth_chart_constant_series_on_zero_rule(corpus_path):
    import termflow.corpus as corpus_mod

    index = corpus_mod.ingest(corpus_mod.read_jsonl_records(corpus_path))
    # the top background token occurs at a steady rate: its line hugs zero
    growth = growth_pipeline(index, TermQuery.parse("bg000"), "math")
    svg = growth_chart_svg([growth], config={"probe": 1})
    assert 'stroke-dasharray="2,5"' in svg
    assert "<metadata>" in svg
    root = ET.fromstring(svg)
    assert root.get("version") == "1.1"
