"""Golden artifacts: every subcommand's output on one small seeded corpus.

Each case runs the CLI from a fixed working directory holding copies of the
inputs, so the paths recorded in each artifact's ``config`` are relative and
stable, and compares the written files byte for byte with ``tests/golden/``.
The synthetic generators are pinned too, by the sha256 of their JSONL output
for seeds 0-9, and for two scenarios over wide background vocabularies.

Regenerate the golden files (only for a deliberate change of output) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from termflow.cli import main
from termflow.corpus import CorpusIndex, TermQuery, write_jsonl_records
from termflow.diffusion import DiffusionParams
from termflow.synth import (
    BackgroundVocabulary,
    DisciplineSpec,
    ScenarioSpec,
    SuccessionStage,
    generate,
    generate_succession,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = ("scenario.json", "corpus.jsonl", "annotations.csv")

# (case id, argv, artifacts the run writes)
CASES = (
    ("synth", ["synth", "--spec", "scenario.json", "--truth", "truth.json",
               "--out", "corpus.jsonl"], ("corpus.jsonl", "truth.json")),
    ("ingest_csv", ["ingest", "--corpus", "corpus.jsonl", "--out", "ingest.csv"],
     ("ingest.csv",)),
    ("ingest_json", ["ingest", "--corpus", "corpus.jsonl", "--format", "json",
                     "--out", "ingest.json"], ("ingest.json",)),
    ("rank", ["rank", "--corpus", "corpus.jsonl", "--discipline", "math",
              "--out", "rank.csv"], ("rank.csv",)),
    ("mdelta", ["mdelta", "--corpus", "corpus.jsonl", "--annotations",
                "annotations.csv", "--smooth", "--out", "mdelta.csv"], ("mdelta.csv",)),
    ("trend", ["trend", "--corpus", "corpus.jsonl", "--term", "chaos theory",
               "--discipline", "math", "--plot", "trend.svg", "--out", "trend.csv"],
     ("trend.csv", "trend.svg")),
    ("migrate", ["migrate", "--corpus", "corpus.jsonl", "--term", "chaos theory",
                 "--out", "migrate.json"], ("migrate.json",)),
    ("fit", ["fit", "--corpus", "corpus.jsonl", "--term", "chaos theory",
             "--discipline", "math", "--out", "fit.json"], ("fit.json",)),
    ("simulate", ["simulate", "--c", "0.6", "--pm", "100", "--p0", "5",
                  "--t-end", "20", "--dt", "0.5", "--out", "simulate.csv"],
     ("simulate.csv",)),
    ("simulate_euler", ["simulate", "--c", "0.6", "--pm", "100", "--p0", "5",
                        "--t-end", "20", "--dt", "0.5", "--euler",
                        "--out", "simulate_euler.csv"], ("simulate_euler.csv",)),
    ("plot", ["plot", "--corpus", "corpus.jsonl", "--series", "chaos theory@math",
              "--series", "chaos theory@social science", "--series",
              "bg001+bg000@history", "--title", "golden", "--out", "plot.svg"],
     ("plot.svg",)),
)


def _run_case(argv: list[str], workdir: Path) -> None:
    for name in INPUTS:
        shutil.copyfile(GOLDEN / name, workdir / name)
    assert main(argv) == 0


@pytest.mark.parametrize(
    "argv, artifacts", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_artifacts_match_golden(argv, artifacts, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_case(argv, tmp_path)
    for name in artifacts:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv", [c[1] for c in CASES if "--corpus" in c[1]],
    ids=[c[0] for c in CASES if "--corpus" in c[1]],
)
def test_subcommands_never_build_the_postings_view(argv, tmp_path, monkeypatch):
    def refuse(index):
        raise AssertionError("CorpusIndex.postings was built")

    monkeypatch.setattr(CorpusIndex, "postings", property(refuse))
    monkeypatch.chdir(tmp_path)
    _run_case(argv, tmp_path)


def _jsonl_sha256(records) -> str:
    buf = io.StringIO()
    write_jsonl_records(records, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _scenario(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        disciplines=(
            DisciplineSpec("math", 12, 1978, DiffusionParams(0.6, 1000.0, 40.0)),
            DisciplineSpec("education", 9, 1986, DiffusionParams(0.35, 1000.0, 40.0)),
            DisciplineSpec("history", 7),
            DisciplineSpec("empty", 0),
        ),
        year_range=(1975, 1996),
        bin_width=3,
        injected_query=TermQuery.parse("strange attractor", ["chaos"]),
        background=BackgroundVocabulary(size=40, exponent=1.2, tokens_per_doc=5),
        seed=seed,
    )


def _succession(seed: int):
    stages = (
        SuccessionStage(TermQuery.parse("mbd"), 1974, DiffusionParams(0.6, 1000, 40)),
        SuccessionStage(
            TermQuery.parse("add", ["attention"]), 1982, DiffusionParams(0.45, 1000, 40)
        ),
        SuccessionStage(TermQuery.parse("adhd"), 1990, DiffusionParams(1.1, 1000, 40)),
    )
    return generate_succession(
        stages, "psychology", 15, (1974, 1997), bin_width=2,
        background=BackgroundVocabulary(30, 1.1, 4), seed=seed,
    )


def _wide_scenario() -> ScenarioSpec:
    """1,200 background terms, so names reach four digits (``bg1000``), at
    48 tokens per document."""
    return ScenarioSpec(
        disciplines=(
            DisciplineSpec("physics", 20, 1980, DiffusionParams(0.5, 1000.0, 40.0)),
            DisciplineSpec("biology", 15),
        ),
        year_range=(1976, 1991),
        bin_width=2,
        injected_query=TermQuery.parse("phase transition", ["lattice"]),
        background=BackgroundVocabulary(size=1200, exponent=0.9, tokens_per_doc=48),
        seed=7,
    )


def _50k_scenario() -> ScenarioSpec:
    """50,000 background terms at 80 tokens per document, as perfbench's
    wide_vocab: about a fifth of the token draws fall where one step of the
    cumulative weights cannot be told from the next at a 2**-16 resolution."""
    return ScenarioSpec(
        disciplines=(
            DisciplineSpec("physics", 4, 1982, DiffusionParams(0.5, 1000.0, 40.0)),
            DisciplineSpec("biology", 3),
        ),
        year_range=(1980, 1991),
        bin_width=2,
        injected_query=TermQuery.parse("phase transition", ["lattice"]),
        background=BackgroundVocabulary(size=50_000, exponent=1.1, tokens_per_doc=80),
        seed=11,
    )


GENERATE_50K_SHA256 = "2ac86fb2c20dcd37a8c30f0e420b6116f2f0cbf26b03c1c3136816b4d2c0652c"

WIDE_GENERATE_SHA256 = "67872e16ac3d01b55512d2da84a40d258d6e4c1eb4d6ecd32a7f6b1ba9e357d8"

GENERATE_SHA256 = {
    0: "93ca15435d5021cde1a721ce05aa0f41f9ff545e9160d36d9c9d0fbcfa97f117",
    1: "be5bed78d98ba2a4bb9bd256cea412448f80c37413f549fc0cc87d378a168240",
    2: "6c6f8a5253b66861d0244fe52f3ab7a18e45500c16375e4f4a9c6ec428d0a3e8",
    3: "2dd7e4484a2f3607fc7ee9100a5e83254ea28b9e894b4e29a143282cc0175db3",
    4: "3fc40d66bf30c708798b9341a6d0f1590536813dd205339063612e978019d3f6",
    5: "cf7a528e68983a98ba29e3ccf2c815bc9e6d05f08a3f5ebc58a99c7fbb6e81f2",
    6: "ebe2faa9752e25650aadd1bdf75941570804313617da57474d77cd918c625b92",
    7: "8e830e196f45a5d580dee21f7e51059c3fcd9c9ffd4735fcaf2ac94128126d69",
    8: "f5f4138c77b66877cb2b37d645377c7f49f5e9e758f1388ff0e9103967cdf970",
    9: "e853ae9e89442cf96fe8e1d30983cf9081f427c83daea8416c5a0f900e7cba0c",
}

SUCCESSION_SHA256 = {
    0: "dae85e7d79bccc6298fbea150bdf351a37fc690e6b476e4eac7ee158f40cd3cd",
    1: "4c6a81d56a7e5a2f195037ca15508dac2c81190df8ab89d4504b2ce810ec587d",
    2: "f84c303828f08bc6748e3d57c2c7c906eec5edda11d0981e0f01b438ff8833be",
    3: "4cd97de00a44d9408b89a974dd2f737bfa1e6a169f952d3045fbd23a9809a431",
    4: "c305f96280f43fff44380d36e6b9e3b60a69f33275a56b86846fc8954c207846",
    5: "e31cf0427e43bba6180e3e1603b35f5a5553900c163423613a1d7b874115f9dd",
    6: "54185638ce9b182294e0efd7458e67f72816ea557f3d42c40a8672c8713a783c",
    7: "bc745b07956b936765fd1f8db074cd95ca8cccbd46fc481bef2681959e56eba7",
    8: "8b0e81e1d72d021be5ee4680de0d3057335e46d1d069bd1c10ad66575a7e481d",
    9: "1ddee364603eea75b8204ad9a3e706f5fcdf3569e61151a79d9b78647607988d",
}


@pytest.mark.parametrize("seed", range(10))
def test_generate_jsonl_pinned(seed):
    records, _ = generate(_scenario(seed))
    assert _jsonl_sha256(records) == GENERATE_SHA256[seed]


@pytest.mark.parametrize("seed", range(10))
def test_generate_succession_jsonl_pinned(seed):
    records, _ = _succession(seed)
    assert _jsonl_sha256(records) == SUCCESSION_SHA256[seed]


def test_generate_wide_background_jsonl_pinned():
    records, _ = generate(_wide_scenario())
    assert _jsonl_sha256(records) == WIDE_GENERATE_SHA256


def test_generate_50k_background_jsonl_pinned():
    records, _ = generate(_50k_scenario())
    assert _jsonl_sha256(records) == GENERATE_50K_SHA256


def _regenerate() -> None:
    """Rewrite ``tests/golden`` from the current code and print the synth hashes."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        for _, argv, artifacts in CASES:
            _run_case(argv, workdir)
            for name in artifacts:
                shutil.copyfile(workdir / name, GOLDEN / name)
    for seed in range(10):
        print("generate", seed, _jsonl_sha256(generate(_scenario(seed))[0]))
        print("succession", seed, _jsonl_sha256(_succession(seed)[0]))
    print("generate wide", _jsonl_sha256(generate(_wide_scenario())[0]))
    print("generate 50k", _jsonl_sha256(generate(_50k_scenario())[0]))


if __name__ == "__main__":
    _regenerate()
