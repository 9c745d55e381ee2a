"""Workload definitions for the termflow benchmark, with the reason for each.

Every workload is a closed loop with one caller: each op starts when the
previous one returns, and all load comes from one process with no worker
threads. Inputs come from ``termflow synth`` (CLI workloads) or from the
synth API (trials), seeded by the benchmark's ``--seed``.

Why these three workloads
-------------------------
``wide_vocab``
    Shape of ROADMAP scenario L: four disciplines with staggered onsets,
    250 docs per discipline and bin (15,000 docs) over a 50,000-term
    background at 80 tokens/doc, so about 44k distinct terms are seen.
    Tokenize/ingest and ``rank_terms`` (``mdelta`` ranks all four
    disciplines) carry the cost. The query is the single token ``chaos``,
    which takes the postings fast path, so this workload bypasses phrase
    matching.
``many_docs``
    Shape of ROADMAP scenario M: two disciplines, a 200-term background at
    12 tokens/doc and 15,000 short documents. Per-record JSON parsing and
    validation weigh most here, and every trend/migrate/fit/plot count
    takes the ``cell_tokens`` scan path because the query is the phrase
    ``strange attractor`` with co-term ``nonlinear``. ``rank`` covers only
    about 200 terms, so this workload bypasses rank work.
``trials``
    The Tier-1 trial loop, in memory through the API: no JSON, no files, no
    CLI. Each trial runs a criterion-5 migration trial, a criterion-7
    succession trial and a ``fit`` of the donor's adoption series, so ingest
    runs on many small corpora instead of one big one, and synth is timed
    work. A persisted-index change must show no change here.

    Each trial also runs, on its migration index, the in-memory analysis of
    the remaining subcommands (``rank_terms``, the ``mdelta`` ranking and
    ``growth_chart_svg``; together under 2% of a trial), so that every
    ``cmd_*_s`` metric has a measured value on every workload: on trials,
    ``cmd_X_s`` is the ingest of the trial corpus plus the API calls that
    subcommand X makes on it.

Sizing: wide_vocab holds 15,000 docs, half of scenario L, and its donor has
the diffusion parameters of the Tier-1 migration trials (c=0.6, 40 of 1000
adopters at onset). It is not
smaller because ``migrate`` names as donor the earliest peak of at least half
the largest peak rate, so a later discipline whose first mentions are few can
spike and hide the donor: in 400 seeds of the same scenario with a small
background, the donor was wrong on 2 at 150 docs per discipline and bin, on 1
at 200 and on none at 250. It is not larger because two passes (about 35 s on
a shared 2-vCPU Xeon host) must fit in one run. many_docs holds 15,000 docs, not
scenario M's 50k+, so that each subcommand repeats several times in one run:
in five seeds per size run in turns, its ``cmd_*_s`` spreads (quartile
distance over median of the run values, raw wall time) were 0.04-0.18 at 15k
docs against 0.20-0.26 at 51k.

Prediction table (per-layer metric -> end-to-end metric it should move ->
workload where it dominates / where it is bypassed) is ``LAYER_METRICS``
below; sizes were measured once per stage on an unmodified seed copy on a
2-vCPU machine (102k-doc corpus: read 1.5s, tokenize 1.3s, ingest 2.4s;
30k-doc 50k-term corpus: tokenize 1.8s, ingest 3.9s, rank_terms 0.82s;
fit about 0.14s; one trial about 0.78s: synth 40%, ingest 45%, fit 13%).
"""

from __future__ import annotations

from dataclasses import dataclass

CMD_NAMES = ("ingest", "rank", "mdelta", "trend", "migrate", "fit", "plot")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("session_s", "s", "lower"),
    *((f"cmd_{c}_s", "s", "lower") for c in CMD_NAMES),
    ("peak_rss_mb", "MB", "lower"),
)

# (metric, unit, end-to-end metrics it should move, dominates / bypassed)
LAYER_METRICS = (
    ("synth.generate.ms", "ms", "session_s (trials), setup_s", "trials / CLI (setup only)"),
    ("synth.generate_succession.ms", "ms", "session_s (trials)", "trials / CLI"),
    ("synth.docs", "count", "session_s (trials), setup_s", "trials / CLI (setup only)"),
    ("corpus.write_jsonl_records.ms", "ms", "setup_s", "CLI (setup only) / trials"),
    ("corpus.read_jsonl_records.ms", "ms", "every cmd_*_s", "many_docs / trials"),
    ("corpus.read_jsonl_records.docs", "count", "every cmd_*_s", "many_docs / trials"),
    ("corpus.read_jsonl_records.bytes", "bytes", "every cmd_*_s", "many_docs / trials"),
    ("corpus.tokenize.ms", "ms", "every cmd_*_s, session_s", "wide_vocab, trials"),
    ("corpus.tokenize.tokens", "count", "every cmd_*_s, session_s", "wide_vocab, trials"),
    ("corpus.ingest.ms", "ms", "every cmd_*_s, session_s, peak_rss_mb", "wide_vocab, trials"),
    ("corpus.ingest.calls", "count", "every cmd_*_s, session_s", "trials (small calls)"),
    ("corpus.index.terms", "count", "peak_rss_mb", "wide_vocab"),
    ("corpus.index.cells", "count", "peak_rss_mb", "wide_vocab"),
    ("corpus.count_matches.ms", "ms", "cmd_trend/migrate/fit/plot_s", "many_docs / wide_vocab"),
    ("corpus.count_matches.calls", "count", "cmd_trend/migrate/fit/plot_s", "many_docs / wide_vocab"),
    ("corpus.count_matches.scanned_docs", "count", "cmd_trend/migrate/fit/plot_s", "many_docs / wide_vocab"),
    ("rank.rank_terms.ms", "ms", "cmd_rank_s, cmd_mdelta_s", "wide_vocab / many_docs"),
    ("rank.rank_terms.calls", "count", "cmd_rank_s, cmd_mdelta_s", "wide_vocab / many_docs"),
    ("rank.terms_ranked", "count", "cmd_rank_s, cmd_mdelta_s", "wide_vocab / many_docs"),
    ("rank.method.poisson", "count", "cmd_rank_s, cmd_mdelta_s", "wide_vocab / many_docs"),
    ("rank.method.normal", "count", "cmd_rank_s, cmd_mdelta_s", "wide_vocab / many_docs"),
    ("rank.write_ranking_csv.ms", "ms", "cmd_rank_s", "wide_vocab / many_docs"),
    ("measure.load_annotations.ms", "ms", "cmd_mdelta_s", "wide_vocab / many_docs"),
    ("measure.m_delta.ms", "ms", "cmd_mdelta_s", "wide_vocab / many_docs"),
    ("trend.growth_pipeline.ms", "ms", "cmd_trend_s, cmd_migrate_s, session_s (trials)", "predicted <2% everywhere"),
    ("trend.growth_pipeline.calls", "count", "cmd_trend_s, cmd_migrate_s, session_s (trials)", "predicted <2% everywhere"),
    ("trend.frequency_series.ms", "ms", "cmd_trend_s, cmd_migrate_s, session_s (trials)", "predicted <2% everywhere"),
    ("trend.masked.low_support", "count", "cmd_trend_s, cmd_migrate_s", "predicted <2% everywhere"),
    ("trend.masked.zero_frequency", "count", "cmd_trend_s, cmd_migrate_s", "predicted <2% everywhere"),
    ("trend.masked.missing_bin", "count", "cmd_trend_s, cmd_migrate_s", "predicted <2% everywhere"),
    ("trend.write_series_csv.ms", "ms", "cmd_trend_s", "predicted <2% everywhere"),
    ("diffusion.adoption_series.ms", "ms", "session_s (trials), cmd_fit_s", "trials / wide_vocab"),
    ("diffusion.fit.ms", "ms", "session_s (trials), cmd_fit_s", "trials / wide_vocab"),
    ("diffusion.fit.calls", "count", "session_s (trials), cmd_fit_s", "trials / wide_vocab"),
    ("migration.classify_roles.ms", "ms", "cmd_migrate_s, session_s (trials)", "predicted <1% everywhere"),
    ("migration.detect_succession.ms", "ms", "session_s (trials)", "predicted <1% everywhere"),
    ("plotting.growth_chart_svg.ms", "ms", "cmd_plot_s", "small everywhere"),
    ("plotting.svg_bytes", "bytes", "cmd_plot_s", "small everywhere"),
    ("cli.other.ms", "ms", "every cmd_*_s", "CLI workloads / trials"),
    ("trace.coverage", "ratio", "none; qualifies the trace", "all"),
    ("trace.overhead", "ratio", "none; qualifies the trace", "all"),
)

_CLI_LAYERS = (
    "synth.generate",
    "corpus.write_jsonl_records",
    "corpus.read_jsonl_records",
    "corpus.tokenize",
    "corpus.ingest",
    "corpus.count_matches",
    "rank.rank_terms",
    "rank.write_ranking_csv",
    "measure.load_annotations",
    "measure.m_delta",
    "trend.growth_pipeline",
    "trend.frequency_series",
    "trend.write_series_csv",
    "diffusion.adoption_series",
    "diffusion.fit",
    "migration.classify_roles",
    "plotting.growth_chart_svg",
    "cli.main",
)
_TRIAL_LAYERS = (
    "synth.generate",
    "synth.generate_succession",
    "corpus.tokenize",
    "corpus.ingest",
    "corpus.count_matches",
    "rank.rank_terms",
    "measure.m_delta",
    "trend.growth_pipeline",
    "trend.frequency_series",
    "diffusion.adoption_series",
    "diffusion.fit",
    "migration.classify_roles",
    "migration.detect_succession",
    "plotting.growth_chart_svg",
)
#: Spans a traced run must enter on each workload. A refactor that moves one
#: of these functions makes the traced run fail instead of reporting 0 ms.
MUST_ENTER = {"wide_vocab": _CLI_LAYERS, "many_docs": _CLI_LAYERS, "trials": _TRIAL_LAYERS}
#: Spans a traced run must never enter: trials read and write no files and
#: use no CLI; the CLI workloads run no succession scenario.
MUST_NOT_ENTER = {
    "wide_vocab": ("synth.generate_succession",),
    "many_docs": ("synth.generate_succession",),
    "trials": ("corpus.read_jsonl_records", "corpus.write_jsonl_records", "cli.main"),
}


@dataclass(frozen=True)
class CliWorkload:
    """A corpus written by ``termflow synth`` plus one session of subcommands."""

    name: str
    why: str
    disciplines: tuple[tuple[str, int, float], ...]  # (label, onset year, c)
    docs_per_bin: int
    background: tuple[int, float, int]  # (size, exponent, tokens/doc)
    injected_term: str
    injected_coterms: tuple[str, ...]
    query: str  # --term syntax
    p_0: float = 40.0  # adopters (of 1000) at onset
    setup_repeats: int = 3

    kind = "cli"

    @property
    def labels(self) -> list[str]:
        return [d[0] for d in self.disciplines]

    def scenario(self, seed: int) -> dict:
        size, exponent, tokens = self.background
        return {
            "disciplines": [
                {
                    "label": label,
                    "docs_per_bin": self.docs_per_bin,
                    "onset_year": onset,
                    "diffusion": {"c": c, "p_m": 1000, "p_0": self.p_0},
                }
                for label, onset, c in self.disciplines
            ],
            "year_range": [1974, 2002],
            "bin_width": 2,
            "injected_term": self.injected_term,
            "injected_coterms": list(self.injected_coterms),
            "background": {"size": size, "exponent": exponent, "tokens_per_doc": tokens},
            "seed": seed,
        }

    def synth_argv(self, files: dict, seed: int) -> list[str]:
        """``termflow synth`` writing the corpus and truth file: the set-up."""
        return ["synth", "--spec", files["spec"], "--seed", str(seed),
                "--out", files["corpus"], "--truth", files["truth"]]

    def ops(self, files: dict) -> list[tuple[str, list[str]]]:
        """The session: the seven subcommands in order, each writing an artifact."""
        target = self.labels[0]
        c = ["--corpus", files["corpus"]]
        series = [a for d in self.labels for a in ("--series", f"{self.query}@{d}")]
        return [
            ("ingest", ["ingest", *c, "--out", files["ingest"]]),
            ("rank", ["rank", *c, "--discipline", target, "--out", files["rank"]]),
            ("mdelta", ["mdelta", *c, "--annotations", files["annotations"],
                        "--smooth", "--out", files["mdelta"]]),
            ("trend", ["trend", *c, "--term", self.query, "--discipline", target,
                       "--out", files["trend"]]),
            ("migrate", ["migrate", *c, "--term", self.query, "--out", files["migrate"]]),
            ("fit", ["fit", *c, "--term", self.query, "--discipline", target,
                     "--out", files["fit"]]),
            ("plot", ["plot", *c, *series, "--out", files["plot"]]),
        ]


@dataclass(frozen=True)
class TrialWorkload:
    """The Tier-1 trial loop: in-memory synth -> ingest -> analyse trials."""

    name: str
    why: str
    trials_per_pass: int
    migration_docs_per_bin: int
    succession_docs_per_bin: int
    setup_repeats: int = 5

    kind = "trials"

    def seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + i for i in range(self.trials_per_pass)]


_WHY = {
    "wide_vocab": "15k docs at 80 tokens/doc over a 50k-term vocabulary: tokenize, ingest and rank (44k terms) carry the cost; a single-token query skips phrase scans",
    "many_docs": "15k short docs (12 tokens): JSON parsing and validation weigh most and every count takes the phrase scan path; rank covers only 200 terms",
    "trials": "Tier-1 trial loop in memory: synth and ingest of many small corpora plus fit; reads no files, so it bypasses the CLI",
}


def build(name: str, tiny: bool = False):
    """The named workload at full size, or at a tiny size for self-tests."""
    if name == "wide_vocab":
        return CliWorkload(
            name=name,
            why=_WHY[name],
            disciplines=(
                ("mathematics", 1978, 0.6),
                ("physics", 1982, 0.5),
                ("economics", 1986, 0.45),
                ("education", 1990, 0.4),
            ),
            docs_per_bin=40 if tiny else 250,
            background=(2000 if tiny else 50_000, 1.1, 20 if tiny else 80),
            injected_term="chaos",
            injected_coterms=(),
            query="chaos",
            setup_repeats=1 if tiny else 3,
        )
    if name == "many_docs":
        return CliWorkload(
            name=name,
            why=_WHY[name],
            disciplines=(("mathematics", 1978, 0.6), ("economics", 1986, 0.35)),
            docs_per_bin=80 if tiny else 500,
            background=(200, 1.1, 12),
            injected_term="strange attractor",
            injected_coterms=("nonlinear",),
            query="strange attractor+nonlinear",
            setup_repeats=1 if tiny else 5,
        )
    if name == "trials":
        return TrialWorkload(
            name=name,
            why=_WHY[name],
            trials_per_pass=1 if tiny else 3,
            migration_docs_per_bin=200 if tiny else 800,
            succession_docs_per_bin=300 if tiny else 700,
            setup_repeats=1 if tiny else 5,
        )
    raise KeyError(name)


NAMES = ("wide_vocab", "many_docs", "trials")
