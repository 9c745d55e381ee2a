"""One pass of each workload: the timed ops plus their (untimed) output checks."""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from termflow import cli, corpus, diffusion, measure, migration, plotting, rank, synth, trend
from termflow.corpus import TermQuery
from termflow.diffusion import DiffusionParams
from termflow.synth import BackgroundVocabulary, DisciplineSpec, ScenarioSpec, SuccessionStage

import checks
import hostspeed


@dataclass
class Op:
    """One timed op: its name, wall seconds per timed part, and its check result."""

    name: str
    seconds: float
    parts: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    probes: tuple = ()  # host speed probes right before and right after the op


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ---------------------------------------------------------------------------
# CLI sessions: the seven subcommands through termflow.cli.main.
# ---------------------------------------------------------------------------


def cli_pass(ops, checker, tracer, label: str) -> list[Op]:
    results = []
    before = hostspeed.probe()
    for i, (name, argv) in enumerate(ops):
        error = None
        start = perf_counter()
        try:
            with tracer.op(f"{label}.{i}.{name}", "cli.main"):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # counted in error_rate, not fatal
            code, error = None, _failure(exc)
        seconds = perf_counter() - start
        after = hostspeed.probe()
        if error is None and code != 0:
            error = f"{name} exited with {code}"
        if error is None:
            try:
                error = checker(name)
            except Exception as exc:  # an unreadable artifact is a failed op
                error = f"{name} artifact unreadable: {_failure(exc)}"
        results.append(Op(name, seconds, {name: seconds}, error, (before, after)))
        before = after
    return results


# ---------------------------------------------------------------------------
# Tier-1 trials: criterion-5 migration, criterion-7 succession, donor fit.
# ---------------------------------------------------------------------------

CHAOS = TermQuery.parse("chaos")
DONOR, BORROWER, BORROWER_ONSET = "mathematics", "education", 1988
TRUE_LAG = BORROWER_ONSET - 1978
SMALL_BG = BackgroundVocabulary(size=100, exponent=1.1, tokens_per_doc=6)
STAGES = (
    SuccessionStage(TermQuery.parse("mbd"), 1974, DiffusionParams(0.6, 1000, 40)),
    SuccessionStage(TermQuery.parse("add", ["attention"]), 1984, DiffusionParams(0.45, 1000, 40)),
    SuccessionStage(TermQuery.parse("adhd"), 1992, DiffusionParams(1.1, 1000, 40)),
)
SUCCESSION_YEARS = (1974, 2003)


def migration_spec(seed: int, docs_per_bin: int) -> ScenarioSpec:
    return ScenarioSpec(
        disciplines=(
            DisciplineSpec(DONOR, docs_per_bin, 1978, DiffusionParams(0.6, 1000, 40)),
            DisciplineSpec(BORROWER, docs_per_bin, BORROWER_ONSET, DiffusionParams(0.35, 1000, 40)),
        ),
        year_range=(1974, 2002),
        bin_width=2,
        injected_query=CHAOS,
        background=SMALL_BG,
        seed=seed,
    )


@dataclass(frozen=True)
class TrialOracle:
    """Seed-independent ground truth: the noise-free succession crossovers."""

    crossovers: tuple[int, int]
    annotations: measure.AnnotationSet


def trial_oracle(docs_per_bin: int) -> TrialOracle:
    """Crossovers of the constructed probability profiles, as in criterion 7."""
    _, truth = synth.generate_succession(
        STAGES, "psychology", 1, SUCCESSION_YEARS, seed=0, background=SMALL_BG
    )
    bins = tuple(corpus.TimeBin(s, 2) for s in truth.bin_starts)
    clean = []
    for stage in STAGES:
        n = tuple(int(round(q * docs_per_bin)) for q in truth.probs[stage.query.label()])
        freq = trend.FrequencySeries(
            "psychology", stage.query, bins, n, (docs_per_bin,) * len(bins),
            tuple(v / docs_per_bin for v in n),
        )
        clean.append(trend.apply_support_filter(trend.growth_series(freq)))
    first = migration.detect_succession(clean[0], clean[1])
    second = migration.detect_succession(clean[1], clean[2])
    terms = SMALL_BG.tokens() + list(CHAOS.term)
    flags = {
        (t, d): checks.technical(t, set(CHAOS.term)) for t in terms for d in (DONOR, BORROWER)
    }
    return TrialOracle(
        crossovers=(first.crossover_bin.start_year, second.crossover_bin.start_year),
        annotations=measure.AnnotationSet(flags),
    )


def run_trial(seed: int, migration_docs: int, succession_docs: int, ann) -> tuple[dict, dict]:
    """One trial; returns the wall seconds of each part and its outputs."""
    t = {}
    clock = perf_counter()

    def lap(name: str) -> None:
        nonlocal clock
        now = perf_counter()
        t[name] = now - clock
        clock = now

    records, truth = synth.generate(migration_spec(seed, migration_docs))
    lap("generate")
    index = corpus.ingest(records)
    lap("ingest")
    series = {}
    for disc in index.disciplines:
        series[disc] = trend.growth_pipeline(index, CHAOS, disc)
        lap("growth." + disc)
    report = migration.classify_roles(series, query_label=CHAOS.label())
    lap("classify")

    s_records, _ = synth.generate_succession(
        STAGES, "psychology", succession_docs, SUCCESSION_YEARS, seed=seed, background=SMALL_BG
    )
    s_index = corpus.ingest(s_records)
    s_growth = [trend.growth_pipeline(s_index, s.query, "psychology") for s in STAGES]
    first = migration.detect_succession(s_growth[0], s_growth[1])
    second = migration.detect_succession(s_growth[1], s_growth[2])
    lap("succession")

    fitted = diffusion.fit(diffusion.adoption_series(index, CHAOS, truth.donor))
    lap("fit")

    # The in-memory analysis the rank, mdelta and plot subcommands run.
    ranking = rank.rank_terms(index, truth.donor)
    lap("rank")
    hardness = []
    for disc in index.disciplines:
        r = rank.rank_terms(index, disc)
        hardness.append(
            measure.m_delta(rank.top_terms(r), rank.bottom_terms(r), disc, ann, smoothing=True)
        )
    hardness = measure.hardness_ranking(hardness)
    lap("mdelta")
    svg = plotting.growth_chart_svg(list(series.values()))
    lap("plot")

    out = dict(records=records, truth=truth, report=report, first=first, second=second,
               fitted=fitted, ranking=ranking, hardness=hardness, svg=svg, n_series=len(series))
    return t, out


def trial_parts(t: dict) -> dict[str, float]:
    """Per-subcommand seconds on one trial: ingest plus that command's calls."""
    growth = sum(v for k, v in t.items() if k.startswith("growth."))
    ingest = t["ingest"]
    return {
        "ingest": ingest,
        "rank": ingest + t["rank"],
        "mdelta": ingest + t["mdelta"],
        "trend": ingest + t["growth." + DONOR],
        "migrate": ingest + growth + t["classify"],
        "fit": ingest + t["fit"],
        "plot": ingest + growth + t["plot"],
    }


def trial_error(out: dict, oracle: TrialOracle) -> str | None:
    """Migration, succession and fit outcomes against the synth ground truth."""
    report, truth = out["report"], out["truth"]
    if report.donor.discipline != truth.donor:
        return f"donor {report.donor.discipline} != truth {truth.donor}"
    if not report.borrowers or abs(report.borrowers[0][1] - TRUE_LAG) > 2:
        return f"borrower lag {[b[1] for b in report.borrowers]} not within {TRUE_LAG}±2"
    for event, want in zip((out["first"], out["second"]), oracle.crossovers):
        if event is None or abs(event.crossover_bin.start_year - want) > 2:
            return f"succession crossover {event and event.crossover_bin.start_year} != {want}±2"
    donor_docs = [r for r in out["records"] if r.discipline == truth.donor]
    adopted = sum(1 for r in donor_docs if CHAOS.term[0] in checks.tokens_of(r.abstract))
    fitted = out["fitted"]
    if not math.isfinite(fitted.rmse) or fitted.params.p_m < adopted:
        return f"fit rmse {fitted.rmse} / p_m {fitted.params.p_m} vs {adopted} adopters"
    seen = set()
    for r in donor_docs:
        seen.update(checks.tokens_of(r.abstract))
    error = checks.ranking_error([(r.term, r.percentile) for r in out["ranking"]], seen)
    if error:
        return error
    if sorted(h.discipline for h in out["hardness"]) != sorted({DONOR, BORROWER}):
        return "mdelta reports are not one per discipline"
    return checks.svg_error(out["svg"], out["n_series"])


def trial_inputs(seed: int, wl) -> dict:
    """Sizes of one trial's two corpora (the migration and succession scenarios)."""
    records, _ = synth.generate(migration_spec(seed, wl.migration_docs_per_bin))
    s_records, _ = synth.generate_succession(
        STAGES, "psychology", wl.succession_docs_per_bin, SUCCESSION_YEARS, seed=seed,
        background=SMALL_BG,
    )
    toks = [checks.tokens_of(r.abstract) for r in records + s_records]
    return {
        "docs": len(toks),
        "tokens": sum(map(len, toks)),
        "vocabulary": len(set().union(*toks)),
        "jsonl_bytes": 0,
        "trials_per_pass": wl.trials_per_pass,
    }


def trials_pass(seeds, wl, oracle: TrialOracle, tracer, label: str) -> list[Op]:
    results = []
    before = hostspeed.probe()
    for seed in seeds:
        error, parts = None, {}
        start = perf_counter()
        try:
            with tracer.op(f"{label}.{seed}", "trial"):
                t, out = run_trial(
                    seed, wl.migration_docs_per_bin, wl.succession_docs_per_bin, oracle.annotations
                )
        except Exception as exc:  # counted in error_rate, not fatal
            error = _failure(exc)
        seconds = perf_counter() - start
        after = hostspeed.probe()
        if error is None:
            parts = trial_parts(t)
            try:
                error = trial_error(out, oracle)
            except Exception as exc:
                error = f"trial check failed: {_failure(exc)}"
        results.append(Op("trial", seconds, parts, error, (before, after)))
        before = after
    return results
