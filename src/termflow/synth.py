"""Deterministic synthetic corpora with known concept-injection ground truth.

Each discipline emits a fixed number of documents per time bin over a
power-law background vocabulary; a concept term can be injected with a
per-bin probability that follows a logistic adoption curve from its onset
year. The generator's ground truth (onsets, inflection years, true donor,
per-bin injection probabilities) is the oracle for end-to-end tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .corpus import DocumentRecord, TermQuery
from .diffusion import DiffusionParams, inflection_time, logistic_value
from .errors import TermflowError


class InvalidSpec(TermflowError):
    pass


# the most documents, document tokens and background terms a scenario may ask for
MAX_GENERATED = 10**7


@dataclass(frozen=True)
class BackgroundVocabulary:
    """Power-law token pool; low ranks act like 'the', high ranks are rare."""

    size: int = 200
    exponent: float = 1.1
    tokens_per_doc: int = 12

    def tokens(self) -> list[str]:
        return [f"bg{i:03d}" for i in range(self.size)]

    def weights(self) -> np.ndarray:
        ranks = np.arange(1, self.size + 1, dtype=float)
        w = ranks ** (-self.exponent)
        return w / w.sum()


@dataclass(frozen=True)
class DisciplineSpec:
    label: str
    docs_per_bin: int
    onset_year: Optional[int] = None
    diffusion: Optional[DiffusionParams] = None


@dataclass(frozen=True)
class ScenarioSpec:
    disciplines: tuple[DisciplineSpec, ...]
    year_range: tuple[int, int]
    bin_width: int = 2
    injected_query: Optional[TermQuery] = None
    background: BackgroundVocabulary = field(default_factory=BackgroundVocabulary)
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.year_range
        if lo > hi:
            raise InvalidSpec(f"empty year range {self.year_range}")
        if self.bin_width < 1:
            raise InvalidSpec("bin_width must be >= 1")
        # before anything is allocated: the bins, the background and the docs x tokens draws
        n_bins = (hi - lo + lo % self.bin_width) // self.bin_width + 1
        docs = n_bins * sum(d.docs_per_bin for d in self.disciplines)
        tokens = docs * max(self.background.tokens_per_doc, 1)
        if max(tokens, self.background.size) > MAX_GENERATED:
            raise InvalidSpec(
                f"scenario asks for {docs} documents of {self.background.tokens_per_doc} "
                f"tokens over {self.background.size} terms; the limit is {MAX_GENERATED}"
            )
        if self.background.size < 1:
            raise InvalidSpec("background size must be >= 1")
        if self.background.tokens_per_doc < 0:
            raise InvalidSpec("background tokens_per_doc must be >= 0")
        with np.errstate(all="ignore"):  # an exponent such as -1e308 overflows
            weights = self.background.weights()
        if not (np.isfinite(self.background.exponent) and np.isfinite(weights).all()):
            raise InvalidSpec("background exponent must be finite and give finite weights")
        labels = [d.label for d in self.disciplines]
        if len(labels) != len(set(labels)):
            raise InvalidSpec("discipline labels must be unique")
        for d in self.disciplines:
            if d.docs_per_bin < 0:
                raise InvalidSpec(f"{d.label}: docs_per_bin must be >= 0")
            if d.diffusion is not None:
                if d.onset_year is None:
                    raise InvalidSpec(f"{d.label}: diffusion needs an onset_year")
                if self.injected_query is None:
                    raise InvalidSpec("diffusion disciplines need an injected_query")
                if not lo <= d.onset_year <= hi:
                    raise InvalidSpec(
                        f"{d.label}: onset {d.onset_year} outside year range"
                    )
                if not 0 < d.diffusion.p_0 < d.diffusion.p_m:
                    raise InvalidSpec(f"{d.label}: injection needs 0 < p_0 < p_m")

    def bin_starts(self) -> list[int]:
        lo, hi = self.year_range
        anchor = lo - (lo % self.bin_width)
        return list(range(anchor, hi + 1, self.bin_width))


@dataclass(frozen=True)
class DisciplineTruth:
    onset_year: Optional[int]
    inflection_year: Optional[float]
    injection_prob: dict[int, float]  # bin start year -> probability


@dataclass(frozen=True)
class GroundTruth:
    query_label: str
    donor: Optional[str]
    disciplines: dict[str, DisciplineTruth]

    def to_dict(self) -> dict:
        return {
            "query": self.query_label,
            "donor": self.donor,
            "disciplines": {
                label: {
                    "onset_year": t.onset_year,
                    "inflection_year": t.inflection_year,
                    "injection_prob": {str(k): v for k, v in t.injection_prob.items()},
                }
                for label, t in self.disciplines.items()
            },
        }


def injection_probability(
    params: DiffusionParams, onset_year: int, year: int
) -> float:
    """Probability that a document published in ``year`` carries the concept.

    Zero before onset; from onset the adopter fraction p(t) / p_m of the
    logistic, with t measured in years since onset.
    """
    if year < onset_year:
        return 0.0
    return logistic_value(params, float(year - onset_year)) / params.p_m


def _emit_documents(
    rng: np.random.Generator,
    spec: ScenarioSpec,
    disc: DisciplineSpec,
    injections: dict[int, list[tuple[str, float]]],
    vocab: list[str],
    cdf: np.ndarray,
) -> list[DocumentRecord]:
    """Background documents per bin, each followed by its injected texts.

    ``injections`` maps a bin start to ``(text, probability)`` pairs; every
    listed pair draws one uniform per document, in list order, and a
    document whose draw falls below the probability gets ``text`` appended.
    ``vocab`` and ``cdf`` are the background's tokens and cumulative weights.

    Each bin draws, in this order: the documents' years, from the bin's
    years inside ``year_range``, one uniform per (document, token) as a
    docs x tokens matrix, then one uniform vector per
    injection pair in list order. The corpus bytes of a seed depend on that
    order.
    """
    docs_per_bin, tokens_per_doc = disc.docs_per_bin, spec.background.tokens_per_doc
    records: list[DocumentRecord] = []
    if docs_per_bin == 0:
        return records
    # id suffixes, the same in every bin
    suffixes = [f"{j:05d}" for j in range(docs_per_bin)]
    lo, hi = spec.year_range
    for start in spec.bin_starts():
        # the first bin may start before the year range
        first = max(start, lo)
        span = min(start + spec.bin_width, hi + 1) - first
        years = (first + rng.integers(0, span, size=docs_per_bin)).tolist()
        # inverse-CDF sampling beats rng.choice(p=...) by a wide margin
        draws = np.searchsorted(cdf, rng.random((docs_per_bin, tokens_per_doc)))
        rows = np.minimum(draws, len(vocab) - 1).tolist()
        bodies = [" ".join(map(vocab.__getitem__, row)) for row in rows]
        for text, q in injections.get(start, ()):
            tail = " " + text
            mask = (rng.random(docs_per_bin) < q).tolist()
            bodies = [body + tail if hit else body for body, hit in zip(bodies, mask)]
        prefix = f"{disc.label}-{start}-"
        ids = [prefix + suffix for suffix in suffixes]
        records.extend(map(DocumentRecord, ids, repeat(disc.label), years, repeat(""), bodies))
    return records


def _injected_text(query: TermQuery) -> str:
    return " ".join(list(query.term) + sorted(query.required_coterms))


def generate(spec: ScenarioSpec) -> tuple[list[DocumentRecord], GroundTruth]:
    """Emit the scenario's document stream plus its ground truth.

    Output is deterministic for a fixed seed; each discipline draws from
    its own deterministically derived substream, so per-discipline
    generation order cannot change the corpus.
    """
    bin_starts = spec.bin_starts()
    vocab, cdf = spec.background.tokens(), np.cumsum(spec.background.weights())
    records: list[DocumentRecord] = []
    truths: dict[str, DisciplineTruth] = {}
    for disc_i, disc in enumerate(spec.disciplines):
        rng = np.random.default_rng([spec.seed, disc_i])
        prob_by_bin: dict[int, float] = {}
        inflection: Optional[float] = None
        if disc.diffusion is not None and disc.onset_year is not None:
            prob_by_bin = {
                start: injection_probability(disc.diffusion, disc.onset_year, start)
                for start in bin_starts
            }
            inflection = disc.onset_year + inflection_time(disc.diffusion)
        injections = {
            start: [(_injected_text(spec.injected_query), q)]
            for start, q in prob_by_bin.items()
            if q > 0
        }
        records.extend(_emit_documents(rng, spec, disc, injections, vocab, cdf))
        truths[disc.label] = DisciplineTruth(
            onset_year=disc.onset_year if disc.diffusion is not None else None,
            inflection_year=inflection,
            injection_prob=prob_by_bin,
        )

    adopters = [
        d for d in spec.disciplines if d.diffusion is not None and d.onset_year is not None
    ]
    donor = (
        min(adopters, key=lambda d: (d.onset_year, d.label)).label if adopters else None
    )
    query_label = spec.injected_query.label() if spec.injected_query else ""
    return records, GroundTruth(
        query_label=query_label, donor=donor, disciplines=truths
    )


# ---------------------------------------------------------------------------
# Term-succession scenarios: one discipline, a chain of replacement terms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuccessionStage:
    query: TermQuery
    onset_year: int
    params: DiffusionParams


@dataclass(frozen=True)
class SuccessionTruth:
    """Per-stage per-bin occurrence probabilities the documents were drawn from."""

    bin_starts: tuple[int, ...]
    probs: dict[str, tuple[float, ...]]  # stage label -> probability per bin


def succession_probabilities(
    stages: Sequence[SuccessionStage], bin_starts: Sequence[int]
) -> dict[str, tuple[float, ...]]:
    """Replacement-chain prevalences: each stage rises on its own logistic
    and falls away as its successor's adoption takes over."""
    probs: dict[str, tuple[float, ...]] = {}
    for i, stage in enumerate(stages):
        successor = stages[i + 1] if i + 1 < len(stages) else None
        values = []
        for start in bin_starts:
            q = injection_probability(stage.params, stage.onset_year, start)
            if successor is not None:
                q *= 1.0 - injection_probability(
                    successor.params, successor.onset_year, start
                )
            values.append(q)
        probs[stage.query.label()] = tuple(values)
    return probs


def generate_succession(
    stages: Sequence[SuccessionStage],
    discipline: str,
    docs_per_bin: int,
    year_range: tuple[int, int],
    bin_width: int = 2,
    background: Optional[BackgroundVocabulary] = None,
    seed: int = 0,
) -> tuple[list[DocumentRecord], SuccessionTruth]:
    """One-discipline corpus in which successive terms replace one another."""
    if not stages:
        raise InvalidSpec("need at least one succession stage")
    background = background or BackgroundVocabulary()
    base = ScenarioSpec(
        disciplines=(DisciplineSpec(label=discipline, docs_per_bin=docs_per_bin),),
        year_range=year_range,
        bin_width=bin_width,
        background=background,
        seed=seed,
    )
    bin_starts = base.bin_starts()
    probs = succession_probabilities(stages, bin_starts)
    injections = {
        start: [
            (_injected_text(s.query), probs[s.query.label()][bin_i]) for s in stages
        ]
        for bin_i, start in enumerate(bin_starts)
    }
    rng = np.random.default_rng([seed, 0])
    vocab, cdf = background.tokens(), np.cumsum(background.weights())
    records = _emit_documents(rng, base, base.disciplines[0], injections, vocab, cdf)
    return records, SuccessionTruth(bin_starts=tuple(bin_starts), probs=probs)


# ---------------------------------------------------------------------------
# JSON scenario files for the CLI.
# ---------------------------------------------------------------------------


def scenario_from_json(text: str) -> ScenarioSpec:
    """Parse a scenario file; see README for the schema."""
    # JSONDecodeError is a ValueError, as a number past the int-string limit is
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidSpec(f"invalid scenario JSON: {exc}") from exc
    try:
        disciplines = []
        for d in obj["disciplines"]:
            diffusion = None
            if d.get("diffusion") is not None:
                diffusion = DiffusionParams(
                    c=float(d["diffusion"]["c"]),
                    p_m=float(d["diffusion"]["p_m"]),
                    p_0=float(d["diffusion"]["p_0"]),
                )
            disciplines.append(
                DisciplineSpec(
                    label=d["label"],
                    docs_per_bin=int(d["docs_per_bin"]),
                    onset_year=d.get("onset_year"),
                    diffusion=diffusion,
                )
            )
        query = None
        if obj.get("injected_term"):
            query = TermQuery.parse(
                obj["injected_term"], obj.get("injected_coterms", ())
            )
        bg = obj.get("background", {})
        background = BackgroundVocabulary(
            size=int(bg.get("size", 200)),
            exponent=float(bg.get("exponent", 1.1)),
            tokens_per_doc=int(bg.get("tokens_per_doc", 12)),
        )
        return ScenarioSpec(
            disciplines=tuple(disciplines),
            year_range=(int(obj["year_range"][0]), int(obj["year_range"][1])),
            bin_width=int(obj.get("bin_width", 2)),
            injected_query=query,
            background=background,
            seed=int(obj.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InvalidSpec(f"bad scenario field: {exc}") from exc
