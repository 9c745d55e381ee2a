"""Deterministic synthetic corpora with known concept-injection ground truth.

Each discipline emits a fixed number of documents per time bin over a
power-law background vocabulary; a concept term can be injected with a
per-bin probability that follows a logistic adoption curve from its onset
year. The generator's ground truth (onsets, inflection years, true donor,
per-bin injection probabilities) is the oracle for end-to-end tests.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import operator
from dataclasses import MISSING, dataclass, field
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .corpus import YEAR_MAX, YEAR_MIN, DocumentRecord, InvalidQuery, TermQuery
from .diffusion import DiffusionParams, InvalidParams, inflection_time, logistic_value
from .errors import TermflowError


class InvalidSpec(TermflowError):
    pass


# the most bins, documents, document tokens and background terms a scenario may ask for
MAX_GENERATED = 10**7


@dataclass(frozen=True)
class BackgroundVocabulary:
    """Power-law token pool; low ranks act like 'the', high ranks are rare."""

    size: int = 200
    exponent: float = 1.1
    tokens_per_doc: int = 12

    def tokens(self) -> list[str]:
        # printf-style formatting builds the list in about half the time of an f-string
        return ["bg%03d" % i for i in range(self.size)]

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


def _integer(value, field: str, minimum: Optional[int] = None) -> int:
    """``value`` as an int, if ``operator.index`` takes it, it is not a bool
    (numpy integers pass) and it is at least ``minimum``, when given; else an
    InvalidSpec naming ``field``."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is not None and number < minimum:
                raise InvalidSpec(f"scenario field {field!r} must be >= {minimum}, got {number}")
            return number
    raise InvalidSpec(f"scenario field {field!r} must be an integer, got {value!r}")


def _number(value, field: str) -> float:
    """``value`` as a float, if it is a real number that is not a bool and
    that a float can hold (numpy numbers pass); else an InvalidSpec naming ``field``."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidSpec(f"scenario field {field!r} must be a number in a float's range")


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario for :func:`generate`. It applies the record rules to the
    labels and years its documents will hold and takes only integers in its
    integer fields, so the generator does not check each record again."""

    disciplines: tuple[DisciplineSpec, ...]
    year_range: tuple[int, int]
    bin_width: int = 2
    injected_query: Optional[TermQuery] = None
    background: BackgroundVocabulary = field(default_factory=BackgroundVocabulary)
    seed: int = 0

    def __post_init__(self) -> None:
        # before any arithmetic, which a float or a string would pass or fail untidily
        try:
            lo, hi = self.year_range
        except (TypeError, ValueError):
            raise InvalidSpec(
                f"scenario field 'year_range' must be a pair of years, got {self.year_range!r}"
            ) from None
        lo, hi = _integer(lo, "year_range"), _integer(hi, "year_range")
        bin_width = _integer(self.bin_width, "bin_width", 1)
        _integer(self.seed, "seed", 0)
        size = _integer(self.background.size, "background.size", 1)
        tokens_per_doc = _integer(self.background.tokens_per_doc, "background.tokens_per_doc", 0)
        exponent = _number(self.background.exponent, "background.exponent")
        docs_per_bin = 0
        for i, d in enumerate(self.disciplines):
            docs_per_bin += _integer(d.docs_per_bin, f"disciplines[{i}].docs_per_bin", 0)
            if d.onset_year is not None:
                _integer(d.onset_year, f"disciplines[{i}].onset_year")
        if lo > hi:
            raise InvalidSpec(f"empty year range {self.year_range}")
        # before anything is allocated: the bins, the background and the docs x tokens draws
        n_bins = (hi - lo + lo % bin_width) // bin_width + 1
        docs = n_bins * docs_per_bin
        if max(docs * max(tokens_per_doc, 1), size) > MAX_GENERATED:
            raise InvalidSpec(
                f"scenario asks for {docs} documents of {tokens_per_doc} "
                f"tokens over {size} terms; the limit is {MAX_GENERATED}"
            )
        if n_bins > MAX_GENERATED:  # reached only when no discipline asks for documents
            raise InvalidSpec(f"scenario asks for {n_bins} bins; the limit is {MAX_GENERATED}")
        with np.errstate(all="ignore"):  # an exponent such as -1e308 overflows
            weights = self.background.weights()
        if not (np.isfinite(exponent) and np.isfinite(weights).all()):
            raise InvalidSpec("background exponent must be finite and give finite weights")
        for d in self.disciplines:
            # the rule a record's discipline follows
            if not isinstance(d.label, str) or not d.label.strip():
                raise InvalidSpec(f"discipline label must be a non-blank string, got {d.label!r}")
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
        # after the label check, so that a label that is no string cannot fail the set
        labels = [d.label for d in self.disciplines]
        if len(labels) != len(set(labels)):
            raise InvalidSpec("discipline labels must be unique")
        # a year no record may hold would be refused later, or overflow numpy's draw
        if docs > 0 and not YEAR_MIN <= lo <= hi <= YEAR_MAX:
            raise InvalidSpec(f"documents need years in [{YEAR_MIN}, {YEAR_MAX}], not {lo}-{hi}")

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


# guide-table buckets over [0, 1): a power of two, so that u * _GUIDE_BUCKETS is exact
_GUIDE_BUCKETS = 2**16


def _token_sampler(background: BackgroundVocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The background's tokens as an object array, their cumulative weights,
    and a guide table over the cumulative weights (Chen & Asau, 1974).

    Entry ``b`` of the table is ``np.searchsorted(cdf, u)`` for every ``u``
    in ``[b, b + 1) / _GUIDE_BUCKETS``, or -1 where a step of ``cdf`` falls
    inside that bucket and only the search can settle ``u``.
    """
    cdf = np.cumsum(background.weights())
    edges = np.searchsorted(cdf, np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS)
    guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1).astype(np.int32)
    return np.array(background.tokens(), dtype=object), cdf, guide


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u)`` for ``u`` in [0, 1), as int32, through ``guide``."""
    bucket = np.empty(u.shape, np.int32)
    # float to int truncation is the floor here, without a float temporary
    np.multiply(u, _GUIDE_BUCKETS, out=bucket, casting="unsafe")
    found = guide[bucket]
    unsettled = np.flatnonzero(found < 0)
    found.flat[unsettled] = np.searchsorted(cdf, u.flat[unsettled])
    return found


def _emit_documents(
    rng: np.random.Generator,
    spec: ScenarioSpec,
    disc: DisciplineSpec,
    injections: dict[int, list[tuple[str, float]]],
    sampler: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> list[DocumentRecord]:
    """Background documents per bin, each followed by its injected texts.

    ``injections`` maps a bin start to ``(text, probability)`` pairs; every
    listed pair draws one uniform per document, in list order, and a
    document whose draw falls below the probability gets ``text`` appended.
    ``sampler`` is :func:`_token_sampler` of the background.

    Each bin draws, in this order: the documents' years, from the bin's
    years inside ``year_range``, one uniform per (document, token) as a
    docs x tokens matrix, then one uniform vector per
    injection pair in list order. The corpus bytes of a seed depend on that
    order. A token uniform ``u`` picks the first token whose cumulative
    weight is at least ``u`` (the last token if none is): the guide table
    settles most draws, and a binary search of the cumulative weights the
    rest.
    """
    docs_per_bin, tokens_per_doc = disc.docs_per_bin, spec.background.tokens_per_doc
    records: list[DocumentRecord] = []
    if docs_per_bin == 0:
        return records
    words, cdf, guide = sampler
    # id suffixes, the same in every bin
    suffixes = [f"{j:05d}" for j in range(docs_per_bin)]
    lo, hi = spec.year_range
    for start in spec.bin_starts():
        # the first bin may start before the year range
        first = max(start, lo)
        span = min(start + spec.bin_width, hi + 1) - first
        years = (first + rng.integers(0, span, size=docs_per_bin)).tolist()
        # inverse-CDF sampling beats rng.choice(p=...) by a wide margin
        draws = _guided_search(cdf, guide, rng.random((docs_per_bin, tokens_per_doc)))
        np.minimum(draws, len(words) - 1, out=draws)
        bodies = list(map(" ".join, words[draws].tolist()))
        for text, q in injections.get(start, ()):
            tail = " " + text
            mask = (rng.random(docs_per_bin) < q).tolist()
            bodies = [body + tail if hit else body for body, hit in zip(bodies, mask)]
        prefix = f"{disc.label}-{start}-"
        ids = [prefix + suffix for suffix in suffixes]
        # the spec has applied the record rules, so no record is checked again
        fields = zip(ids, repeat(disc.label), years, repeat(""), bodies)
        records.extend(map(tuple.__new__, repeat(DocumentRecord), fields))
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
    sampler = _token_sampler(spec.background)
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
        records.extend(_emit_documents(rng, spec, disc, injections, sampler))
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
    bin_width: int = ScenarioSpec.bin_width,
    background: Optional[BackgroundVocabulary] = None,
    seed: int = ScenarioSpec.seed,
) -> tuple[list[DocumentRecord], SuccessionTruth]:
    """One-discipline corpus in which successive terms replace one another;
    ``bin_width``, ``background`` and ``seed`` default as in ScenarioSpec."""
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
    sampler = _token_sampler(background)
    records = _emit_documents(rng, base, base.disciplines[0], injections, sampler)
    return records, SuccessionTruth(bin_starts=tuple(bin_starts), probs=probs)


# ---------------------------------------------------------------------------
# JSON scenario files for the CLI.
# ---------------------------------------------------------------------------


def _typed(value, kind, field: str, what: str):
    """``value``, if it is a ``kind`` and not a bool; else an InvalidSpec naming
    ``field``. No scenario field takes a bool, which Python counts as an int."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidSpec(f"scenario field {field!r} must be {what}")
    return value


def _fields(obj, cls, at: str, **keys_of: tuple[str, ...]) -> dict:
    """A copy of JSON object ``obj``, if its keys are ``cls``'s fields or keys that
    ``keys_of`` lets stand for a field, and it holds each field without a
    default; else an InvalidSpec naming the key, prefixed by ``at``."""
    fields = dataclasses.fields(cls)
    keys = [key for f in fields for key in keys_of.get(f.name, (f.name,))]
    for key in _typed(obj, dict, at.rstrip("."), "an object"):
        if key not in keys:
            raise InvalidSpec(f"unknown scenario field {at + key!r}")
    for f in fields:
        if f.default is MISSING and f.default_factory is MISSING and f.name not in obj:
            raise InvalidSpec(f"scenario field {at + f.name!r} is missing")
    return dict(obj)


def scenario_from_json(text: str) -> ScenarioSpec:
    """Parse a scenario file; see README for the schema. A key the file omits
    takes the default of its dataclass field."""
    # JSONDecodeError is a ValueError, as a number past the int-string limit is
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidSpec(f"invalid scenario JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidSpec("a scenario must be a JSON object")
    top = _fields(obj, ScenarioSpec, "", injected_query=("injected_term", "injected_coterms"))
    disciplines = []
    for i, d in enumerate(_typed(top["disciplines"], list, "disciplines", "an array")):
        d = _fields(d, DisciplineSpec, f"disciplines[{i}].")
        if d.get("diffusion") is not None:
            at = f"disciplines[{i}].diffusion."
            params = _fields(d["diffusion"], DiffusionParams, at)
            params = {k: _number(v, at + k) for k, v in params.items()}
            try:
                d["diffusion"] = DiffusionParams(**params)
            except InvalidParams as exc:
                raise InvalidSpec(f"scenario field {at.rstrip('.')!r}: {exc}") from exc
        disciplines.append(DisciplineSpec(**d))
    top["disciplines"] = tuple(disciplines)
    top["year_range"] = tuple(_typed(top["year_range"], list, "year_range", "an array"))
    coterms = _typed(top.pop("injected_coterms", []), list, "injected_coterms", "an array")
    for i, c in enumerate(coterms):
        _typed(c, str, f"injected_coterms[{i}]", "a string")
    if (term := top.pop("injected_term", None)) is not None:
        _typed(term, str, "injected_term", "a string or null")
        try:
            top["injected_query"] = TermQuery.parse(term, coterms)
        except InvalidQuery as exc:
            raise InvalidSpec(f"scenario field 'injected_term': {exc}") from exc
    if "background" in top:
        background = _fields(top["background"], BackgroundVocabulary, "background.")
        top["background"] = BackgroundVocabulary(**background)
    # ScenarioSpec applies the integer rule and the exponent's number rule
    return ScenarioSpec(**top)
