import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from termflow import synth
from termflow.corpus import (
    YEAR_MAX,
    YEAR_MIN,
    DocumentRecord,
    TermQuery,
    count_matches,
    ingest,
    write_jsonl_records,
)
from termflow.diffusion import DiffusionParams, inflection_time
from termflow.synth import (
    BackgroundVocabulary,
    DisciplineSpec,
    MAX_GENERATED,
    InvalidSpec,
    ScenarioSpec,
    SuccessionStage,
    generate,
    generate_succession,
    injection_probability,
    scenario_from_json,
    succession_probabilities,
)

PARAMS = DiffusionParams(c=0.6, p_m=1000.0, p_0=40.0)
BG = BackgroundVocabulary(size=80, exponent=1.1, tokens_per_doc=8)


def two_discipline_spec(seed=0, injected=TermQuery.parse("chaos")):
    return ScenarioSpec(
        disciplines=(
            DisciplineSpec("math", 120, 1978, PARAMS),
            DisciplineSpec("education", 120, 1988, PARAMS),
        ),
        year_range=(1974, 1999),
        bin_width=2,
        injected_query=injected,
        background=BG,
        seed=seed,
    )


def test_no_injection_means_zero_occurrences():
    spec = ScenarioSpec(
        disciplines=(DisciplineSpec("math", 50),),
        year_range=(1974, 1981),
        background=BG,
        seed=3,
    )
    records, truth = generate(spec)
    assert all("chaos" not in r.abstract for r in records)
    assert truth.donor is None


def test_same_seed_byte_identical():
    a, _ = generate(two_discipline_spec(seed=7))
    b, _ = generate(two_discipline_spec(seed=7))
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_jsonl_records(a, buf_a)
    write_jsonl_records(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_different_seeds_differ():
    a, _ = generate(two_discipline_spec(seed=1))
    b, _ = generate(two_discipline_spec(seed=2))
    assert [r.abstract for r in a] != [r.abstract for r in b]


def test_documents_respect_year_range_and_counts():
    spec = two_discipline_spec()
    records, _ = generate(spec)
    assert len(records) == 2 * 120 * len(spec.bin_starts())
    assert all(1974 <= r.year <= 1999 for r in records)
    assert len({r.id for r in records}) == len(records)


def test_documents_of_an_off_grid_year_range_stay_inside_it():
    # the first bin starts at 1974, a year before the range does
    spec = ScenarioSpec(
        disciplines=(DisciplineSpec("math", 50), DisciplineSpec("education", 30)),
        year_range=(1975, 1980),
        background=BG,
    )
    records, _ = generate(spec)
    assert spec.bin_starts()[0] == 1974
    assert len(records) == 80 * len(spec.bin_starts())
    assert {r.year for r in records} == set(range(1975, 1981))


def test_injection_zero_before_onset():
    records, truth = generate(two_discipline_spec())
    index = ingest(records)
    q = TermQuery.parse("chaos")
    assert count_matches(index, q, "math", 1974) == 0
    assert count_matches(index, q, "math", 1976) == 0
    assert count_matches(index, q, "math", 1978) > 0


def test_truth_inflection_matches_closed_form():
    _, truth = generate(two_discipline_spec())
    t_star = inflection_time(PARAMS)
    assert truth.disciplines["math"].inflection_year == pytest.approx(1978 + t_star)
    assert truth.disciplines["education"].inflection_year == pytest.approx(1988 + t_star)
    assert truth.donor == "math"


def test_empirical_frequency_tracks_logistic():
    spec = ScenarioSpec(
        disciplines=(
            DisciplineSpec("math", 600, 1978, PARAMS),
            DisciplineSpec("education", 600),
        ),
        year_range=(1974, 1995),
        injected_query=TermQuery.parse("chaos"),
        background=BG,
        seed=11,
    )
    records, truth = generate(spec)
    index = ingest(records)
    q = TermQuery.parse("chaos")
    for start, prob in truth.disciplines["math"].injection_prob.items():
        observed = count_matches(index, q, "math", start)
        sigma = math.sqrt(600 * prob * (1 - prob))
        assert abs(observed - 600 * prob) <= max(3 * sigma, 1.0)


def test_injected_coterms_travel_together():
    spec = two_discipline_spec(injected=TermQuery.parse("add", ["attention"]))
    records, _ = generate(spec)
    index = ingest(records)
    with_coterm = TermQuery.parse("add", ["attention"])
    bare = TermQuery.parse("add")
    assert count_matches(index, with_coterm, "math", 1980) == count_matches(
        index, bare, "math", 1980
    )


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        ScenarioSpec(
            disciplines=(DisciplineSpec("math", 10, 1950, PARAMS),),
            year_range=(1974, 1999),
            injected_query=TermQuery.parse("chaos"),
        )
    with pytest.raises(InvalidSpec):
        ScenarioSpec(
            disciplines=(DisciplineSpec("math", 10, 1980, PARAMS),),
            year_range=(1974, 1999),
        )
    with pytest.raises(InvalidSpec):
        ScenarioSpec(
            disciplines=(DisciplineSpec("a", 10), DisciplineSpec("a", 10)),
            year_range=(1974, 1999),
        )
    # an empty, blank or non-string label, which no record may hold, also with no documents
    for label, docs in (("", 1), (" ", 1), ("", 0), (["a"], 1)):
        with pytest.raises(InvalidSpec, match="non-blank string"):
            ScenarioSpec(disciplines=(DisciplineSpec(label, docs),), year_range=(1990, 1991))
    for background in (
        BackgroundVocabulary(size=0),
        BackgroundVocabulary(size=-5),
        BackgroundVocabulary(tokens_per_doc=-1),
        BackgroundVocabulary(exponent=float("nan")),
        BackgroundVocabulary(exponent=float("inf")),
        BackgroundVocabulary(exponent=-1e308),
    ):
        with pytest.raises(InvalidSpec):
            ScenarioSpec(
                disciplines=(DisciplineSpec("math", 2),),
                year_range=(1990, 1993),
                background=background,
            )
    # past the cap on documents, document tokens or background terms; never generated
    at_cap = BackgroundVocabulary(tokens_per_doc=10)
    ScenarioSpec(disciplines=(DisciplineSpec("math", 5 * 10**5),), year_range=(1990, 1993),
                 background=at_cap)
    for docs, background in (
        (5 * 10**5 + 1, at_cap),
        (5 * 10**6 + 1, BackgroundVocabulary(tokens_per_doc=0)),
        (2, BackgroundVocabulary(size=MAX_GENERATED + 1)),
    ):
        with pytest.raises(InvalidSpec, match="the limit is 10000000$"):
            ScenarioSpec(
                disciplines=(DisciplineSpec("math", docs),),
                year_range=(1990, 1993),
                background=background,
            )
    # past the cap on bins, which only a scenario without documents reaches
    ScenarioSpec(disciplines=(), year_range=(0, 2 * MAX_GENERATED - 1))
    with pytest.raises(InvalidSpec, match="bins; the limit is 10000000$"):
        ScenarioSpec(disciplines=(), year_range=(-(10**20), 10**20))
    # documents only in years a record may hold
    ScenarioSpec(disciplines=(DisciplineSpec("math", 0),), year_range=(0, 5))
    for years in ((999, 1005), (2995, 3001), (10**20, 10**20)):
        with pytest.raises(InvalidSpec, match="documents need years in"):
            ScenarioSpec(disciplines=(DisciplineSpec("math", 2),), year_range=years)
    # integer fields take what operator.index takes, but no bool; each of the
    # first four built a spec whose generate raised a bare TypeError
    base = dict(disciplines=(DisciplineSpec("a", 2, 1991),), year_range=(1990, 1993))
    for changes, name in (
        (dict(disciplines=(DisciplineSpec("a", 1.5),)), "disciplines[0].docs_per_bin"),
        (dict(year_range=(1990.5, 1993)), "year_range"),
        (dict(bin_width=2.0), "bin_width"),
        (dict(disciplines=(DisciplineSpec("a", True),)), "disciplines[0].docs_per_bin"),
        (dict(disciplines=(DisciplineSpec("a", 2, "1991"),)), "disciplines[0].onset_year"),
        (dict(year_range=(1990, np.float64(1993))), "year_range"),
        (dict(seed=False), "seed"),
        (dict(background=BackgroundVocabulary(size=np.bool_(True))), "background.size"),
        (dict(background=BackgroundVocabulary(tokens_per_doc=None)), "background.tokens_per_doc"),
    ):
        message = re.escape(f"scenario field '{name}' must be an integer")
        with pytest.raises(InvalidSpec, match=message):
            ScenarioSpec(**{**base, **changes})
    # a year_range that is no pair, and a negative seed: a bare ValueError before;
    # an exponent that is no number a float holds
    for changes, message in (
        (dict(year_range=(1990,)), "scenario field 'year_range' must be a pair of years"),
        (dict(year_range=(1990, 1991, 1992)), "scenario field 'year_range' must be a pair"),
        (dict(year_range=1990), "scenario field 'year_range' must be a pair of years"),
        (dict(seed=-1), "scenario field 'seed' must be >= 0, got -1"),
        (dict(seed=np.int64(-3)), "scenario field 'seed' must be >= 0, got -3"),
        # each range refusal below named no field path, or the label in its place
        (dict(bin_width=0), "scenario field 'bin_width' must be >= 1, got 0"),
        (dict(background=BackgroundVocabulary(size=0)),
         "scenario field 'background.size' must be >= 1, got 0"),
        (dict(background=BackgroundVocabulary(tokens_per_doc=-1)),
         "scenario field 'background.tokens_per_doc' must be >= 0, got -1"),
        (dict(disciplines=(DisciplineSpec("a", -2),)),
         "scenario field 'disciplines[0].docs_per_bin' must be >= 0, got -2"),
        # a bare TypeError, a spec taken, and an OverflowError before
        (dict(background=BackgroundVocabulary(exponent="x")),
         "scenario field 'background.exponent' must be a number"),
        (dict(background=BackgroundVocabulary(exponent=True)),
         "scenario field 'background.exponent' must be a number"),
        (dict(background=BackgroundVocabulary(exponent=10**400)),
         "scenario field 'background.exponent' must be a number"),
    ):
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            ScenarioSpec(**{**base, **changes})
    # numpy integers pass, and generate what Python integers do
    as_numpy = ScenarioSpec(
        disciplines=(DisciplineSpec("a", np.int8(2), np.uint16(1991)),),
        year_range=(np.int64(1990), np.int32(1993)),
        bin_width=np.int64(2),
        background=BackgroundVocabulary(size=np.int64(50), tokens_per_doc=np.uint8(4)),
        seed=np.int64(3),
    )
    as_python = ScenarioSpec(
        disciplines=(DisciplineSpec("a", 2, 1991),),
        year_range=(1990, 1993),
        background=BackgroundVocabulary(size=50, tokens_per_doc=4),
        seed=3,
    )
    assert generate(as_numpy)[0] == generate(as_python)[0]


def test_succession_probabilities_rise_and_fall():
    stages = (
        SuccessionStage(TermQuery.parse("mbd"), 1974, PARAMS),
        SuccessionStage(TermQuery.parse("add", ["attention"]), 1984, PARAMS),
    )
    starts = list(range(1974, 2001, 2))
    probs = succession_probabilities(stages, starts)
    mbd = probs["mbd"]
    assert mbd[0] == pytest.approx(injection_probability(PARAMS, 1974, 1974))
    assert max(mbd) > mbd[0]
    assert mbd[-1] < max(mbd)  # the successor eats the old term's prevalence
    add = probs["add+attention"]
    assert add[starts.index(1982)] == 0.0
    assert add[-1] > 0.5


def test_generate_succession_deterministic_and_complete():
    stages = (
        SuccessionStage(TermQuery.parse("mbd"), 1974, PARAMS),
        SuccessionStage(TermQuery.parse("adhd"), 1988, PARAMS),
    )
    rec_a, truth = generate_succession(stages, "psychology", 100, (1974, 1999), seed=5)
    rec_b, _ = generate_succession(stages, "psychology", 100, (1974, 1999), seed=5)
    assert rec_a == rec_b
    assert set(truth.probs) == {"mbd", "adhd"}
    assert len(truth.bin_starts) == 13


def test_scenario_json_round_trip():
    text = """
    {
      "disciplines": [
        {"label": "math", "docs_per_bin": 50, "onset_year": 1978,
         "diffusion": {"c": 0.6, "p_m": 1000, "p_0": 40}},
        {"label": "history", "docs_per_bin": 50}
      ],
      "year_range": [1974, 1999],
      "bin_width": 2,
      "injected_term": "chaos",
      "background": {"size": 50, "exponent": 1.2, "tokens_per_doc": 6},
      "seed": 9
    }
    """
    spec = scenario_from_json(text)
    assert spec.disciplines[0].diffusion.c == 0.6
    assert spec.background.size == 50
    records, truth = generate(spec)
    assert truth.donor == "math"
    assert records


def test_scenario_json_errors():
    with pytest.raises(InvalidSpec):
        scenario_from_json("{not json")
    with pytest.raises(InvalidSpec):
        scenario_from_json('{"disciplines": []}')
    # a key outside the schema, at each of its four object levels, is refused by name
    one = '{"label": "m", "docs_per_bin": 1, "onset_year": 1990, "diffusion": %s}'
    for text, key in (
        ('{"disciplines": [], "year_range": [1990, 1991], "seeed": 5}', "'seeed'"),
        ('{"disciplines": [{"label": "m", "docs_per_bin": 1, "onset_yaer": 1991}], '
         '"year_range": [1990, 1991]}', re.escape("'disciplines[0].onset_yaer'")),
        ('{"disciplines": [%s], "year_range": [1990, 1991], "injected_term": "chaos"}'
         % (one % '{"c": 1, "p_m": 10, "p_0": 1, "q": 2}'),
         re.escape("'disciplines[0].diffusion.q'")),
        ('{"disciplines": [], "year_range": [1990, 1991], "background": {"sise": 3}}',
         "'background.sise'"),
    ):
        with pytest.raises(InvalidSpec, match=f"^unknown scenario field {key}$"):
            scenario_from_json(text)
    # a year_range that is no array of two: a triple was read as a pair, and
    # the others failed with Python's own message, or as an integer field
    for year_range in ("[1990, 1993, 7]", '{"0": 1988}', "5", "[1988]", '"ab"'):
        with pytest.raises(
            InvalidSpec, match=r"^scenario field 'year_range' must be (an array|a pair of years)"
        ):
            scenario_from_json('{"disciplines": [], "year_range": %s}' % year_range)
    # each required key, named by its path when it is missing
    whole = {"disciplines": [{"label": "m", "docs_per_bin": 1, "onset_year": 1990,
                              "diffusion": {"c": 1, "p_m": 10, "p_0": 1}}],
             "year_range": [1990, 1991], "injected_term": "chaos"}
    scenario_from_json(json.dumps(whole))
    # a diffusion block DiffusionParams refuses, by its path: a diffusion.InvalidParams before
    zero_c = json.loads(json.dumps(whole))
    zero_c["disciplines"][0]["diffusion"]["c"] = 0
    message = "scenario field 'disciplines[0].diffusion': growth constant must be > 0, got 0.0"
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        scenario_from_json(json.dumps(zero_c))
    for path in ("disciplines", "year_range", "disciplines[0].label",
                 "disciplines[0].docs_per_bin", "disciplines[0].diffusion.c",
                 "disciplines[0].diffusion.p_m", "disciplines[0].diffusion.p_0"):
        *parents, key = path.replace("[0]", ".0").split(".")
        obj = spec = json.loads(json.dumps(whole))
        for parent in parents:
            obj = obj[int(parent) if parent.isdigit() else parent]
        del obj[key]
        with pytest.raises(InvalidSpec, match=re.escape(f"scenario field {path!r} is missing")):
            scenario_from_json(json.dumps(spec))


def _reference_emit(rng, spec, disc, injections, vocab, cdf):
    """The document-by-document form of ``synth._emit_documents``."""
    docs_per_bin, tokens_per_doc = disc.docs_per_bin, spec.background.tokens_per_doc
    records = []
    for start in spec.bin_starts():
        if docs_per_bin == 0:
            continue
        first = max(start, spec.year_range[0])
        span = min(start + spec.bin_width, spec.year_range[1] + 1) - first
        years = (first + rng.integers(0, span, size=docs_per_bin)).tolist()
        draws = np.searchsorted(cdf, rng.random((docs_per_bin, tokens_per_doc)))
        rows = np.minimum(draws, len(vocab) - 1).tolist()
        bin_injections = [
            (text, (rng.random(docs_per_bin) < q).tolist())
            for text, q in injections.get(start, ())
        ]
        for j, (year, row) in enumerate(zip(years, rows)):
            body = " ".join(map(vocab.__getitem__, row))
            for text, mask in bin_injections:
                if mask[j]:
                    body = body + " " + text
            records.append(
                DocumentRecord(
                    id=f"{disc.label}-{start}-{j:05d}",
                    discipline=disc.label,
                    year=year,
                    title="",
                    abstract=body,
                )
            )
    return records


_INJECTION = st.tuples(
    st.sampled_from(["chaos", "cold fusion", "x{0}", "r\u00e9seau"]),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
)


def _year_ranges(n_years):
    """Ranges of ``n_years`` years, some at either end of the years a record may hold."""
    firsts = st.one_of(st.integers(1990, 1995), st.just(YEAR_MIN), st.just(YEAR_MAX - n_years + 1))
    return firsts.map(lambda first: (first, first + n_years - 1))


@settings(max_examples=200, deadline=None)
@given(
    # leading, trailing and inner spaces, but no blank label, which no spec takes
    label=st.text(st.sampled_from("ab{}-\u00e9\u4e2d "), min_size=1, max_size=6).filter(str.strip),
    docs_per_bin=st.integers(0, 6),
    tokens_per_doc=st.integers(0, 5),
    width=st.integers(1, 3),
    year_range=st.integers(1, 9).flatmap(_year_ranges),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_emit_documents_equals_the_per_document_emitter(
    label, docs_per_bin, tokens_per_doc, width, year_range, seed, data
):
    spec = ScenarioSpec(
        disciplines=(DisciplineSpec(label, docs_per_bin),),
        year_range=year_range,
        bin_width=width,
        background=BackgroundVocabulary(size=7, tokens_per_doc=tokens_per_doc),
    )
    injections = {
        start: data.draw(st.lists(_INJECTION, max_size=3)) for start in spec.bin_starts()
    }
    vocab, cdf = spec.background.tokens(), np.cumsum(spec.background.weights())
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sampler = synth._token_sampler(spec.background)
    records = synth._emit_documents(rng, spec, spec.disciplines[0], injections, sampler)
    expected = _reference_emit(
        reference_rng, spec, spec.disciplines[0], injections, vocab, cdf
    )
    assert records == expected
    # the emitter skips the record checks: each record must pass them as built
    assert list(map(DocumentRecord._make, records)) == records
    assert rng.bit_generator.state == reference_rng.bit_generator.state


_BUCKETS = synth._GUIDE_BUCKETS


@settings(max_examples=100, deadline=None)
# equal weights over a power of two: every step of cdf lies on a bucket edge
@example(size=64, exponent=0.0, buckets=[], steps=[0, 31], seed=0)
@given(
    size=st.one_of(st.integers(1, 300), st.integers(1, 60_000)),
    exponent=st.floats(-1.5, 3.0),
    buckets=st.lists(st.integers(0, _BUCKETS - 1), max_size=20),
    steps=st.lists(st.integers(0, 60_000), max_size=20),
    seed=st.integers(0, 2**32 - 1),
)
def test_guide_table_lookup_equals_searchsorted(size, exponent, buckets, steps, seed):
    background = BackgroundVocabulary(size=size, exponent=exponent)
    words, cdf, guide = synth._token_sampler(background)
    assert list(words) == background.tokens()
    assert np.array_equal(cdf, np.cumsum(background.weights()))
    # bucket edges k/M and their neighbours, steps of the cumulative weights
    # and theirs, the ends of [0, 1) and plain uniforms
    edges = np.array(buckets + [0, _BUCKETS - 1]) / _BUCKETS
    at_steps = cdf[np.minimum(np.array(steps, dtype=int), size - 1)]
    points = np.concatenate([
        edges, np.nextafter(edges, -1), np.nextafter(edges, 2),
        at_steps, np.nextafter(at_steps, -1), np.nextafter(at_steps, 2),
        [0.0, 1 - 2**-53], np.random.default_rng(seed).random(200),
    ])
    u = points[(points >= 0) & (points < 1)]
    assert np.array_equal(synth._guided_search(cdf, guide, u), np.searchsorted(cdf, u))
    # a docs x tokens matrix keeps its shape
    matrix = u[: len(u) // 4 * 4].reshape(4, -1)
    assert np.array_equal(synth._guided_search(cdf, guide, matrix), np.searchsorted(cdf, matrix))
