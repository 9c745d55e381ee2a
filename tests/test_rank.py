import io
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from termflow.corpus import TermQuery, ingest, write_csv
from termflow.rank import (
    NORMAL_SWITCH_LAMBDA,
    Dictionary,
    EmptyDictionary,
    InvalidListLength,
    NegativeLambda,
    NonPositiveLambda,
    PoissonRank,
    SingleDisciplineCorpus,
    bottom_terms,
    load_dictionary,
    normal_percentile,
    poisson_cdf,
    rank_terms,
    top_terms,
    write_ranking_csv,
)

from conftest import make_doc


def cdf_oracle(k: int, lam: float) -> float:
    """Independent direct summation via log-gamma, no recurrences shared
    with the implementation."""
    if lam == 0:
        return 1.0
    return sum(
        math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1)) for i in range(k + 1)
    )


def test_cdf_at_zero_rate():
    assert poisson_cdf(0, 0.0) == 1.0
    assert poisson_cdf(5, 0.0) == 1.0


def test_cdf_known_value():
    # e^-2 * (1 + 2 + 2 + 4/3)
    assert poisson_cdf(3, 2.0) == pytest.approx(0.857123460498547, abs=1e-12)


def test_cdf_far_right_tail():
    assert poisson_cdf(100, 2.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.1, 1.0, 2.0, 10.0, 30.0])
def test_cdf_matches_direct_summation(lam):
    for k in range(0, 201, 7):
        assert poisson_cdf(k, lam) == pytest.approx(cdf_oracle(k, lam), abs=1e-12)


def test_cdf_large_lambda_log_domain():
    # log-domain branch; compare against the normal approximation loosely
    val = poisson_cdf(800, 800.0)
    assert 0.4 < val < 0.6


def test_cdf_rejects_negative():
    with pytest.raises(NegativeLambda):
        poisson_cdf(3, -1.0)
    with pytest.raises(ValueError):
        poisson_cdf(-1, 1.0)


@given(
    st.integers(min_value=0, max_value=120),
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
)
@example(83, 29.693657567419976)
@example(108, 42.94976576943221)
@example(99, 39.442779176166006)
@settings(max_examples=80, deadline=None)
def test_cdf_bounds_and_monotonicity(k, lam):
    value = poisson_cdf(k, lam)
    assert 0.0 <= value <= 1.0
    assert poisson_cdf(k + 1, lam) >= value - 1e-15
    assert poisson_cdf(k, lam + 0.5) <= value + 1e-15


def test_normal_center_tracks_exact_cdf():
    # the exact CDF at k = lam - 0.5 sits slightly above 1/2 (skewness);
    # the approximation must follow it, not the symmetric 0.5
    assert normal_percentile(10, 10.5) == pytest.approx(0.5, abs=0.025)
    assert normal_percentile(10, 10.5) == pytest.approx(cdf_oracle(10, 10.5), abs=0.005)
    assert normal_percentile(100, 100.5) == pytest.approx(0.5, abs=0.01)


def test_normal_extreme_left_tail():
    assert normal_percentile(0, 100.0) < 1e-15


def test_normal_close_to_poisson_at_100():
    assert normal_percentile(100, 100.0) == pytest.approx(
        poisson_cdf(100, 100.0), abs=0.01
    )


@pytest.mark.parametrize("lam", [30.0, 50.0, 120.0])
def test_normal_within_one_percent_of_exact(lam):
    for k in range(0, int(3 * lam) + 1, 5):
        assert abs(normal_percentile(k, lam) - cdf_oracle(k, lam)) <= 0.01


def test_normal_rejects_nonpositive():
    with pytest.raises(NonPositiveLambda):
        normal_percentile(3, 0.0)


def poisson_percentile(index, term, target_discipline, normal_switch=NORMAL_SWITCH_LAMBDA):
    """The per-term oracle of ``rank_terms``: one term's rank by the probability
    of its observed-or-lower frequency.

    The background per-document rate pools every non-target discipline;
    the expected count is that rate scaled to the target's document total.
    A term absent from all backgrounds gets percentile 1 exactly.
    """
    if len(index.disciplines) < 2:
        raise SingleDisciplineCorpus("percentile ranking needs at least two disciplines")
    t = index.term_id(term)
    row = index.term_counts[1][t].tolist() if t >= 0 else [0] * len(index.disciplines)
    k = row[index.disciplines.index(target_discipline)]
    bg_docs = sum(
        n for disc, n in index.discipline_totals.items() if disc != target_discipline
    )
    lam = ((sum(row) - k) / bg_docs) * index.discipline_totals[target_discipline]
    if lam > normal_switch:
        return PoissonRank(term, target_discipline, k, lam, normal_percentile(k, lam), "normal")
    return PoissonRank(term, target_discipline, k, lam, poisson_cdf(k, lam), "poisson")


def _two_discipline_index():
    docs = []
    for i in range(20):
        docs.append(make_doc("math", 1990, "the common chaos"))
    for i in range(20):
        docs.append(make_doc("hist", 1990, "the common filler"))
    return ingest(docs)


def test_unique_term_percentile_is_one():
    index = _two_discipline_index()
    r = poisson_percentile(index, "chaos", "math")
    assert r.percentile == 1.0
    assert r.observed_k == 20
    assert r.lam == 0.0


def test_everywhere_term_sits_mid_band():
    index = _two_discipline_index()
    common = poisson_percentile(index, "the", "math")
    unique = poisson_percentile(index, "unique", "math")
    assert common.percentile < unique.percentile
    assert 0.05 < common.percentile < 0.95


def test_percentile_known_composition():
    # k=3 of N=1000 target docs; background mu=0.002 -> lam=2
    docs = [make_doc("tgt", 1990, "signal" if i < 3 else "filler") for i in range(1000)]
    docs += [
        make_doc("bg", 1990, "signal" if i < 4 else "filler") for i in range(2000)
    ]
    index = ingest(docs)
    r = poisson_percentile(index, "signal", "tgt")
    assert r.lam == pytest.approx(2.0)
    assert r.percentile == pytest.approx(0.857123460498547, rel=1e-9)
    assert r.method == "poisson"


def test_normal_switch_over_threshold():
    docs = [make_doc("tgt", 1990, "noise common") for _ in range(400)]
    docs += [make_doc("bg", 1990, "noise common") for _ in range(400)]
    index = ingest(docs)
    r = poisson_percentile(index, "noise", "tgt", normal_switch=50.0)
    assert r.method == "normal"
    assert r.lam == pytest.approx(400.0)
    exact = poisson_percentile(index, "noise", "tgt", normal_switch=1e9)
    assert abs(r.percentile - exact.percentile) < 0.01


def test_single_discipline_rejected():
    index = ingest([make_doc("only", 1990, "word list")])
    with pytest.raises(SingleDisciplineCorpus):
        poisson_percentile(index, "word", "only")


def test_rank_unique_term_first():
    index = _two_discipline_index()
    ranking = rank_terms(index, "math")
    assert ranking[0].term == "chaos"
    assert ranking[0].percentile == 1.0


def test_rank_ties_deterministic():
    docs = [make_doc("a", 1990, "xx yy"), make_doc("b", 1990, "xx yy")]
    index = ingest(docs)
    ranking = rank_terms(index, "a")
    # identical distributions degenerate to the tie-break order
    assert [r.term for r in ranking] == sorted(r.term for r in ranking)


def test_rank_excludes_terms_absent_from_target():
    index = _two_discipline_index()
    terms = {r.term for r in rank_terms(index, "math")}
    assert "filler" not in terms


def test_dictionary_filters_selection():
    index = _two_discipline_index()
    dictionary = Dictionary("math", frozenset({"chaos", "common"}))
    ranking = rank_terms(index, "math", dictionary)
    assert {r.term for r in ranking} == {"chaos", "common"}
    assert top_terms(ranking, 2) == ["chaos", "common"]
    assert bottom_terms(ranking, 1) == ["common"]


@pytest.mark.parametrize("select", [top_terms, bottom_terms])
@pytest.mark.parametrize("k", [0, -1, -3])
def test_list_length_below_one_rejected(select, k):
    ranking = rank_terms(_two_discipline_index(), "math")
    with pytest.raises(InvalidListLength, match="list length must be an integer >= 1"):
        select(ranking, k)


def test_empty_dictionary_rejected():
    index = _two_discipline_index()
    with pytest.raises(EmptyDictionary):
        rank_terms(index, "math", Dictionary("math", frozenset()))


def test_rank_single_discipline_raises_only_when_terms_remain():
    index = ingest([make_doc("only", 1990, "word list")])
    with pytest.raises(SingleDisciplineCorpus):
        rank_terms(index, "only")
    assert list(rank_terms(index, "only", Dictionary("only", frozenset({"absent"})))) == []


VOCAB = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


@st.composite
def small_corpora(draw):
    labels = draw(
        st.lists(st.sampled_from(("a", "b", "c", "d")), min_size=1, max_size=4, unique=True)
    )
    docs = [
        make_doc(label, draw(st.integers(1990, 1995)), " ".join(words))
        for label in labels
        for words in draw(
            st.lists(st.lists(st.sampled_from(VOCAB), max_size=4), min_size=1, max_size=12)
        )
    ]
    return labels, ingest(docs)


@given(small_corpora(), st.data())
@settings(max_examples=80, deadline=None)
def test_rank_terms_matches_per_term_oracle(corpus, data):
    labels, index = corpus
    target = data.draw(st.sampled_from(labels))
    dictionary = data.draw(
        st.none()
        | st.frozensets(st.sampled_from(VOCAB + ("absent",)), min_size=1).map(
            lambda terms: Dictionary(target, terms)
        )
    )
    seen = [
        term
        for term, cells in index.postings.items()
        if any(disc == target for disc, _ in cells)
        and (dictionary is None or term in dictionary.terms)
    ]
    for switch in (0.0, 50.0, math.inf):
        if seen and len(labels) < 2:
            with pytest.raises(SingleDisciplineCorpus):
                rank_terms(index, target, dictionary, switch)
            continue
        expected = sorted(
            (poisson_percentile(index, term, target, switch) for term in seen),
            key=lambda r: (-r.percentile, -r.observed_k, r.term),
        )
        assert list(rank_terms(index, target, dictionary, switch)) == expected


def reference_ranking_csv(rows, config_line):
    """The per-object ranking writer, kept as the reference for the columnar one."""
    buf = io.StringIO()
    write_csv(
        buf,
        ("term", "k", "lambda", "percentile", "method"),
        ((r.term, r.observed_k, f"{r.lam:.12g}", f"{r.percentile:.12g}", r.method) for r in rows),
        config_line,
    )
    return buf.getvalue()


@given(small_corpora(), st.data())
@settings(max_examples=80, deadline=None)
def test_ranking_columns_agree_with_its_rows(corpus, data):
    labels, index = corpus
    assume(len(labels) >= 2)
    target = data.draw(st.sampled_from(labels))
    switch = data.draw(st.sampled_from((0.0, 1.0, 50.0, math.inf)))
    ranking = rank_terms(index, target, normal_switch=switch)
    rows = list(ranking)
    assert len(ranking) == len(rows)
    for k in range(1, len(rows) + 3):
        assert top_terms(ranking, k) == [r.term for r in rows[:k]]
        assert bottom_terms(ranking, k) == [r.term for r in rows[-k:]]
    buf = io.StringIO()
    write_ranking_csv(ranking, buf, config_line="config {}")
    assert buf.getvalue() == reference_ranking_csv(rows, "config {}")
    for i in range(-len(rows), len(rows)):
        assert ranking[i] == rows[i]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            ranking[i]


def test_load_dictionary(tmp_path):
    path = tmp_path / "dict.txt"
    path.write_text("# comment\nchaos\nentropy  # technical\n\nQuark\n")
    d = load_dictionary(str(path), "phys")
    assert d.terms == frozenset({"chaos", "entropy", "quark"})


def test_ranking_csv_shape(tmp_path):
    index = _two_discipline_index()
    buf = io.StringIO()
    write_ranking_csv(rank_terms(index, "math"), buf, config_line="config {}")
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# config")
    assert lines[1] == "term,k,lambda,percentile,method"
    assert lines[2].split(",")[0] == "chaos"
