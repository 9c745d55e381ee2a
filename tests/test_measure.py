import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termflow.measure import (
    BORROWER_LEANING,
    DONOR_LEANING,
    NEUTRAL,
    AnnotationSet,
    EmptyTermList,
    MalformedAnnotation,
    MissingAnnotation,
    ZeroMValue,
    hardness_ranking,
    load_annotations,
    m_delta,
    m_value,
    write_reports_csv,
)


def annotate(discipline, flags_by_term):
    return AnnotationSet({(t, discipline): v for t, v in flags_by_term.items()})


def test_m_value_fraction():
    ann = annotate("phys", {f"t{i}": i < 8 for i in range(10)})
    assert m_value([f"t{i}" for i in range(10)], "phys", ann) == 0.8


def test_m_value_extremes():
    ann = annotate("phys", {"a1": True, "b1": True, "c1": False, "d1": False})
    assert m_value(["a1", "b1"], "phys", ann) == 1.0
    assert m_value(["c1", "d1"], "phys", ann) == 0.0


def test_m_value_missing_annotation_names_pairs():
    ann = annotate("phys", {"known": True})
    with pytest.raises(MissingAnnotation) as err:
        m_value(["known", "mystery"], "phys", ann)
    assert ("mystery", "phys") in err.value.pairs


def test_m_value_empty_list():
    with pytest.raises(EmptyTermList):
        m_value([], "phys", AnnotationSet({}))


def test_unannotated_distinct_from_false():
    ann = AnnotationSet({("term", "phys"): False})
    assert ann.get("term", "phys") is False
    assert ann.get("term", "hist") is None


def test_m_delta_donor_leaning():
    ann = annotate("phys", {**{f"u{i}": i < 8 for i in range(10)},
                            **{f"v{i}": i < 4 for i in range(10)}})
    report = m_delta([f"u{i}" for i in range(10)], [f"v{i}" for i in range(10)], "phys", ann)
    assert report.m_delta == pytest.approx(math.log(2), abs=1e-12)
    assert report.label == DONOR_LEANING


def test_m_delta_neutral():
    ann = annotate("soc", {**{f"u{i}": i < 5 for i in range(10)},
                           **{f"v{i}": i < 5 for i in range(10)}})
    report = m_delta([f"u{i}" for i in range(10)], [f"v{i}" for i in range(10)], "soc", ann)
    assert report.m_delta == 0.0
    assert report.label == NEUTRAL


def test_m_delta_borrower_leaning():
    ann = annotate("hist", {**{f"u{i}": i < 4 for i in range(10)},
                            **{f"v{i}": i < 8 for i in range(10)}})
    report = m_delta([f"u{i}" for i in range(10)], [f"v{i}" for i in range(10)], "hist", ann)
    assert report.m_delta == pytest.approx(-math.log(2), abs=1e-12)
    assert report.label == BORROWER_LEANING


def test_zero_m_is_hard_error_without_smoothing():
    ann = annotate("hist", {"aa": False, "bb": True})
    with pytest.raises(ZeroMValue):
        m_delta(["aa"], ["bb"], "hist", ann)


def test_smoothing_applies_laplace_and_is_recorded():
    ann = annotate("hist", {"aa": False, "bb": True})
    report = m_delta(["aa"], ["bb"], "hist", ann, smoothing=True)
    assert report.m_top == pytest.approx(1 / 3)
    assert report.m_bottom == pytest.approx(2 / 3)
    assert report.smoothed is True
    assert report.label == BORROWER_LEANING


@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_antisymmetry_and_sign(top_true, bottom_true):
    flags = {f"x{i}": i < top_true for i in range(10)}
    flags.update({f"y{i}": i < bottom_true for i in range(10)})
    ann = annotate("d", flags)
    xs = [f"x{i}" for i in range(10)]
    ys = [f"y{i}" for i in range(10)]
    forward = m_delta(xs, ys, "d", ann, smoothing=True)
    backward = m_delta(ys, xs, "d", ann, smoothing=True)
    assert forward.m_delta == pytest.approx(-backward.m_delta, abs=1e-12)
    expected = (
        DONOR_LEANING
        if forward.m_delta > 0
        else BORROWER_LEANING
        if forward.m_delta < 0
        else NEUTRAL
    )
    assert forward.label == expected


def test_scale_freeness():
    ann = annotate("d", {**{f"x{i}": i < 7 for i in range(10)},
                         **{f"y{i}": i < 3 for i in range(10)}})
    xs = [f"x{i}" for i in range(10)]
    ys = [f"y{i}" for i in range(10)]
    single = m_delta(xs, ys, "d", ann)
    doubled = m_delta(xs * 2, ys * 2, "d", ann)
    assert doubled.m_top == single.m_top
    assert doubled.m_delta == single.m_delta


def test_hardness_ranking_sorts_by_m_top():
    ann_hi = annotate("phys", {**{f"t{i}": i < 9 for i in range(10)},
                               **{f"b{i}": i < 5 for i in range(10)}})
    ann_lo = annotate("hist", {**{f"t{i}": i < 2 for i in range(10)},
                               **{f"b{i}": i < 5 for i in range(10)}})
    r_hi = m_delta([f"t{i}" for i in range(10)], [f"b{i}" for i in range(10)], "phys", ann_hi)
    r_lo = m_delta([f"t{i}" for i in range(10)], [f"b{i}" for i in range(10)], "hist", ann_lo)
    assert [r.discipline for r in hardness_ranking([r_lo, r_hi])] == ["phys", "hist"]


def test_hardness_tie_breaks_lexicographic():
    ann = annotate("bb", {**{f"t{i}": i < 5 for i in range(10)},
                          **{f"b{i}": i < 5 for i in range(10)}})
    ann2 = annotate("aa", {**{f"t{i}": i < 5 for i in range(10)},
                           **{f"b{i}": i < 5 for i in range(10)}})
    r1 = m_delta([f"t{i}" for i in range(10)], [f"b{i}" for i in range(10)], "bb", ann)
    r2 = m_delta([f"t{i}" for i in range(10)], [f"b{i}" for i in range(10)], "aa", ann2)
    assert [r.discipline for r in hardness_ranking([r1, r2])] == ["aa", "bb"]


# The expected hardness order for the eight-discipline fixture: harder fields
# carry higher top-list technical fractions and positive log ratios, softer
# fields the reverse, psychology barely positive.
FIXTURE = {
    "electrical engineering": (10, 5),
    "biology": (9, 5),
    "physics": (8, 5),
    "psychology": (7, 6),
    "mathematics": (6, 4),
    "economics": (5, 7),
    "sociology": (4, 8),
    "history": (3, 9),
}

EXPECTED_ORDER = [
    "electrical engineering",
    "biology",
    "physics",
    "psychology",
    "mathematics",
    "economics",
    "sociology",
    "history",
]


def fixture_reports():
    reports = []
    for disc, (top_true, bottom_true) in FIXTURE.items():
        flags = {f"t{i}": i < top_true for i in range(10)}
        flags.update({f"b{i}": i < bottom_true for i in range(10)})
        ann = annotate(disc, flags)
        reports.append(
            m_delta(
                [f"t{i}" for i in range(10)],
                [f"b{i}" for i in range(10)],
                disc,
                ann,
            )
        )
    return reports


def test_eight_discipline_fixture_order():
    ordered = hardness_ranking(fixture_reports())
    assert [r.discipline for r in ordered] == EXPECTED_ORDER


def test_fixture_signs_split_hard_and_soft():
    by_disc = {r.discipline: r for r in fixture_reports()}
    for hard in ("physics", "mathematics", "electrical engineering", "biology"):
        assert by_disc[hard].m_delta > 0
    for soft in ("sociology", "history", "economics"):
        assert by_disc[soft].m_delta < 0
    assert 0 < by_disc["psychology"].m_delta < 0.2


def test_load_annotations_and_csv_output(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("term,discipline,technical\nchaos,math,1\nchaos,education,0\n")
    ann = load_annotations(str(path))
    assert ann.get("chaos", "math") is True
    assert ann.get("chaos", "education") is False

    import io

    buf = io.StringIO()
    report = m_delta(["chaos"], ["chaos"], "math", ann)
    write_reports_csv([report], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "discipline,m_top,m_bottom,m_delta,label,smoothed"
    assert lines[1] == "math,1,1,0,neutral,0"


def test_load_annotations_rejects_bad_flag(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("term,discipline,technical\nchaos,math,maybe\n")
    with pytest.raises(MalformedAnnotation):
        load_annotations(str(path))


def dictreader_annotations(path):
    """Reference reader: csv.DictReader, one dict per row."""
    flags = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        expected = {"term", "discipline", "technical"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise MalformedAnnotation("header must be exactly term,discipline,technical")
        for lineno, row in enumerate(reader, start=2):
            value = (row["technical"] or "").strip()
            if value not in ("0", "1"):
                raise MalformedAnnotation(
                    f"line {lineno}: technical must be 0 or 1, got {value!r}"
                )
            flags[(row["term"], row["discipline"])] = value == "1"
    return AnnotationSet(flags=flags)


_FIELD = st.text(alphabet='ab ,"\n\r01', max_size=4)


@st.composite
def annotation_files(draw):
    header = draw(st.permutations(["term", "discipline", "technical"]))
    header += draw(st.lists(st.sampled_from(["term", "technical", "note"]), max_size=1))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(["0", "1", " 1 ", ""]) | _FIELD, max_size=len(header) + 1),
            max_size=8,
        )
    )
    return [header] + rows


def _outcome(load, path):
    try:
        return load(path).flags
    except MalformedAnnotation as exc:
        return str(exc)


@given(annotation_files(), st.data())
@settings(max_examples=150, deadline=None)
def test_load_annotations_reads_like_dictreader(tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("ann") / "ann.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)
    reference = _outcome(dictreader_annotations, str(path))
    assert _outcome(load_annotations, str(path)) == reference
    # pairs the file holds and any others, which it mostly lacks; a malformed
    # file gives the same message whether or not its bad row's pair is listed
    any_pair = st.tuples(_FIELD, _FIELD)
    held = list(reference) if isinstance(reference, dict) else []
    pairs = data.draw(st.sets(st.sampled_from(held) | any_pair if held else any_pair, max_size=6))
    for keep in (pairs, set()):
        expected = reference if isinstance(reference, str) else {
            pair: flag for pair, flag in reference.items() if pair in keep
        }
        assert _outcome(lambda p: load_annotations(p, keep), str(path)) == expected
