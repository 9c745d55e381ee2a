import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termflow.corpus import TermQuery, TimeBin, UnknownDiscipline, ingest
from termflow.trend import (
    LOW_SUPPORT,
    MISSING_BIN,
    ZERO_FREQUENCY,
    FrequencySeries,
    TooFewBins,
    apply_support_filter,
    frequency_series,
    growth_series,
    write_series_csv,
)

from conftest import make_doc

QUERY = TermQuery.parse("chaos")


def series_from_f(f_values, n=None, total=100):
    bins = tuple(TimeBin(1974 + 2 * i, 2) for i in range(len(f_values)))
    if n is None:
        n = tuple(
            int(round(f * total)) if f is not None else 0 for f in f_values
        )
    totals = tuple(total if f is not None else 0 for f in f_values)
    return FrequencySeries(
        discipline="math", query=QUERY, bins=bins, n=tuple(n), N=totals, f=tuple(f_values)
    )


def test_frequency_series_basic():
    docs = [make_doc("math", 1974, "chaos") for _ in range(5)]
    docs += [make_doc("math", 1974, "order") for _ in range(45)]
    docs += [make_doc("math", 1976, "chaos")]
    index = ingest(docs)
    fs = frequency_series(index, QUERY, "math")
    assert fs.f[0] == pytest.approx(0.1)
    assert fs.n == (5, 1)
    assert fs.N == (50, 1)


def test_frequency_series_unknown_discipline(small_index):
    with pytest.raises(UnknownDiscipline):
        frequency_series(small_index, QUERY, "physics")


def test_empty_bin_marked_undefined():
    docs = [make_doc("math", 1974, "chaos"), make_doc("math", 1979, "chaos"),
            make_doc("edu", 1976, "filler")]
    index = ingest(docs)
    fs = frequency_series(index, QUERY, "math")
    assert [b.start_year for b in fs.bins] == [1974, 1976, 1978]
    assert fs.f[1] is None  # math published nothing in 1976-77


def test_absent_term_all_zero(small_index):
    fs = frequency_series(small_index, TermQuery.parse("nothingburger"), "math")
    assert all(v == 0.0 for v in fs.f)


def test_constant_frequency_zero_growth():
    g = growth_series(series_from_f([0.2, 0.2, 0.2, 0.2]))
    assert all(v == pytest.approx(0.0, abs=1e-15) for v in g.r)


def test_doubling_gives_log_two():
    g = growth_series(series_from_f([0.1, 0.2]))
    assert g.r[0] == pytest.approx(math.log(2), abs=1e-12)


def test_zero_frequency_masked():
    g = growth_series(series_from_f([0.0, 0.5, 0.5]))
    assert g.mask[0] == ZERO_FREQUENCY
    assert g.r[0] is None
    assert g.mask[1] is None


def test_missing_bin_masked():
    g = growth_series(series_from_f([0.5, None, 0.5]))
    assert g.mask == (MISSING_BIN, MISSING_BIN)


def test_too_few_bins():
    with pytest.raises(TooFewBins):
        growth_series(series_from_f([0.5]))


def test_smoothing_window_must_be_odd():
    with pytest.raises(ValueError):
        growth_series(series_from_f([0.1, 0.2, 0.3]), smoothing_window=2)


def test_support_filter_boundary():
    # combined adjacent support 7 is masked, 8 is kept
    fs = series_from_f([0.3, 0.4, 0.3, 0.4], n=(3, 4, 4, 4), total=10)
    g = apply_support_filter(growth_series(fs), threshold=8)
    assert g.mask[0] == LOW_SUPPORT
    assert g.mask[1] is None
    assert g.mask[2] is None


def test_support_filter_no_masking_when_ample():
    fs = series_from_f([0.3, 0.4, 0.5], n=(30, 40, 50), total=100)
    g = apply_support_filter(growth_series(fs))
    assert all(m is None for m in g.mask)


def test_support_filter_keeps_prior_reasons():
    fs = series_from_f([0.0, 0.1, 0.2], n=(0, 1, 2), total=10)
    g = apply_support_filter(growth_series(fs), threshold=8)
    assert g.mask[0] == ZERO_FREQUENCY  # not overwritten by low_support
    assert g.mask[1] == LOW_SUPPORT


@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=20))
@settings(max_examples=60, deadline=None)
def test_telescoping_sum(f_values):
    g = growth_series(series_from_f(f_values))
    total = sum(v for v in g.r if v is not None)
    assert total == pytest.approx(math.log(f_values[-1] / f_values[0]), abs=1e-9)


@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=3, max_size=20))
@settings(max_examples=60, deadline=None)
def test_smoothing_conserves_mass(f_values):
    g = growth_series(series_from_f(f_values))
    raw = sum(v for v in g.r if v is not None)
    smoothed = sum(v for v in g.smoothed_r if v is not None)
    assert smoothed == pytest.approx(raw, abs=1e-9)
    assert len(g.smoothed_r) == len(g.r)


def test_smoothing_mean_preserved_window_three():
    f_values = [0.05, 0.1, 0.3, 0.25, 0.4, 0.6, 0.5, 0.45]
    g = growth_series(series_from_f(f_values), smoothing_window=3)
    mean_raw = sum(g.r) / len(g.r)
    mean_smoothed = sum(g.smoothed_r) / len(g.smoothed_r)
    assert mean_smoothed == pytest.approx(mean_raw, abs=1e-12)


def test_interior_smoothing_is_centered_average():
    f_values = [0.1, 0.2, 0.3, 0.2, 0.4, 0.5]
    g = growth_series(series_from_f(f_values), smoothing_window=3)
    # interior points far from edges equal the plain centered mean
    expected = (g.r[1] + g.r[2] + g.r[3]) / 3
    assert g.smoothed_r[2] == pytest.approx(expected, abs=1e-12)


def test_normalization_invariance():
    fs1 = series_from_f([0.1, 0.2, 0.4], total=100)
    doubled = FrequencySeries(
        discipline="math",
        query=QUERY,
        bins=fs1.bins,
        n=tuple(2 * v for v in fs1.n),
        N=tuple(2 * v for v in fs1.N),
        f=fs1.f,
    )
    g1, g2 = growth_series(fs1), growth_series(doubled)
    assert g1.r == g2.r


def test_masked_points_excluded_from_smoothing():
    # a noisy wiggle among a handful of matching documents must not leak
    # into its neighbors' smoothed values once filtered out
    fs = series_from_f(
        [0.02, 0.05, 0.02, 0.40, 0.41, 0.42], n=(2, 5, 2, 40, 41, 42), total=100
    )
    filtered = apply_support_filter(growth_series(fs), threshold=8)
    assert filtered.mask[0] == LOW_SUPPORT  # 2 + 5 = 7 docs
    assert filtered.mask[1] == LOW_SUPPORT
    r2, r3, r4 = filtered.r[2], filtered.r[3], filtered.r[4]
    # windows shrink around the masked indices: r2 spreads over {2,3},
    # r3 over {2,3,4}, r4 over {3,4}
    assert filtered.smoothed_r[2] == pytest.approx(r2 / 2 + r3 / 3, abs=1e-12)
    assert filtered.smoothed_r[3] == pytest.approx(
        r2 / 2 + r3 / 3 + r4 / 2, abs=1e-12
    )
    assert filtered.smoothed_r[4] == pytest.approx(r3 / 3 + r4 / 2, abs=1e-12)
    assert filtered.smoothed_r[0] is None and filtered.smoothed_r[1] is None


def test_series_csv_layout(tmp_path):
    import io

    fs = series_from_f([0.1, 0.2, 0.0])
    g = apply_support_filter(growth_series(fs))
    buf = io.StringIO()
    write_series_csv(g, buf, config_line="config {}")
    lines = buf.getvalue().splitlines()
    assert lines[1] == "bin_start,n,N,f,r,smoothed_r,mask_reason"
    assert lines[2].startswith("1974,10,100,0.1,,,")
    assert "zero_frequency" in lines[4]
