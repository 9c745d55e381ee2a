import pytest

from termflow.corpus import TermQuery, TimeBin
from termflow.diffusion import DiffusionParams, inflection_time
from termflow.migration import (
    AllMasked,
    BinMismatch,
    NoPeaks,
    NoPositiveGrowth,
    classify_roles,
    detect_peak,
    detect_succession,
    importance,
    lag,
)
from termflow.synth import injection_probability
from termflow.trend import (
    FrequencySeries,
    apply_support_filter,
    growth_series,
)

QUERY = TermQuery.parse("chaos")


def growth_from_f(f_values, discipline="math", n=None, total=10_000, query=QUERY):
    bins = tuple(TimeBin(1974 + 2 * i, 2) for i in range(len(f_values)))
    if n is None:
        n = tuple(int(round((v or 0.0) * total)) for v in f_values)
    totals = tuple(total for _ in f_values)
    fs = FrequencySeries(
        discipline=discipline, query=query, bins=bins, n=tuple(n), N=totals, f=tuple(f_values)
    )
    return apply_support_filter(growth_series(fs))


def logistic_growth(
    onset, params=DiffusionParams(c=0.6, p_m=1000.0, p_0=40.0),
    discipline="math", start=1974, end=2002, total=10_000,
):
    starts = list(range(start, end + 1, 2))
    f = [injection_probability(params, onset, s) for s in starts]
    return growth_from_f(f, discipline=discipline, total=total), params


def test_peak_on_clean_logistic_series():
    onset = 1978
    growth, params = logistic_growth(onset)
    peak = detect_peak(growth)
    # the peak must land in the early growth phase, and with these canonical
    # parameters its bin contains the inflection year (onset + t*)
    inflection_year = onset + inflection_time(params)
    assert peak.bin.start_year <= int(inflection_year) <= peak.bin.end_year
    assert peak.peak_rate > 0
    # independent argmax over the unmasked smoothed values
    best = max(growth.unmasked_points(), key=lambda p: p[2])
    assert peak.bin == best[1]


def test_peak_strictly_decreasing_series_fails():
    with pytest.raises(NoPositiveGrowth):
        detect_peak(growth_from_f([0.5, 0.4, 0.3, 0.2, 0.1]))


def test_peak_all_masked_fails():
    with pytest.raises(AllMasked):
        detect_peak(growth_from_f([0.0, 0.0, 0.0, 0.0]))


def test_peak_tie_breaks_to_earlier_bin():
    # hand-built series with two exactly equal smoothed maxima
    base = growth_from_f([0.1, 0.2, 0.1, 0.2, 0.1])
    from dataclasses import replace

    tied = replace(base, smoothed_r=(0.2, 0.9, 0.5, 0.9), mask=(None,) * 4)
    peak = detect_peak(tied)
    assert peak.peak_rate == 0.9
    # transitions land on bins 1978 and 1982; the earlier one wins
    assert peak.bin.start_year == 1978


def test_peak_ignores_masked_spike():
    # wiggle among a handful of matching docs dwarfs the genuine peak but
    # sits below the support threshold
    f = [0.001, 0.02, 0.001, 0.05, 0.09, 0.15, 0.2, 0.21]
    n = (1, 6, 1, 50, 90, 150, 200, 210)
    growth = growth_from_f(f, n=n, total=1000)
    assert growth.mask[0] == "low_support"
    assert growth.mask[1] == "low_support"
    peak = detect_peak(growth)
    assert peak.bin.start_year != 1976  # the spike bin never wins
    assert peak.support >= 8


def test_peak_invariant_under_frequency_scaling():
    f = [0.01, 0.03, 0.09, 0.2, 0.3, 0.33]
    a = detect_peak(growth_from_f(f))
    b = detect_peak(growth_from_f([v * 2 for v in f]))
    assert a.bin == b.bin
    assert a.peak_rate == pytest.approx(b.peak_rate, abs=1e-12)


def test_lag_known_values():
    g_math, _ = logistic_growth(1978, discipline="math")
    g_edu, _ = logistic_growth(1988, discipline="education")
    p_math, p_edu = detect_peak(g_math), detect_peak(g_edu)
    assert lag(p_math, p_edu) == 10
    assert lag(p_edu, p_math) == -10


def test_lag_four_year_offset():
    g_math, _ = logistic_growth(1978, discipline="math")
    g_econ, _ = logistic_growth(1982, discipline="economics")
    assert lag(detect_peak(g_math), detect_peak(g_econ)) == 4


def test_lag_identical_series_zero():
    g1, _ = logistic_growth(1980)
    g2, _ = logistic_growth(1980, discipline="other")
    assert lag(detect_peak(g1), detect_peak(g2)) == 0


def test_classify_roles_donor_and_borrower():
    g_math, _ = logistic_growth(1978, discipline="math")
    g_edu, _ = logistic_growth(
        1988, params=DiffusionParams(c=0.35, p_m=1000.0, p_0=40.0), discipline="education"
    )
    report = classify_roles({"math": g_math, "education": g_edu})
    assert report.donor.discipline == "math"
    assert [p.discipline for p, _ in report.borrowers] == ["education"]
    assert report.borrowers[0][1] == 10
    assert report.non_adopters == ()


def test_classify_roles_single_discipline():
    g, _ = logistic_growth(1980)
    report = classify_roles({"math": g})
    assert report.donor.discipline == "math"
    assert report.borrowers == ()


def test_classify_roles_flat_series_is_non_adopter():
    g_math, _ = logistic_growth(1978, discipline="math")
    flat = growth_from_f([0.1] * 10, discipline="history")
    report = classify_roles({"math": g_math, "history": flat})
    assert "history" in report.non_adopters


def test_classify_roles_no_peaks():
    flat = growth_from_f([0.1] * 6, discipline="history")
    with pytest.raises(NoPeaks):
        classify_roles({"history": flat})


def test_weak_early_peak_reported_separately():
    # a weak peak before the donor's strong one is neither donor nor borrower
    weak_early = growth_from_f(
        [0.10, 0.102, 0.1021, 0.1021, 0.1021, 0.1021], discipline="early"
    )
    strong_late = growth_from_f(
        [0.01, 0.01, 0.01, 0.02, 0.08, 0.3], discipline="late"
    )
    report = classify_roles({"early": weak_early, "late": strong_late})
    assert report.donor.discipline == "late"
    assert [p.discipline for p in report.pre_donor] == ["early"]
    assert all(years >= 0 for _, years in report.borrowers)


def test_absolute_strong_threshold_override():
    g_math, _ = logistic_growth(1978, discipline="math")
    g_edu, _ = logistic_growth(
        1988, params=DiffusionParams(c=0.35, p_m=1000.0, p_0=40.0), discipline="education"
    )
    report = classify_roles({"math": g_math, "education": g_edu}, strong_threshold=1e-9)
    assert report.strong_threshold == 1e-9
    assert report.donor.discipline == "math"


def test_importance_orders_donor_above_borrower():
    g_math, _ = logistic_growth(1978, discipline="math")
    g_edu, _ = logistic_growth(
        1988, params=DiffusionParams(c=0.35, p_m=1000.0, p_0=40.0), discipline="education"
    )
    assert importance(g_math) > importance(g_edu)


def test_importance_flat_series_errors():
    with pytest.raises(NoPositiveGrowth):
        importance(growth_from_f([0.2] * 6))


def test_report_json_shape():
    g_math, _ = logistic_growth(1978, discipline="math")
    g_edu, _ = logistic_growth(1988, discipline="education")
    report = classify_roles({"math": g_math, "education": g_edu}, query_label="chaos")
    d = report.to_dict()
    assert d["query"] == "chaos"
    assert d["donor"]["discipline"] == "math"
    assert {p["a"] for p in d["pairwise_lags"]} <= {"math", "education"}
    assert "temporal" in d["role_semantics"]


def test_donor_peak_minimal_among_strong_peaks():
    import random

    rng = random.Random(7)
    for _ in range(25):
        n_disc = rng.randint(2, 5)
        series = {}
        for d in range(n_disc):
            onset = rng.choice([1976, 1978, 1982, 1986, 1990])
            c = rng.choice([0.3, 0.45, 0.6, 0.8])
            growth, _ = logistic_growth(
                onset,
                params=DiffusionParams(c=c, p_m=1000.0, p_0=40.0),
                discipline=f"disc{d}",
            )
            series[f"disc{d}"] = growth
        report = classify_roles(series)
        strong = [
            p for p in report.peaks if p.peak_rate >= report.strong_threshold
        ]
        assert report.donor.bin.start_year == min(p.bin.start_year for p in strong)
        assert all(years >= 0 for _, years in report.borrowers)


def succession_pair(onset_new=1984):
    old_params = DiffusionParams(c=0.6, p_m=1000.0, p_0=40.0)
    new_params = DiffusionParams(c=0.6, p_m=1000.0, p_0=40.0)
    starts = list(range(1974, 2001, 2))
    f_new = [injection_probability(new_params, onset_new, s) for s in starts]
    f_old = [
        injection_probability(old_params, 1974, s)
        * (1 - injection_probability(new_params, onset_new, s))
        for s in starts
    ]
    old = growth_from_f(f_old, query=TermQuery.parse("mbd"))
    new = growth_from_f(f_new, query=TermQuery.parse("add", ["attention"]))
    return old, new


def test_succession_detected_at_crossover():
    old, new = succession_pair()
    event = detect_succession(old, new)
    assert event is not None
    assert event.old_rate_at_crossover < 0
    assert event.new_rate_at_crossover > 0
    # the new term's first supported rise happens one bin after its onset
    assert abs(event.crossover_bin.start_year - 1986) <= 2
    assert event.old_label == "mbd"
    assert event.new_label == "add+attention"


def test_independent_growth_is_not_succession():
    a, _ = logistic_growth(1978)
    b, _ = logistic_growth(1980, discipline="math")
    assert detect_succession(a, b) is None


def test_succession_bin_mismatch():
    old, _ = succession_pair()
    short = growth_from_f([0.1, 0.2, 0.3])
    with pytest.raises(BinMismatch):
        detect_succession(old, short)
