import itertools
import math
import signal
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from termflow.corpus import TermQuery, ingest
from termflow.diffusion import (
    AdoptionTrajectory,
    DegenerateSeries,
    DiffusionParams,
    InvalidParams,
    InvalidStep,
    NoGrowthSignal,
    OutOfRangeP,
    _objective,
    _predict,
    _rmse,
    adoption_rate,
    adoption_series,
    fit,
    inflection_time,
    trajectory_closed_form,
    trajectory_euler,
)

from conftest import make_doc

CANONICAL = DiffusionParams(c=0.6, p_m=1000.0, p_0=10.0)


def test_rate_fixed_points():
    params = DiffusionParams(c=0.6, p_m=100.0, p_0=1.0)
    assert adoption_rate(0.0, params) == 0.0
    assert adoption_rate(100.0, params) == 0.0


def test_rate_known_value():
    params = DiffusionParams(c=0.6, p_m=100.0, p_0=1.0)
    assert adoption_rate(50.0, params) == pytest.approx(15.0)


def test_rate_out_of_range():
    params = DiffusionParams(c=0.6, p_m=100.0, p_0=1.0)
    with pytest.raises(OutOfRangeP):
        adoption_rate(-1.0, params)
    with pytest.raises(OutOfRangeP):
        adoption_rate(101.0, params)


def test_rate_symmetric_about_midpoint():
    params = DiffusionParams(c=0.7, p_m=350.0, p_0=5.0)
    for p in (10.0, 60.0, 170.0):
        assert adoption_rate(p, params) == pytest.approx(
            adoption_rate(params.p_m - p, params), rel=1e-12
        )


def test_max_rate_at_midpoint():
    params = DiffusionParams(c=0.8, p_m=400.0, p_0=5.0)
    peak = adoption_rate(params.p_m / 2, params)
    assert peak == pytest.approx(params.c * params.p_m / 4, rel=1e-12)
    grid = np.linspace(0, params.p_m, 4001)
    rates = [adoption_rate(float(p), params) for p in grid]
    assert max(rates) <= peak + 1e-9
    assert grid[int(np.argmax(rates))] == pytest.approx(params.p_m / 2, abs=0.2)


def test_params_validation():
    with pytest.raises(InvalidParams):
        DiffusionParams(c=0.0, p_m=100.0, p_0=1.0)
    with pytest.raises(InvalidParams):
        DiffusionParams(c=0.5, p_m=-1.0, p_0=0.0)
    with pytest.raises(InvalidParams):
        DiffusionParams(c=0.5, p_m=100.0, p_0=101.0)


def test_closed_form_asymptote():
    traj = trajectory_closed_form(CANONICAL, [0.0, 50.0, 100.0])
    assert traj.p[0] == pytest.approx(10.0)
    assert traj.p[-1] == pytest.approx(CANONICAL.p_m, rel=1e-9)


def test_closed_form_midpoint_start():
    params = DiffusionParams(c=0.6, p_m=200.0, p_0=100.0)
    traj = trajectory_closed_form(params, [0.0])
    assert traj.p[0] == pytest.approx(100.0)
    assert adoption_rate(traj.p[0], params) == pytest.approx(
        params.c * params.p_m / 4
    )


def test_closed_form_satisfies_rate_law():
    dt = 1e-4
    for t in (1.0, 5.0, 8.0, 12.0):
        plus = trajectory_closed_form(CANONICAL, [t + dt]).p[0]
        minus = trajectory_closed_form(CANONICAL, [t - dt]).p[0]
        derivative = (plus - minus) / (2 * dt)
        p_here = trajectory_closed_form(CANONICAL, [t]).p[0]
        assert derivative == pytest.approx(
            adoption_rate(p_here, CANONICAL), rel=1e-6
        )


def test_closed_form_monotone_and_bounded():
    traj = trajectory_closed_form(CANONICAL, [float(t) for t in range(0, 40)])
    assert all(b >= a for a, b in zip(traj.p, traj.p[1:]))
    assert all(0 <= v <= CANONICAL.p_m for v in traj.p)


def test_inflection_time():
    assert inflection_time(CANONICAL) == pytest.approx(math.log(99) / 0.6)
    half = trajectory_closed_form(CANONICAL, [inflection_time(CANONICAL)]).p[0]
    assert half == pytest.approx(CANONICAL.p_m / 2, rel=1e-9)


def test_euler_matches_closed_form():
    traj = trajectory_euler(CANONICAL, 10.0, 1e-3)
    exact = trajectory_closed_form(CANONICAL, traj.times)
    rel = max(
        abs(a - b) / b for a, b in zip(traj.p, exact.p) if b > 0
    )
    assert rel < 1e-3


def test_euler_first_order_convergence():
    t_end = inflection_time(CANONICAL)
    errors = []
    for dt in (1e-3, 1e-4):
        approx = trajectory_euler(CANONICAL, t_end, dt)
        exact = trajectory_closed_form(CANONICAL, [approx.times[-1]]).p[0]
        errors.append(abs(approx.p[-1] - exact))
    ratio = errors[0] / errors[1]
    assert 6.0 < ratio < 15.0


def test_euler_fixed_point_at_zero():
    params = DiffusionParams(c=0.6, p_m=100.0, p_0=0.0)
    traj = trajectory_euler(params, 5.0, 0.5)
    assert all(v == 0.0 for v in traj.p)


def test_euler_single_step_from_midpoint():
    params = DiffusionParams(c=0.6, p_m=100.0, p_0=50.0)
    traj = trajectory_euler(params, 1.0, 1.0)
    assert traj.p[1] - traj.p[0] == pytest.approx(params.c * params.p_m / 4)


def test_euler_rejects_bad_step():
    with pytest.raises(InvalidStep):
        trajectory_euler(CANONICAL, 5.0, 0.0)


def test_fit_recovers_canonical_params():
    times = [2.0 * i for i in range(11)]
    traj = trajectory_closed_form(CANONICAL, times)
    result = fit(traj)
    assert result.params.c == pytest.approx(0.6, rel=0.01)
    assert result.params.p_m == pytest.approx(1000.0, rel=0.01)
    assert result.rmse < 1.0


def test_fit_flat_series_rejected():
    with pytest.raises(NoGrowthSignal):
        fit(AdoptionTrajectory(times=(0, 1, 2, 3, 4), p=(5.0,) * 5))


def test_fit_short_series_rejected():
    with pytest.raises(DegenerateSeries):
        fit(AdoptionTrajectory(times=(0, 1, 2), p=(1.0, 2.0, 3.0)))


def test_fit_report_shape():
    times = [2.0 * i for i in range(8)]
    result = fit(trajectory_closed_form(CANONICAL, times))
    d = result.to_dict()
    assert set(d) == {"c", "p_m", "p_0", "rmse", "n_points"}
    assert d["n_points"] == 8


@given(
    st.floats(min_value=0.15, max_value=1.2),
    st.floats(min_value=200.0, max_value=5000.0),
    st.floats(min_value=0.005, max_value=0.08),
)
@settings(max_examples=15, deadline=None)
def test_fit_generate_round_trip(c, p_m, p0_frac):
    params = DiffusionParams(c=c, p_m=p_m, p_0=p0_frac * p_m)
    horizon = inflection_time(params) * 2.5
    times = [horizon * i / 10 for i in range(11)]
    result = fit(trajectory_closed_form(params, times))
    assert result.params.c == pytest.approx(c, rel=0.01)
    assert result.params.p_m == pytest.approx(p_m, rel=0.01)


def _reference_objective(v, shifted, obs):
    """The refinement objective written with ``_predict`` and ``_rmse``."""
    c, p_m, p_0 = v
    if not (c > 0 and p_m > 0 and 0 < p_0 < p_m):
        return math.inf
    return float(_rmse(_predict(c, p_m, p_0, shifted), obs))


@st.composite
def _shifted_series(draw):
    """5-40 points: numpy sums fewer than 8 elements in one loop, more pairwise."""
    gaps = draw(st.lists(st.floats(0.5, 20.0), min_size=4, max_size=39))
    times = np.array([0.0, *itertools.accumulate(gaps)]) + draw(st.floats(1900.0, 2100.0))
    obs = draw(st.lists(st.floats(0.0, 1e6), min_size=times.size, max_size=times.size))
    return times - times[0], np.array(obs)


@st.composite
def _candidate(draw):
    # c >= 1e3 puts c * t beyond the +-700 exponent clamp after the first gap;
    # c <= 0, p_m <= 0 and p_0 outside (0, p_m) are inadmissible
    c = draw(st.one_of(st.floats(-1.0, 5.0), st.floats(1e3, 1e5)))
    p_m = draw(st.floats(-10.0, 1e7))
    p_0 = draw(st.one_of(st.floats(-1.0, 1e7), st.floats(0.0, 1.0).map(lambda f: f * p_m)))
    return c, p_m, p_0


@given(_shifted_series(), st.lists(_candidate(), min_size=1, max_size=4))
@example(
    (np.arange(5) * 2.0, np.array([0.0, 3.0, 9.0, 20.0, 31.0])),
    [(1e4, 10.0, 1e-295), (1e4, 40.0, 3.0), (0.6, 40.0, 40.0), (0.6, 40.0, 0.0),
     (0.0, 40.0, 3.0)],
)
@example(
    (np.arange(40) * 1.5, np.arange(40) ** 2 * 1.0), [(600.0, 1e4, 1e-3), (0.2, 1e4, 7.0)]
)
@settings(max_examples=300, deadline=None)
def test_refinement_objective_equals_the_reference_bit_for_bit(series, candidates):
    shifted, obs = series
    objective = _objective(shifted, obs)
    with np.errstate(over="ignore"):
        for v in candidates:
            got, want = objective(v), _reference_objective(v, shifted, obs)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), v


def _interrupt(signum, frame):
    raise TimeoutError("fit did not return")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_fit_returns_on_step_series():
    # one early burst and no later growth: each refinement move finds a smaller
    # strict improvement (p_0 -> 0, c -> inf), so only the budget ends the fit
    traj = AdoptionTrajectory(
        times=tuple(float(t) for t in range(1970, 1983, 2)), p=(0.0,) + (2.0,) * 6
    )
    previous = signal.signal(signal.SIGALRM, _interrupt)
    signal.alarm(30)
    try:
        start = time.perf_counter()
        result = fit(traj)
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 5.0
    assert math.isfinite(result.rmse)


def test_fit_noisy_median_error():
    times = [2.0 * i for i in range(11)]
    clean = np.array(trajectory_closed_form(CANONICAL, times).p)
    errors = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = np.maximum(clean * (1 + 0.05 * rng.standard_normal(clean.size)), 0.0)
        result = fit(AdoptionTrajectory(times=tuple(times), p=tuple(noisy)))
        errors.append(abs(result.params.c - 0.6) / 0.6)
    assert sorted(errors)[len(errors) // 2] <= 0.15


def test_adoption_series_cumulative():
    docs = [make_doc("math", 1974, "chaos"), make_doc("math", 1975, "order")]
    docs += [make_doc("math", 1976, "chaos"), make_doc("math", 1977, "chaos")]
    docs += [make_doc("math", 1978, "order")]
    index = ingest(docs)
    traj = adoption_series(index, TermQuery.parse("chaos"), "math")
    assert traj.times == (1974.0, 1976.0, 1978.0)
    assert traj.p == (1.0, 3.0, 3.0)
