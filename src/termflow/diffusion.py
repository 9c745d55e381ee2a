"""Logistic concept-diffusion model: rate law, trajectories, and fitting.

A concept spreads through a population of potential adopters at a rate
proportional to the product of current adopters and remaining room:

    rate(p) = (c / p_m) * p * (p_m - p)

which integrates to the logistic curve

    p(t) = p_m / (1 + ((p_m - p_0) / p_0) * exp(-c * t)).

When fitting corpus data, the adopter count is proxied by the cumulative
number of distinct documents matching a query in a discipline up to each
bin; timestamps are bin start years, so the growth constant is per year.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import CellCounts, TermQuery
from .errors import TermflowError
from .trend import frequency_series


class OutOfRangeP(TermflowError):
    pass


class InvalidParams(TermflowError):
    pass


class InvalidStep(TermflowError):
    pass


class NoGrowthSignal(TermflowError):
    pass


class DegenerateSeries(TermflowError):
    pass


_EXP_CLAMP = 700.0

# ``fit``'s scan: _C_GRID growth constants over _C_BOUNDS and _PM_GRID ceilings up
# to _PM_MAX_FACTOR times the observed maximum; refinement stops at step _TOL.
_C_BOUNDS = (1e-3, 10.0)
_C_GRID = 25
_PM_MAX_FACTOR = 10.0
_PM_GRID = 16
_TOL = 1e-8

# Objective evaluations the coordinate refinement of ``fit`` may spend. On a
# step-shaped series each multiplicative move keeps finding a smaller strict
# improvement (p_0 -> 0, c -> inf) and the refinement would not end. Fits of
# synth adoption series take at most about 76k evaluations.
_REFINE_EVALUATIONS = 120_000

# Most steps a trajectory may take: trajectories are lists, so a finite but
# huge count (1e12 / 1e-6 = 10**18) would exhaust memory.
_MAX_STEPS = 10**7


@dataclass(frozen=True)
class DiffusionParams:
    """Growth constant (per year), adopter ceiling, and initial adopters.

    The boundary values p_0 = 0 and p_0 = p_m are admitted as fixed points
    of the rate law; fitting always produces an interior p_0.
    """

    c: float
    p_m: float
    p_0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise InvalidParams(f"growth constant must be > 0, got {self.c!r}")
        if not (math.isfinite(self.p_m) and self.p_m > 0):
            raise InvalidParams(f"population ceiling must be > 0, got {self.p_m!r}")
        if not (math.isfinite(self.p_0) and 0 <= self.p_0 <= self.p_m):
            raise InvalidParams(
                f"initial adopters must lie in [0, {self.p_m}], got {self.p_0!r}"
            )


@dataclass(frozen=True)
class AdoptionTrajectory:
    times: tuple[float, ...]
    p: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.p):
            raise ValueError("times and p must have equal length")


def adoption_rate(p_t: float, params: DiffusionParams) -> float:
    """Instantaneous spread rate (c / p_m) * p_t * (p_m - p_t)."""
    if not 0 <= p_t <= params.p_m:
        raise OutOfRangeP(f"p_t must lie in [0, {params.p_m}], got {p_t!r}")
    return (params.c / params.p_m) * p_t * (params.p_m - p_t)


def inflection_time(params: DiffusionParams) -> float:
    """Time at which adopters reach p_m / 2 and the spread rate peaks."""
    if not 0 < params.p_0 < params.p_m:
        raise InvalidParams("inflection requires 0 < p_0 < p_m")
    return math.log((params.p_m - params.p_0) / params.p_0) / params.c


def logistic_value(params: DiffusionParams, t: float) -> float:
    """Closed-form adopter count at time t (t = 0 holds p_0 adopters)."""
    if params.p_0 == 0.0:
        return 0.0
    a = (params.p_m - params.p_0) / params.p_0
    exponent = min(max(-params.c * t, -_EXP_CLAMP), _EXP_CLAMP)
    return params.p_m / (1.0 + a * math.exp(exponent))


def trajectory_closed_form(
    params: DiffusionParams, times: Sequence[float]
) -> AdoptionTrajectory:
    """Exact logistic values at the given (sorted) times."""
    ts = list(times)
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be sorted ascending")
    return AdoptionTrajectory(
        times=tuple(float(t) for t in ts),
        p=tuple(logistic_value(params, t) for t in ts),
    )


def step_count(t_end: float, dt: float) -> int:
    """Steps of size ``dt`` from t = 0 to ``t_end``, rounded to the nearest.

    Raises :class:`InvalidStep` unless ``dt`` is finite and > 0, ``t_end``
    is >= 0 and ``t_end / dt`` is at most ``_MAX_STEPS``.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidStep(f"step size must be > 0, got {dt!r}")
    if t_end < 0:
        raise InvalidStep("t_end must be >= 0")
    steps = t_end / dt
    if not steps <= _MAX_STEPS:
        raise InvalidStep(f"t_end / dt must be <= {_MAX_STEPS} steps, got {t_end!r} / {dt!r}")
    return int(round(steps))


def trajectory_euler(
    params: DiffusionParams, t_end: float, dt: float
) -> AdoptionTrajectory:
    """Forward-Euler integration of the rate law from t = 0, clamped to [0, p_m].

    A verification oracle for the closed form; global error is first order
    in the step size.
    """
    steps = step_count(t_end, dt)
    times = [0.0]
    values = [float(params.p_0)]
    p = float(params.p_0)
    t = 0.0
    for _ in range(steps):
        p = p + dt * (params.c / params.p_m) * p * (params.p_m - p)
        p = min(max(p, 0.0), params.p_m)
        t += dt
        times.append(t)
        values.append(p)
    return AdoptionTrajectory(times=tuple(times), p=tuple(values))


def adoption_series(
    index: CellCounts, query: TermQuery, discipline: str
) -> AdoptionTrajectory:
    """Cumulative distinct matching documents per bin, as an adopter proxy,
    from the ``flags`` of ``query`` that :func:`frequency_series` reads."""
    freq = frequency_series(index, query, discipline)
    return AdoptionTrajectory(
        times=tuple(float(b.start_year) for b in freq.bins),
        p=tuple(float(n) for n in itertools.accumulate(freq.n)),
    )


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus the root-mean-square residual.

    ``params.p_0`` is the fitted adopter count at the first observation
    time; predictions use times measured from that first timestamp.
    """

    params: DiffusionParams
    rmse: float
    n_points: int

    def to_dict(self) -> dict:
        return {
            "c": self.params.c,
            "p_m": self.params.p_m,
            "p_0": self.params.p_0,
            "rmse": self.rmse,
            "n_points": self.n_points,
        }


def _objective(shifted: np.ndarray, obs: np.ndarray) -> Callable[[Sequence[float]], float]:
    """``fit``'s one objective, for its grid scan and its refinement alike: the
    RMSE of the logistic ``(c, p_m, p_0)`` against ``obs``, or inf unless
    c > 0, p_m > 0 and 0 < p_0 < p_m.

    It evaluates ``p_m / (1 + (p_m - p_0) / p_0 * exp(clamp(-c * shifted)))``
    and the root of the mean squared residual one numpy operation at a time,
    in scratch arrays, because on series this short numpy's per-call
    overhead outweighs the arithmetic. ``e`` keeps exp(clamp(-c * shifted))
    for the last admissible c, so a move of p_m or p_0 alone, or the next
    ceiling of a scan row, reuses it. The clamp is skipped when the extreme
    products ``hi * -c`` and ``lo * -c`` lie inside it: a rounded product is
    monotone in each factor, so then no element lies outside.
    """
    d, e = np.empty_like(obs), np.empty_like(obs)
    n = d.size
    lo, hi = float(shifted.min()), float(shifted.max())
    multiply, add, divide, subtract, exp = np.multiply, np.add, np.divide, np.subtract, np.exp
    last_c = math.nan

    def objective(v: Sequence[float]) -> float:
        nonlocal last_c
        c, p_m, p_0 = v
        if not (c > 0 and p_m > 0 and 0 < p_0 < p_m):
            return math.inf
        if c != last_c:
            multiply(shifted, -c, e)
            if not -_EXP_CLAMP <= hi * -c <= lo * -c <= _EXP_CLAMP:
                # numpy deprecates a positional output for these two
                np.maximum(e, -_EXP_CLAMP, out=e)
                np.minimum(e, _EXP_CLAMP, out=e)
            exp(e, e)
            last_c = c
        multiply(e, (p_m - p_0) / p_0, d)
        add(d, 1.0, d)
        divide(p_m, d, d)
        subtract(d, obs, d)
        multiply(d, d, d)
        return math.sqrt(float(add.reduce(d)) / n)

    return objective


def fit(trajectory: AdoptionTrajectory) -> FitResult:
    """Least-squares logistic fit via grid scan plus coordinate refinement.

    The scan walks log-spaced growth constants and ceilings (from just above
    the observed maximum up to ``_PM_MAX_FACTOR`` times it); for each
    candidate the initial adopter count is solved from the first positive
    observation. The best candidate is then refined one coordinate at a
    time with multiplicative steps until the relative step falls below
    ``_TOL``, or until a fixed budget of objective evaluations is spent; the
    best point found is returned either way. The scan and the refinement
    score candidates with one objective, :func:`_objective`.
    """
    times = np.asarray(trajectory.times, dtype=float)
    obs = np.asarray(trajectory.p, dtype=float)
    if times.size < 5:
        raise DegenerateSeries(f"need at least 5 points, got {times.size}")
    if not (np.isfinite(times).all() and np.isfinite(obs).all()):
        raise DegenerateSeries("times and adopter counts must be finite")
    if obs.max() == obs.min():
        raise NoGrowthSignal("series is flat; nothing to fit")
    positive = np.nonzero(obs > 0)[0]
    if positive.size == 0:
        raise NoGrowthSignal("series has no positive adopter counts")

    t0 = times[0]
    shifted = times - t0
    anchor_i = int(positive[0])
    t_anchor = float(shifted[anchor_i])
    p_anchor = float(obs[anchor_i])
    p_max = obs.max()

    c_candidates = np.geomspace(_C_BOUNDS[0], _C_BOUNDS[1], _C_GRID).tolist()
    pm_candidates = np.geomspace(p_max * 1.001, p_max * _PM_MAX_FACTOR, _PM_GRID).tolist()

    # Scan every (c, p_m) pair, c major, keeping the first best candidate:
    # p_0 is solved from the first positive observation.
    objective = _objective(shifted, obs)
    best_err, vec = math.inf, []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for c in c_candidates:
            anchor_factor = math.exp(min(c * t_anchor, _EXP_CLAMP))
            for p_m in pm_candidates:
                p_0 = p_m / (1.0 + (p_m / p_anchor - 1.0) * anchor_factor)
                err = objective((c, p_m, p_0))
                if err < best_err:
                    vec, best_err = [c, p_m, p_0], err
    if best_err == math.inf:
        raise NoGrowthSignal("no admissible logistic candidate found")

    step = 0.5
    budget = _REFINE_EVALUATIONS
    while step > _TOL and budget > 0:
        improved = False
        for idx in range(3):
            for factor in (1.0 + step, 1.0 / (1.0 + step)):
                while budget > 0:
                    budget -= 1
                    cand = list(vec)
                    cand[idx] *= factor
                    err = objective(cand)
                    if err < best_err:
                        vec, best_err = cand, err
                        improved = True
                    else:
                        break
        if not improved:
            step *= 0.5

    params = DiffusionParams(c=vec[0], p_m=vec[1], p_0=vec[2])
    return FitResult(params=params, rmse=best_err, n_points=int(times.size))
