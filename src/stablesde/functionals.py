"""Path integrals I_t = int_0^t f(X_s) ds on sampled skeletons, their
right-continuous inverses, and the explosion/freezing verdict for a single
path.

Every clock starts from `_left_point`, the one left-point cell rule.  The
single-path public functions `path_integral` and `inverse_time_change` take
no alpha and keep it as it is, charging +inf to any cell parked on a pole of
f with positive dwell.  Every estimator uses the alpha-aware `_contributions`
instead, which charges a cell parked exactly on an isolated pole p the
kernel integral of f over the range dwell^(1/alpha) the process typically
sweeps there, and +inf where `integrals._divergence` finds that integral
infinite on a piece touching p: the rule `irregular_set` reaches through
the monotone pole test, so the cell is infinite exactly when p is in O.  It
takes cells of any shape: the finiteness and small-time estimators apply it
to the cells of every row of a block, and everything that decides freezing
or explosion reads it through the clock.

`_clock_rows` is the one freeze/explode verdict.  It accumulates the clock
of f = sigma^-alpha along rows of cells; a row freezes by its end when the
clock reaches M, and a row alive then is completed from its last value by
the Markov property (`_freeze_chance`, `tail_kernel_finiteness`).  Explosion
is finiteness of the path integral of any f.  The estimators run it on whole
blocks; `classify_path` and `sde.solve_time_change` read it through
`_clock`.  `_crossing` is the one time at which a clock crosses a level in a
cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcspec import INF, FunctionSpec
from .integrals import _divergence, _hitting_chance, tail_kernel_finiteness
from .intervals import _check_alpha
from .stable import PathSample, cell_dwell


#: default "numerically infinite" level for truncated integrals
DEFAULT_M = 1e9


@dataclass(frozen=True)
class Thresholds:
    """Resolution thresholds: M declares a truncated integral numerically
    infinite.  R, once an escape radius, is validated but has no effect."""

    m: float = DEFAULT_M
    r: float | None = None

    def __post_init__(self):
        if not 0.0 < self.m < INF or (self.r is not None and not 0.0 < self.r < INF):
            raise ValueError("thresholds must be finite and positive")


@dataclass
class PathVerdict:
    """Explosion/freezing verdict for one path; the two never co-occur."""

    integral_at_horizon: float
    explodes: str  # yes | no | undetermined
    freezes: str
    freeze_time: float | None = None

    def __post_init__(self):
        if self.explodes == "yes" and self.freezes == "yes":
            raise ValueError("explosion and freezing preclude one another")


def path_integral(path: PathSample, f: FunctionSpec, t: float) -> float:
    """Left-point Riemann sum of f along the skeleton up to time t; +inf as
    soon as any occupied cell has f = +inf with positive dwell."""
    if not 0.0 <= t <= path.horizon:
        raise ValueError("t must lie in [0, horizon]")
    dwell = cell_dwell(path.times, min(t, path.end_time))
    return float(np.sum(_left_point(np.asarray(f(path.values), float), dwell)))


def _left_point(fv: np.ndarray, dwell: np.ndarray) -> np.ndarray:
    """A new array of f's values fv times their dwell, 0 where the dwell is
    not positive, even where f is +inf."""
    return np.where(dwell > 0.0, fv, 0.0) * dwell


def _crossing(t0, c0, rate, s) -> float:
    """The time at which a clock that reads c0 at t0 and runs at rate reaches
    s; t0 when the rate is not in (0, inf), as on an infinite piece."""
    return float(t0 + (s - c0) / rate) if 0.0 < rate < INF else float(t0)


def _contributions(values: np.ndarray, dwell: np.ndarray, f: FunctionSpec, alpha: float):
    """Contributions of cells of any shape, given the value and the dwell of
    each: f at the value times the dwell, except on a pole p of f.

    There a cell with positive dwell gets 2c/(e+alpha) * dwell^((e+alpha)/alpha),
    the kernel integral of f over the radius-dwell^(1/alpha) window, where
    c|y-p|^e is the most singular power anchored at p among the pieces
    touching p (lower e wins, then higher c); +inf when `_divergence` holds
    at p for a piece touching p.
    """
    _check_alpha(alpha)
    contrib = _left_point(np.asarray(f(values), float), dwell)
    for p, forms, form in f.pole_forms():
        mask = values == p
        if not mask.any():
            continue
        mask &= dwell > 0.0
        if any(_divergence(alpha, p, touching, p, p) for touching in forms):
            contrib[mask] = INF
            continue
        k = form.e + alpha
        contrib[mask] = 2.0 * form.c / k * dwell[mask] ** (k / alpha)
    return contrib


def inverse_time_change(path: PathSample, f: FunctionSpec, s: float) -> float:
    """phi_s = inf{t > 0 : I_t > s} on the skeleton; +inf if the integral
    never exceeds s within the horizon."""
    if not s >= 0.0:
        raise ValueError(f"s must be nonnegative, got {s}")
    dwell = cell_dwell(path.times, path.end_time)
    fv = np.asarray(f(path.values), float)
    # the left-point clock at every cell edge
    cum = np.concatenate(([0.0], np.cumsum(_left_point(fv, dwell))))
    # the clock never decreases, so the first cell ending above s is found
    # by bisection
    i = int(np.searchsorted(cum[1:], s, side="right"))
    if i == len(cum) - 1:
        return INF
    return _crossing(path.times[i], cum[i], fv[i], s)


def _freeze_chance(f: FunctionSpec, alpha: float, x):
    """Bounds (lo, hi) on P_x(X ever enters an interval where f = +inf), x
    an array: [0, 0] without one, [1, 1] with an unbounded one (the driver
    oscillates), else the largest `_hitting_chance` of each (Blumenthal,
    Getoor & Ray 1961) and their sum capped at 1.  Poles are polar, but an
    x on a pole in O freezes at once, as a cell parked there would."""
    pieces = f.infinite_intervals().intervals
    chances = np.zeros((len(pieces) + 1, *np.shape(x)))
    chances[0] = np.isinf(_contributions(x, np.ones(np.shape(x)), f, alpha))
    for i, (a, b) in enumerate(pieces, 1):
        chances[i] = 1.0 if b - a == INF else _hitting_chance(alpha, x, a, b)
    return chances.max(axis=0, initial=0.0), np.minimum(1.0, chances.sum(axis=0))


#: verdict codes of `_clock_rows` and their names in `_clock`
_EXPLODES = {1: "yes", 0: "no", -1: "undetermined"}


def _clock_rows(values, dwell, last, f: FunctionSpec, alpha: float,
                thresholds: Thresholds, rng=None, alive=None):
    """The clock of f (the time change for f = sigma^-alpha) along each
    row of cells, and the one freeze/explode verdict read from it.

    values and dwell are (rows, cells) arrays, last the final position of
    each row.  Returns (contrib, cum, k, freezes, explodes): the alpha-aware
    contribution of each cell, the clock at the cell edges (rows, cells + 1),
    per row the first cell at whose right edge the clock is at or above M
    (-1 if none), and the codes 1 (yes), 0 (no), -1 (undetermined) of ever
    freezing and exploding.  A row alive at its end freezes later with a
    chance `_freeze_chance` bounds by (lo, hi) at `last`; lo = 0 on killed
    drivers, and hi = 0 too where alive says a row was killed by the
    horizon.  A row (lo, hi) leaves open takes one uniform u from rng, in
    row order: 1 if u < lo, 0 if u >= hi, else -1 (-1 without rng).  A row
    explodes unless it freezes, or the driver is unkilled and the tail
    integral of f, looked up at most once, is infinite; -1 where undecided.
    """
    contrib = _contributions(values, dwell, f, alpha)
    cum = np.zeros((len(contrib), contrib.shape[1] + 1))
    # accumulate runs sequentially along each row, so a row's clock has the
    # bytes of the same cells summed on their own
    np.cumsum(contrib, axis=1, out=cum[:, 1:])
    over = ~(cum[:, 1:] < thresholds.m)
    frozen = over.any(axis=1)
    k = np.where(frozen, over.argmax(axis=1), -1)
    rows = np.flatnonzero(~frozen)
    lo, hi = _freeze_chance(f, alpha, last[rows])
    if alive is not None:
        lo, hi = np.zeros(rows.size), np.where(alive[rows], hi, 0.0)
    # a row that draws nothing is decided by u = 0: lo = 1 gives 1, hi = 0 gives 0
    u = np.zeros(rows.size)
    draw = (lo < 1.0) & (hi > 0.0)
    u[draw] = np.nan if rng is None else rng.random(np.count_nonzero(draw))
    later = np.where(u < lo, 1, np.where(u >= hi, 0, -1)).astype(np.int8)
    freezes = np.ones(len(k), dtype=np.int8)
    freezes[rows] = later
    explodes = np.zeros(len(k), dtype=np.int8)
    if (later != 1).any() and (alive is not None or tail_kernel_finiteness(alpha, f) == "finite"):
        explodes[rows] = np.where(later < 0, -1, 1 - later)
    return contrib, cum, k, freezes, explodes


def _clock(path: PathSample, f: FunctionSpec, alpha: float, thresholds: Thresholds):
    """`_clock_rows` of one path without coins, with k None when the path
    does not freeze by its end and the codes as yes/no/undetermined."""
    contrib, cum, k, freezes, explodes = _clock_rows(
        path.values[None], cell_dwell(path.times, path.end_time)[None], path.values[-1:],
        f, alpha, thresholds,
    )
    return (contrib[0], cum[0], None if k[0] < 0 else int(k[0]),
            _EXPLODES[int(freezes[0])], _EXPLODES[int(explodes[0])])


def classify_path(
    path: PathSample,
    sigma: FunctionSpec,
    alpha: float,
    thresholds: Thresholds = Thresholds(),
) -> PathVerdict:
    """Explosion/freezing verdict from the time-change integrand sigma^-alpha.

    Freezing: the cumulative alpha-aware integral reaches +inf or M at a
    finite skeleton time, the freeze time.  A path alive at its end is
    completed without coins, so a verdict is yes or no only where it is
    certain: it freezes later when it surely enters a zero interval of
    sigma, and explodes when it never can and the tail integral of
    sigma^-alpha is finite.  The rest is `undetermined`.
    """
    f = sigma.inverse_power(alpha)
    contrib, cum, k, freezes, explodes = _clock(path, f, alpha, thresholds)
    if k is None:
        return PathVerdict(float(cum[-1]), explodes, freezes)
    # cell k adds to the clock, so it has dwell
    rate = contrib[k] / cell_dwell(path.times, path.end_time)[k]
    return PathVerdict(INF, explodes, "yes", _crossing(path.times[k], cum[k], rate, thresholds.m))
