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

`_clock_rows` is the one freeze/explode verdict: it accumulates the
time-change clock of f = sigma^-alpha along rows of cells and decides
freezing (the clock reaches M at a finite time) and explosion (the clock
stays finite along a path that escaped beyond R).  The same verdict on the
clock of any f decides finiteness of its path integral: explosion is
finiteness for f = sigma^-alpha.  The freeze, explosion and finiteness
estimators run it on the cells of a whole block; `classify_path` and
`sde.solve_time_change` read it through `_clock`, its one-path caller.
`_crossing` is the one time at which a clock crosses a level in a cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcspec import INF, FunctionSpec
from .integrals import _divergence, tail_kernel_finiteness
from .intervals import _check_alpha
from .stable import PathSample, _self_similar, cell_dwell


#: default "numerically infinite" level for truncated integrals
DEFAULT_M = 1e9
#: escape radius multiplier: R = this times horizon^(1/alpha)
ESCAPE_MULTIPLIER = 1e3


@dataclass(frozen=True)
class Thresholds:
    """Resolution thresholds: M declares a truncated integral numerically
    infinite, R is the escape radius certifying stabilization by transience."""

    m: float = DEFAULT_M
    r: float | None = None

    def __post_init__(self):
        if not 0.0 < self.m < INF or (self.r is not None and not 0.0 < self.r < INF):
            raise ValueError("thresholds must be finite and positive")

    def escape_radius(self, alpha: float, horizon: float) -> float:
        """R, or +inf where horizon^(1/alpha) leaves the float range (no
        path is then certified to have escaped)."""
        if self.r is not None:
            return self.r
        return _self_similar(horizon, alpha, ESCAPE_MULTIPLIER)


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
    for p in f.pole_points():
        mask = (values == p) & (dwell > 0.0)
        if not mask.any():
            continue
        if any(_divergence(alpha, p, pc.form, p, p) for pc in f.pieces if pc.lo <= p <= pc.hi):
            contrib[mask] = INF
            continue
        form = min((pc.form for pc in f._anchored(-1.0) if pc.form.p == p and pc.lo <= p <= pc.hi),
                   key=lambda form: (form.e, -form.c))
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


#: explode verdict codes of `_clock_rows` and their names in `_clock`
_EXPLODES = {1: "yes", 0: "no", -1: "undetermined"}


def _clock_rows(values, dwell, last, f: FunctionSpec, alpha: float,
                thresholds: Thresholds, horizon: float, killed: bool = False):
    """The clock of f (the time change for f = sigma^-alpha) along each
    row of cells, and the one freeze/explode verdict read from it.

    values and dwell are (rows, cells) arrays, last the final position of
    each row.  Returns (contrib, cum, k, explodes): the alpha-aware
    contribution of each cell, the clock at the cell edges (rows,
    cells + 1), per row the first cell at whose right edge the clock is at
    or above M (-1 when it never gets there, so the row does not freeze),
    and whether the row explodes: 0 (no) when it freezes or when the tail
    integral of f is infinite (slow decay at infinity keeps the clock
    running on every transient path), 1 (yes) when it escaped beyond R and
    the tail integral is finite (the clock runs out), -1 (undetermined)
    otherwise.  The tail integral is looked up once, and only when some
    row does not freeze; on killed drivers the clock stops at the killing
    time, so the tail counts as finite and is not looked up.
    """
    contrib = _contributions(values, dwell, f, alpha)
    cum = np.zeros((len(contrib), contrib.shape[1] + 1))
    # accumulate runs sequentially along each row, so a row's clock has the
    # bytes of the same cells summed on their own
    np.cumsum(contrib, axis=1, out=cum[:, 1:])
    over = ~(cum[:, 1:] < thresholds.m)
    frozen = over.any(axis=1)
    k = np.where(frozen, over.argmax(axis=1), -1)
    explodes = np.zeros(len(k), dtype=np.int8)
    if not frozen.all() and (killed or tail_kernel_finiteness(alpha, f) == "finite"):
        escaped = np.abs(last) > thresholds.escape_radius(alpha, horizon)
        explodes[~frozen] = np.where(escaped[~frozen], 1, -1)
    return contrib, cum, k, explodes


def _clock(path: PathSample, f: FunctionSpec, alpha: float, thresholds: Thresholds):
    """`_clock_rows` of one path: (contrib, cum, k, explodes) with k None
    when the path does not freeze and explodes yes/no/undetermined."""
    contrib, cum, k, explodes = _clock_rows(
        path.values[None], cell_dwell(path.times, path.end_time)[None], path.values[-1:],
        f, alpha, thresholds, path.horizon,
    )
    first = int(k[0])
    return contrib[0], cum[0], None if first < 0 else first, _EXPLODES[int(explodes[0])]


def classify_path(
    path: PathSample,
    sigma: FunctionSpec,
    alpha: float,
    thresholds: Thresholds = Thresholds(),
) -> PathVerdict:
    """Explosion/freezing verdict from the time-change integrand sigma^-alpha.

    Freezing: the cumulative alpha-aware integral reaches +inf or M at a
    finite skeleton time.  Explosion: the integral at the horizon is finite,
    below M, and the path has escaped beyond R (transience certifies
    stabilization).  `no` is certified when the structure of sigma rules the
    event out; everything else is reported `undetermined`.
    """
    f = sigma.inverse_power(alpha)
    contrib, cum, k, explodes = _clock(path, f, alpha, thresholds)
    if k is None:
        can_freeze = bool(f.pole_points()) or not f.infinite_intervals().is_empty()
        freezes = "undetermined" if can_freeze and explodes != "yes" else "no"
        return PathVerdict(float(cum[-1]), explodes, freezes)
    # cell k adds to the clock, so it has dwell
    rate = contrib[k] / cell_dwell(path.times, path.end_time)[k]
    return PathVerdict(INF, explodes, "yes", _crossing(path.times[k], cum[k], rate, thresholds.m))
