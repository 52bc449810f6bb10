"""Path integrals I_t = int_0^t f(X_s) ds on sampled skeletons, their
right-continuous inverses, hitting and last-exit times, and the
explosion/freezing verdict for a single path.

Two occupation conventions coexist.  The plain left-point Riemann sum charges
+inf to any cell parked on a pole of f with positive dwell; `path_integral`,
`cumulative_integral`, `inverse_time_change`, `discretization_bias` and the
finiteness estimator use it.  The alpha-aware `effective_contributions`
replaces the contribution of a cell parked exactly on an isolated pole point
by the kernel integral of f over the spatial range dwell^(1/alpha) the
process typically sweeps there; that cell is infinite exactly when the local
exponent e of f satisfies e + alpha <= 0, matching the analytic small-time
test instead of the grid artifact.  The small-time estimator reads it
directly; everything that decides freezing or explosion reads it through
`_clock`.

`_clock` is the one freeze/explode verdict: it accumulates the time-change
clock of f = sigma^-alpha along a path and decides freezing (the clock
reaches M at a finite time) and explosion (the clock stays finite along a
path that escaped beyond R).  `classify_path`, `sde.solve_time_change` and
the freeze and explosion estimators all read it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .funcspec import FunctionSpec, FunctionSpecError
from .integrals import tail_kernel_finiteness
from .intervals import IntervalSet, _check_alpha
from .stable import PathSample

INF = math.inf

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
        if self.r is not None:
            return self.r
        return ESCAPE_MULTIPLIER * horizon ** (1.0 / alpha)


@dataclass
class PathVerdict:
    """Explosion/freezing verdict for one path; the two never co-occur."""

    integral_at_horizon: float
    explodes: str  # yes | no | undetermined
    freezes: str
    freeze_time: float | None = None
    step: float = 0.0
    horizon: float = 0.0
    m: float = DEFAULT_M
    r: float = 0.0

    def __post_init__(self):
        if self.explodes == "yes" and self.freezes == "yes":
            raise ValueError("explosion and freezing preclude one another")

    def to_json(self) -> str:
        return json.dumps(
            {
                "integral": None if math.isinf(self.integral_at_horizon) else self.integral_at_horizon,
                "explodes": self.explodes,
                "freezes": self.freezes,
                "freeze_time": self.freeze_time,
                "step": self.step,
                "horizon": self.horizon,
                "M": self.m,
                "R": self.r,
            }
        )


def _cell_edges(path: PathSample) -> np.ndarray:
    return np.append(path.times, path.end_time)


def _cell_values(path: PathSample, f: FunctionSpec):
    """(dwell, f(values)) per skeleton cell; the last cell extends to the
    killing time or horizon and may be empty."""
    dwell = np.diff(_cell_edges(path))
    return dwell, np.asarray(f(path.values), float)


def path_integral(path: PathSample, f: FunctionSpec, t: float) -> float:
    """Left-point Riemann sum of f along the skeleton up to time t; +inf as
    soon as any occupied cell has f = +inf with positive dwell."""
    if not 0.0 <= t <= path.horizon:
        raise ValueError("t must lie in [0, horizon]")
    edges = _cell_edges(path)
    dwell = np.clip(np.minimum(edges[1:], t) - edges[:-1], 0.0, None)
    fv = np.asarray(f(path.values), float)
    occupied = dwell > 0.0
    if np.any(np.isinf(fv) & occupied):
        return INF
    return float(np.dot(fv[occupied], dwell[occupied]))


def cumulative_integral(path: PathSample, f: FunctionSpec):
    """(edges, I(edges)): the path integral at every cell edge; infinite
    entries propagate once an infinite-mass cell is crossed."""
    dwell, fv = _cell_values(path, f)
    contrib = np.where(dwell > 0.0, fv, 0.0) * np.where(dwell > 0.0, dwell, 1.0)
    return _cell_edges(path), np.concatenate(([0.0], np.cumsum(contrib)))


def effective_contributions(path: PathSample, f: FunctionSpec, alpha: float) -> np.ndarray:
    """Per-cell contributions with the alpha-aware pole convention.

    A cell whose node sits exactly on an isolated pole point p of f with
    local behavior c|y-p|^e gets 2c/(e+alpha) * dwell^((e+alpha)/alpha),
    the kernel integral of f over the radius-dwell^(1/alpha) window; it is
    +inf exactly when e + alpha <= 0.  All other cells use f at the node.
    """
    _check_alpha(alpha)
    dwell, fv = _cell_values(path, f)
    with np.errstate(invalid="ignore"):
        contrib = np.where(dwell > 0.0, fv * np.maximum(dwell, 0.0), 0.0)
    contrib[np.isnan(contrib)] = 0.0
    for p in f.pole_points():
        mask = (path.values == p) & (dwell > 0.0)
        if not mask.any():
            continue
        try:
            c, e = f.local_power(p)
        except FunctionSpecError:
            contrib[mask] = INF
            continue
        k = e + alpha
        if k <= 0.0 or not math.isfinite(c):
            contrib[mask] = INF
        elif e < 0.0:
            contrib[mask] = 2.0 * c / k * dwell[mask] ** (k / alpha)
        else:
            contrib[mask] = (c if e == 0.0 else 0.0) * dwell[mask]
    return contrib


def inverse_time_change(path: PathSample, f: FunctionSpec, s: float) -> float:
    """phi_s = inf{t > 0 : I_t > s} on the skeleton; +inf if the integral
    never exceeds s within the horizon."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    edges, cum = cumulative_integral(path, f)
    # the clock never decreases, so the first cell ending above s is found
    # by bisection
    i = int(np.searchsorted(cum[1:], s, side="right"))
    if i == len(cum) - 1:
        return INF
    rate = _cell_values(path, f)[1][i]
    if math.isinf(rate) or rate <= 0.0:
        return float(edges[i])
    return float(edges[i] + (s - cum[i]) / rate)


def first_hitting_time(path: PathSample, target: IntervalSet) -> float:
    """First grid time with value in the target; +inf if never (inf of the
    empty set)."""
    if target.is_empty():
        return INF
    hits = np.flatnonzero(target.contains(path.values))
    if hits.size == 0:
        return INF
    return float(path.times[hits[0]])


def last_exit_time(path: PathSample, target: IntervalSet) -> float:
    """Last grid time with value in the target; 0 if never (sup of the
    empty set)."""
    if target.is_empty():
        return 0.0
    hits = np.flatnonzero(target.contains(path.values))
    if hits.size == 0:
        return 0.0
    return float(path.times[hits[-1]])


def discretization_bias(path: PathSample, f: FunctionSpec) -> float:
    """Crude bound on the left-point discretization error of the integral at
    the horizon: total variation of f along the skeleton weighted by dwell,
    plus one cell of slack at the largest observed level."""
    dwell, fv = _cell_values(path, f)
    fin = np.isfinite(fv)
    if not fin.all():
        return INF
    tv = float(np.dot(np.abs(np.diff(fv)), dwell[:-1])) if len(fv) > 1 else 0.0
    top = float(fv.max()) if len(fv) else 0.0
    return tv + top * float(dwell.max(initial=0.0))


def _clock(path: PathSample, f: FunctionSpec, alpha: float, thresholds: Thresholds):
    """The time-change clock of one path for the integrand f = sigma^-alpha,
    and the one freeze/explode verdict read from it.

    Returns (contrib, cum, k, explodes): the alpha-aware contribution of
    each cell, the clock at the cell edges, the first cell at whose right
    edge the clock is at or above M (None when it never gets there, so the
    path does not freeze), and whether the path explodes: `no` when it
    freezes or when the tail integral of f is infinite (slow decay at
    infinity keeps the clock running on every transient path), `yes` when
    it escaped beyond R and the tail integral is finite (the clock runs
    out), `undetermined` otherwise.
    """
    contrib = effective_contributions(path, f, alpha)
    cum = np.concatenate(([0.0], np.cumsum(contrib)))
    over = np.flatnonzero(~(cum[1:] < thresholds.m))
    if over.size:
        return contrib, cum, int(over[0]), "no"
    tail = tail_kernel_finiteness(alpha, f)
    escaped = abs(float(path.values[-1])) > thresholds.escape_radius(alpha, path.horizon)
    if tail == "infinite":
        explodes = "no"
    elif escaped and tail == "finite":
        explodes = "yes"
    else:
        explodes = "undetermined"
    return contrib, cum, None, explodes


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
    edges = _cell_edges(path)
    dwell = np.diff(edges)
    step = float(np.median(dwell[dwell > 0.0])) if np.any(dwell > 0.0) else 0.0
    total, freeze_time = float(cum[-1]), None
    if k is not None:
        total, freezes, freeze_time = INF, "yes", float(edges[k])
        if math.isfinite(contrib[k]) and contrib[k] > 0.0:
            rate = contrib[k] / dwell[k]
            freeze_time = float(edges[k] + (thresholds.m - cum[k]) / rate)
    else:
        can_freeze = bool(f.pole_points()) or not f.infinite_intervals().is_empty()
        freezes = "undetermined" if can_freeze and explodes != "yes" else "no"
    return PathVerdict(
        integral_at_horizon=total,
        explodes=explodes,
        freezes=freezes,
        freeze_time=freeze_time,
        step=step,
        horizon=path.horizon,
        m=thresholds.m,
        r=thresholds.escape_radius(alpha, path.horizon),
    )
