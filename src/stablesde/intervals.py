"""Finite unions of half-open intervals, geometric shells, stable capacities,
and the Wiener summation test for avoidability/thinness.

All sets are represented as sorted disjoint unions of half-open intervals
[a, b).  Endpoint conventions differ from the strict/non-strict inequalities
defining shells by sets of measure zero, which is irrelevant to every
integral computed downstream.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma


@dataclass(frozen=True)
class IntervalSet:
    """Finite disjoint union of half-open intervals [a, b), kept normalized."""

    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals", _normalize(self.intervals))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def of(cls, *pairs) -> "IntervalSet":
        return cls(tuple((float(a), float(b)) for a, b in pairs))

    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def contains(self, x):
        """Vectorized membership test for scalar or array x."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (x >= a) & (x < b)
        return bool(out) if out.ndim == 0 else out

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Overlaps of the two sets, each piece (max(a, c), min(b, d)) for a
        piece [a, b) of self and [c, d) of other; self's endpoint comes
        first, so a tie of 0.0 and -0.0 keeps self's sign."""
        return IntervalSet(tuple(
            (max(a, c), min(b, d)) for a, b in self.intervals for c, d in other.intervals
        ))

    def complement_within(self, window: tuple[float, float]) -> "IntervalSet":
        """Complement of the set restricted to the window [lo, hi)."""
        lo, hi = window
        pieces = []
        cursor = lo
        for a, b in self.intervals:
            if b <= lo or a >= hi:
                continue
            if cursor < a:
                pieces.append((cursor, min(a, hi)))
            cursor = max(cursor, b)
        if cursor < hi:
            pieces.append((cursor, hi))
        return IntervalSet(tuple(pieces))

    def distance_to(self, x):
        """Distance from scalar or array x to the set (0 inside, +inf from
        the empty set); a point at an infinity that a piece reaches is at
        distance 0, and a NaN point is at distance +inf."""
        x = np.asarray(x, dtype=float)
        best = np.full(x.shape, math.inf)
        for a, b in self.intervals:
            # only finite ends are subtracted, so a point at an infinite end
            # gives no inf - inf
            if b < math.inf:
                gap = x - b if a == -math.inf else np.maximum(a - x, x - b)
            elif a > -math.inf:
                gap = a - x
            else:
                # the whole line: -inf, or NaN at a NaN point
                gap = np.minimum(x, -math.inf)
            # fmin drops the NaN that a NaN point gives
            best = np.fmin(best, np.maximum(gap, 0.0))
        return float(best) if best.ndim == 0 else best

    def to_json(self) -> str:
        return json.dumps([[a, b] for a, b in self.intervals])

    @classmethod
    def from_json(cls, text: str) -> "IntervalSet":
        """A set from a JSON list of [a, b] number pairs with a < b; any
        other document, or an inverted or empty pair, raises ValueError."""
        pairs = json.loads(text)
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
            and pair[0] < pair[1]
            for pair in pairs
        ):
            raise ValueError(
                f"an interval set must be a JSON list of [a, b] pairs with a < b, got {text}"
            )
        return cls.of(*pairs)


def _normalize(pairs):
    """Sort, drop empty intervals, merge overlapping/adjacent ones; NaN
    endpoints are rejected, infinite ones are kept."""
    pairs = [(float(a), float(b)) for a, b in pairs]
    if any(math.isnan(a) or math.isnan(b) for a, b in pairs):
        raise ValueError("interval endpoints must not be NaN")
    cleaned = sorted((a, b) for a, b in pairs if a < b)
    merged: list[list[float]] = []
    for a, b in cleaned:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


@dataclass(frozen=True)
class ShellSpec:
    """Geometric shells around a center: the n-th shell is the set of points
    at distance in (lambda^{n-1}, lambda^n] from the center."""

    center: float = 0.0
    lam: float = 2.0
    n_min: int = 1
    n_max: int = 200

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError(f"shell centre must be finite, got {self.center}")
        if not 1.0 < self.lam < math.inf:
            raise ValueError("shell ratio must be finite and exceed 1")
        if self.n_min > self.n_max:
            raise ValueError("empty shell index range")


def ball_capacity(alpha: float, r: float) -> float:
    """Riesz capacity of a ball of radius r for the symmetric alpha-stable
    process on the line, alpha in (0,1): C(B_r) = r^(1-alpha) * C(B_1) with
    C(B_1) = Gamma(1/2) / (Gamma(alpha/2) * Gamma((1-alpha)/2 + 1))."""
    _check_alpha(alpha)
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    c1 = gamma(0.5) / (gamma(alpha / 2.0) * gamma((1.0 - alpha) / 2.0 + 1.0))
    return float(r ** (1.0 - alpha) * c1)


def interval_capacity_upper(alpha: float, s: IntervalSet) -> float:
    """Subadditive upper bound: sum of per-component ball capacities.
    Exact for a single interval (which is a translated ball)."""
    _check_alpha(alpha)
    return float(sum(ball_capacity(alpha, (b - a) / 2.0) for a, b in s.intervals))


#: partial sums a JSON verdict reports, the last ones
REPORTED_SUMS = 50


@dataclass
class SeriesVerdict:
    """Outcome of the Wiener summation test.  partial_sums accumulates the
    upper-bound terms; lower_partial_sums the isoperimetric lower bounds."""

    partial_sums: list[float] = field(default_factory=list)
    lower_partial_sums: list[float] = field(default_factory=list)
    verdict: str = "inconclusive"
    ratio_estimate: float | None = None

    @property
    def terms_used(self) -> int:
        return len(self.partial_sums)

    @property
    def total(self) -> float:
        return self.partial_sums[-1] if self.partial_sums else 0.0

    def to_json(self) -> str:
        """The verdict with the last REPORTED_SUMS partial sums."""
        return json.dumps(
            {
                "verdict": self.verdict,
                "partial_sums": self.partial_sums[-REPORTED_SUMS:],
                "ratio_estimate": self.ratio_estimate,
                "terms_used": self.terms_used,
            }
        )


#: ratio test needs this many consecutive contracting term ratios
RATIO_RUN = 20
RATIO_MARGIN = 1e-3
#: lower-bound term ratios at or above this, 1 up to rounding, certify
#: divergence: a geometric series whose ratio is just under 1 converges
DIVERGENT_RATIO = 1.0 - 1e-12


def wiener_sum(alpha: float, spec: ShellSpec, s: IntervalSet) -> SeriesVerdict:
    """Wiener summation test sum_n lambda^{n(alpha-1)} C(B cap S_n).

    The per-shell capacity is bracketed by the isoperimetric lower bound
    (a set of measure m has at least the capacity of a ball of radius m/2)
    and the per-component subadditive upper bound.  `convergent` when the
    upper-bound terms contract geometrically over a sustained run;
    `divergent` when the last RATIO_RUN lower-bound terms do not decay
    (every ratio at least DIVERGENT_RATIO); `inconclusive` otherwise, as for
    upper-bound ratios in (1 - RATIO_MARGIN, 1).  The size of a partial sum
    certifies nothing: each lower-bound term is below C(B_1) < 1.  Shells
    that reach past the float range around the centre are a ValueError.

    Every shell is intersected with the target at once: each shell piece
    finds the target pieces it overlaps by bisecting their sorted ends and
    starts.  The upper terms are `interval_capacity_upper` of each
    intersection, to the bit: every power is Python's `**`, and each shell
    sums its overlaps in order.
    """
    _check_alpha(alpha)
    try:
        # bounds the outer radius lam^n_max and the weights up to lam^-n_min
        float(spec.lam) ** max(spec.n_max, 1 - spec.n_min)
    except OverflowError:
        raise ValueError(
            f"shell radii lam^n leave the float range for lam={spec.lam}, "
            f"n from {spec.n_min} to {spec.n_max}"
        ) from None
    if not math.isfinite(abs(spec.center) + spec.lam ** spec.n_max):
        raise ValueError(
            f"shells of radius up to lam^n_max around {spec.center} leave the float "
            f"range for lam={spec.lam}, n_max={spec.n_max}"
        )
    ns = range(spec.n_min, spec.n_max + 1)
    radii = np.array([spec.lam ** k for k in range(spec.n_min - 1, spec.n_max + 1)], dtype=float)
    z = float(spec.center)
    # shell n is [a, b) and [c, d); where rounding leaves no gap between
    # them (c <= b) it is the one piece [a, d)
    a, b, c, d = z - radii[1:], z - radii[:-1], z + radii[:-1], z + radii[1:]
    joined = c <= b
    # all left pieces, then all right ones: each shell's pieces stay in order
    lo = np.concatenate((a, np.where(joined, d, c)))
    hi = np.concatenate((np.where(joined, d, b), d))
    # the target pieces [p, q) with q > lo and p < hi; an empty piece meets
    # at most the one around it, in an overlap of width 0 that adds 0.0
    starts = np.array([p for p, _ in s.intervals], dtype=float)
    ends = np.array([q for _, q in s.intervals], dtype=float)
    first = np.searchsorted(ends, lo, side="right")
    count = np.searchsorted(starts, hi, side="left") - first
    piece = np.repeat(np.arange(len(lo)), count)
    target = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(piece))
    widths = np.minimum(ends[target], hi[piece]) - np.maximum(starts[target], lo[piece])
    c1 = ball_capacity(alpha, 1.0)
    caps = np.array([(w / 2.0) ** (1.0 - alpha) for w in widths.tolist()]) * c1
    # bincount adds each shell's overlaps in order, from 0.0
    shell_of = piece % len(ns)
    upper = np.bincount(shell_of, caps, minlength=len(ns))
    measure = np.bincount(shell_of, widths, minlength=len(ns)).tolist()
    lower_unit = c1 * 2.0 ** (alpha - 1.0)
    lower = np.array([lower_unit * m ** (1.0 - alpha) if m else 0.0 for m in measure])
    weights = np.array([spec.lam ** (n * (alpha - 1.0)) for n in ns])
    upper_terms, lower_terms = weights * upper, weights * lower

    out = SeriesVerdict(
        partial_sums=np.cumsum(upper_terms).tolist(),
        lower_partial_sums=np.cumsum(lower_terms).tolist(),
    )
    nz = upper_terms[upper_terms > 0.0]
    if not nz.size:
        out.verdict = "convergent"
        out.ratio_estimate = 0.0
        return out
    ratios = nz[1:] / nz[:-1]
    if ratios.size:
        out.ratio_estimate = float(np.median(ratios))

    # non-decaying positive lower-bound terms certify divergence
    lnz = lower_terms[lower_terms > 0.0]
    lratios = lnz[1:] / lnz[:-1]
    if lratios.size >= RATIO_RUN and np.all(lratios[-RATIO_RUN:] >= DIVERGENT_RATIO):
        out.verdict = "divergent"
        return out
    # a sustained contracting run plus an overall decayed tail certifies
    # convergence; the very last ratios may wobble once interval widths
    # quantize to ulps of the shell scale
    if _best_run(ratios.tolist()) >= RATIO_RUN and nz[-1] <= nz[0]:
        out.verdict = "convergent"
        return out
    out.verdict = "inconclusive"
    return out


def _best_run(ratios) -> int:
    """Longest streak of consecutive ratios at or below 1 - RATIO_MARGIN."""
    best = cur = 0
    for r in ratios:
        cur = cur + 1 if r <= 1.0 - RATIO_MARGIN else 0
        best = max(best, cur)
    return best


@functools.cache
def build_example_set(n_max: int) -> IntervalSet:
    """Union of the intervals [2^n - 2^((n-1)/3), 2^n) for n = 1..n_max:
    shrinking (relative to scale) blocks drifting to infinity, avoidable for
    every alpha in (0,1) yet of infinite potential for alpha > 2/3.

    The set is frozen and built once per n_max, of which `_check_n_max`
    admits 1023; an n_max it refuses raises on every call."""
    _check_n_max(n_max)
    pieces = ((2.0 ** n - 2.0 ** ((n - 1) / 3.0), 2.0 ** n) for n in range(1, n_max + 1))
    # from n = 81 on rounding leaves them empty, and the constructor drops them
    return IntervalSet(tuple(pieces))


def example_set_potential_partial_sums(alpha: float, n_max: int):
    """Exact partial sums of the potential of the example set seen from 0,
    sum_n (2^{n a} - (2^n - 2^{(n-1)/3})^a) / a, together with a geometric
    tail bound.  Divergent for alpha > 2/3, convergent below."""
    _check_alpha(alpha)
    _check_n_max(n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    # 2^{n a}(1 - (1 - w/2^n)^a)/a with w = 2^{(n-1)/3}, via expm1/log1p to
    # dodge catastrophic cancellation once w/2^n nears machine epsilon
    ratio_w = 2.0 ** ((n - 1.0) / 3.0 - n)
    terms = 2.0 ** (n * alpha) * (-np.expm1(alpha * np.log1p(-ratio_w))) / alpha
    sums = np.cumsum(terms)
    ratio = 2.0 ** (alpha - 2.0 / 3.0)
    tail = math.inf if ratio >= 1.0 else float(terms[-1] * ratio / (1.0 - ratio))
    return sums, tail


def _check_n_max(n_max: int) -> None:
    if not 1 <= n_max < 1024:
        raise ValueError(f"n_max must lie in [1, 1024), where 2^n stays finite, got {n_max}")


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
