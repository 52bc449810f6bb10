"""Singularity-aware evaluation of kernel integrals int f(y)|z-y|^(alpha-1) dy,
the monotone-pole small-time test, the closed-form power-law test, the exact
chance of ever hitting a finite union of intervals, and the construction of
the irregular set O and zero set N for structured sigma.  N, the candidate
points of O and the pole test's monotone hypothesis are all read from
sigma's pieces, through `FunctionSpec.zero_points`, `zero_intervals`,
`pole_points` and `monotone_radius`; no declared mark enters a verdict.

Finiteness is always decided from local exponents, by one rule, `_divergence`,
before any quadrature runs; `kernel_integral`, the clock's pole cell and the
tail test read it.  The tail test reads only its half at -inf and +inf,
`_grows_at`: for alpha < 1 a point is polar, and X, symmetric and
quasi-left-continuous, does not reach it through its left limits either, so
a path from z != p stays away from p over any bounded time.  Quadrature only
produces values of convergent integrals.  It is split at the singular points,
and on each finite cell the singular factors anchored at the cell's ends are
quad's algebraic endpoint weights (QUADPACK's QAWS); cells with an infinite
end use plain quad.  Every quadrature aims at the absolute tolerance QUAD_TOL.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import solve
from scipy.special import betainc, betaln

from .funcspec import INF, FunctionSpec, FunctionSpecError, PowerForm, TableForm
from .intervals import IntervalSet, _check_alpha

#: absolute tolerance of every kernel quadrature
QUAD_TOL = 1e-9
#: a finite cell whose far end is more than CUT_RATIO times as far from an
#: anchor outside it as its near end is cut at that distance times powers of
#: CUT_RATIO: QUADPACK places a node to about 2^-53 of its cell's width, so
#: on wider cells a node could land on the anchor
CUT_RATIO = 2.0**32
#: cosine-graded cells per interval of an equilibrium solve, and the most
#: cells one solve takes: its matrix holds the square of that many floats
EQ_CELLS = 40
EQ_MAX_CELLS = 4096
#: the smallest normal float, below which a hitting chance takes its leading term
_FLOAT_TINY = np.finfo(float).tiny


@dataclass
class TestVerdict:
    finiteness: str  # finite | infinite | inconclusive
    value_or_bound: float
    abs_error_estimate: float = 0.0
    method: str = ""

    def __post_init__(self):
        if self.finiteness == "finite" and not math.isfinite(self.value_or_bound):
            raise ValueError("finite verdict with non-finite value")

    def to_json(self) -> str:
        return json.dumps(
            {
                "finiteness": self.finiteness,
                "value": self.value_or_bound,
                "abs_error": self.abs_error_estimate,
                "method": self.method,
            }
        )


def _require_cover(what: str, pieces, window=((-INF, INF),)) -> None:
    """The one coverage rule: FunctionSpecError, saying `what` and naming
    each part of the window's intervals that no piece covers.  That part
    has no value; it is not read as 0."""
    gaps = []
    for a, b in window:
        # a, lo, hi, ..., b over the pieces clipped to [a, b]: gaps pair up
        ends = [a, *(x for pc in pieces if pc.lo < b and a < pc.hi
                     for x in (max(a, pc.lo), min(b, pc.hi))), b]
        gaps += [(x, y) for x, y in zip(ends[::2], ends[1::2]) if x < y]
    if gaps:
        raise FunctionSpecError(
            f"{what}; its pieces leave "
            + " and ".join(f"[{a}, {b})" for a, b in gaps) + " uncovered"
        )


def _anchored_power_integral(cp: float, k: float, s: float, a: float, b: float) -> float:
    """int_a^b cp*|y-s|^k dy for a < b, an integral `_divergence` has found
    finite; +inf when its value leaves the float range."""

    def side(lo: float, hi: float) -> float:
        # integral of d^k over d in [lo, hi], 0 <= lo <= hi <= inf
        if k == -1.0:
            return math.log(hi) - math.log(lo)
        try:
            return (hi ** (k + 1.0) - lo ** (k + 1.0)) / (k + 1.0)
        except OverflowError:
            return INF

    if a < s < b:
        return cp * (side(0.0, s - a) + side(0.0, b - s))
    return cp * (side(a - s, b - s) if s <= a else side(s - b, s - a))


def _divergence(alpha: float, z: float, form, lo: float, hi: float) -> str:
    """The one divergence rule: how int_lo^hi form(y)|z-y|^(alpha-1) dy
    diverges, or "" when it is finite: an "infinite piece" (c = +inf), the
    "exponent criterion" (c > 0, and at p in [lo, hi] the exponent, e + alpha
    - 1 if p is z and e if not, is at most -1) or the "tail criterion"."""
    if isinstance(form, PowerForm):
        if form.c == INF:
            return "infinite piece"
        k = form.e + alpha - 1.0 if form.p == z else form.e
        if form.c > 0.0 and lo <= form.p <= hi and k <= -1.0:
            return "exponent criterion"
    return "tail criterion" if _grows_at(alpha, form, lo) or _grows_at(alpha, form, hi) else ""


def _grows_at(alpha: float, form, end: float) -> bool:
    """Whether form(y)|y|^(alpha-1) fails to be integrable towards `end`, if
    infinite: a power when c = +inf, or c > 0 and e >= -alpha; a table when
    the end value np.interp holds beyond the nodes (first or last) is > 0."""
    if isinstance(form, TableForm):
        return math.isinf(end) and (form.ys[0] if end < 0.0 else form.ys[-1]) > 0.0
    return math.isinf(end) and form.c > 0.0 and (form.c == INF or form.e >= -alpha)


def _quad_with_breaks(fn, lo: float, hi: float, singular):
    """int_lo^hi fn(y) prod |y - anchor|^exponent dy over the (anchor,
    exponent) factors in `singular`, split at the anchors inside (lo, hi);
    returns (value, err, converged).  A factor or a value that leaves the
    float range stops it, unconverged with value and err inf.

    On a finite cell, the factors anchored at its ends are quad's algebraic
    endpoint weight (QUADPACK's QAWS, weight="alg", wvar=(s, t)), so no
    extrapolation into them is needed; the other factors multiply fn.  A
    cell with an infinite end, or with no anchored end, gets plain quad.
    """
    pts = sorted({lo, hi, *(x for x, _ in singular if lo < x < hi)})
    pts = sorted({*pts, *(c for a, b in zip(pts, pts[1:]) for c in _far_cuts(a, b, singular))})
    opts = dict(limit=300, epsabs=QUAD_TOL / max(1, len(pts)), epsrel=1e-10)
    total = err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(pts, pts[1:]):
            finite = math.isfinite(a) and math.isfinite(b)
            s = t = 0.0
            rest = []
            for x, k in singular:
                if finite and x == a:
                    s += k
                elif finite and x == b:
                    t += k
                else:
                    rest.append((x, k))
            weight = dict(weight="alg", wvar=(s, t)) if len(rest) < len(singular) else {}
            try:
                v, e = quad(_times(fn, rest), a, b, **weight, **opts)
            except (ZeroDivisionError, OverflowError):
                # a positive power of a width near 1e300 overflows
                v = e = INF
            total += v
            err += e
            # quad gives NaN once the integrand overflows
            if not math.isfinite(total):
                return INF, INF, False
    return total, err, err <= max(QUAD_TOL, 1e-8 * abs(total) + 1e-300) * 10.0


def _far_cuts(a: float, b: float, singular) -> list[float]:
    """Points of the finite cell (a, b) at distance d * CUT_RATIO^j from each
    anchor outside it, for d the anchor's distance to the cell and j >= 1, so
    no piece between them is more than CUT_RATIO times as far from the
    anchor at one end as at the other."""
    cuts = []
    if not (math.isfinite(a) and math.isfinite(b)):
        return cuts
    for x, _ in singular:
        near, far = sorted((abs(a - x), abs(b - x)))
        d = near * CUT_RATIO
        while 0.0 < d < far:
            cuts.append(x + d if x <= a else x - d)
            d *= CUT_RATIO
    return cuts


def _times(fn, factors):
    """y -> fn(y) prod |y - anchor|^exponent over `factors`."""
    if not factors:
        return fn

    def g(y):
        v = fn(y)
        for x, k in factors:
            v *= abs(y - x) ** k
        return v

    return g


def kernel_integral(alpha: float, z: float, f: FunctionSpec, domain: IntervalSet) -> TestVerdict:
    """Evaluate int_domain f(y)|z-y|^(alpha-1) dy.

    `_divergence` reads every overlap of the domain with a piece first, and
    the first one that diverges decides.  Only then are power pieces
    anchored at z (and pieces constant in y) integrated in closed form, and
    the rest by adaptive quadrature split at the kernel singularity and at
    pole anchors: on a finite cell, |y - z|^(alpha-1) and |y - p|^e anchored
    at the cell's ends are quad's algebraic endpoint weights, and a cell
    with an infinite end uses plain quad.
    """
    _check_alpha(alpha)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    # (domain interval, piece) order fixes the order of the sum
    overlaps = [(lo, hi, pc.form) for a, b in domain.intervals for pc in f.pieces
                for lo, hi in [(max(a, pc.lo), min(b, pc.hi))] if lo < hi]
    _require_cover("f must cover the domain", f.pieces, domain.intervals)
    for lo, hi, form in overlaps:
        method = _divergence(alpha, z, form, lo, hi)
        if method:
            return TestVerdict("infinite", INF, method=method)
    total = 0.0
    err = 0.0
    methods = set()
    for lo, hi, form in overlaps:
        # the kernel's factor stays first, which fixes the product order
        singular = [(z, alpha - 1.0)]
        if isinstance(form, TableForm):
            fn = lambda y, g=form: float(np.interp(y, g.xs, g.ys))
        else:
            c, e_, p = form.c, form.e, form.p
            if c == 0.0:
                continue
            if e_ == 0.0 or p == z:
                k = (alpha - 1.0) if e_ == 0.0 else (e_ + alpha - 1.0)
                total += _anchored_power_integral(c, k, z, lo, hi)
                methods.add("closed-form")
                continue
            fn = lambda y, c=c: c
            singular.append((p, e_))
        v, e, ok = _quad_with_breaks(fn, lo, hi, singular)
        if not ok:
            return TestVerdict("inconclusive", v, e, "quadrature stalled")
        total += v
        err += e
        methods.add("quadrature")
    if not math.isfinite(total):
        return TestVerdict("inconclusive", INF, INF, "value beyond the float range")
    return TestVerdict("finite", total, err, "+".join(sorted(methods)) or "empty")


def green_constant(alpha: float) -> float:
    """C_alpha = Gamma(1 - alpha) sin(pi alpha/2)/pi: the Green function of
    the symmetric alpha-stable process is C_alpha |x - y|^(alpha-1)."""
    _check_alpha(alpha)
    return math.gamma(1.0 - alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


def hitting_probability(alpha: float, z: float, target) -> float:
    """P_z(the symmetric alpha-stable process ever hits target), exactly
    (`_union_chance`): target is an IntervalSet, or a pair (a, b) for the
    closed interval [a, b]."""
    _check_alpha(alpha)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if not isinstance(target, IntervalSet):
        a, b = (float(v) for v in target)
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"need a finite interval a < b, got {target}")
        target = IntervalSet.of((a, b))
    return float(_union_chance(alpha, target.intervals, z))


def _hitting_chance(alpha: float, x, a: float, b: float) -> np.ndarray:
    """P_x(hit [a, b]) for x (scalar or array): 1 on [a, b], and outside it
    Blumenthal, Getoor & Ray's (1961) closed form I_t((1 - alpha)/2,
    alpha/2), the regularised incomplete beta function at
    t = r^2/(x - c)^2, with c the centre and r the half-width.  Where t is
    below the smallest normal float, the leading term t^p / (p B(p, q)) of
    I_t(p, q), exact to rounding there, is taken from
    log t = 2 log(r/|x - c|)."""
    p, q = (1.0 - alpha) / 2.0, alpha / 2.0
    c, r = (a + b) / 2.0, (b - a) / 2.0
    # on [a, b] the distance is r, so t = 1 and I_1 = 1, even where c rounds
    dist = np.where((a <= x) & (x <= b), r, np.maximum(np.abs(x - c), r))
    t = (r / dist) ** 2
    lead = np.exp(2.0 * p * (math.log(r) - np.log(dist)) - math.log(p) - betaln(p, q))
    return np.where(t < _FLOAT_TINY, lead, betainc(p, q, t))


def _union_chance(alpha: float, pieces, x) -> np.ndarray:
    """P_x(X ever hits the union of the normalised `pieces`), x a scalar or
    an array: 0 without a piece, 1 with an unbounded one (X oscillates),
    `_hitting_chance` for one, else the potential of the `_equilibrium`
    measure, EQ_MAX_CELLS points at a time, and 1 on each closed piece."""
    x = np.asarray(x, dtype=float)
    if not pieces or any(b - a == INF for a, b in pieces):
        return np.full(x.shape, float(bool(pieces)))
    if len(pieces) == 1:
        return _hitting_chance(alpha, x, *pieces[0])
    ends, lo, w, density = _equilibrium(alpha, pieces)
    chance, flat = np.empty(x.shape), x.reshape(-1)
    for i in range(0, x.size, EQ_MAX_CELLS):
        d = np.subtract.outer(flat[i:i + EQ_MAX_CELLS], ends)
        chance.flat[i:i + EQ_MAX_CELLS] = _cell_potentials(alpha, d, lo, w) @ density
    return np.where(IntervalSet(pieces).distance_to(x) == 0.0, 1.0, np.clip(chance, 0.0, 1.0))


def _check_union(pieces) -> None:
    """ValueError for more intervals than one equilibrium solve takes."""
    if len(pieces) * EQ_CELLS > EQ_MAX_CELLS:
        raise ValueError(f"at most {EQ_MAX_CELLS // EQ_CELLS} intervals, got {len(pieces)}")


@lru_cache(maxsize=64)
def _equilibrium(alpha: float, pieces: tuple) -> tuple:
    """The equilibrium measure of bounded `pieces` (Blumenthal & Getoor 1968;
    Landkof 1972), constant on EQ_CELLS cosine-graded cells of each, with
    potential 1 at every cell's midpoint: per cell its piece's right end,
    its left end as an offset from that (which keeps apart the cells of
    pieces near 2^70), its width, and its density times C_alpha/alpha."""
    _check_union(pieces)
    grade = (1.0 + np.cos(np.pi * np.arange(EQ_CELLS + 1) / EQ_CELLS)) / 2.0
    offsets = -np.array([b - a for a, b in pieces])[:, None] * grade
    lo, hi = offsets[:, :-1].ravel(), offsets[:, 1:].ravel()
    ends, w = np.repeat([b for _, b in pieces], EQ_CELLS), hi - lo
    gram = np.subtract.outer(ends, ends)
    gram = _cell_potentials(alpha, np.add(gram, ((lo + hi) / 2.0)[:, None], out=gram), lo, w)
    # at its own midpoint a cell's potential is the sum of two equal powers
    np.fill_diagonal(gram, 2.0 * (w / 2.0) ** alpha)
    # the transpose is Fortran-ordered, so LAPACK factors it in place
    return ends, lo, w, solve(gram.T, np.ones(w.size), transposed=True, overwrite_a=True,
                              check_finite=False)


def _cell_potentials(alpha: float, d: np.ndarray, lo: np.ndarray, w: np.ndarray) -> np.ndarray:
    """alpha int |x - y|^(alpha-1) dy over cells (columns) for points x
    (rows), in place on d, x less the right end of each cell's piece, with
    lo the cells' left ends as offsets from that and w their widths:
    D^alpha - (D - w)^alpha, D the distance to the far end, taken as
    -D^alpha expm1(alpha log1p(-w/D)) since the plain difference cancels to
    0 beyond about 1e12, and 0 at D = inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d -= lo + w / 2.0
        d = np.add(np.abs(d, out=d), w / 2.0, out=d)
        # a point inside a cell reads only the far end's power
        ratio = np.log1p(-np.minimum(w / d, 1.0))
        d **= alpha
        d *= np.expm1(np.multiply(ratio, alpha, out=ratio), out=ratio)
        return np.nan_to_num(np.negative(d, out=d), copy=False, nan=0.0)


def monotone_pole_test(alpha: float, z: float, f: FunctionSpec, epsilon: float) -> TestVerdict:
    """Small-time finiteness test at a point z where f's pieces make it
    monotone on each side (an isolated pole, say): finite iff
    int_{z-eps}^{z+eps} f(y)|z-y|^(alpha-1) dy < inf, for eps up to
    `f.monotone_radius(z)`.  A finite verdict certifies almost-sure
    small-time finiteness of the path integral from z; an infinite verdict
    puts z among the irregular points.  Where the pieces do not give the
    hypothesis, FunctionSpecError names z."""
    _check_alpha(alpha)
    radius = f.monotone_radius(z)
    if radius == 0.0:
        raise FunctionSpecError(
            f"the pieces do not make f monotone on each side of z={z}, "
            "which the monotone pole test needs"
        )
    if not 0.0 < epsilon <= radius:
        raise ValueError(
            f"epsilon must be positive and at most {radius}, the monotone radius at z={z}"
        )
    return kernel_integral(alpha, z, f, IntervalSet.of((z - epsilon, z + epsilon)))


def power_law_test(alpha: float, beta: float) -> TestVerdict:
    """Closed form for sigma = |y|^beta at z = 0: the local kernel integral
    int |y|^(alpha(1-beta)-1) dy is finite iff beta < 1, with value
    2 eps^(alpha(1-beta)) / (alpha(1-beta)) at radius eps = 1.  The boundary
    beta = 1 diverges logarithmically."""
    _check_alpha(alpha)
    if not 0.0 <= beta < INF:
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")
    expo = alpha * (1.0 - beta)
    if expo <= 0.0:
        return TestVerdict("infinite", INF, method="closed-form")
    return TestVerdict("finite", 2.0 / expo, 0.0, "closed-form")


@dataclass(frozen=True)
class PointedSet:
    """A finite set of points together with an interval set; the natural
    codomain of the irregular-set and zero-set constructions."""

    points: tuple[float, ...] = ()
    intervals: IntervalSet = IntervalSet.empty()

    def __post_init__(self):
        pts = tuple(sorted({p for p in self.points if not self.intervals.contains(p)}))
        object.__setattr__(self, "points", pts)

    def is_empty(self) -> bool:
        return not self.points and self.intervals.is_empty()

    def contains(self, x: float) -> bool:
        return x in self.points or bool(self.intervals.contains(x))

    def issubset(self, other: "PointedSet") -> bool:
        if any(not other.contains(p) for p in self.points):
            return False
        return self.intervals.intersection(
            other.intervals
        ).measure() == self.intervals.measure()

    def to_json(self) -> str:
        return json.dumps(
            {"points": list(self.points), "intervals": [list(i) for i in self.intervals.intervals]}
        )


def zero_set(sigma: FunctionSpec) -> PointedSet:
    """Where sigma's pieces vanish: the anchors of its power pieces with
    e > 0 (`zero_points`) and its c = 0 pieces (`zero_intervals`)."""
    return PointedSet(sigma.zero_points(), sigma.zero_intervals())


def irregular_set(alpha: float, sigma: FunctionSpec) -> PointedSet:
    """Points from which the time-change integral is instantly infinite.

    The candidate points are the poles of f = sigma^(-alpha), the same
    `pole_points` the clock reads.  Where the pieces make f monotone on each
    side of one, the thin set drops out of the integral test, so membership
    reduces to the monotone-pole test at radius min(1, `monotone_radius`);
    where they do not, the test refuses the point.  Zeros of sigma on
    nondegenerate intervals are included wholesale (f = +inf on a set of
    positive measure and positive potential).
    """
    _check_alpha(alpha)
    f = sigma.inverse_power(alpha)
    pts = tuple(
        p for p in f.pole_points()
        if monotone_pole_test(alpha, p, f, min(1.0, f.monotone_radius(p))).finiteness == "infinite"
    )
    return PointedSet(pts, sigma.zero_intervals())


@lru_cache(maxsize=256)
def tail_kernel_finiteness(alpha: float, f: FunctionSpec) -> str:
    """Finiteness of int f(y)|y|^(alpha-1) dy at -inf and +inf, the test for
    the clock of a transient path running out at infinity: `infinite` when
    the first or last piece grows at the infinite end it reaches (it rules
    explosion out), else `finite` (an escaped path's clock runs out).  Poles,
    being polar, and bounded intervals where f is +inf, where a path that
    hits one freezes, do not count.  An f whose pieces leave part of the
    line uncovered is refused."""
    _require_cover("f must cover the whole line", f.pieces)
    grows = any(_grows_at(alpha, pc.form, end)
                for pc in f.pieces[:1] + f.pieces[-1:] for end in (pc.lo, pc.hi))
    return "infinite" if grows else "finite"
