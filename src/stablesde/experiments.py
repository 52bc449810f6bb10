"""Monte Carlo estimation harness: reproducible configs, one RNG stream per
chunk of replicates, Wilson intervals, and CSV reporting.

Replicates run on one thread.  A run numbers its replicates z-major (all
of the first z's, then all of the next one's) and cuts them into chunks,
so a chunk may span two z; chunk c draws from the counter-based stream
keyed by (seed, c), and the chunk size depends on the config alone, so
results do too.  `ESTIMATORS` is the one table of estimators: it names
each one's block rule and whether it reads the clock of sigma^-alpha along
drivers that are never killed.  `_path_codes` samples a chunk's paths
together (`stable.sample_block`, one start per row) and hands the block to
the rule, which decides hitting, finiteness, freezing, explosion or
small-time on the whole block from its cell arrays (`PathBlock.cells`) by
the alpha-aware `functionals._contributions`, which only the single-path
public functions of `functionals` forgo.  Every rule but small-time reads the one
verdict `functionals._clock_rows`, which completes a row alive at the
horizon (so `freeze_prob` is the chance of ever freezing); killed hitting
is its freeze verdict on f = +inf on the target and 0 off it.

Hitting without killing samples no path: `_walk_codes` moves a chunk of
WALK_CHUNK walkers by exact jumps, whatever their starts, and finishes each
one far from a bounded target by a uniform against its exact chance of
ever hitting it (`integrals._union_chance`).  The `threads` arguments are kept for
compatibility and have no effect.  Undetermined replicates are excluded
from the point estimate but reported as a fraction.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .funcspec import FunctionSpec, parse_inline
from .functionals import DEFAULT_M, Thresholds, _clock_rows, _contributions
from .integrals import _check_union, _union_chance
from .intervals import IntervalSet, _check_alpha
from .stable import KillingSpec, PathBlock, StableParams, grid_cells, sample_block, stream_rng

#: the hitting walk: walkers per chunk (one stream each), and the exits after
#: which a walker still alive is undetermined
WALK_CHUNK = 1 << 14
WALK_STEPS = 100_000
#: a walker further than this many hull lengths from a bounded target is
#: finished by one uniform against its exact hitting chance
WALK_FINISH = 1e3


@dataclass(frozen=True)
class ExperimentConfig:
    """One estimator run.  f_or_sigma is read as the coefficient sigma by the
    freeze/explosion estimators and as the integrand f by the others.
    hitting_prob without killing reads neither horizon nor step: its
    walkers keep no time; with killing it is a path entering the target
    before it is killed, read from the clock as freezing is.  The clocked
    estimators, freeze_prob and explosion_prob, refuse killing, and every
    estimator but hitting_prob refuses a target.  freeze_prob is the
    chance of ever freezing: a row not frozen by the horizon is completed
    from its last value.  A target, or intervals where the integrand is
    +inf, too many for one equilibrium solve are refused.  The escape
    radius thresholds.R is validated but has no effect."""

    alpha: float
    f_or_sigma: FunctionSpec
    z: tuple[float, ...]
    replicates: int
    horizon: float
    step: float
    estimator: str
    seed: int = 0
    thresholds: Thresholds = Thresholds()
    killing: KillingSpec | None = None
    target: IntervalSet | None = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        grid_cells(self.horizon, self.step)  # refuses a bad horizon or step
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == "hitting_prob" and self.target is None:
            raise ValueError("hitting_prob requires a target set")
        if self.estimator != "hitting_prob" and self.target is not None:
            raise ValueError(f"{self.estimator} reads no target; drop target")
        if self.killing is not None and ESTIMATORS[self.estimator][1]:
            raise ValueError(f"{self.estimator} clocks drivers that are never killed; drop killing")
        zs = self.z if isinstance(self.z, (tuple, list)) else (self.z,)
        zs = tuple(float(v) for v in zs)
        if not zs:
            raise ValueError("z must name at least one starting point")
        if not all(math.isfinite(v) for v in zs):
            raise ValueError(f"starting points must be finite, got {zs}")
        object.__setattr__(self, "z", zs)
        # the target, or the intervals where the integrand is +inf: those
        # whose hitting chance a run may solve for.  sigma^-alpha is the
        # memoised spec the run reads, so a sigma that cannot be inverted
        # is refused before any output
        f = self.f_or_sigma
        if ESTIMATORS[self.estimator][1]:
            f = f.inverse_power(self.alpha)
        union = self.target if self.target is not None else f.infinite_intervals()
        _check_union(union.intervals)

    @classmethod
    def from_json(cls, text: str, seed: int = 0) -> "ExperimentConfig":
        """Config from a JSON object; seed is used when it names none.  A
        malformed document raises ValueError."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("an experiment config must be a JSON object")
        missing = [key for key in _REQUIRED_KEYS if key not in doc]
        if missing:
            raise ValueError(f"experiment config lacks {', '.join(missing)}")
        th = doc.get("thresholds", {})
        kill = doc.get("killing")
        if not isinstance(th, dict) or not (kill is None or isinstance(kill, dict)):
            raise ValueError("thresholds and killing must be JSON objects")
        fs = doc["f_or_sigma"]
        func = parse_inline(fs) if isinstance(fs, str) else FunctionSpec.from_json(json.dumps(fs))
        r = th.get("R")
        tgt = doc.get("target")
        return cls(
            alpha=_number(doc["alpha"], "alpha"),
            f_or_sigma=func,
            z=[_number(v, "z") for v in (doc["z"] if isinstance(doc["z"], list) else [doc["z"]])],
            replicates=_whole(doc["replicates"], "replicates"),
            horizon=_number(doc["horizon"], "horizon"),
            step=_number(doc["step"], "step"),
            estimator=doc["estimator"],
            seed=_whole(doc.get("seed", seed), "seed"),
            thresholds=Thresholds(
                m=_number(th.get("M", DEFAULT_M), "thresholds.M"),
                r=None if r is None else _number(r, "thresholds.R"),
            ),
            killing=None if kill is None else KillingSpec(_number(kill.get("q"), "killing.q")),
            target=None if tgt is None else IntervalSet.from_json(json.dumps(tgt)),
        )


_REQUIRED_KEYS = ("alpha", "f_or_sigma", "z", "replicates", "horizon", "step", "estimator")


def _number(value, name: str) -> float:
    """A JSON number as a float; strings, booleans and null are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _whole(value, name: str) -> int:
    """A JSON number with no fractional part as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return value


@dataclass(frozen=True)
class Estimate:
    """The counts of one estimate: of n replicates run from seed, `resolved`
    were decided and `yes` of those said yes.  The point estimate, its
    Wilson interval and the undetermined fraction are read from them."""

    yes: int
    resolved: int
    n: int
    seed: int

    @property
    def point(self) -> float:
        return self.yes / self.resolved if self.resolved else 0.0

    @property
    def ci95(self) -> tuple[float, float]:
        return wilson_ci(self.yes, self.resolved)

    @property
    def undetermined_fraction(self) -> float:
        return (self.n - self.resolved) / self.n if self.resolved else 1.0


#: the standard normal quantile of a two-sided 95% interval
Z95 = 1.9599639845400545


def wilson_ci(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval; unanimous outcomes degenerate to a point
    (the sampling says nothing about sub-resolution failure rates)."""
    z = Z95
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n == 0:
        return (0.0, 1.0)
    if k == 0:
        return (0.0, 0.0)
    if k == n:
        return (1.0, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _estimate_from_codes(codes: np.ndarray, seed: int) -> Estimate:
    yes, resolved = np.count_nonzero(codes == 1), np.count_nonzero(codes >= 0)
    return Estimate(int(yes), int(resolved), len(codes), seed)


# -- block rules: one code per row, 1 yes / 0 no / -1 undetermined ---------
# f is the integrand `_run_replicates` builds; rng, the chunk's generator
# after the block's draws, completes rows alive at H


def _clock_codes(cfg: ExperimentConfig, f: FunctionSpec, block: PathBlock, rng=None):
    """The freeze code of `_clock_rows` for freeze_prob and hitting_prob
    (whose f is +inf on the target, so a row hits where it freezes) and its
    explode code otherwise; rows alive at the horizon are completed from
    their last node with uniforms from rng (a killed block says which rows
    are alive)."""
    values, dwell = block.cells()
    alive = None if cfg.killing is None else block.killed_at > cfg.horizon
    _, _, _, freezes, explodes = _clock_rows(
        values, dwell, block.values[:, -1], f, cfg.alpha, cfg.thresholds, rng, alive
    )
    return freezes if cfg.estimator in ("freeze_prob", "hitting_prob") else explodes


def _smalltime_codes(cfg: ExperimentConfig, f: FunctionSpec, block: PathBlock, rng=None):
    """Whether the first cell's contribution stays below M.  The first cell
    is occupied unless the path is killed at time 0, which leaves it
    undetermined."""
    values, dwell = block.cells(1)
    first = _contributions(values, dwell, f, cfg.alpha)[:, 0]
    return np.where(dwell[:, 0] > 0.0, first < cfg.thresholds.m, -1).astype(np.int8)


#: each estimator's block rule, and whether it reads the clock of
#: sigma^-alpha along drivers that are never killed; hitting without
#: killing bypasses the blocks for the walk
ESTIMATORS = {
    "finiteness_prob": (_clock_codes, False),
    "hitting_prob": (_clock_codes, False),
    "freeze_prob": (_clock_codes, True),
    "explosion_prob": (_clock_codes, True),
    "smalltime_finiteness": (_smalltime_codes, False),
}

#: path cells sampled per block of replicates (32 paths of 1000 cells), which
#: keeps the block's arrays near 2 MB
BLOCK_CELLS = 1 << 15


def _walk_codes(cfg: ExperimentConfig, starts: np.ndarray, rng) -> np.ndarray:
    """Hit (1), miss (0) or undetermined (-1) of a walker from each of
    starts towards the target of an unkilled process, drawing from rng.

    A walker at distance d > 0 left of the target's hull [first, last]
    jumps to where the process first passes first: it lands at
    first + d (1 - B) / B, B ~ Beta(alpha/2, 1 - alpha/2), the overshoot law
    of Rogozin (1972); a walker right of last lands at last - d (1 - B) / B.
    By the strong Markov property this is exact, as the process reaches no
    piece before it crosses the hull's near end, and it crosses by a jump.
    A walker inside the hull (in a gap of a union) leaves the ball
    (x - d, x + d) at x +- d / sqrt(B) with a fair sign instead: the exit law
    of Blumenthal, Getoor & Ray (1961).  It hits on landing in the target
    (or on its boundary).  When the target is bounded, a walker more than
    WALK_FINISH * (last - first) away is finished: by the strong Markov
    property it hits with `_union_chance`, and one uniform drawn against
    that chance decides it exactly.  The empty target misses every walker
    without a draw.  A walker still alive after WALK_STEPS exits, or at an
    infinite distance from an unbounded target, is undetermined.

    The walkers move in lockstep, whatever their start: at one exit rng
    draws a uniform per walker finished, a beta variate B per walker alive,
    then a sign uniform per walker in a gap, so a single interval draws no
    signs.  On one bounded interval an exit takes the distance in closed
    form, max(first - x, x - last), which is negative inside, and lands
    every walker with one select between first + over and last - over.  On
    a union or an unbounded target it takes `distance_to` and lands each
    walker at its near end, the clip of x to the hull, plus the overshoot
    signed towards the target; a walker in a gap clips to itself and is
    then moved by its ball exit.  Neither form adds an infinite overshoot to
    an infinite end, so no inf - inf is formed.  The finished walkers are
    decided together after the last exit.
    The equilibrium measure is positive, so on each side of the hull the
    chance of the nearest one bounds every other's: a uniform at or above
    it, raised by 1e-9 of itself for rounding, is a miss, and only the rest
    get their own chance.
    The walk keeps no time, which is why killing cannot use it: the exit
    time and exit position of a ball have no explicit joint law.
    """
    a, pieces = cfg.alpha / 2.0, cfg.target.intervals
    n = len(starts)
    if not pieces:
        return np.zeros(n, dtype=np.int8)
    first, last = pieces[0][0], pieces[-1][1]
    one = len(pieces) == 1 and math.isfinite(first) and math.isfinite(last)
    # inf for an unbounded target, which finishes no walker
    finish = WALK_FINISH * (last - first)
    codes = np.full(n, -1, dtype=np.int8)
    # where each finished walker stopped and its uniform; NaN for the others
    stopped, coin = np.full(n, math.nan), np.full(n, math.nan)
    live, x = np.arange(n), np.array(starts, float)
    # a beta variate that underflows to 0 (alpha near 0) sends its walker to
    # +-inf, where it is finished
    with np.errstate(over="ignore", divide="ignore"):
        for step in range(WALK_STEPS + 1):
            # on one bounded interval: distance_to before its clip at 0
            d = np.maximum(first - x, x - last) if one else cfg.target.distance_to(x)
            hit, done = d <= 0.0, d > finish
            codes[live[hit]] = 1
            if done.any():
                at = live[done]
                stopped[at] = x[done]
                coin[at] = rng.random(np.count_nonzero(done))
            going = ~(hit | done)
            if finish == math.inf:
                # finished by no coin, a walker at infinite distance is undetermined
                going &= d < math.inf
            live, x, d = live[going], x[going], d[going]
            if not live.size or step == WALK_STEPS:
                break
            b = rng.beta(a, 1.0 - a, live.size)
            over = d * (1.0 - b) / b
            if one:
                x = np.where(x < first, first + over, last - over)
            else:
                end = np.maximum(np.minimum(x, last), first)
                land = end + np.copysign(over, first - x)
                gap = end == x
                if gap.any():
                    # down when the uniform is below 1/2
                    sign = rng.random(np.count_nonzero(gap)) - 0.5
                    land[gap] = x[gap] + np.copysign(d[gap] / np.sqrt(b[gap]), sign)
                x = land
    done = np.flatnonzero(~np.isnan(coin))
    if done.size:
        at, left = stopped[done], stopped[done] < first
        near = [np.max(at[left], initial=-math.inf), np.min(at[~left], initial=math.inf)]
        bound = _union_chance(cfg.alpha, pieces, np.array(near))
        codes[done] = 0
        low = done[coin[done] < np.where(left, bound[0], bound[1]) * (1.0 + 1e-9)]
        codes[low] = coin[low] < _union_chance(cfg.alpha, pieces, stopped[low])
    return codes


def _path_codes(cfg: ExperimentConfig, f: FunctionSpec, starts: np.ndarray, rng) -> np.ndarray:
    """Codes of a path from each of starts, sampled as one block and decided
    on the integrand f by the estimator's block rule."""
    block = sample_block(
        StableParams(cfg.alpha), starts[:, None], cfg.horizon, cfg.step, rng,
        killing=cfg.killing, rows=len(starts),
    )
    return ESTIMATORS[cfg.estimator][0](cfg, f, block, rng)


def _run_replicates(cfg: ExperimentConfig) -> np.ndarray:
    """Codes of every replicate, one row per z.  The replicates are numbered
    z-major (all of the first z's, then all of the next one's) and cut into
    chunks of WALK_CHUNK walkers for unkilled hitting, else of BLOCK_CELLS //
    grid_cells paths, so a chunk may span two z; chunk c draws from
    stream_rng(seed, c).  The blocks share one integrand: +inf on the
    target and 0 off it for hitting, sigma^-alpha for a clocked estimator,
    else f_or_sigma."""
    if cfg.estimator == "hitting_prob" and cfg.killing is None:
        size, run = WALK_CHUNK, functools.partial(_walk_codes, cfg)
    else:
        size = max(1, BLOCK_CELLS // grid_cells(cfg.horizon, cfg.step))
        f = (FunctionSpec.infinite_indicator(cfg.target) if cfg.target is not None
             else cfg.f_or_sigma.inverse_power(cfg.alpha) if ESTIMATORS[cfg.estimator][1]
             else cfg.f_or_sigma)
        run = functools.partial(_path_codes, cfg, f)
    starts = np.array(cfg.z).repeat(cfg.replicates)
    runs = [run(starts[lo:lo + size], stream_rng(cfg.seed, c))
            for c, lo in enumerate(range(0, starts.size, size))]
    return np.concatenate(runs).reshape(len(cfg.z), cfg.replicates)


CSV_HEADER = "estimator,alpha,z,point,ci_lo,ci_hi,n,undetermined,seed"


def run_experiment(cfg: ExperimentConfig, sink, threads: int = 1) -> list[Estimate]:
    """Run the configured estimator for every z and write one CSV row per z;
    byte-identical output for a given config and seed.  threads has no
    effect."""
    rows = []
    sink.write(CSV_HEADER + "\n")
    for z, codes in zip(cfg.z, _run_replicates(cfg)):
        est = _estimate_from_codes(codes, cfg.seed)
        rows.append(est)
        lo, hi = est.ci95
        sink.write(
            f"{cfg.estimator},{cfg.alpha!r},{z!r},{est.point!r},{lo!r},{hi!r},{est.n},"
            f"{est.undetermined_fraction!r},{est.seed}\n"
        )
    return rows
