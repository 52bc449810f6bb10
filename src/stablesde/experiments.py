"""Monte Carlo estimation harness: reproducible configs, one RNG stream per
chunk of replicates, Wilson intervals, and CSV reporting.

Replicates run on one thread, a chunk at a time, and chunk c draws from the
counter-based stream keyed by (seed, c); the chunk size depends on the
config alone, so results do too.  `ESTIMATORS` is the one table of
estimators: it names each one's block rule and whether it reads the clock of
sigma^-alpha along drivers that are never killed.  `_path_codes` samples a
chunk's paths together (`stable.sample_block`) and hands the block to the
rule, which decides hitting, finiteness, freezing, explosion or small-time
on the whole block, from its node arrays or its cell arrays
(`PathBlock.cells`).  Every rule that reads cells uses the alpha-aware
`functionals._contributions`; only the single-path public functions of
`functionals` keep the left-point sum.  `functionals._clock_rows` completes
a row alive at the horizon, so `freeze_prob` is the chance of ever freezing.

Hitting without killing samples no path: walkers jump exactly, WALK_CHUNK
to a chunk.  One outside the target's hull lands in one draw where the
process first crosses the hull's near end (Rogozin's overshoot law); one in
a gap of a union leaves its walk-on-spheres ball.  A walker more than
WALK_FINISH lengths from a single finite interval is finished by one
uniform against its exact chance of ever hitting it, which is computed
only where the uniform falls under the largest such chance.  For a union
or an unbounded target, a walker, like a killed path alive at the horizon,
is a miss beyond `_miss_distance`, where the bound
capacity * distance^(alpha-1) on that chance drops below WALK_TOL or
HITTING_RESIDUAL.  The `threads` arguments are kept for compatibility and
have no effect.  Undetermined replicates are excluded from the point
estimate but reported as a fraction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .funcspec import FunctionSpec, parse_inline
from .functionals import DEFAULT_M, Thresholds, _clock_rows, _contributions
from .integrals import _hitting_chance
from .intervals import IntervalSet, _check_alpha, interval_capacity_upper
from .stable import KillingSpec, PathBlock, StableParams, grid_cells, sample_block, stream_rng

#: a killed path alive at the horizon that never hit is a miss once the
#: residual hitting probability bound capacity * distance^(alpha-1) drops
#: below this
HITTING_RESIDUAL = 1e-2

#: the hitting walk: walkers per chunk (one stream each), and the exits after
#: which a walker still alive is undetermined
WALK_CHUNK = 1 << 14
WALK_STEPS = 100_000
#: a walker further than this many target lengths from a single finite
#: interval is finished by one uniform against its exact hitting chance
WALK_FINISH = 1e3
#: the miss rule for unions and unbounded targets: a walker is a miss where
#: the bound capacity * distance^(alpha-1) on its chance of ever hitting
#: drops below this.  For a single interval that distance is nearer than
#: WALK_FINISH lengths only for alpha below about 0.09, where it still acts
WALK_TOL = 1e-4


@dataclass(frozen=True)
class ExperimentConfig:
    """One estimator run.  f_or_sigma is read as the coefficient sigma by the
    freeze/explosion estimators and as the integrand f by the others.
    hitting_prob without killing reads neither horizon nor step: its
    walkers keep no time.  The clocked estimators, freeze_prob and
    explosion_prob, refuse killing, and every estimator but hitting_prob
    refuses a target.  freeze_prob is the chance of ever freezing: a row
    not frozen by the horizon is completed from its last value.  The
    escape radius thresholds.R is validated but has no effect."""

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
# f is the integrand: cfg.f_or_sigma, or sigma^-alpha for freeze and explosion;
# rng, the chunk's generator after the block's draws, completes rows alive at H


def _clock_codes(cfg: ExperimentConfig, f: FunctionSpec, block: PathBlock, rng=None):
    """The freeze code of `_clock_rows` for freeze_prob and its explode code
    otherwise; rows alive at the horizon are completed from their last node
    with uniforms from rng (a killed block says which rows are alive)."""
    values, dwell = block.cells()
    alive = None if cfg.killing is None else block.killed_at > cfg.horizon
    _, _, _, freezes, explodes = _clock_rows(
        values, dwell, block.values[:, -1], f, cfg.alpha, cfg.thresholds, rng, alive
    )
    return freezes if cfg.estimator == "freeze_prob" else explodes


def _smalltime_codes(cfg: ExperimentConfig, f: FunctionSpec, block: PathBlock, rng=None):
    """Whether the first cell's contribution stays below M.  The first cell
    is occupied unless the path is killed at time 0, which leaves it
    undetermined."""
    values, dwell = block.cells(1)
    first = _contributions(values, dwell, f, cfg.alpha)[:, 0]
    return np.where(dwell[:, 0] > 0.0, first < cfg.thresholds.m, -1).astype(np.int8)


def _hitting_codes(cfg: ExperimentConfig, f: FunctionSpec, block: PathBlock, rng=None):
    """Hit (1), certified miss (0) or undetermined (-1) for the rows of a
    killed block.  A row hits when one of the nodes it reaches before its
    killing time lies in the target.  One killed within the horizon that
    never hit is a certain miss; one still alive at the horizon is a miss
    when its last node lies beyond the miss distance for HITTING_RESIDUAL."""
    inside = cfg.target.contains(block.values) & block.reached()
    codes = np.where(inside.any(axis=1), 1, -1).astype(np.int8)
    far = cfg.target.distance_to(block.values[:, -1]) > _miss_distance(cfg, HITTING_RESIDUAL)
    codes[(codes < 0) & ((block.killed_at <= cfg.horizon) | far)] = 0
    return codes


#: each estimator's block rule, and whether it reads the clock of
#: sigma^-alpha along drivers that are never killed; hitting without
#: killing bypasses the blocks for the walk
ESTIMATORS = {
    "finiteness_prob": (_clock_codes, False),
    "hitting_prob": (_hitting_codes, False),
    "freeze_prob": (_clock_codes, True),
    "explosion_prob": (_clock_codes, True),
    "smalltime_finiteness": (_smalltime_codes, False),
}

#: path cells sampled per block of replicates (32 paths of 1000 cells), which
#: keeps the block's arrays near 2 MB
BLOCK_CELLS = 1 << 15


def _miss_distance(cfg: ExperimentConfig, tol: float) -> float:
    """The distance to the target beyond which capacity * d^(alpha-1), a
    bound on the chance of ever hitting it, drops below tol: 0 for the empty
    target; inf for an unbounded one, and where the bound stays above tol at
    every finite distance."""
    cap = interval_capacity_upper(cfg.alpha, cfg.target)
    with np.errstate(over="ignore"):
        return np.float64(cap / tol) ** (1.0 / (1.0 - cfg.alpha))


def _walk_codes(cfg: ExperimentConfig, z: float, n: int, rng) -> np.ndarray:
    """Hit (1), miss (0) or undetermined (-1) for n walkers from z towards
    the target of an unkilled process.

    A walker at distance d > 0 left of the target's hull [first, last]
    jumps to where the process first passes first: it lands at
    first + d (1 - B) / B, B ~ Beta(alpha/2, 1 - alpha/2), the overshoot law
    of Rogozin (1972); a walker right of last lands at last - d (1 - B) / B.
    By the strong Markov property this is exact, as the process reaches no
    piece before it crosses the hull's near end, and it crosses by a jump.
    A walker inside the hull (in a gap of a union) leaves the ball
    (x - d, x + d) at x +- d / sqrt(B) with a fair sign instead: the exit law
    of Blumenthal, Getoor & Ray (1961).  It hits on landing in the target
    (or on its boundary).  When the target is one finite interval [a, b], a
    walker more than WALK_FINISH * (b - a) away is finished: by the strong
    Markov property it hits with `_hitting_chance`, and one uniform drawn
    against that chance decides it exactly.  Otherwise it misses beyond the
    miss distance for WALK_TOL.  A walker still alive after WALK_STEPS
    exits, or whose distance overflowed without a miss, is undetermined.

    One exit draws, in this order: a uniform per walker it finishes, a beta
    variate B per walker still alive, then a sign uniform per walker in a
    gap, so a single interval draws no signs.  The finished walkers are
    decided together after the last exit: the chance falls with the
    distance from the interval's centre, so the chance of the finished
    walker nearest it bounds every other's.  A uniform at or above that
    bound, raised by 1e-9 of itself for rounding, is a miss, and only a
    walker whose uniform falls under it gets its own chance.  The walk
    keeps no time, which is why killing cannot use it: the exit time and
    exit position of a ball have no explicit joint law.
    """
    a, pieces = cfg.alpha / 2.0, cfg.target.intervals
    far, finish = _miss_distance(cfg, WALK_TOL), math.inf
    if len(pieces) == 1:
        lo, hi = pieces[0]
        finish = WALK_FINISH * (hi - lo)
    # the target's hull; the empty target misses every walker before a jump
    first, last = (pieces[0][0], pieces[-1][1]) if pieces else (math.nan, math.nan)
    codes = np.full(n, -1, dtype=np.int8)
    # where each finished walker stopped and its uniform; NaN for the others
    stopped, coin = np.full(n, math.nan), np.full(n, math.nan)
    live = np.arange(n)
    x = np.full(n, z)
    # a beta variate that underflows to 0 (alpha near 0) sends its walker to
    # +-inf, where it is finished
    with np.errstate(over="ignore", divide="ignore"):
        for step in range(WALK_STEPS + 1):
            d = cfg.target.distance_to(x)
            hit, done = d == 0.0, d > finish
            miss = (d > far) & ~done
            codes[live[hit]] = 1
            codes[live[miss]] = 0
            stopped[live[done]] = x[done]
            # an empty draw leaves the stream where it was
            coin[live[done]] = rng.random(np.count_nonzero(done))
            going = ~(hit | miss | done) & (d < math.inf)
            live, x, d = live[going], x[going], d[going]
            if not live.size or step == WALK_STEPS:
                break
            b = rng.beta(a, 1.0 - a, live.size)
            over = d * (1.0 - b) / b
            left, right = x < first, x > last
            gap = ~(left | right)
            x[left] = first + over[left]
            x[right] = last - over[right]
            if gap.any():
                # down when the uniform is below 1/2
                sign = rng.random(np.count_nonzero(gap)) - 0.5
                x[gap] += np.copysign(d[gap] / np.sqrt(b[gap]), sign)
    done = np.flatnonzero(~np.isnan(coin))
    if done.size:
        at = stopped[done]
        bound = _hitting_chance(cfg.alpha, at[np.argmin(np.abs(at - (lo + hi) / 2.0))], lo, hi)
        codes[done] = 0
        # betainc can break the order of the chances by an ulp or so
        low = done[coin[done] < bound * (1.0 + 1e-9)]
        codes[low] = coin[low] < _hitting_chance(cfg.alpha, stopped[low], lo, hi)
    return codes


def _path_codes(cfg: ExperimentConfig, z: float, n: int, rng) -> np.ndarray:
    """Codes of n paths sampled as one block and decided by the estimator's
    block rule, on f_or_sigma or, for a clocked estimator, on sigma^-alpha
    along drivers that are never killed (its config takes no killing)."""
    rule, clocked = ESTIMATORS[cfg.estimator]
    f = cfg.f_or_sigma.inverse_power(cfg.alpha) if clocked else cfg.f_or_sigma
    block = sample_block(
        StableParams(cfg.alpha), z, cfg.horizon, cfg.step, rng,
        killing=cfg.killing, rows=n,
    )
    return rule(cfg, f, block, rng)


def _run_replicates(cfg: ExperimentConfig, z: float) -> np.ndarray:
    """Codes of every replicate, a chunk at a time: chunk c draws from
    stream_rng(seed, c).  A chunk is WALK_CHUNK walkers for unkilled hitting
    and BLOCK_CELLS // grid_cells paths otherwise, so the codes depend on
    the config alone."""
    if cfg.estimator == "hitting_prob" and cfg.killing is None:
        rule, size = _walk_codes, WALK_CHUNK
    else:
        rule, size = _path_codes, max(1, BLOCK_CELLS // grid_cells(cfg.horizon, cfg.step))
    codes = np.empty(cfg.replicates, dtype=np.int8)
    for chunk, lo in enumerate(range(0, cfg.replicates, size)):
        n = min(size, cfg.replicates - lo)
        codes[lo : lo + n] = rule(cfg, z, n, stream_rng(cfg.seed, chunk))
    return codes


CSV_HEADER = "estimator,alpha,z,point,ci_lo,ci_hi,n,undetermined,seed"


def run_experiment(cfg: ExperimentConfig, sink, threads: int = 1) -> list[Estimate]:
    """Run the configured estimator for every z and write one CSV row per z;
    byte-identical output for a given config and seed.  threads has no
    effect."""
    rows = []
    sink.write(CSV_HEADER + "\n")
    for z in cfg.z:
        est = _estimate_from_codes(_run_replicates(cfg, z), cfg.seed)
        rows.append(est)
        lo, hi = est.ci95
        sink.write(
            f"{cfg.estimator},{cfg.alpha!r},{z!r},{est.point!r},{lo!r},{hi!r},{est.n},"
            f"{est.undetermined_fraction!r},{est.seed}\n"
        )
    return rows
