"""The hitting walk (first crossings of the target's hull and
walk-on-spheres balls in its gaps) against the exact hitting probability of
an interval and the overshoot law of a crossing, and that probability's
closed form against quadrature of M. Riesz's equilibrium measure.

Seeds and sizes were fixed before the estimator was first run."""

import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, betainc

from stablesde import experiments
from stablesde.experiments import WALK_CHUNK, ExperimentConfig, run_experiment
from stablesde.funcspec import FunctionSpec
from stablesde.integrals import _hitting_chance, _union_chance, hitting_probability
from stablesde.intervals import IntervalSet, interval_capacity_upper
from stablesde.stable import KillingSpec, StableParams, sample_block, stream_rng

ALPHAS = (0.3, 0.5, 0.7, 0.9)
TARGET = (1.0, 2.0)
#: both sides of TARGET, and inside it
ZS = (-3.0, 0.0, 1.5, 4.0)
TWO_INTERVALS = IntervalSet.of((1.0, 2.0), (-4.0, -3.0))
WALKERS = 20_000
SEED = 1609


def hitting_cfg(alpha=0.5, z=(0.0,), target=IntervalSet.of(TARGET), replicates=WALKERS,
                seed=SEED) -> ExperimentConfig:
    return ExperimentConfig(
        alpha=alpha, f_or_sigma=FunctionSpec.constant(1.0), z=z, replicates=replicates,
        horizon=1.0, step=1.0, estimator="hitting_prob", seed=seed, target=target,
    )


def band(p: float, n: int) -> float:
    """Four standard errors of a mean of n Bernoulli(p) draws, plus the bias
    the walk's miss rule may add: 1e-4, its tolerance."""
    return 4.0 * math.sqrt(p * (1.0 - p) / n) + 1e-4


def resolved(est) -> int:
    return est.n - round(est.undetermined_fraction * est.n)


@pytest.mark.parametrize("z", ZS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_walk_matches_oracle(alpha, z):
    (est,) = run_experiment(hitting_cfg(alpha, (z,)), io.StringIO())
    exact = hitting_probability(alpha, z, TARGET)
    assert est.undetermined_fraction == 0.0
    assert abs(est.point - exact) <= band(exact, resolved(est))


#: a run near alpha = 1 that the capacity miss alone got wrong; its start,
#: walkers and seed were fixed before its first run
NEAR_ONE = dict(z=(-2.0,), replicates=2000, seed=1)


@pytest.mark.parametrize("alpha", [0.95, 0.99, 0.995, 0.999])
def test_walk_covers_oracle_near_alpha_one(alpha):
    """Near alpha = 1 an escaping walker would need more exits than
    WALK_STEPS, or more than the float range, to be a capacity miss; the
    finish resolves every walker and the interval covers the exact value."""
    (est,) = run_experiment(hitting_cfg(alpha, **NEAR_ONE), io.StringIO())
    lo, hi = est.ci95
    assert est.undetermined_fraction == 0.0
    assert lo <= hitting_probability(alpha, -2.0, TARGET) <= hi


def test_walk_near_alpha_zero_without_warning():
    """At alpha = 0.01 a Beta(alpha/2, 1 - alpha/2) exit draw can underflow
    to 0 and send its walker to +-inf, where it is finished, not a divide
    warning.  This config (start, walkers, seed) was run once, with the
    same estimate, before the warning was silenced; it is kept as it was."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (est,) = run_experiment(
            hitting_cfg(0.01, (-2.0,), replicates=20_000, seed=1), io.StringIO()
        )
    lo, hi = est.ci95
    assert est.undetermined_fraction == 0.0
    assert lo <= hitting_probability(0.01, -2.0, TARGET) <= hi


#: the crossing-law runs: walkers and seed were fixed before their first run
CROSSING = dict(replicates=20_000, seed=1972)


@pytest.mark.parametrize("d", [0.5, 5.0])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_first_crossing_lands_by_the_overshoot_law(monkeypatch, alpha, d):
    """From distance d of [1, 2] (length L = 1), on either side, the walk's
    first crossing lands in the target when the overshoot d (1 - B) / B is
    at most L, B ~ Beta(alpha/2, 1 - alpha/2): with chance
    I_{L/(d+L)}(1 - alpha/2, alpha/2).  One exit and no finish leave every
    other walker undetermined or a miss; the share of hits is within four
    standard errors."""
    monkeypatch.setattr(experiments, "WALK_FINISH", math.inf)
    monkeypatch.setattr(experiments, "WALK_STEPS", 1)
    length = TARGET[1] - TARGET[0]
    exact = float(betainc(1.0 - alpha / 2.0, alpha / 2.0, length / (d + length)))
    n = CROSSING["replicates"]
    cfg = hitting_cfg(alpha, (TARGET[0] - d, TARGET[1] + d), **CROSSING)
    for codes in experiments._run_replicates(cfg):
        share = np.count_nonzero(codes == 1) / n
        assert abs(share - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / n)


def test_two_intervals_between_single_oracles():
    """P(hit A or B) lies between the larger of P(hit A), P(hit B) and
    their sum."""
    pieces = ((1.0, 2.0), (-4.0, -3.0))
    (est,) = run_experiment(hitting_cfg(target=IntervalSet.of(*pieces)), io.StringIO())
    singles = [hitting_probability(0.5, 0.0, piece) for piece in pieces]
    n = resolved(est)
    assert est.undetermined_fraction == 0.0
    assert max(singles) - band(max(singles), n) <= est.point
    assert est.point <= sum(singles) + band(min(1.0, sum(singles)), n)


class TestWalkEdges:
    def test_empty_target_misses_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (est,) = run_experiment(
                hitting_cfg(target=IntervalSet.empty(), replicates=100), io.StringIO()
            )
        assert est.point == 0.0 and est.undetermined_fraction == 0.0

    def test_unbounded_target_ends(self):
        """Its capacity is infinite, so no walker misses; every one hits or
        is left undetermined by the step cap."""
        target = IntervalSet.of((1.0, math.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (codes,) = experiments._run_replicates(hitting_cfg(target=target, replicates=2000))
        assert set(codes.tolist()) <= {1, -1}
        assert np.any(codes == 1)

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    @pytest.mark.parametrize("target,z", [((1.0, math.inf), -1e300), ((-math.inf, -3.0), 1e300)])
    def test_crossing_that_overflows_into_an_unbounded_target_hits(self, alpha, target, z):
        """From the far side of the largest floats a crossing of the near
        end can overflow to the target's infinite end; it still lands in
        the target, so every walker hits."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (codes,) = experiments._run_replicates(
                hitting_cfg(alpha=alpha, z=(z,), target=IntervalSet.of(target), replicates=1000)
            )
        assert set(codes.tolist()) == {1}

    def test_far_walkers_finished_on_a_union(self):
        """Near alpha = 1 a walker started near the largest float is far
        beyond WALK_FINISH hull lengths of a union, so it is finished at
        once by its exact chance: every walker is decided, without a
        warning."""
        target = IntervalSet.of((1.0, 2.0), (-4.0, -3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (codes,) = experiments._run_replicates(
                hitting_cfg(alpha=0.99, z=(-1e300,), target=target, replicates=100)
            )
        assert set(codes.tolist()) <= {0, 1}

    def test_far_walkers_finished_on_a_single_interval(self):
        """From the same start a single interval finishes every walker at
        once, against a chance that is positive and, t = r^2/(z - c)^2
        having underflowed, the leading term t^p / (p B(p, q))."""
        alpha, z = 0.99, -1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (codes,) = experiments._run_replicates(hitting_cfg(alpha=alpha, z=(z,), replicates=100))
            chance = float(_hitting_chance(alpha, z, *TARGET))
        assert set(codes.tolist()) <= {0, 1}
        p, q = (1.0 - alpha) / 2.0, alpha / 2.0
        log_t = 2.0 * math.log(0.5 / (1.5 - z))
        assert chance > 0.0
        assert chance == pytest.approx(math.exp(p * log_t) / (p * beta(p, q)), rel=1e-12)

    @pytest.mark.parametrize("target", [IntervalSet.of(TARGET), TWO_INTERVALS],
                             ids=["one", "two"])
    def test_finished_walkers_get_their_chance_only_under_the_bound(self, monkeypatch, target):
        """On each side of the hull the chance of the finished walker
        nearest it bounds every other's; a coin at or above its side's
        bound is a miss, so only the walkers whose coin falls under it get
        their own chance, and the codes are those of evaluating every
        finished walker, which a bound of 1 does.  So they are also under a
        chance ten times higher on the left than on the right, which a
        rule that mixed up the sides would get wrong.  On one interval
        every uniform the walk draws is a finished walker's coin."""
        cfg = hitting_cfg(target=target, replicates=1000, seed=31337)
        first, last = target.intervals[0][0], target.intervals[-1][1]

        def lopsided(alpha, pieces, x):
            x = np.asarray(x)
            left = x < first
            return np.where(left, 0.9, 0.09) / (1.0 + np.where(left, first - x, x - last) / 1e4)

        class Recorder:
            def __init__(self, rng):
                self.rng, self.coins = rng, []

            def random(self, n):
                self.coins.append(self.rng.random(n))
                return self.coins[-1]

            def beta(self, *args):
                return self.rng.beta(*args)

        def walk(chance, every):
            """The codes, the points the chance was asked for and the
            uniforms drawn; with every, the bounds (the first call) are 1."""
            points = []

            def counted(alpha, pieces, x):
                points.append(np.atleast_1d(x))
                lifted = every and len(points) == 1
                return np.ones(np.shape(x)) if lifted else chance(alpha, pieces, x)

            monkeypatch.setattr(experiments, "_union_chance", counted)
            rng = Recorder(stream_rng(cfg.seed, 0))
            codes = experiments._walk_codes(cfg, [(0.0, 1000, rng)])
            return codes, points, np.concatenate(rng.coins)

        for chance in (lopsided, _union_chance):
            every, finished, _ = walk(chance, True)
            codes, points, coins = walk(chance, False)
            assert np.array_equal(codes, every)
        # the first call evaluates the nearest walker on each side: its
        # chance is that side's bound
        assert points[0].size == 2 and len(points) == 2
        assert points[1].size < finished[1].size / 10
        if len(target.intervals) == 1:
            assert coins.size == finished[1].size == 689
            bound = _union_chance(cfg.alpha, target.intervals, points[0])
            assert bound.max() < 0.0121
            assert points[1].size <= np.count_nonzero(coins < bound.max()) < 20

    def test_step_cap_leaves_walkers_undetermined(self, monkeypatch):
        """Capped after one exit, a walker is undetermined or decided as it
        is without the cap: one crossing may land it beyond WALK_FINISH,
        where it is finished as a miss or a hit by the same uniform."""
        cfg = hitting_cfg(alpha=0.9, replicates=500)
        (uncapped,) = experiments._run_replicates(cfg)
        assert set(uncapped.tolist()) <= {0, 1}
        monkeypatch.setattr(experiments, "WALK_STEPS", 1)
        (capped,) = experiments._run_replicates(cfg)
        assert np.all((capped == -1) | (capped == uncapped))
        assert np.any(capped == -1)

    def test_bytes_independent_of_threads(self):
        cfg = hitting_cfg(z=(0.0, -5.0), replicates=3000)
        outputs = []
        for threads in (1, 8):
            buf = io.StringIO()
            run_experiment(cfg, buf, threads=threads)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_partial_last_chunk_reproducible(self):
        """A run of one full chunk and a partial one gives the same codes
        twice, and its first chunk is the run of one chunk alone."""
        cfg = hitting_cfg(replicates=WALK_CHUNK + 37)
        (first,) = experiments._run_replicates(cfg)
        (again,) = experiments._run_replicates(cfg)
        (alone,) = experiments._run_replicates(hitting_cfg(replicates=WALK_CHUNK))
        assert np.array_equal(first, again)
        assert np.array_equal(first[:WALK_CHUNK], alone)

    def test_killing_keeps_the_grid_rule(self, monkeypatch):
        """A killed target is decided on sampled paths, never by the walk."""
        monkeypatch.setattr(experiments, "_walk_codes", None)
        killed = dataclasses.replace(hitting_cfg(replicates=20), killing=KillingSpec(0.1))
        run_experiment(killed, io.StringIO())


#: the batching cases for four z: WALK_CHUNK, patched to 256 or at its
#: default, the replicates per z and the batches they make; at 256, 700
#: replicates are three chunks and every chunk walks alone, while chunks of
#: 100 walk two z to a batch; at the default every z walks in one batch
BATCHINGS = [(256, 700, 12), (256, 100, 2), (WALK_CHUNK, 700, 1)]


@pytest.mark.parametrize("chunk,replicates,count", BATCHINGS)
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.995])
@pytest.mark.parametrize(
    "target", [IntervalSet.of(TARGET), TWO_INTERVALS, IntervalSet.of((1.0, math.inf)),
               IntervalSet.empty()], ids=["one", "two", "unbounded", "empty"])
def test_start_points_walk_together_byte_for_byte(monkeypatch, target, alpha, chunk, replicates,
                                                  count):
    """Every z walks in batches of consecutive (z, chunk) groups, and each
    row of codes is that z's chunks walked one group at a time, each on
    stream_rng(seed, c).  No batch holds more than WALK_CHUNK walkers, so a
    full chunk walks alone."""
    monkeypatch.setattr(experiments, "WALK_CHUNK", chunk)
    cfg = hitting_cfg(alpha, (0.0, -5.0, 1.5, -1e300), target, replicates, seed=31337)
    walk, batches = experiments._walk_codes, []

    def spy(cfg, groups):
        batches.append([(z, n) for z, n, _ in groups])
        return walk(cfg, groups)

    monkeypatch.setattr(experiments, "_walk_codes", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = experiments._run_replicates(cfg)
    sizes = [min(chunk, replicates - lo) for lo in range(0, replicates, chunk)]
    for z, row in zip(cfg.z, rows):
        alone = [walk(cfg, [(z, n, stream_rng(cfg.seed, c))]) for c, n in enumerate(sizes)]
        assert np.array_equal(row, np.concatenate(alone))
    assert [group for batch in batches for group in batch] == [
        (z, n) for z in cfg.z for n in sizes]
    assert all(sum(n for _, n in batch) <= chunk for batch in batches)
    assert all(len(batch) == 1 for batch in batches if any(n == chunk for _, n in batch))
    assert len(batches) == count


class TestKilledHitting:
    def test_killed_rows_that_never_hit_are_misses(self):
        """A process killed before it reached the target never will, so
        every row killed within the horizon is a hit or a miss; only rows
        alive at the horizon are left to the residual bound."""
        cfg = dataclasses.replace(
            hitting_cfg(z=(0.0, -5.0), replicates=300), killing=KillingSpec(0.002),
            horizon=1000.0, step=1.0,
        )
        for z in cfg.z:
            block = sample_block(
                StableParams(cfg.alpha), z, cfg.horizon, cfg.step, stream_rng(cfg.seed, 0),
                killing=cfg.killing, rows=300,
            )
            codes = experiments._path_codes(cfg, z, 300, stream_rng(cfg.seed, 0))
            hit = (cfg.target.contains(block.values) & block.reached()).any(axis=1)
            killed = block.killed_at <= cfg.horizon
            assert np.array_equal(codes == 1, hit)
            assert np.all(codes[killed & ~hit] == 0)
            assert 0 < np.sum(killed & ~hit) and np.sum(killed) > 200

    def test_rows_alive_at_the_horizon_keep_the_residual_bound(self):
        """Without a kill inside a short horizon a row that never hit is
        decided by the residual bound at its last node, which near the
        target stays above HITTING_RESIDUAL."""
        cfg = dataclasses.replace(
            hitting_cfg(replicates=300), killing=KillingSpec(1e-6), horizon=1.0, step=0.1,
        )
        (est,) = run_experiment(cfg, io.StringIO())
        assert est.undetermined_fraction > 0.5


def riesz_quadrature(alpha: float, z: float, interval) -> float:
    """The reference for the closed form, by quadrature: the potential
    kernel |z - y|^(alpha-1) integrated against M. Riesz's equilibrium
    measure (sin(pi alpha/2)/pi) (r^2 - (y-c)^2)^(-alpha/2) dy of the
    interval with centre c and half-width r, its endpoint singularities
    taken as the algebraic weight of `quad` (QUADPACK's QAWS)."""
    a, b = interval
    value, _ = quad(
        lambda y: abs(z - y) ** (alpha - 1.0), a, b,
        weight="alg", wvar=(-alpha / 2.0, -alpha / 2.0),
    )
    return math.sin(math.pi * alpha / 2.0) / math.pi * value


class TestHittingProbability:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_chance_on_and_off_the_interval(self, alpha):
        """`_hitting_chance` on one array holding both ends, the centre,
        inside points and outside points: 1 on [a, b] without a warning,
        and the closed form off it."""
        xs = np.array([1.0, 2.0, 1.5, 1.1, 1.9, -3.0, 0.5, 2.5, 100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chance = _hitting_chance(alpha, xs, *TARGET)
        assert chance[:5].tolist() == [1.0] * 5
        for x, p in zip(xs[5:], chance[5:]):
            assert p == pytest.approx(riesz_quadrature(alpha, x, TARGET), rel=1e-7)
            assert 0.0 < p < 1.0


    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_one_on_the_interval(self, alpha):
        for z in (1.0, 1.25, 1.5, 2.0):
            assert hitting_probability(alpha, z, TARGET) == 1.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_one_at_both_ends_where_the_centre_rounds(self, alpha):
        """The centre of (0.1, 0.2) rounds to 0.15000000000000002, so the
        distance from 0.1 to it exceeds the half-width; the closed interval
        still reads exactly 1 at both ends."""
        for z in (0.1, 0.2):
            assert hitting_probability(alpha, z, (0.1, 0.2)) == 1.0
            assert _hitting_chance(alpha, np.array([z]), 0.1, 0.2).tolist() == [1.0]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_closed_form(self, alpha):
        """The closed form against the quadrature reference."""
        for z in (-100.0, -3.0, 0.0, 1.0 - 1e-6, 2.0 + 1e-3, 7.5):
            assert hitting_probability(alpha, z, TARGET) == pytest.approx(
                riesz_quadrature(alpha, z, TARGET), rel=1e-7
            )

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_below_capacity_bound_and_sharp_far_away(self, alpha):
        """P_z <= cap * d^(alpha-1) at distance d, and the ratio to the bound
        rises to 1 as d grows."""
        cap = interval_capacity_upper(alpha, IntervalSet.of(TARGET))
        for end, side in ((TARGET[0], -1.0), (TARGET[1], 1.0)):
            ratios = []
            for d in (0.01, 0.5, 3.0, 10.0, 100.0, 1000.0):
                bound = cap * d ** (alpha - 1.0)
                p = hitting_probability(alpha, end + side * d, TARGET)
                assert p <= bound
                ratios.append(p / bound)
            assert ratios == sorted(ratios)
            assert ratios[-1] > 0.999

    def test_ratio_at_minus_hundred(self):
        """At distance d the ratio to the bound is the equilibrium mean of
        (1 + t/d)^(alpha-1), t the distance past the near endpoint, whose
        mean is half the width: about 1 - (1 - alpha)/(2d)."""
        cap = interval_capacity_upper(0.5, IntervalSet.of(TARGET))
        ratio = hitting_probability(0.5, -100.0, TARGET) / (cap * 101.0 ** -0.5)
        assert ratio == pytest.approx(1.0 - 0.5 / (2.0 * 101.0), abs=5e-5)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_tends_to_one_at_an_endpoint(self, alpha):
        for end, side in ((TARGET[0], -1.0), (TARGET[1], 1.0)):
            ps = [hitting_probability(alpha, end + side * 10.0 ** -k, TARGET)
                  for k in (1, 3, 6, 9, 12)]
            assert ps == sorted(ps)
            # 1 - P_z shrinks like distance^(alpha/2)
            assert 1.0 - ps[-1] < 10.0 * (2e-12) ** (alpha / 2.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(ValueError):
            hitting_probability(0.5, z, TARGET)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ValueError):
            hitting_probability(alpha, 0.0, TARGET)
