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
from stablesde.functionals import Thresholds
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
            codes = experiments._walk_codes(cfg, np.zeros(1000), rng)
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


#: the cuts of four z by the walk: WALK_CHUNK, patched to 256 or at its
#: default, the replicates per z and the chunks they make; at 256, 700
#: replicates and 100 both make chunks that span two z or more, and at the
#: default every walker walks in one chunk
CUTS = [(256, 700, 11), (256, 100, 2), (WALK_CHUNK, 700, 1)]
#: the chunk sizes of the block test's four z of 300 replicates each: 256
#: makes chunks that span two z, 300 one chunk per z, and the default one
#: chunk in all; fixed, with the z and seed, before its first run
CHUNKS = [256, 300, None]


def cut_rows(cfg: ExperimentConfig, size: int, codes) -> np.ndarray:
    """The rows of the z-major cut: codes(starts, rng) called on each chunk
    of size of the start list, chunk c with stream_rng(seed, c)."""
    starts = np.repeat(cfg.z, cfg.replicates)
    return np.concatenate([
        codes(starts[lo:lo + size], stream_rng(cfg.seed, c))
        for c, lo in enumerate(range(0, starts.size, size))
    ]).reshape(len(cfg.z), cfg.replicates)


@pytest.mark.parametrize("chunk,replicates,count", CUTS)
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.995])
@pytest.mark.parametrize(
    "target", [IntervalSet.of(TARGET), TWO_INTERVALS, IntervalSet.of((1.0, math.inf)),
               IntervalSet.empty()], ids=["one", "two", "unbounded", "empty"])
def test_start_points_walk_together_byte_for_byte(monkeypatch, target, alpha, chunk, replicates,
                                                  count):
    """The walkers of every z walk together: the z-major start list is cut
    into count chunks of at most WALK_CHUNK walkers, whatever z they hold,
    and each row of codes is that z's share of `_walk_codes` called chunk
    by chunk, chunk c on stream_rng(seed, c).  Its sizes are those of the
    per-z test it replaced, fixed before this one first ran."""
    monkeypatch.setattr(experiments, "WALK_CHUNK", chunk)
    cfg = hitting_cfg(alpha, (0.0, -5.0, 1.5, -1e300), target, replicates, seed=31337)
    walk, chunks = experiments._walk_codes, []

    def spy(cfg, starts, rng):
        chunks.append(len(starts))
        return walk(cfg, starts, rng)

    monkeypatch.setattr(experiments, "_walk_codes", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = experiments._run_replicates(cfg)
        walked = cut_rows(cfg, chunk, lambda starts, rng: walk(cfg, starts, rng))
    assert np.array_equal(rows, walked)
    assert len(chunks) == count and max(chunks) <= chunk


@pytest.mark.parametrize("size", CHUNKS)
@pytest.mark.parametrize("estimator", ["hitting_prob", "freeze_prob", "smalltime_finiteness"])
def test_blocks_cut_the_replicates_z_major(monkeypatch, estimator, size):
    """Each row of block codes is that z's share of `_path_codes` called on
    the z-major start list, BLOCK_CELLS // grid_cells paths at a time (10
    cells a path here), chunk c on stream_rng(seed, c), so a block may hold
    rows from two z.  The sizes were fixed before the first run (see
    CHUNKS)."""
    if size is not None:
        monkeypatch.setattr(experiments, "BLOCK_CELLS", 10 * size)
    sigma = FunctionSpec.indicator_complement(TWO_INTERVALS)
    # small-time reads the first cell of |x|^-0.25, which decides rows from 0 both ways
    pole = FunctionSpec.power(0.5).inverse_power(0.5)
    smalltime = estimator == "smalltime_finiteness"
    cfg = ExperimentConfig(
        alpha=0.5, f_or_sigma=pole if smalltime else sigma, z=(0.0, -5.0, 1.5, 3.0),
        replicates=300, horizon=1.0, step=0.1, estimator=estimator, seed=31337,
        thresholds=Thresholds(m=0.2) if smalltime else Thresholds(),
        target=TWO_INTERVALS if estimator == "hitting_prob" else None,
        killing=None if estimator == "freeze_prob" else KillingSpec(0.1),
    )
    f = {"hitting_prob": FunctionSpec.infinite_indicator(TWO_INTERVALS),
         "freeze_prob": sigma.inverse_power(0.5)}.get(estimator, pole)
    block = experiments.BLOCK_CELLS // 10
    rows = experiments._run_replicates(cfg)
    cut = cut_rows(cfg, block, lambda starts, rng: experiments._path_codes(cfg, f, starts, rng))
    assert np.array_equal(rows, cut)
    assert len(set(rows.ravel().tolist())) > 1


#: exact chances of hitting [1, 2] from -2 before an independent
#: exponential killing at rate 0.1, at alpha 0.3, 0.5 and 0.7: the q-potential
#: equilibrium measure of the interval (Blumenthal & Getoor 1968), constant
#: on 40 cosine-graded cells and collocated at their midpoints, with the
#: kernel's odd remainder at q > 0 by quadrature; 20 and 80 cells agree with
#: these to 1.3e-4
KILLED_EXACT = {0.3: 0.06368, 0.5: 0.12900, 0.7: 0.19754}


def killed_cfg(alpha=0.5, z=(0.0,), target=IntervalSet.of(TARGET), replicates=300, seed=SEED,
               q=0.002, horizon=1000.0, step=1.0) -> ExperimentConfig:
    return dataclasses.replace(
        hitting_cfg(alpha, z, target, replicates, seed), killing=KillingSpec(q),
        horizon=horizon, step=step,
    )


def killed_block(cfg: ExperimentConfig, z: float):
    """The block of chunk 0 from z, and the codes `_path_codes` reads from
    it on the indicator the run builds."""
    block = sample_block(
        StableParams(cfg.alpha), z, cfg.horizon, cfg.step, stream_rng(cfg.seed, 0),
        killing=cfg.killing, rows=cfg.replicates,
    )
    f = FunctionSpec.infinite_indicator(cfg.target)
    starts = np.full(cfg.replicates, z)
    return block, experiments._path_codes(cfg, f, starts, stream_rng(cfg.seed, 0))


def node_hits(cfg: ExperimentConfig, block) -> np.ndarray:
    """The reference rule: a row hits when a node it takes before its
    killing time lies in the target; the first node always counts, and so
    does the node at the horizon of a row alive there."""
    reached = block.times < block.killed_at[:, None]
    reached[:, 0] = True
    return (cfg.target.contains(block.values) & reached).any(axis=1)


class TestKilledHitting:
    def test_killed_rows_that_never_hit_are_misses(self):
        """A process killed before it reached the target never will, so
        every row killed within the horizon is a hit or a miss; only rows
        alive at the horizon are left to their coin."""
        cfg = killed_cfg(z=(0.0, -5.0))
        for z in cfg.z:
            block, codes = killed_block(cfg, z)
            hit = node_hits(cfg, block)
            killed = block.killed_at <= cfg.horizon
            assert np.array_equal(codes == 1, hit)
            assert np.all(codes[killed & ~hit] == 0)
            assert 0 < np.sum(killed & ~hit) and np.sum(killed) > 200

    def test_rows_alive_at_the_horizon_are_decided_by_their_coin(self):
        """Without a kill inside a short horizon, a row that never hit takes
        one uniform after the block's draws, in row order: a miss where it
        is at or above the unkilled chance of ever hitting from the row's
        last value, and undetermined below."""
        cfg = killed_cfg(q=1e-6, horizon=1.0, step=0.1)
        block, codes = killed_block(cfg, 0.0)
        rng = stream_rng(cfg.seed, 0)
        sample_block(StableParams(cfg.alpha), 0.0, cfg.horizon, cfg.step, rng,
                     killing=cfg.killing, rows=cfg.replicates)
        open_rows = ~node_hits(cfg, block) & (block.killed_at > cfg.horizon)
        u = rng.random(np.count_nonzero(open_rows))
        chance = _union_chance(cfg.alpha, cfg.target.intervals, block.values[open_rows, -1])
        assert codes[open_rows].tolist() == np.where(u >= chance, 0, -1).tolist()
        assert set(codes[open_rows].tolist()) == {0, -1}

    def test_landing_on_the_last_step_hits(self):
        """A row alive at the horizon whose last node lies in the target
        stays there for a positive time before it is killed: killed hitting
        counts it a hit, as the reference rule does, and killed finiteness
        of the integral of +inf on the target reads it infinite.  This
        config was fixed before its first run."""
        target = IntervalSet.of((1.0, 3.0))
        cfg = killed_cfg(z=(0.0,), target=target, replicates=2000, seed=5, q=0.01,
                         horizon=3.0, step=1.0)
        block, codes = killed_block(cfg, 0.0)
        hit = node_hits(cfg, block)
        before = (cfg.target.contains(block.values) & (block.times < cfg.horizon)).any(axis=1)
        finite = experiments._run_replicates(dataclasses.replace(
            cfg, estimator="finiteness_prob", f_or_sigma=FunctionSpec.infinite_indicator(target),
            target=None,
        ))[0]
        assert np.array_equal(codes == 1, hit)
        assert np.all(finite[hit] == 0)
        assert np.any(hit & ~before)

    @pytest.mark.parametrize("alpha", sorted(KILLED_EXACT))
    def test_killed_chance_lies_in_the_undetermined_band(self, alpha):
        """The exact killed chance p of KILLED_EXACT lies within four
        standard errors sqrt(p (1 - p) / n) of [yes / n, (yes +
        undetermined) / n], with every row counted in n.  The start, target,
        rate, sizes and seed were fixed before the first run; the band holds
        the undetermined rows on either side, since a row alive at the
        horizon is not yet completed at q > 0."""
        p = KILLED_EXACT[alpha]
        cfg = killed_cfg(alpha, (-2.0,), replicates=2000, seed=29, q=0.1, horizon=10.0,
                         step=0.01)
        (est,) = run_experiment(cfg, io.StringIO())
        se = math.sqrt(p * (1.0 - p) / est.n)
        assert est.yes / est.n - 4.0 * se <= p <= (est.n - est.resolved + est.yes) / est.n + 4.0 * se


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
