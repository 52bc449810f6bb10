import math

import numpy as np
import pytest
from scipy import stats

from stablesde.stable import (
    KillingSpec,
    PathSample,
    StableParams,
    cell_dwell,
    grid_cells,
    sample_block,
    sample_increment,
    sample_path,
    stream_rng,
)


class TestStreamRng:
    def test_reproducible(self):
        a = stream_rng(42, 7).standard_normal(5)
        b = stream_rng(42, 7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = stream_rng(42, 0).standard_normal(5)
        b = stream_rng(42, 1).standard_normal(5)
        c = stream_rng(43, 0).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCmsSampler:
    def test_gaussian_limit_alpha_two(self):
        # alpha = 2 gives N(0, 2) under the CMS normalization
        rng = stream_rng(1, 0)
        x = np.array([sample_increment(StableParams(2.0), 1.0, rng) for _ in range(20000)])
        assert abs(x.mean()) < 0.05
        assert x.var() == pytest.approx(2.0, rel=0.05)
        p = stats.kstest(x, stats.norm(scale=math.sqrt(2.0)).cdf).pvalue
        assert p > 0.01

    def test_cauchy_at_alpha_one(self):
        rng = stream_rng(2, 0)
        x = np.array([sample_increment(StableParams(1.0), 1.0, rng) for _ in range(20000)])
        p = stats.kstest(x, stats.cauchy.cdf).pvalue
        assert p > 0.01

    def test_symmetry(self):
        rng = stream_rng(3, 0)
        x = np.array([sample_increment(StableParams(0.5), 1.0, rng) for _ in range(20000)])
        p = stats.ks_2samp(x, -x).pvalue
        assert p > 0.01

    def test_self_similarity_scaling(self):
        # increments over dt equal dt^(1/alpha) times unit-time increments
        alpha, dt = 0.7, 0.3
        a = stream_rng(4, 0)
        b = stream_rng(4, 1)
        x = np.array([sample_increment(StableParams(alpha), dt, a) for _ in range(20000)])
        y = dt ** (1.0 / alpha) * np.array(
            [sample_increment(StableParams(alpha), 1.0, b) for _ in range(20000)]
        )
        assert stats.ks_2samp(x, y).pvalue > 0.01

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError):
            sample_increment(StableParams(0.5), dt, stream_rng(0, 0))

    def test_heavy_tail_exponent(self):
        # P(|X| > x) ~ c x^-alpha: compare tail mass at two levels
        rng = stream_rng(5, 0)
        x = np.abs(
            np.array([sample_increment(StableParams(0.5), 1.0, rng) for _ in range(200000)])
        )
        ratio = np.mean(x > 400.0) / np.mean(x > 100.0)
        assert ratio == pytest.approx(0.5, rel=0.2)  # (400/100)^-0.5


class TestSamplePath:
    def test_grid_and_origin(self):
        path = sample_path(StableParams(0.5), 3.0, 1.0, 0.1, stream_rng(6, 0))
        assert path.origin == 3.0
        assert path.times[0] == 0.0
        assert path.times[-1] == pytest.approx(1.0)
        assert np.all(np.diff(path.times) > 0.0)

    def test_jump_adapted_nodes(self):
        path = sample_path(StableParams(0.4), 0.0, 10.0, 0.01, stream_rng(7, 0))
        block = sample_block(StableParams(0.4), 0.0, 10.0, 0.01, stream_rng(7, 0))
        grid = block.times[0, ::2]
        assert len(path.times) > len(grid)
        # uniform-grid nodes and their values are preserved
        mask = np.isin(path.times, grid)
        assert np.array_equal(path.values[mask], block.values[0, ::2])

    def test_killing_consistency(self):
        q, horizon = 0.5, 2.0
        killed = 0
        for i in range(2000):
            path = sample_path(
                StableParams(0.5), 0.0, horizon, 0.1, stream_rng(8, i),
                killing=KillingSpec(q),
            )
            if path.killed_at is not None:
                killed += 1
                assert path.killed_at <= horizon
                assert path.times[-1] < path.killed_at
                assert path.end_time == path.killed_at
        expected = 1.0 - math.exp(-q * horizon)
        assert killed / 2000 == pytest.approx(expected, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_path(StableParams(0.5), 0.0, -1.0, 0.1, stream_rng(0, 0))
        for z, horizon, step in ((math.nan, 1.0, 0.1), (0.0, math.inf, 0.1),
                                 (0.0, math.nan, 0.1), (0.0, 1.0, math.inf)):
            with pytest.raises(ValueError):
                sample_path(StableParams(0.5), z, horizon, step, stream_rng(0, 0))
        with pytest.raises(ValueError):
            StableParams(2.5)
        with pytest.raises(ValueError):
            KillingSpec(0.0)


class TestGridCells:
    @pytest.mark.parametrize(
        "horizon, step",
        [(1.0, -1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, 0.0),
         (1.0, math.nan), (1.0, math.inf), (0.0, 1.0), (-1.0, 1.0), (1e300, 1e-300)],
    )
    def test_horizon_and_step_must_be_finite_and_positive(self, horizon, step):
        with pytest.raises(ValueError, match="finite and positive"):
            grid_cells(horizon, step)


class TestCellDwell:
    """`cell_dwell` is the one cut rule: the time to the next node or to the
    end, and nothing from the end on."""

    @pytest.mark.parametrize("killing", [None, KillingSpec(0.1)])
    def test_equals_node_differences_on_sampled_paths(self, killing):
        killed = 0
        for seed in range(40):
            path = sample_path(StableParams(0.5), 0.0, 10.0, 0.1, stream_rng(seed, 0), killing)
            killed += path.killed_at is not None
            expected = np.diff(np.append(path.times, path.end_time))
            assert cell_dwell(path.times, path.end_time).tobytes() == expected.tobytes()
        assert 0 < killed < 40 if killing else killed == 0

    def test_killed_blocks(self):
        block = sample_block(
            StableParams(0.5), 0.0, 10.0, 0.1, stream_rng(5, 0), KillingSpec(0.2), rows=300
        )
        killed = block.killed_at <= block.horizon
        assert killed.any() and not killed.all()
        assert np.any(block.times[:, 1::2] < block.times[:, 2::2])
        assert np.all(np.diff(block.times, axis=1) >= 0.0)
        end = np.minimum(block.killed_at, block.horizon)
        dwell = cell_dwell(block.times, end)
        assert np.all(dwell >= 0.0)
        assert np.all(dwell[block.times >= block.killed_at[:, None]] == 0.0)
        assert dwell.sum(axis=1) == pytest.approx(end, rel=1e-12)


class TestPathSampleCsv:
    def test_round_trip(self):
        path = sample_path(StableParams(0.5), 1.0, 1.0, 0.25, stream_rng(9, 0))
        back = PathSample.from_csv(path.to_csv(), horizon=path.horizon)
        assert np.array_equal(back.times, path.times)
        assert np.array_equal(back.values, path.values)

    def test_round_trip_killed(self):
        path = None
        for i in range(100):
            cand = sample_path(
                StableParams(0.5), 0.0, 2.0, 0.1, stream_rng(10, i),
                killing=KillingSpec(1.0),
            )
            if cand.killed_at is not None:
                path = cand
                break
        assert path is not None
        back = PathSample.from_csv(path.to_csv(), horizon=path.horizon)
        assert back.killed_at == path.killed_at
        assert np.array_equal(back.values, path.values)

    @pytest.mark.parametrize("text", [
        "# killed_at=nan\nt,x\n0.0,0.0\n",
        "t,x\n0.0,0.0\nnan,1.0\n",
        "t,x\nnan,0.0\n",
        "t,x\n0.0,nan\n",
        "t,x\n",
        "",
        "t,x\n0,0\ninf,1\n",
        "t,x\n-inf,0\n0,1\n",
        "t,x\n0\n",
    ])
    def test_nan_or_empty_is_refused(self, text):
        with pytest.raises(ValueError):
            PathSample.from_csv(text)

    def test_malformed_row_is_quoted(self):
        with pytest.raises(ValueError, match="a path CSV row must be t,x, got '0,0,0'"):
            PathSample.from_csv("t,x\n0,0,0\n")

    def test_nan_horizon_is_refused_and_infinite_values_are_kept(self):
        with pytest.raises(ValueError):
            PathSample(np.array([0.0]), np.array([0.0]), horizon=math.nan)
        with pytest.raises(ValueError):
            PathSample(np.array([0.0]), np.array([0.0]), horizon=math.inf)
        path = PathSample.from_csv("t,x\n0.0,0.0\n0.5,inf\n0.75,-inf\n", horizon=1.0)
        assert path.values.tolist() == [0.0, math.inf, -math.inf]
