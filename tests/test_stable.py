import math
import os
import re
import select
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import stats

from stablesde import stable
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


    def test_tiny_alpha_variates_are_never_nan(self):
        """At alpha = 0.005 a factor of the transform leaves the float range,
        and inf * 0 gave NaN: the variates that are not finite are recomputed
        from logarithms, and the finite ones keep the plain transform's bits."""
        alpha, rng = 0.005, stream_rng(3, 0)
        u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, 1000)
        w = rng.exponential(1.0, 1000)
        with np.errstate(all="ignore"):
            plain = (
                np.sin(alpha * u)
                / np.cos(u) ** (1.0 / alpha)
                * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
            )
        assert np.isnan(plain).sum() == 6
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = stable._cms(alpha, u, w)
        finite = np.isfinite(plain)
        assert x[finite].tobytes() == plain[finite].tobytes()
        assert not np.isnan(x).any() and np.isinf(x).any()
        assert (np.sign(x[~finite]) == np.sign(u[~finite])).all()

    def test_a_path_that_leaves_the_float_range_stays_at_infinity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            block = sample_block(StableParams(0.005), 1.0, 1000.0, 1.0, stream_rng(3, 0), rows=8)
        assert not np.isnan(block.values).any()
        left = 0
        for row in block.values:
            out = np.flatnonzero(np.isinf(row))
            if out.size:
                left += 1
                assert (row[out[0]:] == row[out[0]]).all()
        assert left > 0


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

    @pytest.mark.parametrize("rows", [0, -1])
    def test_block_of_no_rows_refused(self, rows):
        with pytest.raises(ValueError, match="rows must be >= 1"):
            sample_block(StableParams(0.5), 0.0, 1.0, 0.1, stream_rng(0, 0), rows=rows)


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


def killed_path() -> PathSample:
    """The first path of streams (10, i) that is killed before its horizon 2."""
    for i in range(100):
        path = sample_path(
            StableParams(0.5), 0.0, 2.0, 0.1, stream_rng(10, i), killing=KillingSpec(1.0),
        )
        if path.killed_at is not None:
            return path
    raise AssertionError("no killed path in 100 streams")


class TestPathSampleCsv:
    def test_round_trip(self):
        path = sample_path(StableParams(0.5), 1.0, 1.0, 0.25, stream_rng(9, 0))
        back = PathSample.from_csv(path.to_csv(), horizon=path.horizon)
        assert np.array_equal(back.times, path.times)
        assert np.array_equal(back.values, path.values)

    def test_round_trip_killed(self):
        path = killed_path()
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

    @pytest.mark.parametrize("times, values, horizon, killed_at, message", [
        ([0.0, 0.5], [0.0], 1.0, None, "nonempty and aligned"),
        ([], [], 1.0, None, "nonempty and aligned"),
        ([0.0, 1.5], [0.0, 1.0], 1.0, None, "beyond the horizon"),
        ([0.0, 0.5], [0.0, 1.0], 1.0, 0.5, "after the killing time"),
        ([0.0, 0.5], [0.0, 1.0], 1.0, 0.25, "after the killing time"),
        ([0.0], [0.0], 1.0, 2.0, "after the killing time"),
    ])
    def test_skeleton_refused(self, times, values, horizon, killed_at, message):
        """Misaligned or empty arrays, a grid beyond the horizon, and a node
        at or after the killing time (or a killing after the horizon)."""
        with pytest.raises(ValueError, match=message):
            PathSample(np.array(times), np.array(values), horizon, killed_at)


#: floats whose repr takes every form: signed zeros and infinities,
#: subnormals, and the switches to and from exponent form at 1e16 and 1e-5
SPECIAL = [0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
           1e16, 9999999999999998.0, 1e-05, 9.999999999999999e-06, 0.0001, -1e300, 0.1]
#: row counts below, at and above one and two slices' minimum, and the
#: rows of a 1e5-cell path from the paths benchmark
ROW_COUNTS = (stable._SLICE_ROWS - 1, stable._SLICE_ROWS, 2 * stable._SLICE_ROWS - 1,
              2 * stable._SLICE_ROWS, 2 * stable._SLICE_ROWS + 1, 122290)


def set_cpus(monkeypatch, k: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def no_fd_left():
    """Fails a test that leaves a file descriptor open, such as a pipe end."""
    before = sorted(os.listdir("/dev/fd"))
    yield
    assert sorted(os.listdir("/dev/fd")) == before


@pytest.fixture(scope="module")
def node_columns():
    """Two columns of 122 290 floats over the whole exponent range, the
    SPECIAL values spread through them, and their rows as per-row reprs."""
    rng = np.random.default_rng(15)
    n = ROW_COUNTS[-1]
    cols = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-320, 300, (2, n))
    cols[0, ::997] = np.resize(SPECIAL, cols[0, ::997].size)
    cols[1, 5::1009] = np.resize(SPECIAL[::-1], cols[1, 5::1009].size)
    a, b = cols.tolist()
    return cols, [f"{x!r},{y!r}\n" for x, y in zip(a, b)]


@pytest.mark.usefixtures("no_fd_left")
class TestNodeCsv:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_same_bytes_for_any_slice_count(self, monkeypatch, node_columns, rows):
        cols, lines = node_columns
        comments = {"status": "frozen", "frozen_at": 0.5, "exploded_at": None}
        expected = "# status=frozen\n# frozen_at=0.5\ns,x\n" + "".join(lines[:rows])
        for k in (1, 2, 3, 4):
            set_cpus(monkeypatch, k)
            assert stable._node_csv(comments, "s,x", *cols[:, :rows]) == expected, k
        assert_no_children()

    def test_slices_of_at_least_the_minimum(self, monkeypatch):
        """A table has one worker per usable CPU, but at most one per
        _SLICE_ROWS rows; the forks are counted in this process."""
        forks, fork = [], os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        col = np.arange(3 * stable._SLICE_ROWS - 1, dtype=float)
        set_cpus(monkeypatch, 4)
        stable._node_csv({}, "t", col)
        assert len(forks) == 1
        # the reader forks by the same rule
        forks.clear()
        PathSample.from_csv("t,x\n" + "".join(f"{x!r},{x!r}\n" for x in col.tolist()))
        assert len(forks) == 1
        # without sched_getaffinity the CPU count decides
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        forks.clear()
        big = np.arange(3 * stable._SLICE_ROWS, dtype=float)
        stable._node_csv({}, "t", big)
        assert len(forks) == 2
        # more chunks than the ticket pipe holds (196 KB of tickets against
        # a 64 KiB pipe): this process alone
        forks.clear()
        monkeypatch.setattr(stable, "_CSV_ROWS", 2)
        text = stable._node_csv({}, "t", big)
        assert forks == [] and text == "t\n" + "".join(f"{x!r}\n" for x in big.tolist())
        # without os.fork there is one worker
        monkeypatch.delattr(os, "fork")
        text = stable._node_csv({}, "t", col)
        assert text == "t\n" + "".join(f"{x!r}\n" for x in col.tolist())
        assert_no_children()

    def test_failing_child_raises_and_is_reaped(self, monkeypatch):
        """A child that fails is a RuntimeError, in the writer and the
        reader alike.  Each child's chunk raises MemoryError after it
        signals a pipe, and this process waits (10 s at most) for both
        signals before its first chunk, so each child claims one."""
        parent, pooled = os.getpid(), stable._pooled
        signals, signal = os.pipe()

        def chunks(work, place, count, rows):
            waiting = [2]

            def chunk(i):
                if os.getpid() != parent:
                    os.write(signal, b"1")
                    raise MemoryError(f"chunk {i}")
                while waiting[0] and select.select([signals], [], [], 10)[0]:
                    waiting[0] -= len(os.read(signals, 1))
                return work(i)

            return pooled(chunk, place, count, rows)

        monkeypatch.setattr(stable, "_pooled", chunks)
        set_cpus(monkeypatch, 3)
        col = np.zeros(3 * stable._SLICE_ROWS)
        try:
            with pytest.raises(RuntimeError, match="^2 of 2 forked CSV workers failed$"):
                stable._node_csv({}, "t", col)
            assert_no_children()
            with pytest.raises(RuntimeError, match="^2 of 2 forked CSV workers failed$"):
                PathSample.from_csv("t,x\n" + "0.0,0.0\n" * len(col))
            assert_no_children()
        finally:
            os.close(signals)
            os.close(signal)

    def test_failing_parent_slice_reaps_its_children(self, monkeypatch):
        """This process raises on its first chunk; it takes the tickets
        left, so each child stops after the chunk it holds, and reaps them
        before the error leaves."""
        parent, pooled = os.getpid(), stable._pooled

        def chunks(work, place, count, rows):
            def chunk(i):
                if os.getpid() == parent:
                    raise MemoryError(f"chunk {i}")
                return work(i)

            return pooled(chunk, place, count, rows)

        monkeypatch.setattr(stable, "_pooled", chunks)
        set_cpus(monkeypatch, 3)
        with pytest.raises(MemoryError, match="^chunk "):
            stable._node_csv({}, "t", np.zeros(3 * stable._SLICE_ROWS))
        assert_no_children()


def reference_from_csv(cls, text: str, horizon: float | None = None):
    """The line-by-line reader that `PathSample.from_csv` replaced: the
    reference for what the one-pass reader accepts, refuses and returns."""
    killed_at = None
    times, values = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "t,x":
            continue
        if line.startswith("#"):
            if "killed_at=" in line:
                killed_at = float(line.split("killed_at=")[1])
            continue
        row = line.split(",")
        if len(row) != 2:
            raise ValueError(f"a path CSV row must be t,x, got {line!r}")
        times.append(float(row[0]))
        values.append(float(row[1]))
    if not times:
        raise ValueError("a path CSV needs at least one row")
    if horizon is None:
        horizon = killed_at if killed_at is not None else times[-1]
    return cls(np.array(times), np.array(values), horizon=horizon, killed_at=killed_at)


class Unchecked(PathSample):
    """A PathSample that keeps what it is given unchecked, so that two
    readers' parses compare before PathSample's own refusals."""

    def __post_init__(self):
        pass


def read_outcome(read):
    """The ValueError message of read(), or the exact bytes of what it read
    (so -0.0 keeps its sign) and the reprs of its horizon and killing time
    (so their types count too)."""
    try:
        path = read()
    except ValueError as err:
        return str(err)
    return (np.asarray(path.times).dtype, path.times.tobytes(), path.values.tobytes(),
            repr(path.horizon), repr(path.killed_at))


def assert_reads_as_reference(text: str) -> None:
    for cls in (Unchecked, PathSample):
        new = read_outcome(lambda: cls.from_csv(text))
        assert new == read_outcome(lambda: reference_from_csv(cls, text)), (cls, text[:200])


#: texts valid in other forms than the writer's, and texts with errors
#: in several places, where the first error in line order must win
HAND_MADE = [
    "t,x\n0,1\n# note\n1,2\n# killed_at=3\n2,3\n# after the last row\n",
    "# killed_at=5\nt,x\n0,1\n# killed_at=4\n1,2\n",
    "t,x\n\n0,1\n   \n\t\n1,2\n\n",
    "t,x\r\n0,1\r\n1,2\r\n",
    "t,x\r0,1\r1,2\r",
    "t,x\n 0 , 1 \n\t1\t,\t2\t\n",
    "t,x\n0,1\n1,2",
    "t,x\n0,1\nt,x\n1,2\n t,x \nt,x\n",
    "   # killed_at=2.5  \n t,x\n0,1\n",
    "t,x\n0,1\x0b1,2\x0c2,3\x1c3,4\x1d4,5\x1e5,6\x856,7 7,8 8,9\n",
    "t,x\n0 ,　1\n١,٢\n",
    "t,x\n1_0,2_0\n20,infinity\n30,-NaN\n",
    "t,x\n0,1\n# killed_at=x\n1,2,3\n",
    "t,x\n0,1,2\n# killed_at=x\n",
    "t,x\nx,1\n0\n",
    "t,x\n0\nx,1\n",
    "t,x\n0,1\n1,\ud800\n",
    "t,x\n1\x0b,2\n",
    "# killed_at=1,2\nt,x\n0,0\n",
    "# killed_at=\nt,x\n",
    "#\nt,x\n#,#\n",
    "t,x\n  \n",
    "\n\n",
    "t,x\n0,1\n1,0\n",
    "# killed_at=x\nt,x\ny,1\n",
    "a,b\nt,x\nc,d\n",
]


class TestPathCsvReader:
    @pytest.mark.usefixtures("no_fd_left")
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_writer_output(self, monkeypatch, node_columns, rows):
        # the bytes _node_csv writes for these columns (TestNodeCsv), read
        # by 1 to 4 workers
        _, lines = node_columns
        for k in (1, 2, 3, 4):
            set_cpus(monkeypatch, k)
            assert_reads_as_reference("t,x\n" + "".join(lines[:rows]))
        assert_no_children()

    def test_special_values(self):
        path = PathSample(np.arange(len(SPECIAL), dtype=float), np.array(SPECIAL), horizon=20.0)
        assert_reads_as_reference(path.to_csv())
        assert PathSample.from_csv(path.to_csv()).values.tobytes() == path.values.tobytes()
        assert_reads_as_reference("t,x\n" + "".join(f"{s!r},{s!r}\n" for s in SPECIAL))

    def test_killed_path(self):
        text = killed_path().to_csv()
        assert text.startswith("# killed_at=")
        assert_reads_as_reference(text)

    @pytest.mark.parametrize("text", HAND_MADE)
    def test_hand_made(self, text):
        assert_reads_as_reference(text)

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    def test_errors_on_every_line_of_several_blocks(self, monkeypatch, rows_per_block):
        monkeypatch.setattr(stable, "_CSV_ROWS", rows_per_block)
        good = [f"{k},{k}" for k in range(7)]
        for k in range(7):
            for bad in ("0", "0,0,0", "x,0", "0,", "# killed_at=x", "t,x", ""):
                assert_reads_as_reference("t,x\n" + "\n".join(good[:k] + [bad] + good[k:]))

    @pytest.mark.usefixtures("no_fd_left")
    @pytest.mark.parametrize("bad", [
        {100_001: "x,0.5"},
        {50_000: "0.5,"},
        {20_000: "x,0.5", 110_000: "0.5,"},
        {20_000: ",0.5", 110_000: "x,0.5"},
        {row: f"{row},bad{row}" for row in range(stable._CSV_ROWS + 7, 122290, stable._CSV_ROWS)},
    ])
    def test_errors_at_scale(self, monkeypatch, node_columns, bad):
        """Writer-shaped texts of 122 290 rows, parsed by up to 3 workers,
        with bad fields (x, or empty) in late chunks, in two far-apart
        chunks, or in every chunk but the first: for 1 to 4 CPUs the
        reader raises the reference's ValueError, the first bad field in
        line order, and leaves no child."""
        lines = node_columns[1].copy()
        for row, line in bad.items():
            lines[row] = line + "\n"
        text = "t,x\n" + "".join(lines)
        expected = read_outcome(lambda: reference_from_csv(PathSample, text))
        assert expected.startswith("could not convert string to float: ")
        for k in (1, 2, 3, 4):
            set_cpus(monkeypatch, k)
            assert read_outcome(lambda: PathSample.from_csv(text)) == expected, k
            assert_no_children()

    @pytest.mark.parametrize("text, message", [
        ("t,x\n0\n0,0,0\n", "a path CSV row must be t,x, got '0'"),
        ("t,x\n0,0,\n", "a path CSV row must be t,x, got '0,0,'"),
        ("t,x\n0,\n", "could not convert string to float: ''"),
        ("t,x\n,0\n", "could not convert string to float: ''"),
    ])
    def test_refusals_one_split_would_hide(self, text, message):
        """A line without a comma beside one with two holds as many commas
        as two good lines; a trailing comma makes an empty field."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PathSample.from_csv(text)
        assert_reads_as_reference(text)

    @staticmethod
    def loop_arguments(monkeypatch, text: str) -> list[str]:
        """The texts that reading text passes to `stable._read_lines`."""
        seen, read_lines = [], stable._read_lines

        def recorded(arg):
            seen.append(arg)
            return read_lines(arg)

        monkeypatch.setattr(stable, "_read_lines", recorded)
        PathSample.from_csv(text)
        return seen

    def test_writer_output_takes_the_fast_path(self, monkeypatch, node_columns):
        """Only the comment head of what the writer writes goes through the
        line loop, so the rows of a large path are parsed in chunks."""
        text = killed_path().to_csv()
        head = text[: text.index("t,x\n")]
        assert head.startswith("# killed_at=")
        assert self.loop_arguments(monkeypatch, text) == [head]
        rows = 100_000
        table = stable._node_csv({"killed_at": float(rows)}, "t,x",
                                 np.arange(rows, dtype=float), node_columns[0][1, :rows])
        assert self.loop_arguments(monkeypatch, table) == [f"# killed_at={float(rows)}\n"]

    def test_other_line_breaks_take_the_loop(self, monkeypatch):
        text = killed_path().to_csv().replace("\n", "\r\n")
        assert self.loop_arguments(monkeypatch, text) == [text]


#: pieces of path CSV text: fields, separators, every line break of
#: str.splitlines, whitespace, comments and headers
CSV_PIECES = st.sampled_from([
    "0", "1", "2.5", "-0.0", "inf", "nan", "1e3", "1_0", "x", ",", ",", "\n", "\n", "\n",
    " ", "\t", "\r", "\r\n", "\x0b", "\x1c", "\x85", " ", " ", "#", "# killed_at=",
    "killed_at=", "t,x", "t", "\ud800", "١",
])


@settings(database=None, derandomize=True, deadline=None, max_examples=500)
@given(st.lists(st.one_of(CSV_PIECES, st.text(max_size=2)), max_size=16).map("".join))
def test_reads_any_text_as_the_reference(text):
    assert_reads_as_reference(text)


#: the fields of writer-shaped rows: valid, refused by float, and empty
ROW_FIELDS = st.sampled_from(["0", "2.5", "-0.0", "inf", "nan", "1e3", "1_0", "x", ""])


@seed(20)
@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(
    st.lists(st.lists(CSV_PIECES, max_size=4).map("".join), max_size=3),
    st.lists(st.tuples(ROW_FIELDS, ROW_FIELDS), max_size=8),
)
def test_reads_writer_shaped_text_as_the_reference(head, rows):
    """Text in the writer's shape after any head: an error in the head must
    still come before one in the rows."""
    text = "".join(line + "\n" for line in head) + "t,x\n" + "".join(f"{t},{x}\n" for t, x in rows)
    assert_reads_as_reference(text)
