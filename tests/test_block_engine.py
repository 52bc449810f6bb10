"""The block replicate engine: its outputs are pinned by sha256 digests, and
its blocks equal paths built node by node.

Chunk c of the replicates of a run draws from `stream_rng(seed, c)`.  The
eight path-estimator digests were recorded when that scheme replaced one
stream per replicate, when the finiteness rule moved to block cells, and
when killed hitting began to count a path killed before it hit as a miss;
`tests/test_occupation.py` checks the sampler against the Green function
on both sides of that change.  The freeze, explosion and finiteness_killed
digests were re-recorded when rows alive at the horizon began to be
completed from their last value, which `tests/test_completion.py` checks
against exact answers.  Replicate counts are chosen so that every run
spans several blocks and ends on a partial one.  The unkilled `hitting`
digest was recorded when walkers far from a union began to be finished by
a coin against their exact chance (`tests/test_equilibrium.py` checks
that chance and the walker on the same union); its 300 walkers make one
partial chunk, and runs of several chunks are checked in `test_hitting.py`.
`WALK_GOLDEN` pins the codes of walkers towards one interval, at the
default WALK_FINISH and at 2 lengths, where most walkers are finished by a
coin against their exact chance; those digests were recorded while every
finished walker's chance was still computed, and the one at alpha 0.05 and
the default WALK_FINISH again when the capacity miss, which acted there
before the finish, was removed.  The `simulate_killed` and
`solve` digests date from the engine that drew one `sample_path` per
replicate; a single path is the one-row block, so they never moved.
"""

import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from stablesde import experiments, functionals, stable
from stablesde.cli import main
from stablesde.experiments import ExperimentConfig, run_experiment
from stablesde.funcspec import FunctionSpec, Piece, PowerForm
from stablesde.functionals import Thresholds, _contributions, path_integral
from stablesde.integrals import hitting_probability, tail_kernel_finiteness
from stablesde.intervals import IntervalSet
from stablesde.stable import KillingSpec, StableParams, cell_dwell, sample_path, stream_rng

TWO_INTERVALS = IntervalSet.of((1.0, 2.0), (-4.0, -3.0))
#: sigma = x^2 outside [-1, 1]: fast enough growth for the clock to run out
QUADRATIC_TAILS = FunctionSpec(
    (
        Piece(-math.inf, -1.0, PowerForm(1.0, 2.0, 0.0)),
        Piece(-1.0, 1.0, PowerForm(1.0)),
        Piece(1.0, math.inf, PowerForm(1.0, 2.0, 0.0)),
    )
)

CASES = {
    "finiteness_killed": dict(
        estimator="finiteness_prob",
        f_or_sigma=FunctionSpec.infinite_indicator(IntervalSet.of((1.0, 2.0))),
        z=(0.0, -3.0), replicates=400, horizon=100.0, step=1.0, seed=7,
        thresholds=Thresholds(r=1e4), killing=KillingSpec(0.02),
    ),
    "hitting": dict(
        estimator="hitting_prob", f_or_sigma=FunctionSpec.constant(1.0),
        target=TWO_INTERVALS, z=(0.0, -5.0), replicates=300,
        horizon=1000.0, step=1.0, seed=31337,
    ),
    "hitting_killed": dict(
        estimator="hitting_prob", f_or_sigma=FunctionSpec.constant(1.0),
        target=TWO_INTERVALS, z=(0.0, -5.0), replicates=300,
        horizon=1000.0, step=1.0, seed=4242, killing=KillingSpec(0.002),
    ),
    "freeze": dict(
        estimator="freeze_prob",
        f_or_sigma=FunctionSpec.indicator_complement(IntervalSet.of((1.0, 2.0))),
        z=(0.0, 3.0), replicates=400, horizon=10.0, step=0.1, seed=55,
    ),
    "explosion": dict(
        estimator="explosion_prob", f_or_sigma=QUADRATIC_TAILS, z=(0.0, 3.0),
        replicates=200, horizon=10.0, step=0.1, seed=11,
        thresholds=Thresholds(r=30.0),
    ),
    # sigma^-alpha = |x|^-0.75: infinite pole cell, every path from 0 freezes
    "freeze_pole_15": dict(
        estimator="freeze_prob", f_or_sigma=FunctionSpec.power(1.5),
        z=(0.0, 0.5), replicates=400, horizon=10.0, step=0.1, seed=77,
        thresholds=Thresholds(m=20.0),
    ),
    # sigma^-alpha = |x|^-0.25: the pole cell adds a finite kernel integral
    "freeze_pole_05": dict(
        estimator="freeze_prob", f_or_sigma=FunctionSpec.power(0.5),
        z=(0.0, 0.5), replicates=400, horizon=10.0, step=0.1, seed=78,
        thresholds=Thresholds(m=8.0),
    ),
    "smalltime": dict(
        estimator="smalltime_finiteness",
        f_or_sigma=FunctionSpec.power(0.5).inverse_power(0.5), z=(0.0, 0.01),
        replicates=500, horizon=0.01, step=0.001, seed=607,
        thresholds=Thresholds(m=0.2),
    ),
    "smalltime_killed": dict(
        estimator="smalltime_finiteness",
        f_or_sigma=FunctionSpec.power(0.5).inverse_power(0.5), z=(0.0,),
        replicates=500, horizon=0.01, step=0.001, seed=606,
        thresholds=Thresholds(m=0.2), killing=KillingSpec(200.0),
    ),
}

CLI_CASES = {
    "simulate_killed": [
        "--seed", "5", "simulate", "--alpha", "0.5", "--horizon", "10",
        "--step", "0.1", "--killing", "0.2",
    ],
    "solve": [
        "--seed", "9", "solve", "--alpha", "0.5", "--sigma", "power:|x|^0.5",
        "--horizon", "10", "--step", "0.1",
    ],
}

#: sha256 of each output (see the module docstring for when each was recorded)
GOLDEN = {
    "explosion": "30a659384130800cad153b60dedb13b0e83364db64b5dacc3f4ab7784ccd83c1",
    "finiteness_killed": "5daaf7c1d540238f12374e689040995240b14fc00ffb12447e6f16d9e75e9f9e",
    "freeze": "85f80d6e3bc99086ef79333a2b093ebfa5014fcc72ce0d35710820fd0efde2a1",
    "freeze_pole_05": "1f9078b79aa66353337653040f7fa683df2d8315d2c4b8f0fda6cc722680efe5",
    "freeze_pole_15": "f891afef48a8d4f337caf66411b47308cde459b8a4a68234d3d884fb553128be",
    "hitting": "e263472a7a2ece884176438b7c967d83d11f71029d2c29ed1aaa4aa6a2523d3e",
    "hitting_killed": "32ccf2d39df8eb3123fea2ed00edb12457d70584398774797af13e4768b42b4b",
    "smalltime": "e879988f7f596129114a4ea1200ec930f068676f5356cabd5091373de68f453b",
    "smalltime_killed": "2f5593eae4e8166a8750557f468426e8ff60153618160de7d6cd16177153738c",
    "simulate_killed": "e3b3e7359392c1b394a78dd360b903787b9fbda54f2c82d70cb8b17107c3a9d3",
    "solve": "9226e71ed9045f93aae790ab888cf71ab75f5d52dd9f8c4065e8dd665d755153",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def experiment_digest(name: str) -> str:
    buf = io.StringIO()
    run_experiment(ExperimentConfig(alpha=0.5, **CASES[name]), buf)
    return _sha256(buf.getvalue())


def cli_digest(name: str, tmp_path) -> str:
    out = tmp_path / f"{name}.csv"
    assert main(["--out", str(out)] + CLI_CASES[name]) == 0
    return _sha256(out.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_experiment_bytes_unchanged(name):
    assert experiment_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_bytes_unchanged(name, tmp_path):
    assert cli_digest(name, tmp_path) == GOLDEN[name]


#: sha256 of the codes of 1000 walkers from z = 0, then z = -5, towards
#: [1, 2] at seed 31337, by (alpha, WALK_FINISH)
WALK_GOLDEN = {
    (0.05, 2.0): "40d063767e8d3ad26f2ec770ee5cdef56bb6051e37a516d95425e3b592f68f00",
    (0.5, 2.0): "a12fa884747a526990f41c8cdf746232ec8efc9ee3e43e391f975d2768d4ff21",
    (0.99, 2.0): "c757c59c917e2dffcaa5a584ada3636d6fe635e3ad2d49f2738202575b41f340",
    (0.05, 1e3): "eee6e346f8310efb94d77e554120f9f3a20fa83a7a32d3ea36647aa888f3d8ce",
    (0.5, 1e3): "a171ac68ab42925645aaf4f59307cc56cd11dbd3969841bb5c8eac4b26846bf6",
    (0.99, 1e3): "352d969f4fb74e7fec604dff9605e623f9585d0e677bf3b0e42df226090174c5",
}


@pytest.mark.parametrize("alpha,finish", sorted(WALK_GOLDEN))
def test_single_interval_walk_codes_unchanged(monkeypatch, alpha, finish):
    monkeypatch.setattr(experiments, "WALK_FINISH", finish)
    cfg = ExperimentConfig(
        alpha=alpha, estimator="hitting_prob", f_or_sigma=FunctionSpec.constant(1.0),
        target=IntervalSet.of((1.0, 2.0)), z=(0.0, -5.0), replicates=1000,
        horizon=1000.0, step=1.0, seed=31337,
    )
    digest = hashlib.sha256()
    for z in cfg.z:
        digest.update(experiments._run_replicates(cfg, z).tobytes())
    assert digest.hexdigest() == WALK_GOLDEN[alpha, finish]


def test_cli_cases_are_killed_and_refined():
    """The simulate case is killed before its horizon and both CLI paths
    carry jump-adapted nodes, so the digests cover both mechanisms."""
    params = StableParams(0.5)
    grid = np.linspace(0.0, 10.0, stable.grid_cells(10.0, 0.1) + 1)
    killed = sample_path(params, 0.0, 10.0, 0.1, stream_rng(5, 0), killing=KillingSpec(0.2))
    assert killed.killed_at is not None
    assert len(killed.times) > np.sum(grid < killed.killed_at)
    driver = sample_path(params, 0.0, 10.0, 0.1, stream_rng(9, 0))
    assert len(driver.times) > len(grid)


def reference_paths(params, z, horizon, step, rng, rows, killing):
    """The paths of a block built node by node, in plain Python, from draws
    taken in the order `sample_block` documents: (rows, n) uniforms, (rows, n)
    exponentials, one uniform per refined cell in row-major order, then rows
    killing times."""
    n = stable.grid_cells(horizon, step)
    dt = horizon / n
    grid = np.linspace(0.0, horizon, n + 1)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=(rows, n))
    w = rng.exponential(1.0, size=(rows, n))
    incs = dt ** (1.0 / params.alpha) * stable._cms(params.alpha, u, w)
    refined = np.abs(incs) > stable.JUMP_FACTOR * step ** (1.0 / params.alpha)
    eps = np.finfo(float).eps
    jumps = iter(rng.uniform(eps, 1.0 - eps, size=int(refined.sum())).tolist())
    taus = rng.exponential(1.0 / killing.q, size=rows).tolist() if killing else [math.inf] * rows
    paths = []
    for i in range(rows):
        times, values, total = [0.0], [z], 0.0
        for k in range(n):
            total += incs[i, k]
            if refined[i, k]:
                times.append(grid[k] + dt * next(jumps))
                values.append(total + z)
            times.append(grid[k + 1])
            values.append(total + z)
        tau = taus[i]
        kept = [j for j, t in enumerate(times) if j == 0 or t < tau]
        paths.append(stable.PathSample(
            np.array(times)[kept], np.array(values)[kept], horizon=horizon,
            killed_at=tau if tau <= horizon else None,
        ))
    return paths


def assert_same_path(row, ref):
    assert np.array_equal(row.times, ref.times)
    assert np.array_equal(row.values, ref.values)
    assert row.killed_at == ref.killed_at
    assert row.horizon == ref.horizon


def unrefined(block):
    """The block with its jump times cleared: each odd node sits at the next
    grid time, so each row is its grid skeleton."""
    times = block.times.copy()
    times[:, 1::2] = times[:, 2::2]
    return dataclasses.replace(block, times=times)


def grid_skeleton(path, grid):
    """The path without the nodes it has off the grid."""
    keep = np.isin(path.times, grid)
    return stable.PathSample(
        path.times[keep], path.values[keep], horizon=path.horizon, killed_at=path.killed_at
    )


def test_one_row_block_is_sample_path():
    """`sample_path` is the one-row block, and both draw in the order of
    the node-by-node reference."""
    params, z, horizon, step = StableParams(0.5), 0.5, 50.0, 0.5
    for killing in (None, KillingSpec(0.05)):
        for seed in range(5):
            path = sample_path(params, z, horizon, step, stream_rng(seed, 0), killing=killing)
            block = stable.sample_block(
                params, z, horizon, step, stream_rng(seed, 0), killing=killing
            )
            (ref,) = reference_paths(params, z, horizon, step, stream_rng(seed, 0), 1, killing)
            assert len(block) == 1
            assert_same_path(block.path(0), ref)
            assert_same_path(path, ref)


@pytest.mark.parametrize("killing", [None, KillingSpec(0.05)])
@pytest.mark.parametrize("refined", [True, False])
def test_block_rows_match_sample_path(killing, refined):
    """Every row of a block drawn from one generator is the path the
    node-by-node reference builds from the same generator; with the jump
    times cleared, every row is the grid skeleton of that path."""
    params, z, horizon, step, seed, rows = StableParams(0.5), 0.5, 50.0, 0.5, 2024, 40
    block = stable.sample_block(
        params, z, horizon, step, stream_rng(seed, 0), killing=killing, rows=rows
    )
    refs = reference_paths(params, z, horizon, step, stream_rng(seed, 0), rows, killing)
    assert np.any(block.times[:, 1::2] < block.times[:, 2::2])
    if not refined:
        block = unrefined(block)
        refs = [grid_skeleton(ref, block.times[0, ::2]) for ref in refs]
    assert len(block) == rows
    for i, ref in enumerate(refs):
        assert_same_path(block.path(i), ref)
    killed = sum(ref.killed_at is not None for ref in refs)
    assert killed > 0 if killing else killed == 0


#: (sigma, z, thresholds): a finite and an infinite pole cell at z = 0,
#: infinite intervals of sigma^-alpha, and drivers whose clock runs out
CLOCK_CASES = {
    "pole_05": (FunctionSpec.power(0.5), 0.0, Thresholds(m=8.0)),
    "pole_15": (FunctionSpec.power(1.5), 0.0, Thresholds()),
    "intervals": (
        FunctionSpec.indicator_complement(IntervalSet.of((1.0, 2.0))), 0.0, Thresholds()
    ),
    "explosion": (QUADRATIC_TAILS, 0.0, Thresholds(r=30.0)),
}


def _old_smalltime(path, f, alpha, m):
    """The small-time rule as it read a PathSample: the contribution of the
    first cell with positive dwell."""
    contrib = _contributions(path.values, cell_dwell(path.times, path.end_time), f, alpha)
    dwell = np.diff(np.append(path.times, path.end_time))
    occupied = np.flatnonzero(dwell > 0.0)
    if occupied.size == 0:
        return -1
    return int(contrib[occupied[0]] < m)


@pytest.mark.parametrize("killing", [None, KillingSpec(0.2)])
@pytest.mark.parametrize("refined", [True, False])
@pytest.mark.parametrize("case", sorted(CLOCK_CASES))
def test_block_verdicts_match_paths(case, refined, killing):
    """The clock and the verdicts read off the cell arrays of a block equal
    those of `_clock` and the old small-time rule on each row's PathSample,
    also with the block's jump times cleared."""
    sigma, z, thresholds = CLOCK_CASES[case]
    alpha, rows, horizon = 0.5, 1000, 10.0
    f = sigma.inverse_power(alpha)
    block = stable.sample_block(
        StableParams(alpha), z, horizon, 0.1, stream_rng(8, 0), killing=killing, rows=rows
    )
    if not refined:
        block = unrefined(block)
    paths = [block.path(i) for i in range(rows)]
    # free memory of the cells' size holding -1, so an entry cells() leaves
    # unset is likely to read -1 instead of the zero of fresh pages
    np.full((2, *block.times.shape), -1.0)
    values, dwell = block.cells()
    n = stable.grid_cells(horizon, 0.1)
    assert values.shape == dwell.shape == block.times.shape == (rows, 2 * n + 1)
    last = np.array([p.values[-1] for p in paths])
    contrib, cum, k, freezes, explodes = functionals._clock_rows(
        values, dwell, last, f, alpha, thresholds
    )
    cfg = ExperimentConfig(
        alpha=alpha, f_or_sigma=f, z=(z,), replicates=1, horizon=horizon, step=0.1,
        estimator="smalltime_finiteness", thresholds=thresholds,
    )
    smalltime = experiments._smalltime_codes(cfg, f, block)
    for i, path in enumerate(paths):
        p_contrib, p_cum, p_k, p_freezes, p_explodes = functionals._clock(
            path, f, alpha, thresholds
        )
        path_dwell = np.diff(np.append(path.times, path.end_time))
        occupied = dwell[i] > 0.0
        assert np.array_equal(dwell[i][occupied], path_dwell[path_dwell > 0.0])
        assert np.all(dwell[i][~occupied] == 0.0)
        assert np.array_equal(values[i][occupied], path.values[path_dwell > 0.0])
        assert np.array_equal(contrib[i][occupied], p_contrib[path_dwell > 0.0])
        assert cum[i, -1] == p_cum[-1]
        assert (k[i] >= 0) == (p_k is not None)
        if p_k is not None:
            assert cum[i, k[i] + 1] == p_cum[p_k + 1]
        assert functionals._EXPLODES[int(freezes[i])] == p_freezes
        assert functionals._EXPLODES[int(explodes[i])] == p_explodes
        assert smalltime[i] == _old_smalltime(path, f, alpha, thresholds.m)
    if case == "explosion":
        # no interval where f = +inf and a finite tail: every row explodes
        assert set(explodes.tolist()) == {1}
    else:
        assert 0 < int(np.sum(k >= 0)) < rows or case == "pole_15"


def _old_finiteness(cfg, f, path):
    """The finiteness rule on a PathSample, row by row, with left-point sums
    and without coins.  A row whose sum reached M is infinite, and one
    killed by the horizon finite.  A row alive at the horizon may still
    enter an interval where f = +inf, with chance p from its last value:
    on a killed driver it is undetermined where p > 0, as it may be killed
    first; on an unkilled one it is infinite where p = 1 or the tail
    integral of f is infinite, and undetermined where p > 0.  Otherwise it
    is finite."""
    total = path_integral(path, f, path.horizon)
    if not total < cfg.thresholds.m:
        return 0
    if path.killed_at is not None:
        return 1
    last = float(path.values[-1])
    p = max((hitting_probability(cfg.alpha, last, ab) for ab in f.infinite_intervals().intervals),
            default=0.0)
    if cfg.killing is None and (p == 1.0 or tail_kernel_finiteness(cfg.alpha, f) == "infinite"):
        return 0
    return -1 if p > 0.0 else 1


#: integrands without pole points, so left-point and alpha-aware cells agree
FINITENESS_CASES = {
    "infinite_indicator": FunctionSpec.infinite_indicator(IntervalSet.of((1.0, 2.0))),
    "indicator_complement": FunctionSpec.indicator_complement(IntervalSet.of((-1e4, 1e4))),
    "power": FunctionSpec.power(0.5, c=1e-3),
}


@pytest.mark.parametrize("killing", [None, KillingSpec(0.02)])
@pytest.mark.parametrize("case", sorted(FINITENESS_CASES))
def test_finiteness_off_poles_matches_path_rule(case, killing):
    """Off the pole points of f, the finiteness rule on block cells gives
    every row the code the left-point rule gave its PathSample."""
    f = FINITENESS_CASES[case]
    cfg = ExperimentConfig(
        alpha=0.5, f_or_sigma=f, z=(0.0,), replicates=1, horizon=100.0, step=1.0,
        estimator="finiteness_prob", thresholds=Thresholds(m=50.0, r=100.0), killing=killing,
    )
    codes = []
    for z in (0.0, 0.3, -3.0):
        block = stable.sample_block(
            StableParams(0.5), z, cfg.horizon, cfg.step, stream_rng(3, 0),
            killing=killing, rows=500,
        )
        new = experiments._clock_codes(cfg, f, block)
        assert new.tolist() == [_old_finiteness(cfg, f, block.path(i)) for i in range(500)]
        codes += new.tolist()
    if killing is None and case != "infinite_indicator":
        # the tail of f is infinite: every integral is, exactly
        assert set(codes) == {0}
    else:
        assert len(set(codes)) > 1


def test_finiteness_of_rows_alive_at_the_horizon():
    """f = 1 on [4, 6) and 0 elsewhere is never +inf and has a finite tail,
    so every row whose sum stays below M is finite, wherever its mass lies
    and whatever f is at its last value; nothing counts after a kill at
    1.5.  The same 4 rows were coded [1, -1, -1, 1] by the stagnation test
    of a half-window, which this rule replaced."""
    f = FunctionSpec.indicator_complement(IntervalSet.of((-math.inf, 4.0), (6.0, math.inf)))
    # nodes 2k and 2k + 1 hold grid values k and k + 1 from grid time k on
    times = np.tile([0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0], (4, 1))
    values = np.array([
        [0.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0],
        [0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0],
    ])
    block = stable.PathBlock(times, values, np.array([math.inf, math.inf, math.inf, 1.5]), 4.0)
    cfg = ExperimentConfig(
        alpha=0.5, f_or_sigma=f, z=(0.0,), replicates=1, horizon=4.0, step=1.0,
        estimator="finiteness_prob", thresholds=Thresholds(m=100.0),
    )
    assert experiments._clock_codes(cfg, f, block).tolist() == [1, 1, 1, 1]


@pytest.mark.parametrize("estimator, sigma", [
    ("freeze_prob", FunctionSpec.power(1.5)),
    ("explosion_prob", QUADRATIC_TAILS),
    ("smalltime_finiteness", FunctionSpec.power(0.5).inverse_power(0.5)),
    ("finiteness_prob", FunctionSpec.power(0.5).inverse_power(0.5)),
])
def test_block_rules_read_cells(monkeypatch, estimator, sigma):
    """Freeze, explosion, small-time and finiteness never expand a row into
    a PathSample, and look the tail integral up at most once per block."""
    expanded, tails = [], []
    path, tail = stable.PathBlock.path, functionals.tail_kernel_finiteness
    monkeypatch.setattr(
        stable.PathBlock, "path", lambda self, i: expanded.append(i) or path(self, i)
    )
    monkeypatch.setattr(
        functionals, "tail_kernel_finiteness", lambda a, f: tails.append(a) or tail(a, f)
    )
    cfg = ExperimentConfig(
        alpha=0.5, f_or_sigma=sigma, z=(0.0, 3.0), replicates=700, horizon=10.0,
        step=0.1, estimator=estimator, thresholds=Thresholds(r=30.0),
    )
    run_experiment(cfg, io.StringIO())
    size = experiments.BLOCK_CELLS // experiments.grid_cells(cfg.horizon, cfg.step)
    blocks = len(cfg.z) * math.ceil(cfg.replicates / size)
    assert 1 < size < cfg.replicates
    assert expanded == []
    assert len(tails) <= blocks
    if estimator == "explosion_prob":
        assert len(tails) == blocks
