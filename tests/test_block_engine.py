"""The block replicate engine gives the same bytes as the engine it replaced,
which drew one `sample_path` per replicate from `stream_rng(seed, i)`.

The first eight digests were recorded with that per-replicate engine; the
pole-kernel cases (freeze from z = 0 on a pole of sigma^-alpha, small-time
without killing) with the engine that still expanded every block row into a
`PathSample`, before the block rules read the cell arrays.  Replicate counts
are chosen so that every run spans several blocks and ends on a partial one.
The unkilled `hitting` digest was re-recorded when walk-on-spheres replaced
sampled paths there; its 300 walkers make one partial chunk, and runs of
several chunks are checked in `test_hitting.py`.
"""

import hashlib
import io
import math

import numpy as np
import pytest

from stablesde import experiments, functionals, stable
from stablesde.cli import main
from stablesde.experiments import ExperimentConfig, run_experiment
from stablesde.funcspec import FunctionSpec, Piece, PowerForm
from stablesde.functionals import Thresholds, effective_contributions
from stablesde.intervals import IntervalSet
from stablesde.stable import KillingSpec, StableParams, sample_path, stream_rng

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
    "explosion": "d486e36dc41c5a966d308975fe1b6fba56f6c38e4f5944380c30f9d5ce312980",
    "finiteness_killed": "43f9c7f60c49f4f16a370be11b65d40eaef425ec6bec68ef02108e9d9576916f",
    "freeze": "87b21bc2192d34c6929b6520282021170d22ac4563cbe599738ad93e65f6db2f",
    "freeze_pole_05": "1d8f78951b315f4880f69357c778d90a00035e868bb84a3536cf1b7d792a3485",
    "freeze_pole_15": "04b232725b2e7dcfac363929946b9732727bd7355549259b83c5c102de61b14e",
    "hitting": "3447a3be5aab298e1bb98cd01d5bab957ce6793b335f9dbe48143075a966e6f0",
    "hitting_killed": "e8ade34180aa0cc9a890aad709bdedf2c42e48c7a27d5519f88e199099fe798b",
    "smalltime": "6e0a19894fd1d003071fdf832e030c310e52d58728e45f54f426b68b3ba1e520",
    "smalltime_killed": "4170df4a231ca3858be99fa54436c7e9e3f786bc571251eaaea52f357819820e",
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


def test_cli_cases_are_killed_and_refined():
    """The simulate case is killed before its horizon and both CLI paths
    carry jump-adapted nodes, so the digests cover both mechanisms."""
    params = StableParams(0.5)
    killed = sample_path(params, 0.0, 10.0, 0.1, stream_rng(5, 0), killing=KillingSpec(0.2))
    assert killed.killed_at is not None and killed.grid_kind == "jump-adapted"
    driver = sample_path(params, 0.0, 10.0, 0.1, stream_rng(9, 0))
    assert driver.grid_kind == "jump-adapted"


def test_restarted_stream_matches_new_stream():
    rng = stream_rng(3, 0)
    rng.uniform(size=5)
    rng.integers(0, 7, dtype=np.uint32)  # leaves a buffered half word
    for seed, index in ((31337, 40), (-1, 2**64 + 5), (2**70, 0)):
        stable._restart_stream(rng, seed, index)
        ref = stream_rng(seed, index)
        assert np.array_equal(rng.uniform(size=9), ref.uniform(size=9))
        assert np.array_equal(rng.exponential(size=9), ref.exponential(size=9))
        assert rng.integers(0, 7, dtype=np.uint32) == ref.integers(0, 7, dtype=np.uint32)


@pytest.mark.parametrize("killing", [None, KillingSpec(0.05)])
@pytest.mark.parametrize("jump_adapted", [True, False])
def test_block_rows_match_sample_path(killing, jump_adapted):
    params, z, horizon, step, seed = StableParams(0.5), 0.5, 50.0, 0.5, 2024
    block = stable.sample_block(
        params, z, horizon, step, [stream_rng(seed, i) for i in range(40)],
        killing=killing, jump_adapted=jump_adapted,
    )
    refined = killed = 0
    for i in range(40):
        row = block.path(i)
        ref = sample_path(
            params, z, horizon, step, stream_rng(seed, i),
            killing=killing, jump_adapted=jump_adapted,
        )
        assert np.array_equal(row.times, ref.times)
        assert np.array_equal(row.values, ref.values)
        assert row.killed_at == ref.killed_at
        assert row.grid_kind == ref.grid_kind
        assert row.horizon == ref.horizon
        refined += ref.grid_kind == "jump-adapted"
        killed += ref.killed_at is not None
    assert refined > 0 if jump_adapted else refined == 0
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
    contrib = effective_contributions(path, f, alpha)
    dwell = np.diff(np.append(path.times, path.end_time))
    occupied = np.flatnonzero(dwell > 0.0)
    if occupied.size == 0:
        return -1
    return int(contrib[occupied[0]] < m)


@pytest.mark.parametrize("killing", [None, KillingSpec(0.2)])
@pytest.mark.parametrize("jump_adapted", [True, False])
@pytest.mark.parametrize("case", sorted(CLOCK_CASES))
def test_block_verdicts_match_paths(case, jump_adapted, killing):
    """The clock and the verdicts read off the cell arrays of a block equal
    those of `_clock` and the old small-time rule on each row's PathSample."""
    sigma, z, thresholds = CLOCK_CASES[case]
    alpha, rows, horizon = 0.5, 1000, 10.0
    f = sigma.inverse_power(alpha)
    block = stable.sample_block(
        StableParams(alpha), z, horizon, 0.1, [stream_rng(8, i) for i in range(rows)],
        killing=killing, jump_adapted=jump_adapted,
    )
    paths = [block.path(i) for i in range(rows)]
    # free memory of the cells' size holding -1, so an entry cells() leaves
    # unset is likely to read -1 instead of the zero of fresh pages
    np.full((2, rows, 2 * block.values.shape[1] - 1), -1.0)
    values, dwell = block.cells()
    assert values.shape == dwell.shape == (rows, 2 * (block.values.shape[1] - 1) + 1)
    last = np.array([p.values[-1] for p in paths])
    contrib, cum, k, explodes = functionals._clock_rows(
        values, dwell, last, f, alpha, thresholds, horizon
    )
    cfg = ExperimentConfig(
        alpha=alpha, f_or_sigma=f, z=(z,), replicates=1, horizon=horizon, step=0.1,
        estimator="smalltime_finiteness", thresholds=thresholds,
    )
    smalltime = experiments._smalltime_codes(cfg, f, block)
    for i, path in enumerate(paths):
        p_contrib, p_cum, p_k, p_explodes = functionals._clock(path, f, alpha, thresholds)
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
        assert functionals._EXPLODES[int(explodes[i])] == p_explodes
        assert smalltime[i] == _old_smalltime(path, f, alpha, thresholds.m)
    if case == "explosion":
        assert {-1, 1} <= set(explodes.tolist())
    else:
        assert 0 < int(np.sum(k >= 0)) < rows or case == "pole_15"


@pytest.mark.parametrize("estimator, sigma", [
    ("freeze_prob", FunctionSpec.power(1.5)),
    ("explosion_prob", QUADRATIC_TAILS),
    ("smalltime_finiteness", FunctionSpec.power(0.5).inverse_power(0.5)),
])
def test_block_rules_read_cells(monkeypatch, estimator, sigma):
    """Freeze, explosion and small-time never expand a row into a
    PathSample, and look the tail integral up at most once per block."""
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
