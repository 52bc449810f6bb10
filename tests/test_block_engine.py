"""The block replicate engine gives the same bytes as the engine it replaced,
which drew one `sample_path` per replicate from `stream_rng(seed, i)`.

The digests were recorded with that per-replicate engine. Replicate counts
are chosen so that every run spans several blocks and ends on a partial one.
"""

import hashlib
import io
import math

import numpy as np
import pytest

from stablesde import stable
from stablesde.cli import main
from stablesde.experiments import ExperimentConfig, run_experiment
from stablesde.funcspec import FunctionSpec, Piece, PowerForm
from stablesde.functionals import Thresholds
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

#: sha256 of each output, recorded with the per-replicate engine
GOLDEN = {
    "explosion": "d486e36dc41c5a966d308975fe1b6fba56f6c38e4f5944380c30f9d5ce312980",
    "finiteness_killed": "43f9c7f60c49f4f16a370be11b65d40eaef425ec6bec68ef02108e9d9576916f",
    "freeze": "87b21bc2192d34c6929b6520282021170d22ac4563cbe599738ad93e65f6db2f",
    "hitting": "222f7bfa2d413912b31a90fdf3f277802f9f472de618d850101be10704069459",
    "hitting_killed": "e8ade34180aa0cc9a890aad709bdedf2c42e48c7a27d5519f88e199099fe798b",
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
