"""The exact chance of ever hitting a finite union of bounded intervals,
the potential of its equilibrium measure (`integrals._union_chance`), and
the estimators that read it.

The solve is checked against the closed form of one interval, against
reference values for [-4, -3] U [1, 2] seen from 0 (0.44480 at alpha 0.5,
0.98529 at 0.98 and 0.99641 at 0.995, from collocations at 40 and 80 cells
that agree to 5e-6), for a finite chance that falls with the distance out
to 1e300 on each side, for pieces near 2^70, for positive densities, and
for refusing a union too large to solve.  The Monte Carlo runs take the
configs at which the union bound and the capacity miss read 1.0 (seed 3,
2000 rows or walkers from 0; freeze with horizon 2 and step 0.01): each 95%
Wilson interval must cover its reference value with no replicate left
undetermined.  Points, sizes, seeds and bands were fixed before the tests
were first run.
"""

import io
import json
import math
import warnings

import numpy as np
import pytest

from stablesde.cli import main
from stablesde.experiments import ExperimentConfig, run_experiment
from stablesde.funcspec import FunctionSpec
from stablesde.integrals import (
    EQ_CELLS, EQ_MAX_CELLS, _cell_potentials, _equilibrium, _hitting_chance, _union_chance,
    hitting_probability,
)
from stablesde.intervals import IntervalSet

UNION = IntervalSet.of((-4.0, -3.0), (1.0, 2.0))
REFERENCE = {0.5: 0.44480, 0.98: 0.98529, 0.995: 0.99641}
#: two pieces of the Example 2.2 set, near 2^70 and 2^71
NEAR_2_70 = ((2.0**70 - 2.0**23, 2.0**70), (2.0**71 - 2.0 ** (70 / 3), 2.0**71))
TOO_MANY = EQ_MAX_CELLS // EQ_CELLS + 1


def solved(alpha, pieces, x):
    """The potential of the solved measure at the points x, whatever the
    number of pieces (`_union_chance` takes one piece's closed form)."""
    ends, lo, w, density = _equilibrium(alpha, tuple(pieces))
    return _cell_potentials(alpha, np.subtract.outer(np.asarray(x, float), ends), lo, w) @ density


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_one_piece_solve_matches_the_closed_form(alpha):
    got = solved(alpha, ((1.0, 2.0),), [-2.0])
    assert got == pytest.approx(_hitting_chance(alpha, np.array([-2.0]), 1.0, 2.0), abs=1e-4)


@pytest.mark.parametrize("alpha", sorted(REFERENCE))
def test_two_pieces_match_the_reference(alpha):
    assert hitting_probability(alpha, 0.0, UNION) == pytest.approx(REFERENCE[alpha], abs=1e-4)
    # 1 on each closed piece, its ends included
    assert _union_chance(alpha, UNION.intervals, [-4.0, -3.5, -3.0, 1.0, 2.0]).tolist() == [1.0] * 5


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.995])
def test_chance_falls_with_the_distance_out_to_1e300(alpha):
    """On each side of the hull, finite, in [0, 1], non-increasing as the
    distance grows to 1e300, and 0 at an infinite point, without a warning."""
    d = np.concatenate(([0.0], np.logspace(-12, 300, 313)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in (-4.0 - d, 2.0 + d):
            chance = _union_chance(alpha, UNION.intervals, side)
            assert np.all(np.isfinite(chance)) and np.all((0.0 <= chance) & (chance <= 1.0))
            assert np.all(np.diff(chance) <= 0.0)
            assert chance[0] == 1.0 and chance[1] < 1.0
        assert _union_chance(alpha, UNION.intervals, [-math.inf, math.inf]).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("alpha", [0.5, 0.98])
def test_pieces_near_2_70(alpha):
    """Cells kept as offsets from their piece's right end stay apart, so the
    system is solvable and the chance from 0 and from the gap lies in
    (0, 1), between the larger single chance and the sum of both."""
    for z in (0.0, 2.0**70 + 2.0**69):
        chance = hitting_probability(alpha, z, IntervalSet.of(*NEAR_2_70))
        singles = [hitting_probability(alpha, z, piece) for piece in NEAR_2_70]
        assert 0.0 < chance < 1.0
        assert max(singles) - 1e-4 <= chance <= sum(singles) + 1e-4


@pytest.mark.parametrize("pieces", [UNION.intervals, NEAR_2_70, ((1.0, 2.0),)])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.995])
def test_densities_are_positive(alpha, pieces):
    assert np.all(_equilibrium(alpha, tuple(pieces))[3] > 0.0)


def test_a_union_too_large_is_refused(tmp_path):
    union = IntervalSet.of(*((3.0 * k, 3.0 * k + 1.0) for k in range(TOO_MANY)))
    with pytest.raises(ValueError):
        hitting_probability(0.5, -1.0, union)
    config = tmp_path / "cfg.json"
    for doc in (
        {"estimator": "hitting_prob", "f_or_sigma": "const:1", "target": json.loads(union.to_json())},
        {"estimator": "freeze_prob",
         "f_or_sigma": json.loads(FunctionSpec.indicator_complement(union).to_json())},
    ):
        config.write_text(json.dumps(
            dict(doc, alpha=0.5, z=[-1.0], replicates=10, horizon=1.0, step=0.1)
        ))
        out = tmp_path / "out.csv"
        assert main(["--out", str(out), "experiment", "--config", str(config)]) == 1
        assert out.read_text() == ""


def covers(est, exact):
    lo, hi = est.ci95
    return est.undetermined_fraction == 0.0 and lo <= exact <= hi


@pytest.mark.parametrize("alpha", [0.5, 0.995])
def test_walker_covers_the_union(alpha):
    cfg = ExperimentConfig(
        alpha=alpha, f_or_sigma=FunctionSpec.constant(1.0), z=(0.0,), replicates=2000,
        horizon=1.0, step=1.0, estimator="hitting_prob", seed=3, target=UNION,
    )
    assert covers(run_experiment(cfg, io.StringIO())[0], REFERENCE[alpha])


def test_freeze_covers_the_union_near_alpha_one():
    cfg = ExperimentConfig(
        alpha=0.98, f_or_sigma=FunctionSpec.indicator_complement(UNION), z=(0.0,),
        replicates=2000, horizon=2.0, step=0.01, estimator="freeze_prob", seed=3,
    )
    assert covers(run_experiment(cfg, io.StringIO())[0], REFERENCE[0.98])
