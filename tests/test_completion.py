"""Rows alive at the horizon completed from their last value, against exact
answers.

By the Markov property at the horizon H, a row alive there freezes later iff
the driver, started afresh at X_H, ever enters an interval where
f = sigma^-alpha is +inf, and for one interval that chance is the closed
form `hitting_probability` (Blumenthal, Getoor & Ray 1961).  A row that
never freezes explodes iff the tail integral of f is finite.  So each
estimate below has an exact value:

- freeze on [1, 2] from -2 is P_-2(hit [1, 2]), at alpha 0.5 and 0.7;
- with sigma = |x|^1.5 off [0.25, 0.75] and 0 on it, from -2, the path
  explodes iff it never hits the interval: 1 - P_-2(hit [0.25, 0.75]);
- with sigma = |x|^1.5 from 1, explosion is certain;
- f = +inf on [1, 2] and 0 off it has a finite integral from 0 iff the path
  never hits [1, 2]: 1 - P_0(hit [1, 2]).

Each 95% Wilson interval must cover its exact value, with no row left
undetermined.  Two zero intervals have no closed form yet; the completion
bounds each row's chance by the largest and the capped sum of the two, so
its interval must overlap that of the exact walker of `hitting_prob` on the
same union.  The seed, the sizes and the bands were fixed before the tests
were first run.
"""

import io
import math

import numpy as np
import pytest

from stablesde.experiments import ExperimentConfig, run_experiment
from stablesde.funcspec import FunctionSpec, Piece, PowerForm
from stablesde.functionals import Thresholds, _clock_rows, _freeze_chance
from stablesde.integrals import hitting_probability
from stablesde.intervals import IntervalSet
from stablesde.stable import stream_rng

ROWS, HORIZON, STEP, SEED = 4000, 10.0, 0.01, 0
WALKERS = 20000
INF = math.inf


def off_interval(a: float, b: float) -> FunctionSpec:
    """sigma = |x|^1.5 off [a, b] and 0 on it."""
    return FunctionSpec((
        Piece(-INF, a, PowerForm(1.0, 1.5, 0.0)),
        Piece(a, b, PowerForm(0.0)),
        Piece(b, INF, PowerForm(1.0, 1.5, 0.0)),
    ))


def estimate(estimator, f_or_sigma, z, alpha=0.5, **kw):
    cfg = ExperimentConfig(
        alpha=alpha, f_or_sigma=f_or_sigma, z=(z,), replicates=ROWS, horizon=HORIZON,
        step=STEP, estimator=estimator, seed=SEED, **kw,
    )
    return run_experiment(cfg, io.StringIO())[0]


ONE_TO_TWO = IntervalSet.of((1.0, 2.0))
CASES = {
    "freeze": ("freeze_prob", FunctionSpec.indicator_complement(ONE_TO_TWO), -2.0, 0.5,
               hitting_probability(0.5, -2.0, (1.0, 2.0))),
    "freeze-alpha-0.7": ("freeze_prob", FunctionSpec.indicator_complement(ONE_TO_TWO), -2.0,
                         0.7, hitting_probability(0.7, -2.0, (1.0, 2.0))),
    "explosion": ("explosion_prob", off_interval(0.25, 0.75), -2.0, 0.5,
                  1.0 - hitting_probability(0.5, -2.0, (0.25, 0.75))),
    "explosion-certain": ("explosion_prob", FunctionSpec.power(1.5), 1.0, 0.5, 1.0),
    "finiteness": ("finiteness_prob", FunctionSpec.infinite_indicator(ONE_TO_TWO), 0.0, 0.5,
                   1.0 - hitting_probability(0.5, 0.0, (1.0, 2.0))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_completed_estimate_covers_the_exact_value(case):
    estimator, f_or_sigma, z, alpha, exact = CASES[case]
    est = estimate(estimator, f_or_sigma, z, alpha)
    lo, hi = est.ci95
    assert lo <= exact <= hi
    assert est.undetermined_fraction == 0.0


def test_two_zero_intervals_overlap_the_walker():
    union = IntervalSet.of((-4.0, -3.0), (1.0, 2.0))
    frozen = estimate("freeze_prob", FunctionSpec.indicator_complement(union), 0.0)
    walked = run_experiment(ExperimentConfig(
        alpha=0.5, f_or_sigma=FunctionSpec.constant(1.0), z=(0.0,), replicates=WALKERS,
        horizon=1.0, step=1.0, estimator="hitting_prob", seed=SEED, target=union,
    ), io.StringIO())[0]
    assert walked.undetermined_fraction == 0.0
    assert frozen.ci95[0] <= walked.ci95[1] and walked.ci95[0] <= frozen.ci95[1]


def test_freeze_chance_bounds():
    """No interval: [0, 0]; an unbounded one: [1, 1]; one bounded interval:
    the exact chance; two: the larger and the capped sum; a point of O: 1."""
    x = np.array([-2.0, 1.5, 0.0])
    one = hitting_probability(0.5, -2.0, (1.0, 2.0))
    cases = [
        (FunctionSpec.constant(1.0), [0, 0, 0], [0, 0, 0]),
        (FunctionSpec.infinite_indicator(IntervalSet.of((5.0, INF))), [1, 1, 1], [1, 1, 1]),
        (FunctionSpec.infinite_indicator(ONE_TO_TWO), [one, 1, None], [one, 1, None]),
        # |x|^-0.75 at alpha 0.5: the pole at 0 is in O, so x = 0 freezes at once
        (FunctionSpec.power(-0.75), [0, 0, 1], [0, 0, 1]),
    ]
    for f, lo_want, hi_want in cases:
        lo, hi = _freeze_chance(f, 0.5, x)
        for got, want in ((lo, lo_want), (hi, hi_want)):
            assert all(w is None or g == pytest.approx(w, rel=1e-12) for g, w in zip(got, want))
    lo, hi = _freeze_chance(
        FunctionSpec.infinite_indicator(IntervalSet.of((-4.0, -3.0), (1.0, 2.0))), 0.5, x[2:]
    )
    a, b = (hitting_probability(0.5, 0.0, ab) for ab in ((-4.0, -3.0), (1.0, 2.0)))
    assert (lo[0], hi[0]) == pytest.approx((max(a, b), min(1.0, a + b)), rel=1e-12)
    # the ends of a bounded interval of O freeze at once, exactly: at 0.1 the
    # closed form's centre and half-width round to a chance just under 1
    f = FunctionSpec.infinite_indicator(IntervalSet.of((0.1, 0.2)))
    lo, hi = _freeze_chance(f, 0.5, np.array([0.1, 0.15]))
    assert lo.tolist() == hi.tolist() == [1.0, 1.0]


def test_rows_certain_by_their_end_draw_nothing():
    """Rows with no chance of freezing later, or a sure one, consume no
    uniform, so a pole-only sigma leaves the generator where the block left
    it; a single interval draws one uniform per row alive at the end."""
    values = np.array([[0.5, 0.5], [-2.0, -2.0], [3.0, 3.0]])
    dwell = np.array([[1.0, 0.0]] * 3)
    last = values[:, -1]
    th = Thresholds()
    for f, draws in ((FunctionSpec.power(-0.25), 0),
                     (FunctionSpec.infinite_indicator(IntervalSet.of((5.0, INF))), 0),
                     (FunctionSpec.infinite_indicator(ONE_TO_TWO), 3)):
        rng, ref = stream_rng(1, 0), stream_rng(1, 0)
        _, _, k, freezes, _ = _clock_rows(values, dwell, last, f, 0.5, th, rng)
        ref.random(draws)
        assert rng.random() == ref.random()
        assert (k < 0).all()
    # without a generator the open rows stay undetermined
    _, _, _, freezes, explodes = _clock_rows(
        values, dwell, last, FunctionSpec.infinite_indicator(ONE_TO_TWO), 0.5, th
    )
    assert freezes.tolist() == explodes.tolist() == [-1, -1, -1]


def test_killed_rows_have_no_future():
    """On a killed driver a row killed by the horizon never freezes later,
    and one alive at it cannot be sure to (it may be killed first)."""
    values = np.array([[1.5, 1.5], [1.5, 1.5]])
    dwell = np.array([[0.0, 0.0], [0.0, 0.0]])
    f = FunctionSpec.infinite_indicator(ONE_TO_TWO)
    _, _, _, freezes, explodes = _clock_rows(
        values, dwell, values[:, -1], f, 0.5, Thresholds(), stream_rng(2, 0),
        alive=np.array([False, True]),
    )
    assert freezes.tolist() == [0, -1]
    assert explodes.tolist() == [1, -1]
