"""Finiteness of occupation integrals against exact answers, an oracle for
the one verdict that `finiteness_prob` reads from `_clock_rows`.

For alpha in (0, 1) the driver is transient.  Without killing it spends
finite time in any bounded set and infinite time in total, so the integral
of f = 1 off [1, 2] is infinite almost surely.  Killed at an exponential
time tau, the integral of f = 1 is tau, finite almost surely, and so is
that of |x - 1|^-0.2, whose expectation is the q-potential of a kernel with
exponent -0.2 + alpha - 1 > -1 at the pole.  A row killed by the horizon is
fully observed.  At rate 0.5 a row outlives the horizon 10 with chance
e^-5, about 0.7%; such a row is completed from its last value, and where f
is never +inf its integral up to the killing time is finite, so no row is
left undetermined.

The seed, the sizes and the bands were fixed before the tests were first
run.
"""

import io

import pytest

from stablesde.experiments import ExperimentConfig, run_experiment
from stablesde.funcspec import FunctionSpec
from stablesde.intervals import IntervalSet
from stablesde.stable import KillingSpec

ALPHA, ROWS, SEED = 0.5, 1000, 0
HORIZON, STEP = 10.0, 0.1


@pytest.mark.parametrize("f, killing, point, undetermined", [
    (FunctionSpec.indicator_complement(IntervalSet.of((1.0, 2.0))), None, 0.0, 0.0),
    (FunctionSpec.constant(1.0), KillingSpec(2.0), 1.0, 0.0),
    (FunctionSpec.constant(1.0), KillingSpec(0.5), 1.0, 0.0),
    (FunctionSpec.power(-0.2, p=1.0), KillingSpec(0.5), 1.0, 0.02),
], ids=["one-off-an-interval", "one-killed", "one-killed-slowly", "pole-killed"])
def test_finiteness_matches_exact_answer(f, killing, point, undetermined):
    cfg = ExperimentConfig(
        alpha=ALPHA, f_or_sigma=f, z=(0.0,), replicates=ROWS, horizon=HORIZON, step=STEP,
        estimator="finiteness_prob", seed=SEED, killing=killing,
    )
    est = run_experiment(cfg, io.StringIO())[0]
    assert est.point == point
    assert est.undetermined_fraction <= undetermined
