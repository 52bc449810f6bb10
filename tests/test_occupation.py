"""Expected occupation of sampled paths against the Green function of the
symmetric alpha-stable process, an exact oracle for the sampler.

For alpha in (0, 1) the process with exponent e^(-t|xi|^alpha) (the
convention of `stable._cms`) is transient, and its expected time in a set A
from z is C_alpha int_A |z - y|^(alpha - 1) dy with
C_alpha = Gamma(1 - alpha) sin(pi alpha / 2) / pi.  Paths are followed up to
T only; the time spent in A after T is at most C_alpha |A| dist(X_T, A)^(alpha - 1)
in expectation, which widens the band on one side.

The seed, the sizes and the 4-standard-error band were fixed before the
test was first run.
"""

import math

import numpy as np

from stablesde.funcspec import FunctionSpec
from stablesde.integrals import green_constant, kernel_integral
from stablesde.intervals import IntervalSet
from stablesde.stable import StableParams, sample_block, stream_rng

ALPHA = 0.5
A = IntervalSet.of((1.0, 2.0))
HORIZON, STEP = 200.0, 0.1
#: 4000 paths in 10 blocks of 400
BLOCKS, ROWS = 10, 400
SEED = 1954


def test_occupation_matches_green_function():
    c = green_constant(ALPHA)
    exact = c * kernel_integral(ALPHA, 0.0, FunctionSpec.constant(1.0), A).value_or_bound
    assert abs(exact - 0.3305) < 5e-5
    occupation, tail = [], []
    for b in range(BLOCKS):
        block = sample_block(
            StableParams(ALPHA), 0.0, HORIZON, STEP, stream_rng(SEED, b), rows=ROWS,
        )
        values, dwell = block.cells()
        occupation.append(np.sum(np.where(A.contains(values), dwell, 0.0), axis=1))
        with np.errstate(divide="ignore"):
            d = A.distance_to(block.values[:, -1])
            tail.append(c * A.measure() * d ** (ALPHA - 1.0))
    occupation, tail = np.concatenate(occupation), np.concatenate(tail)
    mean = float(occupation.mean())
    se = float(occupation.std(ddof=1)) / math.sqrt(len(occupation))
    assert mean - 4.0 * se <= exact <= mean + float(tail.mean()) + 4.0 * se
