"""Dynkin's formula for cos(theta x) on solved paths, an exact oracle that
`solve_time_change` returns a solution of dZ = sigma(Z-) dX.

At unit scale E e^(i theta X_t) = e^(-t|theta|^alpha) (the convention of
`stable._cms`), so the generator of X maps cos(theta x) to
-|theta|^alpha cos(theta x), and that of a solution is |sigma(x)|^alpha
times it.  A solution that does not explode before t therefore satisfies

    E cos(theta Z_t) - cos(theta z) = -|theta|^alpha E int_0^t |sigma(Z_s)|^alpha cos(theta Z_s) ds.

The oracle reads only the solved step path (`s_grid`, `values`) and sigma,
never the clock: Z takes values[j] from s_grid[j] on, and a frozen path
keeps its last value.

The seed, the sizes, the 4-standard-error band, the cases and the case at
which each mutant is tried were fixed before the test was first run.  The
cases are a jump in sigma, an interval zero (frozen paths) and a regular
zero at 0, from which the solver gives the nontrivial solution.  Pure
|x|^0.5 grows without bound, and a path that jumps far early keeps its clock
below t for hundreds of driver time units, so the regular zero is taken
with sigma = 1 off [-1, 1]: then every clock runs at least as fast as the
driver's time, and one driver horizon of 2 lets every path's clock pass t.

Two mutants are caught: a clock of sigma^-1 at the jump, and a solver that
reads each driver value one cell early at the regular zero.  A third, which
never freezes because it reads the zero interval as sigma = 1, left the
mean at the interval zero 0.9 standard errors from 0, inside the band: the
cosine nearly averages out over [1, 2].  It is not asserted.
"""

import math

import numpy as np
import pytest

from stablesde import sde
from stablesde.funcspec import FunctionSpec, Piece, PowerForm
from stablesde.intervals import IntervalSet
from stablesde.sde import solve_time_change
from stablesde.stable import cell_dwell, stream_rng

PATHS, SEED = 4000, 11
T, THETA, STEP, HORIZON = 1.0, 1.0, 0.01, 2.0
BAND = 4.0

#: name -> (alpha, z, sigma)
CASES = {
    "jump": (0.5, 0.3, FunctionSpec((
        Piece(-math.inf, 0.0, PowerForm(1.0)), Piece(0.0, math.inf, PowerForm(2.0)),
    ))),
    "interval_zero": (0.5, 0.5, FunctionSpec.indicator_complement(IntervalSet.of((1.0, 2.0)))),
    "regular_zero": (0.5, 0.0, FunctionSpec((
        Piece(-math.inf, -1.0, PowerForm(1.0)),
        Piece(-1.0, 1.0, PowerForm(1.0, 0.5, 0.0)),
        Piece(1.0, math.inf, PowerForm(1.0)),
    ))),
}


def dynkin_residuals(name: str) -> np.ndarray:
    """Per path, cos(theta Z_t) - cos(theta z) plus |theta|^alpha times the
    integral of |sigma(Z)|^alpha cos(theta Z) over [0, t]; its mean is 0 for
    a solution.  Every path's clock passes t or the path freezes."""
    alpha, z, sigma = CASES[name]
    out = np.empty(PATHS)
    for i in range(PATHS):
        sol = solve_time_change(alpha, sigma, z, HORIZON, STEP, stream_rng(SEED, i))
        assert sol.status == "frozen" or sol.s_grid[-1] >= T
        held = cell_dwell(sol.s_grid, T)
        g = np.abs(sigma(sol.values)) ** alpha * np.cos(THETA * sol.values)
        out[i] = (
            math.cos(THETA * sol.value_at(T)) - math.cos(THETA * z)
            + abs(THETA) ** alpha * float(np.dot(g, held))
        )
    return out


def standard_scores(r: np.ndarray) -> float:
    """The mean of r in standard errors."""
    return float(r.mean()) / (float(r.std(ddof=1)) / math.sqrt(len(r)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_solved_paths_satisfy_dynkin(name):
    assert abs(standard_scores(dynkin_residuals(name))) <= BAND


def test_regular_zero_solution_leaves_zero():
    """From the regular zero the solver gives the nontrivial solution, not
    Z = 0, which satisfies the identity as well."""
    alpha, z, sigma = CASES["regular_zero"]
    left = [
        solve_time_change(alpha, sigma, z, HORIZON, STEP, stream_rng(SEED, i)).value_at(T) != z
        for i in range(100)
    ]
    assert all(left)


def test_sigma_to_the_minus_one_clock_is_caught(monkeypatch):
    """A solver that clocks sigma^-1 instead of sigma^-alpha solves another
    equation, and at the jump in sigma the oracle sees it."""
    inverse_power = FunctionSpec.inverse_power
    monkeypatch.setattr(FunctionSpec, "inverse_power", lambda self, alpha: inverse_power(self, 1.0))
    assert abs(standard_scores(dynkin_residuals("jump"))) > BAND


def test_off_by_one_cell_is_caught(monkeypatch):
    """A solver that reads each driver value one cell early: value j is held
    from the clock at node j - 1."""
    clock = sde._clock

    def early(*args):
        contrib, cum, k, freezes, explodes = clock(*args)
        return contrib, np.concatenate(([0.0], cum[:-1])), k, freezes, explodes

    monkeypatch.setattr(sde, "_clock", early)
    assert abs(standard_scores(dynkin_residuals("regular_zero"))) > BAND
