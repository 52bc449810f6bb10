import json
import math

import numpy as np
import pytest
from scipy import stats

from stablesde.funcspec import FunctionSpec, Piece, PowerForm, TableForm
from stablesde.functionals import Thresholds, _at_once
from stablesde.intervals import IntervalSet
from stablesde.sde import (
    ClassificationReport,
    SolutionPath,
    classify_sde,
    solve_time_change,
)
from stablesde.integrals import PointedSet
from stablesde.stable import StableParams, sample_increment, stream_rng

INF = math.inf


class TestSolveTimeChange:
    def test_driver_recovery_sigma_one(self):
        sol = solve_time_change(0.5, FunctionSpec.constant(1.0), 0.0, 1.0, 0.01, 42)
        assert np.array_equal(sol.values, sol.driver.values)
        assert np.array_equal(sol.time_change, sol.driver.times)
        assert sol.status == "horizon_reached"

    def test_constant_sigma_linear_clock(self):
        c, alpha = 2.0, 0.5
        sol = solve_time_change(alpha, FunctionSpec.constant(c), 0.0, 2.0, 0.01, 7)
        # I_t = c^-alpha t: the s-grid is the driver grid contracted by c^-alpha
        assert np.allclose(sol.s_grid, c ** -alpha * sol.time_change)

    def test_scaling_marginal_ks(self):
        # Z_1 for sigma = c should match X(c^alpha) in law
        c, alpha, n = 2.0, 0.5, 2000
        sigma = FunctionSpec.constant(c)
        zs = np.array(
            [
                solve_time_change(alpha, sigma, 0.0, 2.0, 0.005, stream_rng(11, i)).value_at(1.0)
                for i in range(n)
            ]
        )
        xs = np.array(
            [
                sample_increment(StableParams(alpha), c ** alpha, stream_rng(12, i))
                for i in range(n)
            ]
        )
        assert stats.ks_2samp(zs, xs).pvalue > 0.05

    def test_supercritical_power_freezes_at_origin(self):
        sol = solve_time_change(0.5, FunctionSpec.power(1.5), 0.0, 1.0, 0.01, 3)
        assert sol.status == "frozen"
        assert sol.frozen_at == 0.0
        assert np.all(sol.values == 0.0)
        assert sol.value_at(0.0) == 0.0
        assert sol.value_at(123.0) == 0.0  # frozen forever after

    def test_subcritical_power_nonconstant(self):
        moved = 0
        for i in range(200):
            sol = solve_time_change(0.5, FunctionSpec.power(0.5), 0.0, 1.0, 0.01, i)
            moved += bool(np.any(sol.values != sol.values[0]))
        assert moved / 200 >= 0.99

    def test_zero_interval_freezes_on_entry(self):
        sigma = FunctionSpec.indicator_complement(IntervalSet.of((1, 2)))
        frozen = 0
        for i in range(100):
            sol = solve_time_change(0.5, sigma, 0.0, 10.0, 0.1, i)
            if sol.status == "frozen":
                frozen += 1
                assert not IntervalSet.of((1, 2)).contains(sol.values[:-1]).any()
        assert 0 < frozen < 100

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            solve_time_change(1.5, FunctionSpec.constant(1.0), 0.0, 1.0, 0.1, 0)

    def test_z_is_the_start(self):
        sol = solve_time_change(0.5, FunctionSpec.constant(2.0), 0.25, 1.0, 0.1, 3)
        assert sol.z == 0.25 == sol.values[0] == sol.value_at(0.0)

    def test_frozen_and_exploded_at_once_refused(self):
        sol = solve_time_change(0.5, FunctionSpec.constant(1.0), 0.0, 1.0, 0.1, 3)
        with pytest.raises(ValueError, match="preclude one another"):
            SolutionPath(sol.driver, sol.s_grid, frozen_at=0.5, exploded_at=0.75)

    def test_value_at_refuses_nan(self):
        sol = solve_time_change(0.5, FunctionSpec.constant(1.0), 0.0, 1.0, 0.1, 3)
        with pytest.raises(ValueError):
            sol.value_at(math.nan)

    def test_csv_format(self):
        sol = solve_time_change(0.5, FunctionSpec.constant(1.0), 0.0, 0.5, 0.1, 5)
        lines = sol.to_csv().splitlines()
        assert lines[0] == "# status=horizon_reached"
        assert lines[1] == "s,phi,z_value"
        assert len(lines) == 2 + len(sol.s_grid)

    def test_csv_comment_lines_of_frozen_and_exploded(self):
        frozen = solve_time_change(0.5, FunctionSpec.power(1.5), 0.0, 10.0, 0.1, 0)
        assert frozen.to_csv().splitlines()[:4] == [
            "# status=frozen", "# frozen_at=0.0", "s,phi,z_value", "0.0,0.0,0.0",
        ]
        # sigma = x^2 outside [-1, 1]: the clock runs out before the horizon
        quadratic_tails = FunctionSpec(
            (
                Piece(-INF, -1.0, PowerForm(1.0, 2.0, 0.0)),
                Piece(-1.0, 1.0, PowerForm(1.0)),
                Piece(1.0, INF, PowerForm(1.0, 2.0, 0.0)),
            )
        )
        exploded = solve_time_change(
            0.5, quadratic_tails, 0.0, 10.0, 0.1, 0, Thresholds(r=30.0)
        )
        assert exploded.to_csv().splitlines()[:4] == [
            "# status=exploded", "# exploded_at=2.0514609952679326", "s,phi,z_value",
            "0.0,0.0,0.0",
        ]


class TestClassifySde:
    def test_constant_sigma_all_four(self):
        rep = classify_sde(0.5, FunctionSpec.constant(1.0))
        assert rep.irregular.is_empty() and rep.zeros.is_empty()
        assert rep.global_all_z and rep.nontrivial_global_all_z and rep.unique_global_all_z
        assert rep.local_nontrivial_at(0.0)

    def test_supercritical_unique_not_nontrivial(self):
        rep = classify_sde(0.5, FunctionSpec.power(1.5))
        assert rep.irregular == rep.zeros == PointedSet(points=(0.0,))
        assert rep.unique_global_all_z and rep.global_all_z
        assert not rep.nontrivial_global_all_z
        assert not rep.local_nontrivial_at(0.0)
        assert rep.local_nontrivial_at(1.0)

    def test_subcritical_nontrivial_not_unique(self):
        rep = classify_sde(0.5, FunctionSpec.power(0.5))
        assert rep.irregular.is_empty()
        assert rep.zeros.points == (0.0,)
        assert rep.nontrivial_global_all_z
        assert not rep.unique_global_all_z

    def test_uniqueness_threshold_in_beta(self):
        for beta in (0.25, 0.5, 0.75):
            assert not classify_sde(0.5, FunctionSpec.power(beta)).unique_global_all_z
        for beta in (1.0, 1.25, 1.5, 2.0):
            assert classify_sde(0.5, FunctionSpec.power(beta)).unique_global_all_z

    def test_coherence_invariant_enforced(self):
        # the flags are read from O and N, so uniqueness and nontrivial
        # existence everywhere each imply existence everywhere
        for o, n in (
            ((1.0,), ()), ((), (0.0,)), ((0.0,), (0.0,)), ((0.0,), (0.0, 1.0)), ((), ()),
        ):
            rep = ClassificationReport(PointedSet(points=o), PointedSet(points=n))
            assert rep.global_all_z == (set(o) <= set(n))
            assert rep.nontrivial_global_all_z == (not o)
            assert rep.unique_global_all_z == (o == n)
            if rep.unique_global_all_z or rep.nontrivial_global_all_z:
                assert rep.global_all_z

    def test_unflagged_zero_decided(self):
        """A zero of sigma with a table on one side has no monotone
        hypothesis, but classify decides it rather than leave it out of O:
        the exponent of f = |x|^-1 at 0 puts 0 in O, where the clock
        freezes at once."""
        sigma = FunctionSpec(
            (
                Piece(-INF, -1.0, PowerForm(1.0)),
                Piece(-1.0, 0.0, TableForm((-1.0, 0.0), (1.0, 1.0))),
                Piece(0.0, INF, PowerForm(1.0, 2.0, 0.0)),
            )
        )
        rep = classify_sde(0.5, sigma)
        assert rep.irregular == rep.zeros == PointedSet(points=(0.0,))
        assert _at_once(sigma.inverse_power(0.5), 0.5, np.array([0.0])).all()

    def test_json_keys(self):
        doc = json.loads(classify_sde(0.5, FunctionSpec.power(1.5)).to_json(at=(0.0,)))
        assert set(doc) == {
            "O", "N", "local_at", "global_all", "nontrivial_global_all",
            "unique_all", "notes",
        }
        assert doc["unique_all"] is True
        assert doc["local_at"]["0.0"] is False


def zero_pieces(*levels) -> FunctionSpec:
    """sigma from (lo, hi, form) triples, a bare number c for PowerForm(c)."""
    return FunctionSpec(tuple(
        Piece(lo, hi, form if isinstance(form, PowerForm) else PowerForm(form))
        for lo, hi, form in levels
    ))


class TestZeroIntervalEnds:
    """O holds both ends of every zero interval: from either end X enters
    the interval at once (P(X_t > 0) = 1/2 for every t, so by Blumenthal's
    zero-one law it visits both half-lines at once) and stays a positive
    time, so the clock is +inf at once.  The cases and the alphas were
    fixed before the first run: the open end 0.75 of [0.25, 0.75), a right
    end closed by a power piece anchored there (in N too), an unbounded
    zero piece on either side, and two zero intervals."""

    CASES = {
        "open end": (
            FunctionSpec.indicator_complement(IntervalSet.of((0.25, 0.75))),
            PointedSet((0.75,), IntervalSet.of((0.25, 0.75))),
            PointedSet((), IntervalSet.of((0.25, 0.75))),
        ),
        "end closed by a zero": (
            zero_pieces((-INF, 0.25, 1.0), (0.25, 0.75, 0.0),
                        (0.75, INF, PowerForm(1.0, 0.5, 0.75))),
            PointedSet((0.75,), IntervalSet.of((0.25, 0.75))),
            PointedSet((0.75,), IntervalSet.of((0.25, 0.75))),
        ),
        "unbounded above": (
            zero_pieces((-INF, 1.0, 1.0), (1.0, INF, 0.0)),
            PointedSet((), IntervalSet.of((1.0, INF))),
            PointedSet((), IntervalSet.of((1.0, INF))),
        ),
        "unbounded below": (
            zero_pieces((-INF, 1.0, 0.0), (1.0, INF, 1.0)),
            PointedSet((1.0,), IntervalSet.of((-INF, 1.0))),
            PointedSet((), IntervalSet.of((-INF, 1.0))),
        ),
        "two intervals": (
            FunctionSpec.indicator_complement(IntervalSet.of((0.0, 1.0), (2.0, 3.0))),
            PointedSet((1.0, 3.0), IntervalSet.of((0.0, 1.0), (2.0, 3.0))),
            PointedSet((), IntervalSet.of((0.0, 1.0), (2.0, 3.0))),
        ),
    }

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_o_holds_both_ends(self, case, alpha):
        sigma, o, n = self.CASES[case]
        rep = classify_sde(alpha, sigma)
        assert (rep.irregular, rep.zeros) == (o, n)
        assert rep.global_all_z == rep.unique_global_all_z == (o == n)
        assert not rep.nontrivial_global_all_z
        # O agrees with the clock at every finite end and 0.01 either side
        f = sigma.inverse_power(alpha)
        for x in (x for iv in sigma.zero_intervals().intervals for x in iv if math.isfinite(x)):
            assert not rep.local_nontrivial_at(x)
            near = np.array([x, x - 0.01, x + 0.01])
            assert list(_at_once(f, alpha, near)) == [rep.irregular.contains(v) for v in near]


class TestStatusSummary:
    """Frozen and exploded fractions over replicates of the solver."""

    def test_constant_sigma_all_neither(self):
        statuses = {
            solve_time_change(0.5, FunctionSpec.constant(1.0), 0.0, 1.0, 0.05, i).status
            for i in range(50)
        }
        assert not statuses & {"frozen", "exploded"}

    def test_indicator_sigma_frozen_fraction_interior(self):
        sigma = FunctionSpec.indicator_complement(IntervalSet.of((1, 2)))
        frozen = sum(
            solve_time_change(0.5, sigma, 0.0, 10.0, 0.1, i).status == "frozen"
            for i in range(200)
        )
        assert 0 < frozen < 200

    def test_explosion_trend_with_horizon(self):
        sigma = FunctionSpec(
            (
                Piece(-INF, -1.0, PowerForm(1.0, 2.0, 0.0)),
                Piece(-1.0, 1.0, PowerForm(1.0)),
                Piece(1.0, INF, PowerForm(1.0, 2.0, 0.0)),
            )
        )
        # sigma^-alpha has no infinite interval and a finite tail, so every
        # path explodes, however short its horizon
        fractions = []
        for horizon in (0.2, 50.0):
            exploded = sum(
                solve_time_change(0.5, sigma, 0.0, horizon, horizon / 500, i).status == "exploded"
                for i in range(100)
            )
            fractions.append(exploded / 100)
        assert fractions == [1.0, 1.0]
