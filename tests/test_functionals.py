import hashlib
import math

import numpy as np
import pytest

from stablesde.funcspec import FunctionSpec, Piece, PowerForm, TableForm
from stablesde.functionals import (
    PathVerdict,
    Thresholds,
    _contributions,
    classify_path,
    inverse_time_change,
    path_integral,
)
from stablesde.integrals import irregular_set
from stablesde.intervals import IntervalSet
from stablesde.stable import (
    KillingSpec, PathSample, StableParams, cell_dwell, sample_block, sample_path, stream_rng,
)

INF = math.inf


def make_path(seed: int, alpha=0.5, z=0.0, horizon=1.0, step=0.01, **kw) -> PathSample:
    return sample_path(StableParams(alpha), z, horizon, step, stream_rng(seed, 0), **kw)


class TestPathIntegral:
    def test_unit_integrand_gives_time(self):
        path = make_path(1)
        assert path_integral(path, FunctionSpec.constant(1.0), 0.7) == pytest.approx(0.7)

    def test_zero_integrand(self):
        path = make_path(2)
        assert path_integral(path, FunctionSpec.constant(0.0), 1.0) == 0.0

    def test_infinite_on_occupied_set(self):
        f = FunctionSpec.infinite_indicator(IntervalSet.of((1, 2)))
        for seed in range(50):
            path = make_path(seed, horizon=10.0, step=0.1)
            hit = IntervalSet.of((1, 2)).contains(path.values).any()
            total = path_integral(path, f, path.horizon)
            assert math.isinf(total) == hit

    def test_monotone_in_t(self):
        path = make_path(3)
        f = FunctionSpec.constant(2.0)
        vals = [path_integral(path, f, t) for t in np.linspace(0, 1, 11)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_t_validation(self):
        path = make_path(4)
        with pytest.raises(ValueError):
            path_integral(path, FunctionSpec.constant(1.0), 2.0)


class TestInverseTimeChange:
    def test_identity_for_unit_integrand(self):
        path = make_path(5)
        assert inverse_time_change(path, FunctionSpec.constant(1.0), 0.3) == pytest.approx(0.3)

    def test_constant_closed_form(self):
        # f = c^-alpha constant: I_t = c^-alpha t so phi_s = c^alpha s
        c, alpha = 2.0, 0.5
        f = FunctionSpec.constant(c ** -alpha)
        path = make_path(6, horizon=4.0)
        s = 1.1
        assert inverse_time_change(path, f, s) == pytest.approx(c ** alpha * s)

    def test_collapse_for_infinite_integrand(self):
        path = make_path(7)
        f = FunctionSpec.infinite_indicator(IntervalSet.of((-INF, INF)))
        assert inverse_time_change(path, f, 5.0) == 0.0

    def test_infinite_when_never_exceeded(self):
        path = make_path(8)
        assert inverse_time_change(path, FunctionSpec.constant(1.0), 100.0) == INF

    def test_nan_level_is_refused_and_infinite_level_kept(self):
        path = make_path(8)
        with pytest.raises(ValueError):
            inverse_time_change(path, FunctionSpec.constant(1.0), math.nan)
        assert inverse_time_change(path, FunctionSpec.constant(1.0), INF) == INF

    def test_galois_inequalities(self):
        # I(phi_s) >= s and phi(I_t) <= t at grid points, on 1000 paths
        f = FunctionSpec.constant(0.5)
        rng = np.random.default_rng(77)
        for seed in range(1000):
            path = make_path(seed, horizon=1.0, step=0.05)
            s = float(rng.uniform(0.0, 0.4))
            phi = inverse_time_change(path, f, s)
            if math.isfinite(phi) and phi <= path.horizon:
                assert path_integral(path, f, phi) >= s - 1e-12
            t = float(rng.uniform(0.0, 1.0))
            it = path_integral(path, f, t)
            if math.isfinite(it):
                assert inverse_time_change(path, f, it) <= t + 1e-12

    def test_right_continuous_nondecreasing_in_s(self):
        path = make_path(9)
        f = FunctionSpec.constant(1.0)
        grid = np.linspace(0.0, 1.2, 25)
        phis = [inverse_time_change(path, f, s) for s in grid]
        assert all(b >= a for a, b in zip(phis, phis[1:]))

    def test_integrand_evaluated_once(self, monkeypatch):
        """The clock and the rate of the cell it crosses s in are read from
        one evaluation of f along the path."""
        calls = []
        call = FunctionSpec.__call__

        def counted(self, x):
            calls.append(np.size(x))
            return call(self, x)

        path = make_path(10)
        f = FunctionSpec.power(0.5, p=0.3)
        expected = inverse_time_change(path, f, 0.2)
        monkeypatch.setattr(FunctionSpec, "__call__", counted)
        assert inverse_time_change(path, f, 0.2) == expected
        assert calls == [len(path.values)]


class TestHittingAndExit:
    def test_transience_trend(self):
        # fraction of paths already done with [-1,1] grows with the horizon
        target = IntervalSet.of((-1.0, 1.0))
        fracs = []
        for horizon in (1.0, 100.0):
            done = 0
            for seed in range(300):
                path = make_path(seed, horizon=horizon, step=horizon / 200)
                # the last node time in the target, 0 if there is none
                if path.times[target.contains(path.values)].max(initial=0.0) < horizon:
                    done += 1
            fracs.append(done / 300)
        assert fracs[1] > fracs[0]


def path_contributions(path: PathSample, f: FunctionSpec, alpha: float) -> np.ndarray:
    """The alpha-aware contribution of every cell of one path."""
    return _contributions(path.values, cell_dwell(path.times, path.end_time), f, alpha)


class TestEffectiveContributions:
    def test_matches_plain_sum_without_poles(self):
        path = make_path(14)
        f = FunctionSpec.constant(2.0)
        contrib = path_contributions(path, f, 0.5)
        assert float(contrib.sum()) == pytest.approx(
            path_integral(path, f, path.horizon)
        )

    def test_pole_cell_finite_below_threshold(self):
        # z = 0 sits on the pole of |y|^-0.25; the kernel convention gives
        # 2c/(e+alpha) * dwell^((e+alpha)/alpha)
        path = make_path(15, z=0.0)
        f = FunctionSpec.power(0.5).inverse_power(0.5)
        contrib = path_contributions(path, f, 0.5)
        dwell = path.times[1] - path.times[0]
        assert contrib[0] == pytest.approx(8.0 * dwell ** 0.5)
        assert np.isfinite(contrib[1:]).all()

    def test_pole_cell_infinite_at_or_above_threshold(self):
        path = make_path(16, z=0.0)
        f = FunctionSpec.power(1.5).inverse_power(0.5)
        contrib = path_contributions(path, f, 0.5)
        assert math.isinf(contrib[0])

    @pytest.mark.parametrize("pole_side", ["left", "right"])
    @pytest.mark.parametrize("beta, charge", [(1.5, INF), (0.5, 0.8)])
    def test_one_sided_pole_agrees_with_irregular_set(self, pole_side, beta, charge):
        """sigma = |x-1|^beta on one side of 1 and 1 on the other: a cell
        parked at 1 is charged by the power of the side that makes the pole,
        2/(0.5 - beta/2) * 0.01^(1 - beta), and is infinite exactly when
        irregular_set puts 1 in O."""
        power, flat = PowerForm(1.0, beta, 1.0), PowerForm(1.0)
        left, right = (power, flat) if pole_side == "left" else (flat, power)
        sigma = FunctionSpec((Piece(-INF, 1.0, left), Piece(1.0, INF, right)))
        f = sigma.inverse_power(0.5)
        got = _contributions(np.array([1.0, 1.0]), np.array([0.01, 0.0]), f, 0.5)
        assert got[0] == pytest.approx(charge) and got[1] == 0.0
        assert irregular_set(0.5, sigma).points == (() if math.isfinite(charge) else (1.0,))

    def test_most_singular_power_at_the_pole_wins(self):
        def charge(*forms):
            f = FunctionSpec((Piece(-INF, 0.0, forms[0]), Piece(0.0, INF, forms[1])))
            return _contributions(np.array([0.0]), np.array([0.01]), f, 0.5)[0]

        weak, strong = PowerForm(1.0, -0.25), PowerForm(1.0, -0.4)
        # the lower exponent wins on either side: 2/0.1 * 0.01^0.2
        assert charge(weak, strong) == charge(strong, weak) == pytest.approx(20.0 * 0.01 ** 0.2)
        # on a tie, the higher coefficient: 2*3/0.25 * 0.01^0.5
        big = PowerForm(3.0, -0.25)
        assert charge(weak, big) == charge(big, weak) == pytest.approx(2.4)
        # an infinite piece at the pole makes the charge infinite
        assert charge(PowerForm(INF), weak) == charge(weak, PowerForm(INF)) == INF


class TestClassifyPath:
    def test_constant_sigma_neither(self):
        path = make_path(17)
        v = classify_path(path, FunctionSpec.constant(1.0), 0.5)
        assert v.explodes == "no"
        assert v.freezes == "no"
        assert v.integral_at_horizon == pytest.approx(path.horizon)

    @pytest.mark.parametrize("c, big_m", [(2.0, 3.0), (0.7, 1.3)])
    def test_constant_sigma_freezes_at_m_times_c_to_the_alpha(self, c, big_m):
        """With sigma = c the clock runs at rate c^-alpha, so it reaches M at
        driver time M c^alpha: inside the cell where it crosses M, not at
        the cell's left edge."""
        path = make_path(19, horizon=10.0, step=0.1)
        sigma = FunctionSpec.constant(c)
        v = classify_path(path, sigma, 0.5, Thresholds(m=big_m))
        assert v.freezes == "yes"
        assert v.freeze_time == pytest.approx(big_m * c ** 0.5, rel=1e-12)
        phi = inverse_time_change(path, sigma.inverse_power(0.5), big_m)
        assert v.freeze_time == pytest.approx(phi, rel=1e-12)

    def test_indicator_sigma_freezes_at_hit(self):
        target = IntervalSet.of((1, 2))
        sigma = FunctionSpec.indicator_complement(target)
        hit_seen = False
        for seed in range(60):
            path = make_path(seed, horizon=10.0, step=0.1)
            hits = path.times[target.contains(path.values)]
            v = classify_path(path, sigma, 0.5)
            if hits.size:
                hit_seen = True
                assert v.freezes == "yes"
                assert v.freeze_time == pytest.approx(hits[0])
            assert not (v.explodes == "yes" and v.freezes == "yes")
        assert hit_seen

    def test_fast_growth_always_explodes(self):
        """sigma = x^2 off [-1, 1] has no zero and a finite tail integral
        of sigma^-alpha, so every path explodes, however near it ends."""
        sigma = FunctionSpec(
            (
                Piece(-INF, -1.0, PowerForm(1.0, 2.0, 0.0)),
                Piece(-1.0, 1.0, PowerForm(1.0)),
                Piece(1.0, INF, PowerForm(1.0, 2.0, 0.0)),
            )
        )
        for seed in range(50):
            v = classify_path(make_path(seed, horizon=50.0, step=0.05), sigma, 0.5)
            assert (v.explodes, v.freezes) == ("yes", "no")

    def test_slow_decay_never_explodes(self):
        for seed in range(20):
            path = make_path(seed, horizon=5.0, step=0.05)
            v = classify_path(path, FunctionSpec.power(0.5), 0.5)
            assert v.explodes == "no"

    def test_alive_paths_certain_only_where_the_outcome_is(self):
        """Without coins a path alive at its end is yes or no only where
        certain: an unbounded zero interval of sigma is surely entered, a
        bounded one leaves freezing undetermined, and a pole of
        sigma^-alpha away from the path never freezes it: sigma = |x|^1.5
        explodes, as the tail of |x|^-0.75 is finite."""
        path = make_path(4, z=-3.0, horizon=1.0, step=0.01)
        assert path.values.max() < 5.0
        unbounded = FunctionSpec.indicator_complement(IntervalSet.of((5.0, INF)))
        bounded = FunctionSpec.indicator_complement(IntervalSet.of((5.0, 6.0)))
        v = classify_path(path, unbounded, 0.5)
        assert (v.freezes, v.explodes, v.freeze_time) == ("yes", "no", None)
        v = classify_path(path, bounded, 0.5)
        assert (v.freezes, v.explodes) == ("undetermined", "no")
        v = classify_path(path, FunctionSpec.power(1.5), 0.5)
        assert (v.freezes, v.explodes) == ("no", "yes")

    def test_exclusivity_invariant(self):
        with pytest.raises(ValueError):
            PathVerdict(1.0, "yes", "yes")


class TestThresholds:
    def test_radius_is_validated_and_changes_no_bytes(self):
        """R is still validated, but no verdict reads it."""
        for bad in (0.0, -1.0, INF, math.nan):
            with pytest.raises(ValueError):
                Thresholds(r=bad)
        for sigma in GUARD_SIGMA.values():
            for alpha, path, _ in guard_cases():
                assert classify_path(path, sigma, alpha, Thresholds(r=7.0)) == classify_path(
                    path, sigma, alpha, Thresholds()
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(m=0.0)


class TestDiscretization:
    def test_bias_bound_on_coupled_refinement(self):
        # coarse grid = every other node of the fine grid; the reported bias
        # on the coarse path bounds the actual refinement change on >= 95%
        # of paths for a bounded integrand
        f = FunctionSpec(
            (
                Piece(-INF, -5.0, PowerForm(0.2)),
                Piece(-5.0, 5.0, TableForm((-5.0, 0.0, 5.0), (0.2, 1.0, 0.2))),
                Piece(5.0, INF, PowerForm(0.2)),
            )
        )
        ok = 0
        n_paths = 200
        for seed in range(n_paths):
            # the block's grid values: the fine path without jump-adapted nodes
            block = sample_block(StableParams(0.5), 0.0, 1.0, 0.005, stream_rng(seed, 0))
            fine = PathSample(block.times[0, ::2], block.values[0, ::2], horizon=1.0)
            coarse = PathSample(
                fine.times[::2], fine.values[::2], horizon=fine.horizon
            )
            i_fine = path_integral(fine, f, 1.0)
            i_coarse = path_integral(coarse, f, 1.0)
            # the bound: total variation of f along the coarse skeleton
            # weighted by dwell, plus one cell at the largest level of f
            dwell = np.diff(np.append(coarse.times, coarse.end_time))
            fv = f(coarse.values)
            bias = np.dot(np.abs(np.diff(fv)), dwell[:-1]) + fv.max() * dwell.max()
            if abs(i_fine - i_coarse) <= bias:
                ok += 1
        assert ok / n_paths >= 0.95


#: integrands for the one-path guards: a pole, an infinite piece between a
#: zero piece and a pole, a table, and an infinite indicator on zero ground
GUARD_F = {
    "pole": FunctionSpec.power(-0.7, 2.0, 0.0),
    "mixed": FunctionSpec(
        (
            Piece(-INF, -1.0, PowerForm(0.0)),
            Piece(-1.0, 1.0, PowerForm(1.5, -0.3, 0.0)),
            Piece(1.0, 2.0, PowerForm(INF)),
            Piece(2.0, INF, PowerForm(1.0, 0.5, 2.0)),
        )
    ),
    "table": FunctionSpec(
        (
            Piece(-INF, -1.0, PowerForm(0.5)),
            Piece(-1.0, 1.0, TableForm((-1.0, 0.0, 1.0), (0.5, 3.0, 0.5))),
            Piece(1.0, INF, PowerForm(0.5)),
        )
    ),
    "indicator": FunctionSpec.infinite_indicator(IntervalSet.of((0.5, 1.0))),
}
#: coefficients for the one-path verdicts: constant, a regular and an
#: irregular zero at 0, a zero interval, fast growth, and a pole at 0.5
GUARD_SIGMA = {
    "constant": FunctionSpec.constant(1.3),
    "regular_zero": FunctionSpec.power(0.5),
    "irregular_zero": FunctionSpec.power(1.5),
    "zero_interval": FunctionSpec.indicator_complement(IntervalSet.of((1.0, 2.0))),
    "fast_growth": FunctionSpec(
        (
            Piece(-INF, -1.0, PowerForm(1.0, 2.0, 0.0)),
            Piece(-1.0, 1.0, PowerForm(1.0)),
            Piece(1.0, INF, PowerForm(1.0, 2.0, 0.0)),
        )
    ),
    "sigma_pole": FunctionSpec.power(-0.5, 1.0, 0.5),
}
GUARD_THRESHOLDS = (Thresholds(), Thresholds(m=3.0), Thresholds(r=5.0))
GUARD_LEVELS = (0.0, 0.05, 0.5, 3.0, 20.0, 1e4)


def guard_cases():
    """(alpha, path, t) for seven paths on [0, 10]: six sampled from 0 (a
    pole of two integrands), 0.5 and -1.5, at alpha 0.5 then 0.7, the odd
    ones killed at rate 0.3; and one by hand whose last node, at the
    horizon, sits on the pole at 0 without dwell.  path_integral runs to t:
    past the killing time of the killed paths, inside the horizon of the
    others."""
    cases = []
    for seed in range(6):
        alpha, killed = (0.5, 0.7)[seed // 3], seed % 2 == 1
        path = make_path(
            seed, alpha=alpha, z=(0.0, 0.5, -1.5)[seed % 3], horizon=10.0, step=0.1,
            killing=KillingSpec(0.3) if killed else None,
        )
        cases.append((alpha, path, 10.0 if killed else 2.5))
    by_hand = PathSample(np.array([0.0, 1.0, 4.0, 10.0]), np.array([0.7, 1.5, -0.5, 0.0]), 10.0)
    return cases + [(0.5, by_hand, 10.0)]


#: path_integral of GUARD_F, in its order, along each guard case up to its t
PATH_INTEGRALS = [
    INF, 5.506078552539938, 1.9489547986457612, INF,  # pole
    8.824324008933475, 0.5345455516774598, 26.578655088064615,
    INF, 55.71337152555523, 0.0, INF,  # mixed
    4.227048154519371, 0.0, INF,
    1.775967974327304, 4.04919096028904, 1.25, 2.6968889392540745,  # table
    4.446683562137899, 0.17711872468370424, 13.25,
    0.0, INF, 0.0, 0.0,  # indicator
    INF, 0.0, INF,
]
#: sha256 of inverse_time_change at GUARD_LEVELS, and of the classify_path
#: verdicts; both recorded before `_left_point` and `_crossing` replaced
#: the rules they write once, and the verdicts again when a path alive at
#: its end began to be completed from its last value
ONE_PATH_GOLDEN = {
    "inverse_time_change": "b642937f5501c4d494473b3c4c43bf49ceb03bccc879da377e0791473443371a",
    "classify_path": "5ec7b8956b169a949d42ae2fa044799d41dfa8fa001359d593e60ed9b9c4666a",
}


class TestOnePathBytes:
    def test_guard_covers_infinite_cells_without_dwell(self):
        """Some guard path passes a node without dwell where an integrand is
        infinite, one starts on a pole, and three are killed."""
        cases = guard_cases()
        assert any(
            (np.isinf(f(path.values)) & ~(cell_dwell(path.times, path.end_time) > 0.0)).any()
            for f in GUARD_F.values() for _, path, _ in cases
        )
        assert math.isinf(GUARD_F["pole"](cases[0][1].origin))
        assert sum(path.killed_at is not None for _, path, _ in cases) == 3

    def test_path_integral_unchanged(self):
        got = [
            path_integral(path, f, t) for f in GUARD_F.values() for _, path, t in guard_cases()
        ]
        assert len(got) == len(PATH_INTEGRALS)
        for g, want in zip(got, PATH_INTEGRALS):
            assert math.isinf(g) == math.isinf(want)
            assert g == want or abs(g - want) <= 1e-15 * abs(want)

    def test_inverse_time_change_bytes_unchanged(self):
        got = np.array([
            inverse_time_change(path, f, s)
            for f in GUARD_F.values() for _, path, _ in guard_cases() for s in GUARD_LEVELS
        ])
        assert hashlib.sha256(got.tobytes()).hexdigest() == ONE_PATH_GOLDEN["inverse_time_change"]

    def test_classify_path_bytes_unchanged(self):
        rows = [
            repr((v.explodes, v.freezes, v.freeze_time, v.integral_at_horizon))
            for sigma in GUARD_SIGMA.values()
            for th in GUARD_THRESHOLDS
            for alpha, path, _ in guard_cases()
            for v in [classify_path(path, sigma, alpha, th)]
        ]
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == ONE_PATH_GOLDEN["classify_path"]
