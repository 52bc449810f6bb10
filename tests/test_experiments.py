import io
import json
import math

import pytest

from stablesde import experiments
from stablesde.experiments import (
    CSV_HEADER,
    Estimate,
    ExperimentConfig,
    run_experiment,
    wilson_ci,
)
from stablesde.funcspec import FunctionSpec, Piece, PowerForm
from stablesde.functionals import Thresholds
from stablesde.integrals import monotone_pole_test
from stablesde.intervals import IntervalSet
from stablesde.stable import KillingSpec


def cfg_with(**kw) -> ExperimentConfig:
    base = dict(
        alpha=0.5,
        f_or_sigma=FunctionSpec.constant(1.0),
        z=(0.0,),
        replicates=100,
        horizon=1.0,
        step=0.01,
        estimator="freeze_prob",
        seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def estimate(cfg: ExperimentConfig) -> Estimate:
    """The estimate for the config's single starting point."""
    (est,) = run_experiment(cfg, io.StringIO())
    return est


#: sigma = x^2 outside [-1, 1]: fast enough growth for the clock to run out
QUADRATIC_TAILS = FunctionSpec(
    (
        Piece(-math.inf, -1.0, PowerForm(1.0, 2.0, 0.0)),
        Piece(-1.0, 1.0, PowerForm(1.0)),
        Piece(1.0, math.inf, PowerForm(1.0, 2.0, 0.0)),
    )
)


class TestWilson:
    def test_brackets_point(self):
        for k, n in ((1, 10), (5, 10), (9, 10), (37, 100)):
            lo, hi = wilson_ci(k, n)
            assert lo <= k / n <= hi
            assert 0.0 <= lo and hi <= 1.0

    def test_unanimous_degenerate(self):
        assert wilson_ci(0, 50) == (0.0, 0.0)
        assert wilson_ci(50, 50) == (1.0, 1.0)

    def test_shrinks_with_n(self):
        lo1, hi1 = wilson_ci(5, 10)
        lo2, hi2 = wilson_ci(500, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_ci(5, 3)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg_with(replicates=0)
        with pytest.raises(ValueError):
            cfg_with(alpha=1.0)
        with pytest.raises(ValueError):
            cfg_with(estimator="nope")
        with pytest.raises(ValueError):
            cfg_with(estimator="hitting_prob")  # no target

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for field in ("horizon", "step"):
            with pytest.raises(ValueError):
                cfg_with(**{field: bad})
        with pytest.raises(ValueError):
            cfg_with(z=(0.0, bad))
        with pytest.raises(ValueError):
            cfg_with(z=bad)

    def test_from_json(self):
        doc = {
            "alpha": 0.5,
            "f_or_sigma": "power:|x|^1.5",
            "z": [0.0, 1.0],
            "replicates": 10,
            "horizon": 1.0,
            "step": 0.1,
            "estimator": "freeze_prob",
            "seed": 99,
            "thresholds": {"M": 1e6, "R": 50.0},
        }
        cfg = ExperimentConfig.from_json(json.dumps(doc))
        assert cfg.z == (0.0, 1.0)
        assert cfg.thresholds.m == 1e6
        assert cfg.thresholds.r == 50.0
        assert cfg.seed == 99

    @pytest.mark.parametrize("key, value", [
        ("thresholds", [1e6]), ("thresholds", 1e6), ("killing", 0.5), ("killing", [0.5]),
    ])
    def test_thresholds_and_killing_must_be_objects(self, key, value):
        doc = {"alpha": 0.5, "f_or_sigma": "const:1", "z": 0.0, "replicates": 2,
               "horizon": 1.0, "step": 0.5, "estimator": "hitting_prob", "target": [[1, 2]]}
        with pytest.raises(ValueError, match="thresholds and killing must be JSON objects"):
            ExperimentConfig.from_json(json.dumps({**doc, key: value}))

    def test_whole_float_replicates_read_as_an_int(self):
        doc = {"alpha": 0.5, "f_or_sigma": "const:1", "z": 0.0, "replicates": 2.0,
               "horizon": 1.0, "step": 0.5, "estimator": "freeze_prob"}
        cfg = ExperimentConfig.from_json(json.dumps(doc))
        assert cfg.replicates == 2 and type(cfg.replicates) is int
        assert cfg == ExperimentConfig.from_json(json.dumps({**doc, "replicates": 2}))
        with pytest.raises(ValueError, match="whole number"):
            ExperimentConfig.from_json(json.dumps({**doc, "replicates": 2.5}))

    def test_from_json_with_target_and_killing(self):
        doc = {
            "alpha": 0.5,
            "f_or_sigma": "const:1",
            "z": 0.0,
            "replicates": 5,
            "horizon": 1.0,
            "step": 0.1,
            "estimator": "hitting_prob",
            "target": [[1.0, 2.0]],
            "killing": {"q": 0.5},
        }
        cfg = ExperimentConfig.from_json(json.dumps(doc))
        assert cfg.target == IntervalSet.of((1.0, 2.0))
        assert cfg.killing.q == 0.5

    @pytest.mark.parametrize("estimator", ["freeze_prob", "explosion_prob"])
    def test_clocked_estimator_refuses_killing(self, estimator):
        """The clock runs along drivers that are never killed, so a killing
        rate would be dropped without a word."""
        with pytest.raises(ValueError, match="never killed"):
            cfg_with(estimator=estimator, killing=KillingSpec(5.0))

    @pytest.mark.parametrize("estimator", sorted(set(experiments.ESTIMATORS) - {"hitting_prob"}))
    def test_target_only_for_hitting(self, estimator):
        """Only hitting_prob reads a target; any other estimator would drop
        it without a word."""
        with pytest.raises(ValueError, match="reads no target"):
            cfg_with(estimator=estimator, target=IntervalSet.of((1.0, 2.0)))


class TestEstimators:
    def test_zero_integrand_degenerate_ci(self):
        cfg = cfg_with(
            f_or_sigma=FunctionSpec.constant(0.0), estimator="finiteness_prob"
        )
        est = estimate(cfg)
        assert est.point == 1.0
        assert est.ci95 == (1.0, 1.0)
        assert est.undetermined_fraction == 0.0

    def test_infinite_indicator_interior_probability(self):
        f = FunctionSpec.infinite_indicator(IntervalSet.of((1.0, 2.0)))
        cfg = cfg_with(
            f_or_sigma=f,
            estimator="finiteness_prob",
            replicates=400,
            horizon=1000.0,
            step=1.0,
            thresholds=Thresholds(r=1e5),
        )
        est = estimate(cfg)
        assert 0.0 < est.point < 1.0

    def test_hitting_interior_and_empty(self):
        cfg = cfg_with(
            estimator="hitting_prob",
            target=IntervalSet.of((-1.0, 1.0)),
            replicates=50,
        )
        assert estimate(cfg).point == 1.0

    def test_hitting_monotone_in_distance(self):
        base = dict(
            estimator="hitting_prob",
            target=IntervalSet.of((1.0, 2.0)),
            replicates=1500,
            horizon=1000.0,
            step=1.0,
        )
        near = run_experiment(cfg_with(z=(0.0, -5.0), **base), io.StringIO())
        assert near[0].point > near[1].point

    def test_smalltime_sides(self):
        for beta, side in ((0.5, 1.0), (1.5, 0.0)):
            f = FunctionSpec.power(beta).inverse_power(0.5)
            cfg = cfg_with(
                f_or_sigma=f,
                estimator="smalltime_finiteness",
                replicates=200,
                horizon=0.01,
                step=0.001,
            )
            assert estimate(cfg).point == side

    @pytest.mark.parametrize("beta", [0.5, 0.9, 1.0, 1.1, 1.5])
    def test_finiteness_from_a_pole(self, beta):
        """From z = 0, the pole of f = |x|^(-alpha beta), the occupation
        integral is finite exactly when e + alpha > 0, as the analytic pole
        test says: the first cell sits on the pole, and its alpha-aware
        contribution is infinite only when e + alpha <= 0.  Rows are killed
        at rate 2000, so all but e^-20 of them are killed by the horizon and
        have their whole integral observed; without killing the tail of f
        makes every integral infinite for beta <= 1."""
        f = FunctionSpec.power(beta).inverse_power(0.5)
        finite = monotone_pole_test(0.5, 0.0, f, 1.0).finiteness == "finite"
        est = estimate(cfg_with(
            f_or_sigma=f, estimator="finiteness_prob", replicates=400,
            horizon=0.01, step=0.001, thresholds=Thresholds(r=0.01),
            killing=KillingSpec(2000.0),
        ))
        assert finite == (beta < 1.0)
        assert est.undetermined_fraction < 1.0
        assert (est.point > 0.0) == finite
        if not finite:
            assert est.point == 0.0 and est.undetermined_fraction == 0.0

    def test_freeze_dichotomy(self):
        rows = {}
        for beta in (0.5, 1.5):
            cfg = cfg_with(f_or_sigma=FunctionSpec.power(beta), replicates=300)
            rows[beta] = run_experiment(cfg, io.StringIO())[0].point
        assert rows[0.5] <= 0.01
        assert rows[1.5] >= 0.99

    def test_explosion_estimator(self):
        cfg = cfg_with(
            f_or_sigma=QUADRATIC_TAILS,
            estimator="explosion_prob",
            replicates=100,
            horizon=50.0,
            step=0.1,
            thresholds=Thresholds(r=100.0),
        )
        est = estimate(cfg)
        assert est.point >= 0.9
        # constant sigma never explodes
        est0 = estimate(cfg_with(estimator="explosion_prob", replicates=50))
        assert est0.point == 0.0
        assert est0.undetermined_fraction == 0.0

    def test_a_pole_away_from_z_does_not_rule_explosion_out(self):
        """sigma = |x - 3|^2 at alpha = 0.5 from 0: f = |x - 3|^-1 has a
        pole at 3, which is polar, so a path from 0 stays away from it over
        any bounded time, and the tail of f at +-inf is finite.  Every row
        explodes, exactly as for sigma = |x - 0.5|^2, and none is left
        undetermined; the pole does not make the estimate 0.  The seed and
        the sizes were fixed before the test was first run."""
        ests = [
            estimate(cfg_with(f_or_sigma=FunctionSpec.power(2.0, p=p), estimator="explosion_prob",
                              replicates=2000, horizon=10.0, step=0.01, seed=0))
            for p in (3.0, 0.5)
        ]
        assert ests[0] == ests[1]
        assert ests[0].point == 1.0 and ests[0].undetermined_fraction == 0.0

    @pytest.mark.parametrize("kw", [
        dict(estimator="freeze_prob", f_or_sigma=FunctionSpec.power(1.5), step=0.001),
        dict(estimator="explosion_prob", f_or_sigma=QUADRATIC_TAILS,
             horizon=10.0, step=0.01, thresholds=Thresholds(r=30.0)),
    ])
    def test_sigma_inverted_once_per_block(self, monkeypatch, kw):
        """sigma^-alpha is fixed for a run, so it is built once per block of
        replicates, not once per replicate."""
        calls = []
        inverse_power = FunctionSpec.inverse_power

        def counted(self, alpha):
            calls.append(alpha)
            return inverse_power(self, alpha)

        monkeypatch.setattr(FunctionSpec, "inverse_power", counted)
        cfg = cfg_with(z=(0.0, 3.0), replicates=100, **kw)
        run_experiment(cfg, io.StringIO())
        size = experiments.BLOCK_CELLS // experiments.grid_cells(cfg.horizon, cfg.step)
        blocks = math.ceil(len(cfg.z) * cfg.replicates / size)
        assert 1 < size < cfg.replicates
        assert 0 < len(calls) <= blocks


class TestRunExperiment:
    def test_one_row_per_z(self):
        cfg = cfg_with(z=(0.0, 1.0, 2.0), replicates=1)
        buf = io.StringIO()
        rows = run_experiment(cfg, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert len(rows) == 3

    def test_deterministic_across_worker_counts(self):
        cfg = cfg_with(replicates=64, z=(0.0, 1.0))
        outputs = []
        for threads in (1, 8):
            buf = io.StringIO()
            run_experiment(cfg, buf, threads=threads)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_same_config_byte_identical(self):
        cfg = cfg_with(replicates=32)
        a, b = io.StringIO(), io.StringIO()
        run_experiment(cfg, a)
        run_experiment(cfg, b)
        assert a.getvalue() == b.getvalue()

    def test_estimate_invariants(self):
        # the interval brackets the point and the fraction lies in [0, 1]
        # for every count, since all three are read from the counts
        for yes, resolved, n in ((0, 0, 10), (0, 4, 10), (3, 4, 10), (10, 10, 10)):
            est = Estimate(yes, resolved, n, 0)
            lo, hi = est.ci95
            assert 0.0 <= lo <= est.point <= hi <= 1.0
            assert 0.0 <= est.undetermined_fraction <= 1.0
        est = Estimate(3, 4, 10, 7)
        assert (est.point, est.ci95, est.undetermined_fraction) == (0.75, wilson_ci(3, 4), 0.6)
        assert (Estimate(0, 0, 10, 0).point, Estimate(0, 0, 10, 0).ci95) == (0.0, (0.0, 1.0))
        assert Estimate(0, 0, 10, 0).undetermined_fraction == 1.0
