import json
import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn, hyp2f1

from stablesde import integrals
from stablesde.funcspec import (
    FunctionSpec,
    FunctionSpecError,
    Piece,
    PowerForm,
    TableForm,
)
from stablesde.functionals import _at_once
from stablesde.integrals import (
    PointedSet,
    TestVerdict as Verdict,  # aliased so pytest does not try to collect it
    green_constant,
    irregular_set,
    kernel_integral,
    monotone_pole_test,
    power_law_test,
    tail_kernel_finiteness,
    zero_set,
)
from stablesde.intervals import IntervalSet
from stablesde.sde import classify_sde

INF = math.inf
#: sigma = |x|^2 with a table on [-1, 0) and its zero at 0 marked unflagged
TABLE_BESIDE_ZERO = json.dumps({
    "pieces": [
        {"interval": [-INF, -1.0], "form": {"power": {"c": 1.0}}},
        {"interval": [-1.0, 0.0], "form": {"table": {"x": [-1.0, 0.0], "y": [1.0, 1.0]}}},
        {"interval": [0.0, INF], "form": {"power": {"c": 1.0, "e": 2.0, "p": 0.0}}},
    ],
    "zeros": [{"at": 0.0, "isolated_monotone": False}],
})
ALPHAS = (0.3, 0.5, 0.7, 0.9)
BETAS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def no_quadrature(*args, **kwargs):
    """Stands in for `integrals.quad` where a verdict must need none."""
    raise AssertionError("a quadrature ran")


def integrand_for(alpha: float, beta: float) -> FunctionSpec:
    return FunctionSpec.power(beta).inverse_power(alpha)


def off_pole_exact(alpha: float, e: float, z: float) -> float:
    """int_{-1}^{1} |y|^e |z - y|^(alpha-1) dy for 0 < z < 1 and e > -1, in
    closed form: the cells [0, z], [-1, 0] and [z, 1] give a Beta function
    and two Gauss hypergeometric functions."""
    k = alpha - 1.0
    middle = z ** (e + k + 1.0) * beta_fn(e + 1.0, k + 1.0)
    left = z ** k / (e + 1.0) * hyp2f1(-k, e + 1.0, e + 2.0, -1.0 / z)
    right = (z ** e * (1.0 - z) ** (k + 1.0) / (k + 1.0)
             * hyp2f1(-e, k + 1.0, k + 2.0, -(1.0 - z) / z))
    return middle + left + right


def far_right_exact(big: float) -> float:
    """int_0.5^big |y|^-1/2 |0.5 - y|^-1/2 dy = 2 arcosh(sqrt(big/0.5))."""
    return 2.0 * math.acosh(math.sqrt(big / 0.5))


def far_left_exact(big: float) -> float:
    """int_-big^0 |y|^-1/2 |0.5 - y|^-1/2 dy = 2 arsinh(sqrt(big/0.5))."""
    return 2.0 * math.asinh(math.sqrt(big / 0.5))


def test_off_pole_kernel_closed_form():
    # the off-pole quadrature of the criterion 1 integrands against the
    # closed form, on the grid the analytic benchmark runs at z = 0.5
    count = 0
    for alpha in ALPHAS:
        for beta in BETAS:
            e = -alpha * beta
            if e <= -1.0:
                continue
            count += 1
            v = kernel_integral(alpha, 0.5, integrand_for(alpha, beta), IntervalSet.of((-1, 1)))
            assert v.finiteness == "finite"
            assert v.value_or_bound == pytest.approx(off_pole_exact(alpha, e, 0.5), rel=1e-9)
    assert count == 22


@pytest.mark.parametrize("z", [0.25, 0.5, 0.9])
def test_off_pole_kernel_near_both_exponent_limits(z):
    # alpha = 0.1 and e = -0.95: both endpoint singularities are close to
    # non-integrable, which plain adaptive quadrature could not resolve
    f = FunctionSpec((Piece(-INF, INF, PowerForm(1.0, -0.95, 0.0)),))
    v = kernel_integral(0.1, z, f, IntervalSet.of((-1, 1)))
    assert v.finiteness == "finite"
    assert v.value_or_bound == pytest.approx(off_pole_exact(0.1, -0.95, z), rel=1e-12)


def test_off_pole_kernel_abs_error_covers_true_error():
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        for e in (-0.95, -0.9, -0.5, -0.1, 0.5, 1.5):
            f = FunctionSpec((Piece(-INF, INF, PowerForm(1.0, e, 0.0)),))
            for z in (0.01, 0.1, 0.25, 0.5, 0.9, 0.99):
                v = kernel_integral(alpha, z, f, IntervalSet.of((-1, 1)))
                assert v.finiteness == "finite", (alpha, e, z)
                exact = off_pole_exact(alpha, e, z)
                assert abs(v.value_or_bound - exact) <= v.abs_error_estimate, (alpha, e, z)


def test_tabulated_piece_against_the_kernel_singularity():
    # f = 1 + y on [0, 2], z = 1: int_{-1}^{1} (2 + u)|u|^(-1/2) du = 4/alpha
    f = FunctionSpec((Piece(0.0, 2.0, TableForm((0.0, 2.0), (1.0, 3.0))),))
    v = kernel_integral(0.5, 1.0, f, IntervalSet.of((0.0, 2.0)))
    assert v.finiteness == "finite"
    assert v.value_or_bound == pytest.approx(8.0, rel=1e-12)


class TestKernelIntegral:
    def test_constant_integrand(self):
        v = kernel_integral(0.5, 0.0, FunctionSpec.constant(1.0), IntervalSet.of((-1, 1)))
        assert v.finiteness == "finite"
        assert v.value_or_bound == pytest.approx(4.0, rel=1e-12)

    def test_zero_piece_adds_nothing(self):
        """The c = 0 piece [1, 2) of the indicator complement is skipped: the
        integral is the closed form of the constant pieces on each side, and
        a domain inside the zero piece integrates nothing."""
        f = FunctionSpec.indicator_complement(IntervalSet.of((1, 2)))
        v = kernel_integral(0.5, 0.0, f, IntervalSet.of((0.5, 3)))
        exact = 2.0 * (1.0 - math.sqrt(0.5)) + 2.0 * (math.sqrt(3.0) - math.sqrt(2.0))
        assert v.finiteness == "finite" and v.method == "closed-form"
        assert v.value_or_bound == pytest.approx(exact, rel=1e-12)
        inside = kernel_integral(0.5, 0.0, f, IntervalSet.of((1.25, 1.75)))
        assert (inside.finiteness, inside.value_or_bound, inside.method) == ("finite", 0.0, "empty")

    def test_power_half(self):
        v = kernel_integral(0.5, 0.0, integrand_for(0.5, 0.5), IntervalSet.of((-1, 1)))
        assert v.finiteness == "finite"
        assert v.value_or_bound == pytest.approx(8.0, rel=1e-12)

    def test_log_divergence_at_beta_one(self):
        v = kernel_integral(0.5, 0.0, integrand_for(0.5, 1.0), IntervalSet.of((-1, 1)))
        assert v.finiteness == "infinite"

    def test_oracle_equivalence_grid(self):
        # closed-form power_law_test versus the general evaluator on a
        # 20-point grid
        count = 0
        for alpha in ALPHAS:
            for beta in (0.25, 0.5, 0.75, 1.25, 1.5):
                count += 1
                direct = power_law_test(alpha, beta)
                general = kernel_integral(
                    alpha, 0.0, integrand_for(alpha, beta), IntervalSet.of((-1, 1))
                )
                assert direct.finiteness == general.finiteness
                if direct.finiteness == "finite":
                    assert general.value_or_bound == pytest.approx(
                        direct.value_or_bound, rel=1e-8
                    )
        assert count == 20

    def test_threshold_sharpness(self):
        for alpha in ALPHAS:
            for beta in BETAS:
                v = kernel_integral(
                    alpha, 0.0, integrand_for(alpha, beta), IntervalSet.of((-1, 1))
                )
                assert (v.finiteness == "finite") == (beta < 1.0)

    def test_additivity(self):
        f = integrand_for(0.5, 0.5)
        left = kernel_integral(0.5, 0.0, f, IntervalSet.of((-1, 0)))
        right = kernel_integral(0.5, 0.0, f, IntervalSet.of((0, 1)))
        both = kernel_integral(0.5, 0.0, f, IntervalSet.of((-1, 1)))
        assert left.value_or_bound + right.value_or_bound == pytest.approx(
            both.value_or_bound, abs=1e-10
        )

    def test_domain_monotonicity(self):
        f = integrand_for(0.5, 0.5)
        small = kernel_integral(0.5, 0.0, f, IntervalSet.of((-0.5, 0.5)))
        big = kernel_integral(0.5, 0.0, f, IntervalSet.of((-1, 1)))
        assert small.value_or_bound <= big.value_or_bound

    def test_quadrature_closed_form_oracle(self):
        # int_0^1 y^-1/2 (2-y)^-1/2 dy = 2 arcsin(sqrt(1/2)) = pi/2
        f = FunctionSpec((Piece(-INF, INF, PowerForm(1.0, -0.5, 2.0)),))
        v = kernel_integral(0.5, 0.0, f, IntervalSet.of((0.0, 1.0)))
        assert v.finiteness == "finite"
        assert v.value_or_bound == pytest.approx(math.pi / 2.0, rel=1e-8)
        assert "quadrature" in v.method

    def test_off_center_pole_divergence(self):
        f = FunctionSpec((Piece(-INF, INF, PowerForm(1.0, -1.5, 2.0)),))
        v = kernel_integral(0.5, 0.0, f, IntervalSet.of((1.0, 3.0)))
        assert v.finiteness == "infinite"

    def test_infinite_piece_infinite(self):
        f = FunctionSpec.infinite_indicator(IntervalSet.of((1, 2)))
        v = kernel_integral(0.5, 0.0, f, IntervalSet.of((0, 3)))
        assert v.finiteness == "infinite"

    def test_unbounded_domain_tail(self):
        v = kernel_integral(
            0.5, 0.0, FunctionSpec.constant(1.0), IntervalSet.of((1.0, INF))
        )
        assert v.finiteness == "infinite"
        f = FunctionSpec.power(-2.0)
        v = kernel_integral(0.5, 0.0, f, IntervalSet.of((1.0, INF)))
        assert v.finiteness == "finite"
        assert v.value_or_bound == pytest.approx(1.0 / 1.5, rel=1e-12)

    def test_tabulated_piece(self):
        f = FunctionSpec((Piece(0.0, 2.0, TableForm((0.0, 2.0), (3.0, 3.0))),))
        v = kernel_integral(0.5, 1.0, f, IntervalSet.of((0.0, 2.0)))
        # constant 3 against the kernel centered at 1: 3 * 2 * 1^0.5 / 0.5
        assert v.value_or_bound == pytest.approx(12.0, rel=1e-8)

    def test_pole_mark_inside_table_refused(self):
        """A table is bounded, so its pieces give no pole inside it: a JSON
        pole mark there is refused, and the table's integral is finite."""
        doc = {"pieces": [{"interval": [0.0, 2.0],
                           "form": {"table": {"x": [0.0, 2.0], "y": [1.0, 1.0]}}}]}
        with pytest.raises(FunctionSpecError):
            FunctionSpec.from_json(json.dumps({**doc, "poles": [{"at": 1.0}]}))
        f = FunctionSpec.from_json(json.dumps(doc))
        v = kernel_integral(0.5, 0.0, f, IntervalSet.of((0.0, 2.0)))
        assert v.finiteness == "finite"
        assert v.value_or_bound == pytest.approx(2.0 * 2.0 ** 0.5, rel=1e-8)

    @pytest.mark.parametrize("domain, exact", [
        ((0.5, 1e16), far_right_exact(1e16)),
        ((0.5, 1e20), far_right_exact(1e20)),
        ((0.5, 1e300), far_right_exact(1e300)),
        ((-1e100, 0.0), far_left_exact(1e100)),
        ((-1e300, 0.0), far_left_exact(1e300)),
        ((-1e300, 1e300), far_left_exact(1e300) + math.pi + far_right_exact(1e300)),
    ], ids=["right-1e16", "right-1e20", "right-1e300", "left-1e100", "left-1e300", "whole-1e300"])
    def test_far_cells_against_closed_form(self, domain, exact):
        """|y|^-1/2 |0.5 - y|^-1/2 on cells up to 2^1000 times farther from
        the pole at 0 than their near end.  QUADPACK places a node to about
        2^-53 of a cell's width, so on one such cell a node rounded onto the
        pole and the integral was inconclusive; cut geometrically away from
        the pole, it matches the closed form."""
        v = kernel_integral(0.5, 0.5, FunctionSpec.power(-0.5), IntervalSet.of(domain))
        assert v.finiteness == "finite"
        assert v.value_or_bound == pytest.approx(exact, rel=1e-8)

    def test_cube_of_a_huge_width_inconclusive(self):
        """The cube of a width near 1e300 overflows: an inconclusive
        quadrature, not a crash."""
        f = FunctionSpec((Piece(-INF, INF, PowerForm(1.0, 3.0, 1.0)),))
        v = kernel_integral(0.5, 0.0, f, IntervalSet.of((2.0, 1e300)))
        assert v.finiteness == "inconclusive"
        assert v.abs_error_estimate == INF

    def test_log_closed_form_at_minus_one(self):
        """|y|^-0.5 from z = 0 at alpha = 0.5: the exponent is exactly -1, so
        the closed form on [1, 2] is ln 2, and on [1, inf) its tail diverges."""
        f = FunctionSpec.power(-0.5)
        v = kernel_integral(0.5, 0.0, f, IntervalSet.of((1.0, 2.0)))
        assert (v.finiteness, v.method) == ("finite", "closed-form")
        assert v.value_or_bound == math.log(2.0)
        v = kernel_integral(0.5, 0.0, f, IntervalSet.of((1.0, INF)))
        assert (v.finiteness, v.method) == ("infinite", "tail criterion")

    def test_infinite_piece_decides_before_any_quadrature(self, monkeypatch):
        """f = |x - 3|^2 below 1e300 and +inf above: the infinite piece
        decides over [0, inf) however the pieces before it integrate, as
        for |x|^2 with the same infinite piece, and no quadrature runs."""
        monkeypatch.setattr(integrals, "quad", no_quadrature)
        for p in (3.0, 0.0):
            f = FunctionSpec((Piece(-INF, 1e300, PowerForm(1.0, 2.0, p)),
                              Piece(1e300, INF, PowerForm(INF))))
            v = kernel_integral(0.5, 0.0, f, IntervalSet.of((0.0, INF)))
            assert (v.finiteness, v.method) == ("infinite", "infinite piece")

    def test_table_holding_a_positive_value_to_infinity_diverges(self, monkeypatch):
        """f = 1 on (-inf, 0) and the table (0, 1) -> (1, 2) on [0, inf):
        np.interp holds 2 beyond the last node, so over [1, inf) the tail
        diverges, with no quadrature run."""
        monkeypatch.setattr(integrals, "quad", no_quadrature)
        f = FunctionSpec((Piece(-INF, 0.0, PowerForm(1.0)),
                          Piece(0.0, INF, TableForm((0.0, 1.0), (1.0, 2.0)))))
        v = kernel_integral(0.5, 0.0, f, IntervalSet.of((1.0, INF)))
        assert (v.finiteness, v.method) == ("infinite", "tail criterion")

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            kernel_integral(1.0, 0.0, FunctionSpec.constant(1.0), IntervalSet.of((0, 1)))

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            Verdict("finite", INF)


class TestMonotonePoleTest:
    def test_finite_case(self):
        f = integrand_for(0.5, 0.5)
        v = monotone_pole_test(0.5, 0.0, f, 1.0)
        assert v.finiteness == "finite"
        assert v.value_or_bound == pytest.approx(8.0, rel=1e-10)

    def test_infinite_case(self):
        v = monotone_pole_test(0.7, 0.0, integrand_for(0.7, 2.0), 1.0)
        assert v.finiteness == "infinite"

    def test_removable_flag_constant(self):
        """A constant counts as a monotone power piece: the test holds at
        any point of it, with no bound on the radius."""
        f = FunctionSpec.constant(5.0)
        assert f.monotone_radius(0.0) == INF
        v = monotone_pole_test(0.5, 0.0, f, 1.0)
        assert v.value_or_bound == pytest.approx(2.0 * 5.0 / 0.5, rel=1e-10)

    def test_missing_flag_refused(self):
        """A table on one side of z gives no monotone hypothesis there."""
        f = FunctionSpec(
            (Piece(-INF, 0.0, PowerForm(1.0, -0.25, 0.0)),
             Piece(0.0, 1.0, TableForm((0.0, 1.0), (1.0, 2.0))),
             Piece(1.0, INF, PowerForm(2.0)))
        )
        with pytest.raises(FunctionSpecError, match="z=0.0"):
            monotone_pole_test(0.5, 0.0, f, 1.0)

    def test_epsilon_beyond_delta_refused(self):
        """|x|^-0.25 on [-0.5, 0.5) is monotone on each side of 0 up to the
        piece's ends, radius 0.5, and no further."""
        f = FunctionSpec(
            (Piece(-INF, -0.5, PowerForm(1.0)),
             Piece(-0.5, 0.5, PowerForm(1.0, -0.25, 0.0)),
             Piece(0.5, INF, PowerForm(1.0)))
        )
        with pytest.raises(ValueError):
            monotone_pole_test(0.5, 0.0, f, 1.0)
        v = monotone_pole_test(0.5, 0.0, f, 0.5)
        assert v.value_or_bound == pytest.approx(2.0 * 0.5 ** 0.25 / 0.25, rel=1e-10)


class TestPowerLawTest:
    def test_closed_form_value(self):
        v = power_law_test(0.5, 0.5)
        assert v.finiteness == "finite"
        assert v.value_or_bound == 8.0

    def test_boundary_infinite(self):
        assert power_law_test(0.9, 1.0).finiteness == "infinite"

    def test_beta_two_infinite(self):
        assert power_law_test(0.3, 2.0).finiteness == "infinite"

    def test_threshold_grid(self):
        for alpha in ALPHAS:
            for beta in BETAS:
                v = power_law_test(alpha, beta)
                assert (v.finiteness == "finite") == (beta < 1.0)
                if v.finiteness == "finite":
                    assert v.value_or_bound == pytest.approx(
                        2.0 / (alpha * (1.0 - beta))
                    )

    def test_validation(self):
        with pytest.raises(ValueError):
            power_law_test(0.5, -0.5)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_beta_is_refused(self, beta):
        """inf would read as an infinite integral and NaN would fail only on
        the verdict it produces; both are refused as a beta."""
        with pytest.raises(ValueError, match="beta must be finite"):
            power_law_test(0.5, beta)


class TestIrregularAndZeroSets:
    def test_power_below_one_empty(self):
        assert irregular_set(0.5, FunctionSpec.power(0.5)).is_empty()

    def test_power_above_one_contains_zero(self):
        o = irregular_set(0.5, FunctionSpec.power(1.5))
        assert o.points == (0.0,)

    def test_no_zeros_empty(self):
        assert irregular_set(0.5, FunctionSpec.constant(1.0)).is_empty()

    def test_interval_zero_included_wholesale(self):
        sigma = FunctionSpec.indicator_complement(IntervalSet.of((1, 2)))
        o = irregular_set(0.5, sigma)
        assert o.intervals == IntervalSet.of((1, 2))

    def test_unflagged_zero_decided(self):
        """A zero of sigma with a table on one side: the pieces give no
        monotone hypothesis, but the exponent of |x|^-1 at 0 decides, as it
        does for the clock, so 0 is in O instead of left out of it."""
        sigma = FunctionSpec.from_json(TABLE_BESIDE_ZERO)
        assert irregular_set(0.5, sigma) == zero_set(sigma) == PointedSet(points=(0.0,))
        assert _at_once(sigma.inverse_power(0.5), 0.5, np.array([0.0])).all()

    def test_no_quadrature(self, monkeypatch):
        """O is read from the pieces' exponents, so classify_sde runs no
        quadrature, not even for |x - 5| on (-inf, 0) beside |x|^0.5 on
        [0, inf), whose monotone pole test at 0 integrates the left piece."""
        monkeypatch.setattr(integrals, "quad", no_quadrature)
        sigma = FunctionSpec((Piece(-INF, 0.0, PowerForm(1.0, 1.0, 5.0)),
                              Piece(0.0, INF, PowerForm(1.0, 0.5, 0.0))))
        rep = classify_sde(0.5, sigma)
        assert rep.irregular.is_empty() and rep.zeros == PointedSet(points=(0.0,))

    def test_radius_below_one(self):
        """eps = min(1, radius): |x|^1.5 on [-0.25, 0.25) with constant
        tails still puts 0 in O, from the piece alone."""
        sigma = FunctionSpec(
            (Piece(-INF, -0.25, PowerForm(1.0)), Piece(-0.25, 0.25, PowerForm(1.0, 1.5, 0.0)),
             Piece(0.25, INF, PowerForm(1.0)))
        )
        assert irregular_set(0.5, sigma).points == (0.0,)

    def test_zero_set(self):
        assert zero_set(FunctionSpec.power(0.5)).points == (0.0,)
        assert zero_set(FunctionSpec.constant(1.0)).is_empty()
        ind = FunctionSpec.indicator_complement(IntervalSet.of((1, 2)))
        assert zero_set(ind).intervals == IntervalSet.of((1, 2))


class TestPointedSet:
    def test_subset_and_contains(self):
        a = PointedSet(points=(0.0,))
        b = PointedSet(points=(0.0, 1.0), intervals=IntervalSet.of((2, 3)))
        assert a.issubset(b)
        assert not b.issubset(a)
        assert b.contains(2.5)
        assert not b.contains(4.0)

    def test_unbounded_intervals_compared_by_their_ends(self):
        """Both sets have infinite measure, yet [1, inf) is not inside
        [5, inf)."""
        wide = PointedSet(intervals=IntervalSet.of((1, math.inf)))
        narrow = PointedSet(intervals=IntervalSet.of((5, math.inf)))
        assert not wide.issubset(narrow)
        assert narrow.issubset(wide)

    def test_interval_must_lie_inside_one_piece(self):
        """[0, 3) is not inside [0, 1) u [2, 3), [2, 3) is inside [1, 4),
        and a point in a gap of the pieces is not contained."""
        pieces = PointedSet(intervals=IntervalSet.of((0, 1), (2, 3)))
        assert not PointedSet(intervals=IntervalSet.of((0, 3))).issubset(pieces)
        assert PointedSet(intervals=IntervalSet.of((2, 3))).issubset(
            PointedSet(intervals=IntervalSet.of((1, 4))))
        assert not PointedSet(points=(1.5,)).issubset(pieces)

    def test_points_absorbed_by_intervals(self):
        s = PointedSet(points=(2.5,), intervals=IntervalSet.of((2, 3)))
        assert s.points == ()

    def test_json(self):
        s = PointedSet(points=(1.0,), intervals=IntervalSet.of((2, 3)))
        doc = json.loads(s.to_json())
        assert doc == {"points": [1.0], "intervals": [[2.0, 3.0]]}


class TestCoverage:
    """A part of the line or the domain that no piece covers has no value;
    the tests refuse it instead of reading it as f = 0."""

    F = FunctionSpec((Piece(0.0, 1.0, PowerForm(1.0)),))

    def test_kernel_integral_refuses_an_uncovered_domain(self):
        with pytest.raises(FunctionSpecError, match=r"leave \[1.0, inf\) uncovered"):
            kernel_integral(0.5, 0.5, self.F, IntervalSet.of((0.0, INF)))
        with pytest.raises(FunctionSpecError, match=r"leave \[-1.0, 0.0\) and \[2.0, 3.0\)"):
            kernel_integral(0.5, 0.5, self.F, IntervalSet.of((-1.0, 0.5), (2.0, 3.0)))
        assert kernel_integral(0.5, 0.5, self.F, IntervalSet.of((0.25, 0.75))).finiteness == "finite"

    def test_tail_test_refuses_a_spec_short_of_the_line(self):
        with pytest.raises(FunctionSpecError, match=r"leave \[-inf, 0.0\) and \[1.0, inf\)"):
            tail_kernel_finiteness(0.5, self.F)


class TestTailFiniteness:
    def test_constant_infinite(self):
        assert tail_kernel_finiteness(0.5, FunctionSpec.constant(1.0)) == "infinite"

    def test_slow_decay_infinite(self):
        f = FunctionSpec.power(0.5).inverse_power(0.5)  # |y|^-0.25
        assert tail_kernel_finiteness(0.5, f) == "infinite"

    def test_fast_decay_finite(self):
        assert tail_kernel_finiteness(0.5, FunctionSpec.power(-2.0)) == "finite"

    def test_bounded_infinite_interval_left_out(self):
        """sigma = |x|^1.5 off [1, 2] and 0 on it: a path that hits [1, 2]
        freezes and one that does not never sees it, so the tail of
        f = |x|^-0.75 decides, and it is finite."""
        sigma = FunctionSpec((
            Piece(-INF, 1.0, PowerForm(1.0, 1.5, 0.0)),
            Piece(1.0, 2.0, PowerForm(0.0)),
            Piece(2.0, INF, PowerForm(1.0, 1.5, 0.0)),
        ))
        assert tail_kernel_finiteness(0.5, sigma.inverse_power(0.5)) == "finite"

    def test_reads_only_the_ends_without_quadrature(self, monkeypatch):
        """Tails anchored away from 0, with poles at -7 and 3 inside
        |y| > 1: only the first and the last piece at -inf and +inf count
        (c|y-p|^e grows there when e >= -alpha), and no quadrature runs.
        For alpha < 1 a pole is polar, so a path from z != p stays away from
        it over any bounded time."""
        monkeypatch.setattr(integrals, "quad", no_quadrature)
        def tails(e):
            return FunctionSpec((
                Piece(-INF, -2.0, PowerForm(1.0, e, -7.0)),
                Piece(-2.0, INF, PowerForm(2.0, -1.0, 3.0)),
            ))

        assert tail_kernel_finiteness(0.5, tails(-0.25)) == "infinite"
        assert tail_kernel_finiteness(0.8, tails(-0.75)) == "infinite"
        assert tail_kernel_finiteness(0.5, tails(-0.75)) == "finite"
        assert tail_kernel_finiteness(0.5, tails(-1.25)) == "finite"
        # an infinite piece is +inf whatever its exponent
        assert tail_kernel_finiteness(0.5, FunctionSpec.power(-2.0, c=INF)) == "infinite"

    def test_unbounded_infinite_interval_kept(self):
        """sigma = 1 on (-inf, 5) and 0 on [5, inf): every path hits
        [5, inf), where f is +inf, so the tail is infinite."""
        sigma = FunctionSpec((Piece(-INF, 5.0, PowerForm(1.0)), Piece(5.0, INF, PowerForm(0.0))))
        assert tail_kernel_finiteness(0.5, sigma.inverse_power(0.5)) == "infinite"


class TestGreenConstant:
    def test_half(self):
        assert green_constant(0.5) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)

    def test_riesz_composition_form(self):
        """C_alpha = 1/g(alpha), g(a) = sqrt(pi) 2^a Gamma(a/2)/Gamma((1-a)/2),
        the constant of M. Riesz's composition formula."""
        for k in range(1, 100):
            a = k / 100
            g = math.sqrt(math.pi) * 2.0 ** a * math.gamma(a / 2.0) / math.gamma((1.0 - a) / 2.0)
            assert green_constant(a) == pytest.approx(1.0 / g, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
    def test_alpha_out_of_range_is_refused(self, alpha):
        with pytest.raises(ValueError):
            green_constant(alpha)
