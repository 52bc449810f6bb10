import itertools
import json
import math
import warnings

import numpy as np
import pytest

from stablesde.funcspec import (
    FunctionSpec,
    FunctionSpecError,
    Piece,
    PowerForm,
    TableForm,
    parse_inline,
)
from stablesde.intervals import IntervalSet

INF = math.inf


class TestEvaluation:
    def test_constant(self):
        f = FunctionSpec.constant(3.0)
        assert f(0.0) == 3.0
        assert np.array_equal(f(np.array([-5.0, 7.0])), np.array([3.0, 3.0]))

    def test_power(self):
        f = FunctionSpec.power(2.0, c=3.0, p=1.0)
        assert f(2.0) == pytest.approx(3.0)
        assert f(1.0) == 0.0  # the pieces' zero at the anchor
        assert f.zero_points() == (1.0,)

    def test_negative_power_pole(self):
        f = FunctionSpec.power(-0.5)
        assert f(4.0) == pytest.approx(0.5)
        assert f(0.0) == INF
        assert f.pole_points() == (0.0,)
        assert f.monotone_radius(0.0) == INF

    def test_indicator_complement(self):
        f = FunctionSpec.indicator_complement(IntervalSet.of((1, 2)))
        assert f(0.0) == 1.0
        assert f(1.5) == 0.0
        assert f(2.5) == 1.0
        assert f.zero_intervals() == IntervalSet.of((1, 2))
        assert f.zero_points() == ()

    def test_infinite_indicator(self):
        f = FunctionSpec.infinite_indicator(IntervalSet.of((1, 2)))
        assert f(1.5) == INF
        assert f(0.0) == 0.0
        assert f.infinite_intervals() == IntervalSet.of((1, 2))

    def test_table_interpolation(self):
        f = FunctionSpec(
            (Piece(0.0, 2.0, TableForm((0.0, 2.0), (0.0, 4.0))),)
        )
        assert f(1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("xs", [(1.0, 0.0), (0.0, 0.0), (math.nan, 1.0), (0.0, math.inf)])
    def test_table_nodes_must_be_finite_and_increasing(self, xs):
        """np.interp reads its nodes as sorted: (1, 0) -> (1, 2) would give
        [1, 2, 2, 2] at 0, .25, .5 and .75 where the ordered table gives
        [2, 1.75, 1.5, 1.25], so such nodes are refused."""
        with pytest.raises(ValueError, match="strictly increasing"):
            TableForm(xs, (1.0, 2.0))
        ordered = FunctionSpec((Piece(0.0, 1.0, TableForm((0.0, 1.0), (2.0, 1.0))),))
        assert ordered(np.array([0.0, 0.25, 0.5, 0.75])).tolist() == [2.0, 1.75, 1.5, 1.25]

    @pytest.mark.parametrize("xs, ys, message", [
        ((0.0, 1.0), (1.0,), "matching xs/ys"),
        ((0.0,), (1.0,), "matching xs/ys"),
        ((0.0, 1.0), (1.0, -0.5), "finite and nonnegative"),
        ((0.0, 1.0), (1.0, INF), "finite and nonnegative"),
    ])
    def test_table_shape_and_values_refused(self, xs, ys, message):
        with pytest.raises(ValueError, match=message):
            TableForm(xs, ys)

    def test_empty_piece_refused(self):
        for lo, hi in ((1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="piece interval is empty"):
                Piece(lo, hi, PowerForm(1.0))

    @pytest.mark.parametrize("f, at_minus, at_plus", [
        (FunctionSpec.power(1.5), INF, INF),
        (FunctionSpec.power(-0.5, p=2.0), 0.0, 0.0),
        (FunctionSpec.constant(3.0), 3.0, 3.0),
        (FunctionSpec.indicator_complement(IntervalSet.of((1, 2))), 1.0, 1.0),
        (FunctionSpec.indicator_complement(IntervalSet.of((-INF, 0))), 0.0, 1.0),
        (FunctionSpec.indicator_complement(IntervalSet.of((0, INF))), 1.0, 0.0),
    ])
    def test_limits_at_infinity(self, f, at_minus, at_plus):
        """-inf and +inf take the limit of the first and the last piece."""
        assert (f(-INF), f(INF)) == (at_minus, at_plus)
        assert f(np.array([-INF, INF])).tolist() == [at_minus, at_plus]

    def test_infinity_outside_a_partial_domain_raises(self):
        f = FunctionSpec((Piece(0.0, 1.0, PowerForm(1.0)),))
        for x in (-INF, INF, math.nan):
            with pytest.raises(FunctionSpecError, match="outside the declared domain"):
                f(x)

    def test_one_piece_over_the_whole_input(self):
        """A piece that covers an array, or the whole line, evaluates it as a
        whole, to the same values as point by point, into a new array of
        floats; a NaN among its points still raises, whatever the piece
        would give anywhere else: c = 0, c = +inf, a constant, powers and a
        table."""
        forms = (PowerForm(0.0), PowerForm(INF), PowerForm(1.0), PowerForm(2.0, 0.5, 1.0),
                 PowerForm(2.0, -0.5, 1.0), TableForm((0.0, 1.0), (1.0, 3.0)))
        for form, (lo, hi) in itertools.product(forms, ((-INF, INF), (-5.0, 5.0))):
            f = FunctionSpec((Piece(lo, hi, form),))
            xs = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
            out = f(xs)
            assert out.shape == xs.shape and out.dtype == float
            assert not np.shares_memory(out, xs)
            assert out.tolist() == [[f(float(x)) for x in row] for row in xs]
            for bad in (np.array([0.0, math.nan]), math.nan):
                with pytest.raises(FunctionSpecError, match="outside the declared domain"):
                    f(bad)

    def test_outside_domain_raises(self):
        f = FunctionSpec((Piece(0.0, 1.0, PowerForm(1.0)),))
        with pytest.raises(FunctionSpecError):
            f(5.0)

    def test_overlap_rejected(self):
        with pytest.raises(FunctionSpecError):
            FunctionSpec(
                (Piece(0.0, 2.0, PowerForm(1.0)), Piece(1.0, 3.0, PowerForm(2.0)))
            )


class TestStructure:
    def test_pole_points_include_anchors(self):
        f = FunctionSpec((Piece(-INF, INF, PowerForm(1.0, -1.0, 3.0)),))
        assert 3.0 in f.pole_points()


class TestInversePower:
    def test_power_mapping(self):
        sigma = FunctionSpec.power(0.5, c=2.0)
        f = sigma.inverse_power(0.5)
        pc = f.pieces[0]
        assert pc.form.c == pytest.approx(2.0 ** -0.5)
        assert pc.form.e == pytest.approx(-0.25)
        # the zero of sigma became a pole of f, monotone on each side
        assert f.pole_points() == (0.0,)
        assert f.monotone_radius(0.0) == INF

    def test_worked_out_once_per_spec(self):
        """The pole forms, the infinite intervals and inverse_power for the
        last alpha are kept in the spec, so a second call returns the same
        object, and keeping them changes neither equality, hashing, repr
        nor JSON.  A NaN alpha is refused before any lookup."""
        sigma = FunctionSpec.indicator_complement(IntervalSet.of((1, 2)))
        f = sigma.inverse_power(0.5)
        assert sigma.inverse_power(0.5) is f
        assert f.infinite_intervals() is f.infinite_intervals()
        pole = FunctionSpec.power(0.5).inverse_power(0.5)
        assert pole.pole_forms() is pole.pole_forms() and pole.pole_points() == (0.0,)
        twin = FunctionSpec.indicator_complement(IntervalSet.of((1, 2)))
        assert sigma == twin and hash(sigma) == hash(twin)
        assert repr(sigma) == repr(twin) and sigma.to_json() == twin.to_json()
        # a numpy alpha is kept apart: it gives numpy coefficients
        numpy_f = sigma.inverse_power(np.float64(0.5))
        assert numpy_f == f and numpy_f is not f
        # only the last alpha is kept
        other = sigma.inverse_power(0.7)
        assert sigma.inverse_power(0.7) is other and sigma.inverse_power(0.5) is not f
        for alpha in (math.nan, np.float64(math.nan), 0.0, -1.0):
            with pytest.raises(ValueError, match="alpha must be positive"):
                sigma.inverse_power(alpha)

    def test_values_match_pointwise(self):
        sigma = FunctionSpec.power(1.5)
        f = sigma.inverse_power(0.7)
        xs = np.array([-2.0, -0.5, 0.3, 4.0])
        assert np.allclose(f(xs), sigma(xs) ** -0.7)

    def test_interval_zero_becomes_infinite_piece(self):
        sigma = FunctionSpec.indicator_complement(IntervalSet.of((1, 2)))
        f = sigma.inverse_power(0.5)
        assert f(1.5) == INF
        assert f(0.0) == 1.0
        assert f.infinite_intervals() == IntervalSet.of((1, 2))

    def test_infinite_piece_becomes_zero_piece(self):
        """A c = +inf piece maps to c = 0: where sigma is infinite the clock
        runs at rate 0."""
        sigma = FunctionSpec.infinite_indicator(IntervalSet.of((1, 2)))
        f = sigma.inverse_power(0.5)
        assert [pc.form.c for pc in f.pieces] == [INF, 0.0, INF]
        assert f.zero_intervals() == IntervalSet.of((1, 2)) == sigma.infinite_intervals()
        assert f(1.5) == 0.0 and f(0.0) == INF

    def test_tabulated_zero_refused(self):
        sigma = FunctionSpec((Piece(0.0, 1.0, TableForm((0.0, 1.0), (0.0, 1.0))),))
        with pytest.raises(FunctionSpecError):
            sigma.inverse_power(0.5)

    @pytest.mark.parametrize("alpha", [0.99, np.float64(0.99)])
    def test_power_beyond_the_float_range_refused(self, alpha):
        """1e-320 ** -0.99 has no float value: a float alpha raises
        OverflowError and a numpy one gives inf with a RuntimeWarning.  Both
        are refused by name, with no warning, for a coefficient and for a
        table value, and neither is read as +inf, which would make a
        positive sigma a zero interval."""
        table = FunctionSpec((Piece(-INF, 0.0, PowerForm(1.0)),
                              Piece(0.0, 1.0, TableForm((0.0, 1.0), (1e-320, 1.0))),
                              Piece(1.0, INF, PowerForm(1.0))))
        for sigma, piece in ((FunctionSpec.constant(1e-320), r"\[-inf, inf\)"),
                             (table, r"\[0.0, 1.0\)")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FunctionSpecError, match=piece + " at alpha=0.99"):
                    sigma.inverse_power(alpha)


class TestSerialization:
    def test_round_trip_power(self):
        f = FunctionSpec.power(-1.5, c=2.0, p=1.0)
        g = FunctionSpec.from_json(f.to_json())
        assert g == f

    def test_round_trip_table_and_marks(self):
        """The pieces are written alone; marks that agree with them are read
        back and dropped."""
        f = FunctionSpec(
            (
                Piece(-INF, 0.0, PowerForm(1.0, -0.5, -1.0)),
                Piece(0.0, 1.0, TableForm((0.0, 1.0), (2.0, 3.0))),
                Piece(1.0, INF, PowerForm(0.0)),
            )
        )
        assert set(json.loads(f.to_json())) == {"pieces"}
        assert FunctionSpec.from_json(f.to_json()) == f
        doc = json.loads(f.to_json())
        doc["poles"] = [{"at": -1.0, "isolated_monotone": True, "delta": 1.0}]
        doc["zeros"] = [{"interval": [1.0, 2.0]}]
        assert FunctionSpec.from_json(json.dumps(doc)) == f

    def test_infinity_survives_json(self):
        f = FunctionSpec.constant(1.0)
        g = FunctionSpec.from_json(f.to_json())
        assert g.pieces[0].lo == -INF and g.pieces[0].hi == INF


class TestDerivedStructure:
    """Zeros, poles and the monotone radius come from the pieces alone."""

    SPLIT = FunctionSpec(
        (
            Piece(-INF, -1.0, PowerForm(1.0)),
            Piece(-1.0, 1.0, PowerForm(2.0, 1.5, 0.0)),
            Piece(1.0, 2.0, PowerForm(0.0)),
            Piece(2.0, INF, PowerForm(1.0, 0.5, 2.0)),
        )
    )

    def test_zero_points_and_intervals(self):
        assert self.SPLIT.zero_points() == (0.0, 2.0)
        assert self.SPLIT.zero_intervals() == IntervalSet.of((1.0, 2.0))
        assert self.SPLIT.pole_points() == ()

    def test_anchor_at_a_piece_end(self):
        """N takes anchors in [lo, hi): a piece covers its left end only.
        The poles of sigma^-alpha take them in [lo, hi]."""
        sigma = FunctionSpec(
            (Piece(-INF, 1.0, PowerForm(1.0, 1.5, 1.0)), Piece(1.0, INF, PowerForm(1.0)))
        )
        assert sigma.zero_points() == ()
        assert sigma(1.0) == 1.0
        assert sigma.inverse_power(0.5).pole_points() == (1.0,)

    def test_monotone_radius(self):
        """The distance to the nearest piece end other than x, when each
        side up to it is one power piece with no anchor strictly inside."""
        f = self.SPLIT
        assert f.monotone_radius(0.0) == 1.0
        assert f.monotone_radius(2.0) == 1.0  # a constant counts
        assert f.monotone_radius(-3.0) == 2.0
        # around 0.25 the radius is 0.75, and the anchor at 0 lies inside
        assert f.monotone_radius(0.25) == 0.0
        assert f.monotone_radius(-0.25) == 0.0
        # around 0.5 the radius is 0.5, which stops at the anchor
        assert f.monotone_radius(0.5) == 0.5
        assert FunctionSpec.power(-0.5).monotone_radius(0.0) == INF
        table = FunctionSpec(
            (Piece(-INF, 0.0, PowerForm(1.0, 2.0, 0.0)),
             Piece(0.0, 1.0, TableForm((0.0, 1.0), (1.0, 2.0))),
             Piece(1.0, INF, PowerForm(2.0)))
        )
        assert table.monotone_radius(0.0) == 0.0
        # no piece on the left
        one_sided = FunctionSpec((Piece(0.0, 1.0, PowerForm(1.0, -0.5, 0.0)),))
        assert one_sided.monotone_radius(0.0) == 0.0

    def test_monotone_radius_rounds_down_into_the_piece(self):
        """At x = 1e20 on the piece [1, 1e40), x - 1.0 rounds to 1e20, and a
        radius of 1e20 would reach 0, past the piece end: it is rounded down
        one ulp, to 1e20 - 16384, whose window starts inside the piece."""
        f = FunctionSpec((Piece(-INF, 1.0, PowerForm(1.0)),
                          Piece(1.0, 1e40, PowerForm(2.0)),
                          Piece(1e40, INF, PowerForm(1.0))))
        x = 1e20
        assert x - 1.0 == x
        radius = f.monotone_radius(x)
        assert radius == 9.999999999999998e19 == math.nextafter(x, 0.0)
        assert x - radius >= 1.0 and x + radius <= 1e40

    def test_inverse_power_keeps_the_structure(self):
        f = self.SPLIT.inverse_power(0.5)
        assert f.pole_points() == (0.0, 2.0)
        assert f.infinite_intervals() == self.SPLIT.zero_intervals()
        for x in (-3.0, -0.25, 0.0, 0.5, 2.0, 5.0):
            assert f.monotone_radius(x) == self.SPLIT.monotone_radius(x)

    @pytest.mark.parametrize("marks", [
        {"zeros": [{"at": 0.5, "isolated_monotone": False}]},
        {"zeros": [{"interval": [1.0, 3.0]}]},
        {"zeros": [{"at": 0.0, "isolated_monotone": True}]},
    ], ids=["off-anchor", "past-the-piece", "unbounded-delta"])
    def test_mark_against_the_pieces_refused(self, marks):
        doc = {**json.loads(self.SPLIT.to_json()), **marks}
        with pytest.raises(FunctionSpecError):
            FunctionSpec.from_json(json.dumps(doc))

    def test_mark_with_a_point_and_an_interval_refused(self):
        doc = {**json.loads(self.SPLIT.to_json()),
               "zeros": [{"at": 1.5, "interval": [1.25, 1.75]}]}
        with pytest.raises(FunctionSpecError, match="needs one point, or a zero one interval"):
            FunctionSpec.from_json(json.dumps(doc))

    def test_unknown_form_refused(self):
        doc = {"pieces": [{"interval": [-INF, INF], "form": {"spline": {"c": 1.0}}}]}
        with pytest.raises(FunctionSpecError, match="unknown form"):
            FunctionSpec.from_json(json.dumps(doc))

    def test_agreeing_marks_accepted(self):
        doc = json.loads(self.SPLIT.to_json())
        doc["zeros"] = [
            {"at": 0.0, "isolated_monotone": True, "delta": 1.0},
            {"at": 2.0, "isolated_monotone": True, "delta": 0.5},
            {"at": 1.5},
            {"interval": [1.25, 1.75]},
        ]
        assert FunctionSpec.from_json(json.dumps(doc)) == self.SPLIT


class TestInlineParsing:
    def test_power_forms(self):
        f = parse_inline("power:|x|^1.5")
        assert f.pieces[0].form == PowerForm(1.0, 1.5, 0.0)
        g = parse_inline("power:|x-2|^-0.5*3.0")
        assert g.pieces[0].form == PowerForm(3.0, -0.5, 2.0)

    def test_indicator(self):
        f = parse_inline("indicator:complement:[1,2)")
        assert f(1.5) == 0.0 and f(0.0) == 1.0

    def test_const(self):
        assert parse_inline("const:2.5")(0.0) == 2.5

    def test_reject_garbage(self):
        with pytest.raises(FunctionSpecError):
            parse_inline("sigmoid:whatever")
