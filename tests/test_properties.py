"""Property tests: numeric parameters read from outside the program are
accepted exactly when they are finite and in range, `IntervalSet` and
`FunctionSpec` survive a JSON round trip, a spec's JSON marks are accepted
exactly when its pieces bear them out, a cell parked on a pole is charged
+inf exactly where the monotone pole test says infinite,
`IntervalSet.intersection` equals the nested loop it replaced, and a
block's grid is `np.linspace`, bit for bit."""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesde.funcspec import FunctionSpec, Piece, PowerForm, TableForm
from stablesde.functionals import Thresholds, _contributions
from stablesde.integrals import kernel_integral, monotone_pole_test
from stablesde.intervals import IntervalSet, ShellSpec
from stablesde.stable import KillingSpec, StableParams, grid_cells, sample_block, stream_rng

INF = math.inf

#: reproducible runs that leave no example database behind
PROPERTY = settings(database=None, derandomize=True, deadline=None)

#: every float, NaN and both infinities included
ANY_FLOAT = st.floats()
FINITE = st.floats(-1e6, 1e6)
ENDPOINT = st.one_of(st.floats(allow_nan=False), st.sampled_from([-INF, INF]))
#: few distinct endpoints, so touching and adjacent intervals are common
GRID_ENDPOINT = st.one_of(
    st.sampled_from([-INF, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, INF]), FINITE
)


def accepted(make) -> bool:
    try:
        make()
    except ValueError:
        return False
    return True


@PROPERTY
@given(ANY_FLOAT)
def test_thresholds_need_finite_positive_levels(x):
    ok = math.isfinite(x) and x > 0.0
    assert accepted(lambda: Thresholds(m=x)) == ok
    assert accepted(lambda: Thresholds(r=x)) == ok


@PROPERTY
@given(ANY_FLOAT)
def test_shell_ratio_must_be_finite_above_one(lam):
    assert accepted(lambda: ShellSpec(lam=lam)) == (math.isfinite(lam) and lam > 1.0)


@PROPERTY
@given(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
def test_power_form_needs_nonnegative_c_and_finite_exponent_and_anchor(c, e, p):
    # +inf is a legal coefficient: the piece is infinite on its interval
    ok = c >= 0.0 and math.isfinite(e) and math.isfinite(p)
    assert accepted(lambda: PowerForm(c, e, p)) == ok


@PROPERTY
@given(ANY_FLOAT)
def test_killing_rate_and_scale_must_be_finite_positive(x):
    ok = math.isfinite(x) and x > 0.0
    assert accepted(lambda: KillingSpec(x)) == ok


@PROPERTY
@given(ANY_FLOAT)
def test_kernel_integral_needs_finite_z(z):
    domain = IntervalSet.of((-1.0, 1.0))
    assert accepted(lambda: kernel_integral(0.5, z, FunctionSpec.constant(1.0), domain)) == (
        math.isfinite(z)
    )


@PROPERTY
@given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), max_size=5))
def test_interval_endpoints_reject_only_nan(pairs):
    has_nan = any(math.isnan(a) or math.isnan(b) for a, b in pairs)
    assert accepted(lambda: IntervalSet.of(*pairs)) == (not has_nan)


@PROPERTY
@given(st.lists(st.tuples(ENDPOINT, ENDPOINT), max_size=6))
def test_interval_set_json_round_trip(pairs):
    s = IntervalSet.of(*pairs)
    assert IntervalSet.from_json(s.to_json()) == s


def nested_loop_intersection(s: IntervalSet, t: IntervalSet) -> IntervalSet:
    pieces = []
    for a, b in s.intervals:
        for c, d in t.intervals:
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                pieces.append((lo, hi))
    return IntervalSet(tuple(pieces))


@PROPERTY
@given(
    st.lists(st.tuples(GRID_ENDPOINT, GRID_ENDPOINT), max_size=8),
    st.lists(st.tuples(GRID_ENDPOINT, GRID_ENDPOINT), max_size=8),
)
@example([(0.0, 1.0), (3.0, 4.0)], [(-0.0, 2.0)])
@example([(-INF, 0.0), (1.0, INF)], [(0.0, 1.0)])
@example([(-INF, INF)], [])
def test_intersection_equals_nested_loop(pairs, other_pairs):
    s, t = IntervalSet.of(*pairs), IntervalSet.of(*other_pairs)
    for x, y in ((s, t), (t, s)):
        # repr tells -0.0 from 0.0, which == does not
        assert repr(x.intersection(y)) == repr(nested_loop_intersection(x, y))


@st.composite
def function_specs(draw):
    cuts = sorted(set(draw(st.lists(FINITE, max_size=4))))
    edges = [-INF, *cuts, INF]
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        if math.isfinite(lo) and math.isfinite(hi) and draw(st.booleans()):
            ys = draw(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2))
            pieces.append(Piece(lo, hi, TableForm((lo, hi), tuple(ys))))
        else:
            c = draw(st.one_of(st.floats(0.0, 1e6), st.just(INF)))
            form = PowerForm(c, draw(st.floats(-3.0, 3.0)), draw(FINITE))
            pieces.append(Piece(lo, hi, form))
    return FunctionSpec(tuple(pieces))


@PROPERTY
@given(function_specs())
def test_function_spec_json_round_trip(f):
    assert FunctionSpec.from_json(f.to_json()) == f


def derived_marks(f: FunctionSpec) -> dict:
    """The "poles" and "zeros" a JSON file may declare for f: every derived
    point, flagged as far as `monotone_radius` reaches, and every zero
    interval."""
    def point(x):
        r = f.monotone_radius(x)
        return {"at": x, "isolated_monotone": r > 0.0, "delta": r}

    return {
        "poles": [point(x) for x in f.pole_points()],
        "zeros": [point(x) for x in f.zero_points()]
        + [{"interval": list(iv)} for iv in f.zero_intervals().intervals],
    }


@PROPERTY
@given(function_specs(), st.data())
def test_marks_are_checked_against_the_pieces(f, data):
    pieces = json.loads(f.to_json())
    assert FunctionSpec.from_json(json.dumps({**pieces, **derived_marks(f)})) == f
    # anchors and piece ends are where derived points sit
    near = [x for pc in f.pieces for x in (pc.lo, pc.hi, getattr(pc.form, "p", pc.lo))]
    near = [v for v in near if math.isfinite(v)] or [0.0]
    x = data.draw(st.one_of(FINITE, st.sampled_from(near)))
    for kind, named in (
        ("poles", x in f.pole_points()),
        ("zeros", x in f.zero_points() or bool(f.zero_intervals().contains(x))),
    ):
        doc = json.dumps({**pieces, kind: [{"at": x}]})
        assert accepted(lambda: FunctionSpec.from_json(doc)) == named



def one_sided(left: PowerForm, right: PowerForm) -> FunctionSpec:
    return FunctionSpec((Piece(-INF, 1.0, left), Piece(1.0, INF, right)))


#: sigma = |x-1|^1.5 on one side of 1 and 1 on the other, as f = sigma^-0.5
LEFT_POLE = one_sided(PowerForm(1.0, -0.75, 1.0), PowerForm(1.0))
RIGHT_POLE = one_sided(PowerForm(1.0), PowerForm(1.0, -0.75, 1.0))
#: a mild pole beside an infinite piece
BESIDE_INFINITE = one_sided(PowerForm(INF), PowerForm(1.0, -0.25, 1.0))


@st.composite
def poles_at_piece_ends(draw):
    """`function_specs` with anchors moved to an end of their piece as often
    as not, so that poles on one side of a piece end, or on both, are
    common."""
    pieces = []
    for pc in draw(function_specs()).pieces:
        form = pc.form
        if isinstance(form, PowerForm):
            ends = [x for x in (pc.lo, pc.hi) if math.isfinite(x)]
            form = PowerForm(form.c, form.e, draw(st.sampled_from([form.p, *ends])))
        pieces.append(Piece(pc.lo, pc.hi, form))
    return FunctionSpec(tuple(pieces))


@PROPERTY
@given(poles_at_piece_ends(), st.floats(0.01, 0.99))
@example(LEFT_POLE, 0.5)
@example(RIGHT_POLE, 0.5)
@example(BESIDE_INFINITE, 0.5)
def test_parked_cell_is_infinite_where_the_pole_test_is(f, alpha):
    for p in f.pole_points():
        radius = f.monotone_radius(p)
        if radius == 0.0:
            continue  # the test does not apply
        verdict = monotone_pole_test(alpha, p, f, min(1.0, radius)).finiteness
        charge = _contributions(np.array([p]), np.array([0.01]), f, alpha)[0]
        assert verdict in ("finite", "infinite")
        assert math.isinf(charge) == (verdict == "infinite"), (p, verdict, charge)


@PROPERTY
@given(st.floats(0.0, 1e300, exclude_min=True), st.floats(1e-3, 3000.0))
@example(1.0, 3.0)
@example(0.1, 7.0)
@example(5e-324, 1.0)
@example(1e-320, 3.0)
def test_block_grid_is_linspace(horizon, ratio):
    """The even nodes of a block are np.linspace(0, horizon, n + 1), bit for
    bit, for any horizon and step; the subnormal horizons are the ones where
    a grid step could round to 0."""
    step = horizon / ratio
    if not 0.0 < step < INF:
        return
    n = grid_cells(horizon, step)
    block = sample_block(StableParams(0.5), 0.0, horizon, step, stream_rng(0, 0))
    assert block.times[0, ::2].tobytes() == np.linspace(0.0, horizon, n + 1).tobytes()
