import json
import math
import random
import warnings

import numpy as np
import pytest

from stablesde.intervals import (
    DIVERGENCE_BOUND,
    DIVERGENT_RATIO,
    RATIO_MARGIN,
    RATIO_RUN,
    IntervalSet,
    SeriesVerdict,
    ShellSpec,
    ball_capacity,
    build_example_set,
    example_set_potential_partial_sums,
    interval_capacity_upper,
    wiener_sum,
)


def random_set(rng, max_pieces=5, span=10.0):
    pieces = []
    for _ in range(rng.randint(0, max_pieces)):
        a = rng.uniform(-span, span)
        b = a + rng.uniform(0.0, span / 2)
        pieces.append((a, b))
    return IntervalSet.of(*pieces)


class TestIntervalSetAlgebra:
    def test_normalization_merges_and_sorts(self):
        s = IntervalSet.of((3, 4), (1, 2), (3.5, 5), (2, 2))
        assert s.intervals == ((1.0, 2.0), (3.0, 5.0))

    def test_empty(self):
        assert IntervalSet.empty().is_empty()
        assert IntervalSet.empty().measure() == 0.0

    def test_randomized_laws(self):
        rng = random.Random(20240817)
        probes = np.linspace(-16.0, 16.0, 257)
        for _ in range(1000):
            a, b = random_set(rng), random_set(rng)
            # idempotence
            assert a.union(a) == a
            assert a.intersection(a) == a
            # commutativity
            assert a.union(b) == b.union(a)
            assert a.intersection(b) == b.intersection(a)
            # membership consistency on a probe grid
            ma, mb = a.contains(probes), b.contains(probes)
            assert np.array_equal(a.union(b).contains(probes), ma | mb)
            assert np.array_equal(a.intersection(b).contains(probes), ma & mb)
            # measure additivity on disjoint inputs
            inter = a.intersection(b)
            total = a.union(b).measure() + inter.measure()
            assert total == pytest.approx(a.measure() + b.measure(), abs=1e-9)
            if inter.is_empty():
                assert a.union(b).measure() == pytest.approx(
                    a.measure() + b.measure(), abs=1e-9
                )

    def test_complement_within(self):
        s = IntervalSet.of((1, 2), (3, 4))
        c = s.complement_within((0, 5))
        assert c.intervals == ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0))
        assert s.union(c).measure() == pytest.approx(5.0)
        assert s.intersection(c).is_empty()

    def test_distance_to(self):
        s = IntervalSet.of((1, 2))
        assert s.distance_to(1.5) == 0.0
        assert s.distance_to(0.0) == pytest.approx(1.0)
        assert s.distance_to(3.0) == pytest.approx(1.0)
        assert IntervalSet.empty().distance_to(0.0) == math.inf

    def test_distance_to_array_matches_scalar(self):
        s = IntervalSet.of((1, 2), (-4, -3))
        # inside, on both endpoints of each interval, between and beyond
        xs = np.array([1.5, -3.5, 1.0, 2.0, -4.0, -3.0, 0.0, -1.0, 7.25, -9.0, math.inf])
        out = s.distance_to(xs)
        assert out.shape == xs.shape
        assert np.array_equal(out, [s.distance_to(float(x)) for x in xs])
        assert np.array_equal(out[:3], [0.0, 0.0, 0.0])
        assert s.distance_to(xs.reshape(1, -1)).shape == (1, len(xs))
        assert np.array_equal(IntervalSet.empty().distance_to(xs), np.full(len(xs), math.inf))

    def test_distance_from_an_infinity_a_piece_reaches(self):
        """A point at an infinite end of a piece is in it, at distance 0,
        with no inf - inf; from the other infinity it is infinitely far, as
        both are from a bounded piece, and a NaN point stays at +inf."""
        xs = np.array([-math.inf, -1e300, 0.0, 1e300, math.inf, math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounded = IntervalSet.of((1, 2)).distance_to(xs)
            right = IntervalSet.of((1, math.inf)).distance_to(xs)
            left = IntervalSet.of((-math.inf, -3)).distance_to(xs)
            line = IntervalSet.of((-math.inf, math.inf)).distance_to(xs)
            both = IntervalSet.of((-math.inf, -3), (1, math.inf)).distance_to(xs)
        inf = math.inf
        assert bounded.tolist() == [inf, 1e300, 1.0, 1e300, inf, inf]
        assert right.tolist() == [inf, 1e300, 1.0, 0.0, 0.0, inf]
        assert left.tolist() == [0.0, 0.0, 3.0, 1e300, inf, inf]
        assert line.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, inf]
        assert both.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0, inf]

    def test_json_round_trip(self):
        s = IntervalSet.of((1, 2), (4.5, 7))
        assert IntervalSet.from_json(s.to_json()) == s

    @pytest.mark.parametrize("text", ["5", "null", '{"a": 1}', "[5]", "[[1]]", "[[1, 2, 3]]",
                                      '[[null, 1]]', '[["0", 1]]', "[[true, 1]]",
                                      "[[2, 1]]", "[[1, 1]]", "[[0, 1], [3, 2]]"])
    def test_from_json_rejects_what_is_not_a_list_of_pairs(self, text):
        with pytest.raises(ValueError, match="list of \\[a, b\\] pairs"):
            IntervalSet.from_json(text)


def shell(spec: ShellSpec, n: int) -> IntervalSet:
    """The two-component shell at index n, as half-open intervals; rounding
    may empty or join its pieces."""
    r_in, r_out = spec.lam ** (n - 1), spec.lam ** n
    return IntervalSet.of(
        (spec.center - r_out, spec.center - r_in), (spec.center + r_in, spec.center + r_out)
    )


def capacity_lower_bound(alpha: float, s: IntervalSet) -> float:
    """Isoperimetric lower bound: any set of Lebesgue measure m has capacity
    at least that of the ball of the same measure (radius m/2)."""
    m = s.measure()
    if m == 0.0:
        return 0.0
    return ball_capacity(alpha, 1.0) * 2.0 ** (alpha - 1.0) * m ** (1.0 - alpha)


def reference_wiener_sum(alpha: float, spec: ShellSpec, s: IntervalSet) -> SeriesVerdict:
    """`wiener_sum` one shell at a time: each shell is intersected with the
    target and its capacity bracketed by `interval_capacity_upper` and
    `capacity_lower_bound`, and the verdict is read from Python lists."""
    upper_terms, lower_terms, upper_sums, lower_sums = [], [], [], []
    up_total = lo_total = 0.0
    for n in range(spec.n_min, spec.n_max + 1):
        piece = s.intersection(shell(spec, n))
        weight = spec.lam ** (n * (alpha - 1.0))
        u = weight * interval_capacity_upper(alpha, piece)
        l = weight * capacity_lower_bound(alpha, piece)
        up_total += u
        lo_total += l
        upper_terms.append(u)
        lower_terms.append(l)
        upper_sums.append(up_total)
        lower_sums.append(lo_total)
    out = SeriesVerdict(upper_sums, lower_sums)
    nz = [t for t in upper_terms if t > 0.0]
    if not nz:
        out.verdict, out.ratio_estimate = "convergent", 0.0
        return out
    ratios = [b / a for a, b in zip(nz, nz[1:])]
    if ratios:
        out.ratio_estimate = float(np.median(ratios))
    lnz = [t for t in lower_terms if t > 0.0]
    lratios = [b / a for a, b in zip(lnz, lnz[1:])]
    best = run = 0
    for r in ratios:
        run = run + 1 if r <= 1.0 - RATIO_MARGIN else 0
        best = max(best, run)
    if lo_total > DIVERGENCE_BOUND or (
        len(lratios) >= RATIO_RUN and all(r >= DIVERGENT_RATIO for r in lratios[-RATIO_RUN:])
    ):
        out.verdict = "divergent"
    elif best >= RATIO_RUN and nz[-1] <= nz[0]:
        out.verdict = "convergent"
    return out


#: seed and number of the random series cases, fixed before the test was
#: first run; the ratios and huge centres are the ones the cases must cover
SERIES_SEED, SERIES_CASES = 140, 400
SERIES_LAMS = (1.0000001, 1.1, 2, 3.7)
HUGE_CENTRES = (1e20, -1e20, 2.0 ** 60, 1e300)


def random_series_case(rng: random.Random):
    """alpha, shells and a target of up to 9 pieces: some at shell radii,
    some across the centre, some unbounded."""
    lam = rng.choice(SERIES_LAMS)
    center = rng.choice(HUGE_CENTRES) if rng.random() < 0.4 else rng.uniform(-10.0, 10.0)
    n_min = rng.randint(-40, 3)
    n_max = n_min + rng.randint(0, 100)
    radius = lambda: lam ** rng.uniform(n_min - 2, n_max + 2)
    pieces = []
    for _ in range(rng.randint(0, 6)):
        x = center + rng.choice((-1.0, 1.0)) * radius()
        pieces.append((x, x + abs(x - center) * rng.uniform(0.0, 1.5)))
    if rng.random() < 0.3:
        pieces.append((center - radius(), center + radius()))
    if rng.random() < 0.25:
        pieces.append((-math.inf, center - radius()))
    if rng.random() < 0.25:
        pieces.append((center + radius(), math.inf))
    return rng.uniform(0.05, 0.95), ShellSpec(center, lam, n_min, n_max), IntervalSet.of(*pieces)


class TestShells:
    def test_unit_shell(self):
        s = shell(ShellSpec(0.0, 2.0), 1)
        assert s.intervals == ((-2.0, -1.0), (1.0, 2.0))
        assert s.measure() == pytest.approx(2.0)

    def test_inner_shell_index_zero(self):
        s = shell(ShellSpec(0.0, 2.0), 0)
        assert s.intervals == ((-1.0, -0.5), (0.5, 1.0))
        assert s.measure() == pytest.approx(1.0)

    def test_translated_shell(self):
        s = shell(ShellSpec(5.0, 2.0), 1)
        assert s.intervals == ((3.0, 4.0), (6.0, 7.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ShellSpec(lam=1.0)
        with pytest.raises(ValueError):
            ShellSpec(n_min=3, n_max=1)


class TestCapacity:
    def test_unit_ball_gamma_oracle(self):
        # independent evaluation through math.gamma
        expected = math.gamma(0.5) / (math.gamma(0.25) * math.gamma(1.25))
        assert ball_capacity(0.5, 1.0) == pytest.approx(expected, abs=1e-10)

    def test_scaling_law(self):
        rng = random.Random(7)
        for _ in range(100):
            alpha = rng.uniform(0.05, 0.95)
            r = rng.uniform(0.01, 50.0)
            a = rng.uniform(0.01, 50.0)
            lhs = ball_capacity(alpha, a * r)
            rhs = a ** (1.0 - alpha) * ball_capacity(alpha, r)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_finite_positive(self):
        for alpha in (0.05, 0.3, 0.5, 0.7, 0.95):
            v = ball_capacity(alpha, 1.0)
            assert 0.0 < v < math.inf

    def test_alpha_validation(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ball_capacity(alpha, 1.0)

    def test_radius_validation(self):
        for r in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError):
                ball_capacity(0.5, r)
        # an unbounded target has infinite capacity
        assert ball_capacity(0.5, math.inf) == math.inf

    def test_lower_bound_values(self):
        assert capacity_lower_bound(0.5, IntervalSet.empty()) == 0.0
        # ball of measure 2 has radius 1: the bound is tight
        tight = capacity_lower_bound(0.5, IntervalSet.of((0, 2)))
        assert tight == pytest.approx(ball_capacity(0.5, 1.0), rel=1e-12)
        split = capacity_lower_bound(0.5, IntervalSet.of((0, 1), (10, 11)))
        assert split == pytest.approx(ball_capacity(0.5, 1.0), rel=1e-12)

    def test_upper_bound_values(self):
        assert interval_capacity_upper(0.5, IntervalSet.empty()) == 0.0
        single = interval_capacity_upper(0.5, IntervalSet.of((0, 2)))
        assert single == pytest.approx(ball_capacity(0.5, 1.0), rel=1e-12)
        two = interval_capacity_upper(0.5, IntervalSet.of((0, 1), (5, 6)))
        assert two == pytest.approx(2 * ball_capacity(0.5, 0.5), rel=1e-12)

    def test_sandwich(self):
        rng = random.Random(99)
        for _ in range(200):
            alpha = rng.uniform(0.05, 0.95)
            s = random_set(rng)
            lo = capacity_lower_bound(alpha, s)
            hi = interval_capacity_upper(alpha, s)
            assert lo <= hi + 1e-12
            if len(s.intervals) == 1:
                assert lo == pytest.approx(hi, rel=1e-10)


class TestWienerSum:
    def test_empty_set_convergent_zero(self):
        v = wiener_sum(0.5, ShellSpec(0.0, 2.0, 1, 60), IntervalSet.empty())
        assert v.verdict == "convergent"
        assert v.total == 0.0

    def test_example_set_convergent_all_alphas(self):
        spec = ShellSpec(0.0, 2.0, 1, 200)
        a = build_example_set(200)
        for alpha in (0.3, 0.5, 0.7, 0.9):
            assert wiener_sum(alpha, spec, a).verdict == "convergent"

    def test_example_set_closed_form(self):
        v = wiener_sum(0.5, ShellSpec(0.0, 2.0, 1, 200), build_example_set(200))
        r = 2.0 ** (-1.0 / 3.0)
        closed = ball_capacity(0.5, 1.0) * 2.0 ** (-2.0 / 3.0) * r / (1.0 - r)
        assert v.total == pytest.approx(closed, abs=1e-6)
        assert v.ratio_estimate == pytest.approx(r, rel=1e-6)

    def test_half_line_divergent(self):
        v = wiener_sum(0.5, ShellSpec(0.0, 2.0, 1, 60), IntervalSet.of((1.0, math.inf)))
        assert v.verdict == "divergent"

    @pytest.mark.parametrize("alpha", [0.998, 0.999, 0.9999])
    def test_a_ratio_just_under_one_is_not_divergent(self, alpha):
        """The example set's upper-bound terms are geometric with ratio
        2^(-2(1-alpha)/3), under 1 by far more than rounding: near alpha = 1
        the ratios contract too little for `convergent`, and the lower
        bounds do not certify `divergent` either."""
        v = wiener_sum(alpha, ShellSpec(0.0, 2.0, 1, 200), build_example_set(200))
        assert v.verdict == "inconclusive"
        assert v.ratio_estimate == pytest.approx(2.0 ** (-2.0 * (1.0 - alpha) / 3.0), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 0.999])
    @pytest.mark.parametrize("target", [(1.0, 2.0 ** 60), (1.0, math.inf)])
    def test_whole_shells_stay_divergent(self, alpha, target):
        """Whole shells give lower-bound terms constant up to rounding."""
        v = wiener_sum(alpha, ShellSpec(0.0, 2.0, 1, 200), IntervalSet.of(target))
        assert v.verdict == "divergent"
        assert v.lower_partial_sums[-1] < DIVERGENCE_BOUND

    def test_partial_sums_nondecreasing(self):
        v = wiener_sum(0.5, ShellSpec(0.0, 2.0, 1, 100), build_example_set(100))
        assert all(b >= a for a, b in zip(v.partial_sums, v.partial_sums[1:]))
        assert all(
            b >= a for a, b in zip(v.lower_partial_sums, v.lower_partial_sums[1:])
        )

    def test_negative_indices_thinness_orientation(self):
        # shrinking shells toward the center: a set bounded away from the
        # center contributes nothing, trivially thin at that point
        v = wiener_sum(
            0.5, ShellSpec(0.0, 2.0, -40, 0), IntervalSet.of((10.0, 11.0))
        )
        assert v.verdict == "convergent"
        assert v.total == 0.0

    def test_matches_the_shell_loop_bit_for_bit(self):
        rng = random.Random(SERIES_SEED)
        seen = set()
        for _ in range(SERIES_CASES):
            alpha, spec, s = random_series_case(rng)
            got, ref = wiener_sum(alpha, spec, s), reference_wiener_sum(alpha, spec, s)
            assert repr(got) == repr(ref), (alpha, spec, s)
            seen.add(spec.lam)
            seen.add("n_min <= 0" if spec.n_min <= 0 else "n_min > 0")
            seen.add("empty" if s.is_empty() else "not empty")
            if any(math.isinf(end) for pair in s.intervals for end in pair):
                seen.add("unbounded")
            shells = [shell(spec, n).intervals for n in range(spec.n_min, spec.n_max + 1)]
            seen.add("joined or emptied" if any(len(p) < 2 for p in shells) else "two pieces")
            seen.add(got.verdict)
        assert seen >= {*SERIES_LAMS, "n_min <= 0", "n_min > 0", "empty", "unbounded",
                        "joined or emptied", "two pieces", "convergent", "divergent",
                        "inconclusive"}

    def test_json(self):
        v = wiener_sum(0.5, ShellSpec(0.0, 2.0, 1, 30), build_example_set(30))
        doc = json.loads(v.to_json())
        assert doc["verdict"] == v.verdict
        assert doc["terms_used"] == 30


class TestExampleSet:
    def test_small_unions(self):
        assert build_example_set(1).intervals == ((1.0, 2.0),)
        two = build_example_set(2)
        assert two.intervals[1] == (4.0 - 2.0 ** (1.0 / 3.0), 4.0)
        three = build_example_set(3)
        assert three.intervals[2] == (8.0 - 2.0 ** (2.0 / 3.0), 8.0)

    def test_normal_form_for_every_n_max(self):
        pieces = []
        for n in range(1, 1024):
            pieces.append((2.0 ** n - 2.0 ** ((n - 1) / 3.0), 2.0 ** n))
            assert build_example_set(n) == IntervalSet.of(*pieces)

    def test_built_once_per_n_max(self):
        assert build_example_set(200) is build_example_set(200)
        assert build_example_set.__wrapped__(200) == build_example_set(200)
        assert build_example_set(30) is not build_example_set(200)

    def test_validation(self):
        for _ in range(2):  # a refused n_max is not cached
            with pytest.raises(ValueError):
                build_example_set(0)
        message = r"n_max must lie in \[1, 1024\)"
        for n_max in (0, -1, 1024):
            with pytest.raises(ValueError, match=message):
                build_example_set(n_max)
            for alpha in (0.5, 0.8):
                with pytest.raises(ValueError, match=message):
                    example_set_potential_partial_sums(alpha, n_max)

    def test_potential_divergence_above_two_thirds(self):
        sums, tail = example_set_potential_partial_sums(0.8, 200)
        assert np.argmax(sums > 1e3) + 1 <= 120
        assert math.isinf(tail)

    def test_potential_convergence_below_two_thirds(self):
        sums, tail = example_set_potential_partial_sums(0.5, 200)
        assert tail < 1e-6
        assert np.all(np.diff(sums) >= 0.0)
        sums6, tail6 = example_set_potential_partial_sums(0.6, 200)
        assert math.isfinite(tail6)
