"""Growth curve: evaluation against arbitrary precision, fit behavior."""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import math
import random
import statistics
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stormctl import growth
from stormctl.datasets import load_trace, table4_hump
from stormctl.growth import (
    FIT_M_MAX,
    FIT_M_MIN,
    FitError,
    PtrModelParams,
    TracePoint,
    build_ptr_array,
    eval_ptr,
    fit_model,
    make_params,
    rise_segment,
)
from stormctl.simulation import NormalBroadcastProfile

from .oracles import (
    mp_eval,
    mp_rss_slope,
    mp_solve,
    oracle_examples,
    reference_fit_model,
    reference_solve,
    rise_of,
)
from .test_golden import fit_inputs

TAU = math.tau


def rel_err(value: float, expected) -> float:
    expected = float(expected)
    return abs(value - expected) / max(abs(expected), 1e-300)


class TestParams:
    def test_coefficients_from_rates(self):
        p = make_params(500.0, 90000.0, 1.5)
        assert p.a == pytest.approx(TAU * (90000.0 - 500.0) / 1.5, rel=1e-15)
        assert p.b == pytest.approx(TAU * 500.0, rel=1e-15)

    def test_negative_a_when_end_below_start(self):
        p = make_params(9000.0, 5000.0, 0.4)
        assert p.a < 0
        assert p.b > 0

    def test_zero_m_rejected(self):
        with pytest.raises(ValueError):
            make_params(500.0, 90000.0, 0.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            make_params(-1.0, 100.0, 1.0)
        with pytest.raises(ValueError):
            make_params(1.0, -100.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for args in ((bad, 100.0, 1.0), (1.0, bad, 1.0), (1.0, 100.0, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                make_params(*args)

    @given(
        ps=st.floats(0.0, 2e4),
        pe=st.floats(0.0, 1.2e5),
        m=st.floats(0.025, 10.0),
    )
    def test_a_antisymmetric_under_rate_swap(self, ps, pe, m):
        forward = make_params(ps, pe, m)
        backward = make_params(pe, ps, m)
        assert forward.a == -backward.a


class TestEval:
    def test_zero_at_origin_exactly(self):
        for ps, pe, m in [(500, 9e4, 1.5), (8917, 5178, 0.39), (0, 1e5, 9.9)]:
            assert eval_ptr(make_params(ps, pe, m), 0.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            eval_ptr(make_params(500, 9e4, 1.5), -0.1)

    def test_matches_high_precision_on_seeded_draws(self):
        rng = random.Random(20240817)
        worst = 0.0
        for _ in range(1000):
            ps = rng.uniform(0.0, 2e4)
            pe = rng.uniform(ps, 1.2e5)      # rising curves: no cancellation
            m = rng.uniform(0.025, 10.0)
            t = rng.uniform(0.0, 3.0)
            got = eval_ptr(make_params(ps, pe, m), t)
            expected = mp_eval(ps, pe, m, t)
            if expected != 0:
                worst = max(worst, rel_err(got, expected))
            else:
                assert got == 0.0
        assert worst <= 1e-9

    @given(
        ps=st.floats(0.0, 2e4),
        pe=st.floats(0.0, 1.2e5),
        m=st.floats(0.025, 10.0),
        t=st.floats(0.0, 3.0),
    )
    @settings(max_examples=200)
    def test_matches_high_precision_everywhere_loosely(self, ps, pe, m, t):
        # Pe < Ps allowed here: the curve may cross zero, so compare
        # absolutely against the scale of its terms instead.
        got = eval_ptr(make_params(ps, pe, m), t)
        expected = mp_eval(ps, pe, m, t)
        scale = max(1.0, abs(TAU * (pe - ps) / m * t), abs(TAU * ps * t)
                    * math.exp(min(m * t, 700)))
        assert abs(got - float(expected)) <= 1e-9 * scale


class TestArrays:
    def test_sample_count_and_times(self):
        arr = build_ptr_array(make_params(500, 9e4, 1.5), 0.0, 3.0, 0.5)
        assert len(arr) == 7
        assert arr.t_at(0) == 0.0
        assert arr.t_at(6) == pytest.approx(3.0)

    def test_values_clamped_at_end_rate(self):
        params = make_params(500, 9e4, 1.5)
        arr = build_ptr_array(params, 0.0, 3.0, 0.1)
        assert max(arr.values) <= 9e4
        assert arr.values[0] == 0.0
        # clamp engages: the raw curve passes the end rate before 3 ms
        assert eval_ptr(params, 3.0) > 9e4
        assert arr.values[-1] == 9e4

    def test_values_floored_at_zero(self):
        # a decaying capture fits with p_start > p_end, so the raw curve
        # dips negative early; the packet-rate plan must not
        params = make_params(9000.0, 5000.0, 0.4)
        assert eval_ptr(params, 0.1) < 0
        arr = build_ptr_array(params, 0.0, 3.0, 0.1)
        assert min(arr.values) == 0.0
        assert all(v >= 0.0 for v in arr.values)

    def test_rejects_bad_windows(self):
        params = make_params(500, 9e4, 1.5)
        with pytest.raises(ValueError):
            build_ptr_array(params, -1.0, 3.0, 0.1)
        with pytest.raises(ValueError):
            build_ptr_array(params, 2.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            build_ptr_array(params, 0.0, 3.0, 0.0)


class TestRise:
    def test_through_first_peak(self):
        trace = [TracePoint(t, c) for t, c in
                 [(0, 0), (1, 10), (2, 30), (3, 20), (4, 30)]]
        rise = rise_segment(trace)
        assert [p.count for p in rise] == [0, 10, 30]

    def test_tie_breaks_to_first_peak(self):
        trace = [TracePoint(t, c) for t, c in
                 [(0, 0), (1, 30), (2, 10), (3, 30)]]
        assert len(rise_segment(trace)) == 2


class TestFit:
    def test_recovers_exact_synthetic_curve(self):
        truth = make_params(500.0, 90000.0, 1.5)
        trace = [TracePoint(t / 10, eval_ptr(truth, t / 10))
                 for t in range(0, 20)]
        fit = fit_model(trace)
        assert fit.rmse < 1.0
        assert fit.params.m == pytest.approx(1.5, abs=1e-3)
        assert fit.params.p_start == pytest.approx(500.0, rel=1e-2)
        assert fit.params.p_end == pytest.approx(90000.0, rel=1e-2)

    def test_deterministic(self):
        trace = load_trace("table3")
        one = fit_model(trace)
        two = fit_model(trace)
        assert one == two

    def test_constraints_hold_on_all_bundled_traces(self):
        for name in ("table1", "table3", "table4"):
            fit = fit_model(load_trace(name))
            assert fit.params.p_start >= 0
            assert fit.params.p_end >= 0
            assert fit.params.b >= 0
            assert fit.rmse >= 0

    def test_fitted_table3_negative_slope_coefficient(self):
        # this burst decelerates: end rate below start rate, so a < 0
        fit = fit_model(load_trace("table3"))
        assert fit.params.p_start > fit.params.p_end
        assert fit.params.a < 0

    @pytest.mark.parametrize("exponent", [-1000, -560, 1000])
    def test_counts_scaled_by_a_power_of_two(self, exponent):
        # unscaled, the squared residuals of counts near 2**-560 (1e-169)
        # underflowed and those near 2**1000 overflowed: at 2**-560 this
        # rise fitted m = 0.025 with RMSE 0.0, not the m = 2.14 of its own
        trace = [(0.5, 1.1), (1.0, 2.3), (1.5, 4.1), (2.0, 7.9)]
        one = fit_model(trace)
        fit = fit_model([(t, math.ldexp(c, exponent)) for t, c in trace])
        assert fit.params.m == one.params.m
        assert fit.params.p_start == math.ldexp(one.params.p_start, exponent)
        assert fit.params.p_end == math.ldexp(one.params.p_end, exponent)
        assert fit.rmse == math.ldexp(one.rmse, exponent)

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(FitError):
            fit_model([(0, 0), (1, 5), (1, 6), (2, 7), (3, 8)])

    @pytest.mark.parametrize("point", [(2, math.nan), (math.nan, 7),
                                       (2, math.inf), (math.inf, 7)])
    def test_rejects_non_finite_points(self, point):
        with pytest.raises(FitError, match="must be finite"):
            fit_model([(0, 0), (1, 5), point, (3, 8), (4, 9)])

    def test_rejects_too_short_rise(self):
        with pytest.raises(FitError):
            fit_model([(0, 0), (1, 100), (2, 50), (3, 20)])

    def test_rejects_flat_trace(self):
        with pytest.raises(FitError):
            fit_model([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])


@st.composite
def rises(draw):
    """Rises of 4 to 40 points: noisy growth curves (decelerating ones,
    with Pe below Ps, included) and noisy powers of t (concave ones like
    table3), optionally rounded to whole packets, with or without a
    leading (0, 0)."""
    n = draw(st.integers(4, 40))
    ts = list(itertools.accumulate(
        draw(st.lists(st.floats(1e-3, 0.5), min_size=n, max_size=n))))
    if draw(st.booleans()):
        ts = [0.0] + ts[:-1]
    if draw(st.booleans()):
        params = make_params(draw(st.floats(0.0, 2e4)),
                             draw(st.floats(0.0, 1.2e5)),
                             draw(st.floats(0.05, 3.0)))
        curve = [max(eval_ptr(params, t), 0.0) for t in ts]
    else:
        power = draw(st.floats(0.3, 4.0))
        curve = [1e4 * (t / ts[-1]) ** power for t in ts]
    noise = draw(st.sampled_from((0.0, 0.02, 0.1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    counts = [c * (1 + noise * (2 * rng.random() - 1)) for c in curve]
    if draw(st.booleans()):
        counts = [float(round(c)) for c in counts]
    return list(zip(ts, counts))


class TestFitContract:
    """What the grid-and-secant search promises on any rise.

    It is not held to the 282-solve `reference_fit_model` here: on rises
    whose RMSE profile over m has two minima, one in a narrow basin,
    either search can miss the other's basin.
    """

    @given(rises())
    @settings(max_examples=oracle_examples(300), deadline=None)
    # fits on the domain's floor, where the float solve at m(1 + 1e-6)
    # lands nearer the true RMSE than the fit's own value at m
    @example([(0, 0), (0.00390625, 1082.8225985348738),
              (0.005859375, 1624.6257939454706),
              (0.505859375, 145675.3112438695)])
    @example([(0.001953125, 0.14792899408284024),
              (0.501953125, 9770.562130177515),
              (0.505859375, 9923.224852071007), (0.5078125, 10000.0)])
    # counts whose squared residuals underflow unless scaled
    @example([(0.5, 1.1e-170), (1.0, 2.3e-170), (1.5, 4.1e-170),
              (2.0, 7.9e-170)])
    # rises where a search that starts away from the grid's best point
    # misses the minimum: it keeps the grid point, at RMSE 106.28 and
    # 116.53 where the 282-solve oracle finds 35.40 and 96.37, or, on
    # the third, stops short of the minimum
    @example([(0.40625, 170.39183322894652), (0.46875, 259.4228651718286),
              (0.9375, 1987.3934942141348), (1.25, 4626.913735922708),
              (1.625, 10000.0)])
    @example([(0.25, 88.44242917357876), (0.625, 1144.9407728109702),
              (1.0, 4018.5484707982823), (1.125, 5412.8779416607085),
              (1.25, 7665.867004014123), (1.375, 9809.868274900828)])
    @example([(0.0, 0.0), (0.375, 0.5617678060360118),
              (0.875, 17.966212147129774), (1.0, 25.99376395792966),
              (1.125, 40.5574885267621), (1.1875, 54.87023081364446),
              (1.6875, 212.80442710586044), (1.9375, 335.8237133821203),
              (2.0625, 457.3401549896908), (2.1875, 550.7483619441147),
              (2.25, 679.645116561864), (2.75, 1403.9396382297693),
              (3.0, 2071.5673158163977), (3.0625, 2068.1765346117304),
              (3.125, 2198.258474082166), (3.15625, 2209.4396421342594),
              (3.34375, 3248.0752607839845), (3.59375, 3718.2635799956197),
              (4.09375, 6482.78238334006), (4.21875, 6834.505561594093),
              (4.3125, 8876.675663174474), (4.546875, 9456.495616033877)])
    # near-exact fits, whose RMSE falls linearly into its minimum while
    # the derivative there is rounding: cut by that derivative's sign,
    # the bracket loses the minimum (1.8e-7 and 5.4e-7 of m away)
    @example([(0.5, 3032.055208916142), (1.0, 6065.058405753299),
              (1.5, 9099.198925199285), (1.625, 9857.937073428513)])
    @example([(0.5, 44640.34099014838), (0.75, 66969.46562136953),
              (0.8125, 72552.7757211012), (0.9375, 83720.6977572192)])
    def test_no_worse_than_the_grid_and_a_local_minimum(self, trace):
        try:
            fit = fit_model(trace)
        except FitError:
            with pytest.raises(FitError):
                reference_fit_model(trace)
            return
        ts, ys = zip(*rise_of(trace))
        top = growth._m_top(ts[-1])
        p = fit.params
        assert p.p_start >= 0 and p.p_end >= 0
        assert FIT_M_MIN <= p.m <= top <= FIT_M_MAX
        for m in growth._grid(top):
            assert fit.rmse <= reference_solve(m, ts, ys)[2]
        # a near-exact fit's RMSE is rounding noise on the scale of the
        # counts, so the relative slack gets a floor there
        slack = max(1e-9 * fit.rmse, 1e-12 * max(map(abs, ys)))
        # the RMSE profile is taken in exact arithmetic: in floats, the
        # solve's rounding at small m*t outweighs its change over 1e-6 m
        here = mp_solve(p.m, ts, ys)[2]
        for m in (p.m * (1 - 1e-6), p.m * (1 + 1e-6)):
            if FIT_M_MIN <= m <= top:
                assert mp_solve(m, ts, ys)[2] >= here - slack


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def counted_solves():
    """Yield a list that gets, per fit, the number of m values solved."""
    counts = []
    original = growth._solver

    def solver(ts, ys):
        solve = original(ts, ys)
        counts.append(0)

        def counted(m):
            counts[-1] += 1
            return solve(m)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(growth, "_solver", solver)
        yield counts


def grid_size(points) -> int:
    """The number of solves the grid takes on this trace's rise."""
    return len(growth._grid(growth._m_top(rise_of(points)[-1][0])))


def curve_rmse(params, ts, ys) -> float:
    return math.sqrt(sum((eval_ptr(params, t) - y) ** 2
                         for t, y in zip(ts, ys)) / len(ts))


CALIBRATION_INPUTS = {
    "ideal-profile-238": NormalBroadcastProfile().ideal_profile(238),
    "ideal-profile-16447": NormalBroadcastProfile().ideal_profile(16447),
    "table4-hump": table4_hump(),
}


class TestSlope:
    """The solver's dRSS/dm, which steers the search, against a central
    difference of the exact RSS."""

    @staticmethod
    def grid_solves(name):
        ts, ys = zip(*rise_of(fit_inputs()[name]))
        solve = growth._solver(ts, ys)
        grid = growth._grid(growth._m_top(ts[-1]))
        return ts, ys, [(m, solve(m)) for m in grid]

    @pytest.mark.parametrize("name", ["interior-growth-curve", "pe0-convex"])
    def test_matches_a_central_difference(self, name):
        ts, ys, solves = self.grid_solves(name)
        for m, (_, _, _, slope) in solves:
            # the float (a, b) lose digits where m*t is small and t and
            # t*e^(mt) are nearly proportional: 2.2e-6 off at m = 0.025
            # on interior-growth-curve, 2e-13 or less from m = 1
            assert rel_err(slope, mp_rss_slope(m, ts, ys)) <= 1e-5
        on_pe0 = [m for m, (a, b, _, _) in solves
                  if b > 0 and abs(b + a * m) <= 1e-12 * b]
        assert bool(on_pe0) == (name == "pe0-convex")

    def test_zero_where_ps_is_zero(self):
        for _, (_, b, _, slope) in self.grid_solves("ps0-concave")[2]:
            assert b == 0 and slope == 0


class TestEdgeMinimum:
    """A grid minimum on the domain's edge ends the fit where the RSS
    rises from the edge into the domain; where it falls, the edge's cell
    is searched."""

    @staticmethod
    def curve(ps, pe, m):
        """Twenty noiseless points over three growth constants."""
        truth = make_params(ps, pe, m)
        return [(t, eval_ptr(truth, t))
                for t in (3.0 / m * k / 19 for k in range(20))]

    @pytest.mark.parametrize("ps,pe,m,inward", [
        (2000.0, 8000.0, FIT_M_MIN, 1.0), (100.0, 5e5, FIT_M_MAX, -1.0)],
        ids=["floor", "top"])
    def test_rise_inside_the_edge_ends_the_search(self, ps, pe, m, inward):
        points = self.curve(ps, pe, m)
        ts, ys = zip(*points)
        assert mp_rss_slope(m, ts, ys) * inward > 0
        with counted_solves() as counts:
            fit = fit_model(points)
        assert fit.params.m == m
        assert counts == [grid_size(points)]    # the grid alone

    def test_fall_inside_the_edge_is_searched(self):
        m = FIT_M_MIN * 1.01        # below the grid's second point
        assert growth._grid(FIT_M_MAX)[1] > m
        points = self.curve(2000.0, 8000.0, m)
        with counted_solves() as counts:
            fit = fit_model(points)
        assert counts[0] > grid_size(points)
        assert rel_err(fit.params.m, m) <= 1e-6


class TestCaptureSweep:
    """400 seeded `offline-fit` captures (benchmark seeds 1 and 2), and
    the calibration inputs: fit quality against the old search and the
    generating curve, and the number of least-squares solves."""

    @pytest.fixture(scope="class")
    def swept(self):
        caps = [cap for seed in (1, 2)
                for cap in load_workloads().captures(seed)]
        with counted_solves() as counts:
            fits = [fit_model(cap.points) for cap in caps]
        return caps, fits, counts

    def test_no_worse_than_the_old_search(self, swept):
        caps, fits, _ = swept
        assert len(caps) == 400
        for cap, fit in zip(caps, fits):
            assert fit.rmse <= \
                reference_fit_model(cap.points).rmse * (1 + 1e-9)

    def test_no_worse_than_the_generating_curve(self, swept):
        caps, fits, _ = swept
        for cap, fit in zip(caps, fits):
            ts, ys = zip(*rise_of(cap.points))
            assert fit.rmse <= curve_rmse(cap.params, ts, ys) * (1 + 1e-9)
            assert fit.params.p_start >= 0 and fit.params.p_end >= 0

    def test_solve_counts(self, swept):
        counts = swept[2]
        assert len(counts) == 400
        # measured: a median of 12 solves and a maximum of 21
        assert max(counts) <= 21
        assert statistics.median(counts) <= 12

    # rises of 0.2 to 6 s: the growth constant's ceiling, not the old
    # search's top of 10, bounds their domains
    @pytest.mark.parametrize("span", [200.0, 700.0, 2000.0, 6000.0])
    @pytest.mark.parametrize("power", [0.6, 1.7, 3.0])
    def test_long_rise_no_worse_than_the_old_search(self, span, power):
        self.check_long_rise(span, lambda k: 1e4 * (k / 19) ** power)

    @pytest.mark.parametrize("span,m", [(200.0, 0.1), (700.0, 0.026),
                                        (2000.0, 0.025)])
    def test_long_curve_no_worse_than_the_old_search(self, span, m):
        truth = make_params(800.0, 9000.0, m)
        self.check_long_rise(span, lambda k: eval_ptr(truth, span * k / 19))

    @staticmethod
    def check_long_rise(span, count_at):
        """Twenty points over span ms, with +/-3% noise."""
        rng = random.Random(f"long-rise/{span}")
        points = [(span * k / 19, float(round(
            count_at(k) * (1 + 0.03 * (2 * rng.random() - 1)))))
            for k in range(20)]
        fit = fit_model(points)
        assert fit.rmse <= reference_fit_model(points).rmse * (1 + 1e-9)

    @pytest.mark.parametrize("name", CALIBRATION_INPUTS)
    def test_calibration_input(self, name):
        points = CALIBRATION_INPUTS[name]
        with counted_solves() as counts:
            fit = fit_model(points)
        # the grid alone: the RSS rises from its floor
        assert counts == [grid_size(points)]
        # the RMSE falls all the way down to the domain's floor
        assert fit.params.m == FIT_M_MIN
        assert fit.rmse <= reference_fit_model(points).rmse * (1 + 1e-9)


@pytest.mark.parametrize("name", list(fit_inputs()))
def test_pinned_input_no_worse_than_the_reference(name):
    # the grid's size decides which basin the search keeps: at 4, 6 or 8
    # cells, det0-short-span keeps a worse one, at RMSE 22740.08,
    # 22729.16 or 22725.73 against the reference's 22717.58
    points = fit_inputs()[name]
    assert fit_model(points).rmse <= \
        reference_fit_model(points).rmse * (1 + 1e-9)


@pytest.mark.parametrize("m", [FIT_M_MIN, 0.05, 0.3, 1.5, 6.0, FIT_M_MAX])
def test_noiseless_curves_are_recovered(m):
    # accelerating rises (Pe above Ps) over 1, 3 and 6 growth constants
    for ps, pe in ((500.0, 90000.0), (2000.0, 8000.0), (100.0, 5e5)):
        for span in (1.0, 3.0, 6.0):
            truth = make_params(ps, pe, m)
            ts = [span / m * k / 19 for k in range(20)]
            fit = fit_model([(t, eval_ptr(truth, t)) for t in ts])
            assert rel_err(fit.params.p_start, ps) <= 1e-6
            assert rel_err(fit.params.p_end, pe) <= 1e-6
            assert rel_err(fit.params.m, m) <= 1e-6
