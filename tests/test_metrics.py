"""Channel metrics: gaps, thresholds, verdicts, loop detection."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stormctl.metrics import (
    ChannelStats,
    Stage,
    Verdict,
    broadcast_ratio,
    classify,
    detect_ipid_loop,
    ipg_shrinkage,
    min_ipg,
    node_bandwidth,
    utilization,
)

from .oracles import ipid_loop_bruteforce


def stats(
    tick=0.0, bcast=0, total=0, link_rate=1e9, ipg=None, interval_ms=1.0,
    size=512,
):
    return ChannelStats(
        tick=tick,
        broadcast_pkts=bcast,
        total_pkts=total,
        broadcast_bytes=bcast * size,
        total_bytes=total * size,
        observed_ipg=min_ipg(link_rate) if ipg is None else ipg,
        link_rate=link_rate,
        interval_ms=interval_ms,
    )


class TestIpg:
    def test_standard_gaps_are_exact(self):
        assert min_ipg(10e6) == 9600.0
        assert min_ipg(100e6) == 960.0
        assert min_ipg(1e9) == 96.0
        assert min_ipg(10e9) == 9.6

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            min_ipg(0.0)

    def test_shrinkage_flags_below_half(self):
        floor = 0.5 * 960.0
        assert ipg_shrinkage(floor - 0.001, 100e6)
        assert not ipg_shrinkage(floor, 100e6)
        assert not ipg_shrinkage(960.0, 100e6)


class TestUtilization:
    def test_fraction_of_capacity(self):
        assert utilization(50.0, 200.0) == 0.25

    def test_capped_at_one(self):
        assert utilization(300.0, 200.0) == 1.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            utilization(1.0, 0.0)


class TestBroadcastRatio:
    def test_share_of_total(self):
        r = broadcast_ratio(stats(bcast=30, total=120))
        assert r.ratio == pytest.approx(0.25)
        assert r.exceeds

    def test_exceeds_strictly_above_rule(self):
        assert broadcast_ratio(stats(bcast=21, total=100)).exceeds
        assert not broadcast_ratio(stats(bcast=20, total=100)).exceeds

    def test_silent_channel_has_no_ratio(self):
        r = broadcast_ratio(stats(bcast=0, total=0))
        assert r.ratio is None
        assert not r.exceeds


class TestNodeBandwidth:
    def test_figure_is_size_times_interval(self):
        nb = node_bandwidth(512.0, 10.0)
        assert nb.value == 5120.0
        assert not nb.exceeds

    def test_flags_above_factor_times_permissible(self):
        assert node_bandwidth(2560.0, 1.0, permissible=1200.0).exceeds
        assert not node_bandwidth(2400.0, 1.0, permissible=1200.0).exceeds

    def test_disabled_without_permissible(self):
        assert not node_bandwidth(1e12, 1.0).exceeds


class TestChannelStatsValidation:
    def test_broadcast_cannot_exceed_total(self):
        with pytest.raises(ValueError):
            stats(bcast=10, total=5)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ChannelStats(0.0, -1, 5, 0, 2560, 96.0, 1e9)


class TestChannelStatsContract:
    """`ChannelStats` is a named tuple that checks its counters however it
    is built, except through `tuple.__new__`, as `simulation.run` builds
    it."""

    def test_keywords_and_the_default_interval(self):
        s = stats(bcast=2, total=5)
        assert ChannelStats(tick=0.0, broadcast_pkts=2, total_pkts=5,
                            broadcast_bytes=1024, total_bytes=2560,
                            observed_ipg=96.0, link_rate=1e9) == s
        assert ChannelStats(0.0, 2, 5, 1024, 2560, 96.0, 1e9).interval_ms \
            == 1.0
        assert tuple(s) == (0.0, 2, 5, 1024, 2560, 96.0, 1e9, 1.0)

    def test_fields_cannot_be_assigned(self):
        s = stats(bcast=2, total=5)
        with pytest.raises(AttributeError):
            s.total_pkts = 1
        with pytest.raises(AttributeError):
            s.extra = 1

    @pytest.mark.parametrize("change, message", [
        ({"total_pkts": -1}, "nonnegative"),
        ({"broadcast_pkts": 6}, "broadcast packets cannot exceed"),
        ({"broadcast_bytes": 9999}, "broadcast bytes cannot exceed"),
        ({"observed_ipg": -0.5}, "observed_ipg"),
        ({"link_rate": 0.0}, "link_rate"),
        ({"interval_ms": 0.0}, "interval_ms"),
    ])
    def test_make_and_replace_check(self, change, message):
        s = stats(bcast=2, total=5)
        with pytest.raises(ValueError, match=message):
            s._replace(**change)
        values = s._asdict() | change
        with pytest.raises(ValueError, match=message):
            ChannelStats._make(values.values())
        with pytest.raises(ValueError, match=message):
            ChannelStats(**values)

    def test_replace_and_make_keep_the_type(self):
        s = stats(bcast=2, total=5)
        assert type(s._replace(total_pkts=6)) is ChannelStats
        assert type(ChannelStats._make(s)) is ChannelStats
        assert s._replace(total_pkts=6).total_pkts == 6

    def test_only_tuple_new_skips_the_checks(self):
        bad = tuple.__new__(ChannelStats, (0.0, 6, 5, 0, 0, 96.0, 1e9, 1.0))
        assert bad.broadcast_pkts == 6
        with pytest.raises(ValueError):
            ChannelStats(*bad)


class TestClassify:
    CAP = 238.0

    def check(self, **kw):
        prev = kw.pop("prev", None)
        ipid = kw.pop("ipid_loop", False)
        return classify(stats(**kw), prev, ipid_loop=ipid,
                        capacity_pkts=self.CAP)

    def test_idle_below_tenth(self):
        c = self.check(bcast=2, total=20)
        assert c.verdict is Verdict.IDLE

    def test_normal_midrange(self):
        c = self.check(bcast=10, total=100)
        assert c.verdict is Verdict.NORMAL

    def test_busy_strictly_above_half(self):
        assert self.check(bcast=10, total=120).verdict is Verdict.BUSY
        assert self.check(bcast=10, total=119).verdict is Verdict.NORMAL

    def test_storm_strictly_above_sixty_percent(self):
        assert self.check(bcast=10, total=143).verdict is Verdict.STORM
        assert self.check(bcast=10, total=142).verdict is Verdict.BUSY

    def test_rising_broadcast_share_is_storm(self):
        past = stats(tick=0.0, bcast=30, total=100)
        c = self.check(tick=1.0, bcast=40, total=100, prev=past)
        assert c.verdict is Verdict.STORM

    # one loop frame after an empty tick is a rising broadcast share of
    # 100%, but at 0.4% utilization the channel is idle, not in a storm;
    # the rule applies from the idle floor up (24 of 238 frames is 10.1%)
    def test_rising_broadcast_share_needs_the_idle_floor(self):
        empty = stats(tick=0.0, bcast=0, total=0)
        for total, verdict in ((1, Verdict.IDLE), (23, Verdict.IDLE),
                               (24, Verdict.STORM)):
            c = self.check(tick=1.0, bcast=total, total=total,
                           prev=empty)
            assert c.verdict is verdict, total

    def test_flat_broadcast_share_is_only_busy(self):
        past = stats(tick=0.0, bcast=40, total=100)
        c = self.check(tick=1.0, bcast=40, total=100, prev=past)
        assert c.verdict is Verdict.BUSY

    def test_ipid_loop_is_storm(self):
        c = self.check(bcast=5, total=30, ipid_loop=True)
        assert c.verdict is Verdict.STORM
        assert c.ipid_loop

    def test_shrunken_gap_is_busy(self):
        c = self.check(bcast=5, total=50, ipg=40.0)
        assert c.verdict is Verdict.BUSY
        assert c.ipg_shrunk

    def test_stages_partition_utilization(self):
        assert self.check(bcast=1, total=50).stage is Stage.INITIAL
        assert self.check(bcast=1, total=100).stage is Stage.BUILDUP
        assert self.check(bcast=1, total=238).stage is Stage.FINAL

    @given(total=st.integers(0, 238), bcast_frac=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_verdict_consistent_with_utilization(self, total, bcast_frac):
        bcast = min(int(total * bcast_frac), total)
        c = self.check(bcast=bcast, total=total)
        util = total / self.CAP
        if util > 0.60:
            assert c.verdict is Verdict.STORM
        elif util < 0.10:
            assert c.verdict in (Verdict.IDLE, Verdict.STORM)
        assert c.utilization == pytest.approx(min(util, 1.0))


class TestIpidLoop:
    def test_three_repeats_inside_window(self):
        found, who = detect_ipid_loop(
            [(7, 0.0, 2), (7, 100.0, 1), (8, 1.0, 2)])
        assert found
        assert who == (7,)

    def test_repeats_spread_past_window_are_clean(self):
        found, who = detect_ipid_loop([(7, 0.0, 2), (7, 120.0, 2)])
        assert not found
        assert who == ()

    def test_window_span_is_inclusive(self):
        found, _ = detect_ipid_loop([(7, 0.0, 1), (7, 100.0, 2)])
        assert found

    def test_unsorted_observations_allowed(self):
        found, _ = detect_ipid_loop([(7, 90.0, 1), (7, 0.0, 1), (7, 45.0, 1)])
        assert found

    def test_one_run_can_repeat_alone(self):
        assert detect_ipid_loop([(7, 5.0, 3)]) == (True, (7,))
        assert detect_ipid_loop([(7, 5.0, 2)]) == (False, ())

    def test_span_is_counted_in_steps(self):
        # in floats 128.02 - 28.02 is 100.00000000000001, past the window;
        # in 0.01 ms steps the span is 10000, the window's own length
        assert detect_ipid_loop([(7, 28.02, 1), (7, 78.02, 1),
                                 (7, 128.02, 1)]) == (True, (7,))

    # times are 0.01 ms steps 2.5 ms apart, shifted by 0 or 0.02 ms, so
    # spans that end exactly on the window's edge are drawn too, some of
    # them longer than the window in floats; the draw is unsorted and
    # repeats times
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 60),
                              st.integers(1, 5), st.sampled_from([0, 2])),
                    max_size=40),
           st.integers(2, 6), st.sampled_from([0.0, 2.5, 25.0, 100.0]))
    @settings(max_examples=300, deadline=None)
    @example([(7, 12, 1, 2), (7, 32, 1, 2), (7, 52, 1, 2)], 3, 100.0)
    def test_agrees_with_bruteforce_on_random_windows(self, draws, k, w):
        observations = [(ipid, (slot * 250 + shift) / 100, count)
                        for ipid, slot, count, shift in draws]
        frames = [(ipid, t) for ipid, t, count in observations
                  for _ in range(count)]
        assert detect_ipid_loop(observations, k, w) == \
            ipid_loop_bruteforce(frames, k, w)
