"""Channel health metrics and traffic classification.

Fixed operating thresholds (fractions of capacity unless noted):

  idle        utilization < 0.10
  busy        utilization > 0.50
  storm       utilization > 0.60, or a rising broadcast share above the
              20% rule at utilization >= 0.10, or an IPID loop signature
  stage       build-up band edges at 0.40 and 0.90

The inter-packet gap floor is 96 bit-times, so min_ipg is 9600 ns at
10 Mb/s and scales inversely with link rate.  Gap shrinkage below half
the floor marks a saturating channel.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import Iterable, NamedTuple, Optional

IDLE_UTILIZATION = 0.10
BUSY_UTILIZATION = 0.50
STORM_UTILIZATION = 0.60
BROADCAST_RULE = 0.20          # broadcast share of total traffic
STAGE_BUILDUP = 0.40
STAGE_FINAL = 0.90
IPG_BIT_TIMES = 96
IPG_SHRINK_FACTOR = 0.5
NBW_FACTOR = 2.0
IPID_MIN_REPEATS = 3
IPID_WINDOW_MS = 100.0
INTERNAL_STEP_MS = 0.01        # time inside a run is a step number
STEPS_PER_MS = 100


def is_whole(x: float, least: int) -> bool:
    """Whether x is finite and (close to) an integer no smaller than least."""
    return (math.isfinite(x) and round(x) >= least
            and abs(x - round(x)) <= 1e-9 * max(1.0, abs(x)))


class Verdict(enum.Enum):
    IDLE = "idle"
    NORMAL = "normal"
    BUSY = "busy"
    STORM = "storm"


class Stage(enum.Enum):
    INITIAL = "initial"
    BUILDUP = "buildup"
    FINAL = "final"


class _ChannelCounters(NamedTuple):
    tick: float            # ms, start of the sampling interval
    broadcast_pkts: int
    total_pkts: int
    broadcast_bytes: int
    total_bytes: int
    observed_ipg: float    # ns
    link_rate: float       # bits/s
    interval_ms: float = 1.0


class ChannelStats(_ChannelCounters):
    """One sampling tick of channel-level counters.

    A named tuple whose construction checks its counters: a call,
    `_make` and `_replace` all raise ValueError on a bad one.  Only
    `simulation.run`, whose counters hold by construction, builds them
    unchecked, with `tuple.__new__`.
    """

    __slots__ = ()

    def __new__(cls, tick: float, broadcast_pkts: int, total_pkts: int,
                broadcast_bytes: int, total_bytes: int, observed_ipg: float,
                link_rate: float, interval_ms: float = 1.0) -> ChannelStats:
        if link_rate <= 0:
            raise ValueError("link_rate must be positive")
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if min(broadcast_pkts, total_pkts, broadcast_bytes, total_bytes) < 0:
            raise ValueError("traffic counters must be nonnegative")
        if broadcast_pkts > total_pkts:
            raise ValueError("broadcast packets cannot exceed total packets")
        if broadcast_bytes > total_bytes:
            raise ValueError("broadcast bytes cannot exceed total bytes")
        if observed_ipg < 0:
            raise ValueError("observed_ipg must be nonnegative")
        return tuple.__new__(cls, (tick, broadcast_pkts, total_pkts,
                                   broadcast_bytes, total_bytes, observed_ipg,
                                   link_rate, interval_ms))

    @classmethod
    def _make(cls, iterable: Iterable) -> ChannelStats:
        return cls(*iterable)


class StormClassification(NamedTuple):
    verdict: Verdict
    stage: Stage
    utilization: float
    broadcast_ratio: Optional[float]  # None when the interval saw no traffic
    ipg_shrunk: bool
    ipid_loop: bool


class TrafficSample(NamedTuple):
    """One sampling tick of one node's traffic, as seen at its port.

    Delivered counters reflect frames that actually crossed the channel;
    attempted counters include frames dropped by suppression or
    saturation.
    """

    node: int
    bcast_pkts: int
    total_pkts: int
    bcast_bytes: int
    total_bytes: int
    attempted_bcast: int
    attempted_total: int
    suppressed: int


class NodeBandwidth(NamedTuple):
    value: float
    exceeds: bool


class BroadcastRatio(NamedTuple):
    ratio: Optional[float]
    exceeds: bool


def node_bandwidth(
    packet_size: float,
    interval: float,
    permissible: Optional[float] = None,
    factor: float = NBW_FACTOR,
) -> NodeBandwidth:
    """Per-node bandwidth figure N_BW = packet_size * interval.

    The flag raises only when the figure is well past the permissible
    value: above `factor` times it (default 2x).  With no permissible
    value configured the flag stays down.
    """
    if packet_size < 0 or interval < 0:
        raise ValueError("packet_size and interval must be nonnegative")
    value = packet_size * interval
    exceeds = permissible is not None and value > factor * permissible
    return NodeBandwidth(value, exceeds)


def min_ipg(link_rate: float) -> float:
    """Minimum inter-packet gap in ns: 96 bit-times at the link rate."""
    if link_rate <= 0:
        raise ValueError("link_rate must be positive")
    return IPG_BIT_TIMES * 1e9 / link_rate


def ipg_shrinkage(
    observed_ipg: float, link_rate: float, factor: float = IPG_SHRINK_FACTOR
) -> bool:
    """True when the observed gap has collapsed below factor * minimum."""
    if observed_ipg < 0:
        raise ValueError("observed_ipg must be nonnegative")
    return observed_ipg < factor * min_ipg(link_rate)


def utilization(current: float, capacity: float) -> float:
    """Traffic as a fraction of channel capacity, capped at 1.0."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if current < 0:
        raise ValueError("current traffic must be nonnegative")
    return min(current / capacity, 1.0)


def broadcast_ratio(stats: ChannelStats) -> BroadcastRatio:
    """Broadcast share of the interval's packets, against the 20% rule.

    An interval with no traffic has no defined share; the ratio is None
    and the flag stays down.
    """
    if stats.total_pkts == 0:
        return BroadcastRatio(None, False)
    ratio = stats.broadcast_pkts / stats.total_pkts
    return BroadcastRatio(ratio, ratio > BROADCAST_RULE)


class IpidWindow:
    """Sliding window of IPID sightings, as counted entries, in steps.

    An entry is `count` sightings of one IPID, from node `src`, at 0.01
    ms step `step`; entries are added in step order.  An IPID seen
    min_repeats or more times within any span of window_steps steps (both
    ends included) marks a loop: its frames are being recirculated rather
    than freshly generated.
    """

    def __init__(self, window_steps: int, min_repeats: int) -> None:
        self.window_steps = window_steps
        self.min_repeats = min_repeats
        self._order: deque[tuple[int, int]] = deque()
        self._per_ipid: dict[int, deque[tuple[int, Optional[int], int]]] = {}

    def add(self, step: int, ipid: int, count: int,
            src: Optional[int] = None) -> bool:
        """Record an entry; whether its IPID now qualifies."""
        self._order.append((step, ipid))
        entries = self._per_ipid.setdefault(ipid, deque())
        entries.append((step, src, count))
        # the entry qualifies if its last sighting does: find the step of
        # the min_repeats-th most recent sighting
        need = self.min_repeats
        for seen, _, n in reversed(entries):
            need -= n
            if need <= 0:
                return step - seen <= self.window_steps
        return False

    def evict(self, now: int) -> None:
        """Drop the entries more than window_steps before step `now`."""
        cutoff = now - self.window_steps
        while self._order and self._order[0][0] < cutoff:
            _, ipid = self._order.popleft()
            entries = self._per_ipid[ipid]
            entries.popleft()
            if not entries:
                del self._per_ipid[ipid]

    def run_entries(self, ipids: Iterable[int]
                    ) -> list[tuple[float, int, Optional[int], int]]:
        """One (t, ipid, src, count) per entry of these IPIDs, t in ms."""
        return [(step / STEPS_PER_MS, ipid, src, n) for ipid in ipids
                for step, src, n in self._per_ipid.get(ipid, ())]


def detect_ipid_loop(
    window: Iterable[tuple[int, float, int]],
    min_repeats: int = IPID_MIN_REPEATS,
    window_ms: float = IPID_WINDOW_MS,
) -> tuple[bool, tuple[int, ...]]:
    """Looping-frame check over (ipid, t_ms, count) observations, in any
    order, by the rule of `IpidWindow`.

    An observation is `count` sightings of one IPID at time t_ms, which
    is counted at its nearest 0.01 ms step; window_ms is a whole number
    of steps.  Returns (found, offending ipids sorted).
    """
    if min_repeats < 1:
        raise ValueError("min_repeats must be at least 1")
    if not is_whole(window_ms * STEPS_PER_MS, 0):
        raise ValueError("window_ms must be a nonnegative whole number of steps")
    scan = IpidWindow(round(window_ms * STEPS_PER_MS), min_repeats)
    offenders = {ipid for ipid, t, count in sorted(window, key=lambda o: o[1])
                 if scan.add(round(t * STEPS_PER_MS), ipid, count)}
    return bool(offenders), tuple(sorted(offenders))


def classify(
    stats: ChannelStats,
    prev: Optional[ChannelStats] = None,
    ipid_loop: bool = False,
    *,
    capacity_pkts: float,
) -> StormClassification:
    """Verdict and build-up stage for one sampling tick.

    `prev` is the preceding tick, None for the first; the broadcast-share
    rule only escalates to a storm verdict while the broadcast count is
    still rising tick over tick, and only on a channel that is not idle:
    a few broadcast frames after an empty tick are no storm.
    `capacity_pkts` is the interval's packet capacity.
    """
    util = utilization(stats.total_pkts, capacity_pkts)
    ratio, rule_breach = broadcast_ratio(stats)
    shrunk = ipg_shrinkage(stats.observed_ipg, stats.link_rate)
    rising = prev is not None and stats.broadcast_pkts > prev.broadcast_pkts

    if (util > STORM_UTILIZATION or ipid_loop
            or (rule_breach and rising and util >= IDLE_UTILIZATION)):
        verdict = Verdict.STORM
    elif util < IDLE_UTILIZATION:
        verdict = Verdict.IDLE
    elif util > BUSY_UTILIZATION or rule_breach or shrunk:
        verdict = Verdict.BUSY
    else:
        verdict = Verdict.NORMAL

    if util < STAGE_BUILDUP:
        stage = Stage.INITIAL
    elif util < STAGE_FINAL:
        stage = Stage.BUILDUP
    else:
        stage = Stage.FINAL
    return StormClassification(verdict, stage, util, ratio, shrunk, ipid_loop)
