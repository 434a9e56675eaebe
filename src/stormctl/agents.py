"""Static monitor agents: observe, detect, suppress.

A broadcast domain has three cooperating parts:

  * a communication part that samples channel counters once per
    sampling period;
  * a detector, `StaticAgent`, that holds a calibrated reference curve
    of normal burst growth and measures each sample's deviation from it;
  * a storm handler, in `AgentFleet`, that on a confirmed trigger
    blocks the offending node's port for the rest of the current
    suppression window and raises a trouble ticket.

Every node on a shared segment sees the same channel counters, so a
domain runs one detector, which calibrates and compares once per tick
for all nodes.  Only port blocking is per node: the fleet's port table
gets a `Port` record for a node when it is first blamed for a trigger.

Comparison is burst-anchored: a burst begins when the per-tick
broadcast count rises from zero and ends when it returns to zero.
Sample j of the live burst is held against sample j of the reference's
own burst, with deviation |live - ref| / max(ref, eps) where eps is 1%
of the calibrated peak rate.  A trigger requires the deviation to
exceed the threshold on `consecutive_required` successive samples, or
the burst to outlive the reference while still growing.

Suppression windows are wall-aligned, each a whole number of 0.01 ms
steps, numbered by `AgentConfig.window_of` for blocking, ticket closing,
replay and byte budgets: a trigger acted on in window w (at its tick's
end, or its frame's step) blocks the port through w, then it resumes.
Re-triggering after resumption opens a new ticket; triggers during an
active suppression are coalesced into the existing one.

The port table is asked in the simulator's clock: `is_suppressed` and
`byte_breach` take a step, `resume_step` answers one.  `observe` reads
its time, in ms, from its tick's stats, and `finish` takes the run's
end in ms; triggers and tickets keep their `t` in ms.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .datasets import interpolate
from .growth import FitError, PtrArray, TracePoint, eval_ptr, fit_model, rise_segment
from .metrics import (
    INTERNAL_STEP_MS,
    IPID_MIN_REPEATS,
    IPID_WINDOW_MS,
    NBW_FACTOR,
    STEPS_PER_MS,
    STORM_UTILIZATION,
    ChannelStats,
    TrafficSample,
    detect_ipid_loop,
    is_whole,
    node_bandwidth,
    utilization,
)

log = logging.getLogger("stormctl.agents")

DEVIATION_DENOM_FLOOR = 0.01   # denominator floor, as a fraction of the peak rate
CLEAN_WINDOWS_TO_CLOSE = 2     # breach-free windows before a node is healthy again


class AgentError(ValueError):
    """Raised on protocol misuse: unarmed sampling, non-advancing ticks."""


class CalibrationError(AgentError):
    """Raised when a reference cannot be built from the given trace."""


class Policy(enum.Enum):
    """What a blocked port filters: every frame, or broadcast only."""

    PACKET_BASED = "packet"        # software flavor: all incoming traffic
    BANDWIDTH_BASED = "bandwidth"  # hardware flavor: broadcast frames only


class TriggerCause(enum.Enum):
    PTR_DEVIATION = "ptr_deviation"
    UTILIZATION_EXCEEDED = "utilization_exceeded"
    NBW_EXCEEDED = "nbw_exceeded"
    IPID_LOOP = "ipid_loop"


@dataclass(frozen=True)
class ThresholdDb:
    """Per-agent threshold database."""

    utilization_max: float = STORM_UTILIZATION
    nbw_permissible: Optional[float] = None  # bytes per rolling window; None disables
    nbw_factor: float = NBW_FACTOR
    nbw_window_ticks: int = 10
    byte_threshold_mb: Optional[float] = None  # broadcast MB per window; None disables
    ipid_min_repeats: int = IPID_MIN_REPEATS
    ipid_window_ms: float = IPID_WINDOW_MS

    def __post_init__(self) -> None:
        if self.ipid_min_repeats < 2:
            raise ValueError("ipid_min_repeats must be at least 2")
        if self.ipid_window_ms < 0:
            raise ValueError("ipid_window_ms must be nonnegative")
        if not is_whole(self.ipid_window_ms * STEPS_PER_MS, 0):
            raise ValueError(f"ipid_window_ms must be a whole number of "
                             f"{INTERNAL_STEP_MS} ms steps")
        if self.byte_threshold_mb is not None and self.byte_threshold_mb <= 0:
            raise ValueError("byte_threshold_mb must be positive")
        if self.nbw_factor < 0 or (self.nbw_permissible or 0) < 0:
            raise ValueError("nbw_permissible and nbw_factor must be nonnegative")


@dataclass(frozen=True)
class AgentConfig:
    sample_period: float = 1.0          # ms
    deviation_threshold: float = 0.05   # fraction
    consecutive_required: int = 3
    suppression_window: float = 1000.0  # ms, wall-aligned
    policy: Optional[Policy] = Policy.PACKET_BASED  # None: detect only, never block
    thresholds: ThresholdDb = ThresholdDb()

    def __post_init__(self) -> None:
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if self.deviation_threshold <= 0:
            raise ValueError("deviation_threshold must be positive")
        if self.consecutive_required < 1:
            raise ValueError("consecutive_required must be at least 1")
        if self.suppression_window <= 0:
            raise ValueError("suppression_window must be positive")
        if not is_whole(self.suppression_window * STEPS_PER_MS, 1):
            raise ValueError(f"suppression_window must be a whole number of "
                             f"{INTERNAL_STEP_MS} ms steps")

    @cached_property
    def window_steps(self) -> int:
        return round(self.suppression_window * STEPS_PER_MS)

    def window_of(self, t: float) -> int:
        """The number of the suppression window holding time t's nearest
        step."""
        return round(t * STEPS_PER_MS) // self.window_steps


class Trigger(NamedTuple):
    cause: TriggerCause
    node: int
    t: float          # ms
    observed: float
    threshold: float


class TroubleTicket(NamedTuple):
    ticket_id: int
    node: int
    t: float          # ms
    cause: TriggerCause
    observed: float
    threshold: float


class CompareResult(NamedTuple):
    deviation: Optional[float]
    breach: bool
    reason: Optional[str]   # "deviation" or "outlived"
    observed: float
    threshold: float


_NO_RESULT = CompareResult(None, False, None, 0.0, 0.0)


def _deviation(count: float, ref: float, eps: float) -> float:
    """A count's relative deviation from its reference; eps floors the
    denominator where the reference is near zero."""
    return abs(count - ref) / max(ref, eps)


class StaticAgent:
    """A domain's detector; see the module docstring for the protocol."""

    def __init__(self, config: AgentConfig) -> None:
        self.config = config
        self.reference: Optional[PtrArray] = None
        self._ref_active: list[float] = []
        self._armed = False
        self._now: Optional[float] = None
        self.pe = 0.0               # calibrated peak rate, the safe threshold
        self._eps = 0.0
        self._in_burst = False
        self._j = -1
        self._dev_run = 0
        self._count = 0.0
        self._prev_count = 0.0

    # -- calibration ---------------------------------------------------

    def calibrate(self, normal_trace: Iterable) -> PtrArray:
        """Fit the growth model to one normal burst and build the reference.

        The reference holds the expected broadcast rate at each sampling
        offset of the burst: the fitted curve over the rise (clamped at
        the observed peak, which becomes the safe threshold pe), and the
        trace itself over the decline.
        """
        points = [TracePoint(float(t), float(c)) for t, c in normal_trace]
        if any(b.t <= a.t for a, b in zip(points, points[1:])):
            raise CalibrationError("calibration trace times must increase")
        if not points or max(p.count for p in points) <= 0:
            raise CalibrationError("calibration trace shows no traffic")
        try:
            fit = fit_model(points)
        except FitError as exc:
            raise CalibrationError(f"cannot fit normal burst: {exc}") from exc
        rise_end, pe = rise_segment(points)[-1]

        step = self.config.sample_period
        span = points[-1].t
        n = int(span / step + 1e-9) + 1
        values = []
        for k in range(n):
            offset = k * step
            if offset <= rise_end + 1e-9:
                values.append(max(0.0, min(eval_ptr(fit.params, offset), pe)))
            else:
                values.append(interpolate(points, offset))
        self.reference = PtrArray(0.0, step, tuple(values))
        self.pe = pe
        self._eps = DEVIATION_DENOM_FLOOR * pe
        first = next((i for i, v in enumerate(values) if v > 0), None)
        self._ref_active = values[first:] if first is not None else []
        self._armed = True
        log.info(
            "detector calibrated: pe=%.1f pkts/interval, reference of %d "
            "samples; starting capture", pe, len(values),
        )
        return self.reference

    def arm_threshold_only(self) -> None:
        """Arm without a reference curve; only threshold checks apply."""
        self._armed = True

    # -- sampling and comparison ----------------------------------------

    def sample_channel(self, stats: ChannelStats) -> CompareResult:
        """Ingest one sampling tick of channel counters; returns its verdict.

        Ticks must arrive in increasing order, and only after the agent
        is armed.
        """
        if not self._armed:
            raise AgentError("sample before calibration")
        if self._now is not None and stats.tick <= self._now:
            raise AgentError(
                f"tick {stats.tick} does not advance past {self._now}"
            )
        self._now = stats.tick
        count = float(stats.broadcast_pkts)
        self._prev_count = self._count
        self._count = count

        if self.reference is None:
            return _NO_RESULT
        if not self._in_burst:
            if count == 0:
                return _NO_RESULT
            self._in_burst = True
            self._j = 0
            self._dev_run = 0
            return self._evaluate(first=True)
        if count == 0:
            self._in_burst = False
            return _NO_RESULT
        self._j += 1
        return self._evaluate(first=False)

    def _evaluate(self, first: bool) -> CompareResult:
        thr = self.config.deviation_threshold
        if self._j < len(self._ref_active):
            dev = _deviation(self._count, self._ref_active[self._j], self._eps)
            self._dev_run = self._dev_run + 1 if dev > thr else 0
            breach = self._dev_run >= self.config.consecutive_required
            return CompareResult(dev, breach, "deviation" if breach else None,
                                 dev, thr)
        # the burst has outlived the reference; alarm only while it grows
        growing = not first and self._count > self._prev_count
        if growing:
            return CompareResult(None, True, "outlived", self._count, self.pe)
        return CompareResult(None, False, None, 0.0, thr)


@dataclass
class Port:
    """A node's entry in the fleet's port table; a new port is not blocked."""

    through: float = -math.inf  # the last window the port is blocked through
    breach: int = 0             # the window of the node's last breach
    tickets: list[TroubleTicket] = field(default_factory=list)  # open ones


def _issue_ticket(ticket_id: int, trigger: Trigger, through: int,
                  config: AgentConfig) -> TroubleTicket:
    """A ticket for a trigger whose port is blocked through that window."""
    ticket = TroubleTicket(ticket_id=ticket_id, **trigger._asdict())
    log.info(
        "ticket #%d: %s on node %d at t=%.3f ms (observed %.4g, "
        "threshold %.4g); port blocked until %.1f ms",
        ticket_id, trigger.cause.value, trigger.node, trigger.t,
        trigger.observed, trigger.threshold,
        (through + 1) * config.suppression_window,
    )
    return ticket


class AgentFleet:
    """One broadcast domain: a single detector and a per-node port table.

    Every node sees the same channel counters (the medium is shared), so
    one agent, `detector`, calibrates and compares for the whole domain.
    Per tick the fleet runs, in priority order, the reference comparison,
    the utilization ceiling, per-node bandwidth windows, and the IPID
    loop scan, and attributes each trigger to a node.  Blocking is per
    node: `ports` maps each node ever blamed for a trigger to its `Port`,
    which holds its block, its last breach and its open tickets.  Nodes
    never blamed have no entry and are never blocked.
    """

    def __init__(
        self,
        config: AgentConfig,
        node_count: int,
        link_rate: Optional[float] = None,
        *,
        capacity_pkts: float,
    ) -> None:
        if node_count < 1:
            raise ValueError("node_count must be at least 1")
        self.config = config
        self.capacity_pkts = capacity_pkts
        self.ticket_ids = itertools.count(1)
        self.detector = StaticAgent(config)
        self.ports: dict[int, Port] = {}
        self.tickets: list[TroubleTicket] = []
        self.trigger_log: list[Trigger] = []
        self.closed: list[tuple[TroubleTicket, float]] = []
        self._window_id: Optional[int] = None
        self._nbw_bytes: dict[int, list[int]] = {}

    def calibrate(self, normal_trace: Optional[Iterable]) -> None:
        """Build the domain's reference, or arm threshold-only when None."""
        if normal_trace is None:
            self.detector.arm_threshold_only()
        else:
            self.detector.calibrate(normal_trace)

    # -- per-tick pipeline ------------------------------------------------

    def observe(
        self,
        stats: ChannelStats,
        node_samples: Iterable[TrafficSample],
        ipid_entries: Sequence[tuple[float, int, int, int]] = (),
    ) -> list[TroubleTicket]:
        """Run one sampling tick; returns any tickets opened at this tick.

        Its triggers take the tick's time, `stats.tick`, in ms, and are
        acted on at the tick's end.  node_samples holds, in any order, at
        least the samples of the nodes that sent in this tick; a node
        without one sent nothing.
        ipid_entries are (t, ipid, src, count) for runs of broadcast frames
        seen inside the loop-scan window ending at this tick: `count`
        frames of one IPID from one node at time t.
        """
        verdict = self.detector.sample_channel(stats)
        thresholds = self.config.thresholds
        t = stats.tick

        triggers: list[Trigger] = []
        if verdict.breach:
            triggers.append(Trigger(TriggerCause.PTR_DEVIATION, 0, t,
                                    verdict.observed, verdict.threshold))
        util = utilization(stats.total_pkts, self.capacity_pkts)
        if util > thresholds.utilization_max:
            triggers.append(Trigger(TriggerCause.UTILIZATION_EXCEEDED, 0,
                                    t, util, thresholds.utilization_max))
        if triggers:
            # channel-wide causes blame the top talker, lowest id on a tie;
            # when no node attempted a broadcast, node 0
            top = min(node_samples, key=lambda s: (-s.attempted_bcast, s.node),
                      default=None)
            if top is not None and top.attempted_bcast:
                triggers = [tr._replace(node=top.node) for tr in triggers]
        if thresholds.nbw_permissible is not None:
            # a node has a window only while it holds broadcast bytes: an
            # empty one sums to 0, which never exceeds a nonnegative limit
            windows = self._nbw_bytes
            sent_now = {s.node: s.bcast_bytes for s in node_samples
                        if s.bcast_bytes}
            for node in sorted(sent_now.keys() | windows.keys()):
                window = windows.setdefault(node, [])
                window.append(sent_now.get(node, 0))
                if len(window) > thresholds.nbw_window_ticks:
                    del window[0]
                sent = sum(window)
                if not sent:
                    del windows[node]
                    continue
                nb = node_bandwidth(sent, 1.0, thresholds.nbw_permissible,
                                    thresholds.nbw_factor)
                if nb.exceeds:
                    triggers.append(Trigger(
                        TriggerCause.NBW_EXCEEDED, node, t, nb.value,
                        thresholds.nbw_factor * thresholds.nbw_permissible))
        if ipid_entries:
            looped, offenders = detect_ipid_loop(
                [(ipid, t_seen, n) for t_seen, ipid, _, n in ipid_entries],
                min_repeats=thresholds.ipid_min_repeats,
                window_ms=thresholds.ipid_window_ms,
            )
            if looped:
                src_of = {e[1]: e[2] for e in ipid_entries}
                src = min(src_of.get(i, 0) for i in offenders)
                triggers.append(Trigger(TriggerCause.IPID_LOOP, src, t,
                                        float(len(offenders)),
                                        float(thresholds.ipid_min_repeats)))

        self.trigger_log.extend(triggers)
        wid = self.config.window_of(t + stats.interval_ms)  # the tick's end
        opened = [self._blame(trigger, wid) for trigger in triggers]
        return [ticket for ticket in opened if ticket is not None]

    def byte_breach(self, node: int, step: int, observed_mb: float
                    ) -> Optional[TroubleTicket]:
        """A frame at `step` pushed a node's per-window broadcast bytes
        over the cap; its trigger's `t` is the step's time in ms.  A node
        breaks it at most once per window; under detect-only agents its
        later frames there go unbudgeted."""
        limit = self.config.thresholds.byte_threshold_mb
        trigger = Trigger(TriggerCause.NBW_EXCEEDED, node, step / STEPS_PER_MS,
                          observed_mb, observed_mb if limit is None else limit)
        self.trigger_log.append(trigger)
        return self._blame(trigger, step // self.config.window_steps)

    def resume_step(self, node: int) -> float:
        """The step where node's port stops being blocked: it is blocked
        at every step before it, and -inf for a node with no port."""
        port = self.ports.get(node)
        if port is None:
            return -math.inf
        return (port.through + 1) * self.config.window_steps

    def is_suppressed(self, node: int, step: int, is_broadcast: bool) -> bool:
        """Whether a frame from node's port at `step` is filtered."""
        policy = self.config.policy
        return (policy is not None and step < self.resume_step(node)
                and (policy is Policy.PACKET_BASED or is_broadcast))

    # -- ticket lifecycle --------------------------------------------------

    def _blame(self, trigger: Trigger, wid: int) -> Optional[TroubleTicket]:
        """Record a breach by trigger.node, acted on in window wid: open a
        ticket and block its port through wid, or, while the port is
        blocked there, coalesce the trigger into the open ticket."""
        self._roll_window(wid)
        port = self.ports.setdefault(trigger.node, Port())
        port.breach = self._window_id
        if wid <= port.through:
            return None
        port.through = wid
        ticket = _issue_ticket(next(self.ticket_ids), trigger, wid, self.config)
        self.tickets.append(ticket)
        port.tickets.append(ticket)
        return ticket

    def _roll_window(self, wid: int) -> None:
        """Advance to window wid (never back), closing the tickets of every
        node whose last breach is CLEAN_WINDOWS_TO_CLOSE whole windows
        behind; they close at the end of the last clean window."""
        if self._window_id is not None and wid <= self._window_id:
            return
        self._window_id = wid
        due = sorted((port.breach + CLEAN_WINDOWS_TO_CLOSE, node)
                     for node, port in self.ports.items() if port.tickets)
        for clean_until, node in due:
            if clean_until >= wid:
                break
            when = (clean_until + 1) * self.config.suppression_window
            for ticket in self.ports[node].tickets:
                self.closed.append((ticket, when))
                log.info("ticket #%d closed: node %d healthy for %d windows",
                         ticket.ticket_id, node, CLEAN_WINDOWS_TO_CLOSE)
            self.ports[node].tickets.clear()

    def finish(self, t: float) -> None:
        """Advance window bookkeeping to the end of the run, at t ms."""
        self._roll_window(self.config.window_of(t) + CLEAN_WINDOWS_TO_CLOSE)


class ReplayDeviation(NamedTuple):
    index: int
    t: float
    observed: float
    expected: float
    deviation: float


OFFLINE_NODE = -1   # ticket origin when replaying a trace with no node ids


def replay_elementwise(
    data: Sequence,
    reference: Sequence,
    config: Optional[AgentConfig] = None,
) -> tuple[list[TroubleTicket], list[ReplayDeviation]]:
    """Offline detection: compare a recorded trace against a reference trace.

    Row j of the data is held against row j of the reference (rates at
    the same offsets; no burst anchoring, no fitting).  Rows where both
    sides are zero deviate by zero.  A run of `consecutive_required`
    breaching rows opens a ticket; further breaches inside the same
    suppression window coalesce into it.

    Returns (tickets, per-row breaching deviations).
    """
    if config is None:
        config = AgentConfig()
    ref_counts = [float(c) for _, c in reference]
    peak = max(ref_counts, default=0.0)
    if peak <= 0:
        raise CalibrationError("reference trace shows no traffic")
    eps = DEVIATION_DENOM_FLOOR * peak
    thr = config.deviation_threshold

    tickets: list[TroubleTicket] = []
    breaches: list[ReplayDeviation] = []
    run = 0
    window = config.window_steps
    resume = -math.inf      # the first step past the window a ticket blocks
    for idx, (t, count) in enumerate(data):
        t, count = float(t), float(count)
        step = round(t * STEPS_PER_MS)      # as `window_of` rounds t
        if step < resume:
            continue
        ref = ref_counts[idx] if idx < len(ref_counts) else 0.0
        dev = _deviation(count, ref, eps)
        if dev > thr:
            run += 1
            breaches.append(ReplayDeviation(idx, t, count, ref, dev))
        else:
            run = 0
        if run >= config.consecutive_required:
            through = step // window
            resume = (through + 1) * window
            tickets.append(_issue_ticket(len(tickets) + 1, Trigger(
                TriggerCause.PTR_DEVIATION, OFFLINE_NODE, t, dev, thr),
                through, config))
            run = 0
    return tickets, breaches
