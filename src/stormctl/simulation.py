"""Deterministic broadcast-domain simulator.

Models one shared Ethernet segment as a discrete-event loop on 0.01 ms
internal steps, visiting only the steps that hold scheduled frames.  Loop
passes, suppression windows and IPID sightings are kept in steps: a loop
passes at steps start, start + hop, ... before its end, and window w
holds steps [w * window_steps, (w + 1) * window_steps).  Frames travel
as runs, `count` frames handled in order, so the thousands of copies a
loop pass puts on one step are handled as one.  A run's frames come
from one node, or from the nodes in turn; either way each node's share
is handled by arithmetic, not frame by frame.

The background generator's frames are never scheduled.  Each tick they
form two streams, broadcast then unicast, frame i of n at step
base + i * steps_per_tick // n, and the frames of both in a stretch of
steps are handled as one rotating run per stream.  A stretch ends
wherever frame order could change a count: at a suppression-window edge,
where a block lapses and a byte-budget window begins; at the step of a
frame that may break a byte budget; and at the step where the tick's
link room runs out.  That step is handled on its own, and the broadcasts
that may break a budget there each travel alone.
Each step holding other runs has up to three batches, one heap key each:
the runs put there before its tick, which precede its background frames,
then the rest, then the loops' seeds, in loop order.  A stretch also
ends before each batch, unless no byte budget is set and the link has
room for the batch and the background before it: then the background
waits, and is booked at the tick's end or before a batch that fails
that bound, so once per window segment in a tick whose link does not
fill.

Every sampling tick the delivered traffic is rolled up into channel
counters, classified, and offered to the agent fleet.  A rotating run
that reaches more than one node and is settled whole (below) is booked
as node spans, in time independent of its width: its full cycles add to
every node, and its remainder is one span of nodes, or two where it
wraps past the last node.  Every other run is booked node by node, into
five integer columns indexed by node.  At the tick's end a sweep over
the span edges builds the `Senders` columns a segment of nodes at a
time, and merges in the nodes booked one by one, whose entries are
reset to 0; a node's sample is built only when a reader asks for it,
and every other node shows one shared idle sample.  All randomness
flows from one seeded generator, so a scenario replays bit-identically.

Traffic sources:

  * a background generator producing periodic broadcast bursts (scaled
    to a fraction of channel capacity, with bounded jitter) plus a
    steady unicast floor;
  * injectors modelling a switching loop (frames re-pass the loop every
    pass interval and multiply), a faulty NIC (steady extra broadcast),
    and a smurf attacker (spoofed broadcasts that draw a unicast reply
    from every other node).

Each frame meets, in order: the suppression filter (blocked ports drop
frames at ingress), the per-window broadcast byte budget, the carrying
capacity of the link, then delivery.  A blocked node's frames in a run
are dropped together.  When no byte budget applies to a run and the link
has room for all its frames, the run is settled whole: every other
node's frames are delivered, booked with its attempts.  A blocked port
inside a run's spans is taken out of them, and its frames are booked on
its own as suppressed; the ports are looked up over the run's nodes or
the port table, whichever is shorter.  Of any other run, the link
carries the first frames it still has room for, in one pass over its
nodes.  A run that can break a byte budget has all its frames from one
node, as stretches end before a breaking frame and a step handled on its
own cuts its broadcasts there; a break inside a run from more than one
node fails the run.  A node breaks its budget once per window at most:
an enforcing fleet blocks the node from that frame on, and under
detect-only agents its frames from there go unbudgeted.  Delivered loop
frames spawn their replicas, one run per delivered run; everything
filtered dies without offspring, so a storm only persists while the loop
keeps reseeding.  A loop has one run in flight: its first pass is seeded
when the run starts, and a chain run that puts no replicas seeds the
loop's next pass.  A run is never put at a heap key already visited;
`run` fails rather than leave it unhandled.  A per-tick conservation ledger
(generated + replicated - suppressed - capped == delivered) is checked
inside the loop.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from heapq import heappop, heappush
from itertools import repeat
from typing import Iterator, NamedTuple, Optional

from .agents import AgentConfig, AgentFleet, Policy, ThresholdDb, Trigger, TroubleTicket
from .datasets import interpolate, table4_hump
from .growth import TracePoint
from .metrics import (
    INTERNAL_STEP_MS,
    STEPS_PER_MS,
    ChannelStats,
    IpidWindow,
    StormClassification,
    TrafficSample,
    classify,
    is_whole,
    min_ipg,
    utilization,
)

IPG_EQUIV_BYTES = 12            # inter-frame gap charged against capacity
CALIBRATION_STEP_MS = 0.1       # sampling of the ideal burst for calibration

# Runs and node samples are built as _tuple_new(Run, fields), which skips
# the named tuple's Python-level __new__ and its argument binding.
_tuple_new = tuple.__new__


class ScenarioError(ValueError):
    """Raised for scenario definitions the simulator cannot honor."""


class Run(NamedTuple):
    """`count` frames at one step, or background frames over a stretch of
    steps, handled in order.

    Frame j comes from node `src`, or from node (src + j) % node_count
    when the run rotates: the background generator's frames take the
    nodes in turn.  A fresh run numbers its IPIDs consecutively
    from `ipid`, and none of them ever recurs; otherwise every frame
    carries `ipid` (the seed and replicas of a reused-IPID loop).
    """

    src: int
    ipid: int
    is_broadcast: bool
    kind: str                   # data | seed | replica | spoof | reply
    inj: Optional[int]          # owning injector index for loop chains
    count: int
    fresh: bool
    rotates: bool = False


def saturation_cap(link_rate: float, tick_ms: float, frame_size: int) -> int:
    """Most frames one tick can carry, gap included."""
    if link_rate <= 0 or tick_ms <= 0 or frame_size <= 0:
        raise ScenarioError("link_rate, tick and frame_size must be positive")
    bits = link_rate * tick_ms / 1000.0
    return int(bits // (8 * (frame_size + IPG_EQUIV_BYTES)))


@dataclass(frozen=True)
class NormalBroadcastProfile:
    """Periodic broadcast bursts over a steady unicast floor.

    The burst shape is a trace of one hump; per tick the shape value at
    the current phase is scaled so its peak hits broadcast_peak_fraction
    of channel capacity (or burst_scale times the raw counts when set),
    then jittered by at most +/-jitter.
    """

    burst_period: float = 3.0           # ms
    shape: tuple[TracePoint, ...] = ()  # defaults to the bundled normal hump
    jitter: float = 0.05
    unicast_fraction: float = 0.40
    broadcast_peak_fraction: float = 0.08
    burst_scale: Optional[float] = None

    def __post_init__(self) -> None:
        if self.burst_period <= 0:
            raise ScenarioError("burst_period must be positive")
        if not 0 <= self.jitter < 1:
            raise ScenarioError("jitter must be in [0, 1)")
        if not self.shape:
            object.__setattr__(self, "shape", tuple(table4_hump()))
        if any(b[0] < a[0] for a, b in zip(self.shape, self.shape[1:])):
            raise ScenarioError("shape times must not decrease")

    @cached_property
    def _peak(self) -> float:
        return max(c for _, c in self.shape)

    def ideal_broadcast(self, phase: float, capacity: int) -> float:
        """Jitter-free broadcast frames per tick at this burst phase."""
        raw = interpolate(self.shape, phase)
        if self.burst_scale is not None:
            return raw * self.burst_scale
        peak = self._peak
        if peak <= 0:
            return 0.0
        return raw / peak * self.broadcast_peak_fraction * capacity

    def ideal_unicast(self, capacity: int) -> float:
        return self.unicast_fraction * capacity

    def ideal_profile(self, capacity: int,
                      step: float = CALIBRATION_STEP_MS) -> list[TracePoint]:
        """One jitter-free burst, finely sampled; calibration input."""
        n = int(self.burst_period / step + 1e-9) + 1
        return [TracePoint(k * step, self.ideal_broadcast(k * step, capacity))
                for k in range(n)]


@dataclass(frozen=True)
class Injector:
    """A fault or attack bound to one node and a time window."""

    kind: str                           # loop | faulty_nic | smurf
    start_t: float = 0.0                # ms
    end_t: Optional[float] = None       # ms; None runs to the end
    origin_node: int = 0
    rate: float = 1.0                   # frames per tick (faulty_nic, smurf)
    pass_interval: float = 0.2          # ms between loop passes (loop)
    factor: int = 2                     # copies per loop pass (loop)
    reuse_ipid: bool = True             # loop replicas keep the seed's IPID

    def __post_init__(self) -> None:
        if self.kind not in ("loop", "faulty_nic", "smurf"):
            raise ScenarioError(f"unknown injector kind {self.kind!r}")
        if self.start_t < 0:
            raise ScenarioError("start_t must be nonnegative")
        if self.end_t is not None and self.end_t <= self.start_t:
            raise ScenarioError("end_t must follow start_t")
        if self.kind in ("faulty_nic", "smurf") and self.rate <= 0:
            raise ScenarioError("rate must be positive")
        if self.kind == "loop":
            if self.pass_interval <= 0:
                raise ScenarioError("pass_interval must be positive")
            if self.factor < 1:
                raise ScenarioError("factor must be at least 1")

    def active(self, t: float) -> bool:
        return self.start_t <= t and (self.end_t is None or t < self.end_t)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    name: str = "custom"
    node_count: int                     # a domain has no default size
    link_rate: float = 1e9              # bits per second
    tick: float = 1.0                   # ms, the sampling period
    duration: float = 30.0              # ms
    seed: int = 0
    frame_size: int = 512               # bytes
    generator: Optional[NormalBroadcastProfile] = None
    injectors: tuple[Injector, ...] = ()
    agents: Optional[AgentConfig] = None

    def __post_init__(self) -> None:
        """Reject every scenario `run` cannot honour exactly."""
        try:        # the name is written into the chart as UTF-8
            self.name.encode("utf-8")
        except UnicodeEncodeError:
            raise ScenarioError(
                "scenario.name must be encodable as UTF-8") from None
        bad = _non_finite(self, "scenario")
        if bad is not None:
            raise ScenarioError(f"{bad} must be finite")
        if self.node_count < 2:
            raise ScenarioError("a broadcast domain needs at least 2 nodes")
        if not is_whole(self.tick * STEPS_PER_MS, 1):
            raise ScenarioError(f"tick must be a positive whole number of "
                                f"{INTERNAL_STEP_MS} ms steps")
        if not is_whole(self.duration / self.tick, 1):
            raise ScenarioError("duration must be a positive whole number of ticks")
        for i, inj in enumerate(self.injectors):
            if not 0 <= inj.origin_node < self.node_count:
                raise ScenarioError(
                    f"injector origin {inj.origin_node} outside the domain")
            if inj.kind != "loop":
                continue
            # a loop's passes are steps, which `run` would round to
            for name, least, what in (("start_t", 0, "a whole"),
                                      ("end_t", 1, "a positive whole"),
                                      ("pass_interval", 1, "a positive whole")):
                value = getattr(inj, name)
                if value is not None and not is_whole(value * STEPS_PER_MS,
                                                      least):
                    raise ScenarioError(
                        f"scenario.injectors[{i}].{name} must be {what} "
                        f"number of {INTERNAL_STEP_MS} ms steps")
        if self.agents is not None:
            if self.agents.sample_period != self.tick:
                raise ScenarioError(
                    f"agents sample every {self.agents.sample_period} ms but "
                    f"the tick is {self.tick} ms; they must be equal")
        if saturation_cap(self.link_rate, self.tick, self.frame_size) < 1:
            raise ScenarioError("one tick cannot carry a single frame")


def _non_finite(value, where: str) -> Optional[str]:
    """The path of the first non-finite float inside value, if any."""
    if isinstance(value, float):
        return None if math.isfinite(value) else where
    if is_dataclass(value):
        items = [(f".{f.name}", getattr(value, f.name)) for f in fields(value)]
    elif isinstance(value, tuple):
        items = [(f"[{i}]", item) for i, item in enumerate(value)]
    else:
        return None
    paths = (_non_finite(item, where + key) for key, item in items)
    return next((path for path in paths if path is not None), None)


class TickLedger(NamedTuple):
    generated: int
    replicated: int
    suppressed: int
    capped: int
    delivered: int


@dataclass(slots=True)
class Senders:
    """The nodes that sent in one tick, in node order, with their counts
    as columns named as `TrafficSample`'s fields.

    A sequence of `TrafficSample`s, one per sender, each built when
    read, its bytes the frames times `size`.  `idle` is the run's
    shared sample of every node, which a node that sent nothing shows.
    """

    nodes: tuple[int, ...]
    bcast_pkts: tuple[int, ...]
    total_pkts: tuple[int, ...]
    attempted_bcast: tuple[int, ...]
    attempted_total: tuple[int, ...]
    suppressed: tuple[int, ...]
    size: int
    idle: tuple[TrafficSample, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[TrafficSample]:
        new, size = _tuple_new, self.size
        for n, b, t, a_b, a_t, sup in zip(
                self.nodes, self.bcast_pkts, self.total_pkts,
                self.attempted_bcast, self.attempted_total, self.suppressed):
            yield new(TrafficSample, (n, b, t, b * size, t * size, a_b, a_t,
                                      sup))


class TickRecord(NamedTuple):
    t: float
    stats: ChannelStats
    classification: StormClassification
    senders: Senders
    ledger: TickLedger
    delivered_by_kind: tuple[tuple[str, int], ...]

    @property
    def samples(self) -> tuple[TrafficSample, ...]:
        """Every node's sample, in node order: a sender's built from
        `senders`, any other node's its shared idle sample."""
        slots = list(self.senders.idle)
        for s in self.senders:
            slots[s.node] = s
        return tuple(slots)


@dataclass
class SimTrace:
    scenario: Scenario
    capacity_pkts: int
    records: list[TickRecord]
    tickets: list[TroubleTicket]
    triggers: list[Trigger]
    closed: list[tuple[TroubleTicket, float]]

    def summary(self) -> dict:
        verdicts = Counter(r.classification.verdict.value for r in self.records)
        causes = Counter(t.cause.value for t in self.tickets)
        totals = {name: sum(getattr(r.ledger, name) for r in self.records)
                  for name in TickLedger._fields}
        return {
            "scenario": self.scenario.name,
            "node_count": self.scenario.node_count,
            "link_rate": self.scenario.link_rate,
            "tick_ms": self.scenario.tick,
            "duration_ms": self.scenario.duration,
            "seed": self.scenario.seed,
            "capacity_pkts_per_tick": self.capacity_pkts,
            "ticks": len(self.records),
            "frames": totals,
            "max_utilization": round(
                max((r.classification.utilization for r in self.records),
                    default=0.0), 6),
            "verdicts": dict(sorted(verdicts.items())),
            "tickets": len(self.tickets),
            "tickets_by_cause": dict(sorted(causes.items())),
            "tickets_closed": len(self.closed),
        }


def _span_senders(node_count: int, cycles_b: int, cycles_t: int,
                  spans: list[tuple[int, int, int]], lone: list[int],
                  columns: tuple[list[int], ...], size: int,
                  idle: tuple[TrafficSample, ...]) -> Senders:
    """A tick's senders: the nodes its spans reach, merged with the nodes
    `lone` (sorted) booked one by one in `columns` (attempted broadcast
    and total, delivered broadcast and total, suppressed).

    Every node takes `cycles_b` broadcast and `cycles_t` spanned frames,
    and each edge (node, broadcast, total) of `spans` adds its counts to
    every node from its node on.  A spanned frame is attempted and
    delivered."""
    att_b, att_t, del_b, del_t, sup = columns
    ids: list[int] = []
    bcast: list[int] = []
    total: list[int] = []
    at: list[int] = []          # the rows of the lone nodes
    spans.sort()
    spans.append((node_count, 0, 0))
    level_b, level_t = cycles_b, cycles_t
    a = 0
    # the nodes the spans reach, and the lone nodes, in node order
    later = iter(lone)
    v = next(later, node_count)
    for edge, rise_b, rise_t in spans:
        while v < edge:
            if level_t and a < v:
                ids += range(a, v)
                bcast += repeat(level_b, v - a)
                total += repeat(level_t, v - a)
            at.append(len(ids))
            ids.append(v)
            bcast.append(level_b)
            total.append(level_t)
            a = v + 1
            v = next(later, node_count)
        if level_t and a < edge:
            ids += range(a, edge)
            bcast += repeat(level_b, edge - a)
            total += repeat(level_t, edge - a)
        a = edge
        level_b += rise_b
        level_t += rise_t
    if not at:      # every sender's frames were spanned
        ids, bcast, total = tuple(ids), tuple(bcast), tuple(total)
        return Senders(ids, bcast, total, bcast, total, (0,) * len(ids),
                       size, idle)
    d_b, d_t, dropped = bcast[:], total[:], [0] * len(ids)
    for i in at:
        v = ids[i]
        bcast[i] += att_b[v]
        total[i] += att_t[v]
        d_b[i] += del_b[v]
        d_t[i] += del_t[v]
        dropped[i] = sup[v]
    return Senders(tuple(ids), tuple(d_b), tuple(d_t), tuple(bcast),
                   tuple(total), tuple(dropped), size, idle)


def run(scenario: Scenario) -> SimTrace:
    """Execute a scenario and return its full per-tick trace."""
    sc = scenario
    cap = saturation_cap(sc.link_rate, sc.tick, sc.frame_size)
    size = sc.frame_size
    steps_per_tick = round(sc.tick * STEPS_PER_MS)
    n_ticks = round(sc.duration / sc.tick)
    total_steps = n_ticks * steps_per_tick
    rng = random.Random(sc.seed)
    next_ipid = 1               # IPIDs are handed out in `put` order
    base_ipg = min_ipg(sc.link_rate)
    nodes = sc.node_count

    fleet: Optional[AgentFleet] = None
    if sc.agents is not None:
        fleet = AgentFleet(sc.agents, sc.node_count, link_rate=sc.link_rate,
                           capacity_pkts=cap)
        profile = None
        if sc.generator is not None:
            candidate = sc.generator.ideal_profile(cap)
            if max(p.count for p in candidate) > 0:
                profile = candidate
        fleet.calibrate(profile)
    # without agents the defaults apply to the IPID window and nothing is enforced
    config = sc.agents if sc.agents is not None else AgentConfig(policy=None)
    thresholds = config.thresholds
    # a node's byte budget in frames: byte counts are whole numbers, so its
    # frames keep within the budget while their bytes keep within its floor
    quota = None
    if thresholds.byte_threshold_mb is not None:
        quota = math.floor(thresholds.byte_threshold_mb * 1e6) // size
    window_steps = config.window_steps
    enforce = config.policy is not None

    # per loop injector, its pass steps, which stop where the loop or the
    # run ends, and its hop; a hop below one step (only past validation)
    # strands its replicas, and the run fails on them
    loops: dict[int, tuple[Injector, range, int]] = {}
    for i, inj in enumerate(sc.injectors):
        if inj.kind == "loop":
            end = (total_steps if inj.end_t is None
                   else min(round(inj.end_t * STEPS_PER_MS), total_steps))
            hop = round(inj.pass_interval * STEPS_PER_MS)
            loops[i] = (inj, range(round(inj.start_t * STEPS_PER_MS), end,
                                   max(hop, 1)), hop)
    # heap of the keys to visit, three per step: key 3 * step holds the
    # runs put there before its tick, which come before its background,
    # key 3 * step + 1 the other runs, and key 3 * step + 2 the loops'
    # seeds, which follow them
    due: list[int] = []
    schedule: dict[int, list[Run]] = {}
    rate_acc = {i: 0.0 for i, inj in enumerate(sc.injectors)
                if inj.kind in ("faulty_nic", "smurf")}
    ipid_win = IpidWindow(round(thresholds.ipid_window_ms * STEPS_PER_MS),
                          thresholds.ipid_min_repeats)
    # per node, the frames it may still deliver in window byte_wid[node]
    left: dict[int, float] = {}     # inf once broken there, detect-only
    byte_wid: dict[int, int] = {}
    new = _tuple_new            # takes all fields, a run's `rotates` too
    # a node that sends nothing in a tick shows this same sample in it
    idle = tuple(new(TrafficSample, (n, 0, 0, 0, 0, 0, 0, 0))
                 for n in range(sc.node_count))
    # per node, this tick's broadcast and total attempted, broadcast and
    # total delivered, and suppressed frames; nonzero only in `active`
    columns = att_b, att_t, del_b, del_t, sup = tuple([0] * nodes
                                                      for _ in range(5))
    ports = fleet.ports if enforce else {}  # the nodes that can be blocked

    def put(step: int, r: Run, seed: bool = False) -> None:
        """Add r to a batch of step, its seeds' if `seed`; a run past the
        last step is dropped.  A key at or below the last one visited
        would never be handled, so it fails the run."""
        if step < total_steps:
            key = 3 * step + (2 if seed else step < stop)
            if key <= last_key:
                raise RuntimeError(f"frames never processed from step {step}")
            batch = schedule.get(key)
            if batch is None:
                schedule[key] = [r]
                heappush(due, key)
            else:
                batch.append(r)

    def before(n: int, step: int) -> int:
        """How many of a tick's n background frames, frame i at step
        base + i * steps_per_tick // n, lie before step."""
        return -(-(step - base) * n // steps_per_tick)

    def frames(a: int, b: int) -> int:
        """The tick's background frames at steps [a, b), both streams."""
        return (before(n_b, b) - before(n_b, a)
                + before(n_u, b) - before(n_u, a))

    def background(a: int, b: int, room: int) -> tuple[int, list[Run]]:
        """The end k of a stretch [a, k), k <= b, of background steps, and
        its frames: one rotating run per stream, unless frame order
        changes a count in it.  The stretch ends where a port's block or a
        budget window may change, at a window edge, and before the step
        where the link's `room` runs out.  It also ends before the step of
        the first frame that may break a byte budget, or, where that step
        is a, is step a alone, with each such broadcast frame a run of its
        own.  So a single step is handled frame-exact.

        Without a byte budget `run` may book these frames after settling
        the batches of the steps among [a, b), each under the bound that
        the link had room for all of its runs and every background frame
        before them.  Each of those runs was then whole in frame order
        too, as no background before it could take the room it needed;
        and these frames, up to the last such step, fit in the `room` left
        after it, so the link fills, if at all, where it would have in
        frame order.
        """
        b = min(b, (a // window_steps + 1) * window_steps)
        if room and frames(a, b) > room:
            lo = a
            while b - lo > 1:
                mid = (lo + b) // 2
                if frames(a, mid) > room:
                    b = mid
                else:
                    lo = mid
            b = lo
        b = max(b, a + 1)
        cuts = []
        if quota is not None:
            # of each node with `fit` frames of budget left, its broadcast
            # frame `fit` here (counted from 0) may break it, if the link
            # has room at a or the budget is spent, as a capped frame adds
            # no bytes
            rr, _, _, n = streams[0]
            t_a = a / STEPS_PER_MS
            wid = a // window_steps
            i0, i1 = before(n, a), before(n, b)
            for i in range(i0, min(i1, i0 + nodes)):
                v = (rr + i) % nodes
                if v in ports and fleet.is_suppressed(v, t_a, True):
                    continue
                fit = left[v] if byte_wid.get(v) == wid else quota
                if (room or not fit) and i + fit * nodes < i1:
                    cuts.append(i + fit * nodes)
            cuts.sort()
            if cuts:
                k = base + cuts[0] * steps_per_tick // n
                if k > a:
                    b, cuts = k, []
                else:
                    b = a + 1
                    cuts = [j for j in cuts if j < before(n, b)]
        runs = []
        for rr, ipid, bcast, n in streams:
            i, end = before(n, a), before(n, b)
            for j in (cuts if bcast else ()):   # frames i..j-1, then j
                if i < j:
                    runs.append(new(Run, ((rr + i) % nodes, ipid + i, True,
                                          "data", None, j - i, True, True)))
                runs.append(new(Run, ((rr + j) % nodes, ipid + j, True,
                                      "data", None, 1, True, True)))
                i = j + 1
            if i < end:
                runs.append(new(Run, ((rr + i) % nodes, ipid + i, bcast,
                                      "data", None, end - i, True, True)))
        return b, runs

    def seed(i: int, step: int) -> None:
        """Put loop i's seed at its pass `step`."""
        nonlocal next_ipid
        inj = loops[i][0]
        put(step, new(Run, (inj.origin_node, next_ipid, True, "seed", i, 1,
                            not inj.reuse_ipid, False)), True)
        next_ipid += 1

    # A loop has at most one run in flight: its first pass is seeded here,
    # and a chain run that puts no replicas seeds the loop's next pass.
    last_key = -1               # the last key visited
    for i, (_, passes, _) in loops.items():
        if passes:
            seed(i, passes[0])
    bcast_rr = 0
    uni_rr = 0
    records: list[TickRecord] = []
    history: tuple[ChannelStats, ...] = ()

    for t_idx in range(n_ticks):
        base = t_idx * steps_per_tick
        stop = base + steps_per_tick
        t0 = base / STEPS_PER_MS    # the tick's step time, not t_idx * tick
        # this tick's background: one stream of broadcast frames, one of
        # unicast, as (node of frame 0, IPID of frame 0, is_broadcast, frames)
        streams = ()
        if sc.generator is not None:
            g = sc.generator
            u_b = 1 + g.jitter * (2 * rng.random() - 1)
            u_u = 1 + g.jitter * (2 * rng.random() - 1)
            phase = math.fmod(t0, g.burst_period)
            n_b = int(g.ideal_broadcast(phase, cap) * u_b + 0.5)
            n_u = int(g.ideal_unicast(cap) * u_u + 0.5)
            streams = ((bcast_rr, next_ipid, True, n_b),
                       (uni_rr, next_ipid + n_b, False, n_u))
            next_ipid += n_b + n_u
            bcast_rr = (bcast_rr + n_b) % nodes
            uni_rr = (uni_rr + n_u) % nodes
        bg_step = base if streams else stop     # first background step left
        for i, inj in enumerate(sc.injectors):
            if inj.kind not in ("faulty_nic", "smurf") or not inj.active(t0):
                continue
            rate_acc[i] += inj.rate
            n = int(rate_acc[i])
            rate_acc[i] -= n
            kind = "spoof" if inj.kind == "smurf" else "data"
            for j in range(n):      # a spoof draws replies per frame
                put(base + j * steps_per_tick // n,
                    new(Run, (inj.origin_node, next_ipid, True, kind, i, 1,
                              True, False)))
                next_ipid += 1

        generated = replicated = suppressed = capped = delivered = 0
        active: list[int] = []      # the nodes booked one by one
        # the frames booked as node spans: `cycles_b` broadcast and
        # `cycles_t` in all for every node, plus, per edge (node,
        # broadcast, total) in `spans`, its counts for the nodes from its
        # node on
        cycles_b = cycles_t = 0
        spans: list[tuple[int, int, int]] = []
        kinds: Counter = Counter()
        hits: set[int] = set()      # the IPIDs that qualified this tick

        # Without a byte budget the background may wait (see `background`).
        # Its IPIDs are fresh, so they never enter the IPID window, and a
        # port's block changes only at a window edge, which no stretch
        # crosses, as `observe` sets blocks at the tick's end: its frames
        # differ from other runs only in the link room they take.  So a
        # key's batch is settled with the background before it still
        # waiting when the link has room for that background and every run
        # of the batch.  Otherwise, and at the tick's end, the background
        # is booked first.
        tick_end = 3 * stop
        while True:
            key = due[0] if due and due[0] < tick_end else tick_end
            end = (key + 2) // 3    # where the background before it ends
            wait = (quota is None and key < tick_end and bg_step < end
                    and delivered + frames(bg_step, end)
                    + sum([r.count for r in schedule[key]]) <= cap)
            if bg_step < end and not wait:
                step = bg_step
                bg_step, batch = background(step, end, cap - delivered)
            elif key == tick_end:
                break
            else:
                heappop(due)
                last_key = key
                step = key // 3
                batch = schedule.pop(key)
                if key % 3 == 2:    # put where chains end, run in loop order
                    batch.sort(key=lambda r: r.inj)
            t_s = step / STEPS_PER_MS
            for src, ipid, bcast, kind, owner, n, fresh, rotates in batch:
                if kind == "replica":
                    replicated += n
                else:
                    generated += n
                budget = quota is not None and bcast
                if budget:
                    wid = step // window_steps
                # Lane j holds frames j, j + period, ... of the run, all from
                # one node; a run that does not rotate is its own one lane,
                # and so is every run that can break a byte budget.
                period = nodes if rotates else 1
                width = n if n < period else period
                # Unless a byte budget applies or the link lacks room for
                # the run, a lane's frames share one fate: suppressed if its
                # port is blocked, else delivered.
                whole = not budget and n <= cap - delivered
                sent = dropped = 0
                if whole and width > 1:
                    # Booked as node spans: every node takes n // nodes
                    # frames and nodes [src, src + r) one more, or, where
                    # that wraps past the last node, nodes [src, nodes)
                    # and [0, src + r - nodes).
                    full, r = divmod(n, nodes)
                    e = src + r
                    if e > nodes:
                        spans += ((0, bcast, 1), (e - nodes, -bcast, -1),
                                  (src, bcast, 1))
                    elif r:
                        spans += (src, bcast, 1), (e, -bcast, -1)
                    cycles_t += full
                    if bcast:
                        cycles_b += full
                    # a blocked port leaves the spans, and its frames are
                    # booked one by one as suppressed
                    if not ports:
                        near = ()
                    elif len(ports) < width:
                        near = [v for v in ports if (v - src) % nodes < width]
                    else:
                        near = [v % nodes for v in range(src, src + width)
                                if v % nodes in ports]
                    for v in near:
                        if not fleet.is_suppressed(v, t_s, bcast):
                            continue
                        c = (n - 1 - (v - src) % nodes) // nodes + 1
                        b = c if bcast else 0
                        spans += (v, -b, -c), (v + 1, b, c)
                        if not att_t[v]:
                            active.append(v)
                        att_t[v] += c
                        att_b[v] += b
                        sup[v] += c
                        dropped += c
                    sent = n - dropped
                    width = 0           # no lane is left to handle
                # of a run not settled whole, each open lane's (j, node, frames)
                opened = []
                for j in range(width):
                    v = (src + j) % nodes
                    if not att_t[v]:
                        active.append(v)
                    c = (n - 1 - j) // period + 1
                    att_t[v] += c
                    if bcast:
                        att_b[v] += c
                    if v in ports and fleet.is_suppressed(v, t_s, bcast):
                        sup[v] += c
                        dropped += c
                    elif not whole:
                        opened.append((j, v, c))
                    else:
                        sent += c
                        del_t[v] += c
                        if bcast:
                            del_b[v] += c
                if opened:
                    # The link carries the open lanes' first frames it has
                    # room for, each lane its frames before `cut`, and caps
                    # the rest.
                    cut = n
                    room = cap - delivered
                    if n > room:
                        full, rem = divmod(room, len(opened))
                        cut = min(n, opened[rem][0] + full * period)
                    for j, v, c in opened:
                        k = (cut - 1 - j) // period + 1     # frames carried
                        if budget:
                            if wid != byte_wid.get(v):
                                byte_wid[v] = wid
                                left[v] = quota
                            # The lane's frame `fit` breaks the budget if the
                            # frames before it are carried and spend it; a
                            # capped frame adds no bytes.  Only a one-lane run
                            # can break one, as `background` sees to.
                            fit = left[v]
                            if fit <= k and fit < c:
                                if width > 1:
                                    raise RuntimeError(
                                        f"a byte budget broken at t={t_s} "
                                        f"inside a run of {width} lanes")
                                fleet.byte_breach(v, t_s,
                                                  (quota + 1) * size / 1e6)
                                if enforce:     # the breach blocked v
                                    sup[v] += c - fit
                                    dropped += c - fit
                                    k = fit
                                else:           # unbudgeted from here on
                                    left[v] = math.inf
                            left[v] -= k
                        sent += k
                        del_t[v] += k
                        if bcast:
                            del_b[v] += k
                suppressed += dropped
                capped += n - sent - dropped
                if sent:
                    delivered += sent
                    kinds[kind] += sent
                    # fresh IPIDs never repeat, so they never enter the window
                    if bcast and not fresh and ipid_win.add(step, ipid, sent,
                                                            src):
                        hits.add(ipid)
                if kind in ("seed", "replica"):
                    loop, passes, hop = loops[owner]
                    nxt = step + hop
                    if sent and step < passes.stop and nxt < total_steps:
                        k = sent * loop.factor
                        reuse = loop.reuse_ipid
                        put(nxt, new(Run, (src, ipid if reuse else next_ipid,
                                           True, "replica", owner, k,
                                           not reuse, False)))
                        if not reuse:
                            next_ipid += k
                    elif nxt in passes:     # the chain ends: seed the pass
                        seed(owner, nxt)
                elif kind == "spoof" and sent:     # spoofs are single frames
                    repliers = [m for m in range(sc.node_count) if m != src]
                    for j, replier in enumerate(repliers):
                        put(step + 1 + (j * steps_per_tick) // len(repliers),
                            new(Run, (replier, next_ipid, False, "reply",
                                      None, 1, True, False)))
                        next_ipid += 1

        if generated + replicated - suppressed - capped != delivered:
            raise RuntimeError(
                f"conservation broken at t={t0}: {generated}+{replicated}"
                f"-{suppressed}-{capped} != {delivered}")

        # the senders' counts, spanned or booked one by one, in node order;
        # no sample is built
        active.sort()
        senders = _span_senders(nodes, cycles_b, cycles_t, spans, active,
                                columns, size, idle)
        for n in active:
            att_b[n] = att_t[n] = del_b[n] = del_t[n] = sup[n] = 0
        d_b = sum(senders.bcast_pkts)
        load = utilization(delivered, cap)
        stats = ChannelStats(
            tick=t0,
            broadcast_pkts=d_b,
            total_pkts=delivered,
            broadcast_bytes=d_b * sc.frame_size,
            total_bytes=delivered * sc.frame_size,
            observed_ipg=base_ipg * max(0.0, 1.0 - load),
            link_rate=sc.link_rate,
            interval_ms=sc.tick,
        )
        classification = classify(stats, history,
                                  ipid_loop=bool(hits),
                                  capacity_pkts=cap)
        if fleet is not None:
            fleet.observe(t0, stats, senders, ipid_win.run_entries(hits))
        # after `observe`, which must scan every sighting the verdict counted
        ipid_win.evict(stop)
        ledger = TickLedger(generated, replicated, suppressed, capped, delivered)
        records.append(TickRecord(t0, stats, classification, senders, ledger,
                                  tuple(sorted(kinds.items()))))
        history = (stats,)

    if fleet is not None:
        fleet.finish(sc.duration)
    return SimTrace(
        scenario=sc,
        capacity_pkts=cap,
        records=records,
        tickets=fleet.tickets if fleet else [],
        triggers=list(fleet.trigger_log) if fleet else [],
        closed=list(fleet.closed) if fleet else [],
    )


def scenario_presets() -> dict[str, Scenario]:
    """Bundled scenarios, by name."""
    return {
        "normal": Scenario(
            name="normal", node_count=5, link_rate=1e9, tick=1.0,
            duration=30.0, seed=7,
            generator=NormalBroadcastProfile(),
            agents=AgentConfig(policy=Policy.PACKET_BASED),
        ),
        "loop-storm": Scenario(
            name="loop-storm", node_count=5, link_rate=1e9, tick=1.0,
            duration=40.0, seed=7,
            generator=NormalBroadcastProfile(),
            injectors=(Injector(kind="loop", start_t=10.0, origin_node=1,
                                pass_interval=0.2, factor=2, reuse_ipid=True),),
            agents=AgentConfig(policy=Policy.PACKET_BASED),
        ),
        "smurf": Scenario(
            name="smurf", node_count=6, link_rate=1e9, tick=1.0,
            duration=30.0, seed=7,
            generator=NormalBroadcastProfile(),
            injectors=(Injector(kind="smurf", start_t=5.0, end_t=25.0,
                                origin_node=0, rate=2.0),),
        ),
        "faulty-nic": Scenario(
            name="faulty-nic", node_count=4, link_rate=10e6, tick=1.0,
            duration=50.0, seed=7,
            generator=NormalBroadcastProfile(unicast_fraction=0.10,
                                             broadcast_peak_fraction=0.0),
            injectors=(Injector(kind="faulty_nic", start_t=0.0,
                                origin_node=0, rate=0.5),),
            agents=AgentConfig(
                policy=None,
                thresholds=ThresholdDb(nbw_permissible=1200.0),
            ),
        ),
        "table5-control": Scenario(
            name="table5-control", node_count=3, link_rate=100e6, tick=250.0,
            duration=4000.0, seed=3,
            injectors=(Injector(kind="loop", start_t=50.0, origin_node=0,
                                pass_interval=50.0, factor=2,
                                reuse_ipid=False),),
            agents=AgentConfig(
                sample_period=250.0,
                policy=Policy.PACKET_BASED,
                thresholds=ThresholdDb(byte_threshold_mb=2.5),
            ),
        ),
    }


def preset(name: str, *, seed: Optional[int] = None,
           agents: bool = True) -> Scenario:
    """A bundled scenario, optionally reseeded or stripped of its agents."""
    presets = scenario_presets()
    if name not in presets:
        raise ScenarioError(
            f"unknown scenario {name!r}; choose from {sorted(presets)}")
    sc = presets[name]
    if seed is not None:
        sc = replace(sc, seed=seed)
    if not agents:
        sc = replace(sc, agents=None)
    return sc
