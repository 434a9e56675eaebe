"""Independent re-derivations used to check the package's answers.

Everything here is deliberately brute force: arbitrary precision where
the production code uses floats, exhaustive grid search where it uses
refinement, quadratic scans where it keeps sliding state, every
least-squares sum retaken for each growth constant where it takes the
ones that do not depend on it once per trace, one frame and one 0.01 ms
step at a time where it carries counted runs between the steps that
hold frames.  Slow and obviously correct, so expected values never
mirror the code under test.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
from collections import Counter, deque
from typing import Iterator, NamedTuple, Optional

import mpmath
import numpy as np
from hypothesis import settings

from stormctl import growth
from stormctl import simulation as sim
from stormctl import tracefile
from stormctl.agents import AgentConfig, AgentFleet
from stormctl.metrics import ChannelStats, TrafficSample, classify, min_ipg

# Frozen oracle grid for the curve fit.  Chosen once, from the stated
# parameter ranges, before the production fit existed; never tuned to it.
GRID_PS = np.arange(0.0, 20000.0 + 1, 50.0)          # 401 points
GRID_PE = np.arange(0.0, 120000.0 + 1, 250.0)        # 481 points
GRID_M = np.arange(0.025, 10.0 + 1e-12, 0.025)       # 400 points

# Frozen search of the fit that `growth.fit_model` replaced: a 200-point
# grid over m with golden-section refinement of its best cell.
REF_FIT_M_MIN = 0.05
REF_FIT_M_MAX = 10.0
REF_FIT_M_STEP = 0.05
REF_FIT_REFINE_ITERS = 80


def oracle_examples(tier1: int) -> int:
    """An oracle property's example count: `tier1` under the default
    profile, the loaded profile's own under any other, such as the soak
    (see conftest.py)."""
    loaded = settings.default.max_examples
    if loaded == settings.get_profile("default").max_examples:
        return tier1
    return loaded


def mp_eval(p_start: float, p_end: float, m: float, t: float) -> mpmath.mpf:
    """The growth curve in 50-digit arithmetic."""
    with mpmath.workdps(50):
        tau = 2 * mpmath.pi
        a = tau * (mpmath.mpf(p_end) - mpmath.mpf(p_start)) / mpmath.mpf(m)
        b = tau * mpmath.mpf(p_start)
        tt = mpmath.mpf(t)
        return a * tt + b * tt * mpmath.e ** (mpmath.mpf(m) * tt)


def rise_of(trace):
    """Rise segment: through the first global peak, origin prepended."""
    points = [(float(t), float(c)) for t, c in trace]
    if points[0][0] > 0:
        points = [(0.0, 0.0)] + points
    peak = 0
    for i, (_, c) in enumerate(points):
        if c > points[peak][1]:
            peak = i
    return points[: peak + 1]


def grid_fit_rmse(trace) -> float:
    """Exhaustive minimum RMSE of the growth curve over the frozen grid."""
    rise = rise_of(trace)
    ts = np.array([t for t, _ in rise])
    ys = np.array([c for _, c in rise])
    n = len(ts)
    tau = 2 * math.pi

    a_col = (tau * (GRID_PE[None, :] - GRID_PS[:, None]))  # scaled by 1/m later
    b_col = tau * GRID_PS[:, None]

    best = math.inf
    for m in GRID_M:
        g = ts * np.exp(m * ts)
        s_tt = float(np.dot(ts, ts))
        s_gg = float(np.dot(g, g))
        s_tg = float(np.dot(ts, g))
        s_ty = float(np.dot(ts, ys))
        s_gy = float(np.dot(g, ys))
        s_yy = float(np.dot(ys, ys))
        a = a_col / m
        sq = (a * a * s_tt + b_col * b_col * s_gg + 2 * a * b_col * s_tg
              - 2 * a * s_ty - 2 * b_col * s_gy + s_yy)
        low = float(sq.min())
        if low < best:
            best = low
    return math.sqrt(max(best, 0.0) / n)


def reference_solve(m: float, ts, ys):
    """Least-squares (a, b, rmse) for fixed m, every sum taken afresh, on
    counts scaled as `growth.fit_model` scales them: by the power of two
    that puts the largest in [0.5, 1)."""
    scale = math.frexp(max(ys))[1]
    solution = _least_squares(m, ts, [math.ldexp(y, -scale) for y in ys],
                              math.exp, math.sqrt)
    return tuple(math.ldexp(x, scale) for x in solution)


def mp_solve(m: float, ts, ys):
    """`reference_solve` taken in 60-digit arithmetic and rounded once to
    floats.  Where the {t, t*e^(mt)} normal equations are ill-conditioned
    (small m*t), the float solve's rounding outweighs the change in RMSE
    between close values of m; this one's does not."""
    with mpmath.workdps(60):
        solution = _mp_least_squares(mpmath.mpf(m), ts, ys)
    return tuple(map(float, solution))


def mp_rss_slope(m: float, ts, ys) -> float:
    """The derivative in m of `mp_solve`'s residual sum of squares: a
    central difference over m(1 +/- 1e-20), taken in 60 digits and
    rounded once to a float."""
    with mpmath.workdps(60):
        m = mpmath.mpf(m)
        h = m * mpmath.mpf(10) ** -20
        rss = [len(ts) * _mp_least_squares(x, ts, ys)[2] ** 2
               for x in (m - h, m + h)]
        return float((rss[1] - rss[0]) / (2 * h))


def _mp_least_squares(m, ts, ys):
    mpf = mpmath.mpf
    return _least_squares(m, [mpf(t) for t in ts], [mpf(y) for y in ys],
                          mpmath.exp, mpmath.sqrt)


def _least_squares(m, ts, ys, exp, sqrt):
    """(a, b, rmse) minimising the RMSE of a*t + b*t*e^(mt) subject to
    Ps >= 0 and Pe >= 0, in the arithmetic of the arguments."""
    n = len(ts)
    gs = [t * exp(m * t) for t in ts]
    s_tt = sum(t * t for t in ts)
    s_gg = sum(g * g for g in gs)
    s_tg = sum(t * g for t, g in zip(ts, gs))
    s_ty = sum(t * y for t, y in zip(ts, ys))
    s_gy = sum(g * y for g, y in zip(gs, ys))

    def rmse_of(a: float, b: float) -> float:
        acc = 0.0
        for t, g, y in zip(ts, gs, ys):
            r = a * t + b * g - y
            acc += r * r
        return sqrt(acc / n)

    det = s_tt * s_gg - s_tg * s_tg
    if det > 0:
        a = (s_ty * s_gg - s_gy * s_tg) / det
        b = (s_gy * s_tt - s_ty * s_tg) / det
        # Ps = b/tau, Pe = Ps + a*m/tau
        if b >= 0 and b + a * m >= 0:
            return a, b, rmse_of(a, b)

    candidates = []
    # boundary Ps = 0: pure linear term, need Pe >= 0 i.e. a >= 0
    if s_tt > 0:
        a0 = max(s_ty / s_tt, 0.0)
        candidates.append((a0, 0.0))
    # boundary Pe = 0: a = -b/m, basis h = t*exp(m*t) - t/m
    s_hh = s_gg - 2 * s_tg / m + s_tt / (m * m)
    s_hy = s_gy - s_ty / m
    if s_hh > 0:
        b0 = max(s_hy / s_hh, 0.0)
        candidates.append((-b0 / m, b0))
    candidates.append((0.0, 0.0))
    return min(
        ((a, b, rmse_of(a, b)) for a, b in candidates), key=lambda c: c[2]
    )


def reference_fit_model(trace) -> growth.FitResult:
    """The 282-solve grid and golden-section fit, every sum of the solver
    retaken per m, over the growth constants `growth` may use."""
    points = [growth.TracePoint(float(t), float(c)) for t, c in trace]
    if any(b.t <= a.t for a, b in zip(points, points[1:])):
        raise growth.FitError("trace times must be strictly increasing")
    if points and points[0].t > 0:
        points.insert(0, growth.TracePoint(0.0, 0.0))
    rise = growth.rise_segment(points) if points else []
    if len(rise) < 4:
        raise growth.FitError(
            f"need at least 4 points in the rise, got {len(rise)}")
    if rise[-1].count <= 0:
        raise growth.FitError("trace shows no growth to fit")

    ts = [p.t for p in rise]
    ys = [p.count for p in rise]

    # m stays in [m_lo, m_hi]: where t*e^(m t) <= 2**256 at every time of
    # the rise, the ceiling `growth` keeps too.  A rise short enough to
    # reach the old search's top keeps its grid; a longer one gets a grid
    # of 200 cells over its shorter domain.
    m_lo, m_hi = REF_FIT_M_MIN / 2, REF_FIT_M_MAX + REF_FIT_M_STEP
    ceiling = (256 * math.log(2.0) - math.log(ts[-1])) / ts[-1]
    if ceiling < m_lo:
        raise growth.FitError("the rise is too long to fit")
    if ceiling >= m_hi:
        step = REF_FIT_M_STEP
        steps = int(round((REF_FIT_M_MAX - REF_FIT_M_MIN) / step))
        grid = [REF_FIT_M_MIN + i * step for i in range(steps + 1)]
    else:
        m_hi = ceiling
        step = (m_hi - m_lo) / 200
        grid = [m_lo + i * step for i in range(201)]

    best_m, best = None, None
    for m in grid:
        sol = reference_solve(m, ts, ys)
        if best is None or sol[2] < best[2]:
            best_m, best = m, sol

    # golden-section refinement of m around the best grid cell
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo = max(best_m - step, m_lo)
    hi = min(best_m + step, m_hi)
    c = hi - golden * (hi - lo)
    d = lo + golden * (hi - lo)
    fc = reference_solve(c, ts, ys)
    fd = reference_solve(d, ts, ys)
    for _ in range(REF_FIT_REFINE_ITERS):
        if fc[2] < fd[2]:
            hi, d, fd = d, c, fc
            c = hi - golden * (hi - lo)
            fc = reference_solve(c, ts, ys)
        else:
            lo, c, fc = c, d, fd
            d = lo + golden * (hi - lo)
            fd = reference_solve(d, ts, ys)
    for m, sol in ((c, fc), (d, fd)):
        if sol[2] < best[2]:
            best_m, best = m, sol

    a, b, rmse = best
    p_start = b / growth.TAU
    p_end = max(p_start + a * best_m / growth.TAU, 0.0)
    return growth.FitResult(growth.make_params(p_start, p_end, best_m), rmse)


def reference_interpolate(points, t: float) -> float:
    """Piecewise-linear value of a trace at t by a scan of every segment:
    the first segment that holds t gives it; 0 outside the trace."""
    if not points or t < points[0].t or t > points[-1].t:
        return 0.0
    for (t0, c0), (t1, c1) in zip(points, points[1:]):
        if t0 <= t <= t1:
            if t1 == t0:
                return float(c1)
            return c0 + (c1 - c0) * (t - t0) / (t1 - t0)
    return float(points[-1].count)


def ipid_loop_bruteforce(entries, min_repeats: int, window_ms: float):
    """Quadratic scan for any IPID repeating within one window span, with
    every time and the window counted in whole 0.01 ms steps."""
    offenders = set()
    by_ipid = {}
    window = round(window_ms * sim.STEPS_PER_MS)
    for ipid, t in entries:
        by_ipid.setdefault(ipid, []).append(round(t * sim.STEPS_PER_MS))
    for ipid, steps in by_ipid.items():
        steps = sorted(steps)
        for i in range(len(steps)):
            inside = [s for s in steps if steps[i] <= s <= steps[i] + window]
            if len(inside) >= min_repeats:
                offenders.add(ipid)
                break
    return bool(offenders), tuple(sorted(offenders))


def open_tickets(fleet: AgentFleet) -> list:
    """The fleet's open tickets, by node, each node's in the order raised."""
    return [tk for node in sorted(fleet.ports)
            for tk in fleet.ports[node].tickets]


def first_elementwise_ticket(data, reference, threshold=0.05, consecutive=3):
    """Index and time of the first elementwise deviation ticket, or None.

    Compares row j against row j, denominators floored at 1% of the
    reference peak, requiring `consecutive` breaching rows in a row.
    """
    ref = [float(c) for _, c in reference]
    eps = 0.01 * max(ref)
    run = 0
    for idx, (t, c) in enumerate(data):
        expected = ref[idx] if idx < len(ref) else 0.0
        dev = abs(float(c) - expected) / max(expected, eps)
        run = run + 1 if dev > threshold else 0
        if run >= consecutive:
            return idx, float(t)
    return None


def loop_expected_counts(n_ticks: int, start_tick: int, factor: int,
                         cap: int) -> list[int]:
    """Per-tick deliveries of a pure loop chain reseeded once per tick."""
    counts = [0] * n_ticks
    chain = 0
    for k in range(start_tick, n_ticks):
        if chain == 0:
            chain = 1
        delivered = min(cap, chain)
        counts[k] = delivered
        chain = delivered * factor
    return counts


class _Frame(NamedTuple):
    src: int
    ipid: int
    is_broadcast: bool
    size: int                   # bytes on the wire, excluding the gap
    kind: str                   # data | seed | replica | spoof | reply
    inj: Optional[int]          # owning injector index for loop chains


class _FrameIpidWindow:
    """Sliding window of delivered broadcast frames, one entry per frame,
    at their 0.01 ms steps."""

    def __init__(self, window_ms: float, min_repeats: int) -> None:
        self.window = round(window_ms * sim.STEPS_PER_MS)
        self.min_repeats = min_repeats
        self._order: deque[tuple[int, int]] = deque()
        self._per_ipid: dict[int, deque[tuple[int, int]]] = {}

    def add(self, step: int, ipid: int, src: int) -> bool:
        self._order.append((step, ipid))
        steps = self._per_ipid.setdefault(ipid, deque())
        steps.append((step, src))
        k = self.min_repeats
        return len(steps) >= k and step - steps[-k][0] <= self.window

    def evict(self, now: int) -> None:
        cutoff = now - self.window
        while self._order and self._order[0][0] < cutoff:
            _, ipid = self._order.popleft()
            steps = self._per_ipid[ipid]
            steps.popleft()
            if not steps:
                del self._per_ipid[ipid]

    def run_entries(self, ipid: int) -> list[tuple[float, int, int, int]]:
        return [(step / sim.STEPS_PER_MS, ipid, src, 1)
                for step, src in self._per_ipid.get(ipid, ())]


def reference_run(scenario: sim.Scenario) -> sim.SimTrace:
    """`simulation.run`, one frame and one 0.01 ms step at a time.

    Visits every step of every tick, and builds, schedules, filters and
    delivers each frame on its own, keeping one IPID-window entry per
    delivered broadcast frame.  The production simulator must return an
    identical trace.
    """
    sc = scenario
    cap = sim.saturation_cap(sc.link_rate, sc.tick, sc.frame_size)
    steps_per_tick = round(sc.tick * sim.STEPS_PER_MS)
    n_ticks = round(sc.duration / sc.tick)
    total_steps = n_ticks * steps_per_tick
    rng = random.Random(sc.seed)
    ipids = itertools.count(1)
    base_ipg = min_ipg(sc.link_rate)

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
    config = sc.agents if sc.agents is not None else AgentConfig(policy=None)
    thresholds = config.thresholds
    byte_limit = None
    if thresholds.byte_threshold_mb is not None:
        byte_limit = thresholds.byte_threshold_mb * 1e6
    enforce = config.policy is not None

    schedule: dict[int, list[_Frame]] = {}
    loop_idx = [i for i, inj in enumerate(sc.injectors) if inj.kind == "loop"]
    pending = {i: 0 for i in loop_idx}
    boundaries: dict[int, set[int]] = {}
    for i in loop_idx:
        inj = sc.injectors[i]
        steps = set()
        t = inj.start_t
        end = inj.end_t if inj.end_t is not None else sc.duration
        while t < min(end, sc.duration):
            steps.add(round(t * sim.STEPS_PER_MS))
            t += inj.pass_interval
        boundaries[i] = steps

    def looping(i: int, step: int) -> bool:
        # a loop's start_t and end_t lie on steps, though their floats may
        # miss the steps' times in the last place
        inj = sc.injectors[i]
        return (step >= round(inj.start_t * sim.STEPS_PER_MS) and (
            inj.end_t is None or step < round(inj.end_t * sim.STEPS_PER_MS)))

    rate_acc = {i: 0.0 for i, inj in enumerate(sc.injectors)
                if inj.kind in ("faulty_nic", "smurf")}
    ipid_win = _FrameIpidWindow(thresholds.ipid_window_ms,
                                thresholds.ipid_min_repeats)
    byte_acc: dict[int, float] = {n: 0.0 for n in range(sc.node_count)}
    byte_wid: dict[int, int] = {n: -1 for n in range(sc.node_count)}
    # the (node, window) byte budgets already broken: each breaks once, and
    # under detect-only agents the node's later frames there go unbudgeted
    broken: set[tuple[int, int]] = set()

    def put(step: int, frame: _Frame) -> None:
        if 0 <= step < total_steps:
            schedule.setdefault(step, []).append(frame)

    def spread(n: int, base: int) -> Iterator[int]:
        return (base + (i * steps_per_tick) // n for i in range(n))

    bcast_rr = 0
    uni_rr = 0
    idle = tuple(TrafficSample(n, 0, 0, 0, 0, 0, 0, 0)
                 for n in range(sc.node_count))
    records: list[sim.TickRecord] = []
    tickets = []
    history: tuple[ChannelStats, ...] = ()

    for t_idx in range(n_ticks):
        base = t_idx * steps_per_tick
        t0 = base / sim.STEPS_PER_MS

        if sc.generator is not None:
            g = sc.generator
            u_b = 1 + g.jitter * (2 * rng.random() - 1)
            u_u = 1 + g.jitter * (2 * rng.random() - 1)
            phase = math.fmod(t0, g.burst_period)
            n_b = int(g.ideal_broadcast(phase, cap) * u_b + 0.5)
            n_u = int(g.ideal_unicast(cap) * u_u + 0.5)
            for step in spread(n_b, base) if n_b else ():
                put(step, _Frame(bcast_rr % sc.node_count, next(ipids), True,
                                 sc.frame_size, "data", None))
                bcast_rr += 1
            for step in spread(n_u, base) if n_u else ():
                put(step, _Frame(uni_rr % sc.node_count, next(ipids), False,
                                 sc.frame_size, "data", None))
                uni_rr += 1
        for i, inj in enumerate(sc.injectors):
            if inj.kind not in ("faulty_nic", "smurf") or not inj.active(t0):
                continue
            rate_acc[i] += inj.rate
            n = int(rate_acc[i])
            rate_acc[i] -= n
            kind = "spoof" if inj.kind == "smurf" else "data"
            for step in spread(n, base) if n else ():
                put(step, _Frame(inj.origin_node, next(ipids), True,
                                 sc.frame_size, kind, i))

        generated = replicated = suppressed = capped = delivered = 0
        per_node = [
            {"d_b": 0, "d_t": 0, "a_b": 0, "a_t": 0, "sup": 0}
            for _ in range(sc.node_count)
        ]
        kinds: Counter = Counter()
        hits: set[int] = set()      # the IPIDs that qualified this tick

        for step in range(base, base + steps_per_tick):
            t_s = step / sim.STEPS_PER_MS
            for i in loop_idx:
                if (step in boundaries[i] and pending[i] == 0
                        and looping(i, step)):
                    put(step, _Frame(sc.injectors[i].origin_node, next(ipids),
                                     True, sc.frame_size, "seed", i))
            batch = schedule.pop(step, None)
            if not batch:
                continue
            for frame in batch:
                if frame.kind == "replica":
                    replicated += 1
                else:
                    generated += 1
                node = per_node[frame.src]
                node["a_t"] += 1
                if frame.is_broadcast:
                    node["a_b"] += 1
                chain = frame.kind in ("seed", "replica") and frame.inj is not None
                if chain and frame.kind == "replica":
                    pending[frame.inj] -= 1

                if enforce and fleet.is_suppressed(frame.src, t_s,
                                                   frame.is_broadcast):
                    suppressed += 1
                    node["sup"] += 1
                    continue
                if byte_limit is not None and frame.is_broadcast:
                    wid = config.window_of(t_s)
                    if wid != byte_wid[frame.src]:
                        byte_wid[frame.src] = wid
                        byte_acc[frame.src] = 0.0
                    would = byte_acc[frame.src] + frame.size
                    if would > byte_limit and (frame.src, wid) not in broken:
                        broken.add((frame.src, wid))
                        ticket = fleet.byte_breach(frame.src, t_s, would / 1e6)
                        if ticket is not None:
                            tickets.append(ticket)
                        if enforce:
                            suppressed += 1
                            node["sup"] += 1
                            continue
                if delivered >= cap:
                    capped += 1
                    continue

                delivered += 1
                node["d_t"] += 1
                kinds[frame.kind] += 1
                if frame.is_broadcast:
                    node["d_b"] += 1
                    if byte_limit is not None:
                        byte_acc[frame.src] += frame.size
                    if ipid_win.add(step, frame.ipid, frame.src):
                        hits.add(frame.ipid)
                if chain:
                    inj = sc.injectors[frame.inj]
                    if looping(frame.inj, step):
                        nxt = step + round(inj.pass_interval * sim.STEPS_PER_MS)
                        ipid = frame.ipid if inj.reuse_ipid else None
                        for _ in range(inj.factor):
                            if nxt < total_steps:
                                put(nxt, _Frame(frame.src,
                                                ipid if ipid is not None
                                                else next(ipids),
                                                True, sc.frame_size,
                                                "replica", frame.inj))
                                pending[frame.inj] += 1
                elif frame.kind == "spoof":
                    repliers = [n for n in range(sc.node_count)
                                if n != frame.src]
                    for j, replier in enumerate(repliers):
                        put(step + 1 + (j * steps_per_tick) // len(repliers),
                            _Frame(replier, next(ipids), False, sc.frame_size,
                                   "reply", None))

        assert generated + replicated - suppressed - capped == delivered

        hit_entries = [entry for ipid in hits
                       for entry in ipid_win.run_entries(ipid)]

        d_b = sum(n["d_b"] for n in per_node)
        load = min(1.0, delivered / cap) if cap else 0.0
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
        sent = tuple(n for n, d in enumerate(per_node) if d["a_t"])
        senders = sim.Senders(sent, *[tuple(per_node[n][key] for n in sent)
                                      for key in ("d_b", "d_t", "a_b", "a_t",
                                                  "sup")],
                              sc.frame_size, idle)
        if fleet is not None:
            tickets.extend(fleet.observe(t0, stats, senders, hit_entries))
        ipid_win.evict(base + steps_per_tick)
        ledger = sim.TickLedger(generated, replicated, suppressed, capped,
                                delivered)
        records.append(sim.TickRecord(t0, stats, classification, senders,
                                      ledger, tuple(sorted(kinds.items()))))
        history = (stats,)

    assert not schedule
    if fleet is not None:
        fleet.finish(sc.duration)
    return sim.SimTrace(
        scenario=sc,
        capacity_pkts=cap,
        records=records,
        tickets=tickets,
        triggers=list(fleet.trigger_log) if fleet else [],
        closed=list(fleet.closed) if fleet else [],
    )


def channel_csv(trace: sim.SimTrace) -> str:
    """The channel CSV that `tracefile.write_channel_csv` writes, whole."""
    return "".join(tracefile.channel_csv_chunks(trace))


def reference_channel_csv(trace: sim.SimTrace) -> str:
    """`channel_csv`, every row through `csv.writer`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(tracefile.CHANNEL_HEADER)
    for rec in trace.records:
        stats = rec.stats
        writer.writerow((
            repr(rec.t), tracefile.CHANNEL_NODE, stats.broadcast_pkts,
            stats.total_pkts, stats.broadcast_bytes, stats.total_bytes,
            repr(stats.observed_ipg), repr(rec.classification.utilization),
            rec.classification.verdict.value, rec.classification.stage.value,
        ))
        for sample in rec.samples:
            writer.writerow((
                repr(rec.t), sample.node, sample.bcast_pkts, sample.total_pkts,
                sample.bcast_bytes, sample.total_bytes, "", "", "", "",
            ))
    return out.getvalue()
