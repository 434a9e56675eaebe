"""Properties each workload's outputs must have, checked from outside.

Every check recomputes what it needs here, with the standard library
only: link capacity, utilization, windows, RMSE and the elementwise scan
are this file's own arithmetic, and artifacts are re-read from disk.
Each function returns a list of problems; an empty list means the
outputs hold.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

GAP_BYTES = 12                 # inter-frame gap charged against capacity
STORM_UTILIZATION = 0.60       # above this share of capacity a tick is a storm
ONSET_SLACK_TICKS = 3          # a loop ticket must open this soon after onset
DENOM_FLOOR = 0.01             # replay: denominator floor, share of the reference peak
RMSE_SLACK = 1e-9              # relative float slack when comparing RMSEs


def capacity(link_rate: float, tick_ms: float, frame_size: int) -> int:
    """Whole frames one tick can carry, each charged its inter-frame gap."""
    bits = Fraction(link_rate) * Fraction(tick_ms) / 1000
    return math.floor(bits / (8 * (frame_size + GAP_BYTES)))


def _tick_index(t_ms: float, tick_ms: float) -> int:
    return round(t_ms * 100) // round(tick_ms * 100)


def _channel_csv(sc, trace, path: Path) -> list[str]:
    """trace.csv holds one channel row and one row per node per tick,
    matching the in-memory records."""
    problems = []
    expected = []
    for rec in trace.records:
        expected.append(("*", rec.t, rec.stats.broadcast_pkts, rec.stats.total_pkts))
        expected.extend((str(s.node), rec.t, s.bcast_pkts, s.total_pkts)
                        for s in rec.samples)
    rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            got = (row["node_id"], float(row["t_ms"]), int(row["bcast_pkts"]),
                   int(row["total_pkts"]))
            want = expected[rows] if rows < len(expected) else None
            if got != want and len(problems) < 3:
                problems.append(f"trace.csv row {rows}: {got} != {want}")
            rows += 1
    if rows != len(trace.records) * (sc.node_count + 1) or rows != len(expected):
        problems.append(f"trace.csv has {rows} rows, expected "
                        f"{len(trace.records)} ticks x {sc.node_count + 1}")
    return problems


def _tickets(out: Path) -> list[dict]:
    text = (out / "tickets.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def sim_common(sc, trace, out: Path) -> list[str]:
    problems = []
    cap = capacity(sc.link_rate, sc.tick, sc.frame_size)
    ticks = round(sc.duration / sc.tick)
    if len(trace.records) != ticks:
        problems.append(f"{len(trace.records)} ticks recorded, expected {ticks}")
    for rec in trace.records:
        g, r, s, c, d = rec.ledger
        if g + r - s - c != d:
            problems.append(f"t={rec.t}: ledger {g}+{r}-{s}-{c} != {d}")
        if d > cap:
            problems.append(f"t={rec.t}: delivered {d} > capacity {cap}")
        if rec.stats.total_pkts != d:
            problems.append(f"t={rec.t}: channel total {rec.stats.total_pkts} != {d}")
        if (sum(x.total_pkts for x in rec.samples) != rec.stats.total_pkts
                or sum(x.bcast_pkts for x in rec.samples) != rec.stats.broadcast_pkts):
            problems.append(f"t={rec.t}: per-node deliveries do not sum to the channel")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    delivered = sum(rec.ledger.delivered for rec in trace.records)
    if summary["frames"]["delivered"] != delivered:
        problems.append("summary.json delivered total differs from the records")
    problems += _channel_csv(sc, trace, out / "trace.csv")
    return problems[:10]


def wide_domain_loop(sc, trace, out: Path) -> list[str]:
    loop = sc.injectors[0]
    onset = _tick_index(loop.start_t, sc.tick)
    tickets = _tickets(out)
    problems = [f"ticket at t={tk['t_ms']} before the loop's onset tick {onset}"
                for tk in tickets if _tick_index(tk["t_ms"], sc.tick) < onset]
    named = [tk for tk in tickets if tk["node"] == loop.origin_node
             and _tick_index(tk["t_ms"], sc.tick) <= onset + ONSET_SLACK_TICKS]
    if not named:
        return problems + [f"no ticket names origin {loop.origin_node} within "
                           f"{ONSET_SLACK_TICKS} ticks of onset"]
    t_k = named[0]["t_ms"]
    window = sc.agents.suppression_window
    blocked_until = (math.floor(t_k / window) + 1) * window
    for rec in trace.records:
        if t_k < rec.t < blocked_until:
            sent = sum(s.total_pkts for s in rec.samples if s.node == loop.origin_node)
            if sent:
                problems.append(f"t={rec.t}: blocked origin delivered {sent}")
    return problems


def saturated_10g(sc, trace, out: Path) -> list[str]:
    cap = capacity(sc.link_rate, sc.tick, sc.frame_size)
    problems = []
    if any(rec.ledger.suppressed for rec in trace.records):
        problems.append("detect-only agents suppressed frames")
    if not any(rec.ledger.delivered == cap for rec in trace.records):
        problems.append(f"the link never saturates at {cap} frames per tick")
    with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["node_id"] != "*":
                continue
            util = int(row["total_pkts"]) / cap
            if util > STORM_UTILIZATION and row["verdict"] != "storm":
                problems.append(f"t={row['t_ms']}: utilization {util:.3f} "
                                f"classified {row['verdict']}")
    return problems


def sparse_policing(sc, trace, out: Path) -> list[str]:
    loop = sc.injectors[0]
    window = sc.agents.suppression_window
    budget = sc.agents.thresholds.byte_threshold_mb * 1e6
    problems = []
    sent = defaultdict(int)
    for rec in trace.records:
        w = math.floor(rec.t / window)
        for s in rec.samples:
            sent[s.node, w] += s.bcast_bytes
    problems += [f"node {n} sent {b} broadcast bytes in window {w}, over {budget:g}"
                 for (n, w), b in sorted(sent.items()) if b > budget]
    ticketed = {math.floor(tk["t_ms"] / window) for tk in _tickets(out)
                if tk["cause"] == "nbw_exceeded" and tk["node"] == loop.origin_node}
    first = math.floor(loop.start_t / window)
    last = math.ceil(sc.duration / window)
    problems += [f"window {w}: the loop ran but no byte-budget ticket opened"
                 for w in range(first, last) if w not in ticketed]
    if any(trig.cause.value == "ipid_loop" for trig in trace.triggers):
        problems.append("an IPID-loop trigger fired on fresh IPIDs")
    return problems


SIM_CHECKS = {
    "wide-domain-loop": wide_domain_loop,
    "saturated-10g": saturated_10g,
    "sparse-policing": sparse_policing,
}


def check_sim(workload: str, sc, trace, out: Path) -> list[str]:
    return sim_common(sc, trace, out) + SIM_CHECKS[workload](sc, trace, out)


def _rise(points) -> list:
    counts = [c for _, c in points]
    return list(points[: counts.index(max(counts)) + 1])


def _rmse(a: float, b: float, m: float, points) -> float:
    return math.sqrt(sum((a * t + b * t * math.exp(m * t) - y) ** 2
                         for t, y in points) / len(points))


def first_breach_run(data, ref, threshold: float, consecutive: int):
    """Index of the row that completes the first run of breaching rows."""
    ref_counts = [c for _, c in ref]
    eps = DENOM_FLOOR * max(ref_counts)
    run = 0
    for i, (_, count) in enumerate(data):
        expected = ref_counts[i] if i < len(ref_counts) else 0.0
        run = run + 1 if abs(count - expected) / max(expected, eps) > threshold else 0
        if run >= consecutive:
            return i
    return None


def check_capture(cap, result, ref, threshold: float, consecutive: int) -> list[str]:
    problems = []
    rise = _rise(cap.points)
    p = cap.params
    true_rmse = _rmse(p.a, p.b, p.m, rise)
    fit = result.fit
    if fit.rmse > true_rmse * (1 + RMSE_SLACK):
        problems.append(f"fit RMSE {fit.rmse} exceeds the generating curve's {true_rmse}")
    fp = fit.params
    if fp.p_start < 0 or fp.p_end < 0:
        problems.append(f"negative fitted rate: Ps={fp.p_start} Pe={fp.p_end}")
    want = first_breach_run(cap.points, ref, threshold, consecutive)
    got = None
    if result.tickets:
        got = [t for t, _ in cap.points].index(result.tickets[0].t)
    if got != want:
        problems.append(f"replay's first ticket at row {got}, scan says {want}")
    if [(q.t, q.count) for q in result.reread] != list(cap.points):
        problems.append("trace did not round-trip exactly")
    return problems
