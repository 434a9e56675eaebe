"""File formats: traces, tickets, fit parameters, scenarios, summaries.

Everything written here is deterministic: no timestamps, keys sorted,
floats rendered with repr so a read round-trips to the identical value
and identical runs produce byte-identical files.

Formats:

  * count trace   CSV `t_ms,count`, one burst sample per row;
  * channel trace CSV with one `*` row per tick for the shared channel
    followed by one row per node (node rows leave the channel-only
    columns empty);
  * tickets       JSON lines, one trouble ticket per line;
  * parameters    JSON record of a fitted growth curve;
  * scenario      versioned JSON document for the simulator;
  * summary       JSON rollup of a simulation run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .agents import AgentConfig, Policy, ThresholdDb, TriggerCause, TroubleTicket
from .growth import FitResult, PtrModelParams, TracePoint
from .simulation import Injector, NormalBroadcastProfile, Scenario, SimTrace

PathLike = Union[str, Path]

CHANNEL_NODE = "*"
CHANNEL_HEADER = (
    "t_ms", "node_id", "bcast_pkts", "total_pkts", "bcast_bytes",
    "total_bytes", "ipg_ns", "utilization", "verdict", "stage",
)
SCENARIO_SCHEMA = 1


def _write_text(path: PathLike, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


# -- count traces --------------------------------------------------------


def format_trace(points: Iterable) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("t_ms", "count"))
    for t, count in points:
        writer.writerow((repr(float(t)), repr(float(count))))
    return out.getvalue()


def write_trace(points: Iterable, path: PathLike) -> None:
    _write_text(path, format_trace(points))


def read_trace(path: PathLike) -> list[TracePoint]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "t_ms" not in reader.fieldnames \
                or "count" not in reader.fieldnames:
            raise ValueError(f"{path}: expected a t_ms,count header")
        points = [TracePoint(float(row["t_ms"]), float(row["count"]))
                  for row in reader]
    for row, point in enumerate(points, start=1):
        if not all(map(math.isfinite, point)):
            raise ValueError(f"{path}: row {row}: t_ms and count must be "
                             f"finite")
    return points


# -- channel traces ------------------------------------------------------


def format_channel_csv(trace: SimTrace) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CHANNEL_HEADER)
    # a node row is the tick's time and a suffix; a node that delivered
    # nothing has the same suffix in every tick, formatted once
    idle = [f",{n},0,0,0,0,,,,\n" for n in range(trace.scenario.node_count)]
    for rec in trace.records:
        stats = rec.stats
        writer.writerow((
            repr(rec.t), CHANNEL_NODE, stats.broadcast_pkts, stats.total_pkts,
            stats.broadcast_bytes, stats.total_bytes, repr(stats.observed_ipg),
            repr(rec.classification.utilization),
            rec.classification.verdict.value, rec.classification.stage.value,
        ))
        t = repr(rec.t)     # every tick has a row per node, at least two
        out.write(t + t.join([
            f",{s.node},{s.bcast_pkts},{s.total_pkts},{s.bcast_bytes},"
            f"{s.total_bytes},,,,\n" if s.total_pkts else idle[s.node]
            for s in rec.samples]))
    return out.getvalue()


def write_channel_csv(trace: SimTrace, path: PathLike) -> None:
    _write_text(path, format_channel_csv(trace))


def read_channel_csv(path: PathLike) -> list[dict]:
    """Rows as dicts; numeric fields parsed, node_id left as written."""
    numeric = ("t_ms", "bcast_pkts", "total_pkts", "bcast_bytes",
               "total_bytes", "ipg_ns", "utilization")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            parsed = dict(row)
            for key in numeric:
                parsed[key] = float(row[key]) if row[key] else None
            rows.append(parsed)
    return rows


def channel_broadcast_trace(trace: SimTrace) -> list[TracePoint]:
    """Per-tick channel broadcast counts as a count trace."""
    return [TracePoint(rec.t, float(rec.stats.broadcast_pkts))
            for rec in trace.records]


# -- tickets ---------------------------------------------------------------


def ticket_to_dict(ticket: TroubleTicket) -> dict:
    return {
        "ticket_id": ticket.ticket_id,
        "node": ticket.node,
        "t_ms": ticket.t,
        "cause": ticket.cause.value,
        "observed": ticket.observed,
        "threshold": ticket.threshold,
    }


def ticket_from_dict(record: dict) -> TroubleTicket:
    return TroubleTicket(
        ticket_id=int(record["ticket_id"]),
        node=int(record["node"]),
        t=float(record["t_ms"]),
        cause=TriggerCause(record["cause"]),
        observed=float(record["observed"]),
        threshold=float(record["threshold"]),
    )


def format_tickets(tickets: Sequence[TroubleTicket]) -> str:
    return "".join(json.dumps(ticket_to_dict(t), sort_keys=True) + "\n"
                   for t in tickets)


def write_tickets(tickets: Sequence[TroubleTicket], path: PathLike) -> None:
    _write_text(path, format_tickets(tickets))


def read_tickets(path: PathLike) -> list[TroubleTicket]:
    text = Path(path).read_text(encoding="utf-8")
    return [ticket_from_dict(json.loads(line))
            for line in text.splitlines() if line.strip()]


# -- fit parameters ----------------------------------------------------------


def params_to_dict(fit: FitResult) -> dict:
    p = fit.params
    return {"p_start": p.p_start, "p_end": p.p_end, "m": p.m,
            "a": p.a, "b": p.b, "rmse": fit.rmse}


def write_params(fit: FitResult, path: PathLike) -> None:
    _write_text(path, json.dumps(params_to_dict(fit), sort_keys=True,
                                 indent=2) + "\n")


def read_params(path: PathLike) -> FitResult:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    params = PtrModelParams(p_start=float(record["p_start"]),
                            p_end=float(record["p_end"]),
                            m=float(record["m"]))
    return FitResult(params=params, rmse=float(record["rmse"]))


# -- summaries ---------------------------------------------------------------


def write_summary(summary: dict, path: PathLike) -> None:
    _write_text(path, json.dumps(summary, sort_keys=True, indent=2) + "\n")


# -- scenarios ----------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    def profile(g: Optional[NormalBroadcastProfile]) -> Optional[dict]:
        if g is None:
            return None
        return {
            "burst_period": g.burst_period,
            "jitter": g.jitter,
            "unicast_fraction": g.unicast_fraction,
            "broadcast_peak_fraction": g.broadcast_peak_fraction,
            "burst_scale": g.burst_scale,
            "shape": [[t, c] for t, c in g.shape],
        }

    def injector(inj: Injector) -> dict:
        return {
            "kind": inj.kind, "start_t": inj.start_t, "end_t": inj.end_t,
            "origin_node": inj.origin_node, "rate": inj.rate,
            "pass_interval": inj.pass_interval, "factor": inj.factor,
            "reuse_ipid": inj.reuse_ipid,
        }

    def agents(cfg: Optional[AgentConfig]) -> Optional[dict]:
        if cfg is None:
            return None
        th = cfg.thresholds
        return {
            "sample_period": cfg.sample_period,
            "deviation_threshold": cfg.deviation_threshold,
            "consecutive_required": cfg.consecutive_required,
            "suppression_window": cfg.suppression_window,
            "policy": cfg.policy.value if cfg.policy else None,
            "thresholds": {
                "pe": th.pe, "ipg_floor_ns": th.ipg_floor_ns,
                "utilization_max": th.utilization_max,
                "nbw_permissible": th.nbw_permissible,
                "nbw_factor": th.nbw_factor,
                "nbw_window_ticks": th.nbw_window_ticks,
                "byte_threshold_mb": th.byte_threshold_mb,
                "ipid_min_repeats": th.ipid_min_repeats,
                "ipid_window_ms": th.ipid_window_ms,
            },
        }

    return {
        "schema": SCENARIO_SCHEMA,
        "name": scenario.name,
        "node_count": scenario.node_count,
        "link_rate": scenario.link_rate,
        "tick": scenario.tick,
        "duration": scenario.duration,
        "seed": scenario.seed,
        "frame_size": scenario.frame_size,
        "generator": profile(scenario.generator),
        "injectors": [injector(i) for i in scenario.injectors],
        "agents": agents(scenario.agents),
    }


def scenario_from_dict(doc: dict) -> Scenario:
    schema = doc.get("schema")
    if schema != SCENARIO_SCHEMA:
        raise ValueError(f"unsupported scenario schema {schema!r}; "
                         f"expected {SCENARIO_SCHEMA}")

    generator = None
    if doc.get("generator") is not None:
        g = doc["generator"]
        generator = NormalBroadcastProfile(
            burst_period=float(g["burst_period"]),
            shape=tuple(TracePoint(float(t), float(c))
                        for t, c in g["shape"]),
            jitter=float(g["jitter"]),
            unicast_fraction=float(g["unicast_fraction"]),
            broadcast_peak_fraction=float(g["broadcast_peak_fraction"]),
            burst_scale=(None if g.get("burst_scale") is None
                         else float(g["burst_scale"])),
        )
    injectors = tuple(
        Injector(
            kind=i["kind"],
            start_t=float(i.get("start_t", 0.0)),
            end_t=None if i.get("end_t") is None else float(i["end_t"]),
            origin_node=int(i.get("origin_node", 0)),
            rate=float(i.get("rate", 1.0)),
            pass_interval=float(i.get("pass_interval", 0.2)),
            factor=int(i.get("factor", 2)),
            reuse_ipid=bool(i.get("reuse_ipid", True)),
        )
        for i in doc.get("injectors", ())
    )
    agents = None
    if doc.get("agents") is not None:
        a = doc["agents"]
        th = a.get("thresholds", {})
        agents = AgentConfig(
            sample_period=float(a.get("sample_period", 1.0)),
            deviation_threshold=float(a.get("deviation_threshold", 0.05)),
            consecutive_required=int(a.get("consecutive_required", 3)),
            suppression_window=float(a.get("suppression_window", 1000.0)),
            policy=(None if a.get("policy") is None
                    else Policy(a["policy"])),
            thresholds=ThresholdDb(
                pe=None if th.get("pe") is None else float(th["pe"]),
                ipg_floor_ns=(None if th.get("ipg_floor_ns") is None
                              else float(th["ipg_floor_ns"])),
                utilization_max=float(th.get("utilization_max", 0.60)),
                nbw_permissible=(None if th.get("nbw_permissible") is None
                                 else float(th["nbw_permissible"])),
                nbw_factor=float(th.get("nbw_factor", 2.0)),
                nbw_window_ticks=int(th.get("nbw_window_ticks", 10)),
                byte_threshold_mb=(None if th.get("byte_threshold_mb") is None
                                   else float(th["byte_threshold_mb"])),
                ipid_min_repeats=int(th.get("ipid_min_repeats", 3)),
                ipid_window_ms=float(th.get("ipid_window_ms", 100.0)),
            ),
        )
    return Scenario(
        name=str(doc.get("name", "custom")),
        node_count=int(doc["node_count"]),
        link_rate=float(doc["link_rate"]),
        tick=float(doc.get("tick", 1.0)),
        duration=float(doc["duration"]),
        seed=int(doc.get("seed", 0)),
        frame_size=int(doc.get("frame_size", 512)),
        generator=generator,
        injectors=injectors,
        agents=agents,
    )


def write_scenario(scenario: Scenario, path: PathLike) -> None:
    _write_text(path, json.dumps(scenario_to_dict(scenario), sort_keys=True,
                                 indent=2) + "\n")


def read_scenario(path: PathLike) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
