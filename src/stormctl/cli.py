"""Command line front end.

Four subcommands:

  model   evaluate a growth curve from explicit parameters
  fit     fit the growth curve to a recorded burst
  detect  replay a recorded trace against a reference and raise tickets
  sim     run a simulation scenario and write its artifacts

Exit status: 0 on success with nothing detected, 1 when detection or a
simulation raised at least one trouble ticket, 2 for usage or input
errors and for outputs that cannot be written.  Set
STORMCTL_LOG=debug|info|warning to see the agent log.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import agents, datasets, growth, simulation, tracefile

log = logging.getLogger("stormctl.cli")

EXIT_OK = 0
EXIT_DETECTED = 1
EXIT_USAGE = 2


def _configure_logging() -> None:
    level_name = os.environ.get("STORMCTL_LOG", "").strip().upper()
    if level_name:
        level = getattr(logging, level_name, None)
        if isinstance(level, int):
            logging.basicConfig(
                level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_points(path: Optional[str], dataset: Optional[str], flag: str):
    if (path is None) == (dataset is None):
        raise SystemExit2(f"exactly one of {flag} or its --dataset twin "
                          f"must be given")
    if dataset is not None:
        try:
            return datasets.load_trace(dataset)
        except KeyError as exc:
            raise SystemExit2(str(exc.args[0])) from exc
    try:
        return tracefile.read_trace(path)
    except OSError as exc:
        raise SystemExit2(f"cannot read trace {path}: {exc.strerror}") from exc
    except ValueError as exc:
        reason = str(exc).removeprefix(f"{path}: ")
        raise SystemExit2(f"cannot read trace {path}: {reason}") from exc


class SystemExit2(Exception):
    """Input or usage problem; maps to exit status 2."""


def _cmd_model(args: argparse.Namespace) -> int:
    try:
        params = growth.make_params(args.p_start, args.p_end, args.m)
        arr = growth.build_ptr_array(params, 0.0, args.t_end, args.step)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from exc
    points = [(arr.t_at(i), v) for i, v in enumerate(arr.values)]
    if args.out:
        tracefile.write_trace(points, args.out)
        print(f"wrote {len(points)} samples to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(tracefile.format_trace(points))
    if args.plot:
        from . import plotting      # only a chart needs it
        plotting.write_chart([("P(t)", points)], args.plot,
                             title="broadcast growth curve")
        print(f"wrote plot to {args.plot}", file=sys.stderr)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    points = _load_points(args.trace, args.dataset, "--trace")
    try:
        fit = growth.fit_model(points)
    except growth.FitError as exc:
        raise SystemExit2(f"fit failed: {exc}") from exc
    record = tracefile.params_to_dict(fit)
    print(json.dumps(record, sort_keys=True, indent=2))
    if args.out:
        tracefile.write_params(fit, args.out)
    fitted = None
    if args.model_out or args.plot:
        rise = growth.rise_segment(points)
        fitted = [(p.t, growth.eval_ptr(fit.params, p.t))
                  for p in points if p.t <= rise[-1].t]
    if args.model_out:
        tracefile.write_trace(fitted, args.model_out)
    if args.plot:
        from . import plotting
        plotting.write_chart(
            [("observed", [(p.t, p.count) for p in points]),
             ("fitted rise", fitted)],
            args.plot, title="growth fit")
        print(f"wrote plot to {args.plot}", file=sys.stderr)
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    data = _load_points(args.trace, args.dataset, "--trace")
    reference = _load_points(args.reference, args.reference_dataset,
                             "--reference")
    config = agents.AgentConfig(
        deviation_threshold=args.threshold,
        consecutive_required=args.consecutive,
    )
    try:
        tickets, breaches = agents.replay_elementwise(data, reference, config)
    except agents.CalibrationError as exc:
        raise SystemExit2(str(exc)) from exc
    for b in breaches:
        print(f"breach at t={b.t:g} ms: observed {b.observed:g} vs "
              f"expected {b.expected:g} (deviation {b.deviation:.3f})")
    for ticket in tickets:
        print(f"ticket #{ticket.ticket_id}: {ticket.cause.value} at "
              f"t={ticket.t:g} ms (deviation {ticket.observed:.3f} > "
              f"{ticket.threshold:g})")
    if args.out:
        tracefile.write_tickets(tickets, args.out)
        print(f"wrote {len(tickets)} tickets to {args.out}", file=sys.stderr)
    if not tickets:
        print("no storm detected")
        return EXIT_OK
    return EXIT_DETECTED


def _cmd_sim(args: argparse.Namespace) -> int:
    if args.scenario and args.scenario_file:
        raise SystemExit2("pass either --scenario or --scenario-file, "
                          "not both")
    try:
        if args.scenario_file:
            scenario = tracefile.read_scenario(args.scenario_file)
            if args.seed is not None:
                scenario = dataclasses.replace(scenario, seed=args.seed)
            if args.no_agents:
                scenario = dataclasses.replace(scenario, agents=None)
        else:
            scenario = simulation.preset(args.scenario or "normal",
                                         seed=args.seed,
                                         agents=not args.no_agents)
        trace = simulation.run(scenario)
    except (simulation.ScenarioError, agents.CalibrationError, OSError,
            ValueError, OverflowError) as exc:
        raise SystemExit2(str(exc)) from exc

    summary = trace.summary()
    print(json.dumps(summary, sort_keys=True, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        tracefile.write_channel_csv(trace, out / "trace.csv")
        tracefile.write_tickets(trace.tickets, out / "tickets.jsonl")
        tracefile.write_summary(summary, out / "summary.json")
        tracefile.write_scenario(scenario, out / "scenario.json")
        if args.plot:
            from . import plotting
            records = trace.records
            plotting.write_chart(
                [("broadcast pkts", [(r.t, r.stats.broadcast_pkts)
                                     for r in records]),
                 ("total pkts", [(r.t, r.stats.total_pkts)
                                 for r in records])],
                out / "trace.svg",
                title=f"scenario {scenario.name}")
        print(f"wrote artifacts to {out}", file=sys.stderr)
    return EXIT_DETECTED if trace.tickets else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stormctl",
        description="Broadcast storm modelling, detection and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="evaluate a growth curve")
    p_model.add_argument("--p-start", type=float, required=True,
                         help="initial broadcast rate (pkts per interval)")
    p_model.add_argument("--p-end", type=float, required=True,
                         help="final broadcast rate (pkts per interval)")
    p_model.add_argument("--m", type=float, required=True,
                         help="growth constant (nonzero)")
    p_model.add_argument("--t-end", type=float, default=3.0,
                         help="last sample time in ms (default 3.0)")
    p_model.add_argument("--step", type=float, default=0.1,
                         help="sample spacing in ms (default 0.1)")
    p_model.add_argument("--out", help="write the t_ms,count CSV here")
    p_model.add_argument("--plot", help="write an SVG chart here")
    p_model.set_defaults(func=_cmd_model)

    p_fit = sub.add_parser("fit", help="fit the growth curve to a burst")
    p_fit.add_argument("--trace", help="t_ms,count CSV of one burst")
    p_fit.add_argument("--dataset", choices=datasets.dataset_names(),
                       help="bundled trace instead of --trace")
    p_fit.add_argument("--out", help="write the parameter record here")
    p_fit.add_argument("--model-out",
                       help="write the fitted rise as a t_ms,count CSV")
    p_fit.add_argument("--plot", help="write an SVG chart here")
    p_fit.set_defaults(func=_cmd_fit)

    p_detect = sub.add_parser(
        "detect", help="compare a trace against a reference")
    p_detect.add_argument("--trace", help="t_ms,count CSV to examine")
    p_detect.add_argument("--dataset", choices=datasets.dataset_names(),
                          help="bundled trace instead of --trace")
    p_detect.add_argument("--reference",
                          help="t_ms,count CSV of expected traffic")
    p_detect.add_argument("--reference-dataset",
                          choices=datasets.dataset_names(),
                          help="bundled reference instead of --reference")
    defaults = agents.AgentConfig()
    p_detect.add_argument("--threshold", type=float,
                          default=defaults.deviation_threshold,
                          help="deviation threshold (default %(default)s)")
    p_detect.add_argument("--consecutive", type=int,
                          default=defaults.consecutive_required,
                          help="breaches needed to raise (default %(default)s)")
    p_detect.add_argument("--out", help="write tickets as JSON lines here")
    p_detect.set_defaults(func=_cmd_detect)

    p_sim = sub.add_parser("sim", help="run a simulation scenario")
    p_sim.add_argument("--scenario",
                       choices=sorted(simulation.scenario_presets()),
                       help="bundled scenario (default normal)")
    p_sim.add_argument("--scenario-file",
                       help="scenario JSON document instead of a preset")
    p_sim.add_argument("--seed", type=int, help="override the scenario seed")
    p_sim.add_argument("--no-agents", action="store_true",
                       help="run without monitor agents")
    p_sim.add_argument("--out", help="directory for run artifacts")
    p_sim.add_argument("--plot", action="store_true",
                       help="also write trace.svg under --out")
    p_sim.set_defaults(func=_cmd_sim)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"stormctl: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:      # reads map their own errors: this is a write
        print(f"stormctl: cannot write {exc.filename or 'output'}: "
              f"{exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
