"""stormctl benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the `src/` directory next
to this one.  A run builds its inputs from the seed, makes one warm-up
pass whose outputs are checked property by property, then repeats the
same pass until `--seconds` have gone.  Every later pass must reproduce
the warm-up's outputs byte for byte.

With `--trace 0` it prints the end-to-end metrics, each a median over
passes.  With `--trace 1` it alternates plain and traced passes and
prints the per-layer metrics of the traced ones, plus the tracing
overhead (traced minus plain wall time).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 21         # fresh interpreters per run; setup_s is their median
MIN_PASSES = 3            # measured passes per run, however short --seconds is
CHILD_TIMEOUT_S = 120

# Host speed on a shared virtual machine drifts by over half within minutes,
# so every time reported is scaled to a reference speed.  A fixed probe job
# runs between consecutive pieces of timed work, and each piece's time is
# multiplied by REFERENCE_PROBE_S over the mean of the probes on either side.
PROBE_ROWS = 50_000       # named tuples built, counted and sorted
REFERENCE_PROBE_S = 0.030 # the probe on an idle 2-core KVM Xeon, Python 3.11

_Row = collections.namedtuple("_Row", "key bucket weight")


def probe() -> float:
    """Host time of a fixed job shaped like the simulator's inner loop
    (build named tuples, count them into a dict, sort them).  The collector
    is off while it runs, so no object the package keeps alive can slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        rows = [_Row(i, i * 7 % 1013, i & 3) for i in range(PROBE_ROWS)]
        counts: dict[int, int] = {}
        for row in rows:
            counts[row.bucket] = counts.get(row.bucket, 0) + row.weight
        rows.sort(key=lambda row: row.bucket)
        del rows
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Scales host times to the reference speed; see REFERENCE_PROBE_S."""

    def __init__(self) -> None:
        self._last = probe()

    def timed(self, work):
        """Run work(); returns its result and the scale for its times."""
        result = work()
        now = probe()
        scale = 2 * REFERENCE_PROBE_S / (self._last + now)
        self._last = now
        return result, scale


def _use_checkout_source() -> None:
    if not (SRC / "stormctl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stormctl package under {SRC}")
    sys.path.insert(0, str(SRC))


def _check_imported_source() -> None:
    import stormctl
    if Path(stormctl.__file__).resolve().parent != SRC / "stormctl":
        raise SystemExit(f"perfbench: imported stormctl from {stormctl.__file__}")


def rss_child(workload: str, seed: int) -> dict:
    """Peak resident memory of a process that makes one pass and nothing else."""
    _check_imported_source()
    out = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        make_job(workload, seed, out).one_pass(check=False)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def child(script: str, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / script), *args]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure_setup(speed: Speed, workload: str, seed: int
                  ) -> tuple[float, float, float]:
    """Median wall time of fresh set-up interpreters (`setup_child.py`),
    scaled and raw, and the median of their scaled import times."""
    walls, raw, imports = [], [], []

    def spawn():
        start = perf_counter()
        found = child("setup_child.py", workload, str(seed))
        return perf_counter() - start, found["import_s"]

    for _ in range(SETUP_SPAWNS):
        (wall, import_s), scale = speed.timed(spawn)
        walls.append(wall * scale)
        raw.append(wall)
        imports.append(import_s * scale)
    med = statistics.median
    return med(walls), med(raw), med(imports)


class SimJob:
    """One simulator scenario per pass; one operation per pass."""

    def __init__(self, workload: str, seed: int, out: Path) -> None:
        self.workload, self.seed, self.out = workload, seed, out
        self.ops = 1

    def one_pass(self, check: bool):
        import checks
        import workloads
        sc = workloads.scenario(self.workload, self.seed)
        result, trace = workloads.sim_pass(sc, self.out)
        digest = hashlib.sha256()
        for name in workloads.ARTIFACTS:
            digest.update((self.out / name).read_bytes())
        ledgers = [r.ledger for r in trace.records]
        counts = {
            "ticks": len(trace.records),
            "frames_handled": result.units,
            "frames_delivered": sum(x.delivered for x in ledgers),
            "frames_capped": sum(x.capped for x in ledgers),
            "frames_suppressed": sum(x.suppressed for x in ledgers),
            "node_samples": sum(len(r.samples) for r in trace.records),
        }
        problems = checks.check_sim(self.workload, sc, trace, self.out) if check else []
        return result, digest.hexdigest(), counts, problems, int(bool(problems))


class OfflineJob:
    """Every seeded capture fitted, replayed and round-tripped per pass;
    one operation per capture."""

    def __init__(self, seed: int, out: Path) -> None:
        import workloads
        self.out = out
        self.caps = workloads.captures(seed)
        self.ref = workloads.reference()
        self.ops = len(self.caps)

    def one_pass(self, check: bool):
        import checks
        import workloads
        from stormctl import agents
        result, outputs = workloads.offline_pass(self.caps, self.ref, self.out)
        digest = hashlib.sha256(repr([(r.fit, [t.t for t in r.tickets], r.reread)
                                      for r in outputs]).encode())
        problems, failed = [], 0
        if check:
            config = agents.AgentConfig()
            for cap, res in zip(self.caps, outputs):
                found = checks.check_capture(cap, res, self.ref,
                                             config.deviation_threshold,
                                             config.consecutive_required)
                failed += bool(found)
                problems += found
        return result, digest.hexdigest(), {}, problems, failed


def make_job(workload: str, seed: int, out: Path):
    import workloads
    if workload in workloads.SIM_WORKLOADS:
        return SimJob(workload, seed, out)
    return OfflineJob(seed, out)


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import spans
    out = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        speed = Speed()
        setup_s, raw_setup_s, import_s = measure_setup(speed, workload, seed)
        job = make_job(workload, seed, out)
        (_, expected, _, problems, failed), _ = speed.timed(
            lambda: job.one_pass(check=True))
        attempted = job.ops
        plain, raw, traced_runs = [], [], []
        deadline = perf_counter() + seconds
        while (perf_counter() < deadline or len(plain) < MIN_PASSES
               or (traced and len(traced_runs) < MIN_PASSES)):
            if traced and len(traced_runs) < len(plain):
                with spans.Tracer() as tracer:
                    (result, digest, counts, _, _), scale = speed.timed(
                        lambda: job.one_pass(check=False))
                traced_runs.append(traced_pass(result, counts, tracer.layers, scale))
            else:
                (result, digest, _, _, _), scale = speed.timed(
                    lambda: job.one_pass(check=False))
                plain.append(result._replace(wall_s=result.wall_s * scale,
                                             core_s=result.core_s * scale))
                raw.append(result)
            attempted += job.ops
            if digest != expected:
                failed += job.ops
                problems.append("a pass did not reproduce the warm-up's outputs")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for line in problems[:20]:
        print(f"check failed: {line}")
    raw_metrics = {}
    if traced:
        metrics = layer_metrics(plain, traced_runs, import_s)
    else:
        peak = child("run.py", "--child", "rss", "--workload", workload,
                     "--seed", str(seed))["peak_rss_mb"]
        metrics = end_to_end(plain, setup_s, peak)
        raw_metrics = end_to_end(raw, raw_setup_s, peak)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, raw_metrics


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    med = statistics.median
    return {
        "wall_s": (med(p.wall_s for p in passes), "s"),
        "items_per_s": (med(p.units / p.core_s for p in passes), "1/s"),
        "sim_ms_per_s": (med(p.span_ms / p.core_s for p in passes), "ms/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


class TracedPass(NamedTuple):
    wall_s: float
    durations: dict     # layer name -> per-call times in ns, scaled
    figures: dict       # metric name -> (value, unit)


def traced_pass(result, counts: dict, layers: dict, scale: float) -> TracedPass:
    """One traced pass's per-layer figures, times scaled to reference speed."""
    def ratio(num, den):
        return num / den if den else 0.0

    figures = {}
    for name, layer in layers.items():
        figures[f"{name}_s"] = (layer.total_ns / 1e9 * scale, "s")
        figures[f"{name}_calls"] = (layer.calls, "count")
    run = layers["simulation.run"]
    handled = counts.get("frames_handled", 0)
    figures.update({
        "simulation.self_s": (run.self_ns / 1e9 * scale, "s"),
        "simulation.us_per_frame": (ratio(run.self_ns / 1e3 * scale, handled), "us"),
        "simulation.ms_per_tick": (
            ratio(run.total_ns / 1e6 * scale, counts.get("ticks", 0)), "ms"),
        **{f"simulation.{key}": (counts.get(key, 0), "count")
           for key in ("frames_handled", "frames_delivered", "frames_capped",
                       "frames_suppressed", "node_samples")},
        "simulation.delivered_ratio": (
            ratio(counts.get("frames_delivered", 0), handled), "ratio"),
        "metrics.ipid_scan_entries": (layers["metrics.ipid_scan"].amount, "count"),
        "tracefile.export_bytes": (layers["tracefile.export"].amount, "bytes"),
    })
    durations = {name: [d * scale for d in layers[name].durations]
                 for name in ("agents.observe", "growth.fit")}
    return TracedPass(result.wall_s * scale, durations, figures)


def layer_metrics(plain, traced_runs: list[TracedPass], import_s: float) -> dict:
    """Per-layer medians over traced passes; per-call times pooled over them."""
    import spans
    med = statistics.median
    metrics = {name: (med(run.figures[name][0] for run in traced_runs), unit)
               for name, (_, unit) in traced_runs[0].figures.items()}

    def pooled(name):
        return sorted(d for run in traced_runs for d in run.durations[name])

    observe = pooled("agents.observe")
    tail_pct = spans.tail_percentile(len(observe))
    fits = pooled("growth.fit")
    metrics.update({
        "agents.observe_us_p50": (
            spans.percentile(observe, 50) / 1e3 if observe else 0.0, "us"),
        "agents.observe_us_tail": (
            spans.percentile(observe, tail_pct) / 1e3 if observe else 0.0, "us"),
        "agents.observe_tail_pct": (tail_pct, "%"),
        "agents.observe_timed_calls": (len(observe), "count"),
        "growth.fit_ms_p50": (spans.percentile(fits, 50) / 1e6 if fits else 0.0, "ms"),
        "cli.import_s": (import_s, "s"),
        "tracing_overhead_s": (med(run.wall_s for run in traced_runs)
                               - med(p.wall_s for p in plain), "s"),
        "host.cpu_count": (os.cpu_count() or 0, "count"),
        "host.python_version": (sys.version_info[0] * 10000
                                + sys.version_info[1] * 100 + sys.version_info[2],
                                "version"),
    })
    return metrics


def report(workload: str, seed: int, result: dict, raw: dict) -> None:
    """Each metric on a line of its own, then the JSON result.  Beside each
    scaled end-to-end figure stands its raw, unscaled median, so that a
    shift in the speed probe shows."""
    print(f"# workload {workload}, seed {seed}: python {sys.version.split()[0]}, "
          f"{os.cpu_count()} cpus, {result['attempted']} operations attempted, "
          f"{result['failed']} failed")
    for name, (value, unit) in result["metrics"].items():
        line = f"{name:<30} {value:>16.6f} {unit}"
        if name in raw:
            line = f"{line:<56} raw {raw[name][0]:.6f}"
        print(line)
    result = dict(result, metrics={name: {"value": value, "unit": unit}
                                   for name, (value, unit) in result["metrics"].items()})
    print(json.dumps(result), flush=True)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory stays its own."""
    import workloads
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=900).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("rss",), help=argparse.SUPPRESS)
    args = parser.parse_args()
    _use_checkout_source()
    if args.child:
        print(json.dumps(rss_child(args.workload, args.seed)))
        return 0
    _check_imported_source()
    import workloads
    if args.workload not in workloads.WORKLOADS + ("all",):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        return run_all(args)
    result, raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, result, raw)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
