"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20

Each run is a separate `run.py --trace 0` process, and all four workloads
run in turn.  The spread is the distance between the first and third
quartile (`statistics.quantiles(n=4)`) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    status = 0
    for workload in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed_shares = set()
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"]:
                print(done.stdout + done.stderr)
                status = 1
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: {len(args.seeds)} seeds, failed share {sorted(failed_shares)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<30} median {statistics.median(vals):>14.6g} "
                  f"{units[name]:<8} spread {spread:.3f}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
