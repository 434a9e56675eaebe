"""One set-up, in a fresh interpreter: what a user pays before the first pass.

    python3 perfbench/setup_child.py WORKLOAD SEED

Imports `stormctl.cli`, builds the workload's inputs and calibrates a
fleet for them as `simulation.run` does (on `offline-fit`, builds the
captures and the reference).  Prints `{"import_s": ...}`.  `run.py`
times the whole interpreter, so this file imports nothing beyond what
the CLI itself loads.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, SRC)
    start = perf_counter()
    import stormctl.cli
    import_s = perf_counter() - start
    if os.path.dirname(os.path.abspath(stormctl.cli.__file__)) != os.path.join(SRC, "stormctl"):
        raise SystemExit(f"perfbench: imported stormctl from {stormctl.cli.__file__}")
    import json
    import workloads
    if workload in workloads.SIM_WORKLOADS:
        workloads.calibrated_fleet(workloads.scenario(workload, seed))
    else:
        workloads.captures(seed)
        workloads.reference()
    print(json.dumps({"import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
