"""Write perfbench/pinned.json from one pass of every workload on this tree.

    python3 perfbench/pin.py

The pins are the reference every later run is checked against: the SHA-256
of each `latstab audit` report and every library result of exact-search and
structure-large (values, status, witnesses, expected CapacityErrors).  Re-pin
only in a change whose purpose is to alter those outputs, and say so.
"""

import json
import sys
import time

import run
from workloads import WORKLOADS


def main():
    run.WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + 600
    pins = {}
    for workload in WORKLOADS:
        p = run.PASSES[workload](0, False, deadline)
        if p.failures:
            raise SystemExit(f"{workload}: {len(p.failures)} failures, first "
                             f"{next(iter(p.failures.items()))}")
        missing = set(run.expected_jobs(workload)) - set(p.outputs)
        if missing:
            raise SystemExit(f"{workload}: no output for {sorted(missing)}")
        pins[workload] = {job: p.outputs[job] for job in run.expected_jobs(workload)}
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
