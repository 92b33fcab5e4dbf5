"""Record the values that check.py compares each run against.

    python3 perfbench/record_reference.py [--lengths tiny bench full]

Runs every pool instance of every workload once per length, untraced, and
stores its final objective, consensus and worst l1 distance to the reference
barycenter in reference.json. Run it on the commit whose numbers later
commits must reproduce; a later change that alters them on purpose records
them again and says why.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lengths", nargs="+", default=["tiny", "bench", "full"])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    table = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    with run.scratch_dir("record-") as work, run.calibration(work) as pin:
        for length in args.lengths:
            for workload in workloads.WORKLOADS:
                entries, refs = {}, {}
                for instance in range(workloads.POOL_SIZE):
                    sample = run.run_instance(workload, instance, length, work, False, None, refs, pin)
                    if sample["problems"]:
                        print(f"{length} {workload} {instance}: {sample['problems']}", file=sys.stderr)
                        return 1
                    entries[str(instance)] = sample["quality"]
                    print(f"{length} {workload} {instance}: {sample['quality']}", flush=True)
                table.setdefault(length, {})[workload] = entries
                run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
