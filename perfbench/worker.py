"""One ``netbary run`` in a fresh interpreter, timed from before ``import netbary``.

    python3 worker.py SRC CONFIG OUT RESULT TRACE COUNTER CPU

Pins itself to CPU, imports netbary from SRC, calls
``netbary.cli.main(["run", "--config", CONFIG, "--out", OUT])`` and writes
a JSON result to RESULT: the exit code, the run (from before the import to
the return of ``cli.main``) and the set-up (from the same start to the
first entry into ``adom.run``) in CPU seconds and in wall seconds, the
calibration COUNTER read at the start, the solver entry and the end (see
calibrate.py), and the process's peak resident memory. With TRACE = 1 every
traced layer function is wrapped (see spans.py) and the spans go into the
result too.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

import calibrate


def cpu_seconds() -> float:
    """CPU time of this process and its finished children (git describe).

    CPU time leaves out the time the process waited for a processor, which
    on a shared host is other tenants' load, not netbary's work.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv: list[str]) -> int:
    src, config, out, result_path, trace, counter_path, cpu = argv[1:8]
    os.sched_setaffinity(0, {int(cpu)})
    counter = calibrate.Counter(Path(counter_path))
    start, cpu_start, cal_start = time.perf_counter(), cpu_seconds(), counter.read()
    import netbary
    from netbary import adom, cli

    if Path(netbary.__file__).resolve().parent != (Path(src) / "netbary").resolve():
        raise SystemExit(f"netbary imported from {netbary.__file__}, not from {src}")

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer(run_id=str(Path(out).parent.name))
        tracer.install(netbary)

    # The solver-entry timestamp is the only hook in untraced runs.
    entered: list[tuple] = []
    solve = adom.run

    def solver_entry(*args, **kwargs):
        entered.append((time.perf_counter(), cpu_seconds(), counter.read()))
        return solve(*args, **kwargs)

    adom.run = solver_entry

    code = cli.main(["run", "--config", config, "--out", out])
    end, cpu_end, cal_end = time.perf_counter(), cpu_seconds(), counter.read()

    result = {
        "code": code,
        "run_cpu_s": cpu_end - cpu_start,
        "run_wall_s": end - start,
        "setup_cpu_s": entered[0][1] - cpu_start if entered else None,
        "setup_wall_s": entered[0][0] - start if entered else None,
        "calibration": [cal_start, entered[0][2] if entered else None, cal_end],
    }
    if tracer is not None:
        result["trace"] = tracer.dump(start)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
