"""netbary benchmark: time to a barycenter, end to end and per layer.

    python3 perfbench/run.py --workload gauss-er --seed 1 --seconds 42 --trace 0

Load model: closed loop, one client. For ``--seconds`` the benchmark starts
``netbary run`` sub-runs one after another, each in a fresh interpreter
(worker.py) with BLAS pinned to one thread, in whole cycles over the
workload's instance pool in an order set by ``--seed``. It checks every
sub-run's outputs (check.py) and prints one line per metric with its unit
and sample count, a provenance line, and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over sub-runs). The
two times are CPU seconds of the sub-run's process scaled to a reference
processor speed that a calibration loop beside the sub-run measures
(calibrate.py), so that other tenants of a shared host do not show up as
netbary's work. The unscaled CPU and wall times are printed beside them as
``cpu.*`` and ``wall.*``.
``--trace 1`` alternates traced and untraced sub-runs and reports the
per-layer metrics of the traced ones (spans.py), plus the tracing overhead.
``--workload all`` runs every workload in turn. The program is imported from
``src/`` next to this directory; without it the benchmark exits with 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
SUBRUN_TIMEOUT_S = 120
CALIBRATION_START_S = 30
# Printed with the metrics but not part of the result.
INFO_PREFIXES = ("raw.", "cpu.", "wall.", "host.")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_consensus_rel": "ratio",
    "max_l1_to_ref_rel": "ratio",
}


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    # Users run netbary from cached bytecode; warm_up() fills the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def warm_up() -> bool:
    """Import netbary once, untimed, so every sub-run finds its bytecode."""
    proc = subprocess.run(
        [sys.executable, "-c", "import netbary"], env=worker_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=SUBRUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    return proc.returncode == 0


def run_instance(workload, instance, length, work, traced, recorded, refs, pin):
    """One sub-run: config, worker process, output check. Returns a sample.

    ``pin`` is the calibration counter's path and the CPU that the worker
    shares with the calibration loop.
    """
    cfg = workloads.config(workload, instance, length, work)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{instance}-", dir=work))
    config_path, out, result_path = run_dir / "run.cfg", run_dir / "out", run_dir / "result.json"
    workloads.write_config(cfg, config_path)
    sample = {"instance": instance, "traced": traced, "problems": []}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(SRC), str(config_path),
             str(out), str(result_path), "1" if traced else "0", str(pin[0]), str(pin[1])],
            env=worker_env(), cwd=run_dir, capture_output=True, text=True,
            timeout=SUBRUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sample["problems"].append(f"timed out after {SUBRUN_TIMEOUT_S} s")
        return sample
    if proc.returncode != 0 or not result_path.exists():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        sample["problems"].append(f"worker exited {proc.returncode}: {' | '.join(tail)}")
        return sample
    sample.update(json.loads(result_path.read_text()))
    begin, entry, end = sample.pop("calibration")
    speed = calibrate.speed(begin, end)
    if speed is None:
        sample["problems"].append("the calibration loop got no processor time")
        return sample
    sample["speed"] = speed
    sample["run_s"] = sample["run_cpu_s"] * speed
    if sample["setup_cpu_s"] is not None:
        # A set-up too short for one calibration round takes the run's speed.
        sample["setup_s"] = sample["setup_cpu_s"] * (calibrate.speed(begin, entry) or speed)
    records = workloads.records(cfg["n_iters"], cfg["record_every"])
    if instance not in refs:
        refs[instance] = check.reference_barycenter(cfg)
    try:
        quality, problems = check.check_run(out, cfg, records, refs[instance], recorded)
    except (OSError, ValueError) as err:
        quality, problems = None, [f"unreadable outputs: {err}"]
    sample["problems"] += problems
    if quality is not None:
        sample["quality"] = quality
        if recorded is not None:
            sample["final_consensus_rel"] = quality["consensus"] / recorded["consensus"]
            sample["max_l1_to_ref_rel"] = quality["max_l1_to_ref"] / recorded["max_l1_to_ref"]
    if traced:
        metrics = spans.layer_metrics(sample.pop("trace"), cfg["n_iters"])
        # Every workload's family is redrawn per epoch, so spectral_bounds
        # builds one graph per epoch of the horizon.
        epochs = -(-cfg["n_iters"] // cfg["epoch_len"])
        sample["problems"] += spans.count_failures(metrics, cfg, records, epochs)
        sample["layers"] = metrics
    shutil.rmtree(run_dir)
    return sample


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under WORK, removed with WORK itself when empty."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


@contextlib.contextmanager
def calibration(work: Path):
    """The calibration loop, running until the block ends; yields the pin.

    The loop and every sub-run share the last CPU this process may use.
    """
    counter_path, cpu = work / "calibration", max(os.sched_getaffinity(0))
    calibrate.create(counter_path)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "calibrate.py"), str(counter_path), str(cpu)],
        env=worker_env(), cwd=work,
    )
    try:
        counter, deadline = calibrate.Counter(counter_path), time.perf_counter() + CALIBRATION_START_S
        while counter.read()[0] == 0:
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"the calibration loop did not start (exit code {proc.poll()})")
            time.sleep(0.01)
        yield counter_path, cpu
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def measure(workload, seed, seconds, trace, length):
    """Whole cycles over the instance pool while the next one fits in ``seconds``.

    Always at least one cycle. Traced, every instance runs traced and then
    untraced, so that the tracing overhead compares the same instances.
    """
    recorded = json.loads(REFERENCE.read_text())[length][workload]
    visits = [(instance, traced) for instance in workloads.instance_order(seed)
              for traced in ((True, False) if trace else (False,))]
    refs: dict = {}
    samples, took = [], []
    start = time.perf_counter()
    with scratch_dir(f"{workload}-") as work, calibration(work) as pin:
        while True:
            began = time.perf_counter()
            for instance, traced in visits:
                sample = run_instance(workload, instance, length, work, traced,
                                      recorded[str(instance)], refs, pin)
                samples.append(sample)
                if sample["problems"] and "run_s" not in sample:
                    return samples
            took.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(took) > seconds:
                return samples


def summarize(samples, trace):
    """Metric medians {name: (value, unit, n)} and failure counts."""
    ok = [s for s in samples if not s["problems"]]
    timed = [s for s in ok if not s["traced"]]
    metrics = {}

    def add(name, values, unit):
        if values:
            metrics[name] = (statistics.median(values), unit, len(values))

    if trace:
        traced = [s for s in ok if s["traced"]]
        for name, (_, unit) in (traced[0]["layers"].items() if traced else ()):
            add(name, [s["layers"][name][0] for s in traced], unit)
        if traced and timed:
            overhead = (
                statistics.median(s["run_s"] for s in traced)
                / statistics.median(s["run_s"] for s in timed) - 1.0
            )
            metrics["trace.overhead"] = (overhead, "ratio", len(traced) + len(timed))
    else:
        for name in ("run_s", "setup_s", "peak_rss_mb"):
            add(name, [s[name] for s in timed], END_TO_END[name])
        for name in ("run_s", "setup_s"):
            for clock in ("cpu", "wall"):
                add(f"{clock}.{name}", [s[name.replace("_s", f"_{clock}_s")] for s in timed], "s")
        add("host.speed", [s["speed"] for s in timed], "1")
        for name in ("final_consensus_rel", "max_l1_to_ref_rel"):
            add(name, [s[name] for s in ok], END_TO_END[name])
        for key, unit in (("consensus", "1"), ("max_l1_to_ref", "1")):
            add(f"raw.{key}", [s["quality"][key] for s in ok], unit)
    return metrics, len(samples), len(samples) - len(ok)


def provenance(load_before) -> dict:
    import numpy
    import scipy
    from netbary import harness

    return {
        "git": harness.git_describe(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--length", choices=["bench", "tiny", "full"], default="bench")
    args = parser.parse_args(argv)
    if not (SRC / "netbary" / "__init__.py").is_file() or not warm_up():
        print(f"error: cannot import netbary from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    load_before = list(os.getloadavg())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        samples = measure(workload, args.seed, args.seconds, bool(args.trace), args.length)
        metrics, attempted, failed = summarize(samples, bool(args.trace))
        for k, s in enumerate(samples):
            times = " ".join(
                f"{key}={s[key]:.4f}"
                for key in ("run_s", "setup_s", "run_cpu_s", "run_wall_s", "speed") if s.get(key)
            )
            print(f"{workload} sub-run {k}: instance {s['instance']} traced={s['traced']} {times}")
            for problem in s["problems"]:
                print(f"{workload} FAILED instance {s['instance']}: {problem}")
        print(f"{workload} failed_frac = {failed / attempted!r} ({failed} of {attempted} sub-runs)")
        for name, (value, unit, n) in metrics.items():
            print(f"{workload} {name} = {value!r} {unit} (median of n={n})")
            if not name.startswith(INFO_PREFIXES):
                key = name if len(names) == 1 else f"{workload}/{name}"
                report["metrics"][key] = {"value": value, "unit": unit}
        missing = not args.trace and any(name not in metrics for name in END_TO_END)
        report["correct"] &= failed == 0 and not missing
        report["attempted"] += attempted
        report["failed"] += failed
    print("provenance " + json.dumps(provenance(load_before), sort_keys=True))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
