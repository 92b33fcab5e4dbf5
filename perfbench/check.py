"""Output checks of one netbary run and the references they compare against.

A run passes when ``metrics.csv`` is finite with the expected rows, every row
of ``histograms.npy`` lies on the simplex within SIMPLEX_TOL, Gaussian runs
of criterion 7's length stay within L1_BOUND of the analytic barycenter, and
the final objective and consensus match the values recorded on the seed
commit (``reference.json``) within REL_TOL. The comparison is not byte for
byte: a faster exact-transport path may change the last bits.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

SIMPLEX_TOL = 1e-10
# Acceptance criterion 7: every node within 0.1 in l1 of the analytic
# barycenter after 5000 iterations.
L1_BOUND = 0.1
L1_BOUND_ITERS = 5000
# Final objective and consensus against the seed commit's recorded values.
REL_TOL = 1e-6
ABS_TOL = 1e-12

CSV_HEADER = ["iteration", "objective_gap", "consensus", "wall_time"]


def reference_barycenter(cfg: dict) -> np.ndarray:
    """What a node's final histogram is measured against.

    Gaussians: the analytic barycenter (averaged mean and std), as in
    criterion 7. IDX digits have no closed form, so the reference is the
    centralized entropic barycenter of the same marginals, cost and gamma.
    """
    from netbary import harness

    if cfg["dataset"] == "gaussians":
        grid = harness.gaussian_grid(cfg["d"])
        specs = harness.draw_gaussian_specs(cfg["m"], grid, cfg["seed"])
        return harness.analytic_barycenter(specs)
    hists, cost = harness.load_mnist(
        cfg["mnist_images"], cfg["mnist_labels"], cfg["digit"], cfg["m"]
    )
    return entropic_barycenter(hists, cost, cfg["gamma"])


def entropic_barycenter(hists: np.ndarray, cost: np.ndarray, gamma: float) -> np.ndarray:
    """Equal-weight entropic barycenter by iterative Bregman projections
    (Benamou et al., SIAM J. Sci. Comput. 2015), run to a fixed point."""
    kernel = np.exp(-cost / gamma)
    v = np.ones_like(hists)
    log_b = np.zeros(hists.shape[1])
    for _ in range(100000):
        u = hists / (v @ kernel)
        ktu = u @ kernel
        new = np.log(ktu).mean(axis=0)
        v = np.exp(new) / ktu
        if not np.isfinite(v).all():
            raise ArithmeticError("Bregman projections left the floating-point range")
        done = np.abs(new - log_b).max() < 1e-12
        log_b = new
        if done:
            break
    b = np.exp(log_b)
    return b / b.sum()


def read_outputs(out: Path, cfg: dict, records: int):
    """Parsed metrics rows and final histograms, plus problems found."""
    problems = []
    with open(out / "metrics.csv", newline="") as handle:
        table = list(csv.reader(handle))
    if not table or table[0] != CSV_HEADER:
        problems.append(f"metrics.csv header {table[:1]}")
    rows = [[float(x) for x in row] for row in table[1:]]
    if len(rows) != records:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {records}")
    if not all(math.isfinite(x) for row in rows for x in row):
        problems.append("metrics.csv has non-finite values")
    hists = np.load(out / "histograms.npy")
    if hists.shape[0] != cfg["m"] or not np.isfinite(hists).all():
        problems.append(f"histograms.npy has shape {hists.shape} or non-finite values")
    else:
        drift = max(float(np.abs(hists.sum(axis=1) - 1.0).max()), float(-hists.min()))
        if drift > SIMPLEX_TOL:
            problems.append(f"histograms leave the simplex by {drift:.3e}")
    return rows, hists, problems


def check_run(out: Path, cfg: dict, records: int, ref_hist: np.ndarray, recorded: dict | None):
    """Quality values {objective_gap, consensus, max_l1_to_ref} and problems.

    ``recorded`` is the seed commit's entry for this instance, or None while
    recording it.
    """
    rows, hists, problems = read_outputs(out, cfg, records)
    if problems:
        return None, problems
    quality = {
        "objective_gap": rows[-1][1],
        "consensus": rows[-1][2],
        "max_l1_to_ref": float(np.abs(hists - ref_hist).sum(axis=1).max()),
    }
    if (
        cfg["dataset"] == "gaussians"
        and cfg["n_iters"] >= L1_BOUND_ITERS
        and quality["max_l1_to_ref"] > L1_BOUND
    ):
        problems.append(f"max_l1_to_ref {quality['max_l1_to_ref']:.4f} > {L1_BOUND}")
    if recorded is not None:
        for key in ("objective_gap", "consensus"):
            want, got = recorded[key], quality[key]
            if abs(got - want) > REL_TOL * abs(want) + ABS_TOL:
                problems.append(f"final {key} {got!r} differs from recorded {want!r}")
    return quality, problems
