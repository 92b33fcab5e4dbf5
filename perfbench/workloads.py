"""Workload definitions and input generation for the netbary benchmark.

Each workload is a fixed netbary config plus a pool of instances. An
instance is one seed: it sets the config's ``seed`` (graph draws and, for
Gaussians, the data) and, for ``grid2d``, the seed of the synthetic IDX
images. The benchmark's own ``--seed`` only picks the order in which a run
visits the pool, so every instance a run can meet has its seed-commit
values recorded in ``reference.json``.

A run visits the whole pool, in whole cycles. Instances of one workload
differ in cost by up to 18% (on gauss-er: the LPs take more or fewer simplex steps), so
a run that saw only some of them would move with the seed's choice; the
pool is small enough that one cycle of the slowest workload fits in a run.

The program only ever sees the config file and the IDX files written here.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

POOL_SIZE = 4

# Run lengths. "bench" is what a timed run measures: the full configs
# shortened so that a sub-run takes a few seconds while each workload keeps
# its layer mix (the share of metrics LPs, oracle and graph work). "full" is
# the configs as first measured, with criterion 7's length on gauss-er.
# "tiny" only proves the plumbing.
LENGTHS = {
    "gauss-er": {
        "bench": {"n_iters": 1250, "record_every": 1250},
        "full": {"n_iters": 5000, "record_every": 500},
        "tiny": {"n_iters": 4, "record_every": 4},
    },
    "net-many": {
        "bench": {"n_iters": 500, "record_every": 500},
        "full": {"n_iters": 2000, "record_every": 500},
        "tiny": {"n_iters": 4, "record_every": 4},
    },
    "grid2d": {
        "bench": {"n_iters": 1000, "record_every": 1000},
        "full": {"n_iters": 2000, "record_every": 2000},
        "tiny": {"n_iters": 4, "record_every": 4},
    },
}

BASE = {
    # Acceptance criterion 7: metrics-heavy on a 1-D support.
    "gauss-er": {
        "dataset": "gaussians", "m": 10, "d": 100, "family": "erdos_renyi",
        "p": 0.9, "epoch_len": 5, "gamma": 0.01, "r": 0.001,
    },
    # Many nodes, a new graph every iteration, cheap LPs: network layer.
    "net-many": {
        "dataset": "gaussians", "m": 50, "d": 20, "family": "erdos_renyi",
        "p": 0.2, "epoch_len": 1, "gamma": 0.01, "r": 0.001,
    },
    # 2-D support from synthetic IDX digits: dense oracle and 2-D LPs.
    "grid2d": {
        "dataset": "mnist", "m": 8, "d": 196, "family": "erdos_renyi",
        "p": 0.5, "epoch_len": 10, "gamma": 0.01, "r": 0.001,
    },
}

WORKLOADS = tuple(BASE)

GRID_SIDE = 14
DIGIT = 6
# Images per label in the synthetic IDX files; more than m so that the
# program's label filter has other digits to skip.
IMAGES_PER_LABEL = 12


def instance_order(seed: int) -> list[int]:
    """Order in which a run with benchmark seed ``seed`` visits the pool."""
    return [int(k) for k in np.random.default_rng(seed).permutation(POOL_SIZE)]


def config(workload: str, instance: int, length: str, work: Path) -> dict:
    """The netbary config of one instance; writes its IDX files if needed."""
    cfg = dict(BASE[workload], **LENGTHS[workload][length], seed=instance)
    if cfg["dataset"] == "mnist":
        images, labels = work / f"images-{instance}.idx", work / f"labels-{instance}.idx"
        if not images.exists():
            write_idx(images, labels, instance)
        cfg.update(mnist_images=str(images), mnist_labels=str(labels), digit=DIGIT)
    return cfg


def write_config(cfg: dict, path: Path) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items()))


def records(n_iters: int, record_every: int) -> int:
    """Recorded iterations of a run: every record_every-th and the last."""
    return sum(1 for n in range(n_iters) if n % record_every == 0 or n == n_iters - 1)


# --------------------------------------------------------------------------
# Synthetic IDX "digits"


def _ring(rng, yy, xx):
    cy, cx = rng.uniform(0.4, 0.6, size=2) * (GRID_SIDE - 1)
    radius = rng.uniform(2.5, 4.0)
    width = rng.uniform(0.6, 1.0)
    dist = np.hypot(yy - cy, xx - cx)
    return np.exp(-((dist - radius) ** 2) / (2.0 * width**2))


def _stroke(rng, yy, xx):
    a = rng.uniform(0.15, 0.85, size=2) * (GRID_SIDE - 1)
    b = rng.uniform(0.15, 0.85, size=2) * (GRID_SIDE - 1)
    width = rng.uniform(0.5, 0.9)
    ab = b - a
    t = ((yy - a[0]) * ab[0] + (xx - a[1]) * ab[1]) / max(float(ab @ ab), 1e-9)
    t = np.clip(t, 0.0, 1.0)
    dist = np.hypot(yy - (a[0] + t * ab[0]), xx - (a[1] + t * ab[1]))
    return np.exp(-(dist**2) / (2.0 * width**2))


def synthetic_digits(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded GRID_SIDE x GRID_SIDE uint8 images with labels.

    Label DIGIT is a ring with a stroke through it; label 1 is a stroke,
    label 0 a ring. Labels are interleaved as in a real IDX file.
    """
    rng = np.random.default_rng([seed, 2])
    yy, xx = np.mgrid[0:GRID_SIDE, 0:GRID_SIDE].astype(float)
    labels = np.tile(np.array([0, DIGIT, 1], dtype=np.uint8), IMAGES_PER_LABEL)
    images = np.empty((labels.shape[0], GRID_SIDE, GRID_SIDE), dtype=np.uint8)
    for k, label in enumerate(labels):
        if label == 0:
            ink = _ring(rng, yy, xx)
        elif label == 1:
            ink = _stroke(rng, yy, xx)
        else:
            ink = np.maximum(_ring(rng, yy, xx), _stroke(rng, yy, xx))
        images[k] = np.round(255.0 * ink / ink.max()).astype(np.uint8)
    return images, labels


def write_idx(images_path: Path, labels_path: Path, seed: int) -> None:
    """IDX files as MNIST ships them: big-endian, magic 0x803 and 0x801."""
    images, labels = synthetic_digits(seed)
    n, rows, cols = images.shape
    images_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
