"""Experiment harness: datasets, metrics, orchestration, persistence.

A run is described by a flat config (file of ``key = value`` lines or a
dict), builds its dataset and network schedule, derives solver parameters
from the schedule's spectral bounds, runs the solver, and persists three
artifacts into the output directory:

* ``metrics.csv`` with header ``iteration,objective_gap,consensus,wall_time``
* ``manifest.json`` holding the full config, derived parameters, spectral
  bounds, package version, and a git description of the build
* ``histograms.npy`` with the final per-node barycenter estimates

Runs are deterministic given the config: by default the wall_time column is
written as 0.0 so replaying a manifest reproduces the CSV byte for byte;
set ``measure_walltime = true`` to record solver seconds instead (at the
cost of replayability of that column).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import subprocess
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import adom, entot, netgraph

__all__ = [
    "DELTA_DEFAULT",
    "DATASETS",
    "CONFIG_TYPES",
    "SCHEDULE_KEYS",
    "GaussianSpec",
    "ExperimentConfig",
    "MetricsRow",
    "ExperimentResult",
    "IdxFormatError",
    "gaussian_grid",
    "gen_truncated_gaussian",
    "analytic_barycenter",
    "draw_gaussian_specs",
    "load_mnist",
    "config_value",
    "load_config",
    "run_inputs",
    "run_experiment",
]

DELTA_DEFAULT = 1e-6

DATASETS = ("gaussians", "mnist")

CSV_COLUMNS = ["iteration", "objective_gap", "consensus", "wall_time"]

# Draw ranges of the synthetic Gaussian dataset, on the unit grid. These are
# this harness's own choice; wider bells keep the entropic blur small
# relative to the bell width at the default gamma.
MEAN_RANGE_DEFAULT = (0.35, 0.65)
STD_RANGE_DEFAULT = (0.15, 0.25)


class IdxFormatError(ValueError):
    """An IDX file violates the format contract."""


@dataclass(frozen=True)
class GaussianSpec:
    """A truncated Gaussian on a fixed support grid."""

    mean: float
    std: float
    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.shape[0] < 2:
            raise ValueError(f"grid must be 1-d with >= 2 points, got {grid.shape}")
        if not np.isfinite(grid).all():
            raise ValueError("grid has non-finite entries")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        adom._positive_finite("std", self.std)
        object.__setattr__(self, "grid", grid)


def gaussian_grid(d: int) -> np.ndarray:
    """Uniform support grid of d points on [0, 1]."""
    d = netgraph._integer("d", d, 2)
    return np.linspace(0.0, 1.0, d)


def gen_truncated_gaussian(spec: GaussianSpec, delta: float = DELTA_DEFAULT) -> np.ndarray:
    """Gaussian density sampled on the grid, normalized, then floored."""
    density = np.exp(-((spec.grid - spec.mean) ** 2) / (2.0 * spec.std**2))
    total = density.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("degenerate density: grid too far from the mean")
    return entot.floor_histogram(density / total, delta)


def analytic_barycenter(specs, delta: float = DELTA_DEFAULT) -> np.ndarray:
    """Reference barycenter of Gaussians: average mean, average std.

    All specs must share the same grid; for non-truncated Gaussians the
    squared-Euclidean barycenter is exactly the Gaussian with the averaged
    parameters, and on a grid wide enough for truncation to be negligible
    this discretization inherits that.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one spec")
    grid = specs[0].grid
    for sp in specs[1:]:
        if sp.grid.shape != grid.shape or not np.array_equal(sp.grid, grid):
            raise ValueError("specs must share one support grid")
    mean = sum(sp.mean for sp in specs) / len(specs)
    std = sum(sp.std for sp in specs) / len(specs)
    return gen_truncated_gaussian(GaussianSpec(mean=mean, std=std, grid=grid), delta)


def draw_gaussian_specs(
    m: int,
    grid: np.ndarray,
    seed: int,
    mean_range: tuple[float, float] = MEAN_RANGE_DEFAULT,
    std_range: tuple[float, float] = STD_RANGE_DEFAULT,
) -> list[GaussianSpec]:
    """Seeded uniform draws of means and stds (dataset stream 1; the
    network schedule draws from stream 0 of the same root seed)."""
    m = netgraph._integer("m", m, 1)
    rng = np.random.default_rng([seed, 1])
    means = rng.uniform(mean_range[0], mean_range[1], size=m)
    stds = rng.uniform(std_range[0], std_range[1], size=m)
    return [GaussianSpec(mean=float(mu), std=float(s), grid=grid) for mu, s in zip(means, stds)]


def _read_exact(handle, count: int, path: str, what: str) -> bytes:
    # At most 64 MiB per read: a header may claim more bytes than read() can
    # be asked for, and a pipe has no size to compare the claim with.
    data = b""
    while len(data) < count:
        chunk = handle.read(min(count - len(data), 1 << 26))
        if not chunk:
            raise IdxFormatError(
                f"{path}: truncated while reading {what}: needed {count} bytes, got {len(data)}"
            )
        data += chunk
    return data


def _read_idx(path: str | Path, ndim: int, what: str) -> np.ndarray:
    """An unsigned-byte IDX tensor of ``ndim`` dimensions (magic 0x0000080N,
    N = ndim), the first dimension counting ``what``."""
    path = str(path)
    expected = 0x00000800 + ndim
    with open(path, "rb") as handle:
        magic = struct.unpack(">I", _read_exact(handle, 4, path, "magic"))[0]
        if magic != expected:
            raise IdxFormatError(
                f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{expected:08x}"
            )
        shape = struct.unpack(f">{ndim}I", _read_exact(handle, 4 * ndim, path, "header"))
        body = _read_exact(handle, math.prod(shape), path, f"{shape[0]} {what}")
    return np.frombuffer(body, dtype=np.uint8).reshape(shape)


def load_mnist(
    images_path: str | Path,
    labels_path: str | Path,
    digit: int,
    count: int,
    delta: float = DELTA_DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` images of ``digit`` as floored histograms, plus the
    normalized squared-Euclidean cost over the pixel grid.

    The files use the IDX encoding: big-endian, magic 0x00000803 for image
    tensors and 0x00000801 for label vectors. A ``count`` that is not an
    integer >= 1 raises ValueError.
    """
    count = netgraph._integer("count", count, 1)
    images = _read_idx(images_path, 3, "images")
    labels = _read_idx(labels_path, 1, "labels")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"{images_path} holds {images.shape[0]} images but {labels_path} "
            f"holds {labels.shape[0]} labels"
        )
    picked = images[labels == digit]
    if picked.shape[0] < count:
        raise ValueError(
            f"requested {count} images of digit {digit}, found only {picked.shape[0]}"
        )
    picked = picked[:count].astype(float)
    flat = picked.reshape(count, -1)
    sums = flat.sum(axis=1)
    if (sums <= 0).any():
        # An all-zero image carries no mass; flooring alone defines it.
        flat = np.where(sums[:, None] > 0, flat, 1.0)
        sums = flat.sum(axis=1)
    hists = np.stack(
        [entot.floor_histogram(row / total, delta) for row, total in zip(flat, sums)]
    )
    return hists, entot.GridCost(images.shape[1], images.shape[2]).dense


# --------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings.

    Each field is one config key: a ``key = value`` line of a config file
    and a ``--key`` flag of ``netbary run`` and ``sweep`` (underscores
    become dashes). The field's annotation sets how a text value is read;
    its metadata holds the flag's help and choices.
    """

    dataset: str = field(default="gaussians", metadata={"choices": DATASETS})
    m: int = field(default=10, metadata={"help": "node count"})
    d: int = field(default=100, metadata={"help": "support size"})
    family: str = field(default="cycle", metadata={"choices": netgraph.FAMILIES})
    p: float = field(default=0.9, metadata={"help": "edge probability"})
    epoch_len: int | None = field(
        default=None, metadata={"help": "iterations per topology epoch, or 'static'"}
    )
    seed: int = 0
    gamma: float = 0.01
    r: float = 0.001
    n_iters: int = 1000
    record_every: int = 100
    delta: float = DELTA_DEFAULT
    mnist_images: str | None = None
    mnist_labels: str | None = None
    digit: int = 4
    measure_walltime: bool = False
    out: str | None = field(default=None, metadata={"help": "output directory"})

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be 'gaussians' or 'mnist', got {self.dataset!r}")
        if self.dataset == "mnist" and (self.mnist_images is None or self.mnist_labels is None):
            raise ValueError("mnist dataset needs mnist_images and mnist_labels paths")
        # Path("") is the working directory, not a directory the run names.
        if self.out == "":
            raise ValueError("out must name a directory, got ''")
        for name in ("n_iters", "record_every"):
            object.__setattr__(self, name, netgraph._integer(name, getattr(self, name), 1))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Config from raw values, text or typed; a None value keeps the
        key's default."""
        for key in raw:
            if key not in CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
        return cls(**{k: config_value(k, v) for k, v in raw.items() if v is not None})

    def to_dict(self) -> dict:
        return asdict(self)

    def schedule(self) -> netgraph.NetworkSchedule:
        """The run's network schedule, from the keys :data:`SCHEDULE_KEYS`.

        It is built once per config object and keeps the epochs it draws,
        so a run of this config draws none of those that
        :func:`run_inputs` drew on it."""
        if "_schedule" not in self.__dict__:
            values = {key: getattr(self, key) for key in SCHEDULE_KEYS}
            object.__setattr__(self, "_schedule", netgraph.NetworkSchedule(**values))
        return self.__dict__["_schedule"]


def _value_type(hint) -> tuple[type, bool]:
    """(type, may be None) of a field annotation such as ``int | None``."""
    args = typing.get_args(hint) or (hint,)
    return next(a for a in args if a is not type(None)), type(None) in args


# Value type of each config key, and whether it may be None, read from
# ExperimentConfig's annotations.
CONFIG_TYPES = {
    name: _value_type(hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}

# The config keys of a run's network schedule: NetworkSchedule's init fields.
SCHEDULE_KEYS = tuple(f.name for f in fields(netgraph.NetworkSchedule) if f.init)


def config_value(key: str, value):
    """Read a raw config value, text or typed, as the type of ``key``.

    Booleans read true/1/yes and false/0/no. An integer key that may be None
    (epoch_len) reads 'static', 'none' and 'inf' as None. An integer key
    rejects a float with a fractional part, as it rejects the text '5.5'. A
    float key rejects nan and infinities, text or typed, naming the key.
    """
    if value is None:
        return None
    kind, nullable = CONFIG_TYPES[key]
    if kind is bool:
        if isinstance(value, str):
            lowered = value.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"cannot parse boolean {key}={value!r}")
        return bool(value)
    if kind is int and nullable and isinstance(value, str):
        if value.lower() in ("static", "none", "inf"):
            return None
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"cannot parse int {key}={value!r}")
    try:
        parsed = kind(value)
    except ValueError as err:
        raise ValueError(f"cannot parse {kind.__name__} {key}={value!r}") from err
    if kind is float and not math.isfinite(parsed):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return parsed


def load_config(path: str | Path) -> dict:
    """Parse a flat ``key = value`` config file; '#' starts a comment. A key
    set on two lines is an error naming both."""
    raw: dict = {}
    set_on: dict = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        raw[key] = value
    return raw


# --------------------------------------------------------------------------
# Running experiments


@dataclass(frozen=True)
class MetricsRow:
    iteration: int
    objective_gap: float
    consensus: float
    wall_time: float


@dataclass(frozen=True)
class ExperimentResult:
    rows: list[MetricsRow]
    histograms: np.ndarray
    manifest: dict
    out_dir: Path | None


def git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _build_dataset(cfg: ExperimentConfig):
    """Returns (marginals, cost, reference) where reference is the analytic
    barycenter for Gaussian runs and None otherwise. The cost of a Gaussian
    run is a d x d matrix over its line; that of an IDX run is the
    :class:`entot.GridCost` of the images' pixel raster."""
    if cfg.dataset == "gaussians":
        grid = gaussian_grid(cfg.d)
        specs = draw_gaussian_specs(cfg.m, grid, cfg.seed)
        marginals = np.stack([gen_truncated_gaussian(sp, cfg.delta) for sp in specs])
        cost = entot.cost_matrix(grid)
        reference = analytic_barycenter(specs, cfg.delta)
        return marginals, cost, reference
    for path in (cfg.mnist_images, cfg.mnist_labels):
        if not Path(path).exists():
            raise FileNotFoundError(f"mnist file not found: {path}")
    marginals, dense = load_mnist(
        cfg.mnist_images, cfg.mnist_labels, cfg.digit, cfg.m, cfg.delta
    )
    return marginals, entot.GridCost(*_raster_shape(dense)), None


def _raster_shape(dense: np.ndarray) -> tuple[int, int]:
    """(rows, cols) of the images whose cost :func:`load_mnist` returned.

    The images were read once, so a pipe works; their shape is read back
    from the cost. In row-major order pixel 1 and pixel cols, the first of
    the second row, are the nearest to pixel 0, and the pixels between them
    are farther. A single row or column gives (1, d): the same cost.
    """
    nearest = np.flatnonzero(dense[0] == dense[0, 1])
    cols = int(nearest[1]) if nearest.size > 1 else dense.shape[0]
    return dense.shape[0] // cols, cols


def _objective(
    marginals: np.ndarray, cost: np.ndarray | entot.GridCost, estimates: np.ndarray
) -> float:
    """Sum over nodes of the unregularized transport cost to each node's
    own estimate."""
    return sum(
        entot.exact_ot(marginals[i], estimates[i], cost)
        for i in range(marginals.shape[0])
    )


def _rows_from_records(rows, records, marginals, cost, reference, measure_walltime):
    """Append one metrics row per record to ``rows``, in order, so that a
    failing exact transport solve leaves the rows of the records before it."""
    m = marginals.shape[0]
    base = None
    if reference is not None:
        base = sum(entot.exact_ot(marginals[i], reference, cost) for i in range(m))
    for rec in records:
        value = _objective(marginals, cost, rec.recovered) / m
        gap = value if base is None else value - base / m
        rows.append(
            MetricsRow(
                iteration=rec.iteration,
                objective_gap=gap,
                consensus=rec.consensus,
                wall_time=rec.wall_time if measure_walltime else 0.0,
            )
        )


def _write_csv(rows, path: Path) -> None:
    # No field needs csv quoting: an int and the reprs of three floats.
    lines = [",".join(CSV_COLUMNS)] + [
        f"{row.iteration},{row.objective_gap!r},{row.consensus!r},{row.wall_time!r}" for row in rows
    ]
    path.write_text("".join(line + "\n" for line in lines))


def run_inputs(cfg: ExperimentConfig) -> str:
    """sha256 hex digest of everything a run of ``cfg`` reads: two configs
    with equal digests write byte-identical ``metrics.csv`` and
    ``histograms.npy``.

    That is the marginals; the cost, a matrix's bytes or a raster's shape;
    the Gaussian reference; the stored edge array in force at each iteration
    (``spectral_bounds`` reads the same arrays); the family, unless every
    epoch is the complete graph (``netgraph._one_graph``), since otherwise
    ``spectral_bounds`` takes the family's path; gamma and r; the recorded
    iterations; and ``measure_walltime``. The epochs are drawn on
    ``cfg.schedule()``, so a run of ``cfg`` draws none of them again.
    """
    schedule = cfg.schedule()
    marginals, cost, reference = _build_dataset(cfg)
    family = None if netgraph._one_graph(schedule) else schedule.family
    recorded = adom._recorded_iterations(cfg.n_iters, cfg.record_every)
    digest = hashlib.sha256(
        repr((family, cfg.gamma, cfg.r, cfg.measure_walltime, reference is None, recorded)).encode()
    )
    arrays = [marginals, cost if isinstance(cost, np.ndarray) else np.array(cost.shape)]
    arrays += [] if reference is None else [reference]
    arrays += [netgraph._epoch_edges(schedule, schedule.epoch_of(n)) for n in range(cfg.n_iters)]
    # An array's dtype and shape say how many of the bytes after them are its own.
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode() + array.tobytes())
    return digest.hexdigest()


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one configured experiment end to end.

    Derives step parameters from the schedule's spectral bounds over the
    run's horizon, solves, computes metrics at the recorded iterations
    (exact transport runs only there), and persists CSV, manifest, and final
    histograms under ``cfg.out`` when it is set. When the solver diverges
    or a metric fails (an exact transport LP without a certified value),
    what was finished is still written before the error propagates: the
    CSV rows of the records before the failure, and the final histograms
    once the solve has finished.
    """
    # The schedule validates m and seed and draws nothing, so it comes first:
    # a bad value is named before the dataset build trips over it.
    schedule = cfg.schedule()
    marginals, cost, reference = _build_dataset(cfg)
    bounds = netgraph.spectral_bounds(schedule, cfg.n_iters)
    params = adom.derive_params(cfg.r, cfg.gamma, bounds)
    oracle = entot.wb_dual_oracle(marginals, cost, cfg.gamma)

    manifest = {
        "config": cfg.to_dict(),
        # Every step field of the parameters (the config holds r and gamma)
        # and the bounds they were derived from.
        "derived": {
            f.name: getattr(params, f.name)
            for f in fields(params) if f.name not in ("r", "gamma", "bounds")
        } | asdict(bounds),
        "objective_mode": "gap" if reference is not None else "value",
        "csv_columns": CSV_COLUMNS,
        "version": __version__,
        "git": git_describe(),
    }

    out_dir = None
    if cfg.out is not None:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )

    rows, final, diverged = [], None, None
    try:
        traj = adom.run(schedule, oracle, params, cfg.n_iters, cfg.record_every)
    except adom.NumericalDivergenceError as err:
        records, diverged = err.records, err
    else:
        records = traj.records
        final = oracle.grad_conj_stack(traj.state.z_g)
    try:
        _rows_from_records(rows, records, marginals, cost, reference, cfg.measure_walltime)
        if diverged is not None:
            raise diverged
    finally:
        if out_dir is not None:
            _write_csv(rows, out_dir / "metrics.csv")
            if final is not None:
                np.save(out_dir / "histograms.npy", final)
    return ExperimentResult(
        rows=rows, histograms=final, manifest=manifest, out_dir=out_dir
    )
