"""Command-line interface.

Subcommands:

* ``run`` — one experiment from a config file and/or flag overrides.
* ``sweep`` — the same base config once per value of each ``--vary
  KEY=V1,V2,...`` (any config key but ``out``), runs executed concurrently;
  a failing variant is reported by its label and does not stop the others.
* ``spectra`` — print the spectral bounds of a schedule.
* ``oracle-check`` — finite-difference and simplex self-test of the
  transport dual oracle on a random instance.

Every config key can be overridden by a flag of the same name. Exit code 0
on success, 1 on failure with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import entot, harness, netgraph

__all__ = ["main"]

_FD_THRESHOLD = 1e-6


def _add_config_flags(parser: argparse.ArgumentParser, names=None) -> None:
    """``--config`` plus one flag per ExperimentConfig field; with ``names``,
    only those fields' flags. Flag values are read by the same coercion as
    config-file values, and an absent flag keeps the field's default."""
    if names is None:
        parser.add_argument("--config", type=str, default=None, help="key = value config file")
    for field in dataclasses.fields(harness.ExperimentConfig):
        if names is not None and field.name not in names:
            continue
        flag = "--" + field.name.replace("_", "-")
        if harness.CONFIG_TYPES[field.name][0] is bool:
            parser.add_argument(flag, action="store_const", const=True, default=None)
        else:
            parser.add_argument(
                flag, default=None, choices=field.metadata.get("choices"),
                help=field.metadata.get("help"),
            )


def _config_from_args(args: argparse.Namespace) -> harness.ExperimentConfig:
    raw = {}
    if getattr(args, "config", None) is not None:
        raw.update(harness.load_config(args.config))
    for key in harness.ExperimentConfig.__dataclass_fields__:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return harness.ExperimentConfig.from_dict(raw)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    result = harness.run_experiment(cfg)
    last = result.rows[-1] if result.rows else None
    where = result.out_dir if result.out_dir is not None else "(not persisted)"
    print(f"run complete: {len(result.rows)} recorded iterations -> {where}")
    if last is not None:
        print(
            f"final iteration {last.iteration}: objective_gap={last.objective_gap:.6g} "
            f"consensus={last.consensus:.6g}"
        )
    return 0


def _variants(cfg: harness.ExperimentConfig, vary) -> dict[str, dict]:
    """The raw config of each sweep variant, by label. Each ``KEY=V1,V2,...``
    in ``vary`` makes one variant per value: ``cfg`` with that one key set to
    the value, labelled ``<key>-<value>`` and written to ``out/<label>``.
    Every check on the grid is made here, before any variant runs; a value
    that does not parse fails later, in its own run, under its label."""
    if cfg.out is None:
        raise ValueError("sweep needs --out (or out in the config) as the parent directory")
    # A label listed twice would run two variants into one directory at
    # once, and two labels of one config but for out (epoch_len-static and
    # epoch_len-inf, or family-cycle and epoch_len-static on a cycle, static
    # base) one run twice; so would two that differ only in keys their run
    # does not read (p-0.2 and p-0.7 on a cycle). A label that is not one
    # directory name would nest its variant, or with '..' parts put it
    # outside out.
    variants: dict[str, dict] = {}
    labels: dict = {}
    for axis in vary:
        key, sep, listed = axis.partition("=")
        if not sep or key not in harness.CONFIG_TYPES or key == "out":
            raise ValueError(f"--vary takes KEY=V1,V2,... with a config key other than out, got {axis!r}")
        for value in listed.split(","):
            value = value.strip()
            label = f"{key}-{value}"
            if Path(label).name != label:
                raise ValueError(f"sweep value {key}={value!r} is not one directory name")
            if label in variants:
                raise ValueError(f"sweep variant {label} is listed twice")
            raw = dict(cfg.to_dict(), **{key: value})
            variants[label] = dict(raw, out=str(Path(cfg.out) / label))
            try:
                parsed = harness.ExperimentConfig.from_dict(dict(raw, out=None))
            except ValueError:
                continue
            read = parsed.as_read()
            if read in labels:
                first, other = labels[read]
                unread = ", ".join(k for k, v in parsed.to_dict().items() if v != getattr(other, k))
                why = "are the same config"
                if unread:
                    why = f"read the same inputs: their runs do not read {unread}"
                raise ValueError(f"sweep variants {first} and {label} {why}")
            labels[read] = label, parsed
    return variants


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Only a sweep needs the pool; the import loads logging too, about 7 ms
    # of CPU that a run would pay for nothing.
    from concurrent.futures import ThreadPoolExecutor

    jobs = netgraph._integer("--jobs", args.jobs, 1)
    variants = _variants(_config_from_args(args), args.vary)

    def one(raw):
        return harness.run_experiment(harness.ExperimentConfig.from_dict(raw)).rows[-1]

    # Every variant runs to its end; one that fails is reported by its label
    # and leaves the others' artifacts and summary lines in place.
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [(label, pool.submit(one, raw)) for label, raw in variants.items()]
    failed = 0
    for label, future in futures:
        try:
            last = future.result()
        except (ValueError, OSError, RuntimeError) as err:
            print(f"{label}: error: {err}", file=sys.stderr)
            failed += 1
            continue
        print(
            f"{label}: final objective_gap={last.objective_gap:.6g} "
            f"consensus={last.consensus:.6g}"
        )
    return 1 if failed else 0


def _cmd_spectra(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    bounds = netgraph.spectral_bounds(cfg.schedule(), args.horizon)
    print(f"family = {cfg.family}, m = {cfg.m}, horizon = {args.horizon}")
    print(f"lambda_min_plus = {bounds.lambda_min_plus!r}")
    print(f"lambda_max = {bounds.lambda_max!r}")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    d = netgraph._integer("--d", args.d, 2)
    seed = netgraph._integer("--seed", args.seed, 0)
    rng = np.random.default_rng(seed)
    gamma = args.gamma
    points = np.sort(rng.random(d))
    cost = entot.cost_matrix(points)
    raw = rng.random(d) + 0.1
    q = entot.floor_histogram(raw / raw.sum(), 1e-4)
    z = 0.5 * rng.standard_normal(d)

    grad = entot.dual_grad(q, cost, gamma, z)
    fd = _fd_gradient(q, cost, gamma, z)
    rel = float(np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-300))
    simplex_dev = max(abs(float(grad.sum()) - 1.0), max(0.0, -float(grad.min())))
    shift = entot.dual_value(q, cost, gamma, z + 1.0) - (
        entot.dual_value(q, cost, gamma, z) + 1.0
    )

    print(f"d = {d}, gamma = {gamma}, seed = {seed}")
    print(f"max relative FD deviation: {rel:.3e}")
    print(f"simplex deviation: {simplex_dev:.3e}")
    print(f"shift-covariance deviation: {abs(shift):.3e}")
    ok = rel <= _FD_THRESHOLD and simplex_dev <= 1e-10 and abs(shift) <= 1e-9
    print(f"{'OK' if ok else 'FAIL'} (FD threshold {_FD_THRESHOLD:g})")
    return 0 if ok else 1


def _fd_gradient(q, cost, gamma, z, step: float = 1e-6) -> np.ndarray:
    """Central differences of :func:`entot.dual_value` in z, one entry at a time."""
    value = functools.partial(entot.dual_value, q, cost, gamma)
    bumps = step * np.eye(z.shape[0])
    return np.array([value(z + bump) - value(z - bump) for bump in bumps]) / (2.0 * step)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netbary",
        description="Decentralized entropic Wasserstein barycenters over "
        "time-varying networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the config once per value of a varied key")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--vary", action="append", required=True, metavar="KEY=V1,V2,...",
                         help="one run per value of config key KEY (not out); repeatable")
    p_sweep.add_argument("--jobs", type=int, default=4)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_spec = sub.add_parser("spectra", help="print spectral bounds of a schedule")
    _add_config_flags(p_spec, harness.SCHEDULE_KEYS)
    p_spec.add_argument("--horizon", type=int, default=1000)
    p_spec.set_defaults(func=_cmd_spectra)

    p_check = sub.add_parser("oracle-check", help="self-test the transport dual oracle")
    p_check.add_argument("--d", type=int, default=5)
    p_check.add_argument("--gamma", type=float, default=0.05)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    """The ``[project.scripts]`` target; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
