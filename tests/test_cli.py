"""Tests for the command-line interface."""

import collections
import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netbary
from netbary import entot, harness, netgraph
from netbary.cli import _build_parser, _config_from_args, _variants, main
from test_harness import _write_idx_images, _write_idx_labels

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SMALL_CONFIG = """\
# small deterministic run
dataset = gaussians
m = 3
d = 6
family = cycle
gamma = 0.05
r = 0.01
n_iters = 40
record_every = 10
delta = 1e-4
seed = 5
"""


# One value per config key, as text, each different from the key's default.
NON_DEFAULTS = {
    "dataset": "mnist",
    "m": "7",
    "d": "12",
    "family": "star",
    "p": "0.25",
    "epoch_len": "3",
    "seed": "9",
    "gamma": "0.2",
    "r": "0.03",
    "n_iters": "17",
    "record_every": "4",
    "delta": "1e-5",
    "mnist_images": "images.idx",
    "mnist_labels": "labels.idx",
    "digit": "2",
    "measure_walltime": "true",
    "out": "results",
}


def _write_config(tmp_path, text=SMALL_CONFIG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def _raster_config(tmp_path):
    """Config text of a small raster run on four 4x4 IDX images of one digit."""
    images = np.random.default_rng(3).integers(0, 256, size=(5, 4, 4))
    _write_idx_images(tmp_path / "images.idx", images)
    _write_idx_labels(tmp_path / "labels.idx", [7, 7, 1, 7, 7])
    return (
        f"dataset = mnist\nmnist_images = {tmp_path / 'images.idx'}\n"
        f"mnist_labels = {tmp_path / 'labels.idx'}\ndigit = 7\nm = 4\n"
        "gamma = 0.1\nr = 0.05\nn_iters = 20\nrecord_every = 5\n"
    )


def _printed_bounds(out):
    """Extract (lambda_min_plus, lambda_max) from spectra output."""
    values = {}
    for line in out.splitlines():
        if "=" in line and line.startswith("lambda"):
            key, value = line.split("=")
            values[key.strip()] = float(value)
    return values["lambda_min_plus"], values["lambda_max"]


class TestSpectra:
    def test_complete_graph_bounds(self, capsys):
        code = main(["spectra", "--family", "complete", "--m", "6"])
        out = capsys.readouterr().out
        assert code == 0
        values = _printed_bounds(out)
        np.testing.assert_allclose(values, [6.0, 6.0], atol=1e-9)

    @pytest.mark.parametrize(
        "flags, schedule",
        [
            (["--family", "cycle", "--m", "10"], {"family": "cycle", "m": 10}),
            # Every schedule flag reaches the schedule.
            (
                ["--family", "erdos_renyi", "--m", "8", "--p", "0.5", "--epoch-len", "5",
                 "--seed", "3"],
                {"family": "erdos_renyi", "m": 8, "p": 0.5, "epoch_len": 5, "seed": 3},
            ),
        ],
        ids=["cycle", "every-flag"],
    )
    def test_matches_library_bounds(self, capsys, flags, schedule):
        code = main(["spectra", *flags, "--horizon", "50"])
        out = capsys.readouterr().out
        assert code == 0
        bounds = netgraph.spectral_bounds(netgraph.NetworkSchedule(**schedule), 50)
        assert out == (
            f"family = {schedule['family']}, m = {schedule['m']}, horizon = 50\n"
            f"lambda_min_plus = {bounds.lambda_min_plus!r}\n"
            f"lambda_max = {bounds.lambda_max!r}\n"
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["spectra", "--family", "hypercube", "--m", "6"])

    def test_defaults_are_the_config_defaults(self):
        args = _build_parser().parse_args(["spectra"])
        cfg = _config_from_args(args)
        default = harness.ExperimentConfig()
        keys = ("family", "m", "p", "seed", "epoch_len")
        assert [getattr(cfg, k) for k in keys] == [getattr(default, k) for k in keys]
        assert (cfg.family, cfg.m) == ("cycle", 10)

    def test_help_offers_the_schedule_keys_and_horizon(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["spectra", "--help"])
        assert exit_info.value.code == 0
        offered = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        keys = [f.name for f in dataclasses.fields(netgraph.NetworkSchedule) if f.init]
        flags = {"--" + key.replace("_", "-") for key in keys}
        assert offered == {"--help", "--horizon", *flags}
        assert {"--family", "--m", "--p", "--epoch-len", "--seed"} <= flags

    def test_m_is_read_as_the_config_reads_it(self, capsys):
        code = main(["spectra", "--m", "5.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: cannot parse int m='5.5'\n"
        assert captured.out == ""


class TestOracleCheck:
    def test_default_instance_passes(self, capsys):
        code = main(["oracle-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out

    def test_seeded_instance_reports_small_deviation(self, capsys):
        code = main(["oracle-check", "--d", "5", "--gamma", "0.05", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        rel_line = next(
            line for line in out.splitlines() if "relative FD deviation" in line
        )
        assert float(rel_line.split(":")[1]) <= 1e-6

    @pytest.mark.parametrize("gamma", ["nan", "0", "-0.5", "inf"])
    def test_gamma_that_is_not_positive_is_an_error(self, capsys, gamma):
        code = main(["oracle-check", "--gamma", gamma])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: gamma must be positive and finite, got {float(gamma)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, least", [("--d", "-3", 2), ("--d", "1", 2), ("--seed", "-1", 0)]
    )
    def test_d_or_seed_below_its_least_is_an_error(self, capsys, flag, value, least):
        code = main(["oracle-check", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {flag} must be an integer >= {least}, got {value}\n"
        assert captured.out == ""


class TestRun:
    def test_config_file_run_writes_artifacts(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "run complete: 5 recorded iterations" in captured.out
        assert "final iteration 39" in captured.out
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "histograms.npy").exists()

    def test_failing_metric_leaves_histograms_and_earlier_rows(
        self, tmp_path, capsys, monkeypatch
    ):
        # The run records iterations 0, 10, 20, 30 and 39 of 3 nodes. Its
        # metrics take 3 exact transport solves to the reference, then 3
        # per record; the 11th fails, in the record of iteration 20.
        cfg_path = _write_config(tmp_path)
        clean = tmp_path / "clean"
        assert main(["run", "--config", str(cfg_path), "--out", str(clean)]) == 0
        exact_ot = entot.exact_ot
        calls = []
        message = "dense transport LP at d = 6 is not certified: (a stand-in)"

        def failing(p, q, cost):
            calls.append(None)
            if len(calls) == 11:
                raise entot._LPFailure(message)
            return exact_ot(p, q, cost)

        monkeypatch.setattr(entot, "exact_ot", failing)
        capsys.readouterr()
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert len(calls) == 11
        # The solve finished, so its histograms are the clean run's.
        assert (out_dir / "histograms.npy").read_bytes() == (
            clean / "histograms.npy"
        ).read_bytes()
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert lines == (clean / "metrics.csv").read_text().splitlines()[:3]
        assert lines[2].startswith("10,")

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(
            [
                "run",
                "--config", str(cfg_path),
                "--n-iters", "20",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["n_iters"] == 20
        assert manifest["config"]["m"] == 3
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert lines[-1].startswith("19,")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("in_file", [False, True])
    def test_empty_out_is_refused_before_anything_is_written(
        self, tmp_path, monkeypatch, capsys, command, in_file
    ):
        # Path("") is the working directory, where an empty out used to put
        # a run's artifacts and a sweep's variant directories.
        cfg_path = _write_config(tmp_path, SMALL_CONFIG + ("out =\n" if in_file else ""))
        monkeypatch.chdir(tmp_path)
        argv = [command, "--config", str(cfg_path), *([] if in_file else ["--out", ""])]
        code = main(argv + (["--vary", "family=cycle"] if command == "sweep" else []))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: out must name a directory, got ''\n"
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]

    def test_run_without_out_is_not_persisted(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        code = main(["run", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "(not persisted)" in out

    def test_missing_dataset_file_fails_with_path(self, tmp_path, capsys):
        absent = tmp_path / "absent.idx"
        code = main(
            [
                "run",
                "--dataset", "mnist",
                "--mnist-images", str(absent),
                "--mnist-labels", str(absent),
                "--m", "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert str(absent) in captured.err

    def test_overflowing_idx_header_fails_with_diagnostic(self, tmp_path, capsys):
        images = tmp_path / "images.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 2**31, 2**16, 2**16) + b"\0" * 16)
        labels = tmp_path / "labels.idx"
        labels.write_bytes(struct.pack(">II", 0x801, 2) + b"\1\1")
        code = main(
            [
                "run",
                "--dataset", "mnist",
                "--mnist-images", str(images),
                "--mnist-labels", str(labels),
                "--m", "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert str(images) in captured.err

    def test_record_every_zero_fails_before_the_manifest(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg_path), "--record-every", "0", "--out", str(out_dir)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "record_every" in captured.err
        assert not (out_dir / "manifest.json").exists()

    @pytest.mark.parametrize("n_iters", ["0", "-2"])
    def test_n_iters_below_one_fails_before_any_output(self, tmp_path, capsys, n_iters):
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg_path), "--n-iters", n_iters, "--out", str(out_dir)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: n_iters must be an integer >= 1, got {n_iters}" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--m", "0", "m must be an integer >= 2, got 0"),
            ("--m", "-3", "m must be an integer >= 2, got -3"),
            ("--seed", "-1", "seed must be an integer >= 0, got -1"),
        ],
    )
    def test_bad_m_or_seed_is_named_before_the_dataset(
        self, tmp_path, capsys, flag, value, message
    ):
        # The dataset build would fail first, with numpy's own message.
        cfg_path = _write_config(tmp_path)
        code = main(["run", "--config", str(cfg_path), flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["mean_low", "mean_high", "std_low", "std_high"])
    def test_a_gaussian_draw_range_is_not_a_config_key(self, tmp_path, capsys, key):
        # The draw ranges are harness constants.
        cfg_path = _write_config(tmp_path, SMALL_CONFIG + f"{key} = 0.5\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: unknown config key {key!r}\n"
        assert not out_dir.exists()

    def test_gaussian_run_never_imports_scipy(self, tmp_path, fresh_python):
        # Only the transport LPs need scipy, and a Gaussian run's transport
        # is in closed form. The LPs afterwards, on a raster and on a dense
        # non-Monge cost, load scipy's HiGHS extension and nothing of
        # scipy.optimize or scipy.sparse; the extension's presence shows
        # that the check can fail.
        cfg_path = _write_config(tmp_path)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from netbary import entot\n"
            "from netbary.cli import main\n"
            "LP = ('scipy.optimize', 'scipy.sparse', entot._HIGHS_MODULE)\n"
            f"code = main(['run', '--config', {str(cfg_path)!r}])\n"
            "print(code, [m for m in sys.modules if m.startswith('scipy')])\n"
            "entot.exact_ot(np.full(4, 0.25), np.eye(4)[0], entot.GridCost(2, 2))\n"
            "entot.exact_ot(np.full(3, 1 / 3), np.eye(3)[0], 1 - np.eye(3))\n"
            "print([m for m in LP if m in sys.modules])\n"
        )
        lines = fresh_python(script).splitlines()
        assert lines[-2] == "0 []"
        assert lines[-1] == "['scipy.optimize._highspy._core']"

    def test_gaussian_run_never_imports_the_thread_pool(self, tmp_path, fresh_python):
        # Only a sweep runs variants on a thread pool; its module imports
        # logging too. The sweep afterwards shows that the check can fail.
        cfg_path = _write_config(tmp_path)
        script = (
            "import sys\n"
            "from netbary.cli import main\n"
            f"code = main(['run', '--config', {str(cfg_path)!r}])\n"
            "print(code, 'concurrent.futures' in sys.modules)\n"
            f"code = main(['sweep', '--config', {str(cfg_path)!r}, '--vary', 'family=cycle',"
            f" '--out', {str(tmp_path / 'sweep')!r}])\n"
            "print(code, 'concurrent.futures' in sys.modules)\n"
        )
        codes = [line for line in fresh_python(script).splitlines() if line.startswith("0 ")]
        assert codes == ["0 False", "0 True"]

    def test_artifacts_do_not_depend_on_the_interpreter(self, tmp_path, fresh_python):
        # A net-many-shaped run (a new 50-node graph every iteration) in two
        # fresh interpreters with different string hash seeds, into the same
        # directory, since the manifest records it.
        cfg_path = _write_config(tmp_path, (
            "dataset = gaussians\nm = 50\nd = 20\nfamily = erdos_renyi\np = 0.2\n"
            "epoch_len = 1\ngamma = 0.01\nr = 0.001\nn_iters = 20\nrecord_every = 10\n"
        ))
        out_dir = tmp_path / "out"
        script = (
            "from netbary.cli import main\n"
            f"assert main(['run', '--config', {str(cfg_path)!r}, '--out', {str(out_dir)!r}]) == 0\n"
        )
        names = ("metrics.csv", "histograms.npy", "manifest.json")
        runs = []
        for hash_seed in ("0", "1"):
            fresh_python(script, PYTHONHASHSEED=hash_seed)
            runs.append([(out_dir / name).read_bytes() for name in names])
            shutil.rmtree(out_dir)
        assert runs[0] == runs[1]
        assert b"erdos_renyi" in runs[0][2]

    def test_bad_config_key_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("iterations = 5\n")
        code = main(["run", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown config key" in captured.err

    def test_config_key_set_twice_fails_but_a_flag_may_override(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, SMALL_CONFIG + "m = 4\n")
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg_path}:12: key 'm' is already set on line 3\n"
        cfg_path = _write_config(tmp_path)
        args = _build_parser().parse_args(["run", "--config", str(cfg_path), "--m", "4"])
        assert _config_from_args(args).m == 4

    def test_reruns_byte_identical(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        np.testing.assert_array_equal(
            np.load(out_a / "histograms.npy"), np.load(out_b / "histograms.npy")
        )


class TestConfigFlags:
    def test_every_key_is_a_flag_that_parses_like_the_config_file(self, tmp_path):
        keys = [field.name for field in dataclasses.fields(harness.ExperimentConfig)]
        assert sorted(keys) == sorted(NON_DEFAULTS)
        cfg_path = _write_config(
            tmp_path, "".join(f"{key} = {text}\n" for key, text in NON_DEFAULTS.items())
        )
        from_file = harness.ExperimentConfig.from_dict(harness.load_config(cfg_path))
        default = harness.ExperimentConfig()
        for key in keys:
            assert getattr(from_file, key) != getattr(default, key), key
        flags = []
        for key, text in NON_DEFAULTS.items():
            flags.append("--" + key.replace("_", "-"))
            if key != "measure_walltime":  # a switch, it takes no value
                flags.append(text)
        for command in ("run", "sweep --vary family=cycle"):
            args = _build_parser().parse_args([*command.split(), *flags])
            assert _config_from_args(args) == from_file

    def test_static_epoch_len_flag_matches_config_file(self, tmp_path):
        cfg_path = _write_config(tmp_path, "epoch_len = static\n")
        from_file = harness.ExperimentConfig.from_dict(harness.load_config(cfg_path))
        args = _build_parser().parse_args(["run", "--epoch-len", "static"])
        assert _config_from_args(args) == from_file
        assert from_file.epoch_len is None

    def test_bad_flag_value_names_the_key(self, capsys):
        code = main(["run", "--m", "three"])
        captured = capsys.readouterr()
        assert code == 1
        assert "m='three'" in captured.err

    @pytest.mark.parametrize(
        "key", [key for key, (kind, _) in harness.CONFIG_TYPES.items() if kind is float]
    )
    def test_non_finite_float_flag_names_the_key(self, tmp_path, capsys, key):
        # Before, nan and inf std or mean bounds ended in numpy's
        # OverflowError traceback, and a nan gamma was reported as tau.
        out_dir = tmp_path / "out"
        flag = "--" + key.replace("_", "-")
        for value in ("nan", "inf", "-inf"):
            code = main(["run", f"{flag}={value}", "--out", str(out_dir)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == f"error: {key} must be finite, got {value!r}\n"
            assert not out_dir.exists()


class TestSweep:
    def test_family_sweep_writes_subdirectories(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(cfg_path),
                "--m", "4",
                "--vary", "family=cycle,complete",
                "--out", str(out_dir),
                "--jobs", "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        for label, family in (("family-cycle", "cycle"), ("family-complete", "complete")):
            sub = out_dir / label
            assert (sub / "metrics.csv").exists()
            manifest = json.loads((sub / "manifest.json").read_text())
            assert manifest["config"]["family"] == family
            assert f"{label}: final objective_gap=" in captured.out

    def test_epoch_sweep_coerces_static(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(cfg_path),
                "--family", "erdos_renyi",
                "--p", "0.8",
                "--vary", "epoch_len=static,5",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        static = json.loads((out_dir / "epoch_len-static" / "manifest.json").read_text())
        five = json.loads((out_dir / "epoch_len-5" / "manifest.json").read_text())
        assert static["config"]["epoch_len"] is None
        assert five["config"]["epoch_len"] == 5

    @pytest.mark.parametrize("raster", [False, True], ids=["gaussians", "raster"])
    def test_variants_on_the_pool_match_plain_runs(self, tmp_path, raster):
        # Two variants at once on the thread pool. In the raster case each
        # builds its own GridCost, with its own store of LP bases.
        cfg_path = _write_config(tmp_path, _raster_config(tmp_path) if raster else SMALL_CONFIG)
        out_dir = tmp_path / "sweep"
        base = ["--config", str(cfg_path)]
        grid = ["--vary", "family=star,complete", "--out", str(out_dir), "--jobs", "2"]
        assert main(["sweep", *base, *grid]) == 0
        for family in ("star", "complete"):
            alone = tmp_path / family
            assert main(["run", *base, "--family", family, "--out", str(alone)]) == 0
            for name in ("metrics.csv", "histograms.npy"):
                variant = out_dir / f"family-{family}" / name
                assert variant.read_bytes() == (alone / name).read_bytes()

    @pytest.mark.parametrize("key", sorted(harness.CONFIG_TYPES))
    def test_every_key_but_out_can_be_varied(self, tmp_path, key):
        cfg = harness.ExperimentConfig(out=str(tmp_path / "sweep"))
        text = NON_DEFAULTS[key]
        if key == "out":
            with pytest.raises(ValueError, match="^--vary takes KEY=V1,V2,... with a config key"):
                _variants(cfg, [f"out={text}"])
            return
        label = f"{key}-{text}"
        variants = _variants(cfg, [f"{key}={text}"])
        assert list(variants) == [label]
        # The variant is the base with the one key changed and its own out,
        # parsed; a config that does not parse (an IDX run without its
        # files) is the error its run reports.
        raw = dict(cfg.to_dict(), **{key: text, "out": str(tmp_path / "sweep" / label)})
        try:
            expected = harness.ExperimentConfig.from_dict(raw)
        except ValueError as err:
            assert isinstance(variants[label], ValueError)
            assert str(variants[label]) == str(err)
        else:
            assert variants[label] == expected
        assert not (tmp_path / "sweep").exists()

    def test_failing_variant_keeps_the_others(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(cfg_path),
                "--m", "4",
                "--vary", "family=cycle,hypercube,complete",
                "--out", str(out_dir),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["family-cycle", "family-complete"]
        assert "family-hypercube: error: unknown family 'hypercube'" in captured.err
        for label in ("family-cycle", "family-complete"):
            assert (out_dir / label / "metrics.csv").exists()
            assert (out_dir / label / "histograms.npy").exists()

    def test_sweep_requires_out(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        code = main(["sweep", "--config", str(cfg_path), "--vary", "family=cycle"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "--out" in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected_before_any_variant(self, tmp_path, capsys, jobs):
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(cfg_path),
                "--vary", "family=cycle",
                "--out", str(out_dir),
                "--jobs", jobs,
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: --jobs must be an integer >= 1, got {jobs}\n"
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["family=cycle,cycle"], "sweep variant family-cycle is listed twice"),
            (["family=cycle, star ,star"], "sweep variant family-star is listed twice"),
            (["epoch_len=5,static,5"], "sweep variant epoch_len-5 is listed twice"),
            (
                ["family=star", "epoch_len=static,static"],
                "sweep variant epoch_len-static is listed twice",
            ),
            (["family=star", "family=cycle,star"], "sweep variant family-star is listed twice"),
            # A value with '/' would nest its variant, and '..' parts put it
            # outside out.
            (
                ["mnist_images=x/../../y"],
                "sweep value mnist_images='x/../../y' is not one directory name",
            ),
            (["family=cycle,a/b"], "sweep value family='a/b' is not one directory name"),
            (["famly=cycle"], "--vary takes KEY=V1,V2,... with a config key other than out, "
                              "got 'famly=cycle'"),
            (["out=a,b"], "--vary takes KEY=V1,V2,... with a config key other than out, "
                          "got 'out=a,b'"),
            (["family"], "--vary takes KEY=V1,V2,... with a config key other than out, "
                         "got 'family'"),
        ],
    )
    def test_bad_grid_rejected_before_any_variant(self, tmp_path, capsys, grid, message):
        # On 4 nodes a cycle's epochs differ, so epoch_len-5 and
        # epoch_len-static are two inputs and each check is reached.
        cfg_path = _write_config(tmp_path)
        vary = [arg for axis in grid for arg in ("--vary", axis)]
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--config", str(cfg_path), "--m", "4", *vary, "--out", out])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize(
        "grid, first, second",
        [
            (["epoch_len=static,inf,none"], "epoch_len-static", "epoch_len-inf"),
            (["epoch_len=5,05"], "epoch_len-5", "epoch_len-05"),
            (["epoch_len=NONE,5,Static"], "epoch_len-NONE", "epoch_len-Static"),
            (["gamma=0.01,1e-2"], "gamma-0.01", "gamma-1e-2"),
            (["measure_walltime=true,1"], "measure_walltime-true", "measure_walltime-1"),
            # Two keys, each at the base's own value: the config is a static
            # cycle, so both variants are the base config.
            (["family=cycle,complete", "epoch_len=static,5"], "family-cycle", "epoch_len-static"),
        ],
    )
    def test_variants_of_one_config_rejected_before_any_variant(
        self, tmp_path, capsys, grid, first, second
    ):
        # A 4-cycle's epochs differ, so epoch_len-5 is a config of its own.
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        vary = [arg for axis in grid for arg in ("--vary", axis)]
        code = main(["sweep", "--config", str(cfg_path), "--m", "4", *vary, "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: sweep variants {first} and {second} are the same config\n"
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "raster, flags, first, second, unread",
        [
            (False, ["--vary", "p=0.2,0.7"], "p-0.2", "p-0.7", "p"),
            # The base runs 40 iterations.
            (
                False,
                ["--vary", "epoch_len=static,40,99"],
                "epoch_len-static", "epoch_len-40", "epoch_len",
            ),
            (
                False,
                ["--family", "complete", "--vary", "epoch_len=static,3"],
                "epoch_len-static", "epoch_len-3", "epoch_len",
            ),
            # The base is a 3-node cycle: the complete graph in every epoch.
            (False, ["--vary", "epoch_len=3,5"], "epoch_len-3", "epoch_len-5", "epoch_len"),
            (True, ["--m", "3", "--vary", "seed=1,2"], "seed-1", "seed-2", "seed"),
            # Any family on two nodes is the single edge, and Erdos-Renyi at
            # p = 1 keeps every pair.
            (
                False,
                ["--family", "erdos_renyi", "--m", "2", "--vary", "p=0.3,0.7"],
                "p-0.3", "p-0.7", "p",
            ),
            (
                False,
                ["--family", "erdos_renyi", "--p", "1", "--m", "5", "--vary", "epoch_len=3,5"],
                "epoch_len-3", "epoch_len-5", "epoch_len",
            ),
            (False, ["--vary", "digit=3,5"], "digit-3", "digit-5", "digit"),
            (True, ["--vary", "d=20,30"], "d-20", "d-30", "d"),
            (
                True,
                ["--family", "complete", "--vary", "seed=1", "--vary", "p=0.5"],
                "seed-1", "p-0.5", "p, seed",
            ),
            # On 20 iterations every record_every from 19 on records
            # iterations 0 and 19 alone.
            (
                False,
                ["--n-iters", "20", "--vary", "record_every=19,20,50"],
                "record_every-19", "record_every-20", "record_every",
            ),
            # The family of a schedule whose every epoch is the complete
            # graph: a 3-node star is a path, and on two nodes every family
            # is the single edge.
            (
                False,
                ["--m", "3", "--vary", "family=cycle,complete,star"],
                "family-cycle", "family-complete", "family",
            ),
            (
                True,
                ["--m", "2", "--vary", "family=cycle,star,complete,erdos_renyi,mst_of_er"],
                "family-cycle", "family-star", "family",
            ),
        ],
    )
    def test_variants_that_read_the_same_inputs_rejected_before_any_variant(
        self, tmp_path, capsys, raster, flags, first, second, unread
    ):
        # A cycle draws no edge, so no p; the complete graph is each of its
        # relabelings, so no epochs, nor in an IDX run a seed, and so is
        # every epoch of a 3-node cycle, of any family on two nodes and of
        # Erdos-Renyi at p = 1; a Gaussian run reads no digit and an IDX run
        # no d.
        cfg_path = _write_config(tmp_path, _raster_config(tmp_path) if raster else SMALL_CONFIG)
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg_path), *flags, "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: sweep variants {first} and {second} read the same inputs: "
            f"their runs do not read {unread}\n"
        )
        assert captured.out == ""
        assert not out_dir.exists()

    def test_a_key_the_run_reads_still_varies(self, tmp_path):
        cfg = harness.ExperimentConfig(family="erdos_renyi", out=str(tmp_path / "sweep"))
        assert list(_variants(cfg, ["p=0.2,0.7"])) == ["p-0.2", "p-0.7"]
        variants = _variants(cfg, ["epoch_len=static,999"])
        assert list(variants) == ["epoch_len-static", "epoch_len-999"]
        # A 4-cycle's epochs differ, where a 3-cycle's are all K3.
        cycle = harness.ExperimentConfig(m=4, n_iters=20, out=str(tmp_path / "sweep"))
        assert list(_variants(cycle, ["epoch_len=3,5"])) == ["epoch_len-3", "epoch_len-5"]

    def test_every_family_on_two_nodes_reads_the_same_inputs(self, tmp_path):
        base = harness.ExperimentConfig.from_dict(harness.load_config(_write_config(tmp_path)))
        digests = {
            harness.run_inputs(dataclasses.replace(base, m=2, family=family))
            for family in netgraph.FAMILIES
        }
        assert len(digests) == 1

    def test_a_sweep_draws_each_epoch_once(self, tmp_path, monkeypatch):
        # The check and the run of a variant read one schedule, so the
        # epochs the check draws are the ones the run reads.
        draws = collections.Counter()
        epoch_rng = netgraph._epoch_rng

        def spy(schedule, epoch):
            draws[schedule, epoch] += 1
            return epoch_rng(schedule, epoch)

        monkeypatch.setattr(netgraph, "_epoch_rng", spy)
        cfg_path = _write_config(tmp_path)
        flags = ["--family", "erdos_renyi", "--p", "0.5", "--m", "5", "--vary", "epoch_len=3,5"]
        code = main(["sweep", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "sweep")])
        assert code == 0
        # The base runs 40 iterations from seed 5.
        assert draws == collections.Counter({
            (netgraph.NetworkSchedule("erdos_renyi", 5, epoch_len, 5, 0.5), epoch): 1
            for epoch_len in (3, 5) for epoch in range(-(-40 // epoch_len))
        })

    @staticmethod
    def _assert_same_artifacts(tmp_path, base, changes):
        """Runs ``base`` and each change of it (a dict of key: value), which
        must read the same inputs, and checks that every run writes the same
        metrics.csv and histograms.npy."""
        outputs = []
        for i, changed in enumerate([{}, *changes]):
            cfg = dataclasses.replace(base, out=str(tmp_path / f"run{i}"), **changed)
            assert harness.run_inputs(cfg) == harness.run_inputs(base)
            harness.run_experiment(cfg)
            names = ("metrics.csv", "histograms.npy")
            outputs.append([(Path(cfg.out) / name).read_bytes() for name in names])
        assert outputs == outputs[:1] * len(outputs)

    def test_an_epoch_as_long_as_the_run_is_the_static_graph(self, tmp_path):
        base = harness.ExperimentConfig.from_dict(harness.load_config(_write_config(tmp_path)))
        changes = [{"epoch_len": base.n_iters}, {"epoch_len": base.n_iters + 1}]
        self._assert_same_artifacts(tmp_path, base, changes)

    @pytest.mark.parametrize(
        "keys",
        [
            ("p",),
            ("epoch_len",),
            ("seed",),
            ("d",),
            ("mnist_images", "mnist_labels", "digit"),
        ],
        ids=lambda keys: keys[0],
    )
    def test_unread_keys_change_no_output(self, tmp_path, keys):
        # Each key a run can leave unread, set away from its default on a
        # config whose run_inputs it leaves as they are, leaves metrics.csv
        # and histograms.npy as they are; the first such base of four is used.
        gaussians = harness.load_config(_write_config(tmp_path))
        raster = harness.load_config(_write_config(tmp_path, _raster_config(tmp_path)))
        bases = [
            harness.ExperimentConfig.from_dict(dict(raw, family=family))
            for raw in (gaussians, raster)
            for family in ("cycle", "complete")
        ]
        changes = [{key: harness.config_value(key, NON_DEFAULTS[key])} for key in keys]
        base = next(
            cfg for cfg in bases
            if all(harness.run_inputs(dataclasses.replace(cfg, **changed)) == harness.run_inputs(cfg)
                   for changed in changes)
        )
        self._assert_same_artifacts(tmp_path, base, changes)

    @pytest.mark.parametrize(
        "family, m, p, changes",
        [
            ("cycle", 3, 0.9, [{"epoch_len": 1}, {"seed": 9}]),
            ("star", 2, 0.9, [{"epoch_len": None}, {"seed": 9}]),
            ("mst_of_er", 2, 0.9, [{"epoch_len": 1}, {"seed": 9, "p": 0.0}]),
            ("erdos_renyi", 4, 1.0, [{"epoch_len": 1}, {"seed": 9, "epoch_len": None}]),
        ],
    )
    def test_a_one_graph_schedule_reads_no_epochs_nor_seed(self, tmp_path, family, m, p, changes):
        # Every epoch of these schedules is the complete graph; an IDX run
        # draws no data from the seed.
        raw = harness.load_config(_write_config(tmp_path, _raster_config(tmp_path)))
        base = harness.ExperimentConfig.from_dict(
            dict(raw, family=family, m=m, p=p, epoch_len=5, seed=0)
        )
        self._assert_same_artifacts(tmp_path, base, changes)

    def test_record_every_past_the_last_iteration_changes_no_output(self, tmp_path):
        # On 20 iterations every record_every from 19 on records iterations
        # 0 and 19 alone.
        raw = harness.load_config(_write_config(tmp_path))
        base = harness.ExperimentConfig.from_dict(dict(raw, n_iters="20", record_every="19"))
        self._assert_same_artifacts(tmp_path, base, [{"record_every": 20}, {"record_every": 50}])
        rows = (tmp_path / "run0" / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "19"]

    def test_record_every_below_the_last_iteration_still_varies(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--config", str(cfg_path), "--n-iters", "20",
                "--vary", "record_every=5,50", "--out", str(out_dir),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        labels = [line.split(":")[0] for line in captured.out.splitlines()]
        assert labels == ["record_every-5", "record_every-50"]
        rows = (out_dir / "record_every-5" / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "5", "10", "15", "19"]
        assert (out_dir / "record_every-50" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "vary, refused, message",
        [
            ("m=1,3", "m-1", "m must be an integer >= 2, got 1"),
            ("epoch_len=0,5", "epoch_len-0", "epoch_len must be an integer >= 1, got 0"),
        ],
    )
    def test_a_value_the_schedule_refuses_fails_in_its_own_variant(
        self, tmp_path, capsys, vary, refused, message
    ):
        # A variant whose inputs cannot be read is left to its own run,
        # which names the value the schedule refuses.
        cfg_path = _write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        flags = ["--m", "4", "--vary", vary]
        code = main(["sweep", "--config", str(cfg_path), *flags, "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"{refused}: error: {message}\n"
        (other,) = [line.split(":")[0] for line in captured.out.splitlines()]
        assert (out_dir / other / "metrics.csv").exists()

    def test_one_variant_at_the_base_config_is_kept(self, tmp_path):
        # family-cycle is the default base config, and no other variant is.
        cfg = harness.ExperimentConfig(out=str(tmp_path / "sweep"))
        variants = _variants(cfg, ["family=cycle,complete", "epoch_len=5"])
        assert list(variants) == ["family-cycle", "family-complete", "epoch_len-5"]

    def test_sweep_requires_a_grid(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s")])
        assert exit_info.value.code == 2
        assert "the following arguments are required: --vary" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_help_lists_vary_and_jobs_as_the_sweep_options(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--vary KEY=V1,V2,..." in out and "--jobs" in out
        assert "--families" not in out and "--epoch-lens" not in out


class TestEntryPoint:
    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main([])

    def test_installed_script_runs(self):
        # Run the declared console-script target the way the generated
        # wrapper does, in a fresh interpreter, against the imported package
        # rather than whatever `netbary` happens to be on PATH.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
        assert scripts.get("netbary") == "netbary.cli:main"
        module, func = scripts["netbary"].split(":")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(netbary.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; from {module} import {func}; sys.exit({func}())",
                "spectra", "--family", "complete", "--m", "6",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        values = _printed_bounds(proc.stdout)
        np.testing.assert_allclose(values, [6.0, 6.0], atol=1e-9)
