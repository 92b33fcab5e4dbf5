"""Tests for dataset generation, config parsing, and experiment runs."""

import csv
import importlib.util
import io
import json
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from netbary import adom, entot, harness, netgraph
from netbary.harness import (
    DELTA_DEFAULT,
    ExperimentConfig,
    GaussianSpec,
    IdxFormatError,
    analytic_barycenter,
    draw_gaussian_specs,
    gaussian_grid,
    gen_truncated_gaussian,
    git_describe,
    load_config,
    load_mnist,
    run_experiment,
)


class TestGaussianGrid:
    def test_default_unit_interval(self):
        grid = gaussian_grid(101)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert grid.shape == (101,)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="^d must be an integer >= 2, got 1$"):
            gaussian_grid(1)


class TestGenTruncatedGaussian:
    def test_matches_pointwise_recompute(self):
        # Recompute the density from the defining formula, point by point.
        grid = gaussian_grid(9)
        spec = GaussianSpec(mean=0.4, std=0.2, grid=grid)
        delta = 1e-4
        raw = np.array(
            [np.exp(-((t - 0.4) ** 2) / (2.0 * 0.2**2)) for t in grid]
        )
        expected = entot.floor_histogram(raw / raw.sum(), delta)
        np.testing.assert_allclose(
            gen_truncated_gaussian(spec, delta), expected, rtol=0, atol=1e-15
        )

    def test_simplex_with_floor(self):
        grid = gaussian_grid(40)
        hist = gen_truncated_gaussian(GaussianSpec(0.5, 0.17, grid), 1e-5)
        assert hist.min() >= 1e-5
        np.testing.assert_allclose(hist.sum(), 1.0, atol=1e-12)

    def test_peak_sits_at_nearest_grid_point(self):
        grid = gaussian_grid(21)
        hist = gen_truncated_gaussian(GaussianSpec(0.3, 0.05, grid), 1e-6)
        assert np.argmax(hist) == 6  # grid point 0.30

    def test_symmetric_spec_gives_symmetric_histogram(self):
        grid = gaussian_grid(15)
        hist = gen_truncated_gaussian(GaussianSpec(0.5, 0.2, grid), 1e-6)
        np.testing.assert_allclose(hist, hist[::-1], atol=1e-14)

    def test_degenerate_density_raises(self):
        grid = gaussian_grid(5)
        with pytest.raises(ValueError, match="degenerate"):
            gen_truncated_gaussian(GaussianSpec(mean=1e6, std=1e-3, grid=grid))

    def test_spec_validation(self):
        grid = gaussian_grid(5)
        with pytest.raises(ValueError, match="std"):
            GaussianSpec(mean=0.5, std=0.0, grid=grid)
        with pytest.raises(ValueError, match="1-d"):
            GaussianSpec(mean=0.5, std=0.1, grid=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            GaussianSpec(mean=0.5, std=0.1, grid=np.array([0.0, np.inf]))
        # nan and inf fail too, naming the parameter.
        for std in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^std must be positive and finite, got {std}$"):
                GaussianSpec(mean=0.5, std=std, grid=grid)
        with pytest.raises(ValueError, match="^mean must be finite, got nan$"):
            GaussianSpec(mean=np.nan, std=0.1, grid=grid)


class TestAnalyticBarycenter:
    def test_identical_specs_reproduce_the_common_histogram(self):
        grid = gaussian_grid(30)
        spec = GaussianSpec(0.45, 0.2, grid)
        specs = [spec, spec, spec]
        np.testing.assert_allclose(
            analytic_barycenter(specs, 1e-5),
            gen_truncated_gaussian(spec, 1e-5),
            atol=1e-15,
        )

    def test_averages_means_and_stds(self):
        grid = gaussian_grid(25)
        specs = [GaussianSpec(0.3, 0.15, grid), GaussianSpec(0.7, 0.25, grid)]
        expected = gen_truncated_gaussian(GaussianSpec(0.5, 0.2, grid), 1e-4)
        np.testing.assert_allclose(
            analytic_barycenter(specs, 1e-4), expected, atol=1e-15
        )

    def test_mismatched_grids_rejected(self):
        a = GaussianSpec(0.5, 0.2, gaussian_grid(10))
        b = GaussianSpec(0.5, 0.2, gaussian_grid(11))
        with pytest.raises(ValueError, match="share"):
            analytic_barycenter([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            analytic_barycenter([])


class TestDrawGaussianSpecs:
    def test_deterministic_in_seed(self):
        grid = gaussian_grid(12)
        first = draw_gaussian_specs(4, grid, seed=9)
        second = draw_gaussian_specs(4, grid, seed=9)
        assert [(s.mean, s.std) for s in first] == [(s.mean, s.std) for s in second]

    def test_seeds_differ(self):
        grid = gaussian_grid(12)
        a = draw_gaussian_specs(4, grid, seed=0)
        b = draw_gaussian_specs(4, grid, seed=1)
        assert [(s.mean, s.std) for s in a] != [(s.mean, s.std) for s in b]

    def test_ranges_respected(self):
        grid = gaussian_grid(12)
        specs = draw_gaussian_specs(
            50, grid, seed=3, mean_range=(0.2, 0.3), std_range=(0.05, 0.06)
        )
        for sp in specs:
            assert 0.2 <= sp.mean <= 0.3
            assert 0.05 <= sp.std <= 0.06
            assert sp.grid is grid or np.array_equal(sp.grid, grid)


def _write_idx_images(path, images):
    arr = np.asarray(images, dtype=np.uint8)
    n, rows, cols = arr.shape
    path.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + arr.tobytes())


def _write_idx_labels(path, labels):
    arr = np.asarray(labels, dtype=np.uint8)
    path.write_bytes(struct.pack(">II", 0x00000801, arr.shape[0]) + arr.tobytes())


class TestLoadMnist:
    def _fixture(self, tmp_path):
        images = np.array(
            [
                [[10, 20], [30, 40]],
                [[5, 5], [5, 5]],
                [[0, 0], [0, 0]],
                [[0, 255], [0, 0]],
            ]
        )
        labels = np.array([7, 3, 7, 7])
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        _write_idx_images(img_path, images)
        _write_idx_labels(lab_path, labels)
        return img_path, lab_path

    def test_filters_digit_and_normalizes(self, tmp_path):
        img_path, lab_path = self._fixture(tmp_path)
        hists, cost = load_mnist(img_path, lab_path, digit=7, count=2, delta=1e-4)
        assert hists.shape == (2, 4)
        np.testing.assert_allclose(hists.sum(axis=1), 1.0, atol=1e-12)
        expected0 = entot.floor_histogram(np.array([10, 20, 30, 40]) / 100.0, 1e-4)
        np.testing.assert_allclose(hists[0], expected0, atol=1e-15)

    def test_all_zero_image_becomes_uniform(self, tmp_path):
        img_path, lab_path = self._fixture(tmp_path)
        hists, _ = load_mnist(img_path, lab_path, digit=7, count=3, delta=1e-4)
        uniform = entot.floor_histogram(np.full(4, 0.25), 1e-4)
        np.testing.assert_allclose(hists[1], uniform, atol=1e-15)

    def test_cost_is_normalized_pixel_distance(self, tmp_path):
        img_path, lab_path = self._fixture(tmp_path)
        _, cost = load_mnist(img_path, lab_path, digit=7, count=1)
        # 2x2 pixel grid: farthest pair is the diagonal, distance^2 = 2.
        points = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        expected = entot.cost_matrix(points)
        np.testing.assert_allclose(cost, expected, atol=1e-15)
        assert cost.max() == 1.0

    def test_raster_cost_is_not_monge(self, tmp_path):
        # A row-major pixel grid wraps from the end of one row to the start
        # of the next, so exact_ot keeps the LP for image costs.
        img_path, lab_path = self._fixture(tmp_path)
        _, cost = load_mnist(img_path, lab_path, digit=7, count=1)
        assert not entot._is_monge(cost)

    @pytest.mark.parametrize(
        "rows, cols", [(2, 2), (3, 4), (4, 3), (2, 5), (5, 2), (14, 14), (13, 28), (1, 6), (6, 1)]
    )
    def test_raster_shape_is_read_back_from_the_cost(self, rows, cols):
        # A run reads its images once; the grid's shape comes back from the
        # dense cost. One row and one column are the same cost, read as (1, d).
        dense = entot.GridCost(rows, cols).dense
        got = harness._raster_shape(dense)
        assert got == ((1, rows * cols) if 1 in (rows, cols) else (rows, cols))
        np.testing.assert_array_equal(entot.GridCost(*got).dense, dense)

    def test_not_enough_images_of_digit(self, tmp_path):
        img_path, lab_path = self._fixture(tmp_path)
        with pytest.raises(ValueError, match="found only 1"):
            load_mnist(img_path, lab_path, digit=3, count=2)

    @pytest.mark.parametrize("count", [0, -1, 2.5])
    def test_count_must_be_a_positive_integer(self, tmp_path, count):
        img_path, lab_path = self._fixture(tmp_path)
        with pytest.raises(ValueError, match=f"^count must be an integer >= 1, got {count}$"):
            load_mnist(img_path, lab_path, digit=7, count=count)

    def test_count_mismatch_between_files(self, tmp_path):
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        _write_idx_images(img_path, np.zeros((3, 2, 2), dtype=np.uint8))
        _write_idx_labels(lab_path, np.array([1, 2]))
        with pytest.raises(IdxFormatError, match="3 images but .* 2 labels"):
            load_mnist(img_path, lab_path, digit=1, count=1)

    def test_bad_image_magic(self, tmp_path):
        img_path = tmp_path / "images.idx"
        img_path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\0" * 4)
        lab_path = tmp_path / "labels.idx"
        _write_idx_labels(lab_path, np.array([1]))
        with pytest.raises(IdxFormatError, match="0xdeadbeef.*expected 0x00000803"):
            load_mnist(img_path, lab_path, digit=1, count=1)

    def test_bad_label_magic(self, tmp_path):
        img_path = tmp_path / "images.idx"
        _write_idx_images(img_path, np.zeros((1, 2, 2), dtype=np.uint8))
        lab_path = tmp_path / "labels.idx"
        lab_path.write_bytes(struct.pack(">II", 0x00000803, 1) + b"\1")
        with pytest.raises(IdxFormatError, match="expected 0x00000801"):
            load_mnist(img_path, lab_path, digit=1, count=1)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_images_from_a_pipe(self, tmp_path):
        # A pipe has no size; the reader must not need one.
        img_path, lab_path = self._fixture(tmp_path)
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as writer:
            writer.write(img_path.read_bytes())
        try:
            piped, _ = load_mnist(f"/dev/fd/{read_end}", lab_path, digit=7, count=2)
        finally:
            os.close(read_end)
        direct, _ = load_mnist(img_path, lab_path, digit=7, count=2)
        np.testing.assert_array_equal(piped, direct)

    def test_truncated_body_names_path_and_bytes(self, tmp_path):
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        _write_idx_labels(lab_path, np.array([1, 1]))
        # Two images of 2x2 with only one present, then a header whose byte
        # count (2**63) is too large to ask read() for.
        for shape, body, needed in [((2, 2, 2), 4, 8), ((2**31, 2**16, 2**16), 16, 2**63)]:
            img_path.write_bytes(struct.pack(">IIII", 0x00000803, *shape) + b"\0" * body)
            with pytest.raises(IdxFormatError, match=f"needed {needed} bytes, got {body}"):
                load_mnist(img_path, lab_path, digit=1, count=1)
            with pytest.raises(IdxFormatError, match="images.idx"):
                load_mnist(img_path, lab_path, digit=1, count=1)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.dataset == "gaussians"
        assert cfg.m == 10
        assert cfg.d == 100
        assert cfg.family == "cycle"
        assert cfg.epoch_len is None
        assert cfg.measure_walltime is False
        assert cfg.out is None

    def test_string_coercion(self):
        cfg = ExperimentConfig.from_dict(
            {"m": "6", "gamma": "0.5", "measure_walltime": "yes", "epoch_len": "7"}
        )
        assert cfg.m == 6
        assert cfg.gamma == 0.5
        assert cfg.measure_walltime is True
        assert cfg.epoch_len == 7

    def test_epoch_len_static_means_none(self):
        for token in ("static", "none", "inf", "STATIC"):
            cfg = ExperimentConfig.from_dict({"epoch_len": token})
            assert cfg.epoch_len is None

    def test_fractional_float_for_integer_key_rejected(self):
        with pytest.raises(ValueError, match=r"cannot parse int m=5\.5"):
            ExperimentConfig.from_dict({"m": 5.5})
        with pytest.raises(ValueError, match="cannot parse int m='5.5'"):
            ExperimentConfig.from_dict({"m": "5.5"})
        assert ExperimentConfig.from_dict({"m": 5.0}).m == 5

    @pytest.mark.parametrize(
        "key", [key for key, (kind, _) in harness.CONFIG_TYPES.items() if kind is float]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected_naming_the_key(self, key, value):
        for raw in (value, float(value)):
            with pytest.raises(ValueError, match=f"^{key} must be finite, got "):
                harness.config_value(key, raw)
            with pytest.raises(ValueError, match=f"^{key} must be finite, got "):
                ExperimentConfig.from_dict({key: raw})

    def test_non_finite_epoch_len_means_static(self):
        # An integer key: 'inf' keeps meaning a static graph, and a typed
        # infinity is no integer.
        assert harness.config_value("epoch_len", "inf") is None
        with pytest.raises(ValueError, match="cannot parse int epoch_len=inf"):
            harness.config_value("epoch_len", float("inf"))

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            ExperimentConfig.from_dict({"measure_walltime": "maybe"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_dict({"iterations": 5})

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="dataset"):
            ExperimentConfig.from_dict({"dataset": "cifar"})

    def test_mnist_requires_paths(self):
        with pytest.raises(ValueError, match="mnist_images"):
            ExperimentConfig.from_dict({"dataset": "mnist"})

    def test_to_dict_round_trip(self):
        cfg = ExperimentConfig.from_dict({"m": 4, "gamma": 0.2})
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestLoadConfig:
    def test_parses_values_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\n"
            "\n"
            "m = 5\n"
            "gamma = 0.02   # inline comment\n"
            "family = er\n"
        )
        raw = load_config(path)
        assert raw == {"m": "5", "gamma": "0.02", "family": "er"}

    def test_error_names_line_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = 5\nnot a pair\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2: expected 'key = value'"):
            load_config(path)

    def test_key_set_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = 3\ngamma = 0.1\n  m=4   # again\n")
        with pytest.raises(ValueError, match=r"^.*run\.cfg:3: key 'm' is already set on line 1$"):
            load_config(path)

    def test_feeds_from_dict(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = 3\nd = 8\nepoch_len = static\n")
        cfg = ExperimentConfig.from_dict(load_config(path))
        assert (cfg.m, cfg.d, cfg.epoch_len) == (3, 8, None)


def _small_config(**overrides):
    base = {
        "m": 3,
        "d": 6,
        "family": "cycle",
        "seed": 5,
        "gamma": 0.05,
        "r": 0.01,
        "n_iters": 40,
        "record_every": 10,
        "delta": 1e-4,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestRunExperiment:
    def test_rows_and_histograms(self):
        result = run_experiment(_small_config())
        assert [row.iteration for row in result.rows] == [0, 10, 20, 30, 39]
        assert result.histograms.shape == (3, 6)
        np.testing.assert_allclose(result.histograms.sum(axis=1), 1.0, atol=1e-9)
        assert result.histograms.min() >= 0.0
        assert result.out_dir is None

    def test_one_exact_transport_per_node_per_record_plus_reference(self, monkeypatch):
        # The benchmark checks exactly this count when it traces exact_ot.
        calls = []
        solve = entot.exact_ot

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(entot, "exact_ot", counting)
        cfg = _small_config()
        result = run_experiment(cfg)
        assert len(calls) == cfg.m * (len(result.rows) + 1)

    def test_manifest_contents(self):
        result = run_experiment(_small_config())
        manifest = result.manifest
        assert manifest["objective_mode"] == "gap"
        assert manifest["csv_columns"] == [
            "iteration",
            "objective_gap",
            "consensus",
            "wall_time",
        ]
        assert manifest["config"]["m"] == 3
        derived = manifest["derived"]
        bounds = adom.SpectralBounds(
            derived["lambda_min_plus"], derived["lambda_max"]
        )
        params = adom.derive_params(0.01, 0.05, bounds)
        assert derived["alpha"] == params.alpha
        assert derived["eta"] == params.eta
        assert derived["theta"] == params.theta
        assert derived["sigma"] == params.sigma
        assert derived["tau"] == params.tau
        assert isinstance(manifest["git"], str) and manifest["git"]

    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "run"
        result = run_experiment(_small_config(out=str(out)))
        assert result.out_dir == out
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "iteration,objective_gap,consensus,wall_time"
        assert len(lines) == 1 + len(result.rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest == result.manifest
        saved = np.load(out / "histograms.npy")
        np.testing.assert_array_equal(saved, result.histograms)

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        out = tmp_path / "run"
        result = run_experiment(_small_config(out=str(out)))
        lines = (out / "metrics.csv").read_text().splitlines()[1:]
        for line, row in zip(lines, result.rows):
            it, gap, cons, wall = line.split(",")
            assert int(it) == row.iteration
            assert float(gap) == row.objective_gap
            assert float(cons) == row.consensus
            assert float(wall) == row.wall_time

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # A negative gap, an infinite consensus (mean_pairwise_sq_dist can
        # return one) and a negative zero need no quoting either.
        rows = [
            harness.MetricsRow(0, 0.25, 1.5e-300, 0.0),
            harness.MetricsRow(10, -3.0000000000000004e-05, math.inf, -0.0),
            harness.MetricsRow(20, -0.0, 7.0, 12.5),
        ]
        path = tmp_path / "metrics.csv"
        harness._write_csv(rows, path)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(harness.CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [row.iteration, repr(row.objective_gap), repr(row.consensus), repr(row.wall_time)]
            )
        assert path.read_bytes() == buffer.getvalue().encode()
        assert path.read_text().splitlines()[2] == "10,-3.0000000000000004e-05,inf,-0.0"

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(_small_config(out=str(out_a)))
        run_experiment(_small_config(out=str(out_b)))
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        hist_a = np.load(out_a / "histograms.npy")
        hist_b = np.load(out_b / "histograms.npy")
        np.testing.assert_array_equal(hist_a, hist_b)

    def test_walltime_zero_by_default_and_measured_on_request(self):
        silent = run_experiment(_small_config())
        assert all(row.wall_time == 0.0 for row in silent.rows)
        timed = run_experiment(_small_config(measure_walltime="true"))
        assert timed.rows[-1].wall_time > 0.0

    def test_gap_stays_above_exactness_floor(self):
        # Identical specs make the analytic reference exactly optimal, so
        # the gap can only dip below zero by numerical error; what remains
        # is the entropic smoothing bias, bounded by 2 gamma ln d.
        cfg = _small_config(
            mean_low=0.5, mean_high=0.5, std_low=0.2, std_high=0.2, n_iters=200
        )
        result = run_experiment(cfg)
        for row in result.rows:
            assert row.objective_gap >= -1e-6
            assert row.consensus == 0.0
        assert result.rows[-1].objective_gap <= 2 * 0.05 * np.log(6)

    def test_mnist_mode_reports_raw_value(self, tmp_path):
        images = np.array(
            [
                [[10, 20], [30, 40]],
                [[40, 30], [20, 10]],
                [[1, 2], [3, 4]],
            ]
        )
        labels = np.array([7, 7, 1])
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        _write_idx_images(img_path, images)
        _write_idx_labels(lab_path, labels)
        cfg = ExperimentConfig.from_dict(
            {
                "dataset": "mnist",
                "mnist_images": str(img_path),
                "mnist_labels": str(lab_path),
                "digit": 7,
                "m": 2,
                "family": "complete",
                "gamma": 0.1,
                "r": 0.05,
                "n_iters": 15,
                "record_every": 5,
            }
        )
        result = run_experiment(cfg)
        assert result.manifest["objective_mode"] == "value"
        assert [row.iteration for row in result.rows] == [0, 5, 10, 14]
        for row in result.rows:
            assert row.objective_gap >= 0.0
        assert result.histograms.shape == (2, 4)

    def test_raster_run_takes_the_grid_paths_once_per_call(self, tmp_path, monkeypatch):
        # Wrapped where the benchmark's spans wrap them: the oracle method on
        # the class and exact_ot on the module. Every call of either grid
        # path must pass through, in the counts the benchmark checks.
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(5, 3, 4))
        labels = np.array([7, 7, 1, 7, 7])
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        _write_idx_images(img_path, images)
        _write_idx_labels(lab_path, labels)
        oracle_calls, ot_costs = [], []
        grad_conj_stack = entot.WassersteinDualOracle.grad_conj_stack
        exact_ot = entot.exact_ot

        def traced_grad(oracle, z_stack):
            oracle_calls.append(oracle.cost)
            return grad_conj_stack(oracle, z_stack)

        def traced_ot(p, q, cost):
            ot_costs.append(cost)
            return exact_ot(p, q, cost)

        monkeypatch.setattr(entot.WassersteinDualOracle, "grad_conj_stack", traced_grad)
        monkeypatch.setattr(entot, "exact_ot", traced_ot)
        cfg = ExperimentConfig.from_dict(
            {
                "dataset": "mnist",
                "mnist_images": str(img_path),
                "mnist_labels": str(lab_path),
                "digit": 7,
                "m": 3,
                "family": "complete",
                "gamma": 0.05,
                "r": 0.01,
                "n_iters": 12,
                "record_every": 5,
            }
        )
        result = run_experiment(cfg)
        assert len(result.rows) == 4
        assert len(oracle_calls) == cfg.n_iters + 1
        assert len(ot_costs) == cfg.m * len(result.rows)
        for cost in oracle_calls + ot_costs:
            assert isinstance(cost, entot.GridCost) and cost.shape == (3, 4)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_raster_run_reads_images_from_a_pipe(self, tmp_path):
        # The grid comes from what load_mnist read, not from a second read.
        images = np.arange(5 * 2 * 3).reshape(5, 2, 3) + 1
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        _write_idx_images(img_path, images)
        _write_idx_labels(lab_path, np.array([7, 7, 1, 7, 7]))
        raw = {
            "dataset": "mnist", "mnist_labels": str(lab_path), "digit": 7, "m": 2,
            "family": "complete", "gamma": 0.05, "r": 0.01, "n_iters": 6, "record_every": 5,
        }
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as writer:
            writer.write(img_path.read_bytes())
        try:
            piped = run_experiment(
                ExperimentConfig.from_dict(dict(raw, mnist_images=f"/dev/fd/{read_end}"))
            )
        finally:
            os.close(read_end)
        direct = run_experiment(ExperimentConfig.from_dict(dict(raw, mnist_images=str(img_path))))
        assert piped.rows == direct.rows
        np.testing.assert_array_equal(piped.histograms, direct.histograms)

    def test_one_graph_per_iteration_plus_one_per_epoch(self, monkeypatch):
        # The benchmark wraps netgraph.laplacian_from_edges as a module
        # attribute and requires exactly n_iters + epochs calls on every
        # traced run: one graph per iteration from the solver's schedule and
        # one per epoch from spectral_bounds.
        calls = []
        build = netgraph.laplacian_from_edges

        def counted(m, edges):
            calls.append(m)
            return build(m, edges)

        monkeypatch.setattr(netgraph, "laplacian_from_edges", counted)
        cfg = _small_config(m=5, family="erdos_renyi", p=0.5, epoch_len=3, n_iters=10)
        run_experiment(cfg)
        epochs = -(-cfg.n_iters // cfg.epoch_len)
        assert len(calls) == cfg.n_iters + epochs

    @pytest.mark.parametrize(
        "family, epoch_len, epochs",
        [
            ("erdos_renyi", 3, 4),
            ("erdos_renyi", 1, 10),
            ("erdos_renyi", None, 1),
            # spectral_bounds reads only epoch 0 of a relabeled family; the
            # solver loop draws the rest, each once.
            ("cycle", 3, 4),
        ],
    )
    def test_each_epoch_drawn_once_per_run(self, monkeypatch, family, epoch_len, epochs):
        draws = []
        epoch_rng = netgraph._epoch_rng

        def spy(schedule, epoch):
            draws.append(epoch)
            return epoch_rng(schedule, epoch)

        monkeypatch.setattr(netgraph, "_epoch_rng", spy)
        run_experiment(
            _small_config(m=5, family=family, p=0.5, epoch_len=epoch_len, n_iters=10)
        )
        assert sorted(draws) == list(range(epochs))

    def test_missing_mnist_file_names_path(self, tmp_path):
        lab_path = tmp_path / "labels.idx"
        _write_idx_labels(lab_path, np.array([1]))
        cfg = ExperimentConfig.from_dict(
            {
                "dataset": "mnist",
                "mnist_images": str(tmp_path / "absent.idx"),
                "mnist_labels": str(lab_path),
            }
        )
        with pytest.raises(FileNotFoundError, match="absent.idx"):
            run_experiment(cfg)

    def test_divergence_still_writes_partial_csv(self, tmp_path, monkeypatch):
        records = [
            adom.TrajectoryRecord(
                iteration=0,
                x=np.full((3, 6), 1.0 / 6.0),
                recovered=np.full((3, 6), 1.0 / 6.0),
                consensus=0.0,
                wall_time=0.0,
            ),
            adom.TrajectoryRecord(
                iteration=10,
                x=np.full((3, 6), 1.0 / 6.0),
                recovered=np.full((3, 6), 1.0 / 6.0),
                consensus=0.5,
                wall_time=0.0,
            ),
        ]

        def boom(schedule, oracle, params, n_iters, record_every=1):
            err = adom.NumericalDivergenceError("z", 11)
            err.records = records
            raise err

        monkeypatch.setattr(adom, "run", boom)
        out = tmp_path / "run"
        with pytest.raises(adom.NumericalDivergenceError, match="iteration 11"):
            run_experiment(_small_config(out=str(out)))
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "iteration,objective_gap,consensus,wall_time"
        assert len(lines) == 3
        assert lines[2].startswith("10,")
        # The manifest is written before the run starts, so it survives too.
        assert (out / "manifest.json").exists()
        assert not (out / "histograms.npy").exists()


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_workloads()


class TestBenchmarkWorkloads:
    @pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
    def test_oracle_never_leaves_the_scaling_form(self, tmp_path, kernel_calls, workload):
        # Every oracle call of a benchmark run, at the benchmark's own
        # length, takes the Gibbs-kernel form: a change to its span guard
        # that sent them to the log domain would slow the benchmark without
        # failing anything else. The widest span these runs reach is about
        # 136, against a limit of 600.
        raw = WORKLOADS.config(workload, 0, "bench", tmp_path)
        run_experiment(ExperimentConfig.from_dict(raw))
        assert kernel_calls == ["_scaling_conj_grad_stack"] * (raw["n_iters"] + 1)

    def test_grid2d_takes_one_solve_per_transport_lp(self, tmp_path, monkeypatch):
        # Every metrics LP of the raster workload is certified on its local
        # arcs, so none pays for a second, full solve, and every flow passes
        # the flow check, so none pays for a rounding onto its marginals.
        # The run's LPs fall on two arc sets, the larger one first: no
        # smaller set's basis can be lifted onto it, and the larger set's
        # cannot start the smaller, so the first LP on each is cold. Every
        # other starts from a basis its arc set kept.
        highs = entot._highs
        arcs = []
        warm = []

        def spy(c, a_eq, b_eq, basis=None):
            arcs.append(c.shape[0])
            warm.append(basis is not None)
            return highs(c, a_eq, b_eq, basis)

        def rounded_cost(*args):
            raise AssertionError("a grid2d flow failed the flow check")

        exact_ot = entot.exact_ot
        lps = []

        def counting(*args):
            lps.append(exact_ot(*args))
            return lps[-1]

        monkeypatch.setattr(entot, "_highs", spy)
        monkeypatch.setattr(entot, "_rounded_cost", rounded_cost)
        monkeypatch.setattr(entot, "exact_ot", counting)
        raw = WORKLOADS.config("grid2d", 0, "bench", tmp_path)
        run_experiment(ExperimentConfig.from_dict(raw))
        records = WORKLOADS.records(raw["n_iters"], raw["record_every"])
        assert len(lps) == raw["m"] * records
        full = entot.GridCost(WORKLOADS.GRID_SIDE, WORKLOADS.GRID_SIDE).arc_cost.shape[0]
        assert len(arcs) == len(lps)
        assert max(arcs) < full
        assert len(set(arcs)) == 2
        assert warm.count(False) == 2 and warm.count(True) == 14


@pytest.fixture(scope="module")
def grid2d_pairs(tmp_path_factory):
    """The marginals of every ``exact_ot`` call of the raster workload's
    instances 0-3 at bench length: one list of (p, q) per instance, in call
    order."""
    exact_ot = entot.exact_ot
    pairs = []
    with pytest.MonkeyPatch.context() as patch:
        for instance in range(4):
            calls = []

            def recording(p, q, cost, calls=calls):
                calls.append((p.copy(), q.copy()))
                return exact_ot(p, q, cost)

            patch.setattr(entot, "exact_ot", recording)
            raw = WORKLOADS.config("grid2d", instance, "bench", tmp_path_factory.mktemp("grid2d"))
            run_experiment(ExperimentConfig.from_dict(raw))
            pairs.append(calls)
    return pairs


def _raster():
    return entot.GridCost(WORKLOADS.GRID_SIDE, WORKLOADS.GRID_SIDE)


class TestWarmStartedGridLPs:
    """The raster workload's LPs, replayed in call order on one GridCost,
    each starting from a basis the grid kept (the latest on its arc set with
    the same source, else the set's first, else a smaller set's, lifted),
    against cold solves on fresh GridCosts, the slow reference."""

    def test_warm_values_match_cold_solves(self, grid2d_pairs):
        for pairs in grid2d_pairs:
            grid = _raster()
            for p, q in pairs:
                warm = entot.exact_ot(p, q, grid)
                cold = entot.exact_ot(p, q, _raster())
                assert abs(warm - cold) <= 1e-12 * cold

    def test_two_grids_fed_the_same_pairs_agree_bit_for_bit(self, grid2d_pairs):
        for pairs in grid2d_pairs:
            grids = _raster(), _raster()
            first, second = ([entot.exact_ot(p, q, grid) for p, q in pairs] for grid in grids)
            assert first == second

    def test_a_solve_is_cold_only_without_a_basis_to_start_from(
        self, grid2d_pairs, monkeypatch
    ):
        # The arc sets nest, so a set with fewer arcs is a smaller one. A
        # solve is cold only when neither its own set nor a smaller one has
        # kept a basis, and a cold solve takes the options and path of a
        # fresh GridCost's first solve, so its value is that one bit for bit.
        highs = entot._highs
        solves = []

        def spy(c, a_eq, b_eq, basis=None):
            solves.append((c.shape[0], basis is not None))
            return highs(c, a_eq, b_eq, basis)

        for pairs in grid2d_pairs:
            grid = _raster()
            seen = set()
            for p, q in pairs:
                solves.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(entot, "_highs", spy)
                    value = entot.exact_ot(p, q, grid)
                ((arcs, warm),) = solves
                assert warm == any(kept <= arcs for kept in seen)
                if not warm:
                    assert value == entot.exact_ot(p, q, _raster())
                seen.add(arcs)
            assert len(seen) == 2

    @pytest.mark.parametrize("instance", [1, 2])
    def test_first_lp_on_the_larger_set_starts_lifted(
        self, grid2d_pairs, monkeypatch, instance
    ):
        # These runs solve on the smaller arc set first. The first LP on the
        # larger set starts from the smaller set's basis, lifted, which
        # HiGHS takes, and its value is certified and a cold solve's.
        highs, lifted_basis = entot._highs, entot._lifted_basis
        solves, lifted = [], []

        def spy(c, a_eq, b_eq, basis=None):
            solves.append((c.shape[0], basis))
            return highs(c, a_eq, b_eq, basis)

        def lifting(basis, inner):
            lifted.append(lifted_basis(basis, inner))
            return lifted[-1]

        monkeypatch.setattr(entot, "_highs", spy)
        monkeypatch.setattr(entot, "_lifted_basis", lifting)
        grid = _raster()
        for call, (p, q) in enumerate(grid2d_pairs[instance]):
            value = entot.exact_ot(p, q, grid)
            arcs, basis = solves[-1]
            if arcs > solves[0][0]:
                break
        else:
            pytest.fail("no LP on a larger arc set")
        assert call > 0 and len(solves) == call + 1
        assert len(lifted) == 1 and basis is lifted[0]
        cold = entot.exact_ot(p, q, _raster())
        assert abs(value - cold) <= 1e-12 * cold

    def test_replaying_the_same_pairs_keeps_no_new_bases(self, grid2d_pairs):
        # One basis per arc set and source, plus each set's first: the
        # store cannot grow with the number of LPs.
        for pairs in grid2d_pairs:
            grid = _raster()
            counts = []
            for _ in range(2):
                for p, q in pairs:
                    entot.exact_ot(p, q, grid)
                counts.append({radius: len(kept) for radius, kept in grid._bases.items()})
            assert counts[0] == counts[1]
            sources = len({p.tobytes() for p, _ in pairs})
            assert all(count <= sources + 1 for count in counts[0].values())


class TestGitDescribe:
    def test_returns_nonempty_string(self):
        label = git_describe()
        assert isinstance(label, str)
        assert label
