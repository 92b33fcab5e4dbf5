import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from netbary import adom, entot
from netbary.netgraph import (
    NetworkSchedule,
    SpectralBounds,
    laplacian_from_edges,
    schedule_laplacian,
    spectral_bounds,
)

PAIR_BOUNDS = SpectralBounds(lambda_min_plus=2.0, lambda_max=2.0)


def _wb_setup(rng, m, d, gamma, delta=1e-6):
    marginals = np.stack(
        [entot.floor_histogram(rng.dirichlet(np.ones(d)), delta) for _ in range(m)]
    )
    cost = entot.cost_matrix(np.sort(rng.random(d)))
    return entot.wb_dual_oracle(marginals, cost, gamma)


class _CountingOracle(adom.DualOracle):
    def __init__(self, inner):
        self.inner = inner
        self.gamma = inner.gamma
        self.dim = inner.dim
        self.stack_calls = 0

    def grad_conj_stack(self, z_stack):
        self.stack_calls += 1
        return self.inner.grad_conj_stack(z_stack)


class TestQuadraticOracle:
    def test_gradient_is_center_plus_scaled_point(self):
        centers = np.array([[1.0, -2.0], [0.5, 0.0]])
        oracle = oracles.QuadraticOracle(gamma=0.5, dim=2, centers=centers)
        z_stack = np.array([[0.0, 1.0], [0.2, -0.4]])
        np.testing.assert_allclose(
            oracle.grad_conj_stack(z_stack), [[1.0, 0.0], [0.9, -0.8]], atol=1e-15
        )

    def test_stack_matches_per_node_loop(self):
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((4, 3))
        oracle = oracles.QuadraticOracle(gamma=2.0, dim=3, centers=centers)
        z_stack = rng.standard_normal((4, 3))
        loop = np.stack([centers[i] + z_stack[i] / 2.0 for i in range(4)])
        np.testing.assert_array_equal(oracle.grad_conj_stack(z_stack), loop)

    def test_centerless_oracle_scales_only(self):
        oracle = oracles.QuadraticOracle(gamma=4.0, dim=2)
        z_stack = np.array([[2.0, -8.0], [0.0, 4.0]])
        np.testing.assert_array_equal(oracle.grad_conj_stack(z_stack), z_stack / 4.0)

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="gamma"):
            oracles.QuadraticOracle(gamma=0.0, dim=2)
        with pytest.raises(ValueError, match="centers"):
            oracles.QuadraticOracle(gamma=1.0, dim=2, centers=np.zeros((3, 5)))

    def test_rejects_stack_of_the_wrong_shape(self):
        # A (1, 2) stack would broadcast against (3, 2) centers.
        oracle = oracles.QuadraticOracle(gamma=1.0, dim=2, centers=np.zeros((3, 2)))
        for shape in [(1, 2), (3, 3), (6,)]:
            with pytest.raises(ValueError, match=rf"{re.escape(str(shape))} != \(3, 2\)"):
                oracle.grad_conj_stack(np.zeros(shape))
        centerless = oracles.QuadraticOracle(gamma=1.0, dim=2)
        with pytest.raises(ValueError, match=r"\(4, 3\) != \(m, 2\)"):
            centerless.grad_conj_stack(np.zeros((4, 3)))


class TestSmoothedOracle:
    def test_adds_linear_term(self):
        rng = np.random.default_rng(1)
        oracle = oracles.QuadraticOracle(gamma=0.5, dim=3)
        grad = oracles.smoothed_oracle(oracle, r=0.25)
        z_stack = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            grad(z_stack), oracle.grad_conj_stack(z_stack) + 0.25 * z_stack,
            atol=1e-15,
        )

    def test_quadratic_case_matches_envelope_conjugate(self):
        # For (gamma/2)|x|^2 the smoothed primal is c|x|^2/2 with
        # c = gamma/(1 + r gamma), whose conjugate gradient is z/c.
        gamma, r = 0.8, 0.3
        oracle = oracles.QuadraticOracle(gamma=gamma, dim=2)
        grad = oracles.smoothed_oracle(oracle, r=r)
        z_stack = np.array([[1.0, -2.0], [3.0, 0.5]])
        expected = z_stack * (1.0 + r * gamma) / gamma
        np.testing.assert_allclose(grad(z_stack), expected, rtol=1e-14)

    def test_step_adds_the_smoothing_term_bit_for_bit(self):
        oracle = _wb_setup(np.random.default_rng(41), 3, 6, 0.05)
        lap = laplacian_from_edges(3, [(0, 1), (1, 2)])
        params = adom.derive_params(r=0.1, gamma=0.05, bounds=PAIR_BOUNDS)
        state = adom.initial_state(3, 6)
        for _ in range(3):
            state = adom.adom_step(state, lap, params, oracle)
            np.testing.assert_array_equal(
                state.x, oracles.smoothed_oracle(oracle, params.r)(state.z_g)
            )

    def test_rejects_nonpositive_r(self):
        oracle = oracles.QuadraticOracle(gamma=1.0, dim=2)
        with pytest.raises(ValueError, match="r"):
            oracles.smoothed_oracle(oracle, r=0.0)


class TestMoreauEnvelopeBounds:
    def test_quadratic_envelope_sandwich_is_tight(self):
        # Closed form c|x|^2/2, c = gamma/(1+r gamma). The lower bound
        # f(x) - r/(2(1+r gamma)) |grad f(x)|^2 holds with equality for
        # quadratics; the upper bound f(x) holds with slack.
        rng = np.random.default_rng(2)
        for gamma in (0.05, 1.0, 7.0):
            for r in (0.001, 0.2, 3.0):
                x = rng.standard_normal(6)
                f = 0.5 * gamma * x @ x
                grad_norm_sq = (gamma**2) * (x @ x)
                envelope = 0.5 * gamma * (x @ x) / (1.0 + r * gamma)
                lower = f - r / (2.0 * (1.0 + r * gamma)) * grad_norm_sq
                assert envelope == pytest.approx(lower, rel=1e-12)
                assert envelope <= f + 1e-15


class TestDeriveParams:
    def test_frozen_closed_form_values(self):
        bounds = SpectralBounds(lambda_min_plus=2.0, lambda_max=4.0)
        got = adom.derive_params(r=0.001, gamma=0.01, bounds=bounds)
        np.testing.assert_allclose(
            [got.alpha, got.eta, got.theta, got.sigma, got.tau],
            [
                5e-4,
                0.4517516926998089,
                0.0024999750002499973,
                0.25,
                0.0002258758463499045,
            ],
            rtol=1e-14,
        )

    def test_recomputed_from_formulas(self):
        bounds = SpectralBounds(lambda_min_plus=0.38, lambda_max=3.7)
        r, gamma = 0.02, 0.3
        got = adom.derive_params(r=r, gamma=gamma, bounds=bounds)
        rg = r * gamma
        assert got.alpha == pytest.approx(r / 2, rel=1e-15)
        assert got.eta == pytest.approx(
            2 * 0.38 * np.sqrt(gamma) / (7 * 3.7 * np.sqrt(r * (1 + rg))), rel=1e-14
        )
        assert got.theta == pytest.approx(gamma / (3.7 * (1 + rg)), rel=1e-14)
        assert got.sigma == pytest.approx(1 / 3.7, rel=1e-15)
        assert got.tau == pytest.approx(
            (0.38 / (7 * 3.7)) * np.sqrt(rg / (1 + rg)), rel=1e-14
        )

    def test_eta_survives_an_overflowing_r_times_one_plus_r_gamma(self):
        # r (1 + rg) = 2e308 leaves the doubles, but eta, about 2.02e-309,
        # is a positive subnormal.
        got = adom.derive_params(1e308, 1e-308, SpectralBounds(1.0, 1.0))
        want = 2.0 * math.sqrt(1e-308) / (7.0 * math.sqrt(1e308) * math.sqrt(2.0))
        assert 0.0 < got.eta and math.isclose(got.eta, want, rel_tol=1e-12)
        assert got.theta == 5e-309

    @pytest.mark.parametrize(
        "r, gamma",
        [(0.001, 0.01), (0.05, 0.01), (0.02, 0.3), (1e-6, 1e3), (3.0, 7.0), (1e150, 1e-200)],
    )
    def test_eta_is_bit_equal_to_the_unsplit_root_for_finite_products(self, r, gamma):
        bounds = SpectralBounds(lambda_min_plus=0.38, lambda_max=3.7)
        want = 2.0 * 0.38 * math.sqrt(gamma) / (7.0 * 3.7 * math.sqrt(r * (1.0 + r * gamma)))
        assert adom.derive_params(r, gamma, bounds).eta.hex() == want.hex()

    def test_rejects_nonpositive_inputs(self):
        # nan and inf fail the check too, naming the parameter.
        for bad in ("r", "gamma"):
            for value in (0.0, -1.0, np.nan, np.inf):
                args = {"r": 0.1, "gamma": 0.1, bad: value}
                message = f"^{bad} must be positive and finite, got {value}$"
                with pytest.raises(ValueError, match=message):
                    adom.derive_params(bounds=PAIR_BOUNDS, **args)

    def test_baseline_parameters_coincide_under_substitution(self):
        # L = 1/r and mu = gamma/(1 + r gamma) turn the generic step sizes
        # into the primary ones.
        for r in np.logspace(-4, -1, 7):
            for gamma in np.logspace(-4, -1, 7):
                bounds = SpectralBounds(lambda_min_plus=0.382, lambda_max=4.0)
                ours = adom.derive_params(r=r, gamma=gamma, bounds=bounds)
                base = oracles.derive_baseline_params(
                    smoothness=1.0 / r,
                    strong_convexity=gamma / (1.0 + r * gamma),
                    bounds=bounds,
                )
                np.testing.assert_allclose(
                    [ours.r, ours.gamma, ours.alpha, ours.eta, ours.theta,
                     ours.sigma, ours.tau],
                    [base.r, base.gamma, base.alpha, base.eta, base.theta,
                     base.sigma, base.tau],
                    rtol=1e-12,
                )

    def test_param_dataclass_validation(self):
        with pytest.raises(ValueError, match="tau"):
            adom.AdomParams(
                r=0.1, gamma=0.1, alpha=0.05, eta=0.1, theta=0.1, sigma=0.5,
                tau=1.5, bounds=PAIR_BOUNDS,
            )
        with pytest.raises(ValueError, match="^eta must be positive and finite, got inf$"):
            adom.AdomParams(
                r=0.1, gamma=0.1, alpha=0.05, eta=np.inf, theta=0.1, sigma=0.5,
                tau=0.5, bounds=PAIR_BOUNDS,
            )
        with pytest.raises(ValueError, match="smoothness"):
            oracles.derive_baseline_params(0.5, 1.0, PAIR_BOUNDS)


class TestStepByHand:
    def test_two_steps_match_scalar_arithmetic(self):
        # m=2, d=1, pair graph; every quantity below is worked out by hand.
        lap = laplacian_from_edges(2, [(0, 1)])
        oracle = oracles.QuadraticOracle(
            gamma=2.0, dim=1, centers=np.array([[1.0], [-3.0]])
        )
        params = adom.AdomParams(
            r=0.5, gamma=2.0, alpha=0.25, eta=0.1, theta=0.2, sigma=0.3,
            tau=0.25, bounds=PAIR_BOUNDS,
        )
        state = adom.initial_state(2, 1)
        state = adom.adom_step(state, lap, params, oracle)
        np.testing.assert_allclose(state.x, [[1.0], [-3.0]], rtol=1e-14)
        np.testing.assert_allclose(state.z, [[-0.12], [0.12]], rtol=1e-14)
        np.testing.assert_allclose(state.z_f, [[-0.8], [0.8]], rtol=1e-14)
        np.testing.assert_allclose(state.momentum, [[0.02], [0.18]], rtol=1e-13)
        state = adom.adom_step(state, lap, params, oracle)
        np.testing.assert_allclose(state.z_g, [[-0.63], [0.63]], rtol=1e-13)
        np.testing.assert_allclose(state.x, [[0.37], [-2.37]], rtol=1e-13)
        np.testing.assert_allclose(state.z, [[-0.26295], [0.26295]], rtol=1e-12)
        np.testing.assert_allclose(state.z_f, [[-1.178], [1.178]], rtol=1e-13)
        np.testing.assert_allclose(state.momentum, [[0.1132], [0.2868]], rtol=1e-12)
        assert state.n == 2

    def test_single_node_reduces_to_conjugate_gradient(self):
        # m=1: the Laplacian is zero, tau keeps z_g = z_f = 0, so the output
        # is exactly the smoothed conjugate gradient at zero forever.
        rng = np.random.default_rng(3)
        q = entot.floor_histogram(rng.dirichlet(np.ones(6)), 1e-6)
        cost = entot.cost_matrix(np.sort(rng.random(6)))
        oracle = entot.wb_dual_oracle(q[None, :], cost, 0.1)
        lap = adom.Laplacian(np.zeros((1, 1)))
        params = adom.derive_params(r=0.05, gamma=0.1, bounds=PAIR_BOUNDS)
        state = adom.initial_state(1, 6)
        for _ in range(5):
            state = adom.adom_step(state, lap, params, oracle)
        expected = entot.dual_grad(q, cost, 0.1, np.zeros(6))
        np.testing.assert_array_equal(state.x[0], expected)


class TestRun:
    def test_exactly_one_oracle_eval_per_iteration(self):
        rng = np.random.default_rng(4)
        inner = oracles.QuadraticOracle(
            gamma=0.5, dim=3, centers=rng.standard_normal((4, 3))
        )
        oracle = _CountingOracle(inner)
        sched = NetworkSchedule(family="cycle", m=4, epoch_len=None, seed=0)
        params = adom.derive_params(
            r=0.1, gamma=0.5, bounds=spectral_bounds(sched, 1)
        )
        adom.run(sched, oracle, params, n_iters=37, record_every=5)
        assert oracle.stack_calls == 37

    def test_exactly_two_laplacian_applies_per_iteration(self, monkeypatch):
        from netbary import netgraph

        calls = {"n": 0}
        original = netgraph.Laplacian.apply

        def counted(self, stack):
            calls["n"] += 1
            return original(self, stack)

        monkeypatch.setattr(netgraph.Laplacian, "apply", counted)
        rng = np.random.default_rng(5)
        oracle = oracles.QuadraticOracle(
            gamma=0.5, dim=2, centers=rng.standard_normal((3, 2))
        )
        sched = NetworkSchedule(family="cycle", m=3, epoch_len=None, seed=0)
        params = adom.derive_params(
            r=0.1, gamma=0.5, bounds=spectral_bounds(sched, 1)
        )
        adom.run(sched, oracle, params, n_iters=21)
        assert calls["n"] == 42

    def test_oracle_of_another_m_is_refused_before_any_laplacian_apply(self, monkeypatch):
        # Laplacian.apply does not check its stack; the oracle's own shape
        # check refuses the schedule's (4, d) stack at iteration 0.
        from netbary import netgraph

        applies = []
        original = netgraph.Laplacian.apply

        def spy(self, stack):
            applies.append(np.shape(stack))
            return original(self, stack)

        monkeypatch.setattr(netgraph.Laplacian, "apply", spy)
        oracle = _wb_setup(np.random.default_rng(8), m=3, d=5, gamma=0.1)
        sched = NetworkSchedule(family="erdos_renyi", m=4, epoch_len=2, seed=1, p=0.7)
        params = adom.derive_params(r=0.02, gamma=0.1, bounds=spectral_bounds(sched, 10))
        with pytest.raises(ValueError, match=r"^z_stack shape \(4, 5\) != \(3, 5\)$"):
            adom.run(sched, oracle, params, n_iters=10)
        assert applies == []

    def test_record_thinning_includes_last(self):
        rng = np.random.default_rng(6)
        oracle = oracles.QuadraticOracle(
            gamma=0.5, dim=2, centers=rng.standard_normal((3, 2))
        )
        sched = NetworkSchedule(family="cycle", m=3, epoch_len=None, seed=0)
        params = adom.derive_params(
            r=0.1, gamma=0.5, bounds=spectral_bounds(sched, 1)
        )
        traj = adom.run(sched, oracle, params, n_iters=10, record_every=4)
        assert [rec.iteration for rec in traj.records] == [0, 4, 8, 9]

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(7)
        oracle = _wb_setup(rng, m=4, d=5, gamma=0.1)
        sched = NetworkSchedule(family="erdos_renyi", m=4, epoch_len=3, seed=2, p=0.7)
        params = adom.derive_params(
            r=0.02, gamma=0.1, bounds=spectral_bounds(sched, 50)
        )
        a = adom.run(sched, oracle, params, n_iters=50, record_every=10)
        b = adom.run(sched, oracle, params, n_iters=50, record_every=10)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.x, rb.x)
            assert ra.consensus == rb.consensus

    def test_recovered_outputs_are_simplex_points(self):
        rng = np.random.default_rng(8)
        oracle = _wb_setup(rng, m=5, d=7, gamma=0.1)
        sched = NetworkSchedule(family="star", m=5, epoch_len=2, seed=1)
        params = adom.derive_params(
            r=0.05, gamma=0.1, bounds=spectral_bounds(sched, 40)
        )
        traj = adom.run(sched, oracle, params, n_iters=40, record_every=13)
        for rec in traj.records:
            np.testing.assert_allclose(rec.recovered.sum(axis=1), 1.0, atol=1e-12)
            assert rec.recovered.min() >= 0.0
        # At the final record the state still holds the matching z_g, so the
        # smoothing split x = grad + r z_g can be checked against the oracle.
        last = traj.records[-1]
        np.testing.assert_allclose(
            last.recovered, oracle.grad_conj_stack(traj.state.z_g), atol=1e-13
        )
        np.testing.assert_allclose(
            last.x, last.recovered + 0.05 * traj.state.z_g, atol=1e-13
        )

    def test_dual_iterates_stay_zero_sum(self):
        # The z family lives in the zero-node-sum subspace; momentum does not.
        rng = np.random.default_rng(9)
        oracle = _wb_setup(rng, m=5, d=6, gamma=0.05)
        sched = NetworkSchedule(family="mst_of_er", m=5, epoch_len=4, seed=6, p=0.6)
        params = adom.derive_params(
            r=0.01, gamma=0.05, bounds=spectral_bounds(sched, 300)
        )
        state = adom.initial_state(5, 6)
        for n in range(300):
            state = adom.adom_step(
                state, schedule_laplacian(sched, n), params, oracle
            )
            scale = max(1.0, float(np.linalg.norm(state.z)))
            assert np.linalg.norm(state.z.sum(axis=0)) <= 1e-8 * scale
            assert np.linalg.norm(state.z_f.sum(axis=0)) <= 1e-8 * scale
            assert np.linalg.norm(state.z_g.sum(axis=0)) <= 1e-8 * scale

    def test_consensus_decays_at_least_at_certified_rate(self):
        rng = np.random.default_rng(10)
        sched = NetworkSchedule(family="cycle", m=6, epoch_len=None, seed=0)
        bounds = spectral_bounds(sched, 1)
        params = adom.derive_params(r=0.01, gamma=0.05, bounds=bounds)
        oracle = oracles.QuadraticOracle(
            gamma=0.05, dim=4, centers=rng.standard_normal((6, 4))
        )
        traj = adom.run(sched, oracle, params, n_iters=600)
        iters = np.array([rec.iteration for rec in traj.records], dtype=float)
        cons = np.array([rec.consensus for rec in traj.records])
        window = iters >= 100
        slope, intercept = np.polyfit(iters[window], np.log(cons[window]), 1)
        fit = slope * iters[window] + intercept
        resid = np.log(cons[window]) - fit
        r_sq = 1.0 - resid @ resid / np.sum(
            (np.log(cons[window]) - np.log(cons[window]).mean()) ** 2
        )
        assert slope < 0
        assert r_sq >= 0.9
        assert np.exp(slope) <= 1.0 - params.tau

    def test_run_equals_a_loop_of_steps_across_epochs(self):
        # run is a loop over adom_step; its records and final state are the
        # steps' own, byte for byte.
        rng = np.random.default_rng(12)
        oracle = _wb_setup(rng, m=6, d=5, gamma=0.05)
        sched = NetworkSchedule(family="erdos_renyi", m=6, epoch_len=3, seed=8, p=0.5)
        params = adom.derive_params(r=0.01, gamma=0.05, bounds=spectral_bounds(sched, 20))
        traj = adom.run(sched, oracle, params, n_iters=20, record_every=4)
        state = adom.initial_state(6, 5)
        steps = []
        for n in range(20):
            state = adom.adom_step(state, schedule_laplacian(sched, n), params, oracle)
            steps.append(state)
        for name in ("z", "z_f", "z_g", "momentum", "x"):
            assert getattr(traj.state, name).tobytes() == getattr(state, name).tobytes(), name
        assert traj.state.n == state.n == 20
        assert [rec.iteration for rec in traj.records] == [0, 4, 8, 12, 16, 19]
        for rec in traj.records:
            step = steps[rec.iteration]
            assert rec.x.tobytes() == step.x.tobytes()
            assert rec.recovered.tobytes() == (step.x - params.r * step.z_g).tobytes()
            assert rec.consensus == adom.mean_pairwise_sq_dist(step.x)

    def test_validates_iteration_arguments(self):
        oracle = oracles.QuadraticOracle(gamma=1.0, dim=2)
        sched = NetworkSchedule(family="cycle", m=3, epoch_len=None, seed=0)
        params = adom.derive_params(
            r=0.1, gamma=1.0, bounds=spectral_bounds(sched, 1)
        )
        with pytest.raises(ValueError, match="n_iters"):
            adom.run(sched, oracle, params, n_iters=0)
        with pytest.raises(ValueError, match="record_every"):
            adom.run(sched, oracle, params, n_iters=5, record_every=0)


class TestDivergence:
    def test_run_reports_iterate_and_partial_records(self):
        oracle = oracles.QuadraticOracle(
            gamma=1.0, dim=2,
            centers=np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 1.0]]),
        )
        sched = NetworkSchedule(family="cycle", m=3, epoch_len=None, seed=0)
        params = adom.AdomParams(
            r=1.0, gamma=1.0, alpha=0.5, eta=1e160, theta=0.1, sigma=0.25,
            tau=0.5, bounds=SpectralBounds(lambda_min_plus=3.0, lambda_max=3.0),
        )
        with pytest.raises(adom.NumericalDivergenceError) as exc:
            adom.run(sched, oracle, params, n_iters=50)
        err = exc.value
        assert err.iterate in ("grad", "momentum", "z", "z_f")
        assert err.iteration >= 1
        assert len(err.records) >= 1
        assert "non-finite" in str(err)

    def test_infinite_gradient_detected_immediately(self):
        class BadOracle(adom.DualOracle):
            gamma = 1.0
            dim = 2

            def grad_conj_stack(self, z_stack):
                return np.full(z_stack.shape, np.inf)

        lap = laplacian_from_edges(2, [(0, 1)])
        params = adom.derive_params(r=0.1, gamma=1.0, bounds=PAIR_BOUNDS)
        with pytest.raises(adom.NumericalDivergenceError, match="grad"):
            adom.adom_step(adom.initial_state(2, 2), lap, params, BadOracle())


    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_z_g_is_not_hidden_by_the_kernel_guard(self, kernel_calls, bad):
        # z_g's span is nan or infinite, so the oracle falls back to the log
        # domain; the step must still name the gradient.
        oracle = _wb_setup(np.random.default_rng(40), 2, 5, 0.05)
        state = dataclasses.replace(adom.initial_state(2, 5), n=7)
        state.z[0, 2] = bad
        lap = laplacian_from_edges(2, [(0, 1)])
        params = adom.derive_params(r=0.1, gamma=0.05, bounds=PAIR_BOUNDS)
        with np.errstate(invalid="ignore"), pytest.raises(adom.NumericalDivergenceError) as exc:
            adom.adom_step(state, lap, params, oracle)
        assert (exc.value.iterate, exc.value.iteration) == ("grad", 7)
        assert kernel_calls == ["_log_conj_grad_stack"]


# 1.5e308: finite, but the sum of two of them overflows.
_BIG = 1.5e308


class _ScriptedLaplacian:
    """Stands in for every iteration's Laplacian: its k-th application
    returns ``script[k]`` and zeros when k is not in the script."""

    def __init__(self, script):
        self.m = 2
        self.script = script
        self.applies = 0

    def apply(self, stack):
        out = self.script.get(self.applies, np.zeros((2, 2)))
        self.applies += 1
        return out


class _ScriptedOracle(adom.DualOracle):
    """Its k-th evaluation returns ``script[k]``, else -z_stack, which
    cancels the r z_g smoothing term at r = 1: the gradient is exactly 0."""

    gamma = 1.0
    dim = 2

    def __init__(self, script):
        self.script = script
        self.calls = 0

    def grad_conj_stack(self, z_stack):
        out = self.script.get(self.calls, -z_stack)
        self.calls += 1
        return out


def _at_00(value):
    out = np.zeros((2, 2))
    out[0, 0] = value
    return out


def _scripted_run(monkeypatch, oracle_script, lap_script, eta):
    lap = _ScriptedLaplacian(lap_script)
    monkeypatch.setattr(adom, "schedule_laplacian", lambda schedule, n: lap)
    params = adom.AdomParams(
        r=1.0, gamma=1.0, alpha=0.5, eta=eta, theta=1.0, sigma=1.0, tau=0.1,
        bounds=PAIR_BOUNDS,
    )
    sched = NetworkSchedule(family="complete", m=2)
    return lambda n_iters: adom.run(sched, _ScriptedOracle(oracle_script), params, n_iters)


class TestSumFiniteness:
    """run tests finiteness once per step, on the sum of the four iterates,
    and names the iterate only when that sum is not finite."""

    # Each case makes its iterate the first non-finite one at iteration 1,
    # in the order grad, momentum, z, z_f. Laplacian applications 0 and 1
    # belong to iteration 0, 2 and 3 to iteration 1.
    CASES = {
        "grad": ({1: _at_00(np.nan)}, {}),
        # The first application's output reaches momentum and z; momentum
        # is named first.
        "momentum": ({}, {2: _at_00(np.nan)}),
        # Whatever reaches z through the Laplacian reaches momentum too, so
        # z goes non-finite on its own only by overflow: iteration 0 leaves
        # z = -BIG and z_f = BIG, and z_g - z overflows at iteration 1.
        "z": ({}, {0: _at_00(-_BIG), 1: _at_00(-_BIG)}),
        "z_f": ({}, {3: _at_00(np.nan)}),
    }

    @pytest.mark.parametrize("iterate", list(CASES))
    def test_names_the_iterate_with_partial_records(self, monkeypatch, iterate):
        oracle_script, lap_script = self.CASES[iterate]
        run = _scripted_run(monkeypatch, oracle_script, lap_script, eta=1.0)
        with pytest.raises(adom.NumericalDivergenceError) as exc:
            run(5)
        err = exc.value
        assert (err.iterate, err.iteration) == (iterate, 1)
        assert str(err) == f"non-finite values in iterate {iterate!r} at iteration 1"
        assert [rec.iteration for rec in err.records] == [0]
        assert np.isfinite(err.records[0].x).all()

    def test_finite_iterates_whose_sum_overflows_raise_nothing(self, monkeypatch):
        # Iteration 0 gives grad = BIG, momentum = -BIG/2, z = 0, z_f = BIG.
        run = _scripted_run(monkeypatch, {0: _at_00(_BIG)}, {1: _at_00(-_BIG)}, eta=0.5)
        # The record's consensus of a BIG stack overflows to inf, silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajectory = run(1)
        assert trajectory.records[0].consensus == math.inf
        state = trajectory.state
        iterates = (state.x, state.momentum, state.z, state.z_f)
        assert all(np.isfinite(it).all() for it in iterates)
        assert (state.x[0, 0], state.momentum[0, 0], state.z_f[0, 0]) == (_BIG, -_BIG / 2, _BIG)
        with np.errstate(over="ignore"):
            assert not np.isfinite(sum(iterates).sum())


FLOAT_64 = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


class TestGuaranteeConstants:
    def test_c2_bound_recomputed_from_formula(self):
        bounds = SpectralBounds(lambda_min_plus=0.3819660112501051, lambda_max=4.0)
        m, r, gamma, k = 10, 0.001, 0.01, np.sqrt(0.414507)
        params = adom.derive_params(r, gamma, bounds)
        got = adom.c2_bound(params, m=m, k=k)
        rg = r * gamma
        ratio = 4.0 / 0.3819660112501051
        expected = (
            m * (1 + rg) * k / (np.sqrt(2.0) * gamma) * np.sqrt(ratio)
            + m * (1 + rg) ** 2 / (4 * r * gamma**2)
        )
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(25001973.24051102, rel=1e-12)

    def test_iteration_estimate_frozen_and_positive(self):
        bounds = SpectralBounds(lambda_min_plus=0.3819660112501051, lambda_max=4.0)
        params = adom.derive_params(0.001, 0.01, bounds)
        got = adom.iteration_estimate(params, eps=0.1, c2=25001973.24051102)
        assert got == 464324
        params = adom.derive_params(1.0, 1.0, PAIR_BOUNDS)
        assert adom.iteration_estimate(params, eps=1e6, c2=1e-6) == 1

    def test_iteration_estimate_validates(self):
        params = adom.derive_params(0.1, 0.1, PAIR_BOUNDS)
        for bad in ("eps", "c2"):
            for value in (0.0, np.nan, np.inf):
                args = {"eps": 0.1, "c2": 1.0, bad: value}
                message = f"^{bad} must be positive and finite, got {value}$"
                with pytest.raises(ValueError, match=message):
                    adom.iteration_estimate(params, **args)

    def test_c2_bound_validates(self):
        params = adom.derive_params(0.1, 0.1, PAIR_BOUNDS)
        for value in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^k must be positive and finite, got {value}$"):
                adom.c2_bound(params, m=3, k=value)

    def test_c2_bound_where_gamma_squared_underflows(self):
        # gamma^2 = 1e-400 is below the doubles; the value is not.
        params = adom.derive_params(1e100, 1e-200, PAIR_BOUNDS)
        want = 3 * 1.0 / (np.sqrt(2.0) * 1e-200) + 3 * 0.25e300
        assert adom.c2_bound(params, m=3, k=1.0) == pytest.approx(want, rel=1e-14)

    def test_c2_bound_past_the_doubles_names_its_inputs(self):
        # The value is about 7.5e399.
        params = adom.derive_params(1e-200, 1e-100, PAIR_BOUNDS)
        message = (
            r"^c2_bound\(m=3, k=1\.0\) at r=1e-200, gamma=1e-100 "
            r"must be positive and finite, got inf$"
        )
        with pytest.raises(ValueError, match=message):
            adom.c2_bound(params, m=3, k=1.0)

    def test_iteration_estimate_of_a_ratio_past_the_doubles(self):
        # 2 c2 / eps = 2e600 overflows; its logarithm does not.
        params = adom.derive_params(0.1, 0.1, SpectralBounds(1.0, 2.0))
        want = 14.0 * math.sqrt(1.01 / 0.01) * (math.log(2.0) + 600.0 * math.log(10.0))
        assert 194480 - 1 < want < 194480
        assert adom.iteration_estimate(params, eps=1e-300, c2=1e300) == 194480

    def test_iteration_estimate_at_a_subnormal_r_gamma(self):
        # r gamma = 1e-310 is subnormal; the count, about 9.7e158, is a
        # finite double.
        params = adom.derive_params(1e-300, 1e-10, PAIR_BOUNDS)
        got = adom.iteration_estimate(params, eps=0.1, c2=1e300)
        want = 7.0 * math.log(2e301) / math.sqrt(1e-310)
        assert isinstance(got, int)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "r, gamma, got", [(1e-200, 1e-200, "0.0"), (1e300, 1e300, "inf"), (1e308, 2.0, "inf")]
    )
    def test_derive_params_names_a_product_outside_the_doubles(self, r, gamma, got):
        message = f"^r \\* gamma must be positive and finite, got {got}$"
        with pytest.raises(ValueError, match=message):
            adom.derive_params(r, gamma, SpectralBounds(1.0, 2.0))

    @given(FLOAT_64, FLOAT_64, FLOAT_64, FLOAT_64, FLOAT_64, FLOAT_64)
    @settings(max_examples=300, deadline=None)
    def test_positive_doubles_give_a_positive_finite_value_or_a_value_error(
        self, r, gamma, k, eps, c2, delta
    ):
        # No theory formula raises anything but ValueError, at any inputs.
        def value_of(call):
            try:
                return call()
            except ValueError:
                return None

        values = []
        params = value_of(lambda: adom.derive_params(r, gamma, SpectralBounds(0.5, 3.0)))
        if params is not None:
            values += [params.alpha, params.eta, params.theta, params.sigma, params.tau]
            values.append(value_of(lambda: adom.c2_bound(params, 4, k)))
            estimate = value_of(lambda: adom.iteration_estimate(params, eps, c2))
            assert estimate is None or (isinstance(estimate, int) and estimate >= 1)
        values.append(value_of(lambda: entot.k_bound(5, gamma, delta)))
        accuracy = value_of(lambda: entot.params_for_eps(eps, 3, 5, delta))
        if accuracy is not None:
            values += [accuracy.gamma, accuracy.r, accuracy.k_sq]
        assert all(0.0 < v < math.inf for v in values if v is not None)


class TestConsensusMetricHelpers:
    def test_overflow_is_inf_without_a_warning(self):
        stack = np.zeros((3, 2))
        stack[0, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert adom.mean_pairwise_sq_dist(stack) == math.inf
            # A finite value is the plain formula's, bit for bit.
            stack[0, 0] = 1e150
            centered = stack - stack.mean(axis=0)
            want = float(2.0 * np.sum(centered * centered) / 2)
            assert adom.mean_pairwise_sq_dist(stack) == want

    def test_overflowing_column_mean_of_finite_rows(self):
        # Summing the column overflows, but the rows agree or sit close.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert adom.mean_pairwise_sq_dist(np.full((3, 2), 1e308)) == 0.0
            # The other column still counts.
            stack = np.array([[1e308, 0.0], [1e308, 1.0], [1e308, 2.0]])
            assert adom.mean_pairwise_sq_dist(stack) == 2.0
            # Rows farther apart than the double range.
            assert adom.mean_pairwise_sq_dist(np.array([[1e308], [-1e308], [1e308]])) == math.inf
            assert adom.mean_pairwise_sq_dist(np.array([[1e308], [1e308], [-1e308]])) == math.inf

    def test_matches_brute_force_pair_loop(self):
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((6, 4))
        total = 0.0
        for i in range(6):
            for j in range(i + 1, 6):
                diff = stack[i] - stack[j]
                total += diff @ diff
        expected = 2.0 * total / (6 * 5)
        assert adom.mean_pairwise_sq_dist(stack) == pytest.approx(expected, rel=1e-12)

    def test_unit_vector_pair(self):
        stack = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert adom.mean_pairwise_sq_dist(stack) == pytest.approx(2.0, rel=1e-15)

    def test_equal_rows_give_zero(self):
        assert adom.mean_pairwise_sq_dist(np.tile([3.0, -1.0], (5, 1))) == 0.0

    def test_single_row_is_zero(self):
        assert adom.mean_pairwise_sq_dist(np.array([[1.0, 2.0]])) == 0.0

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(14)
        stack = rng.standard_normal((5, 3))
        perm = rng.permutation(5)
        assert adom.mean_pairwise_sq_dist(stack[perm]) == pytest.approx(
            adom.mean_pairwise_sq_dist(stack), rel=1e-12
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_and_zero_only_on_consensus(self, seed):
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        stack = rng.standard_normal((m, d))
        value = adom.mean_pairwise_sq_dist(stack)
        assert value >= 0.0
        spread = stack - stack[0]
        if np.abs(spread).max() > 1e-9:
            assert value > 0.0

    def test_project_zero_sum(self):
        rng = np.random.default_rng(15)
        stack = rng.standard_normal((4, 3)) + 2.0
        projected = oracles.project_zero_sum(stack)
        np.testing.assert_allclose(projected.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(
            oracles.project_zero_sum(projected), projected, atol=1e-15
        )
