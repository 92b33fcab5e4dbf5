from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_oracle
import oracles
from netbary import entot


def _random_instance(rng, d, gamma=0.2, delta=1e-4):
    q = entot.floor_histogram(rng.dirichlet(np.ones(d)), delta)
    cost = entot.cost_matrix(np.sort(rng.random(d)))
    z = 0.3 * rng.standard_normal(d)
    return q, cost, z, gamma


class TestValidateHistogram:
    def test_accepts_and_casts(self):
        out = entot.validate_histogram([0.25, 0.75])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [0.25, 0.75])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            entot.validate_histogram(np.array([1.2, -0.2]))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError, match="sum"):
            entot.validate_histogram(np.array([0.4, 0.4]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            entot.validate_histogram(np.array([np.nan, 1.0]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-d"):
            entot.validate_histogram(np.ones((2, 2)) / 4)


class TestFloorHistogram:
    def test_point_mass_example(self):
        out = entot.floor_histogram(np.array([1.0, 0.0, 0.0]), 0.01)
        np.testing.assert_allclose(out, [0.98, 0.01, 0.01], rtol=0, atol=1e-15)

    def test_uniform_is_fixed_point(self):
        q = np.full(5, 0.2)
        np.testing.assert_allclose(entot.floor_histogram(q, 0.01), q, atol=1e-16)

    def test_preserves_unit_mass_and_floors(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 17):
            q = rng.dirichlet(np.ones(d))
            out = entot.floor_histogram(q, 1e-3)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            assert out.min() >= 1e-3 - 1e-15

    def test_rejects_delta_too_large(self):
        with pytest.raises(ValueError, match="delta"):
            entot.floor_histogram(np.full(4, 0.25), 0.25)


class TestCostMatrix:
    def test_line_grid_hand_values(self):
        got = entot.cost_matrix(np.array([0.0, 1.0, 2.0]))
        expected = np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]]) / 4.0
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_unnormalized_keeps_squared_distances(self):
        got = entot.cost_matrix(np.array([0.0, 1.0, 2.0]), normalize=False)
        np.testing.assert_allclose(got, [[0, 1, 4], [1, 0, 1], [4, 1, 0]], atol=1e-15)

    def test_planar_points(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        got = entot.cost_matrix(pts, normalize=False)
        np.testing.assert_allclose(got, [[0.0, 25.0], [25.0, 0.0]], atol=1e-12)

    def test_validate_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            entot.validate_cost_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_validate_rejects_negative(self):
        with pytest.raises(ValueError):
            entot.validate_cost_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_validate_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            entot.validate_cost_matrix(np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_validate_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            entot.validate_cost_matrix(np.zeros((2, 3)))


class TestDualValue:
    def test_zero_cost_zero_point_is_double_entropy_scale(self):
        for d in (2, 3, 10):
            q = np.full(d, 1.0 / d)
            got = entot.dual_value(q, np.zeros((d, d)), 0.05, np.zeros(d))
            assert got == pytest.approx(2 * 0.05 * np.log(d), rel=1e-14)

    def test_matches_simplex_grid_conjugate(self):
        # Independent route: the conjugate as a direct maximization of
        # <z, p> - entropic_cost(p, q) over a fine simplex grid.
        cost = entot.cost_matrix(np.array([0.0, 0.5, 1.0]))
        q = np.array([0.2, 0.3, 0.5])
        z = np.array([0.15, -0.3, 0.05])
        gamma = 0.2
        closed = entot.dual_value(q, cost, gamma, z)
        grid = oracles.simplex_grid(3, 120)
        vals = oracles.entropic_cost_batch(grid, q, cost, gamma, n_iters=300)
        best = np.max(grid @ z - vals)
        assert closed >= best - 1e-7
        assert closed - best <= 5e-5

    def test_constant_shift_adds_constant(self):
        rng = np.random.default_rng(3)
        q, cost, z, gamma = _random_instance(rng, 6)
        base = entot.dual_value(q, cost, gamma, z)
        for c in (-2.0, 0.7):
            got = entot.dual_value(q, cost, gamma, z + c)
            assert got == pytest.approx(base + c, rel=1e-12)

    def test_fenchel_young_equality_at_gradient(self):
        rng = np.random.default_rng(4)
        q, cost, z, gamma = _random_instance(rng, 5)
        p_star = entot.dual_grad(q, cost, gamma, z)
        primal = oracles.entropic_cost_direct(p_star, q, cost, gamma, n_iters=4000)
        conj = entot.dual_value(q, cost, gamma, z)
        assert primal + conj == pytest.approx(float(z @ p_star), abs=1e-9)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(5)
        q, cost, _, gamma = _random_instance(rng, 4)
        for _ in range(20):
            z1 = rng.standard_normal(4)
            z2 = rng.standard_normal(4)
            mid = entot.dual_value(q, cost, gamma, (z1 + z2) / 2)
            avg = (
                entot.dual_value(q, cost, gamma, z1)
                + entot.dual_value(q, cost, gamma, z2)
            ) / 2
            assert mid <= avg + 1e-12


class TestDualGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for d in (3, 7):
            q, cost, z, gamma = _random_instance(rng, d, gamma=0.08)
            grad = entot.dual_grad(q, cost, gamma, z)
            fd = oracles.fd_gradient(
                lambda v: entot.dual_value(q, cost, gamma, v), z
            )
            np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-7)

    def test_gradient_lies_on_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q, cost, z, gamma = _random_instance(rng, 8, gamma=0.03)
            grad = entot.dual_grad(q, cost, gamma, 10.0 * z)
            assert grad.min() >= 0.0
            assert grad.sum() == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_constant_shift(self):
        rng = np.random.default_rng(8)
        q, cost, z, gamma = _random_instance(rng, 5)
        base = entot.dual_grad(q, cost, gamma, z)
        shifted = entot.dual_grad(q, cost, gamma, z + 13.5)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)

    def test_lipschitz_in_one_over_gamma(self):
        rng = np.random.default_rng(9)
        q, cost, _, _ = _random_instance(rng, 6)
        for gamma in (0.5, 0.1, 0.02):
            for _ in range(10):
                z1 = rng.standard_normal(6)
                z2 = rng.standard_normal(6)
                lhs = np.linalg.norm(
                    entot.dual_grad(q, cost, gamma, z1)
                    - entot.dual_grad(q, cost, gamma, z2)
                )
                assert lhs <= np.linalg.norm(z1 - z2) / gamma * (1 + 1e-12)

    def test_rejects_histogram_with_zero_mass_entry(self):
        q = np.array([0.5, 0.5, 0.0])
        cost = entot.cost_matrix(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="floor_histogram"):
            entot.dual_grad(q, cost, 0.1, np.zeros(3))

    def test_rejects_nonpositive_gamma(self):
        q = np.array([0.5, 0.5])
        cost = entot.cost_matrix(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="gamma"):
            entot.dual_grad(q, cost, 0.0, np.zeros(2))


class TestWassersteinDualOracle:
    def test_rows_match_dual_grad(self):
        rng = np.random.default_rng(10)
        m, d = 4, 6
        marginals = np.stack(
            [entot.floor_histogram(rng.dirichlet(np.ones(d)), 1e-5) for _ in range(m)]
        )
        cost = entot.cost_matrix(np.sort(rng.random(d)))
        oracle = entot.wb_dual_oracle(marginals, cost, 0.1)
        z_stack = rng.standard_normal((m, d))
        stacked = oracle.grad_conj_stack(z_stack)
        for i in range(m):
            row = entot.dual_grad(marginals[i], cost, 0.1, z_stack[i])
            np.testing.assert_array_equal(oracle.grad_conj(i, z_stack[i]), row)
            np.testing.assert_array_equal(stacked[i], row)

    def test_value_matches_dual_value(self):
        rng = np.random.default_rng(11)
        marginals = np.stack(
            [entot.floor_histogram(rng.dirichlet(np.ones(4)), 1e-5) for _ in range(2)]
        )
        cost = entot.cost_matrix(np.sort(rng.random(4)))
        oracle = entot.wb_dual_oracle(marginals, cost, 0.2)
        z = rng.standard_normal(4)
        assert oracle.value(1, z) == entot.dual_value(marginals[1], cost, 0.2, z)

    def test_exposes_dims(self):
        marginals = np.full((3, 5), 0.2)
        cost = entot.cost_matrix(np.linspace(0, 1, 5))
        oracle = entot.wb_dual_oracle(marginals, cost, 0.3)
        assert (oracle.m, oracle.dim, oracle.gamma) == (3, 5, 0.3)

    def test_rejects_flat_marginals(self):
        cost = entot.cost_matrix(np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="marginals"):
            entot.wb_dual_oracle(np.full(5, 0.2), cost, 0.3)

    def test_recover_barycenter_stacks_gradients(self):
        rng = np.random.default_rng(12)
        marginals = np.stack(
            [entot.floor_histogram(rng.dirichlet(np.ones(4)), 1e-5) for _ in range(3)]
        )
        cost = entot.cost_matrix(np.sort(rng.random(4)))
        oracle = entot.wb_dual_oracle(marginals, cost, 0.1)
        z_stack = rng.standard_normal((3, 4))
        got = entot.recover_barycenter(oracle, z_stack)
        np.testing.assert_array_equal(got, oracle.grad_conj_stack(z_stack))
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)

    def test_recover_barycenter_checks_shape(self):
        marginals = np.full((3, 4), 0.25)
        cost = entot.cost_matrix(np.linspace(0, 1, 4))
        oracle = entot.wb_dual_oracle(marginals, cost, 0.1)
        with pytest.raises(ValueError, match="shape"):
            entot.recover_barycenter(oracle, np.zeros((2, 4)))


class TestSinkhorn:
    def test_zero_cost_gives_product_coupling(self):
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        res = entot.sinkhorn(p, q, np.zeros((4, 4)), 0.3)
        np.testing.assert_allclose(res.plan.entries, np.outer(p, q), atol=1e-12)
        expected = 0.3 * (p @ np.log(p) + q @ np.log(q))
        assert res.value == pytest.approx(expected, rel=1e-10)

    def test_matches_independent_implementation(self):
        rng = np.random.default_rng(14)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        cost = entot.cost_matrix(np.sort(rng.random(6)))
        for gamma in (0.5, 0.05):
            res = entot.sinkhorn(p, q, cost, gamma, tol=1e-13, max_iter=20000)
            ref = oracles.entropic_cost_direct(p, q, cost, gamma, n_iters=20000)
            assert res.converged
            assert res.value == pytest.approx(ref, abs=1e-9)

    def test_converged_plan_has_tight_marginals(self):
        rng = np.random.default_rng(15)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        cost = entot.cost_matrix(np.sort(rng.random(5)))
        res = entot.sinkhorn(p, q, cost, 0.1, tol=1e-11)
        assert res.converged
        assert res.plan.marginal_error() <= 1e-11
        assert res.marginal_error <= 1e-11

    def test_entropic_cost_sandwich(self):
        rng = np.random.default_rng(16)
        d = 5
        for gamma in (0.05, 0.01):
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            cost = entot.cost_matrix(np.sort(rng.random(d)))
            exact = entot.exact_ot(p, q, cost)
            res = entot.sinkhorn(p, q, cost, gamma, tol=1e-12, max_iter=100000)
            assert res.converged
            assert res.value <= exact + 1e-9
            assert res.value >= exact - 2 * gamma * np.log(d) - 1e-9

    def test_forced_plan_with_zero_masses(self):
        cost = np.array([[0.0, 0.7], [0.7, 0.0]])
        res = entot.sinkhorn(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]), cost, 0.05
        )
        np.testing.assert_allclose(res.plan.entries, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)
        assert res.value == pytest.approx(0.7, rel=1e-12)

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(17)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        cost = entot.cost_matrix(np.sort(rng.random(6)))
        res = entot.sinkhorn(p, q, cost, 0.001, tol=1e-13, max_iter=3)
        assert not res.converged
        assert res.iterations == 3


def _loop_constraints(d):
    """The transportation LP's equality rows, built entry by entry."""
    rows, cols = [], []
    for i in range(d):
        for j in range(d):
            rows.append(i)
            cols.append(i * d + j)
    for j in range(d - 1):
        for i in range(d):
            rows.append(d + j)
            cols.append(i * d + j)
    data = [1.0] * len(rows)
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(2 * d - 1, d * d))


class TestExactOT:
    def test_identical_marginals_cost_zero(self):
        rng = np.random.default_rng(18)
        p = rng.dirichlet(np.ones(6))
        cost = entot.cost_matrix(np.sort(rng.random(6)))
        assert entot.exact_ot(p, p, cost) == pytest.approx(0.0, abs=1e-12)

    def test_forced_plan_pays_single_entry(self):
        cost = np.array([[0.0, 0.35], [0.35, 0.0]])
        got = entot.exact_ot(np.array([1.0, 0.0]), np.array([0.0, 1.0]), cost)
        assert got == pytest.approx(0.35, rel=1e-12)

    def test_two_point_mass_move(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = entot.exact_ot(np.array([0.3, 0.7]), np.array([0.6, 0.4]), cost)
        assert got == pytest.approx(0.3, rel=1e-12)

    def test_matches_exact_rational_simplex(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            d = int(rng.integers(2, 6))
            mp = rng.integers(1, 10, size=d)
            mq = rng.integers(1, 10, size=d)
            num = rng.integers(0, 129, size=(d, d))
            cost_i = (num + num.T) // 2
            np.fill_diagonal(cost_i, 0)
            p_fr = [Fraction(int(a), int(mp.sum())) for a in mp]
            q_fr = [Fraction(int(a), int(mq.sum())) for a in mq]
            c_fr = [[Fraction(int(cost_i[i, j]), 128) for j in range(d)] for i in range(d)]
            ref = lp_oracle.transport_exact(p_fr, q_fr, c_fr)
            got = entot.exact_ot(mp / mp.sum(), mq / mq.sum(), cost_i / 128.0)
            assert got == pytest.approx(float(ref), abs=1e-11)

    def test_value_bounded_by_any_feasible_plan(self):
        rng = np.random.default_rng(20)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        cost = entot.cost_matrix(np.sort(rng.random(4)))
        # Product coupling is feasible, so it upper bounds the optimum.
        assert entot.exact_ot(p, q, cost) <= float(p @ cost @ q) + 1e-12

    def test_lp_constraints_match_the_entrywise_build(self):
        for d in (2, 3, 7, 196):
            got = entot._transport_constraints(d)
            want = _loop_constraints(d)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))
                assert getattr(got, attr).dtype == getattr(want, attr).dtype
            assert got.shape == want.shape


class TestExactOTClosedForm:
    """Monge costs take the north-west-corner value, checked against the LP
    on the same instance. A seeded permutation of the support makes the cost
    non-Monge, so exact_ot solves the permuted instance by the LP."""

    @pytest.mark.parametrize("d", [2, 3, 5, 20, 100])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_lp_on_a_line(self, d, reverse):
        rng = np.random.default_rng([21, d, reverse])
        grid = np.linspace(0.0, 1.0, d)
        cost = entot.cost_matrix(grid[::-1] if reverse else grid)
        assert entot._is_monge(cost)
        for _ in range(5):
            p = rng.random(d) * (rng.random(d) > 0.3)
            q = rng.random(d) * (rng.random(d) > 0.3)
            p[rng.integers(d)] += 0.1
            q[rng.integers(d)] += 0.1
            p, q = p / p.sum(), q / q.sum()
            got = entot.exact_ot(p, q, cost)
            if d == 2:
                # Every 2x2 zero-diagonal symmetric cost is Monge.
                ref = entot._transport_lp(p, q, cost)
            else:
                perm = rng.permutation(d)
                while entot._is_monge(cost[np.ix_(perm, perm)]):
                    perm = rng.permutation(d)
                ref = entot.exact_ot(p[perm], q[perm], cost[np.ix_(perm, perm)])
            assert abs(got - ref) <= 1e-12 * ref

    def test_hand_value_with_zero_mass_entries(self):
        cost = entot.cost_matrix(np.arange(4.0), normalize=False)
        p = np.array([0.5, 0.0, 0.0, 0.5])
        q = np.array([0.0, 0.5, 0.5, 0.0])
        assert entot.exact_ot(p, q, cost) == pytest.approx(1.0, rel=1e-15)


class TestKBound:
    def test_zero_cost_closed_form(self):
        for d, gamma, delta in ((3, 0.1, 0.01), (10, 0.05, 1e-4)):
            got = entot.k_bound(np.zeros((d, d)), gamma, delta)
            base = 2 * gamma * np.log(d) - gamma * np.log(delta / 2)
            assert got == pytest.approx(d * base**2, rel=1e-14)

    def test_scale_factor_homogeneous_in_gamma(self):
        a = entot.k_bound(np.zeros((4, 4)), 0.1, 0.01)
        b = entot.k_bound(np.zeros((4, 4)), 0.2, 0.01)
        assert np.sqrt(b) == pytest.approx(2 * np.sqrt(a), rel=1e-13)

    def test_matches_exhaustive_min_max(self):
        cost = np.array([[0.0, 0.7, 0.2], [0.4, 0.0, 1.0], [0.9, 0.3, 0.0]])
        gamma, delta = 0.05, 0.01
        rho = delta / 2
        total = 0.0
        for j in range(3):
            inner = min(
                max(abs(cost[j, l] - cost[i, l]) for l in range(3)) for i in range(3)
            )
            total += (2 * gamma * np.log(3) + inner - gamma * np.log(rho)) ** 2
        got = entot.k_bound(cost, gamma, delta)
        assert got == pytest.approx(total, rel=1e-14)
        assert got == pytest.approx(0.4213736177439613, rel=1e-12)

    def test_rho_override(self):
        got = entot.k_bound(np.zeros((3, 3)), 0.1, 0.01, rho=0.5)
        base = 2 * 0.1 * np.log(3) - 0.1 * np.log(0.5)
        assert got == pytest.approx(3 * base**2, rel=1e-14)

    def test_rejects_delta_out_of_range(self):
        with pytest.raises(ValueError, match="delta"):
            entot.k_bound(np.zeros((4, 4)), 0.1, 0.3)
        with pytest.raises(ValueError, match="delta"):
            entot.k_bound(np.zeros((4, 4)), 0.1, 0.0)


class TestParamsForEps:
    def test_gamma_spends_quarter_of_eps_on_entropy_gap(self):
        cost = entot.cost_matrix(np.linspace(0, 1, 20))
        got = entot.params_for_eps(0.08, 5, 20, cost, 1e-6)
        assert 2 * got.gamma * np.log(20) == pytest.approx(0.08 / 4, rel=1e-14)

    def test_frozen_regression_values(self):
        rng = np.random.default_rng(33)
        cost = entot.cost_matrix(np.sort(rng.random(100)))
        got = entot.params_for_eps(0.1, 10, 100, cost, 1e-6)
        np.testing.assert_allclose(
            [got.gamma, got.r, got.k_sq],
            [0.002714340511895324, 0.006031407481724236, 0.41449694910769147],
            rtol=1e-13,
        )

    def test_halving_eps_halves_gamma_and_doubles_r(self):
        # K^2 is degree-2 homogeneous in gamma (the row min-max term is zero
        # for every cost matrix), so r = eps/(4 m K^2) scales as 1/eps.
        cost = entot.cost_matrix(np.linspace(0, 1, 30))
        hi = entot.params_for_eps(0.2, 4, 30, cost, 1e-5)
        lo = entot.params_for_eps(0.1, 4, 30, cost, 1e-5)
        assert lo.gamma == pytest.approx(hi.gamma / 2, rel=1e-14)
        assert lo.r == pytest.approx(2 * hi.r, rel=1e-13)

    def test_rejects_degenerate_inputs(self):
        cost = np.zeros((1, 1))
        with pytest.raises(ValueError, match="d >= 2"):
            entot.params_for_eps(0.1, 3, 1, cost, 0.5)
        with pytest.raises(ValueError, match="eps"):
            entot.params_for_eps(0.0, 3, 4, np.zeros((4, 4)), 0.01)


class TestSimplexProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gradient_always_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        q = entot.floor_histogram(rng.dirichlet(np.ones(d)), 1e-6)
        cost = entot.cost_matrix(np.sort(rng.random(d)))
        gamma = float(rng.uniform(0.005, 0.5))
        z = rng.standard_normal(d) * rng.uniform(0.1, 20)
        grad = entot.dual_grad(q, cost, gamma, z)
        assert grad.min() >= 0.0
        assert grad.sum() == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_floor_histogram_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 12))
        q = rng.dirichlet(np.full(d, 0.3))
        out = entot.floor_histogram(q, 1e-4)
        entot.validate_histogram(out)
        assert out.min() >= 1e-4 - 1e-15
