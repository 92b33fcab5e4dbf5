import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_oracle
import oracles
from conftest import KERNELS
from netbary import adom, entot, netgraph


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

    def test_rejects_nan_delta(self):
        with pytest.raises(ValueError, match="^delta must lie in .*, got nan$"):
            entot.floor_histogram(np.full(4, 0.25), np.nan)


class TestCostMatrix:
    def test_line_grid_hand_values(self):
        got = entot.cost_matrix(np.array([0.0, 1.0, 2.0]))
        expected = np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]]) / 4.0
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_squared_distances_over_their_maximum(self):
        pts = np.array([0.0, 1.0, 2.0])
        raw = np.subtract.outer(pts, pts) ** 2
        np.testing.assert_array_equal(entot.cost_matrix(pts), raw / raw.max())

    def test_planar_points(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        got = entot.cost_matrix(pts)
        raw = [[0.0, 25.0, 100.0], [25.0, 0.0, 25.0], [100.0, 25.0, 0.0]]
        np.testing.assert_allclose(got, np.array(raw) / 100.0, atol=1e-15)

    def test_exactly_symmetric(self):
        # (a - b)^2 and (b - a)^2 are equal in IEEE arithmetic and are summed
        # over the coordinates in the same order, so no symmetrizing is needed.
        rng = np.random.default_rng(35)
        for _ in range(60):
            d, dim = int(rng.integers(2, 121)), int(rng.integers(1, 4))
            points = rng.standard_normal((d, dim)) * 10.0 ** rng.uniform(-3, 3)
            cost = entot.cost_matrix(points)
            assert np.array_equal(cost, cost.T)

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
        # nan and inf fail the check too, at each entry point that takes gamma.
        q = np.array([0.5, 0.5])
        cost = entot.cost_matrix(np.array([0.0, 1.0]))
        for gamma in (0.0, -1.0, np.nan, np.inf):
            message = f"^gamma must be positive and finite, got {gamma}$"
            with pytest.raises(ValueError, match=message):
                entot.dual_grad(q, cost, gamma, np.zeros(2))
            with pytest.raises(ValueError, match=message):
                entot.dual_value(q, cost, gamma, np.zeros(2))
            with pytest.raises(ValueError, match=message):
                entot.WassersteinDualOracle(q[None, :], cost, gamma)

    @pytest.mark.parametrize("func", [entot.dual_value, entot.dual_grad], ids=["value", "grad"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_z(self, func, bad):
        q = np.full(4, 0.25)
        cost = entot.cost_matrix(np.linspace(0.0, 1.0, 4))
        with pytest.raises(ValueError, match="^z has non-finite entries"):
            func(q, cost, 0.1, np.array([0.0, bad, 0.0, 0.0]))


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
            np.testing.assert_array_equal(stacked[i], row)

    # The benchmark's three shapes, one node, and |z|/gamma near 1e4, where
    # exp of the raw logits overflows.
    @pytest.mark.parametrize(
        "m, d, support, gamma, z_scale",
        [
            (10, 100, "line", 0.01, 1.0),
            (50, 20, "line", 0.01, 1.0),
            (8, 196, "raster", 0.01, 1.0),
            (1, 30, "line", 0.05, 1.0),
            (4, 50, "line", 0.01, 100.0),
        ],
    )
    def test_stack_matches_independent_reference(self, m, d, support, gamma, z_scale):
        rng = np.random.default_rng([21, m, d])
        if support == "line":
            points = np.sort(rng.random(d))
        else:
            side = int(np.sqrt(d))
            points = np.argwhere(np.ones((side, side))).astype(float)
        cost = entot.cost_matrix(points)
        marginals = np.stack(
            [entot.floor_histogram(rng.dirichlet(np.ones(d)), 1e-6) for _ in range(m)]
        )
        z_stack = z_scale * rng.standard_normal((m, d))
        got = entot.wb_dual_oracle(marginals, cost, gamma).grad_conj_stack(z_stack)
        with np.errstate(over="ignore"):
            naive = np.exp((z_stack[:, :, None] - cost) / gamma)
        assert np.isinf(naive).any() == (z_scale == 100.0)
        # At |z| / gamma near 1e4 the float64 reference's own logits carry
        # eps |z| / gamma of rounding, which put row 3, entry 1 1.22e-12
        # relative off; the 40-digit reference carries none.
        if z_scale == 100.0:
            reference = oracles.conj_grad_reference_decimal
        else:
            reference = oracles.conj_grad_reference
        for i in range(m):
            want = reference(marginals[i], cost, gamma, z_stack[i])
            # Summation order differs; every term is nonnegative, so the
            # error is relative, a few d * eps at most.
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-300)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)

    def test_keeps_read_only_copies(self):
        rng = np.random.default_rng(11)
        marginals = np.stack(
            [entot.floor_histogram(rng.dirichlet(np.ones(4)), 1e-5) for _ in range(2)]
        )
        cost = entot.cost_matrix(np.sort(rng.random(4)))
        oracle = entot.wb_dual_oracle(marginals, cost, 0.2)
        z_stack = rng.standard_normal((2, 4))
        before = oracle.grad_conj_stack(z_stack)
        marginals[0] = 0.0
        cost[0, 1] = np.nan
        np.testing.assert_array_equal(oracle.grad_conj_stack(z_stack), before)
        assert not oracle.marginals.flags.writeable
        assert not oracle.cost.flags.writeable

    def test_run_validates_cost_and_marginals_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        m, d = 3, 5
        marginals = np.stack(
            [entot.floor_histogram(rng.dirichlet(np.ones(d)), 1e-5) for _ in range(m)]
        )
        cost = entot.cost_matrix(np.sort(rng.random(d)))
        calls = []

        def counting(name):
            inner = getattr(entot, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)

            return wrapper

        for name in ("validate_cost_matrix", "validate_histogram"):
            monkeypatch.setattr(entot, name, counting(name))
        schedule = netgraph.NetworkSchedule(family="cycle", m=m, seed=0)
        params = adom.derive_params(0.01, 0.1, netgraph.spectral_bounds(schedule, 1))
        counts = []
        for n_iters in (2, 20):
            calls.clear()
            oracle = entot.wb_dual_oracle(marginals, cost, 0.1)
            adom.run(schedule, oracle, params, n_iters)
            counts.append(sorted(calls))
        assert counts[0] == counts[1]
        assert counts[0].count("validate_cost_matrix") == 1

    def test_exposes_dims(self):
        marginals = np.full((3, 5), 0.2)
        cost = entot.cost_matrix(np.linspace(0, 1, 5))
        oracle = entot.wb_dual_oracle(marginals, cost, 0.3)
        assert (oracle.m, oracle.dim, oracle.gamma) == (3, 5, 0.3)

    def test_rejects_flat_marginals(self):
        cost = entot.cost_matrix(np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="marginals"):
            entot.wb_dual_oracle(np.full(5, 0.2), cost, 0.3)
        zero_row = np.array([[0.2] * 5, [0.25, 0.25, 0.25, 0.25, 0.0]])
        with pytest.raises(ValueError, match=r"marginals\[1\].*floor_histogram"):
            entot.wb_dual_oracle(zero_row, cost, 0.3)

    @pytest.mark.parametrize("support", ["dense", "grid"])
    def test_rejects_stack_of_the_wrong_shape(self, support):
        # Row sums of both kernels are checked against the references in
        # test_stack_matches_independent_reference and TestGridDualOracle.
        grid = entot.GridCost(2, 2)
        oracle = entot.wb_dual_oracle(
            np.full((3, 4), 0.25), grid if support == "grid" else grid.dense, 0.1
        )
        for shape in [(2, 4), (3, 5), (4,), (1, 3, 4)]:
            with pytest.raises(ValueError, match="shape"):
                oracle.grad_conj_stack(np.zeros(shape))


class TestSinkhorn:
    def test_zero_cost_gives_product_coupling(self):
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        res = oracles.sinkhorn(p, q, np.zeros((4, 4)), 0.3)
        np.testing.assert_allclose(res.plan.entries, np.outer(p, q), atol=1e-12)
        expected = 0.3 * (p @ np.log(p) + q @ np.log(q))
        assert res.value == pytest.approx(expected, rel=1e-10)

    def test_matches_independent_implementation(self):
        rng = np.random.default_rng(14)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        cost = entot.cost_matrix(np.sort(rng.random(6)))
        for gamma in (0.5, 0.05):
            res = oracles.sinkhorn(p, q, cost, gamma, tol=1e-13, max_iter=20000)
            ref = oracles.entropic_cost_direct(p, q, cost, gamma, n_iters=20000)
            assert res.converged
            assert res.value == pytest.approx(ref, abs=1e-9)

    def test_converged_plan_has_tight_marginals(self):
        rng = np.random.default_rng(15)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        cost = entot.cost_matrix(np.sort(rng.random(5)))
        res = oracles.sinkhorn(p, q, cost, 0.1, tol=1e-11)
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
            res = oracles.sinkhorn(p, q, cost, gamma, tol=1e-12, max_iter=100000)
            assert res.converged
            assert res.value <= exact + 1e-9
            assert res.value >= exact - 2 * gamma * np.log(d) - 1e-9

    def test_forced_plan_with_zero_masses(self):
        cost = np.array([[0.0, 0.7], [0.7, 0.0]])
        res = oracles.sinkhorn(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]), cost, 0.05
        )
        np.testing.assert_allclose(res.plan.entries, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)
        assert res.value == pytest.approx(0.7, rel=1e-12)

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(17)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        cost = entot.cost_matrix(np.sort(rng.random(6)))
        res = oracles.sinkhorn(p, q, cost, 0.001, tol=1e-13, max_iter=3)
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


def _dense_incidence(d):
    """The dense transport LP's triple: arcs from source i to sink d + j,
    row-major, as :func:`entot._transport_lp` solves them."""
    tails, heads = np.divmod(np.arange(d * d), d)
    return entot._incidence(tails, d + heads, d, 2 * d)


def _csc_matrix(a_eq, n_rows):
    """An LP's CSC triple (start, index, value) as a scipy matrix."""
    start, index, value = a_eq
    return scipy.sparse.csc_matrix((value, index, start), shape=(n_rows, start.shape[0] - 1))


def _assert_same_csc(got, want):
    """A triple from :func:`entot._incidence` equals a scipy CSC matrix
    entry for entry, with the same dtypes."""
    for array, attr in zip(got, ("indptr", "indices", "data")):
        assert np.array_equal(array, getattr(want, attr))
        assert array.dtype == getattr(want, attr).dtype


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
            _assert_same_csc(_dense_incidence(d), _loop_constraints(d).tocsc())

    def test_perturbed_dense_lp_duals_raise(self, monkeypatch):
        # A non-Monge cost takes the dense LP, whose value is kept only with
        # a certificate from its own sink duals: HiGHS's certify it, and
        # perturbed ones refuse the same value.
        rng = np.random.default_rng(22)
        d = 30
        cost = entot.cost_matrix(rng.random((d, 2)))
        assert not entot._is_monge(cost)
        p, q = _sparse_masses(rng, d), _sparse_masses(rng, d)
        value = entot.exact_ot(p, q, cost)
        highs = entot._highs

        def perturbed(c, a_eq, b_eq, basis=None):
            res = highs(c, a_eq, b_eq, basis)
            res.row_dual[d:] += 1e-3 * rng.standard_normal(d - 1)
            return res

        monkeypatch.setattr(entot, "_highs", perturbed)
        with pytest.raises(RuntimeError) as failure:
            entot.exact_ot(p, q, cost)
        message = str(failure.value)
        assert message.startswith(
            f"dense transport LP at d = 30 is not certified: value {value!r}, lower bound "
        )
        assert re.search(
            r", upper bound \S+, relative spread \d\.\d{3}e-\d\d above 1e-09 \(", message
        )
        assert message.endswith(
            f"(smallest positive mass: p {p[p > 0].min():.3e}, q {q[q > 0].min():.3e})"
        )


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
        cost = np.subtract.outer(np.arange(4.0), np.arange(4.0)) ** 2
        p = np.array([0.5, 0.0, 0.0, 0.5])
        q = np.array([0.0, 0.5, 0.5, 0.0])
        assert entot.exact_ot(p, q, cost) == pytest.approx(1.0, rel=1e-15)


def _raster_points(rows, cols):
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return np.stack([ii.ravel(), jj.ravel()], axis=1).astype(float)


def _sparse_masses(rng, d):
    """A histogram with about a third of its entries exactly zero."""
    mass = rng.random(d) * (rng.random(d) > 0.3)
    mass[rng.integers(d)] += 0.1
    return mass / mass.sum()


RASTERS = [(2, 2), (2, 3), (3, 5), (5, 3), (7, 4), (14, 14)]


class TestGridCost:
    @pytest.mark.parametrize("rows, cols", RASTERS + [(1, 2), (2, 1), (1, 6), (6, 1), (28, 28)])
    def test_dense_is_the_cost_matrix_of_the_pixels(self, rows, cols):
        grid = entot.GridCost(rows, cols)
        points = _raster_points(rows, cols)
        want = entot.cost_matrix(points)
        # Bit for bit, signed zeros included.
        assert grid.dense.tobytes() == want.tobytes()
        whole = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
        np.testing.assert_array_equal(grid.whole, whole)
        assert grid.diagonal == grid.whole.max()
        for offsets, axes, n in zip(grid.offsets, grid.axes, (rows, cols)):
            np.testing.assert_array_equal(offsets, np.subtract.outer(range(n), range(n)) ** 2)
            assert axes.tobytes() == (offsets / grid.diagonal).tobytes()
        separable = (grid.axes[0][:, None, :, None] + grid.axes[1][None, :, None, :]).reshape(
            rows * cols, rows * cols
        )
        # Two normalized terms against one normalized sum: within one ulp.
        assert (np.abs(separable - grid.dense) <= np.spacing(grid.dense)).all()
        assert grid.shape == (rows, cols)

    @pytest.mark.parametrize(
        "rows, cols, message",
        [
            pytest.param(1, 1, "a raster needs at least two pixels, got 1 x 1", id="1-1"),
            pytest.param(0, 5, "rows must be an integer >= 1, got 0", id="0-5"),
            pytest.param(5, 0, "cols must be an integer >= 1, got 0", id="5-0"),
            pytest.param(-1, -2, "rows must be an integer >= 1, got -1", id="-1--2"),
        ],
    )
    def test_fewer_than_two_pixels_raise(self, rows, cols, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entot.GridCost(rows, cols)

    @pytest.mark.parametrize(
        "rows, cols, message",
        [
            pytest.param(2.7, 3, "rows must be an integer >= 1, got 2.7", id="2.7-3"),
            pytest.param(3, 2.0, "cols must be an integer >= 1, got 2.0", id="3-2.0"),
            pytest.param("4", 4, "rows must be an integer >= 1, got '4'", id="4-4"),
            pytest.param(None, 2, "rows must be an integer >= 1, got None", id="None-2"),
        ],
    )
    def test_non_integer_sizes_raise(self, rows, cols, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entot.GridCost(rows, cols)

    def test_numpy_integer_sizes_are_kept(self):
        grid = entot.GridCost(np.int64(3), np.uint8(2))
        assert grid.shape == (3, 2) and all(type(n) is int for n in grid.shape)

    def test_oracle_and_exact_ot_leave_dense_unbuilt(self):
        rng = np.random.default_rng(37)
        grid = entot.GridCost(5, 4)
        marginals = _stack(rng, 3, 20)
        oracle = entot.WassersteinDualOracle(marginals, grid, 0.01)
        assert oracle.cost is grid
        oracle.grad_conj_stack(rng.standard_normal((3, 20)))
        oracle.grad_conj_stack(1e3 * rng.standard_normal((3, 20)))  # the log domain
        assert entot.exact_ot(marginals[0], marginals[1], grid) > 0
        assert "dense" not in vars(grid)


class TestGridDualOracle:
    """The separable kernel against the dense kernel it replaces on a pixel
    raster, the per-column reference and finite differences."""

    @pytest.mark.parametrize("rows, cols, m", [(2, 2, 3), (3, 5, 4), (5, 3, 1), (14, 14, 8), (14, 14, 1)])
    def test_matches_dense_kernel_and_reference(self, rows, cols, m):
        rng = np.random.default_rng([22, rows, cols, m])
        grid = entot.GridCost(rows, cols)
        d = rows * cols
        marginals = np.stack(
            [entot.floor_histogram(rng.dirichlet(np.ones(d)), 1e-6) for _ in range(m)]
        )
        z_stack = rng.standard_normal((m, d))
        oracle = entot.wb_dual_oracle(marginals, grid, 0.01)
        assert oracle.cost is grid
        got = oracle.grad_conj_stack(z_stack)
        dense = entot.wb_dual_oracle(marginals, grid.dense, 0.01).grad_conj_stack(z_stack)
        np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-300)
        for i in range(m):
            want = oracles.conj_grad_reference(marginals[i], grid.dense, 0.01, z_stack[i])
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 5), (14, 14)])
    def test_large_z_over_gamma(self, rows, cols):
        # |z| / gamma near 1e4, where exp of the raw logits overflows. z is
        # an exact constant shift of a small point, which leaves the
        # gradient unchanged, so the references are evaluated at the small
        # point: at the large one their own logits carry eps |z| / gamma,
        # about 1e-12, of rounding.
        rng = np.random.default_rng([23, rows, cols])
        grid = entot.GridCost(rows, cols)
        d = rows * cols
        q = entot.floor_histogram(rng.dirichlet(np.ones(d)), 1e-6)
        small = np.round(rng.standard_normal((1, d)) * 2.0**40) / 2.0**40
        large = small + 128.0
        assert np.array_equal(large - 128.0, small)
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp((large[0][:, None] - grid.dense) / 0.01)).any()
        got = entot.wb_dual_oracle(q[None, :], grid, 0.01).grad_conj_stack(large)[0]
        assert np.isfinite(got).all()
        dense = entot.wb_dual_oracle(q[None, :], grid.dense, 0.01).grad_conj_stack(small)[0]
        want = oracles.conj_grad_reference(q, grid.dense, 0.01, small[0])
        np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_matches_finite_differences(self):
        # Criterion 1's check and bounds, on raster supports.
        rng = np.random.default_rng(24)
        for rows, cols in [(2, 2), (2, 3), (3, 4)]:
            grid = entot.GridCost(rows, cols)
            d = rows * cols
            for gamma in (0.05, 0.01):
                for _ in range(4):
                    raw = rng.random(d) + 0.1
                    q = entot.floor_histogram(raw / raw.sum(), 1e-4)
                    z = 0.1 * rng.standard_normal(d)
                    oracle = entot.wb_dual_oracle(q[None, :], grid, gamma)
                    grad = oracle.grad_conj_stack(z[None, :])[0]
                    fd = oracles.fd_gradient(
                        lambda zz: entot.dual_value(q, grid.dense, gamma, zz), z
                    )
                    assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)
                    assert abs(grad.sum() - 1.0) <= 1e-10
                    assert grad.min() >= 0.0


class TestLogDomainAccuracy:
    """The log-domain kernel against the 40-digit reference
    (oracles.conj_grad_reference_decimal), at |z| / gamma where the float64
    reference is itself off by more than 1e-12."""

    def test_rows_match_extended_precision(self, kernel_calls):
        # |z| / gamma near 1e4 on sorted random points on a line. The
        # matrix kernel this one replaced, which rounded (z - C) / gamma as
        # the float64 reference does, put 3 of these 48 rows 1.2e-12 to
        # 5.0e-12 relative off.
        m, d, gamma = 4, 50, 0.01
        for seed in range(12):
            rng = np.random.default_rng([21, m, d, seed])
            cost = entot.cost_matrix(np.sort(rng.random(d)))
            marginals = _stack(rng, m, d)
            z_stack = 100.0 * rng.standard_normal((m, d))
            got = entot.wb_dual_oracle(marginals, cost, gamma).grad_conj_stack(z_stack)
            for i in range(m):
                want = oracles.conj_grad_reference_decimal(marginals[i], cost, gamma, z_stack[i])
                np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-300)
        assert kernel_calls == ["_log_conj_grad_stack"] * 12

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 5), (14, 14), (28, 28)])
    @pytest.mark.parametrize("gamma, z_scale", [(1e-3, 0.1), (1e-3, 10.0), (1e-2, 100.0)])
    def test_raster_rows_are_the_former_raster_kernel(
        self, kernel_calls, rows, cols, gamma, z_scale
    ):
        # On a GridCost's symmetric axes, reading them transposed changes no
        # bit: every case takes the log domain, up to |z| / gamma near 1e4.
        rng = np.random.default_rng([43, rows, cols])
        grid = entot.GridCost(rows, cols)
        marginals = _stack(rng, 3, rows * cols)
        z_stack = z_scale * rng.standard_normal((3, rows * cols))
        got = entot.wb_dual_oracle(marginals, grid, gamma).grad_conj_stack(z_stack)
        assert kernel_calls == ["_log_conj_grad_stack"]
        want = oracles.grid_conj_grad_stack_reference(marginals, grid, gamma, z_stack)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows, cols", [(1, 12), (3, 4)])
    def test_reads_each_axis_transposed(self, rows, cols):
        # validate_cost_matrix lets a matrix be asymmetric within 1e-12, so
        # the kernel may not rely on symmetric axes. It is called directly,
        # as the oracle calls it, on deliberately asymmetric axes: a matrix
        # C as (zeros((1, 1)), C), and a raster's two axes. Pixel (c, e)
        # to pixel (a, b) costs axes[0][c, a] + axes[1][e, b].
        rng = np.random.default_rng([42, rows, cols])
        first = np.zeros((1, 1)) if rows == 1 else rng.random((rows, rows))
        axes = (first, rng.random((cols, cols)))
        assert np.abs(axes[1] - axes[1].T).max() > 0.5
        d = rows * cols
        cost = (axes[0][:, None, :, None] + axes[1][None, :, None, :]).reshape(d, d)
        marginals = _stack(rng, 2, d)
        z_stack = 0.3 * rng.standard_normal((2, d))
        got = entot._log_conj_grad_stack(marginals, axes, 0.1, z_stack)
        for i in range(2):
            want = oracles.conj_grad_reference_decimal(marginals[i], cost, 0.1, z_stack[i])
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-300)


def _stack(rng, m, d, delta=1e-6):
    return np.stack(
        [entot.floor_histogram(rng.dirichlet(np.ones(d)), delta) for _ in range(m)]
    )


def _support(kind, d, rng):
    """A normalized line cost or a GridCost on a square raster of d pixels."""
    if kind == "line":
        return entot.cost_matrix(np.sort(rng.random(d)))
    side = int(np.sqrt(d))
    return entot.GridCost(side, side)


def _dense(cost):
    return cost.dense if isinstance(cost, entot.GridCost) else cost


def _log_domain(marginals, cost, gamma, z_stack):
    """The log-domain kernel the scaling form falls back to, on the per-axis
    costs the oracle describes a cost by."""
    axes = cost.axes if isinstance(cost, entot.GridCost) else (np.zeros((1, 1)), cost)
    return entot._log_conj_grad_stack(marginals, axes, gamma, z_stack)


def _with_span(rng, m, d, width):
    """z rows whose max minus min is exactly ``width``."""
    z = rng.random((m, d)) * width
    z[:, 0], z[:, 1] = 0.0, width
    return z


class TestGibbsKernel:
    """The scaling form u * ((q / uK) K^T) against the log-domain kernel
    it replaces and the per-column reference, and the span guard that
    chooses between them."""

    SCALING = "_scaling_conj_grad_stack"
    LOG = "_log_conj_grad_stack"

    def _check(self, marginals, cost, gamma, z_stack, got, atol=1e-300,
               reference=oracles.conj_grad_reference):
        np.testing.assert_allclose(
            got, _log_domain(marginals, cost, gamma, z_stack), rtol=1e-12, atol=atol
        )
        for i in range(marginals.shape[0]):
            want = reference(marginals[i], _dense(cost), gamma, z_stack[i])
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)

    # The benchmark's three shapes and gamma, z of the spread a run reaches
    # (the widest span over the benchmark's runs is about 136), and small
    # cases with a second gamma.
    @pytest.mark.parametrize(
        "m, d, kind, gamma",
        [
            (10, 100, "line", 0.01),
            (50, 20, "line", 0.01),
            (8, 196, "raster", 0.01),
            (1, 30, "line", 0.05),
            (3, 16, "raster", 0.05),
        ],
    )
    def test_matches_log_domain_and_reference(self, kernel_calls, m, d, kind, gamma):
        rng = np.random.default_rng([31, m, d])
        cost = _support(kind, d, rng)
        marginals = _stack(rng, m, d)
        z_stack = 0.3 * rng.standard_normal((m, d))
        got = entot.wb_dual_oracle(marginals, cost, gamma).grad_conj_stack(z_stack)
        assert kernel_calls == [self.SCALING]
        self._check(marginals, cost, gamma, z_stack, got)

    # The benchmark's two matrix shapes, and a one-row raster, whose dense
    # cost is its second axis bit for bit.
    @pytest.mark.parametrize("m, d, kind", [(10, 100, "line"), (50, 20, "line"), (3, 12, "row")])
    def test_scaling_form_is_the_matrix_kernel_it_replaced(self, kernel_calls, m, d, kind):
        rng = np.random.default_rng([38, m, d])
        gamma = 0.01
        if kind == "line":
            cost = entot.cost_matrix(np.sort(rng.random(d)))
        else:
            cost = entot.GridCost(1, d)
        marginals = _stack(rng, m, d)
        z_stack = 0.3 * rng.standard_normal((m, d))
        got = entot.wb_dual_oracle(marginals, cost, gamma).grad_conj_stack(z_stack)
        assert kernel_calls == [self.SCALING]
        u = np.exp((z_stack - z_stack.max(axis=1, keepdims=True)) / gamma)
        kernel = np.exp(-_dense(cost) / gamma)
        want = oracles.scaling_conj_grad_stack_reference(marginals, kernel, u)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, d", [("line", 40), ("raster", 49)])
    @pytest.mark.parametrize("side", ["under", "over"])
    def test_span_limit_picks_the_path(self, kernel_calls, kind, d, side):
        rng = np.random.default_rng([32, d])
        cost, gamma, m = _support(kind, d, rng), 0.01, 3
        c_max = _dense(cost).max()
        width = entot._SCALING_SPAN_LIMIT * gamma - c_max
        assert width > 4.0
        width += -1e-9 if side == "under" else 1e-9
        z_stack = _with_span(rng, m, d, width)
        # Only the last node's span crosses; the others sit far below.
        z_stack[:-1] *= 0.5
        marginals = _stack(rng, m, d)
        got = entot.wb_dual_oracle(marginals, cost, gamma).grad_conj_stack(z_stack)
        path = self.SCALING if side == "under" else self.LOG
        assert kernel_calls == [path]
        # Every entry is a normal double here, down to about 1e-230, and
        # each is relatively accurate: no absolute slack.
        assert got.min() > 1e-250
        self._check(marginals, cost, gamma, z_stack, got, atol=0.0)

    def test_limit_keeps_every_factor_a_normal_double(self):
        # The bounds derived beside _SCALING_SPAN_LIMIT: the smallest
        # product exp(-limit) and the largest row sum d exp(limit), d < 1e40.
        limit = entot._SCALING_SPAN_LIMIT
        assert np.exp(-limit) > np.finfo(float).tiny
        assert 1e40 * np.exp(limit) < np.finfo(float).max

    @pytest.mark.parametrize("kind, d", [("line", 30), ("raster", 36)])
    def test_small_gamma_on_a_normalized_cost_falls_back(self, kernel_calls, kind, d):
        # c_max / gamma = 1000: exp(-C / gamma) reaches 5e-435, below the
        # doubles, at any z.
        rng = np.random.default_rng([33, d])
        cost = _support(kind, d, rng)
        marginals = _stack(rng, 2, d)
        z_stack = np.zeros((2, d))
        got = entot.wb_dual_oracle(marginals, cost, 1e-3).grad_conj_stack(z_stack)
        assert kernel_calls == [self.LOG]
        self._check(marginals, cost, 1e-3, z_stack, got)

    @pytest.mark.parametrize("kind, d", [("line", 50), ("raster", 49)])
    def test_large_z_over_gamma(self, kernel_calls, kind, d):
        # |z| / gamma near 1e4. A wide spread falls back, and is held to the
        # 40-digit reference, since the float64 one rounds its logits to
        # eps |z| / gamma there. A narrow one at a large offset keeps the
        # scaling form, since each node's z is shifted by its maximum first.
        # The offset is an exact shift of a dyadic small point, so the
        # references are evaluated there (see
        # TestGridDualOracle.test_large_z_over_gamma).
        rng = np.random.default_rng([34, d])
        cost, gamma = _support(kind, d, rng), 0.01
        marginals = _stack(rng, 2, d)
        wide = 100.0 * rng.standard_normal((2, d))
        oracle = entot.wb_dual_oracle(marginals, cost, gamma)
        got = oracle.grad_conj_stack(wide)
        assert kernel_calls == [self.LOG]
        self._check(
            marginals, cost, gamma, wide, got, reference=oracles.conj_grad_reference_decimal
        )
        small = np.round(0.3 * rng.standard_normal((2, d)) * 2.0**40) / 2.0**40
        large = small + 128.0
        assert np.array_equal(large - 128.0, small)
        kernel_calls.clear()
        got = oracle.grad_conj_stack(large)
        assert kernel_calls == [self.SCALING]
        self._check(marginals, cost, gamma, small, got)

    @pytest.mark.parametrize("kind, d", [("line", 12), ("raster", 16)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_z_takes_the_log_domain(self, kernel_calls, kind, d, bad):
        # A nan span compares False with the limit: the stack falls back, and
        # the non-finite z shows in the result instead of being hidden.
        rng = np.random.default_rng([35, d])
        cost = _support(kind, d, rng)
        z_stack = 0.1 * rng.standard_normal((2, d))
        z_stack[1, 3] = bad
        oracle = entot.wb_dual_oracle(_stack(rng, 2, d), cost, 0.05)
        with np.errstate(invalid="ignore"):
            got = oracle.grad_conj_stack(z_stack)
        assert kernel_calls == [self.LOG]
        assert np.isfinite(got[0]).all()
        if bad != -np.inf:
            assert not np.isfinite(got[1]).all()

    def test_kernel_spy_names_every_kernel(self):
        # The path tests see only the kernels conftest.KERNELS spies on, so
        # a kernel added to or deleted from entot must show here.
        kernels = [
            name for name, value in vars(entot).items()
            if name.endswith("_conj_grad_stack") and callable(value)
        ]
        assert sorted(kernels) == sorted(KERNELS)

    def test_dual_grad_runs_the_oracle_kernel(self, kernel_calls):
        rng = np.random.default_rng(36)
        cost = entot.cost_matrix(np.sort(rng.random(8)))
        q = entot.floor_histogram(rng.dirichlet(np.ones(8)), 1e-6)
        entot.dual_grad(q, cost, 0.05, 0.1 * rng.standard_normal(8))
        entot.dual_grad(q, cost, 0.05, 100.0 * rng.standard_normal(8))
        assert kernel_calls == [self.SCALING, self.LOG]

    @pytest.mark.parametrize("kind, d", [("line", 20), ("raster", 25)])
    def test_kernels_are_kept_read_only(self, kind, d):
        rng = np.random.default_rng([37, d])
        cost = _support(kind, d, rng)
        oracle = entot.wb_dual_oracle(_stack(rng, 2, d), cost, 0.05)
        first, second = oracle._axis_kernels
        if kind == "line":
            # A matrix is the second axis of a one-row raster.
            assert first.shape == (1, 1) and first[0, 0] == 1.0
            np.testing.assert_array_equal(second, np.exp(-cost / 0.05))
            assert oracle._c_max == cost.max()
        else:
            # The raster's kernel is the axes' Kronecker product; the axes
            # sum to the dense cost within one ulp.
            kernel = np.exp(-cost.dense / 0.05)
            np.testing.assert_allclose(np.kron(first, second), kernel, rtol=1e-13)
            assert oracle._c_max == pytest.approx(cost.dense.max(), rel=1e-15)
        assert not first.flags.writeable and not second.flags.writeable


def _smooth_image_grid(n=12):
    """A raster and its cost in whole squared pixel offsets."""
    grid = entot.GridCost(n, n)
    return grid, np.rint(grid.dense * grid.diagonal)


def _smooth_image_pairs(grid, count=24):
    """Floored ring images against a blurred estimate, as in a run."""
    n = grid.shape[0]
    yy, xx = np.mgrid[0:n, 0:n].astype(float)
    for seed in range(count):
        rng = np.random.default_rng([seed, n])
        cy, cx = rng.uniform(0.3, 0.7, 2) * (n - 1)
        radius, width = rng.uniform(0.2, 0.3) * n, rng.uniform(0.6, 1.0)
        ink = np.exp(-((np.hypot(yy - cy, xx - cx) - radius) ** 2) / (2 * width**2))
        image = np.round(255 * ink / ink.max()).ravel()
        p = entot.floor_histogram(image / image.sum(), 1e-6)
        z = 0.01 * rng.standard_normal((1, n * n))
        q = entot.wb_dual_oracle(p[None, :], grid, 0.01).grad_conj_stack(z)[0]
        yield p, q


def _c_transform_lower_bound(p, q, cost):
    """<p, f> + <q, g> from the column duals g of the dense transport LP,
    solved here by HiGHS, and their c-transform f_i = min_j cost_ij - g_j.
    (f, g) is dual feasible for any g, so this bounds the optimum from
    below however accurate the solve was."""
    from scipy.optimize import linprog

    d = p.shape[0]
    res = linprog(
        cost.ravel(), A_eq=_csc_matrix(_dense_incidence(d), 2 * d - 1),
        b_eq=np.concatenate([p, q[:-1]]), bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    g = np.append(res.eqlin.marginals[d:], 0.0)  # the last column's row is implied
    f = (cost - g).min(axis=1)
    return float(p @ f + q @ g)


class TestExactOTGrid:
    """The 3-partite LP against the exact rational simplex and against the
    dense transportation LP on the same raster."""

    def test_matches_exact_rational_simplex_on_2x2(self):
        rng = np.random.default_rng(25)
        grid = entot.GridCost(2, 2)
        # Normalized 2x2 raster costs are 0, 1/2 and 1: exact in binary.
        c_fr = [[Fraction(float(x)) for x in row] for row in grid.dense]
        for _ in range(8):
            mp = rng.integers(0, 10, size=4)
            mq = rng.integers(0, 10, size=4)
            mp[rng.integers(4)] += 1
            mq[rng.integers(4)] += 1
            p_fr = [Fraction(int(a), int(mp.sum())) for a in mp]
            q_fr = [Fraction(int(a), int(mq.sum())) for a in mq]
            ref = lp_oracle.transport_exact(p_fr, q_fr, c_fr)
            got = entot.exact_ot(mp / mp.sum(), mq / mq.sum(), grid)
            assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("rows, cols", [(2, 3), (2, 4)])
    def test_matches_exact_rational_simplex_with_zero_masses(self, rows, cols):
        # The reference is exact for the float costs, which are not all
        # exact fifths or tenths; about 40% of each marginal is zero.
        rng = np.random.default_rng([25, rows, cols])
        grid = entot.GridCost(rows, cols)
        d = rows * cols
        c_fr = [[Fraction(float(x)) for x in row] for row in grid.dense]
        for _ in range(6):
            masses = rng.integers(1, 10, size=(2, d)) * (rng.random((2, d)) > 0.4)
            masses[:, rng.integers(d)] += 1
            mp, mq = masses
            p_fr = [Fraction(int(a), int(mp.sum())) for a in mp]
            q_fr = [Fraction(int(a), int(mq.sum())) for a in mq]
            ref = lp_oracle.transport_exact(p_fr, q_fr, c_fr)
            got = entot.exact_ot(mp / mp.sum(), mq / mq.sum(), grid)
            assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("rows, cols", RASTERS)
    def test_matches_dense_lp(self, rows, cols):
        rng = np.random.default_rng([26, rows, cols])
        grid = entot.GridCost(rows, cols)
        for _ in range(3):
            p = _sparse_masses(rng, rows * cols)
            q = _sparse_masses(rng, rows * cols)
            got = entot.exact_ot(p, q, grid)
            ref = entot._transport_lp(p, q, grid.dense)
            assert abs(got - ref) <= 1e-12 * ref

    def test_matches_dense_lp_on_smooth_images(self):
        # Both LPs get whole squared pixel offsets as costs. On the
        # normalized costs, at HiGHS's default primal feasibility tolerance,
        # the two disagreed by up to 1.3e-7 relative on 2 of these 24 pairs:
        # HiGHS left entries at -6.5e-8, inside its bound tolerance, and on
        # one pair the dense LP fell 5.5e-8 below a lower bound certified by
        # a c-transform of its duals.
        grid, integer_cost = _smooth_image_grid()
        np.testing.assert_allclose(integer_cost / grid.diagonal, grid.dense, rtol=1e-15)
        for p, q in _smooth_image_pairs(grid):
            got = entot.exact_ot(p, q, grid)
            ref = entot._transport_lp(p, q, integer_cost) / grid.diagonal
            assert abs(got - ref) <= 1e-12 * ref

    def test_never_below_the_c_transform_lower_bound(self):
        # At HiGHS's default primal feasibility tolerance (1e-7) the grid
        # LP's flows stopped near -9e-8 and its value fell below this bound
        # on 6 of these 24 pairs, by up to 1.55e-6 relative. The bound is
        # valid whatever the duals it starts from; being within 1e-9 of
        # every value shows it is tight too.
        grid, integer_cost = _smooth_image_grid()
        for p, q in _smooth_image_pairs(grid):
            lower = _c_transform_lower_bound(p, q, integer_cost) / grid.diagonal
            for cost in (grid, grid.dense):
                got = entot.exact_ot(p, q, cost)
                assert got >= lower * (1.0 - 1e-12)
                assert got <= lower * (1.0 + 1e-9)

    @pytest.mark.parametrize("rows, cols", [(2, 3), (3, 3)])
    def test_constraints_carry_every_coupling_and_have_full_rank(self, rows, cols):
        # A coupling X of (p, q) as a flow: x1[a, c, b] = sum_e X[(a,b), (c,e)]
        # and x2[c, b, e] = sum_a X[(a,b), (c,e)]. It meets every row, costs
        # <M, X>, and no row is implied by the others.
        rng = np.random.default_rng([27, rows, cols])
        grid = entot.GridCost(rows, cols)
        d = rows * cols
        p, q = _sparse_masses(rng, d), _sparse_masses(rng, d)
        plan = np.outer(p, q).reshape(rows, cols, rows, cols)  # [a, b, c, e]
        x1 = plan.sum(axis=3).transpose(0, 2, 1).ravel()
        x2 = plan.sum(axis=0).transpose(1, 0, 2).ravel()
        flow = np.concatenate([x1, x2])
        a_eq = _csc_matrix(entot._incidence(grid.tails, grid.heads, d, 3 * d), 3 * d - 1).toarray()
        assert a_eq.shape == (3 * d - 1, rows * rows * cols + rows * cols * cols)
        np.testing.assert_allclose(
            a_eq @ flow, np.concatenate([p, np.zeros(d), q[:-1]]), atol=1e-15
        )
        assert np.linalg.matrix_rank(a_eq) == 3 * d - 1
        arc_cost = np.concatenate([
            np.broadcast_to(grid.offsets[0][:, :, None], (rows, rows, cols)).ravel(),
            np.broadcast_to(grid.offsets[1][None, :, :], (rows, cols, cols)).ravel(),
        ])
        np.testing.assert_array_equal(grid.arc_cost, arc_cost)
        assert arc_cost @ flow == pytest.approx(float(p @ grid.whole @ q), rel=1e-14)

    @pytest.mark.parametrize("dense", [False, True])
    def test_failed_lp_names_the_lp_d_and_smallest_masses(self, monkeypatch, dense):
        def infeasible(c, a_eq, b_eq, basis=None):
            raise entot._LPFailure("HiGHS model status 8: Infeasible")

        monkeypatch.setattr(entot, "_highs", infeasible)
        grid = entot.GridCost(2, 3)
        p = np.array([0.5, 0.0, 0.5 - 1e-14, 1e-14, 0.0, 0.0])
        q = np.array([0.0, 1.0 - 3e-16, 0.0, 0.0, 3e-16, 0.0])
        with pytest.raises(RuntimeError) as failure:
            entot.exact_ot(p, q, grid.dense if dense else grid)
        message = str(failure.value)
        assert message == (
            ("dense" if dense else "grid") + " transport LP failed at d = 6: HiGHS model "
            "status 8: Infeasible (smallest positive mass: p 1.000e-14, q 3.000e-16)"
        )


def _brute_force_reach(p, q):
    """Largest |i - j| over the positive entries of the north-west-corner
    coupling of two histograms, built entry by entry in exact arithmetic."""
    left_p = [Fraction(float(x)) for x in p]
    left_q = [Fraction(float(x)) for x in q]
    i = j = reach = 0
    while i < len(p) and j < len(q):
        moved = min(left_p[i], left_q[j])
        if moved > 0:
            reach = max(reach, abs(i - j))
        left_p[i] -= moved
        left_q[j] -= moved
        if left_p[i] == 0:
            i += 1
        else:
            j += 1
    return reach


def _dyadic_masses(rng, d, bits=20):
    """A histogram with entries k / 2^bits, about a third of them zero, so
    that its floating-point CDF is exact."""
    support = np.flatnonzero(rng.random(d) > 0.3)
    if support.size == 0:
        support = rng.integers(d, size=1)
    cuts = np.sort(rng.integers(0, 2**bits + 1, size=support.size - 1))
    counts = np.zeros(d)
    counts[support] = np.diff(np.concatenate([[0], cuts, [2**bits]]))
    return counts / 2.0**bits


def _grid_b_eq(p, q):
    return np.concatenate([p, np.zeros(p.shape[0]), q[:-1]])


def _full_grid_value(grid, p, q):
    """The certified value of the full 3-partite LP, as exact_ot takes it,
    in whole squared pixel offsets."""
    return entot._certified_lp(
        "grid", grid.tails, grid.heads, grid.arc_cost, 3 * p.shape[0], p, q, grid.whole
    )[0]


def _local_grid_value(grid, radius, p, q):
    """The certified value of the 3-partite LP on the arcs that move at most
    ``radius`` along their axis, or None when it is refused."""
    local = grid.arc_cost <= radius**2
    try:
        return entot._certified_lp(
            "local grid", grid.tails[local], grid.heads[local], grid.arc_cost[local],
            3 * p.shape[0], p, q, grid.whole,
        )[0]
    except entot._LPFailure:
        return None


def _loop_grid_constraints(rows, cols):
    """The 3-partite LP's equality rows, built arc by arc: x1[a, c, b] from
    source (a, b) to middle (c, b), then x2[c, b, e] from middle (c, b) to
    sink (c, e), with the last sink's row left out."""
    d = rows * cols
    entries = []  # (row, column, value)
    column = 0
    for a in range(rows):
        for c in range(rows):
            for b in range(cols):
                entries += [(a * cols + b, column, 1.0), (d + c * cols + b, column, 1.0)]
                column += 1
    for c in range(rows):
        for b in range(cols):
            for e in range(cols):
                entries += [(d + c * cols + b, column, -1.0), (2 * d + c * cols + e, column, 1.0)]
                column += 1
    row, col, value = zip(*[entry for entry in entries if entry[0] < 3 * d - 1])
    return scipy.sparse.csr_matrix((value, (row, col)), shape=(3 * d - 1, column))


def _sparse_14x14_pair():
    """Sparse masses on a 14x14 raster whose rule radius, 3, certifies."""
    rng = np.random.default_rng([26, 14, 14])
    return _sparse_masses(rng, 196), _sparse_masses(rng, 196)


class TestLocalGridLP:
    """The raster LP solved on local arcs first: its reach rule, its
    certificate and its fallback to the full LP."""

    def test_reach_matches_brute_force_monotone_coupling(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            d = int(rng.integers(1, 15))
            p, q = _dyadic_masses(rng, d), _dyadic_masses(rng, d)
            assert entot._monotone_reach(p, q) == _brute_force_reach(p, q)

    @pytest.mark.parametrize("rows, cols", RASTERS + [(1, 5)])
    def test_incidence_matches_the_entrywise_build_at_every_radius(self, rows, cols):
        grid = entot.GridCost(rows, cols)
        d = rows * cols
        want = _loop_grid_constraints(rows, cols).tocsc()
        for radius in range(max(rows, cols)):
            local = grid.arc_cost <= radius**2
            got = entot._incidence(grid.tails[local], grid.heads[local], d, 3 * d)
            _assert_same_csc(got, want[:, np.flatnonzero(local)])

    @pytest.mark.parametrize("rows, cols", RASTERS)
    def test_local_and_full_lp_agree(self, rows, cols):
        # Every radius the local LP can take, on sparse masses: a certified
        # local value is the full LP's to 1e-12, and some radius is
        # certified on every raster with more than two pixels a side.
        rng = np.random.default_rng([26, rows, cols])
        grid = entot.GridCost(rows, cols)
        certified = 0
        for _ in range(3):
            p, q = _sparse_masses(rng, rows * cols), _sparse_masses(rng, rows * cols)
            full = _full_grid_value(grid, p, q)
            for radius in range(1, max(rows, cols) - 1):
                value = _local_grid_value(grid, radius, p, q)
                if value is not None:
                    certified += 1
                    assert abs(value - full) <= 1e-12 * full
        assert certified > 0 or max(rows, cols) == 2

    def test_certificate_is_tight_on_the_local_optimum(self):
        rng = np.random.default_rng(30)
        grid = entot.GridCost(14, 14)
        p, q = _sparse_14x14_pair()
        local = grid.arc_cost <= 9
        res = entot._highs(
            grid.arc_cost[local], entot._incidence(grid.tails[local], grid.heads[local], 196, 588),
            _grid_b_eq(p, q) * entot._MASS_SCALE,
        )
        value = res.fun / entot._MASS_SCALE
        sink = np.append(res.row_dual[2 * 196:], 0.0)
        lower = entot._sink_lower_bound(sink, p, q, grid.whole)
        assert abs(value - lower) <= 1e-12 * value
        # The lower bound holds for any potentials, the perturbed ones too.
        full = _full_grid_value(grid, p, q)
        noisy = sink + 0.1 * rng.standard_normal(sink.shape)
        assert entot._sink_lower_bound(noisy, p, q, grid.whole) <= full * (1.0 + 1e-12)

    def test_perturbed_sink_duals_are_refused(self, monkeypatch):
        # Only the local solve's duals are perturbed; the full solve's are
        # HiGHS's own and certify it.
        rng = np.random.default_rng(31)
        grid = entot.GridCost(14, 14)
        p, q = _sparse_14x14_pair()
        assert _local_grid_value(grid, 3, p, q) is not None
        highs = entot._highs
        solves = []

        def perturbed(c, a_eq, b_eq, basis=None):
            res = highs(c, a_eq, b_eq, basis)
            if c.shape[0] < grid.arc_cost.shape[0]:
                res.row_dual[2 * 196:] += 1e-3 * rng.standard_normal(195)
            solves.append(res)
            return res

        monkeypatch.setattr(entot, "_highs", perturbed)
        assert _local_grid_value(grid, 3, p, q) is None
        solves.clear()
        got = entot.exact_ot(p, q, grid)
        # The local solve was refused, so the full LP ran after it.
        local = np.count_nonzero(grid.arc_cost <= 9)
        assert [res.x.shape[0] for res in solves] == [local, grid.arc_cost.shape[0]]
        assert abs(got - solves[1].fun / entot._MASS_SCALE / grid.diagonal) <= 1e-12 * got

    def test_warm_local_solve_with_perturbed_duals_is_refused(self, monkeypatch):
        # Only a kept value leaves a basis: the local solve after a refused
        # one is cold, since no smaller arc set has a basis to lift. A local
        # solve started from the same source's basis, with perturbed sink
        # duals, is refused all the same, and the full LP, warm too,
        # decides.
        rng = np.random.default_rng(37)
        grid = entot.GridCost(14, 14)
        p, q = _sparse_14x14_pair()
        highs = entot._highs
        solves = []
        perturb = [True]

        def spy(c, a_eq, b_eq, basis=None):
            res = highs(c, a_eq, b_eq, basis)
            if perturb[0] and c.shape[0] < grid.arc_cost.shape[0]:
                res.row_dual[2 * 196:] += 1e-3 * rng.standard_normal(195)
            solves.append((c.shape[0], basis is not None))
            return res

        monkeypatch.setattr(entot, "_highs", spy)
        values = []
        for perturbed in (True, False, True):
            perturb[0] = perturbed
            values.append(entot.exact_ot(p, q, grid))
        local, full = np.count_nonzero(grid.arc_cost <= 9), grid.arc_cost.shape[0]
        assert solves == [(local, False), (full, False), (local, False), (local, True), (full, True)]
        assert all(abs(value - values[1]) <= 1e-12 * values[1] for value in values)

    def test_a_solve_starts_from_the_latest_basis_of_its_source(self, monkeypatch):
        # Every arc local: all five LPs are on the full set. The first is
        # cold, the second, of another source, starts from the set's first
        # basis, and each later one from the latest of its own source.
        rng = np.random.default_rng(40)
        grid = entot.GridCost(5, 3)
        sources = [_sparse_masses(rng, 15) for _ in range(2)]
        pairs = [(sources[source], _sparse_masses(rng, 15)) for source in (0, 1, 0, 1, 0)]
        cold = [_full_grid_value(grid, p, q) / grid.diagonal for p, q in pairs]
        highs = entot._highs
        solves = []

        def spy(c, a_eq, b_eq, basis=None):
            solves.append((basis, highs(c, a_eq, b_eq, basis)))
            return solves[-1][1]

        monkeypatch.setattr(entot, "_highs", spy)
        monkeypatch.setattr(entot, "_monotone_reach", lambda p, q: 4)
        for (p, q), want in zip(pairs, cold):
            assert abs(entot.exact_ot(p, q, grid) - want) <= 1e-12 * want
        starts = [basis for basis, _ in solves]
        kept = [res.basis for _, res in solves]
        assert starts[0] is None
        assert starts[1:] == [kept[0], kept[0], kept[1], kept[2]]
        assert len(grid._bases[None]) == 3

    def test_a_smaller_sets_basis_is_lifted_onto_the_full_lp(self, monkeypatch):
        # The local LP at radius 3 is kept; the full LP after it, on the
        # same masses, starts from its basis, lifted: every local arc keeps
        # its status, every other arc is nonbasic at 0. HiGHS takes it and
        # the value is the cold full LP's.
        grid = entot.GridCost(14, 14)
        p, q = _sparse_14x14_pair()
        local_value = entot.exact_ot(p, q, grid)
        (radius,) = grid._bases
        local = grid.arc_cost <= radius**2
        highs = entot._highs
        starts = []

        def spy(c, a_eq, b_eq, basis=None):
            starts.append(basis)
            return highs(c, a_eq, b_eq, basis)

        monkeypatch.setattr(entot, "_highs", spy)
        monkeypatch.setattr(entot, "_monotone_reach", lambda p, q: 13)
        value = entot.exact_ot(p, q, grid)
        (lifted,) = starts
        small = grid._bases[radius][None]
        core = entot._highs_core()
        col_status = list(lifted.col_status)
        assert len(col_status) == grid.arc_cost.shape[0]
        assert [col_status[k] for k in np.flatnonzero(local)] == list(small.col_status)
        assert all(col_status[k] == core.HighsBasisStatus.kLower for k in np.flatnonzero(~local))
        assert list(lifted.row_status) == list(small.row_status)
        full = _full_grid_value(grid, p, q) / grid.diagonal
        assert abs(value - full) <= 1e-12 * full
        assert abs(local_value - full) <= 1e-12 * full

    @pytest.mark.parametrize("every_arc_local", [False, True])
    def test_perturbed_full_lp_duals_raise(self, monkeypatch, every_arc_local):
        # After a refused local solve, and when every arc is local, the full
        # LP's value is kept only with a certificate from its own duals.
        rng = np.random.default_rng(33)
        p, q = _sparse_14x14_pair()
        highs = entot._highs
        arcs = []

        def perturbed(c, a_eq, b_eq, basis=None):
            res = highs(c, a_eq, b_eq, basis)
            res.row_dual[2 * 196:] += 1e-3 * rng.standard_normal(195)
            arcs.append(c.shape[0])
            return res

        monkeypatch.setattr(entot, "_highs", perturbed)
        if every_arc_local:
            monkeypatch.setattr(entot, "_monotone_reach", lambda p, q: 13)
        with pytest.raises(RuntimeError) as failure:
            entot.exact_ot(p, q, entot.GridCost(14, 14))
        message = str(failure.value)
        assert message.startswith("grid transport LP at d = 196 is not certified: value ")
        assert re.search(
            r", lower bound \S+, upper bound \S+, relative spread \d\.\d{3}e-\d\d above 1e-09 \(",
            message,
        )
        assert f"(smallest positive mass: p {p[p > 0].min():.3e}, q {q[q > 0].min():.3e})" in message
        full = entot.GridCost(14, 14).arc_cost.shape[0]
        assert arcs[-1] == full and len(arcs) == (1 if every_arc_local else 2)

    @pytest.mark.parametrize("fault", ["negative flow", "row residual"])
    def test_infeasible_local_flow_is_rounded(self, monkeypatch, fault):
        # The value and the duals stay as HiGHS gave them, and the flow
        # fails the flow check: it is rounded onto a plan of (p, q), whose
        # cost brackets the value, so the local value is still kept.
        grid = entot.GridCost(14, 14)
        p, q = _sparse_14x14_pair()
        highs, rounded_cost = entot._highs, entot._rounded_cost
        rounded = []

        def faulty(c, a_eq, b_eq, basis=None):
            res = highs(c, a_eq, b_eq, basis)
            if fault == "negative flow":
                # A row residual of 1e-17, far inside rounding.
                res.x[np.argmin(res.x)] = -1e-17
            else:
                res.x[np.argmax(res.x)] -= 1e-12 * entot._MASS_SCALE
            return res

        def spy(*args):
            rounded.append(rounded_cost(*args))
            return rounded[-1]

        want = _local_grid_value(grid, 3, p, q)
        assert want is not None
        monkeypatch.setattr(entot, "_highs", faulty)
        monkeypatch.setattr(entot, "_rounded_cost", spy)
        assert _local_grid_value(grid, 3, p, q) == want
        assert len(rounded) == 1 and abs(rounded[0] - want) <= 1e-12 * want

    def test_infeasible_local_flow_that_rounds_too_high_takes_the_full_lp(self, monkeypatch):
        # Half of every local flow is missing; its rounding adds that half as
        # the product of the deficits, far above the optimum, so the local
        # value is refused and the full LP decides.
        grid = entot.GridCost(14, 14)
        p, q = _sparse_14x14_pair()
        want = entot.exact_ot(p, q, grid)
        highs = entot._highs
        arcs = []

        def halved(c, a_eq, b_eq, basis=None):
            res = highs(c, a_eq, b_eq, basis)
            arcs.append(c.shape[0])
            if len(arcs) == 1:
                res.x[:] *= 0.5
            return res

        monkeypatch.setattr(entot, "_highs", halved)
        assert abs(entot.exact_ot(p, q, grid) - want) <= 1e-12 * want
        assert arcs[0] < arcs[1] == grid.arc_cost.shape[0]

    @pytest.mark.parametrize("forced_reach", [0, 1])
    def test_too_small_radius_takes_the_full_lp(self, monkeypatch, forced_reach):
        # On this pair the rule's radius is 3. At radius 1 the local LP is
        # infeasible; at radius 2 it is feasible but 2% above the optimum,
        # and the certificate refuses it.
        grid = entot.GridCost(14, 14)
        p, q = _sparse_14x14_pair()
        want = entot.exact_ot(p, q, grid)
        highs = entot._highs
        results = []

        def spy(c, a_eq, b_eq, basis=None):
            try:
                results.append(highs(c, a_eq, b_eq, basis))
            except entot._LPFailure as failure:
                results.append(failure)
                raise
            return results[-1]

        monkeypatch.setattr(entot, "_highs", spy)
        monkeypatch.setattr(entot, "_monotone_reach", lambda p, q: forced_reach)
        got = entot.exact_ot(p, q, grid)
        assert len(results) == 2
        if forced_reach == 0:
            assert str(results[0]) == "HiGHS model status 8: Infeasible"
        else:
            assert results[0].fun / entot._MASS_SCALE / grid.diagonal > 1.01 * want
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("rows, cols", [(2, 2), (5, 3), (14, 14)])
    def test_full_lp_certifies_identical_marginals(self, monkeypatch, rows, cols):
        # A zero value leaves the certificate no slack at all.
        rng = np.random.default_rng([34, rows, cols])
        grid = entot.GridCost(rows, cols)
        monkeypatch.setattr(entot, "_monotone_reach", lambda p, q: max(rows, cols))
        for p in (rng.dirichlet(np.ones(rows * cols)), _sparse_masses(rng, rows * cols)):
            assert entot.exact_ot(p, p, grid) == 0.0

    def test_every_arc_local_takes_the_full_lp_alone(self, monkeypatch):
        rng = np.random.default_rng(29)
        grid = entot.GridCost(5, 3)
        p, q = _sparse_masses(rng, 15), _sparse_masses(rng, 15)
        highs = entot._highs
        arcs = []

        def spy(c, a_eq, b_eq, basis=None):
            arcs.append(c.shape[0])
            return highs(c, a_eq, b_eq, basis)

        monkeypatch.setattr(entot, "_highs", spy)
        monkeypatch.setattr(entot, "_monotone_reach", lambda p, q: 3)
        entot.exact_ot(p, q, grid)
        assert arcs == [grid.arc_cost.shape[0]]

    def test_shape_data_is_built_once_and_read_only(self):
        # A GridCost's arrays are read-only, and dense is built once, on
        # first access, per object.
        grid = entot.GridCost(7, 4)
        assert "dense" not in vars(grid)
        assert grid.dense is grid.dense
        assert entot.GridCost(7, 4).dense is not grid.dense
        arrays = (
            *grid.offsets, *grid.axes, grid.whole, grid.tails, grid.heads, grid.arc_cost,
            grid.dense,
        )
        assert not any(a.flags.writeable for a in arrays)
        # An arc's cost is its squared move along its own axis.
        first = grid.heads < 2 * 28
        move = np.where(
            first, (grid.heads - 28) // 4 - grid.tails // 4, grid.heads % 4 - grid.tails % 4
        )
        np.testing.assert_array_equal(grid.arc_cost, move.astype(float) ** 2)
        assert (grid.tails < grid.heads).all()


def _gaussian_on_a_line(rng, x):
    """A Gaussian histogram on the points x, mean in [0.2, 0.8], standard
    deviation in [0.05, 0.1]: its tails fall to 1e-43 on 100 points."""
    mean, std = rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.1)
    mass = np.exp(-((x - mean) ** 2) / (2 * std**2))
    return mass / mass.sum()


def _gaussian_bump(rng, rows, cols, sigma, low, high):
    """An isotropic Gaussian bump on a rows x cols raster, centred uniformly
    in [low, high]^2: a product of two 1-D Gaussians, up to rounding."""
    yy, xx = np.mgrid[0:rows, 0:cols].astype(float)
    cy, cx = rng.uniform(low, high, 2)
    image = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2)).ravel()
    return image / image.sum()


def _product_transport_cost(p, q, grid):
    """The transport cost between two product measures on a raster: the 1-D
    closed forms of their row sums and of their column sums, added. Every
    coupling pays at least each axis's 1-D optimum, since the cost is
    separable, and the product of the two 1-D optimal couplings is a
    coupling of p and q that pays exactly their sum."""
    p_image, q_image = p.reshape(grid.shape), q.reshape(grid.shape)
    return sum(
        entot._north_west_corner_cost(p_image.sum(axis=axis), q_image.sum(axis=axis), axes)
        for axis, axes in ((1, grid.axes[0]), (0, grid.axes[1]))
    )


class TestTinyMasses:
    """Marginals with masses far below HiGHS's absolute primal feasibility
    tolerance, against exact references. Before the LPs were solved on
    scaled masses and bracketed from above, HiGHS refused 7 of the first 60
    Gaussian pairs of this stream and kept 5 values 1e-9 to 4.3e-9 below the
    optimum, and refused 2 of 160 bump pairs (40 each at standard deviations
    1.6 to 1.9) and kept 5 values 1e-9 to 3.3e-9 low. The tests take the
    first 20 Gaussian pairs (2 refused, 2 low) and the first 30 bump pairs
    (1 refused, 3 low), since each dense LP takes about 0.17 s."""

    def test_mass_scale_is_a_power_of_two(self):
        # So the masses, values and flows scale and scale back exactly.
        assert math.frexp(entot._MASS_SCALE)[0] == 0.5

    def test_permuted_gaussians_on_a_line(self):
        # Permuted, the cost is not Monge and exact_ot takes the dense LP;
        # sorted, it takes the closed form.
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 1.0, 100)
        cost = entot.cost_matrix(x)
        for _ in range(20):
            p, q = _gaussian_on_a_line(rng, x), _gaussian_on_a_line(rng, x)
            want = entot.exact_ot(p, q, cost)
            perm = rng.permutation(100)
            got = entot.exact_ot(p[perm], q[perm], cost[np.ix_(perm, perm)])
            assert abs(got - want) <= 1e-9 * want

    def test_gaussian_bumps_on_a_raster(self):
        # Standard deviation 1.6 pixels: smallest masses down to 1e-16.
        rng = np.random.default_rng(7)
        grid = entot.GridCost(14, 14)
        for _ in range(30):
            p = _gaussian_bump(rng, 14, 14, 1.6, 3.0, 10.0)
            q = _gaussian_bump(rng, 14, 14, 1.6, 3.0, 10.0)
            want = _product_transport_cost(p, q, grid)
            assert abs(entot.exact_ot(p, q, grid) - want) <= 1e-9 * want

    @pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2)])
    def test_tiny_bumps_match_the_exact_rational_simplex(self, rows, cols):
        # Smallest masses down to 1e-19. The reference is exact for the float
        # costs and the float masses, normalized in exact arithmetic.
        rng = np.random.default_rng([36, rows, cols])
        grid = entot.GridCost(rows, cols)
        c_fr = [[Fraction(float(x)) for x in row] for row in grid.dense]
        for sigma in (0.25, 0.3, 0.35):
            p = _gaussian_bump(rng, rows, cols, sigma, 0.0, max(rows, cols) - 1.0)
            q = _gaussian_bump(rng, rows, cols, sigma, 0.0, max(rows, cols) - 1.0)
            p_fr, q_fr = ([Fraction(float(a)) for a in mass] for mass in (p, q))
            p_fr, q_fr = [a / sum(p_fr) for a in p_fr], [b / sum(q_fr) for b in q_fr]
            want = lp_oracle.transport_exact(p_fr, q_fr, c_fr)
            assert entot.exact_ot(p, q, grid) == pytest.approx(float(want), rel=1e-9)


def _lp_case(kind):
    """A pair of marginals and its cost: random planar points for the dense
    LP, a 14x14 raster for the 3-partite one."""
    if kind == "dense":
        rng = np.random.default_rng(22)
        cost = entot.cost_matrix(rng.random((30, 2)))
        return _sparse_masses(rng, 30), _sparse_masses(rng, 30), cost
    return (*_sparse_14x14_pair(), entot.GridCost(14, 14))


class TestTwoSidedCertificate:
    """A value is kept only between the c-transform lower bound and the cost
    of a plan of (p, q) from the solve's own flow, whatever HiGHS reports."""

    @pytest.mark.parametrize("kind", ["dense", "grid"])
    def test_lowered_value_is_refused(self, monkeypatch, kind):
        # The flow and duals stay as HiGHS gave them.
        p, q, cost = _lp_case(kind)
        highs = entot._highs
        monkeypatch.setattr(
            entot, "_highs", lambda *lp: (res := highs(*lp))._replace(fun=res.fun * (1 - 1e-6))
        )
        with pytest.raises(RuntimeError, match=f"^{kind} transport LP at d = .* is not certified"):
            entot.exact_ot(p, q, cost)

    @pytest.mark.parametrize("kind", ["dense", "grid"])
    def test_lowered_flow_is_refused(self, monkeypatch, kind):
        # Half of every flow is missing. Rounded onto (p, q), the missing
        # half moves as the product of the deficits, far above the value.
        p, q, cost = _lp_case(kind)
        highs = entot._highs

        def halved(*lp):
            res = highs(*lp)
            res.x[:] *= 0.5
            return res

        monkeypatch.setattr(entot, "_highs", halved)
        with pytest.raises(RuntimeError, match=r", upper bound \S+, relative spread"):
            entot.exact_ot(p, q, cost)

    @pytest.mark.parametrize("kind", ["dense", "grid"])
    def test_one_lowered_arc_is_rounded_back(self, monkeypatch, kind):
        # Rounding moves the arc's missing mass from its source to the sinks
        # it fed, along the arc's own paths: the plan, and so the upper
        # bound, is the optimal one again, and the value is kept.
        p, q, cost = _lp_case(kind)
        want = entot.exact_ot(p, q, cost)
        highs, rounded_cost = entot._highs, entot._rounded_cost
        rounded = []

        def lowered(*lp):
            res = highs(*lp)
            res.x[np.argmax(res.x)] = 0.0
            return res

        def spy(*args):
            rounded.append(rounded_cost(*args))
            return rounded[-1]

        monkeypatch.setattr(entot, "_highs", lowered)
        monkeypatch.setattr(entot, "_rounded_cost", spy)
        assert abs(entot.exact_ot(p, q, cost) - want) <= 1e-12 * want
        assert len(rounded) == 1

    @pytest.mark.parametrize("kind", ["dense", "grid"])
    def test_costlier_plan_is_refused(self, monkeypatch, kind):
        # The product coupling as the flow: it passes the flow check, and
        # its cost is far above the value.
        p, q, cost = _lp_case(kind)
        if kind == "dense":
            flow = np.outer(p, q).ravel()
        else:
            monkeypatch.setattr(entot, "_monotone_reach", lambda p, q: 13)
            plan = np.outer(p, q).reshape(14, 14, 14, 14)  # [a, b, c, e]
            flow = np.concatenate([
                plan.sum(axis=3).transpose(0, 2, 1).ravel(),  # x1[a, c, b]
                plan.sum(axis=0).transpose(1, 0, 2).ravel(),  # x2[c, b, e]
            ])
        highs = entot._highs
        monkeypatch.setattr(
            entot, "_highs", lambda *lp: highs(*lp)._replace(x=flow * entot._MASS_SCALE)
        )
        with pytest.raises(RuntimeError, match=r", upper bound \S+, relative spread"):
            entot.exact_ot(p, q, cost)


def _linprog(c, a_eq, b_eq, presolve=False):
    """The solve :func:`entot._highs` replaces, through scipy's linprog, by
    default with the same options."""
    from scipy.optimize import linprog

    return linprog(
        c, A_eq=_csc_matrix(a_eq, b_eq.shape[0]), b_eq=b_eq, bounds=(0, None),
        method="highs",
        options={"presolve": presolve, "primal_feasibility_tolerance": 1e-10},
    )


def _raster_lps(grid):
    """The local LP at the rule's radius and the full LP of every
    :func:`_smooth_image_pairs` pair, on scaled masses, as (c, a_eq, b_eq)."""
    d = grid.shape[0] * grid.shape[1]
    for p, q in _smooth_image_pairs(grid):
        p_image, q_image = p.reshape(grid.shape), q.reshape(grid.shape)
        reach = max(
            entot._monotone_reach(p_image.sum(axis=1), q_image.sum(axis=1)),
            entot._monotone_reach(p_image.sum(axis=0), q_image.sum(axis=0)),
        )
        for keep in (grid.arc_cost <= (reach + 1) ** 2, np.ones(grid.arc_cost.shape[0], dtype=bool)):
            a_eq = entot._incidence(grid.tails[keep], grid.heads[keep], d, 3 * d)
            yield grid.arc_cost[keep], a_eq, _grid_b_eq(p, q) * entot._MASS_SCALE


def _dense_lps():
    """Dense transport LPs on random planar points and sparse masses, on
    scaled masses, as (c, a_eq, b_eq)."""
    rng = np.random.default_rng(32)
    for d in (5, 30, 60):
        cost = entot.cost_matrix(rng.random((d, 2)))
        p, q = _sparse_masses(rng, d), _sparse_masses(rng, d)
        b_eq = np.concatenate([p, q[:-1]]) * entot._MASS_SCALE
        yield cost.ravel(), _dense_incidence(d), b_eq


class TestHighs:
    """The direct HiGHS call against scipy's linprog, and the loading of
    scipy's HiGHS extension."""

    def _assert_same_as_linprog(self, c, a_eq, b_eq):
        got, want = entot._highs(c, a_eq, b_eq), _linprog(c, a_eq, b_eq)
        assert want.status == 0
        assert got.fun == want.fun
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.row_dual, want.eqlin.marginals)

    def test_raster_lps_match_linprog_bit_for_bit(self):
        for lp in _raster_lps(_smooth_image_grid()[0]):
            self._assert_same_as_linprog(*lp)

    def test_dense_lps_match_linprog_bit_for_bit(self):
        for lp in _dense_lps():
            self._assert_same_as_linprog(*lp)

    def test_values_match_linprog_with_presolve(self):
        # Presolve removes nothing from these LPs, so the raster values do
        # not move at all. On sparse masses a dense LP can end at another
        # optimal flow, whose value differs by rounding.
        for lp in _raster_lps(_smooth_image_grid()[0]):
            assert entot._highs(*lp).fun == _linprog(*lp, presolve=True).fun
        for lp in _dense_lps():
            got, want = entot._highs(*lp).fun, _linprog(*lp, presolve=True).fun
            assert abs(got - want) <= 1e-15 * want

    def test_refused_option_raises(self, monkeypatch):
        # HiGHS itself only returns an error status and solves on.
        monkeypatch.setattr(
            entot, "_HIGHS_OPTIONS", entot._HIGHS_OPTIONS + (("presolv", "off"),)
        )
        with pytest.raises(RuntimeError, match=r"^HiGHS refused the option presolv = 'off'$"):
            entot._highs(*next(_dense_lps()))

    def test_refused_warm_option_raises(self, monkeypatch):
        # The warm options are set only on a solve from a starting basis.
        lp = next(_dense_lps())
        basis = entot._highs(*lp).basis
        monkeypatch.setattr(entot, "_WARM_OPTIONS", (("simplex_dual_edge_weight_strategy", 7),))
        entot._highs(*lp)
        with pytest.raises(
            RuntimeError, match=r"^HiGHS refused the option simplex_dual_edge_weight_strategy = 7$"
        ):
            entot._highs(*lp, basis)

    def test_basis_of_another_arc_set_raises(self):
        # A 4x4 raster's full-LP basis on its radius-1 arcs. HiGHS itself
        # only returns an error status.
        rng = np.random.default_rng(39)
        grid = entot.GridCost(4, 4)
        p, q = _sparse_masses(rng, 16), _sparse_masses(rng, 16)
        b_eq = _grid_b_eq(p, q) * entot._MASS_SCALE
        full = entot._highs(grid.arc_cost, entot._incidence(grid.tails, grid.heads, 16, 48), b_eq)
        local = grid.arc_cost <= 1
        a_eq = entot._incidence(grid.tails[local], grid.heads[local], 16, 48)
        with pytest.raises(RuntimeError, match=r"^HiGHS refused the starting basis$"):
            entot._highs(grid.arc_cost[local], a_eq, b_eq, full.basis)

    def test_refused_model_raises_before_run(self, monkeypatch):
        # A row index at the row count. HiGHS itself only returns an error
        # status and keeps the model: run on it crashed the interpreter
        # (segmentation fault, HiGHS 1.12.0).
        core = entot._highs_core()
        runs = []

        class Spy(core._Highs):
            def run(self):
                runs.append(self)
                return super().run()

        monkeypatch.setattr(core, "_Highs", Spy)
        c, (start, index, value), b_eq = next(_dense_lps())
        entot._highs(c, (start, index, value), b_eq)
        assert len(runs) == 1
        index = index.copy()
        index[0] = b_eq.shape[0]
        with pytest.raises(RuntimeError, match=r"^HiGHS refused the model: kError$"):
            entot._highs(c, (start, index, value), b_eq)
        assert len(runs) == 1

    def test_infeasible_lp_raises_highs_status_text(self):
        # Row sums of 1 and column sums of 2 on a 3 x 3 plan, which linprog
        # reports as status 2, infeasible.
        b_eq = np.array([1.0, 0.0, 0.0, 2.0, 0.0])
        assert _linprog(np.ones(9), _dense_incidence(3), b_eq).status == 2
        with pytest.raises(entot._LPFailure, match=r"^HiGHS model status 8: Infeasible$"):
            entot._highs(np.ones(9), _dense_incidence(3), b_eq)

    def test_missing_extension_names_the_scipy_floor(self, monkeypatch, tmp_path):
        import scipy

        monkeypatch.delitem(sys.modules, entot._HIGHS_MODULE, raising=False)
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError, match=r"scipy>=1\.15"):
            entot._highs_core()

    def test_two_threads_load_the_extension_for_their_first_lps(self, fresh_python):
        # netbary sweep runs its variants on a thread pool.
        script = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from netbary import entot\n"
            "grid = entot.GridCost(5, 4)\n"
            "barrier = threading.Barrier(2)\n"
            "values = {}\n"
            "def solve(k):\n"
            "    p, q = np.random.default_rng(k).dirichlet(np.ones(20), size=2)\n"
            "    barrier.wait()\n"
            "    values[k] = entot.exact_ot(p, q, grid) > 0\n"
            "threads = [threading.Thread(target=solve, args=(k,)) for k in range(2)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join()\n"
            "print(sorted(values.items()), 'scipy.optimize' in sys.modules)\n"
        )
        assert fresh_python(script) == "[(0, True), (1, True)] False\n"

    @pytest.mark.parametrize("lp_first", [True, False])
    def test_scipy_optimize_shares_the_extension(self, fresh_python, lp_first):
        # Either import order leaves one module object, and both linprog
        # and the transport LP work after it.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from netbary import entot\n"
            "def lp():\n"
            "    return entot.exact_ot(np.full(4, 0.25), np.eye(4)[0], entot.GridCost(2, 2))\n"
            f"first = lp() if {lp_first} else None\n"
            "import scipy.optimize\n"
            "import scipy.optimize._highspy._core as core\n"
            "print(entot._highs_core() is core is sys.modules[entot._HIGHS_MODULE])\n"
            "print(scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]).fun)\n"
            "print(lp(), first in (None, lp()))\n"
        )
        assert fresh_python(script) == "True\n1.0\n0.5 True\n"


class TestKBound:
    def test_zero_cost_closed_form(self):
        for d, gamma, delta in ((3, 0.1, 0.01), (10, 0.05, 1e-4)):
            got = entot.k_bound(d, gamma, delta)
            base = 2 * gamma * np.log(d) - gamma * np.log(delta / 2)
            assert got == pytest.approx(d * base**2, rel=1e-14)

    def test_scale_factor_homogeneous_in_gamma(self):
        a = entot.k_bound(4, 0.1, 0.01)
        b = entot.k_bound(4, 0.2, 0.01)
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
        got = entot.k_bound(cost.shape[0], gamma, delta)
        assert got == pytest.approx(total, rel=1e-14)
        assert got == pytest.approx(0.4213736177439613, rel=1e-12)

    def test_rejects_delta_out_of_range(self):
        for delta in (0.3, 0.0, np.nan):
            with pytest.raises(ValueError, match=f"^delta must lie in .*, got {delta}$"):
                entot.k_bound(4, 0.1, delta)

    def test_rejects_nonpositive_gamma(self):
        for gamma in (0.0, np.nan, np.inf):
            with pytest.raises(
                ValueError, match=f"^gamma must be positive and finite, got {gamma}$"
            ):
                entot.k_bound(4, gamma, 0.01)

    @pytest.mark.parametrize("gamma, got", [(1e300, "inf"), (1e-320, "0.0")])
    def test_value_outside_the_doubles_names_its_inputs(self, gamma, got):
        # K^2 is about 3.6e601 at gamma 1e300 and below the subnormals at
        # 1e-320, where it would round to 0.0, which bounds nothing.
        name = f"k_bound(d=5, gamma={gamma}, delta=0.01)"
        message = f"^{re.escape(name)} must be positive and finite, got {got}$"
        with pytest.raises(ValueError, match=message):
            entot.k_bound(5, gamma, 0.01)

    def test_rejects_an_empty_support(self):
        with pytest.raises(ValueError, match="^d must be an integer >= 1, got 0$"):
            entot.k_bound(0, 0.1, 0.01)

    def test_matches_broadcast_formula(self):
        # The row term min_i max_l |M_jl - M_il| evaluated over (d, d, d)
        # broadcasts, on symmetric and non-symmetric costs.
        rng = np.random.default_rng(34)
        for d in range(2, 61):
            gamma = float(rng.uniform(1e-3, 1.0))
            delta = float(rng.uniform(0.01, 1.0)) / d
            for cost in (entot.cost_matrix(rng.random((d, 2))), rng.random((d, d))):
                want = oracles.k_bound_reference(cost, gamma, delta)
                got = entot.k_bound(d, gamma, delta)
                assert got == pytest.approx(want, rel=1e-14)


class TestParamsForEps:
    def test_gamma_spends_quarter_of_eps_on_entropy_gap(self):
        got = entot.params_for_eps(0.08, 5, 20, 1e-6)
        assert 2 * got.gamma * np.log(20) == pytest.approx(0.08 / 4, rel=1e-14)

    def test_frozen_regression_values(self):
        got = entot.params_for_eps(0.1, 10, 100, 1e-6)
        np.testing.assert_allclose(
            [got.gamma, got.r, got.k_sq],
            [0.002714340511895324, 0.006031407481724236, 0.41449694910769147],
            rtol=1e-13,
        )

    def test_halving_eps_halves_gamma_and_doubles_r(self):
        # K^2 is degree-2 homogeneous in gamma (the row min-max term is zero
        # for every cost matrix), so r = eps/(4 m K^2) scales as 1/eps.
        hi = entot.params_for_eps(0.2, 4, 30, 1e-5)
        lo = entot.params_for_eps(0.1, 4, 30, 1e-5)
        assert lo.gamma == pytest.approx(hi.gamma / 2, rel=1e-14)
        assert lo.r == pytest.approx(2 * hi.r, rel=1e-13)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="^d must be an integer >= 2, got 1$"):
            entot.params_for_eps(0.1, 3, 1, 0.5)
        for eps in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^eps must be positive and finite, got {eps}$"):
                entot.params_for_eps(eps, 3, 4, 0.01)

    @pytest.mark.parametrize("eps, got", [(1e308, "inf"), (1e-320, "0.0")])
    def test_eps_whose_k_sq_leaves_the_doubles(self, eps, got):
        with pytest.raises(ValueError, match=rf"^k_bound\(d=4, .* got {got}$"):
            entot.params_for_eps(eps, 3, 4, 0.01)

    def test_r_where_four_m_k_sq_overflows(self):
        # K^2 is about 1.5e307, so 4 m K^2 alone is past the doubles.
        got = entot.params_for_eps(1.5407741015643584e152, 3, 5, 7.58350393545112e-62)
        assert got.r == pytest.approx(1.5407741015643584e152 / 12 / got.k_sq, rel=1e-15)
        assert 0.0 < got.r < 1e-150


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
