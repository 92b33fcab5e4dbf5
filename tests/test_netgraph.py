import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbary.netgraph import (
    FAMILIES,
    DisconnectedGraphError,
    Laplacian,
    NetworkSchedule,
    SpectralBounds,
    laplacian_from_edges,
    schedule_laplacian,
    spectral_bounds,
)


def _cycle_eigs(m):
    k = np.arange(m)
    return np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * k / m))


class TestLaplacianFromEdges:
    def test_triangle_matches_hand_matrix(self):
        lap = laplacian_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        expected = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
        np.testing.assert_array_equal(lap.entries, expected)

    def test_path_matches_hand_matrix(self):
        lap = laplacian_from_edges(3, [(0, 1), (1, 2)])
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        np.testing.assert_array_equal(lap.entries, expected)

    def test_edge_order_and_orientation_ignored(self):
        a = laplacian_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        b = laplacian_from_edges(4, [(3, 2), (0, 3), (2, 1), (1, 0)])
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_entries_are_read_only(self):
        lap = laplacian_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            lap.entries[0, 0] = 7.0

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValueError, match="out of range"):
            laplacian_from_edges(3, [(0, 1), (1, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            laplacian_from_edges(3, [(0, 1), (2, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            laplacian_from_edges(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_disconnected_graph(self):
        with pytest.raises(DisconnectedGraphError, match="kernel dimension"):
            laplacian_from_edges(4, [(0, 1), (2, 3)])

    def test_single_edge_pair(self):
        lap = laplacian_from_edges(2, [(0, 1)])
        np.testing.assert_array_equal(lap.entries, [[1, -1], [-1, 1]])


class TestLaplacianApply:
    def test_matches_kronecker_product_action(self):
        # The stacked operator is (L kron I_d) acting on the flattened stack.
        rng = np.random.default_rng(5)
        lap = laplacian_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        stack = rng.standard_normal((4, 3))
        big = np.kron(lap.entries, np.eye(3))
        expected = (big @ stack.ravel()).reshape(4, 3)
        np.testing.assert_allclose(lap.apply(stack), expected, rtol=0, atol=1e-14)

    def test_constant_stack_maps_to_zero(self):
        lap = laplacian_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        stack = np.tile([2.0, -1.0], (5, 1))
        np.testing.assert_allclose(lap.apply(stack), 0.0, rtol=0, atol=1e-15)

    def test_rejects_wrong_node_count(self):
        lap = laplacian_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="shape"):
            lap.apply(np.zeros((4, 2)))

    def test_rejects_one_dimensional_input(self):
        lap = laplacian_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="shape"):
            lap.apply(np.zeros(3))


class TestEigenvalues:
    def test_cycle_four_nodes(self):
        lap = laplacian_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        np.testing.assert_allclose(lap.eigenvalues(), [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_complete_graph_spectrum(self):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        lap = laplacian_from_edges(6, edges)
        np.testing.assert_allclose(lap.eigenvalues(), [0.0] + [6.0] * 5, atol=1e-12)

    def test_star_spectrum(self):
        lap = laplacian_from_edges(6, [(0, j) for j in range(1, 6)])
        np.testing.assert_allclose(
            lap.eigenvalues(), [0.0, 1.0, 1.0, 1.0, 1.0, 6.0], atol=1e-12
        )


class TestNetworkSchedule:
    def test_static_schedule_single_epoch(self):
        sched = NetworkSchedule(family="cycle", m=5, epoch_len=None, seed=0)
        assert sched.epoch_of(0) == 0
        assert sched.epoch_of(10_000) == 0
        assert sched.epoch_count(10_000) == 1

    def test_epoch_boundaries(self):
        sched = NetworkSchedule(family="cycle", m=5, epoch_len=50, seed=0)
        assert sched.epoch_of(0) == 0
        assert sched.epoch_of(49) == 0
        assert sched.epoch_of(50) == 1
        assert sched.epoch_of(149) == 2
        assert sched.epoch_count(150) == 3

    def test_rejects_small_m(self):
        with pytest.raises(ValueError, match="m"):
            NetworkSchedule(family="cycle", m=1, epoch_len=None, seed=0)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            NetworkSchedule(family="torus", m=5, epoch_len=None, seed=0)

    def test_random_family_requires_p(self):
        with pytest.raises(ValueError, match="p"):
            NetworkSchedule(family="erdos_renyi", m=5, epoch_len=None, seed=0)

    def test_rejects_p_out_of_range(self):
        with pytest.raises(ValueError, match="p"):
            NetworkSchedule(family="erdos_renyi", m=5, epoch_len=None, seed=0, p=1.5)

    def test_rejects_bad_epoch_len(self):
        with pytest.raises(ValueError, match="epoch_len"):
            NetworkSchedule(family="cycle", m=5, epoch_len=0, seed=0)


class TestScheduleLaplacian:
    def test_deterministic_for_equal_seeds(self):
        for family, p in (("erdos_renyi", 0.5), ("mst_of_er", 0.5), ("cycle", None)):
            a = NetworkSchedule(family=family, m=8, epoch_len=3, seed=9, p=p)
            b = NetworkSchedule(family=family, m=8, epoch_len=3, seed=9, p=p)
            for n in (0, 3, 17):
                np.testing.assert_array_equal(
                    schedule_laplacian(a, n).entries, schedule_laplacian(b, n).entries
                )

    def test_seed_changes_graph(self):
        a = NetworkSchedule(family="erdos_renyi", m=10, epoch_len=None, seed=0, p=0.4)
        b = NetworkSchedule(family="erdos_renyi", m=10, epoch_len=None, seed=1, p=0.4)
        assert not np.array_equal(
            schedule_laplacian(a, 0).entries, schedule_laplacian(b, 0).entries
        )

    def test_static_schedule_never_changes(self):
        sched = NetworkSchedule(family="erdos_renyi", m=7, epoch_len=None, seed=2, p=0.5)
        first = schedule_laplacian(sched, 0).entries
        for n in (1, 99, 5000):
            np.testing.assert_array_equal(schedule_laplacian(sched, n).entries, first)

    def test_constant_within_epoch_changes_across(self):
        sched = NetworkSchedule(family="erdos_renyi", m=9, epoch_len=4, seed=3, p=0.5)
        np.testing.assert_array_equal(
            schedule_laplacian(sched, 0).entries, schedule_laplacian(sched, 3).entries
        )
        changed = any(
            not np.array_equal(
                schedule_laplacian(sched, 4 * e).entries,
                schedule_laplacian(sched, 0).entries,
            )
            for e in range(1, 6)
        )
        assert changed

    def test_cycle_relabel_preserves_spectrum_and_degrees(self):
        sched = NetworkSchedule(family="cycle", m=7, epoch_len=1, seed=4)
        reference = _cycle_eigs(7)
        for n in range(5):
            lap = schedule_laplacian(sched, n)
            np.testing.assert_array_equal(np.diag(lap.entries), np.full(7, 2.0))
            np.testing.assert_allclose(lap.eigenvalues(), reference, atol=1e-12)

    def test_star_hub_moves_across_epochs(self):
        sched = NetworkSchedule(family="star", m=6, epoch_len=1, seed=5)
        hubs = {
            int(np.argmax(np.diag(schedule_laplacian(sched, n).entries)))
            for n in range(12)
        }
        assert len(hubs) > 1

    def test_complete_family_is_complete_graph(self):
        sched = NetworkSchedule(family="complete", m=6, epoch_len=1, seed=6)
        expected = 6.0 * np.eye(6) - np.ones((6, 6))
        np.testing.assert_array_equal(schedule_laplacian(sched, 3).entries, expected)

    def test_er_with_p_one_is_complete(self):
        sched = NetworkSchedule(family="erdos_renyi", m=5, epoch_len=None, seed=7, p=1.0)
        expected = 5.0 * np.eye(5) - np.ones((5, 5))
        np.testing.assert_array_equal(schedule_laplacian(sched, 0).entries, expected)

    def test_er_graphs_always_connected(self):
        # Rejection sampling (or the spanning-tree fallback at tiny p) must
        # never emit a graph with a zero second eigenvalue.
        for p in (0.05, 0.3, 0.8):
            sched = NetworkSchedule(family="erdos_renyi", m=6, epoch_len=1, seed=8, p=p)
            for n in range(8):
                eigs = schedule_laplacian(sched, n).eigenvalues()
                assert eigs[1] > 1e-10

    def test_mst_is_spanning_tree(self):
        # A tree on m nodes has m-1 edges, so trace(L) = 2(m-1).
        sched = NetworkSchedule(family="mst_of_er", m=10, epoch_len=1, seed=9, p=0.7)
        for n in range(6):
            lap = schedule_laplacian(sched, n)
            assert np.trace(lap.entries) == pytest.approx(18.0)
            assert lap.eigenvalues()[1] > 1e-10


class TestSpectralBounds:
    def test_validates_ordering(self):
        with pytest.raises(ValueError):
            SpectralBounds(lambda_min_plus=3.0, lambda_max=2.0)
        with pytest.raises(ValueError):
            SpectralBounds(lambda_min_plus=0.0, lambda_max=2.0)

    def test_complete_family_analytic(self):
        for m in (4, 6, 11):
            sched = NetworkSchedule(family="complete", m=m, epoch_len=None, seed=0)
            got = spectral_bounds(sched, horizon=10)
            assert got.lambda_min_plus == pytest.approx(m, abs=1e-9)
            assert got.lambda_max == pytest.approx(m, abs=1e-9)

    def test_star_family_analytic(self):
        for m in (4, 9, 20):
            sched = NetworkSchedule(family="star", m=m, epoch_len=1, seed=0)
            got = spectral_bounds(sched, horizon=10)
            assert got.lambda_min_plus == pytest.approx(1.0, abs=1e-9)
            assert got.lambda_max == pytest.approx(m, abs=1e-9)

    def test_cycle_family_analytic(self):
        for m in (4, 7, 10):
            sched = NetworkSchedule(family="cycle", m=m, epoch_len=1, seed=0)
            got = spectral_bounds(sched, horizon=10)
            eigs = _cycle_eigs(m)
            assert got.lambda_min_plus == pytest.approx(eigs[1], abs=1e-9)
            assert got.lambda_max == pytest.approx(eigs[-1], abs=1e-9)

    def test_cycle_ten_frozen_values(self):
        sched = NetworkSchedule(family="cycle", m=10, epoch_len=None, seed=0)
        got = spectral_bounds(sched, horizon=1)
        np.testing.assert_allclose(
            [got.lambda_min_plus, got.lambda_max],
            [0.3819660112501051, 4.0],
            rtol=1e-12,
        )

    def test_random_family_covers_every_epoch(self):
        sched = NetworkSchedule(family="erdos_renyi", m=8, epoch_len=5, seed=12, p=0.4)
        horizon = 40
        got = spectral_bounds(sched, horizon=horizon)
        for epoch in range(sched.epoch_count(horizon)):
            eigs = schedule_laplacian(sched, epoch * 5).eigenvalues()
            positive = eigs[eigs > 1e-10]
            assert got.lambda_min_plus <= positive.min() + 1e-12
            assert got.lambda_max >= positive.max() - 1e-12

    def test_horizon_must_be_positive(self):
        sched = NetworkSchedule(family="cycle", m=4, epoch_len=None, seed=0)
        with pytest.raises(ValueError):
            spectral_bounds(sched, horizon=0)


@st.composite
def connected_edges(draw):
    m = draw(st.integers(min_value=2, max_value=8))
    # Random spanning tree first, extras after: connectivity by construction.
    edges = set()
    for v in range(1, m):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    n_extra = draw(st.integers(min_value=0, max_value=m))
    for _ in range(n_extra):
        u = draw(st.integers(min_value=0, max_value=m - 1))
        v = draw(st.integers(min_value=0, max_value=m - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return m, sorted(edges)


class TestLaplacianProperties:
    @given(connected_edges())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_psd_zero_row_sums(self, case):
        m, edges = case
        lap = laplacian_from_edges(m, edges)
        np.testing.assert_array_equal(lap.entries, lap.entries.T)
        np.testing.assert_allclose(lap.entries.sum(axis=1), 0.0, atol=1e-12)
        assert lap.eigenvalues()[0] >= -1e-10

    @given(connected_edges(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_apply_annihilates_consensus_direction(self, case, d):
        m, edges = case
        lap = laplacian_from_edges(m, edges)
        rng = np.random.default_rng(0)
        row = rng.standard_normal(d)
        out = lap.apply(np.tile(row, (m, 1)))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)
