"""Entropic optimal transport: dual oracle, exact transport, bounds.

This layer supplies everything the decentralized solver needs to compute
entropic Wasserstein barycenters. The central objects are the entropic
transport cost

    W_gamma(p, q) = min over couplings X of p and q of
                    <M, X> + gamma * sum_ij X_ij log X_ij,

its Fenchel conjugate in the first marginal (closed form, evaluated in the
log domain), and the conjugate's gradient, which is both the solver's oracle
and the barycenter recovery map: products with the Gibbs kernel
exp(-M / gamma) while they stay in the double range, the log domain beyond.
``exact_ot`` evaluates the unregularized cost for metrics; ``k_bound`` and
``params_for_eps`` produce the constants that calibrate accuracy-driven
parameter choices.

Histograms are plain arrays on the probability simplex. Oracles require
strictly positive histograms (see :func:`floor_histogram`), which keeps the
conjugate finite and its gradient Lipschitz.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adom import DualOracle, _positive_finite
from .netgraph import _integer

__all__ = [
    "validate_histogram",
    "floor_histogram",
    "cost_matrix",
    "GridCost",
    "validate_cost_matrix",
    "dual_value",
    "dual_grad",
    "WassersteinDualOracle",
    "wb_dual_oracle",
    "exact_ot",
    "k_bound",
    "AccuracyParams",
    "params_for_eps",
]

# Mass must sum to one within this before an array counts as a histogram.
SIMPLEX_TOL = 1e-12


def validate_histogram(q: np.ndarray, name: str = "histogram") -> np.ndarray:
    """Check nonnegativity and unit mass; returns the array as float64."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.shape[0] < 1:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError(f"{name} has non-finite entries")
    if q.min() < -SIMPLEX_TOL:
        raise ValueError(f"{name} has negative entry {q.min()}")
    if abs(q.sum() - 1.0) > max(SIMPLEX_TOL, 64 * np.finfo(float).eps * q.shape[0]):
        raise ValueError(f"{name} sums to {q.sum()}, expected 1")
    return q


def floor_histogram(q: np.ndarray, delta: float) -> np.ndarray:
    """Mix toward uniform: (1 - delta d) q + delta.

    Keeps unit mass exactly and guarantees every entry is at least delta,
    which the dual oracle needs to stay finite. Requires delta d < 1.
    """
    q = validate_histogram(q, "q")
    d = q.shape[0]
    if not (delta > 0 and delta * d < 1.0):
        raise ValueError(f"delta must lie in (0, 1/d) with d={d}, got {delta}")
    return (1.0 - delta * d) * q + delta


def cost_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean costs over support points, divided by
    their maximum so costs lie in [0, 1].

    ``points`` has one support point per row; 1-d input is treated as points
    on a line.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError(f"need at least two support points, got shape {points.shape}")
    diff = points[:, None, :] - points[None, :, :]
    cost = np.sum(diff * diff, axis=2)
    np.fill_diagonal(cost, 0.0)
    top = cost.max()
    if top <= 0:
        raise ValueError("all support points coincide; cannot normalize")
    return cost / top


def validate_cost_matrix(cost: np.ndarray, name: str = "cost") -> np.ndarray:
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"{name} must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError(f"{name} has non-finite entries")
    if cost.min() < 0:
        raise ValueError(f"{name} has negative entry {cost.min()}")
    if np.abs(np.diagonal(cost)).max() > 0:
        raise ValueError(f"{name} must have a zero diagonal")
    if not np.array_equal(cost, cost.T):
        if np.abs(cost - cost.T).max() > 1e-12 * max(1.0, cost.max()):
            raise ValueError(f"{name} must be symmetric")
    return cost


class GridCost:
    """Normalized squared Euclidean cost over a rows x cols pixel raster.

    Pixels are numbered row-major, as in a flattened image. Everything is
    built from the per-axis squared pixel offsets, ``offsets[0][a, c] =
    (a - c)^2`` and ``offsets[1][b, e] = (b - e)^2``, and their normalizer,
    ``diagonal``, the squared length of the raster's diagonal:

    - ``axes``, the offsets divided by ``diagonal``, which the dual oracle
      reads: pixel (a, b) to pixel (c, e) costs ``axes[0][a, c] +
      axes[1][b, e]``, within one ulp of ``dense``;
    - ``whole``, the d x d cost in whole squares, ``offsets[0][a, c] +
      offsets[1][b, e]`` at [a * cols + b, c * cols + e], exact in binary;
    - the arcs of the 3-partite transport LP (:func:`exact_ot`), in whole
      squares: arc x1[a, c, b] carries source (a, b) to middle (c, b) at
      ``offsets[0][a, c]``, arc x2[c, b, e] carries middle (c, b) to sink
      (c, e) at ``offsets[1][b, e]``. ``tails``, ``heads`` and ``arc_cost``
      list x1 then x2, each row-major, with nodes numbered as
      :func:`_incidence` takes them: d sources, d middles, d sinks, each
      row-major over the pixels;
    - ``dense``, ``whole / diagonal``, which is :func:`cost_matrix` of the
      pixel coordinates bit for bit. It is built on first access, once;
      neither the oracle nor :func:`exact_ot` reads it.

    All arrays are read-only. Sizes that are not integers, or a raster of
    fewer than two pixels, raise ValueError.

    A ``GridCost`` also keeps optimal bases of the LPs whose values
    :func:`exact_ot` kept: per arc set, the first one and, per source
    histogram p, the latest one. Later LPs start from them
    (:func:`_grid_transport_lp`), so the store holds at most one basis per
    arc set and source, plus one. It is not part of the raster's value: a
    kept value is certified whatever the start, but its last bits can
    depend on the LPs solved before it. A run's LPs come in an order fixed
    by its config, so seeded reruns stay byte-identical, and each variant
    of a sweep builds its own ``GridCost``.
    """

    def __init__(self, rows: int, cols: int):
        rows, cols = _integer("rows", rows, 1), _integer("cols", cols, 1)
        if rows * cols < 2:
            raise ValueError(f"a raster needs at least two pixels, got {rows} x {cols}")
        d = rows * cols
        self.shape = (rows, cols)
        self.offsets = tuple(
            np.subtract.outer(np.arange(n), np.arange(n)).astype(float) ** 2 for n in self.shape
        )
        self.diagonal = float((rows - 1) ** 2 + (cols - 1) ** 2)
        self.axes = tuple(offset / self.diagonal for offset in self.offsets)
        o1, o2 = self.offsets
        self.whole = (o1[:, None, :, None] + o2[None, :, None, :]).reshape(d, d)
        a, c, b = np.unravel_index(np.arange(rows * rows * cols), (rows, rows, cols))
        c2, b2, e = np.unravel_index(np.arange(rows * cols * cols), (rows, cols, cols))
        self.tails = np.concatenate([a * cols + b, d + c2 * cols + b2])
        self.heads = np.concatenate([d + c * cols + b, 2 * d + c2 * cols + e])
        self.arc_cost = np.concatenate([o1[a, c], o2[b2, e]])
        for array in (*self.offsets, *self.axes, self.whole, self.tails, self.heads, self.arc_cost):
            array.setflags(write=False)
        # Arc set (its local radius, None for every arc) -> {None: the first
        # kept basis, p.tobytes(): the latest kept basis with source p}.
        self._bases = {}

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """The d x d normalized cost, ``whole / diagonal``."""
        dense = self.whole / self.diagonal
        dense.setflags(write=False)
        return dense

    def _start(self, radius, arcs, source: bytes):
        """The basis an LP on the arcs ``arcs``, those that move at most
        ``radius`` (None: every arc), with source masses ``source`` starts
        from, or None for a cold solve: the latest kept basis of the set
        with the same source, else the set's first kept basis, else a basis
        of the largest smaller set, lifted (:func:`_lifted_basis`)."""
        kept = self._bases.get(radius, {})
        start = kept.get(source, kept.get(None))
        if start is not None:
            return start
        smaller = [r for r in self._bases if r is not None and (radius is None or r < radius)]
        if not smaller:
            return None
        inner = max(smaller)
        kept = self._bases[inner]
        return _lifted_basis(kept.get(source, kept[None]), self.arc_cost[arcs] <= inner**2)

    def _keep(self, radius, source: bytes, basis) -> None:
        """Keep the final basis of an LP whose value was kept."""
        kept = self._bases.setdefault(radius, {})
        kept.setdefault(None, basis)
        kept[source] = basis


def _check_marginal(q, cost, name="q"):
    """q as a strictly positive histogram on a validated cost's support."""
    q = validate_histogram(q, name)
    if q.min() <= 0:
        raise ValueError(
            f"{name} has a zero entry; apply floor_histogram before building the oracle"
        )
    if cost.shape[0] != q.shape[0]:
        raise ValueError(
            f"cost shape {cost.shape} incompatible with histogram length {q.shape[0]}"
        )
    return q


def _check_oracle_inputs(q, cost, gamma, z):
    cost = validate_cost_matrix(cost)
    _positive_finite("gamma", gamma)
    q = _check_marginal(q, cost)
    z = np.asarray(z, dtype=float)
    if z.shape != q.shape:
        raise ValueError(f"z shape {z.shape} != histogram shape {q.shape}")
    if not np.isfinite(z).all():
        raise ValueError(f"z has non-finite entries: {z[~np.isfinite(z)][:3]}")
    return q, cost, z


def dual_value(q: np.ndarray, cost: np.ndarray, gamma: float, z: np.ndarray) -> float:
    """Conjugate of the entropic transport cost in its first marginal.

    W*_{gamma,q}(z) = -gamma <q, log q>
                      + gamma sum_j q_j log sum_l exp((z_l - M_lj) / gamma).

    Evaluated with max-subtracted log-sum-exp, so it stays finite for
    |z|/gamma up to 1e4 and beyond.
    """
    q, cost, z = _check_oracle_inputs(q, cost, gamma, z)
    scaled = (z[:, None] - cost) / gamma  # [l, j]
    lse = _lse_first_axis(scaled)
    return float(-gamma * np.dot(q, np.log(q)) + gamma * np.dot(q, lse))


def dual_grad(q: np.ndarray, cost: np.ndarray, gamma: float, z: np.ndarray) -> np.ndarray:
    """Gradient of :func:`dual_value` in z: a point on the simplex.

    Column j of exp((z_l - M_lj)/gamma) is normalized over l and the columns
    are mixed with weights q_j. The map is invariant to shifting z by a
    constant and 1/gamma-Lipschitz. Evaluated as the one row of a one-row
    :class:`WassersteinDualOracle` on a cost matrix: a stack's row equals
    this bit for bit whenever the whole stack takes the path this row takes
    alone.
    """
    q, cost, z = _check_oracle_inputs(q, cost, gamma, z)
    return WassersteinDualOracle(q[None, :], cost, gamma).grad_conj_stack(z[None, :])[0]


# The Gibbs-kernel form evaluates, node by node, the factors
# u_l = exp((z_l - max z) / gamma) in (0, 1], the normalizers n_j = sum_l
# u_l K_lj with K_lj = exp(-C_lj / gamma) in [exp(-c_max / gamma), 1], the
# quotients q_j / n_j and the row sums sum_j (q_j / n_j) K_lj. It is used
# only while every node's span s = (max z - min z + c_max) / gamma is below
# this limit, which keeps each of them a normal double for d < 1e40:
# - every u_l, K_lj and product u_l K_lj is at least exp(-s) > exp(-600),
#   about 2.7e-261, far above the smallest normal double, 2.2e-308, about
#   exp(-708.4);
# - every normalizer lies in [exp(-c_max / gamma), d]: the term of the l
#   with the largest z has u_l = 1, and no term exceeds 1;
# - so every q_j / n_j is at most exp(600), about 3.8e260, and every row
#   sum at most d exp(600) < 3.8e300, below the largest double, 1.8e308.
# On a grid the one-axis partial products obey the same bounds, since the
# two axes' maxima add up to c_max. q enters only as a factor: a term
# q_j K_lj / n_j is never smaller than the q_j u_l K_lj / n_j the log-domain
# kernel forms, as u_l <= 1, so no term underflows that it keeps.
_SCALING_SPAN_LIMIT = 600.0


def _gibbs_factors(z_stack, c_max, gamma):
    """Per node, u = exp((z - max z) / gamma), or None when some node's span
    (max z - min z + c_max) / gamma is not below :data:`_SCALING_SPAN_LIMIT`.
    A nan or infinite z makes its span nan or infinite, which fails the
    comparison, so such a stack takes the log domain and shows the nan."""
    top = z_stack.max(axis=1, keepdims=True)
    span = (top[:, 0] - z_stack.min(axis=1) + c_max) / gamma
    if not (span < _SCALING_SPAN_LIMIT).all():
        return None
    u = z_stack - top
    u /= gamma
    return np.exp(u, out=u)


def _scaling_conj_grad_stack(marginals, axis_kernels, u):
    """The stacked gradient in the scaling form u * ((q / (u K)) K^T), from
    the Gibbs factors ``u`` of :func:`_gibbs_factors` (Peyre & Cuturi,
    *Computational Optimal Transport*, 2019, section 4). K is the Kronecker
    product of the axes' Gibbs kernels K1 and K2 (Solomon et al.,
    *Convolutional Wasserstein Distances*, SIGGRAPH 2015), so each product
    with it is two small ones on the node's (rows, cols) image: the
    normalizers are K1^T U K2, the mixed sums K1 W K2^T. Work is 4 m n^3 on
    an n x n raster.

    A d x d cost matrix is the second axis of a one-row raster, whose first
    axis's kernel is [[1.0]]. Products with it are skipped: they change no
    bit, but made a call 11-19% slower at the benchmark's matrix shapes (m
    10, d 100 and m 50, d 20; one BLAS thread, 2-vCPU Xeon VM). What remains
    are batches of one-row products, (m, 1, d) @ (d, d), 2 m d^2
    multiply-adds: one (m, d) @ (d, d) product would sum in another order
    than a single row does, and :func:`dual_grad` must equal a row of the
    stack bit for bit. Besides the kernels, memory is O(m d)."""
    k1, k2 = axis_kernels
    one_row = k1.shape == (1, 1)
    m = u.shape[0]
    u = u.reshape(m, k1.shape[0], k2.shape[0])
    mixed = u @ k2 if one_row else k1.T @ u @ k2  # [i, a, b]: normalizer of pixel (a, b)
    np.divide(marginals.reshape(u.shape), mixed, out=mixed)
    mixed = mixed @ k2.T if one_row else k1 @ mixed @ k2.T  # [i, c, e]: sum of q K / n
    mixed *= u
    return mixed.reshape(m, -1)


def _conj_grad_stack(marginals, cost, gamma, z_stack):
    """The log-domain fallback of :func:`_scaling_conj_grad_stack` for a
    cost matrix, for spans where exp(-C / gamma) or exp(z / gamma) would
    leave the normal doubles. Works in place on one (m, d, d) array, indexed
    [i, l, j]: m d^2 doubles, 49 MB at m = 10, d = 784.

    A matrix is a one-row raster here too, but it keeps this kernel rather
    than :func:`_grid_conj_grad_stack`: this one does the arithmetic of the
    per-column reference, a max-subtracted exponential of (z_l - C_lj) /
    gamma, while the factorized log-sum-exps add logs of size |z| / gamma
    and carry an error of that times the machine epsilon. At |z| / gamma
    near 1e4 (m 4, d 50) that put one entry of 50 1.2e-12 relative off the
    reference, against the 1e-12 the tests hold both kernels to."""
    work = z_stack[:, :, None] - cost
    work /= gamma
    work -= work.max(axis=1, keepdims=True)
    np.exp(work, out=work)
    work /= work.sum(axis=1, keepdims=True)
    return np.matmul(work, marginals[:, :, None])[:, :, 0]


def _lse_first_axis(work):
    """Log-sum-exp over axis 0 of a C-ordered array of finite entries,
    overwriting ``work``. Reducing the leading axis of a C-ordered array
    combines whole contiguous slices, which numpy does several times faster
    than short inner rows or strided slices."""
    top = work.max(axis=0)
    work -= top
    np.exp(work, out=work)
    out = work.sum(axis=0)
    np.log(out, out=out)
    out += top
    return out


def _grid_conj_grad_stack(marginals, grid, gamma, z_stack):
    """The log-domain fallback of :func:`_scaling_conj_grad_stack` for a
    :class:`GridCost`: :func:`_conj_grad_stack` from the axes alone, which
    never forms a d x d array (see there why a matrix keeps its own).

    With the pixel index split as l = (c, e) and j = (a, b), the Gibbs
    kernel factorizes, exp(-M_lj / gamma) = exp(-C1[c,a] / gamma)
    exp(-C2[e,b] / gamma), so each sum over l or j is two sums over one
    axis. Four log-sum-exps over (n, m, n, n) arrays: two give column j's
    log normalizer, two mix the columns with weights q_j / normalizer_j.
    Work is 4 m n^3 instead of m n^4 on an n x n raster. z is shifted by
    each node's maximum first (the gradient is shift invariant), so the
    last step adds logs of moderate size however large |z| / gamma is.
    """
    m = z_stack.shape[0]
    rows, cols = grid.shape
    k1 = (grid.axes[0] / gamma)[:, None, :, None]  # [c, ., a, .], symmetric
    k2 = (grid.axes[1] / gamma)[:, None, None, :]  # [e, ., ., b], symmetric
    z = z_stack - z_stack.max(axis=1, keepdims=True)
    z /= gamma
    z = z.reshape(m, rows, cols)
    # The work arrays are [summed index, i, ., .]. A difference of
    # transposed views would take their memory order, hence order="C".
    # log_norm[i, a, b] = log sum_{c,e} exp(z[i,c,e] - k1[c,a] - k2[e,b])
    over_e = _lse_first_axis(
        np.subtract(z.transpose(2, 0, 1)[:, :, :, None], k2, order="C")
    )  # [i, c, b]
    log_norm = _lse_first_axis(
        np.subtract(over_e.transpose(1, 0, 2)[:, :, None, :], k1, order="C")
    )  # [i, a, b]
    weight = np.log(marginals).reshape(m, rows, cols) - log_norm
    # grad[i, c, e] = sum_{a,b} exp(weight[i,a,b] + z[i,c,e] - k1[c,a] - k2[e,b])
    over_a = _lse_first_axis(
        np.subtract(weight.transpose(1, 0, 2)[:, :, None, :], k1, order="C")
    )  # [i, c, b]
    over_b = _lse_first_axis(
        np.subtract(over_a.transpose(2, 0, 1)[:, :, :, None], k2, order="C")
    )  # [i, c, e]
    over_b += z
    return np.exp(over_b, out=over_b).reshape(m, rows * cols)


class WassersteinDualOracle(DualOracle):
    """Stacked conjugate gradients of entropic transport costs.

    Node i owns the fixed marginal ``marginals[i]``; all nodes share the
    cost, a d x d matrix or a :class:`GridCost`. Gamma, the cost and every
    marginal are validated here, once, and kept as read-only copies, so
    evaluations check only the shape; for a grid, ``cost`` is the
    :class:`GridCost` itself. Every cost is described by its per-axis
    costs: a grid's ``axes``, and a matrix C as ``(zeros((1, 1)), C)``, the
    second axis of a one-row raster. The per-axis Gibbs kernels
    exp(-C_k / gamma) and c_max, the sum of the axes' maxima, are built here
    too: d^2 doubles for a matrix (4.9 MB at d = 784), two small kernels for
    a grid, whose evaluations never form a d x d array.

    An evaluation takes the scaling form, two kernel products per node,
    while every node's (max z - min z + c_max) / gamma stays below
    :data:`_SCALING_SPAN_LIMIT`; otherwise the whole stack takes the
    log-domain kernel of its cost, which stays finite for any |z| / gamma.
    """

    def __init__(self, marginals: np.ndarray, cost: np.ndarray | GridCost, gamma: float):
        marginals = np.array(marginals, dtype=float)
        if marginals.ndim != 2:
            raise ValueError(f"marginals must be (m, d), got shape {marginals.shape}")
        self.grid = cost if isinstance(cost, GridCost) else None
        if self.grid is None:
            cost = validate_cost_matrix(np.array(cost, dtype=float))
            cost.setflags(write=False)
            axes, square = (np.zeros((1, 1)), cost), cost
        else:
            # A grid's arrays were built and frozen by GridCost.
            axes, square = self.grid.axes, self.grid.whole
        _positive_finite("gamma", gamma)
        for i, q in enumerate(marginals):
            _check_marginal(q, square, f"marginals[{i}]")
        marginals.setflags(write=False)
        self.marginals = marginals
        self.cost = cost
        self.gamma = float(gamma)
        self.m, self.dim = marginals.shape
        self._axis_kernels = tuple(np.exp(-a / self.gamma) for a in axes)
        self._c_max = float(sum(a.max() for a in axes))
        for kernel in self._axis_kernels:
            kernel.setflags(write=False)

    def grad_conj_stack(self, z_stack: np.ndarray) -> np.ndarray:
        z_stack = np.asarray(z_stack, dtype=float)
        if z_stack.shape != self.marginals.shape:
            raise ValueError(f"z_stack shape {z_stack.shape} != {self.marginals.shape}")
        u = _gibbs_factors(z_stack, self._c_max, self.gamma)
        if u is not None:
            return _scaling_conj_grad_stack(self.marginals, self._axis_kernels, u)
        if self.grid is None:
            return _conj_grad_stack(self.marginals, self.cost, self.gamma, z_stack)
        return _grid_conj_grad_stack(self.marginals, self.grid, self.gamma, z_stack)


def wb_dual_oracle(
    marginals: np.ndarray, cost: np.ndarray | GridCost, gamma: float
) -> WassersteinDualOracle:
    """Build the barycenter dual oracle for floored node marginals."""
    return WassersteinDualOracle(marginals, cost, gamma)


def exact_ot(p: np.ndarray, q: np.ndarray, cost: np.ndarray | GridCost) -> float:
    """Unregularized transport cost between p and q.

    Used for metrics only, never inside the solver loop. Marginals are
    renormalized to unit mass to absorb 1e-16-level drift. A
    :class:`GridCost` (a pixel raster) is solved as a min-cost flow over its
    two axes, the 3-partite linear program. A cost matrix with the Monge
    property (squared distances between sorted points on a line, for one)
    is solved in closed form by the north-west-corner coupling; any other
    cost matrix by the transportation linear program.

    A raster's LPs start from the bases its :class:`GridCost` keeps, so a
    value's last bits can depend on the LPs solved on the same object
    before it; a cost matrix keeps nothing between calls.
    """
    p = validate_histogram(p, "p")
    q = validate_histogram(q, "q")
    grid = cost if isinstance(cost, GridCost) else None
    # A grid's arrays were built and frozen by GridCost; only a bare matrix
    # needs checking.
    square = grid.whole if grid is not None else validate_cost_matrix(cost)
    d = p.shape[0]
    if square.shape[0] != d or q.shape[0] != d:
        raise ValueError("cost shape incompatible with marginals")
    p = np.maximum(p, 0.0)
    q = np.maximum(q, 0.0)
    p = p / p.sum()
    q = q / q.sum()
    if grid is not None:
        return _grid_transport_lp(p, q, grid)
    if _is_monge(square):
        return _north_west_corner_cost(p, q, square)
    return _transport_lp(p, q, square)


def _is_monge(cost: np.ndarray) -> bool:
    """cost[i,j] + cost[i+1,j+1] <= cost[i,j+1] + cost[i+1,j] for all
    adjacent i, j, which makes the north-west-corner coupling optimal for
    every pair of marginals (Hoffman, 1963)."""
    return bool(np.all(cost[:-1, :-1] + cost[1:, 1:] <= cost[:-1, 1:] + cost[1:, :-1]))


def _monotone_coupling(p: np.ndarray, q: np.ndarray):
    """The monotone (north-west-corner) coupling of two 1-D histograms as
    segments: arrays of masses and of the row and column each one joins.

    The merged CDF breakpoints cut [0, 1] into segments; each segment's mass
    moves from the first row whose CDF reaches its right end to the first
    such column. Zero-mass entries own no segment; empty segments (repeated
    breakpoints) carry zero mass.
    """
    cdf_p = np.minimum(np.cumsum(p), 1.0)
    cdf_q = np.minimum(np.cumsum(q), 1.0)
    cdf_p[-1] = cdf_q[-1] = 1.0
    ends = np.sort(np.concatenate([cdf_p, cdf_q]))
    mass = np.diff(ends, prepend=0.0)
    return mass, np.searchsorted(cdf_p, ends), np.searchsorted(cdf_q, ends)


def _north_west_corner_cost(p: np.ndarray, q: np.ndarray, cost: np.ndarray) -> float:
    """Cost of the monotone coupling of the two CDFs."""
    mass, rows, cols = _monotone_coupling(p, q)
    return float(np.dot(mass, cost[rows, cols]))


def _monotone_reach(p: np.ndarray, q: np.ndarray) -> int:
    """Largest |row - column| over the positive masses of the monotone
    coupling of two 1-D histograms: how far it moves any mass.

    A segment's row and column depend only on its right end, and a
    zero-mass segment either repeats the end of a positive one or ends at 0,
    which joins row 0 to column 0; so the maximum may run over every
    segment."""
    _, rows, cols = _monotone_coupling(p, q)
    return int(np.abs(rows - cols).max())


# scipy bundles HiGHS as this extension module from release 1.15 on.
_HIGHS_MODULE = "scipy.optimize._highspy._core"
_HIGHS_LOCK = threading.Lock()

# The options of every HiGHS solve (see :func:`_highs`). HiGHS does not
# raise on an unknown option or a bad value; it returns an error status
# and solves with the default.
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("presolve", "off"),
    ("primal_feasibility_tolerance", 1e-10),
)

# The options added to a solve from a starting basis: Devex pricing for the
# dual simplex (see :func:`_highs`).
_WARM_OPTIONS = (("simplex_dual_edge_weight_strategy", 1),)


class _LPResult(NamedTuple):
    """An optimal solve from :func:`_highs`: its value, flow, row duals and
    final basis."""

    fun: float
    x: np.ndarray
    row_dual: np.ndarray
    basis: object


class _LPFailure(RuntimeError):
    """A transport LP without a kept value: HiGHS ended its solve with a
    model status other than optimal, or :func:`_certified_lp` refused it."""


def _highs_core():
    """scipy's HiGHS extension (Huangfu & Hall, *Parallelizing the dual
    revised simplex method*, Math. Prog. Comp. 2018), loaded on first use.

    ``import scipy.optimize`` would load it too, but that package's init
    imports scipy.linalg, sparse, spatial, special, fft and numpy.f2py:
    0.6-0.8 s of CPU in a fresh interpreter (2-vCPU Xeon VM), against
    about 1.6 s for a whole 14x14 raster run that paid it. So only the
    top-level ``import scipy`` runs, which applies scipy's distributor
    init, and the extension is loaded from its file: 20-50 ms for both on
    the same machine. It is registered in ``sys.modules`` under its own
    name, and a later ``import scipy.optimize`` reuses that module object.
    A scipy without the file raises ImportError naming the release floor.
    The lock makes threads that solve their first LP at once load it once.
    """
    core = sys.modules.get(_HIGHS_MODULE)
    if core is not None:
        return core
    with _HIGHS_LOCK:
        core = sys.modules.get(_HIGHS_MODULE)
        if core is None:
            import scipy

            folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(folder, "_core" + suffix)
                if os.path.isfile(path):
                    break
            else:
                raise ImportError(
                    f"scipy {scipy.__version__} has no HiGHS extension in {folder}; "
                    "the transport LPs need scipy>=1.15"
                )
            loader = importlib.machinery.ExtensionFileLoader(_HIGHS_MODULE, path)
            spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path, loader=loader)
            core = importlib.util.module_from_spec(spec)
            loader.exec_module(core)
            sys.modules[_HIGHS_MODULE] = core
    return core


def _highs(c, a_eq, b_eq, basis=None) -> _LPResult:
    """HiGHS's optimal solve of min c.x, A x = b, x >= 0, with A the triple
    ``a_eq`` of :func:`_incidence`, as one column-wise model passed to the
    solver directly, from the starting ``basis`` when one is given. scipy's
    ``linprog`` returns the same value, flow and row duals bit for bit, but
    spends about a quarter of each solve in its Python wrapper (a median of
    36.6 against 26.6 ms on a 14x14 raster's local LPs, one BLAS thread,
    2-vCPU Xeon VM).

    The primal feasibility tolerance is 1e-10, not HiGHS's default 1e-7: at
    the default, flows stopped near -9e-8 and the value up to 1.55e-6
    relative below the optimum on ordinary raster masses, and the solve
    took no less time. Presolve is off: it removes nothing from these LPs,
    whose value, flow and duals come out the same without it, and a 14x14
    raster's local LPs take a median of 21.1 instead of 24.7 ms, its full
    LPs 23.6 instead of 31.2 ms (one BLAS thread, 2-vCPU Xeon VM).

    ``basis`` is the final basis of an earlier solve, ``_LPResult.basis``,
    of an LP with the same columns and rows, where only ``b_eq`` may
    differ, or such a basis of fewer columns, lifted (:func:`_lifted_basis`).
    The first stays dual feasible, so the dual simplex starts from it
    (Huangfu & Hall, above), and prices with Devex instead of HiGHS's
    default dual steepest edge (Forrest & Goldfarb, *Steepest-edge simplex
    algorithms for linear programming*, Math. Prog. 1992). A cold solve
    keeps steepest edge. On the 64 LPs of a 14x14 raster benchmark's
    instances 0-3, replayed in call order with each warm solve started from
    the first basis of its arc set, a run's 16 LPs took a median of 151 ms
    with Devex, 187 ms with steepest edge, and 246 ms all cold; Devex on the
    cold solves as well took 253 ms. With the starts of
    :func:`_grid_transport_lp`, they took 4604 simplex iterations and
    103-139 ms with Devex, 6573 iterations and 131-218 ms with steepest
    edge (one BLAS thread, 2-vCPU Xeon VM).

    The model reaches HiGHS in one call, the binding's array overload of
    ``passModel``, which reads the numpy arrays in place: a new solver with
    the 2408-column radius-9 LP of a 14x14 raster took a median of 0.19 ms,
    against 0.49 ms with a ``HighsLp`` filled field by field, for the same
    value and simplex iterations (2-vCPU Xeon VM). An option, a model or a
    basis HiGHS refuses raises RuntimeError, the model naming HiGHS's
    status, before any solve: HiGHS keeps a refused model, and solving one
    with a row index past its rows crashed the interpreter. Any model
    status but optimal raises :class:`_LPFailure` with HiGHS's own status
    text.
    """
    core = _highs_core()
    start, index, value = a_eq
    n = c.shape[0]
    highs = core._Highs()
    for name, option in _HIGHS_OPTIONS if basis is None else _HIGHS_OPTIONS + _WARM_OPTIONS:
        if highs.setOptionValue(name, option) != core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS refused the option {name} = {option!r}")
    status = highs.passModel(
        n, b_eq.shape[0], value.shape[0], core.MatrixFormat.kColwise, core.ObjSense.kMinimize,
        0.0, c, np.zeros(n), np.full(n, math.inf), b_eq, b_eq, start, index, value,
        np.zeros(n, dtype=np.int32),
    )
    if status != core.HighsStatus.kOk:
        raise RuntimeError(f"HiGHS refused the model: {status.name}")
    if basis is not None and highs.setBasis(basis) != core.HighsStatus.kOk:
        raise RuntimeError("HiGHS refused the starting basis")
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        text = highs.modelStatusToString(status)
        raise _LPFailure(f"HiGHS model status {int(status)}: {text}")
    solution = highs.getSolution()
    return _LPResult(
        highs.getInfo().objective_function_value,
        np.array(solution.col_value), np.array(solution.row_dual), highs.getBasis(),
    )


def _smallest_masses(p: np.ndarray, q: np.ndarray) -> str:
    return f"smallest positive mass: p {p[p > 0].min():.3e}, q {q[q > 0].min():.3e}"


def _transport_lp(p: np.ndarray, q: np.ndarray, cost: np.ndarray) -> float:
    """Optimal value of the d x d transportation linear program: arc i d + j
    carries source i to sink j, at cost[i, j]."""
    d = p.shape[0]
    tails, heads = np.divmod(np.arange(d * d), d)
    return _certified_lp("dense", tails, d + heads, cost.ravel(), 2 * d, p, q, cost)


def _incidence(tails, heads, n_sources: int, n_nodes: int) -> tuple:
    """The equality rows of a min-cost flow over the arcs tail -> head, as
    the column-wise triple (start, index, value) HiGHS takes: column k's row
    indices, in increasing order, are index[start[k]:start[k+1]], and value
    holds its entries alongside.

    Nodes are numbered sources, then middles, then sinks, and every arc runs
    to a later node. An arc has +1 at its head, and at its tail +1 for a
    source (outflow = p) or -1 for a middle (inflow - outflow = 0). The last
    sink's row is dropped: the source rows minus the middle and the other
    sink rows sum to it, so dropping it keeps the system full rank.
    """
    last = n_nodes - 1
    index = np.stack([tails, heads], axis=1).ravel()
    value = np.stack([np.where(tails < n_sources, 1.0, -1.0), np.ones(heads.shape[0])], axis=1)
    start = np.zeros(heads.shape[0] + 1, dtype=np.int32)
    np.cumsum(1 + (heads < last), out=start[1:])
    keep = index < last
    return start, index[keep].astype(np.int32), value.ravel()[keep]


# Every LP is solved on its masses times this, and its value and flow are
# divided back, exactly, since it is a power of two. HiGHS's primal
# feasibility tolerance is absolute, so masses far below it (down to 1e-16
# in the tails of 14x14 Gaussian bumps) led it to a false "infeasible" or
# to values 1e-9 relative below the optimum. On 160 such bump pairs 2^10
# left none of either; 2^20 and 2^30 each gave one false "infeasible". The
# benchmark's raster LPs keep their values bit for bit.
_MASS_SCALE = 2.0**10

# An LP's value is kept when it and its lower and upper bounds lie within
# this of each other, relative: the tolerance of acceptance criterion 9
# (README).
_CERTIFIED_GAP = 1e-9


def _certified_lp(
    which: str, tails, heads, arc_cost, n_nodes: int, p, q, cost, start=None, keep=None
) -> float:
    """The optimal value of the transport LP over the arcs tail -> head
    (numbered as in :func:`_incidence`: d sources carrying p, n_nodes - 2 d
    middles, d sinks taking q), kept only when it is bracketed.

    The lower bound is :func:`_sink_lower_bound` of the solve's own sink
    potentials over ``cost``, the d x d cost in the LP's own units: the
    dense LP's matrix, or a raster's ``GridCost.whole``. The upper bound is
    the cost of a plan of (p, q): the solve's own flow when it passes the
    flow check (nonnegative, every node's balance off by at most its number
    of arcs times the machine epsilon, rounding in sums of at most unit
    mass), else its flow rounded onto (p, q) by :func:`_rounded_cost`. Both
    bounds hold for any arcs the LP was given, so they bound the full
    transport problem. The value is kept only when it and both bounds lie
    within :data:`_CERTIFIED_GAP` of each other, relative.

    Otherwise :class:`_LPFailure` names the LP (``which``), d, HiGHS's
    status or the value with both bounds, and the smallest positive masses;
    so no unchecked value becomes a metric.

    The solve starts from the basis ``start`` when one is given
    (:func:`_grid_transport_lp`), and ``keep``, when given, is called with
    its final basis once its value is kept. A start can move the value's
    last bits, never its verdict: the same two bounds decide.
    """
    d = p.shape[0]
    mass = np.zeros(n_nodes)
    mass[:d], mass[n_nodes - d:] = p, q
    try:
        res = _highs(
            arc_cost, _incidence(tails, heads, d, n_nodes), mass[:-1] * _MASS_SCALE, start
        )
    except _LPFailure as err:
        raise _LPFailure(
            f"{which} transport LP failed at d = {d}: {err} ({_smallest_masses(p, q)})"
        ) from None
    value, flow = res.fun / _MASS_SCALE, res.x / _MASS_SCALE
    # The sinks' rows come last; the last sink's row is dropped, which is
    # its potential fixed at 0.
    lower = _sink_lower_bound(np.append(res.row_dual[n_nodes - d:], 0.0), p, q, cost)
    # A node's row: outflow at a source, inflow - outflow at a middle,
    # inflow at a sink.
    sign = np.where(np.arange(n_nodes) < d, 1.0, -1.0)
    row = np.bincount(heads, flow, n_nodes) + sign * np.bincount(tails, flow, n_nodes)
    arcs = np.bincount(tails, minlength=n_nodes) + np.bincount(heads, minlength=n_nodes)
    if flow.min() >= 0 and (np.abs(row - mass) <= arcs * np.finfo(float).eps).all():
        upper = float(arc_cost @ flow)
    else:
        upper = _rounded_cost(tails, heads, flow, n_nodes, p, q, cost)
    spread = max(value, upper) - min(value, lower)
    if not spread <= _CERTIFIED_GAP * value:
        relative = spread / value if value > 0 else math.inf
        raise _LPFailure(
            f"{which} transport LP at d = {d} is not certified: value {value!r}, "
            f"lower bound {lower!r}, upper bound {upper!r}, relative spread "
            f"{relative:.3e} above {_CERTIFIED_GAP:g} ({_smallest_masses(p, q)})"
        )
    if keep is not None:
        keep(res.basis)
    return value


def _sink_lower_bound(sink: np.ndarray, p, q, cost) -> float:
    """A lower bound on the transport cost from sink potentials g.

    Their c-transform, f_i = min_j C_ij - g_j, makes (f, g) feasible for
    the dual of the transport LP, whatever g is, so <p, f> + <q, g> is at
    most the optimum (Peyre & Cuturi, *Computational Optimal Transport*,
    2019, section 3). ``cost`` is the d x d matrix C.
    """
    f = (cost - sink).min(axis=1)
    return float(p @ f + q @ sink)


def _rounded_cost(tails, heads, flow, n_nodes: int, p, q, cost) -> float:
    """An upper bound on the transport cost from any flow of the LP (numbered
    as in :func:`_certified_lp`): the cost, over the d x d matrix ``cost``,
    of the flow as a d x d plan, rounded onto a coupling of (p, q)
    (Altschuler, Weed & Rigollet, *Near-linear time approximation algorithms
    for optimal transport via Sinkhorn iteration*, NeurIPS 2017,
    Algorithm 2).

    Negative flows count as zero. Through a middle layer, each middle node
    passes what enters it on in proportion to what leaves it, over the
    larger of the two, so no row of the plan exceeds its source's outflow
    and no column its sink's inflow. Rows above p, then columns above q, are
    scaled down to it; the mass still missing, the row deficits e_p and
    column deficits e_q, is added as e_p e_q^T / |e_p|_1.
    """
    d = p.shape[0]
    flow = np.maximum(flow, 0.0)

    def block(first, rows, cols, arcs):
        # The arcs from nodes first.. first+rows-1 to the next cols nodes.
        index = (tails[arcs] - first) * cols + heads[arcs] - first - rows
        return np.bincount(index, flow[arcs], rows * cols).reshape(rows, cols)

    if n_nodes == 2 * d:
        plan = block(0, d, d, slice(None))
    else:
        middles = n_nodes - 2 * d
        enter, leave = block(0, d, middles, tails < d), block(d, middles, d, tails >= d)
        through = np.maximum(enter.sum(axis=0), leave.sum(axis=1))[:, None]
        plan = enter @ np.divide(leave, through, out=np.zeros_like(leave), where=through > 0)
    rows = plan.sum(axis=1)
    plan *= np.divide(p, rows, out=np.ones_like(p), where=rows > p)[:, None]
    cols = plan.sum(axis=0)
    plan *= np.divide(q, cols, out=np.ones_like(q), where=cols > q)
    short_p, short_q = p - plan.sum(axis=1), q - plan.sum(axis=0)
    missing = short_p.sum()
    added = short_p @ cost @ short_q / missing if missing > 0 else 0.0
    return float(np.vdot(cost, plan) + added)


def _grid_transport_lp(p: np.ndarray, q: np.ndarray, grid: GridCost) -> float:
    """Exact transport on a raster as a min-cost flow through a middle layer
    (Auricchio, Bassetti, Gualandi & Veneroni, NeurIPS 2018).

    Mass moves from pixel (a, b) to (c, b) along the first axis, paying
    offsets[0][a, c], then to (c, e) along the second, paying
    offsets[1][b, e]: the arcs of the :class:`GridCost`.
    Every coupling is such a flow and every flow splits into paths, so the
    optimum is the transport cost, from R^2 C + R C^2 arcs instead of d^2.
    The arcs cost whole squared pixel offsets, exact in binary, and the
    value is divided by the normalizer afterwards.

    The LP is first solved on local arcs only, those that move at most r
    along their axis, where r is 1 plus the farthest move of the monotone
    couplings of p's and q's row sums and of their column sums. The bounds
    of :func:`_certified_lp` hold for the full LP, so a local value they
    bracket is its optimum (Schmitzer, *A sparse multiscale algorithm for
    dense optimal transport*, JMIV 2016). When the local value is refused,
    or when every arc is local, the full LP is solved and certified the
    same way.

    Every LP on one arc set, a local radius or the full set, has the same
    matrix and costs; only the masses differ, so a kept optimal basis stays
    dual feasible for every later LP on its set (:func:`_highs`). A run
    compares each node's fixed histogram p with its estimates, so a solve
    starts from the latest basis the grid kept on its arc set with the same
    p, else from the set's first kept basis. The first LP on a set starts
    from a smaller set's basis, lifted (:func:`_lifted_basis`), when there
    is one: the sets nest, so their columns do too. Only a set with no
    smaller kept basis starts cold. Replayed in call order, the 64 LPs of
    the 14x14 raster benchmark's instances 0-3 take a mean of 4604 simplex
    iterations per run of 16, against 6166 when every solve on a set starts
    from its first basis and 19769 all cold.
    """
    p_image, q_image = p.reshape(grid.shape), q.reshape(grid.shape)
    reach = max(
        _monotone_reach(p_image.sum(axis=1), q_image.sum(axis=1)),  # row sums
        _monotone_reach(p_image.sum(axis=0), q_image.sum(axis=0)),  # column sums
    )

    source = p.tobytes()

    def solve(which, arcs, radius):
        value = _certified_lp(
            which, grid.tails[arcs], grid.heads[arcs], grid.arc_cost[arcs], 3 * p.shape[0],
            p, q, grid.whole, grid._start(radius, arcs, source),
            functools.partial(grid._keep, radius, source),
        )
        return value / grid.diagonal

    # Exact: every arc cost is a whole square, the square of its move.
    local = grid.arc_cost <= (reach + 1) ** 2
    if not local.all():
        try:
            return solve("local grid", local, reach + 1)
        except _LPFailure:
            pass
    return solve("grid", slice(None), None)


def _lifted_basis(basis, inner: np.ndarray):
    """A basis of a smaller arc set's LP as a basis of a larger set's LP.

    ``inner`` marks, among the larger set's arcs, those of the smaller set;
    they are a sub-sequence of the larger set's, in the same order. The rows
    are the same, so the smaller set's basis matrix is the lifted one's:
    every row and column keeps its status, and every added arc is nonbasic
    at its lower bound 0. An added arc with a negative reduced cost leaves
    the basis dual infeasible; HiGHS's dual simplex (:func:`_highs`) takes
    it all the same. On the 14x14 raster benchmark's instances 1 and 2,
    whose first LPs are on the smaller set, a run's 16 LPs took 4749 and
    4224 simplex iterations with lifting, 5659 and 5233 with a cold start.
    """
    core = _highs_core()
    status = np.full(inner.shape[0], core.HighsBasisStatus.kLower, dtype=object)
    status[inner] = basis.col_status
    lifted = core.HighsBasis()
    lifted.col_status = status.tolist()
    lifted.row_status = basis.row_status
    lifted.valid = True
    return lifted


def k_bound(d: int, gamma: float, delta: float) -> float:
    """Squared bound on conjugate-gradient norms over the dual domain, for
    d support points whose histogram entries are at least delta after
    flooring.

    K^2 = sum_j (2 gamma log d + min_i max_l |M_jl - M_il| - gamma log rho)^2
        = d (2 gamma log d - gamma log rho)^2,   rho = delta / 2,

    since the row term vanishes for every cost M: the min over i includes
    i = j. A K^2 outside the positive doubles raises ValueError naming the
    inputs.
    """
    d = _integer("d", d, 1)
    if not 0 < delta <= 1.0 / d:
        raise ValueError(f"delta must lie in (0, 1/d] with d={d}, got {delta}")
    _positive_finite("gamma", gamma)
    base = 2.0 * gamma * math.log(d) - gamma * math.log(delta / 2.0)
    name = f"k_bound(d={d}, gamma={gamma}, delta={delta})"
    return _positive_finite(name, d * (base * base))


@dataclass(frozen=True)
class AccuracyParams:
    """Regularization pair achieving a target accuracy, with the gradient
    bound it was derived from."""

    gamma: float
    r: float
    k_sq: float


def params_for_eps(eps: float, m: int, d: int, delta: float) -> AccuracyParams:
    """Accuracy-driven regularization: gamma = eps / (8 log d) (so the
    entropic gap 2 gamma log d spends eps/4) and r = eps / (4 m K^2). An eps
    whose K^2 leaves the positive doubles raises :func:`k_bound`'s
    ValueError."""
    _positive_finite("eps", eps)
    m = _integer("m", m, 1)
    d = _integer("d", d, 2)
    gamma = eps / (8.0 * math.log(d))
    k_sq = k_bound(d, gamma, delta)
    # Dividing twice keeps 4 m K^2 from overflowing where r is a double.
    r = eps / (4.0 * m) / k_sq
    return AccuracyParams(gamma=gamma, r=r, k_sq=k_sq)
