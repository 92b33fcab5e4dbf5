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

from .adom import DualOracle

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
    if delta <= 0 or delta * d >= 1.0:
        raise ValueError(f"delta must lie in (0, 1/d) with d={d}, got {delta}")
    return (1.0 - delta * d) * q + delta


def cost_matrix(points: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Pairwise squared Euclidean costs over support points.

    ``points`` has one support point per row; 1-d input is treated as points
    on a line. With ``normalize`` the matrix is divided by its maximum so
    costs lie in [0, 1].
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError(f"need at least two support points, got shape {points.shape}")
    diff = points[:, None, :] - points[None, :, :]
    cost = np.sum(diff * diff, axis=2)
    # Exact symmetry: the subtraction above already gives it, but guard
    # against accumulation order differences.
    cost = 0.5 * (cost + cost.T)
    np.fill_diagonal(cost, 0.0)
    if normalize:
        top = cost.max()
        if top <= 0:
            raise ValueError("all support points coincide; cannot normalize")
        cost = cost / top
    return cost


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


def _squared_offsets(n: int) -> np.ndarray:
    """(a - c)^2 for a, c in range(n), as floats."""
    return np.subtract.outer(np.arange(n), np.arange(n)).astype(float) ** 2


class GridCost:
    """Normalized squared Euclidean cost over a rows x cols pixel raster.

    Pixels are numbered row-major, as in a flattened image. The cost is
    separable: pixel (a, b) to pixel (c, e) costs ``axes[0][a, c] +
    axes[1][b, e]``, which is within one ulp of ``dense[a * cols + b,
    c * cols + e]``. ``dense`` is :func:`cost_matrix` of the pixel
    coordinates; the axes share its normalizer, ``diagonal``, the squared
    length of the raster's diagonal. The dual oracle and :func:`exact_ot`
    use the axes; the dense matrix serves every path that needs the whole
    d x d cost. All arrays are read-only.
    """

    def __init__(self, rows: int, cols: int):
        ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        points = np.stack([ii.ravel(), jj.ravel()], axis=1).astype(float)
        self.dense = cost_matrix(points, normalize=True)
        self.diagonal = float((rows - 1) ** 2 + (cols - 1) ** 2)
        self.axes = tuple(_squared_offsets(n) / self.diagonal for n in (rows, cols))
        for array in (self.dense, *self.axes):
            array.setflags(write=False)
        self.shape = (int(rows), int(cols))


def _check_marginal(q, cost, gamma, name="q"):
    """q as a strictly positive histogram on a validated cost's support."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
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
    q = _check_marginal(q, cost, gamma)
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
    constant and 1/gamma-Lipschitz. Computed by the same kernels as
    :meth:`WassersteinDualOracle.grad_conj_stack` on a cost matrix, on one
    row: a stack's row equals this bit for bit whenever the whole stack
    takes the path this row takes alone.
    """
    q, cost, z = _check_oracle_inputs(q, cost, gamma, z)
    return _gibbs_conj_grad_stack(
        q[None, :], cost, np.exp(-cost / gamma), cost.max(), gamma, z[None, :]
    )[0]


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


def _gibbs_conj_grad_stack(marginals, cost, kernel, c_max, gamma, z_stack):
    """Row i is :func:`dual_grad` of marginals[i] at z_stack[i] for a cost
    matrix with Gibbs kernel ``kernel`` and maximum ``c_max``; inputs are
    not checked. The scaling form while the spans allow it, else the log
    domain for the whole stack."""
    u = _gibbs_factors(z_stack, c_max, gamma)
    if u is None:
        return _conj_grad_stack(marginals, cost, gamma, z_stack)
    return _scaling_conj_grad_stack(marginals, kernel, u)


def _scaling_conj_grad_stack(marginals, kernel, u):
    """The stacked gradient in the scaling form u * ((q / (u K)) K^T), from
    the Gibbs factors ``u`` of :func:`_gibbs_factors` (Peyre & Cuturi,
    *Computational Optimal Transport*, 2019, section 4). Both products are
    batches of one-row products, (m, 1, d) @ (d, d): one (m, d) @ (d, d)
    product would sum in another order than a single row does, and
    :func:`dual_grad` must equal a row of the stack bit for bit. Work is
    2 m d^2 multiply-adds; besides the kernel, memory is O(m d)."""
    rows = u[:, None, :]
    mixed = np.matmul(rows, kernel)  # [i, ., j]: normalizer of column j
    np.divide(marginals[:, None, :], mixed, out=mixed)
    mixed = np.matmul(mixed, kernel.T)  # [i, ., l]: sum_j q_j K_lj / n_j
    mixed *= rows
    return mixed[:, 0, :]


def _conj_grad_stack(marginals, cost, gamma, z_stack):
    """The log-domain fallback of :func:`_gibbs_conj_grad_stack`, for spans
    where exp(-C / gamma) or exp(z / gamma) would leave the normal doubles.
    Works in place on one (m, d, d) array, indexed [i, l, j]: m d^2
    doubles, 49 MB at m = 10, d = 784."""
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


def _grid_scaling_conj_grad_stack(marginals, axis_kernels, u):
    """:func:`_scaling_conj_grad_stack` for a :class:`GridCost`, from the
    axes' Gibbs kernels K1 and K2 alone. The kernel of the raster is their
    Kronecker product (Solomon et al., *Convolutional Wasserstein
    Distances*, SIGGRAPH 2015), so each product with it is two small ones
    on the node's (rows, cols) image: the normalizers are K1^T U K2, the
    mixed sums K1 W K2^T. Work is 4 m n^3 on an n x n raster."""
    k1, k2 = axis_kernels
    m = u.shape[0]
    u = u.reshape(m, k1.shape[0], k2.shape[0])
    mixed = k1.T @ u @ k2  # [i, a, b]: normalizer of pixel (a, b)
    np.divide(marginals.reshape(u.shape), mixed, out=mixed)
    mixed = k1 @ mixed @ k2.T  # [i, c, e]: sum over (a, b) of q K / n
    mixed *= u
    return mixed.reshape(m, -1)


def _grid_conj_grad_stack(log_marginals, grid, gamma, z_stack):
    """The log-domain fallback of :func:`_grid_scaling_conj_grad_stack`,
    :func:`_conj_grad_stack` for a :class:`GridCost` from the axes alone.

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
    weight = log_marginals.reshape(m, rows, cols) - log_norm
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
    evaluations check only the shape. The Gibbs kernel exp(-C / gamma) and
    the cost's maximum are built here too: d^2 doubles for a matrix (4.9 MB
    at d = 784), two small per-axis kernels for a grid, whose evaluations
    never form a d x d array; ``cost`` is then the grid's own dense matrix,
    not a copy.

    An evaluation takes the scaling form, two kernel products per node,
    while every node's (max z - min z + c_max) / gamma stays below
    :data:`_SCALING_SPAN_LIMIT`; otherwise the whole stack takes the
    log-domain kernels, which stay finite for any |z| / gamma.
    """

    def __init__(self, marginals: np.ndarray, cost: np.ndarray | GridCost, gamma: float):
        marginals = np.array(marginals, dtype=float)
        if marginals.ndim != 2:
            raise ValueError(f"marginals must be (m, d), got shape {marginals.shape}")
        self.grid = cost if isinstance(cost, GridCost) else None
        if self.grid is None:
            cost = validate_cost_matrix(np.array(cost, dtype=float))
            cost.setflags(write=False)
        else:
            # Built and frozen by GridCost; the kernel reads only its axes.
            cost = self.grid.dense
        for i, q in enumerate(marginals):
            _check_marginal(q, cost, gamma, f"marginals[{i}]")
        marginals.setflags(write=False)
        self.marginals = marginals
        self.cost = cost
        self.gamma = float(gamma)
        self.m, self.dim = marginals.shape
        if self.grid is None:
            self._kernel = np.exp(-cost / self.gamma)
            self._c_max = float(cost.max())
            kept = [self._kernel]
        else:
            self._axis_kernels = tuple(np.exp(-a / self.gamma) for a in self.grid.axes)
            self._c_max = float(sum(a.max() for a in self.grid.axes))
            self._log_marginals = np.log(marginals)
            kept = [*self._axis_kernels, self._log_marginals]
        for array in kept:
            array.setflags(write=False)

    def grad_conj_stack(self, z_stack: np.ndarray) -> np.ndarray:
        z_stack = np.asarray(z_stack, dtype=float)
        if z_stack.shape != self.marginals.shape:
            raise ValueError(f"z_stack shape {z_stack.shape} != {self.marginals.shape}")
        if self.grid is None:
            return _gibbs_conj_grad_stack(
                self.marginals, self.cost, self._kernel, self._c_max, self.gamma, z_stack
            )
        u = _gibbs_factors(z_stack, self._c_max, self.gamma)
        if u is None:
            return _grid_conj_grad_stack(self._log_marginals, self.grid, self.gamma, z_stack)
        return _grid_scaling_conj_grad_stack(self.marginals, self._axis_kernels, u)


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
    """
    p = validate_histogram(p, "p")
    q = validate_histogram(q, "q")
    grid = cost if isinstance(cost, GridCost) else None
    # A grid's arrays were built and frozen by GridCost; only a bare matrix
    # needs checking.
    cost = grid.dense if grid is not None else validate_cost_matrix(cost)
    d = p.shape[0]
    if cost.shape[0] != d or q.shape[0] != d:
        raise ValueError("cost shape incompatible with marginals")
    p = np.maximum(p, 0.0)
    q = np.maximum(q, 0.0)
    p = p / p.sum()
    q = q / q.sum()
    if grid is not None:
        return _grid_transport_lp(p, q, grid)
    if _is_monge(cost):
        return _north_west_corner_cost(p, q, cost)
    return _transport_lp(p, q, cost)


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

# linprog's status codes, which the failure messages report: 0 optimal,
# 2 infeasible, 3 unbounded, 4 any other outcome (no limit is set, so
# linprog's 1, a limit reached, cannot occur).
_LP_STATUS = {"kOptimal": 0, "kInfeasible": 2, "kUnbounded": 3}

# The options of every HiGHS solve (see :func:`_highs`). HiGHS does not
# raise on an unknown option or a bad value; it returns an error status
# and solves with the default.
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("presolve", "off"),
    ("primal_feasibility_tolerance", 1e-10),
)


class _LPResult(NamedTuple):
    """What :func:`_highs` returns: a status code and message, and for an
    optimal solve its value, flow and row duals (None otherwise)."""

    status: int
    message: str
    fun: float | None
    x: np.ndarray | None
    row_dual: np.ndarray | None


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


def _highs(c, a_eq, b_eq) -> _LPResult:
    """HiGHS's result for min c.x, A x = b, x >= 0, with A the CSC triple
    ``a_eq`` (see :func:`_csc`), as one column-wise model passed to the
    solver directly. scipy's ``linprog`` returns the same value, flow and
    row duals bit for bit, but spends about a quarter of each solve in its
    Python wrapper (a median of 36.6 against 26.6 ms on a 14x14 raster's
    local LPs, one BLAS thread, 2-vCPU Xeon VM).

    The primal feasibility tolerance is 1e-10, not HiGHS's default 1e-7: at
    the default, flows stopped near -9e-8 and the value up to 1.55e-6
    relative below the optimum on ordinary raster masses, and the solve
    took no less time. Presolve is off: it removes nothing from these LPs,
    whose value, flow and duals come out the same without it, and a 14x14
    raster's local LPs take a median of 21.1 instead of 24.7 ms, its full
    LPs 23.6 instead of 31.2 ms (one BLAS thread, 2-vCPU Xeon VM). An
    option HiGHS refuses raises RuntimeError.
    """
    core = _highs_core()
    start, index, value = a_eq
    n = c.shape[0]
    # The model's fields are std::vectors, which pybind11 fills element by
    # element from any sequence. A memoryview yields plain Python numbers, so
    # a 2968-column 14x14 raster LP builds in 0.46 instead of 0.99 ms from
    # numpy arrays (whose items are numpy scalars), and it allocates no list
    # as .tolist() would (0.77 ms).
    lp = core.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = b_eq.shape[0]
    lp.col_cost_ = memoryview(c)
    lp.col_lower_ = [0.0] * n
    lp.col_upper_ = [math.inf] * n
    lp.row_lower_ = lp.row_upper_ = memoryview(b_eq)
    matrix = lp.a_matrix_
    matrix.format_ = core.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = n, b_eq.shape[0]
    matrix.start_, matrix.index_, matrix.value_ = memoryview(start), memoryview(index), memoryview(value)
    highs = core._Highs()
    for name, option in _HIGHS_OPTIONS:
        if highs.setOptionValue(name, option) != core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS refused the option {name} = {option!r}")
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    code = _LP_STATUS.get(status.name, 4)
    message = f"HiGHS model status {int(status)}: {highs.modelStatusToString(status)}"
    if code != 0:
        return _LPResult(code, message, None, None, None)
    solution = highs.getSolution()
    return _LPResult(
        code, message, highs.getInfo().objective_function_value,
        np.array(solution.col_value), np.array(solution.row_dual),
    )


def _smallest_masses(p: np.ndarray, q: np.ndarray) -> str:
    return f"smallest positive mass: p {p[p > 0].min():.3e}, q {q[q > 0].min():.3e}"


def _solve_lp(which: str, c, a_eq, b_eq, p: np.ndarray, q: np.ndarray) -> _LPResult:
    """HiGHS's optimal solve of min c.x, A x = b, x >= 0. A failure names
    the LP, d and the smallest positive masses, since HiGHS has reported a
    false "infeasible" on marginals with tails below about 1e-11."""
    res = _highs(c, a_eq, b_eq)
    if res.status != 0:
        raise RuntimeError(
            f"{which} transport LP failed at d = {p.shape[0]} with status "
            f"{res.status}: {res.message} ({_smallest_masses(p, q)})"
        )
    return res


def _transport_lp(p: np.ndarray, q: np.ndarray, cost: np.ndarray) -> float:
    """Optimal value of the d x d transportation linear program."""
    b_eq = np.concatenate([p, q[:-1]])
    res = _solve_lp("dense", cost.ravel(), _transport_constraints(p.shape[0]), b_eq, p, q)
    return float(res.fun)


def _transport_constraints(d: int) -> tuple:
    """Equality rows of the d x d transportation LP over the row-major plan,
    as a :func:`_csc` triple: row sums for all i, column sums for j < d-1
    (the last is implied), keeping the system full rank."""
    cells = np.arange(d * d)
    rows = np.concatenate([cells // d, d + np.repeat(np.arange(d - 1), d)])
    cols = np.concatenate([cells, (np.arange(d) * d + np.arange(d - 1)[:, None]).ravel()])
    return _csc(rows, cols, np.ones(rows.shape[0]), d * d)


def _csc(rows, cols, values, n_cols: int) -> tuple:
    """The sparse matrix with entries ``values`` at (``rows``, ``cols``),
    no two at the same place, as a read-only CSC triple (start, index,
    value): column j's row indices, in increasing order, are
    index[start[j]:start[j+1]], and value holds its entries alongside."""
    order = np.lexsort((rows, cols))
    start = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=start[1:])
    triple = (start, rows[order].astype(np.int32), values[order])
    for array in triple:
        array.setflags(write=False)
    return triple


def _csc_columns(a: tuple, keep: np.ndarray) -> tuple:
    """The columns of the CSC triple ``a`` where the mask ``keep`` is set,
    as another CSC triple."""
    start, index, value = a
    counts = np.diff(start)
    kept = np.zeros(np.count_nonzero(keep) + 1, dtype=start.dtype)
    np.cumsum(counts[keep], out=kept[1:])
    entries = np.repeat(keep, counts)
    return kept, index[entries], value[entries]


def _csc_matvec(a: tuple, x: np.ndarray, n_rows: int) -> np.ndarray:
    """A x for the CSC triple ``a``, summed column by column."""
    start, index, value = a
    return np.bincount(index, weights=value * np.repeat(x, np.diff(start)), minlength=n_rows)


# A raster LP's value is accepted when it lies within this of the lower
# bound, relative: the tolerance of acceptance criterion 9 (README).
_CERTIFIED_GAP = 1e-9


@dataclass(frozen=True)
class _GridLP:
    """The 3-partite LP of one raster shape, in whole squared pixel offsets.

    ``axes`` are the per-axis costs, ``cost`` the arc costs and ``a_eq`` the
    CSC triple of :func:`_grid_transport_constraints`; ``move`` is
    each arc's move along its axis, |a - c| for x1[a, c, b] and |b - e| for
    x2[c, b, e]. Every array is read-only.
    """

    axes: tuple
    cost: np.ndarray
    a_eq: tuple
    move: np.ndarray


@functools.lru_cache(maxsize=4)
def _grid_lp(rows: int, cols: int) -> _GridLP:
    """The :class:`_GridLP` of a rows x cols raster, built once per shape."""
    axes = (_squared_offsets(rows), _squared_offsets(cols))
    cost = np.concatenate([
        np.broadcast_to(axes[0][:, :, None], (rows, rows, cols)).ravel(),
        np.broadcast_to(axes[1][None, :, :], (rows, cols, cols)).ravel(),
    ])
    move = np.sqrt(cost)  # exact: the costs are squares of whole numbers
    a_eq = _grid_transport_constraints(rows, cols)
    for array in (*axes, cost, move):
        array.setflags(write=False)
    return _GridLP(axes=axes, cost=cost, a_eq=a_eq, move=move)


def _grid_transport_lp(p: np.ndarray, q: np.ndarray, grid: GridCost) -> float:
    """Exact transport on a raster as a min-cost flow through a middle layer
    (Auricchio, Bassetti, Gualandi & Veneroni, NeurIPS 2018).

    Mass moves from pixel (a, b) to (c, b) along the first axis, paying
    axes[0][a, c], then to (c, e) along the second, paying axes[1][b, e].
    Every coupling is such a flow and every flow splits into paths, so the
    optimum is the transport cost, from R^2 C + R C^2 arcs instead of d^2.
    The arcs cost whole squared pixel offsets, exact in binary, and the
    value is divided by the normalizer afterwards.

    The LP is first solved on local arcs only, those that move at most r
    along their axis, where r is 1 plus the farthest move of the monotone
    couplings of p's and q's row sums and of their column sums (see
    :func:`_local_grid_value`, which accepts its value only with a
    certificate). Otherwise, or when every arc is local, the full LP is
    solved (see :func:`_full_grid_value`, which raises without one).
    """
    rows, cols = grid.shape
    lp = _grid_lp(rows, cols)
    b_eq = np.concatenate([p, np.zeros(p.shape[0]), q[:-1]])
    p_image, q_image = p.reshape(rows, cols), q.reshape(rows, cols)
    reach = max(
        _monotone_reach(p_image.sum(axis=1), q_image.sum(axis=1)),  # row sums
        _monotone_reach(p_image.sum(axis=0), q_image.sum(axis=0)),  # column sums
    )
    local = lp.move <= reach + 1
    if not local.all():
        value = _local_grid_value(lp, local, b_eq, p, q)
        if value is not None:
            return value / grid.diagonal
    return _full_grid_value(lp, b_eq, p, q) / grid.diagonal


def _local_grid_value(lp: _GridLP, local: np.ndarray, b_eq, p, q) -> float | None:
    """The 3-partite LP's value from its ``local`` arcs alone, or None unless
    it is certified optimal for the full LP.

    Dropping arcs can only raise the optimum, so the local value is an upper
    bound once its flow is feasible: nonnegative, with no row off by more
    than rounding (each row sums at most rows + cols flows of at most unit
    mass). :func:`_solve_lower_bound` gives a lower bound from the solver's
    sink potentials. The value is accepted when the two lie within
    :data:`_CERTIFIED_GAP` of each other, relative (Schmitzer, *A sparse
    multiscale algorithm for dense optimal transport*, JMIV 2016).
    """
    a_eq = _csc_columns(lp.a_eq, local)
    res = _highs(lp.cost[local], a_eq, b_eq)
    if res.status != 0:
        return None
    rows, cols = lp.axes[0].shape[0], lp.axes[1].shape[0]
    residual = np.abs(_csc_matvec(a_eq, res.x, b_eq.shape[0]) - b_eq).max()
    if res.x.min() < 0 or residual > (rows + cols) * np.finfo(float).eps:
        return None
    value = float(res.fun)
    if abs(value - _solve_lower_bound(res, lp, p, q)) > _CERTIFIED_GAP * value:
        return None
    return value


def _full_grid_value(lp: _GridLP, b_eq, p, q) -> float:
    """The 3-partite LP's value over every arc, accepted only within
    :data:`_CERTIFIED_GAP` of the lower bound from its own sink potentials,
    relative. Otherwise RuntimeError names the LP, d, the gap and the
    smallest masses, so that no unchecked value becomes a metric."""
    res = _solve_lp("grid", lp.cost, lp.a_eq, b_eq, p, q)
    value = float(res.fun)
    lower = _solve_lower_bound(res, lp, p, q)
    gap = abs(value - lower)
    if gap > _CERTIFIED_GAP * value:
        relative = gap / value if value > 0 else math.inf
        raise RuntimeError(
            f"grid transport LP at d = {p.shape[0]} is not certified: value "
            f"{value!r}, lower bound {lower!r}, relative gap {relative:.3e} "
            f"above {_CERTIFIED_GAP:g} ({_smallest_masses(p, q)})"
        )
    return value


def _solve_lower_bound(res: _LPResult, lp: _GridLP, p, q) -> float:
    """:func:`_sink_lower_bound` from the sink potentials of an optimal
    solve of the 3-partite LP, on all or some of its arcs."""
    # The last sink's row is dropped, which is its potential fixed at 0.
    sink = np.append(res.row_dual[2 * p.shape[0]:], 0.0)
    return _sink_lower_bound(sink, p, q, lp.axes)


def _sink_lower_bound(sink: np.ndarray, p, q, axes) -> float:
    """A lower bound on the raster's transport cost from sink potentials g.

    Their c-transform over every pair of pixels, f(a, b) = min over (c, e)
    of axes[0][a, c] + axes[1][b, e] - g(c, e), makes (f, g) feasible for
    the dual of the transport LP, whatever g is, so <p, f> + <q, g> is at
    most the optimum (Peyre & Cuturi, *Computational Optimal Transport*,
    2019, section 3). The cost is separable, so the transform is two passes
    of 1-D minima, O(R C (R + C)) instead of O(d^2).
    """
    c1, c2 = axes
    g = sink.reshape(c1.shape[0], c2.shape[0])
    over_e = (c2[None, :, :] - g[:, None, :]).min(axis=2)  # [c, b]
    f = (c1[:, :, None] + over_e[None, :, :]).min(axis=1)  # [a, b]
    return float(p @ f.ravel() + q @ sink)


def _grid_transport_constraints(rows: int, cols: int) -> tuple:
    """Equality rows of the 3-partite LP on a rows x cols raster, d pixels,
    as a :func:`_csc` triple.

    Arc x1[a, c, b] carries (a, b) to (c, b); arc x2[c, b, e] carries (c, b)
    to (c, e); both row-major, x1 first. Rows: d sources (outflow = p), d
    middle nodes (inflow - outflow = 0), then the sinks (inflow = q) but the
    last. Sources minus middles minus sinks sum to zero, so that sink row is
    implied and dropping it keeps the system full rank.
    """
    d = rows * cols
    a, c, b = np.unravel_index(np.arange(rows * rows * cols), (rows, rows, cols))
    c2, b2, e = np.unravel_index(np.arange(rows * cols * cols), (rows, cols, cols))
    n1 = a.shape[0]
    row_index = np.concatenate([
        a * cols + b, d + c * cols + b,  # x1: source (a, b), middle (c, b)
        d + c2 * cols + b2, 2 * d + c2 * cols + e,  # x2: middle (c, b), sink (c, e)
    ])
    col_index = np.concatenate([np.arange(n1)] * 2 + [n1 + np.arange(e.shape[0])] * 2)
    data = np.concatenate([np.ones(2 * n1), -np.ones(e.shape[0]), np.ones(e.shape[0])])
    keep = row_index < 3 * d - 1
    return _csc(row_index[keep], col_index[keep], data[keep], n1 + e.shape[0])


def k_bound(d: int, gamma: float, delta: float, rho: float | None = None) -> float:
    """Squared bound on conjugate-gradient norms over the dual domain, for
    d support points.

    K^2 = sum_j (2 gamma log d + min_i max_l |M_jl - M_il| - gamma log rho)^2
        = d (2 gamma log d - gamma log rho)^2

    since the row term vanishes for every cost M: the min over i includes
    i = j. rho defaults to delta/2, the natural choice when every histogram
    entry is at least delta after flooring.
    """
    if delta <= 0 or delta > 1.0 / d:
        raise ValueError(f"delta must lie in (0, 1/d] with d={d}, got {delta}")
    if rho is None:
        rho = delta / 2.0
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    base = 2.0 * gamma * math.log(d) - gamma * math.log(rho)
    return d * base**2


@dataclass(frozen=True)
class AccuracyParams:
    """Regularization pair achieving a target accuracy, with the gradient
    bound it was derived from."""

    gamma: float
    r: float
    k_sq: float


def params_for_eps(eps: float, m: int, d: int, delta: float) -> AccuracyParams:
    """Accuracy-driven regularization: gamma = eps / (8 log d) (so the
    entropic gap 2 gamma log d spends eps/4) and r = eps / (4 m K^2)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if d < 2:
        raise ValueError(f"need d >= 2 support points, got {d}")
    if m < 1:
        raise ValueError(f"need m >= 1 measures, got {m}")
    gamma = eps / (8.0 * math.log(d))
    k_sq = k_bound(d, gamma, delta)
    r = eps / (4.0 * m * k_sq)
    return AccuracyParams(gamma=gamma, r=r, k_sq=k_sq)
