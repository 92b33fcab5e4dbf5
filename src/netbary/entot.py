"""Entropic optimal transport: dual oracle, Sinkhorn, exact transport, bounds.

This layer supplies everything the decentralized solver needs to compute
entropic Wasserstein barycenters. The central objects are the entropic
transport cost

    W_gamma(p, q) = min over couplings X of p and q of
                    <M, X> + gamma * sum_ij X_ij log X_ij,

its Fenchel conjugate in the first marginal (closed form, evaluated in the
log domain), and the conjugate's gradient, which is both the solver's oracle
and the barycenter recovery map. ``sinkhorn`` and ``exact_ot`` evaluate the
entropic and unregularized costs for metrics and cross-checks; ``k_bound``
and ``params_for_eps`` produce the constants that calibrate accuracy-driven
parameter choices.

Histograms are plain arrays on the probability simplex. Oracles require
strictly positive histograms (see :func:`floor_histogram`), which keeps the
conjugate finite and its gradient Lipschitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

from .adom import DualOracle

__all__ = [
    "Histogram",
    "TransportPlan",
    "SinkhornResult",
    "validate_histogram",
    "floor_histogram",
    "cost_matrix",
    "validate_cost_matrix",
    "dual_value",
    "dual_grad",
    "WassersteinDualOracle",
    "wb_dual_oracle",
    "recover_barycenter",
    "sinkhorn",
    "exact_ot",
    "k_bound",
    "params_for_eps",
]

Histogram = np.ndarray

# Mass must sum to one within this before an array counts as a histogram.
SIMPLEX_TOL = 1e-12
# Transport plans reproduce their marginals within this (l1).
MARGINAL_TOL = 1e-8


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


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = np.max(a, axis=axis, keepdims=True)
    # Guard empty/-inf columns: exp(-inf - -inf) handled by where.
    top = np.where(np.isfinite(top), top, 0.0)
    out = np.log(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis=axis)
    return out


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
    lse = _logsumexp(scaled, axis=0)
    return float(-gamma * np.dot(q, np.log(q)) + gamma * np.dot(q, lse))


def dual_grad(q: np.ndarray, cost: np.ndarray, gamma: float, z: np.ndarray) -> np.ndarray:
    """Gradient of :func:`dual_value` in z: a point on the simplex.

    Column j of exp((z_l - M_lj)/gamma) is normalized over l and the columns
    are mixed with weights q_j, all in the log domain. The map is invariant
    to shifting z by a constant and 1/gamma-Lipschitz. Computed by the same
    kernel as :meth:`WassersteinDualOracle.grad_conj_stack`, on one row.
    """
    q, cost, z = _check_oracle_inputs(q, cost, gamma, z)
    return _conj_grad_stack(q[None, :], cost, gamma, z[None, :])[0]


def _conj_grad_stack(marginals, cost, gamma, z_stack):
    """Row i is :func:`dual_grad` of marginals[i] at z_stack[i]; inputs are
    not checked. Works in place on one (m, d, d) array, indexed [i, l, j]:
    m d^2 doubles, 49 MB at m = 10, d = 784."""
    work = z_stack[:, :, None] - cost
    work /= gamma
    work -= work.max(axis=1, keepdims=True)
    np.exp(work, out=work)
    work /= work.sum(axis=1, keepdims=True)
    return np.matmul(work, marginals[:, :, None])[:, :, 0]


class WassersteinDualOracle(DualOracle):
    """Stacked conjugate gradients of entropic transport costs.

    Node i owns the fixed marginal ``marginals[i]``; all nodes share the
    cost matrix. Gamma, the cost and every marginal are validated here, once,
    and kept as read-only copies, so evaluations check only the shape.
    """

    def __init__(self, marginals: np.ndarray, cost: np.ndarray, gamma: float):
        marginals = np.array(marginals, dtype=float)
        if marginals.ndim != 2:
            raise ValueError(f"marginals must be (m, d), got shape {marginals.shape}")
        cost = validate_cost_matrix(np.array(cost, dtype=float))
        for i, q in enumerate(marginals):
            _check_marginal(q, cost, gamma, f"marginals[{i}]")
        marginals.setflags(write=False)
        cost.setflags(write=False)
        self.marginals = marginals
        self.cost = cost
        self.gamma = float(gamma)
        self.m, self.dim = marginals.shape

    def grad_conj_stack(self, z_stack: np.ndarray) -> np.ndarray:
        z_stack = np.asarray(z_stack, dtype=float)
        if z_stack.shape != self.marginals.shape:
            raise ValueError(f"z_stack shape {z_stack.shape} != {self.marginals.shape}")
        return _conj_grad_stack(self.marginals, self.cost, self.gamma, z_stack)


def wb_dual_oracle(
    marginals: np.ndarray, cost: np.ndarray, gamma: float
) -> WassersteinDualOracle:
    """Build the barycenter dual oracle for floored node marginals."""
    return WassersteinDualOracle(marginals, cost, gamma)


def recover_barycenter(
    oracle: WassersteinDualOracle, z_stack: np.ndarray
) -> np.ndarray:
    """Per-node barycenter estimates from dual points: row i is the
    conjugate gradient of node i at z_stack[i], an exact simplex point."""
    return oracle.grad_conj_stack(z_stack)


@dataclass(frozen=True)
class TransportPlan:
    """Coupling with row marginal p and column marginal q."""

    entries: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def marginal_error(self) -> float:
        rows = np.abs(self.entries.sum(axis=1) - self.p).sum()
        cols = np.abs(self.entries.sum(axis=0) - self.q).sum()
        return float(max(rows, cols))


@dataclass(frozen=True)
class SinkhornResult:
    value: float
    plan: TransportPlan
    converged: bool
    iterations: int
    marginal_error: float


def sinkhorn(
    p: np.ndarray,
    q: np.ndarray,
    cost: np.ndarray,
    gamma: float,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> SinkhornResult:
    """Entropic transport cost by log-domain alternating marginal scaling.

    Returns the entropic cost <M, X> + gamma sum X log X together with the
    plan. Iterations stop once both marginals match within ``tol`` in l1;
    if ``max_iter`` is exhausted first the best iterate is returned with
    ``converged=False``.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    p = validate_histogram(p, "p")
    q = validate_histogram(q, "q")
    cost = validate_cost_matrix(cost)
    if cost.shape[0] != p.shape[0] or cost.shape[0] != q.shape[0]:
        raise ValueError("cost shape incompatible with marginals")
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
        log_q = np.log(q)
    f = np.zeros_like(p)
    g = np.zeros_like(q)
    err = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        # Row scaling makes X 1 = p exact; column scaling does the same for q.
        f = gamma * log_p - gamma * _logsumexp((g[None, :] - cost) / gamma, axis=1)
        f = np.where(p > 0, f, -np.inf)
        g = gamma * log_q - gamma * _logsumexp((f[:, None] - cost) / gamma, axis=0)
        g = np.where(q > 0, g, -np.inf)
        plan = _plan_from_potentials(f, g, cost, gamma)
        err = float(np.abs(plan.sum(axis=1) - p).sum() + np.abs(plan.sum(axis=0) - q).sum())
        if err <= tol:
            break
    plan = _plan_from_potentials(f, g, cost, gamma)
    value = _entropic_cost(plan, cost, gamma)
    return SinkhornResult(
        value=value,
        plan=TransportPlan(entries=plan, p=p, q=q),
        converged=err <= tol,
        iterations=it,
        marginal_error=err,
    )


def _plan_from_potentials(f, g, cost, gamma):
    expo = (f[:, None] + g[None, :] - cost) / gamma
    # -inf potentials mark zero-mass rows/columns.
    return np.where(np.isfinite(expo), np.exp(np.where(np.isfinite(expo), expo, 0.0)), 0.0)


def _entropic_cost(plan: np.ndarray, cost: np.ndarray, gamma: float) -> float:
    linear = float(np.sum(plan * cost))
    mask = plan > 0
    entropy_term = float(np.sum(plan[mask] * np.log(plan[mask])))
    return linear + gamma * entropy_term


def exact_ot(p: np.ndarray, q: np.ndarray, cost: np.ndarray) -> float:
    """Unregularized transport cost between p and q.

    Used for metrics only, never inside the solver loop. Marginals are
    renormalized to unit mass to absorb 1e-16-level drift. A cost with the
    Monge property (squared distances between sorted points on a line, for
    one) is solved in closed form by the north-west-corner coupling; any
    other cost by the transportation linear program.
    """
    p = validate_histogram(p, "p")
    q = validate_histogram(q, "q")
    cost = validate_cost_matrix(cost)
    d = p.shape[0]
    if cost.shape[0] != d or q.shape[0] != d:
        raise ValueError("cost shape incompatible with marginals")
    p = np.maximum(p, 0.0)
    q = np.maximum(q, 0.0)
    p = p / p.sum()
    q = q / q.sum()
    if _is_monge(cost):
        return _north_west_corner_cost(p, q, cost)
    return _transport_lp(p, q, cost)


def _is_monge(cost: np.ndarray) -> bool:
    """cost[i,j] + cost[i+1,j+1] <= cost[i,j+1] + cost[i+1,j] for all
    adjacent i, j, which makes the north-west-corner coupling optimal for
    every pair of marginals (Hoffman, 1963)."""
    return bool(np.all(cost[:-1, :-1] + cost[1:, 1:] <= cost[:-1, 1:] + cost[1:, :-1]))


def _north_west_corner_cost(p: np.ndarray, q: np.ndarray, cost: np.ndarray) -> float:
    """Cost of the monotone coupling of the two CDFs.

    The merged CDF breakpoints cut [0, 1] into segments; each segment's mass
    moves from the first row whose CDF reaches its right end to the first
    such column. Zero-mass entries own no segment.
    """
    cdf_p = np.minimum(np.cumsum(p), 1.0)
    cdf_q = np.minimum(np.cumsum(q), 1.0)
    cdf_p[-1] = cdf_q[-1] = 1.0
    ends = np.sort(np.concatenate([cdf_p, cdf_q]))
    mass = np.diff(ends, prepend=0.0)
    rows = np.searchsorted(cdf_p, ends)
    cols = np.searchsorted(cdf_q, ends)
    return float(np.dot(mass, cost[rows, cols]))


def _transport_lp(p: np.ndarray, q: np.ndarray, cost: np.ndarray) -> float:
    """Optimal value of the transportation linear program, by HiGHS."""
    b_eq = np.concatenate([p, q[:-1]])
    res = linprog(
        cost.ravel(), A_eq=_transport_constraints(p.shape[0]), b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"transport LP failed with status {res.status}: {res.message}")
    return float(res.fun)


def _transport_constraints(d: int) -> scipy.sparse.csr_matrix:
    """Equality rows of the d x d transportation LP over the row-major plan:
    row sums for all i, column sums for j < d-1 (the last is implied),
    keeping the system full rank."""
    cells = np.arange(d * d)
    rows = np.concatenate([cells // d, d + np.repeat(np.arange(d - 1), d)])
    cols = np.concatenate([cells, (np.arange(d) * d + np.arange(d - 1)[:, None]).ravel()])
    data = np.ones(rows.shape[0])
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(2 * d - 1, d * d))


def k_bound(
    cost: np.ndarray, gamma: float, delta: float, rho: float | None = None
) -> float:
    """Squared bound on conjugate-gradient norms over the dual domain.

    K^2 = sum_j (2 gamma log d + min_i max_l |M_jl - M_il| - gamma log rho)^2

    with rho defaulting to delta/2, the natural choice when every histogram
    entry is at least delta after flooring.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-d, got shape {cost.shape}")
    d = cost.shape[0]
    if delta <= 0 or delta > 1.0 / d:
        raise ValueError(f"delta must lie in (0, 1/d] with d={d}, got {delta}")
    if rho is None:
        rho = delta / 2.0
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    # min over rows i of the sup-norm distance between row j and row i.
    diffs = np.abs(cost[:, None, :] - cost[None, :, :]).max(axis=2)  # [j, i]
    row_terms = diffs.min(axis=1)
    base = 2.0 * gamma * math.log(d) - gamma * math.log(rho)
    return float(np.sum((base + row_terms) ** 2))


@dataclass(frozen=True)
class AccuracyParams:
    """Regularization pair achieving a target accuracy, with the gradient
    bound it was derived from."""

    gamma: float
    r: float
    k_sq: float


def params_for_eps(
    eps: float, m: int, d: int, cost: np.ndarray, delta: float
) -> AccuracyParams:
    """Accuracy-driven regularization: gamma = eps / (8 log d) (so the
    entropic gap 2 gamma log d spends eps/4) and r = eps / (4 m K^2)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if d < 2:
        raise ValueError(f"need d >= 2 support points, got {d}")
    if m < 1:
        raise ValueError(f"need m >= 1 measures, got {m}")
    gamma = eps / (8.0 * math.log(d))
    k_sq = k_bound(cost, gamma, delta)
    r = eps / (4.0 * m * k_sq)
    return AccuracyParams(gamma=gamma, r=r, k_sq=k_sq)
