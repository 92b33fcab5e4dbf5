"""Independent numerical oracles shared by the test suite.

Everything here is deliberately written from the defining formulas rather
than by calling into the package, so tests compare two separate routes to
the same quantity. Slow and simple on purpose.
"""

from __future__ import annotations

import numpy as np


def simplex_grid(d, steps):
    """All histograms with entries k/steps, k integer, summing to one.

    Returns an array of shape (n_points, d). Grows like C(steps+d-1, d-1);
    keep d small.
    """
    compositions = []

    def _fill(prefix, remaining, slots):
        if slots == 1:
            compositions.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            _fill(prefix + [k], remaining - k, slots - 1)

    _fill([], steps, d)
    return np.array(compositions, dtype=float) / steps


def entropic_cost_direct(p, q, cost, gamma, n_iters=2000):
    """Entropic transport cost by plain log-domain Sinkhorn on one pair.

    Minimizes <cost, X> + gamma * sum X ln X over couplings of (p, q).
    Independent of the package implementation: explicit potential updates
    with no stopping heuristics, just a fixed large iteration count.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    log_p = np.where(p > 0, np.log(np.maximum(p, 1e-300)), -np.inf)
    log_q = np.where(q > 0, np.log(np.maximum(q, 1e-300)), -np.inf)
    f = np.zeros_like(p)
    g = np.zeros_like(q)
    scaled = -np.asarray(cost, dtype=float) / gamma
    for _ in range(n_iters):
        a = scaled + g[None, :] / gamma
        f = gamma * log_p - gamma * _lse(a, axis=1)
        b = scaled + f[:, None] / gamma
        g = gamma * log_q - gamma * _lse(b, axis=0)
    log_plan = (f[:, None] + g[None, :] - np.asarray(cost, dtype=float)) / gamma
    log_plan = np.where(np.isneginf(log_plan), -np.inf, log_plan)
    plan = np.exp(log_plan)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(plan > 0, plan * np.log(plan), 0.0)
    return float(np.sum(plan * np.asarray(cost, dtype=float)) + gamma * np.sum(ent))


def entropic_cost_batch(p_batch, q, cost, gamma, n_iters=400):
    """entropic_cost_direct for many left marginals sharing (q, cost).

    p_batch has shape (n, d); returns shape (n,). Vectorized over the batch
    so simplex grid scans stay fast.
    """
    p_batch = np.asarray(p_batch, dtype=float)
    q = np.asarray(q, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n, d = p_batch.shape
    with np.errstate(divide="ignore"):
        log_p = np.where(p_batch > 0, np.log(np.maximum(p_batch, 1e-300)), -np.inf)
        log_q = np.where(q > 0, np.log(np.maximum(q, 1e-300)), -np.inf)
    f = np.zeros((n, d))
    g = np.zeros((n, d))
    for _ in range(n_iters):
        a = (-cost[None, :, :] + g[:, None, :]) / gamma
        f = gamma * log_p - gamma * _lse(a, axis=2)
        b = (-cost[None, :, :] + f[:, :, None]) / gamma
        g = gamma * log_q[None, :] - gamma * _lse(b, axis=1)
    log_plan = (f[:, :, None] + g[:, None, :] - cost[None, :, :]) / gamma
    plan = np.exp(np.where(np.isneginf(log_plan), -np.inf, log_plan))
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(plan > 0, plan * np.log(plan), 0.0)
    return np.sum(plan * cost[None, :, :], axis=(1, 2)) + gamma * np.sum(ent, axis=(1, 2))


def _lse(a, axis):
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return np.squeeze(peak, axis=axis) + np.log(
        np.sum(np.exp(a - peak), axis=axis)
    )


def conj_grad_reference(q, cost, gamma, z):
    """Gradient in z of gamma sum_j q_j log sum_l exp((z_l - cost[l, j]) / gamma).

    Term j contributes q_j times the softmax over l of column j. One node,
    one column at a time, each softmax shifted by its own maximum so that
    exp cannot overflow for large |z| / gamma.
    """
    q = np.asarray(q, dtype=float)
    cost = np.asarray(cost, dtype=float)
    z = np.asarray(z, dtype=float)
    grad = np.zeros_like(z)
    for j in range(q.size):
        logits = (z - cost[:, j]) / gamma
        weights = np.exp(logits - logits.max())
        grad += q[j] * weights / weights.sum()
    return grad


def fd_gradient(func, z, step=1e-6):
    """Central finite differences of a scalar function of a vector."""
    z = np.asarray(z, dtype=float)
    grad = np.zeros_like(z)
    for l in range(z.size):
        bump = np.zeros_like(z)
        bump[l] = step
        grad[l] = (func(z + bump) - func(z - bump)) / (2.0 * step)
    return grad


def projected_gradient_simplex(grad_func, dim, n_iters=4000, lr=0.1, rng=None):
    """Minimize a smooth convex function over the probability simplex.

    Plain projected gradient with Euclidean simplex projection. Returns the
    final point; callers pick n_iters and lr generous enough to converge.
    """
    if rng is None:
        x = np.full(dim, 1.0 / dim)
    else:
        x = rng.dirichlet(np.ones(dim))
    for _ in range(n_iters):
        x = project_simplex(x - lr * grad_func(x))
    return x


def project_simplex(v):
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumul = np.cumsum(u) - 1.0
    indices = np.arange(1, v.size + 1)
    mask = u - cumul / indices > 0
    rho = indices[mask][-1]
    theta = cumul[rho - 1] / rho
    return np.maximum(v - theta, 0.0)
