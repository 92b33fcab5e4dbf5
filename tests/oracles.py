"""Independent numerical oracles shared by the test suite.

Everything here is deliberately written from the defining formulas rather
than by calling into the package, so tests compare two separate routes to
the same quantity. Slow and simple on purpose. The three copies of package
code are ``scaling_conj_grad_stack_reference``, the former matrix scaling
kernel, ``grid_conj_grad_stack_reference``, the former raster log-domain
kernel, and ``spectral_bounds_reference``, the former loop that eigen-solves
every epoch; each is kept verbatim so the package can be held to it bit for
bit.

The test-only references at the end (the quadratic oracle, the (L, mu)
closed form of the step parameters, the zero-sum projection, log-domain
Sinkhorn, the broadcast K^2 bound and the smoothed dual's gradient) are the
exception: they still call the package's ``validate_histogram`` and
``validate_cost_matrix`` and build or take its ``DualOracle`` and
``AdomParams`` types.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

import numpy as np

from netbary.adom import AdomParams, DualOracle
from netbary.entot import validate_cost_matrix, validate_histogram
from netbary.netgraph import (
    _RELABEL_FAMILIES,
    DisconnectedGraphError,
    Laplacian,
    NetworkSchedule,
    SpectralBounds,
    _epoch_edges,
    _positive_extremes,
    laplacian_from_edges,
)


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


def conj_grad_reference_decimal(q, cost, gamma, z, digits=40):
    """:func:`conj_grad_reference` in ``digits``-digit decimal arithmetic.

    For |z| / gamma far from 1 the float64 reference rounds each logit
    (z_l - cost[l, j]) / gamma to a relative eps, an absolute eps |z| /
    gamma, so its softmax carries that much relative error: 1.2e-12 at
    |z| / gamma near 1e4. Here every double converts to a Decimal exactly,
    each logit, exponential and sum carries ``digits`` digits, and Decimal's
    exponent range (up to 10^999999) holds exp of any such logit unshifted;
    the one float64 rounding left is that of the result. Slow (one d = 50
    row takes about 0.06 s), so kept for the large-|z| cases.
    """
    q = np.asarray(q, dtype=float)
    cost = np.asarray(cost, dtype=float)
    z = np.asarray(z, dtype=float)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        gamma = decimal.Decimal(float(gamma))
        zs = [decimal.Decimal(v) for v in z.tolist()]
        grad = [decimal.Decimal(0)] * z.size
        for j, q_j in enumerate(q.tolist()):
            weights = [
                ((z_l - decimal.Decimal(c)) / gamma).exp()
                for z_l, c in zip(zs, cost[:, j].tolist())
            ]
            scale = decimal.Decimal(q_j) / sum(weights)
            grad = [g + w * scale for g, w in zip(grad, weights)]
        return np.array([float(g) for g in grad])


def scaling_conj_grad_stack_reference(marginals, kernel, u):
    """The matrix scaling kernel the oracle ran before one Kronecker-product
    kernel served matrices and rasters alike, kept verbatim: the stacked
    gradient u * ((q / (u K)) K^T) from the Gibbs kernel K = exp(-C / gamma)
    and the factors u = exp((z - max z) / gamma). Both products are batches
    of one-row products, (m, 1, d) @ (d, d), so the oracle's stack on a cost
    matrix must equal this bit for bit."""
    rows = u[:, None, :]
    mixed = np.matmul(rows, kernel)  # [i, ., j]: normalizer of column j
    np.divide(marginals[:, None, :], mixed, out=mixed)
    mixed = np.matmul(mixed, kernel.T)  # [i, ., l]: sum_j q_j K_lj / n_j
    mixed *= rows
    return mixed[:, 0, :]


def _lse_first_axis_reference(work):
    """The package's former ``_lse_first_axis``, kept verbatim with the
    kernel below: log-sum-exp over axis 0, overwriting ``work``."""
    top = work.max(axis=0)
    work -= top
    np.exp(work, out=work)
    out = work.sum(axis=0)
    np.log(out, out=out)
    out += top
    return out


def grid_conj_grad_stack_reference(marginals, grid, gamma, z_stack):
    """The log-domain kernel the oracle ran on a :class:`GridCost` before
    one kernel served matrices and rasters alike, kept verbatim. It relies
    on the grid's symmetric axes, where the kernel that replaced it reads
    each axis transposed, so on a raster the two must agree bit for bit."""
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
    over_e = _lse_first_axis_reference(
        np.subtract(z.transpose(2, 0, 1)[:, :, :, None], k2, order="C")
    )  # [i, c, b]
    log_norm = _lse_first_axis_reference(
        np.subtract(over_e.transpose(1, 0, 2)[:, :, None, :], k1, order="C")
    )  # [i, a, b]
    weight = np.log(marginals).reshape(m, rows, cols) - log_norm
    # grad[i, c, e] = sum_{a,b} exp(weight[i,a,b] + z[i,c,e] - k1[c,a] - k2[e,b])
    over_a = _lse_first_axis_reference(
        np.subtract(weight.transpose(1, 0, 2)[:, :, None, :], k1, order="C")
    )  # [i, c, b]
    over_b = _lse_first_axis_reference(
        np.subtract(over_a.transpose(2, 0, 1)[:, :, :, None], k2, order="C")
    )  # [i, c, e]
    over_b += z
    return np.exp(over_b, out=over_b).reshape(m, rows * cols)


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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def component_count(self) -> int:
        return sum(1 for i, p in enumerate(self.parent) if self.find(i) == i)


def component_count_reference(m: int, edges) -> int:
    """Connected components of the graph on nodes 0..m-1, by union-find."""
    uf = _UnionFind(m)
    for a, b in edges:
        uf.union(int(a), int(b))
    return uf.component_count()


def laplacian_reference(m: int, edges) -> Laplacian:
    """Laplacian D - A built edge by edge with a Python union-find.

    The package's builder before it was vectorised, kept verbatim so the
    array path can be compared with it: same entries, same exception type
    and message on the same first offending edge.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 nodes, got {m}")
    seen = set()
    for edge in edges:
        a, b = edge
        a, b = int(a), int(b)
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"edge {edge} out of range for m={m}")
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
    uf = _UnionFind(m)
    for a, b in seen:
        uf.union(a, b)
    comps = uf.component_count()
    if comps != 1:
        raise DisconnectedGraphError(
            f"graph has {comps} components; Laplacian kernel dimension would "
            f"be {comps}, expected 1"
        )
    entries = np.zeros((m, m))
    for a, b in seen:
        entries[a, b] = entries[b, a] = -1.0
        entries[a, a] += 1.0
        entries[b, b] += 1.0
    entries.flags.writeable = False
    return Laplacian(entries)


def spectral_bounds_reference(schedule: NetworkSchedule, horizon: int) -> SpectralBounds:
    """The package's ``spectral_bounds`` loop before it skipped certified
    epochs, kept verbatim: one ``eigvalsh`` per epoch."""
    epochs = schedule.epoch_count(horizon)
    if schedule.family in _RELABEL_FAMILIES:
        epochs = 1
    lam_min_plus = math.inf
    lam_max = 0.0
    for epoch in range(epochs):
        lap = laplacian_from_edges(schedule.m, _epoch_edges(schedule, epoch))
        lo, hi = _positive_extremes(lap.eigenvalues())
        lam_min_plus = min(lam_min_plus, lo)
        lam_max = max(lam_max, hi)
    return SpectralBounds(lambda_min_plus=lam_min_plus, lambda_max=lam_max)


class QuadraticOracle(DualOracle):
    """Oracle for quadratics (gamma/2)|x - center_i|^2 on R^dim.

    The conjugate gradient is center_i + z / gamma. With no centers the
    objective is the plain (gamma/2)|x|^2, whose Moreau-regularized dual has
    closed forms used throughout the test suite.
    """

    def __init__(self, gamma: float, dim: int, centers: np.ndarray | None = None):
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)
        self.dim = int(dim)
        if centers is not None:
            centers = np.asarray(centers, dtype=float)
            if centers.ndim != 2 or centers.shape[1] != dim:
                raise ValueError(f"centers must have shape (m, {dim}), got {centers.shape}")
        self.centers = centers

    def grad_conj_stack(self, z_stack: np.ndarray) -> np.ndarray:
        z_stack = np.asarray(z_stack, dtype=float)
        if self.centers is None:
            fits = z_stack.ndim == 2 and z_stack.shape[1] == self.dim
            want = f"(m, {self.dim})"
        else:
            fits = z_stack.shape == self.centers.shape
            want = self.centers.shape
        if not fits:
            raise ValueError(f"z_stack shape {z_stack.shape} != {want}")
        base = z_stack / self.gamma
        if self.centers is None:
            return base
        return self.centers + base


def derive_baseline_params(
    smoothness: float, strong_convexity: float, bounds: SpectralBounds
) -> AdomParams:
    """Step parameters from the smoothed dual's (L, mu) directly.

    The smoothed dual is L-smooth and mu-strongly convex with L = 1/r and
    mu = gamma / (1 + r gamma); inverting gives r = 1/L and
    gamma = mu L / (L - mu), so L must exceed mu. The step sizes below are
    the generic (L, mu) closed forms, an independent check on
    :func:`netbary.adom.derive_params`.
    """
    if strong_convexity <= 0 or smoothness <= 0:
        raise ValueError("smoothness and strong_convexity must be positive")
    if not smoothness > strong_convexity:
        raise ValueError(
            f"need smoothness > strong_convexity, got {smoothness} <= {strong_convexity}"
        )
    lam_min, lam_max = bounds.lambda_min_plus, bounds.lambda_max
    big_l, mu = smoothness, strong_convexity
    alpha = 1.0 / (2.0 * big_l)
    eta = 2.0 * lam_min * math.sqrt(mu * big_l) / (7.0 * lam_max)
    theta = mu / lam_max
    sigma = 1.0 / lam_max
    tau = (lam_min / (7.0 * lam_max)) * math.sqrt(mu / big_l)
    return AdomParams(
        r=1.0 / big_l, gamma=mu * big_l / (big_l - mu), alpha=alpha, eta=eta,
        theta=theta, sigma=sigma, tau=tau, bounds=bounds,
    )


def project_zero_sum(stack: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto stacks whose node-sum vanishes."""
    stack = np.asarray(stack, dtype=float)
    return stack - stack.mean(axis=0)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = np.max(a, axis=axis, keepdims=True)
    # Guard empty/-inf columns: exp(-inf - -inf) handled by where.
    top = np.where(np.isfinite(top), top, 0.0)
    out = np.log(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis=axis)
    return out


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


def k_bound_reference(cost, gamma, delta, rho=None):
    """K^2 = sum_j (2 gamma log d + min_i max_l |M_jl - M_il| - gamma log rho)^2
    evaluated term by term over (d, d, d) broadcasts, rho defaulting to
    delta / 2: the formula :func:`netbary.entot.k_bound` reduces in closed
    form."""
    cost = np.asarray(cost, dtype=float)
    d = cost.shape[0]
    if rho is None:
        rho = delta / 2.0
    diffs = np.abs(cost[:, None, :] - cost[None, :, :]).max(axis=2)  # [j, i]
    row_terms = diffs.min(axis=1)
    base = 2.0 * gamma * math.log(d) - gamma * math.log(rho)
    return float(np.sum((base + row_terms) ** 2))


def smoothed_oracle(oracle: DualOracle, r: float):
    """Stacked gradient of the r-smoothed dual: grad_conj_stack(z) + r z.

    Adding ``(r/2)|z|^2`` to each conjugate is the dual picture of taking
    the Moreau-Yosida envelope of each primal objective with parameter r;
    the envelope is 1/r-smooth and gamma/(1 + r gamma)-strongly convex.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")

    def grad(z_stack: np.ndarray) -> np.ndarray:
        return oracle.grad_conj_stack(z_stack) + r * z_stack

    return grad
