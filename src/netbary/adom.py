"""Accelerated decentralized dual solver over time-varying networks.

The solver minimizes a sum of gamma-strongly-convex node objectives subject
to consensus, working entirely in the dual. Each node i exposes the gradient
of the Fenchel conjugate of its objective through a :class:`DualOracle`.
The dual is smoothed by ``r/2 |z|^2`` (:func:`adom_step` adds r z to the
oracle's gradient), which is equivalent to a Moreau-Yosida regularization
of the primal with parameter r. The method runs two coupled dual sequences plus a momentum stack,
communicates through the current epoch's Laplacian twice per iteration, and
evaluates the stacked oracle exactly once per iteration.

There is one update, :func:`adom_step`, one loop over it, :func:`run`, and
one parameter type, :class:`AdomParams`.
:func:`derive_params` computes the step parameters from (r, gamma).

The dual iterates z, z_f, z_g live in the zero-mean subspace (node-sums
vanish); the momentum stack does not.
"""

from __future__ import annotations

import abc
import math
import time
from dataclasses import dataclass

import numpy as np

from .netgraph import Laplacian, NetworkSchedule, SpectralBounds, _integer, schedule_laplacian

__all__ = [
    "DualOracle",
    "AdomParams",
    "SolverState",
    "TrajectoryRecord",
    "Trajectory",
    "NumericalDivergenceError",
    "derive_params",
    "initial_state",
    "adom_step",
    "run",
    "c2_bound",
    "iteration_estimate",
    "mean_pairwise_sq_dist",
]


def _positive_finite(name: str, value: float) -> float:
    """``value`` if 0 < value < inf, else a ValueError naming ``name``; nan
    fails the test too. The one copy of the rule for every positive
    parameter of the package."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


class DualOracle(abc.ABC):
    """Stacked gradient oracle for the conjugates of the node objectives.

    ``gamma`` is the strong-convexity modulus of the primal objectives, and
    ``dim`` the ambient dimension. Implementations validate their data when
    they are built, so an evaluation inside the solver loop checks no more
    than the shape of its argument.
    """

    gamma: float
    dim: int

    @abc.abstractmethod
    def grad_conj_stack(self, z_stack: np.ndarray) -> np.ndarray:
        """Row i is the gradient of node i's conjugate objective at
        z_stack[i]. Shape (m, dim) -> (m, dim)."""


@dataclass(frozen=True)
class AdomParams:
    """Step parameters of the solver, derived from (r, gamma) and the
    schedule's spectral bounds."""

    r: float
    gamma: float
    alpha: float
    eta: float
    theta: float
    sigma: float
    tau: float
    bounds: SpectralBounds

    def __post_init__(self):
        _positive_finite("r", self.r)
        _positive_finite("gamma", self.gamma)
        _positive_finite("r * gamma", self.r * self.gamma)
        for name in ("alpha", "eta", "theta", "sigma"):
            _positive_finite(name, getattr(self, name))
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")


def derive_params(r: float, gamma: float, bounds: SpectralBounds) -> AdomParams:
    """Closed-form step parameters of the solver.

    With lam = bounds and rg = r*gamma:

    * alpha = r / 2
    * eta   = 2 lam_min+ sqrt(gamma) / (7 lam_max sqrt(r (1 + rg)))
    * theta = gamma / (lam_max (1 + rg))
    * sigma = 1 / lam_max
    * tau   = (lam_min+ / (7 lam_max)) sqrt(rg / (1 + rg))

    An rg that leaves the double range is refused by :class:`AdomParams`,
    naming ``r * gamma``.
    """
    for name, value in (("r", r), ("gamma", gamma)):
        _positive_finite(name, value)
    lam_min, lam_max = bounds.lambda_min_plus, bounds.lambda_max
    rg = r * gamma
    alpha = r / 2.0
    # r (1 + rg) can overflow where its root does not; splitting the root
    # only then keeps every finite product's eta bit for bit.
    scale = r * (1.0 + rg)
    root = math.sqrt(scale) if math.isfinite(scale) else math.sqrt(r) * math.sqrt(1.0 + rg)
    eta = 2.0 * lam_min * math.sqrt(gamma) / (7.0 * lam_max * root)
    theta = gamma / (lam_max * (1.0 + rg))
    sigma = 1.0 / lam_max
    tau = (lam_min / (7.0 * lam_max)) * math.sqrt(rg / (1.0 + rg))
    return AdomParams(
        r=r, gamma=gamma, alpha=alpha, eta=eta, theta=theta, sigma=sigma, tau=tau,
        bounds=bounds,
    )


@dataclass(frozen=True)
class SolverState:
    """Dual iterates after n completed steps.

    ``x`` caches the smoothed-dual gradient evaluated at the most recent
    z_g, which is the solver's primal output for that iteration; it is None
    before the first step.
    """

    z: np.ndarray
    z_f: np.ndarray
    z_g: np.ndarray | None
    momentum: np.ndarray
    x: np.ndarray | None
    n: int


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled output at one iteration.

    ``x`` is the raw smoothed-dual gradient stack (the solver's output);
    ``recovered`` subtracts the r z_g smoothing term, giving the plain
    conjugate gradients, which for transport oracles are exact simplex
    points. ``wall_time`` is seconds of solver time since run start.
    """

    iteration: int
    x: np.ndarray
    recovered: np.ndarray
    consensus: float
    wall_time: float


@dataclass(frozen=True)
class Trajectory:
    records: list[TrajectoryRecord]
    state: SolverState


class NumericalDivergenceError(RuntimeError):
    """A solver iterate became non-finite.

    Carries the offending iterate's name, the iteration index, and (when
    raised through :func:`run`) the records gathered so far.
    """

    def __init__(self, iterate: str, iteration: int):
        super().__init__(
            f"non-finite values in iterate {iterate!r} at iteration {iteration}"
        )
        self.iterate = iterate
        self.iteration = iteration
        self.records: list[TrajectoryRecord] = []


def initial_state(m: int, dim: int) -> SolverState:
    """All-zero start: z = z_f = momentum = 0, nothing evaluated yet."""
    m = _integer("m", m, 1)
    dim = _integer("dim", dim, 1)
    zeros = np.zeros((m, dim))
    return SolverState(
        z=zeros, z_f=zeros.copy(), z_g=None, momentum=zeros.copy(), x=None, n=0
    )


def _check_finite(iteration: int, **iterates: np.ndarray) -> None:
    """Raise on the first non-finite iterate, in argument order."""
    for name, arr in iterates.items():
        if not np.isfinite(arr).all():
            raise NumericalDivergenceError(name, iteration)


def adom_step(
    state: SolverState, lap: Laplacian, params: AdomParams, oracle: DualOracle
) -> SolverState:
    """One iteration of the solver.

    Evaluates the stacked oracle exactly once (at z_g, with the r z_g
    smoothing term added) and applies the Laplacian exactly twice. Raises
    :class:`NumericalDivergenceError` naming the first non-finite one of
    grad, momentum, z and z_f.
    """
    alpha, eta, theta = params.alpha, params.eta, params.theta
    sigma, tau = params.sigma, params.tau
    z_g = tau * state.z + (1.0 - tau) * state.z_f
    # The smoothed dual's gradient; AdomParams checked r.
    g = oracle.grad_conj_stack(z_g) + params.r * z_g
    # Overflow surfaces as non-finite entries, which the check below turns
    # into NumericalDivergenceError; the transient warnings carry no
    # information.
    with np.errstate(over="ignore", invalid="ignore"):
        momentum = state.momentum - eta * g
        delta = sigma * lap.apply(momentum)
        momentum -= delta
        z = state.z + (eta * alpha) * (z_g - state.z) + delta
        z_f = z_g - theta * lap.apply(g)
        # A non-finite entry anywhere makes the sum non-finite. Finite
        # iterates can overflow it too, so only _check_finite may raise.
        total = g + momentum
        total += z
        total += z_f
        finite = math.isfinite(total.sum())
    if not finite:
        _check_finite(state.n, grad=g, momentum=momentum, z=z, z_f=z_f)
    return SolverState(z=z, z_f=z_f, z_g=z_g, momentum=momentum, x=g, n=state.n + 1)


def run(
    schedule: NetworkSchedule,
    oracle: DualOracle,
    params: AdomParams,
    n_iters: int,
    record_every: int = 1,
) -> Trajectory:
    """Run the solver for ``n_iters`` iterations from the zero state.

    Records the output stack x^n at every ``record_every``-th iteration and
    at the final one, reusing the in-step oracle evaluation (the run performs
    exactly ``n_iters`` stacked evaluations in total). On divergence the
    exception carries the records gathered so far.
    """
    n_iters = _integer("n_iters", n_iters, 1)
    record_every = _integer("record_every", record_every, 1)
    state = initial_state(schedule.m, oracle.dim)
    records: list[TrajectoryRecord] = []
    start = time.perf_counter()
    for n in range(n_iters):
        try:
            state = adom_step(state, schedule_laplacian(schedule, n), params, oracle)
        except NumericalDivergenceError as err:
            err.records = records
            raise
        if n % record_every == 0 or n == n_iters - 1:
            records.append(
                TrajectoryRecord(
                    iteration=n,
                    x=state.x.copy(),
                    recovered=state.x - params.r * state.z_g,
                    consensus=mean_pairwise_sq_dist(state.x),
                    wall_time=time.perf_counter() - start,
                )
            )
    return Trajectory(records=records, state=state)


def c2_bound(params: AdomParams, m: int, k: float) -> float:
    """Value-gap constant of the convergence guarantee:
    m (1 + rg) k sqrt(chi / 2) / gamma + m (1 + rg)^2 / (4 rg gamma),
    with rg = r gamma and chi = lam_max / lam_min+ from ``params``.

    ``k`` bounds the norm of every conjugate gradient over the dual domain
    (sqrt of the transport layer's k_bound for barycenter problems). Both
    terms go through (1 + rg) / gamma, so gamma^2 never underflows; a value
    past the double range raises ValueError naming the inputs.
    """
    m = _integer("m", m, 1)
    _positive_finite("k", k)
    r, gamma = params.r, params.gamma
    rg = r * gamma
    chi = params.bounds.lambda_max / params.bounds.lambda_min_plus
    spread = (1.0 + rg) / gamma
    term1 = m * (k * spread) * math.sqrt(chi / 2.0)
    term2 = m * ((1.0 + rg) * (spread / (4.0 * rg)))
    name = f"c2_bound(m={m}, k={k}) at r={r}, gamma={gamma}"
    return _positive_finite(name, term1 + term2)


def iteration_estimate(params: AdomParams, eps: float, c2: float) -> int:
    """Advisory iteration count for an eps-accurate value gap:
    ceil( 7 chi sqrt((1 + rg) / rg) ln(2 c2 / eps) ), at least 1, with
    rg = r gamma and chi = lam_max / lam_min+ from ``params``.

    The logarithm is taken term by term and the root as a quotient of
    roots, so neither 2 c2 / eps nor (1 + rg) / rg can overflow; a count
    past the double range raises ValueError naming the inputs.
    """
    _positive_finite("eps", eps)
    _positive_finite("c2", c2)
    r, gamma = params.r, params.gamma
    rg = r * gamma
    chi = params.bounds.lambda_max / params.bounds.lambda_min_plus
    log_ratio = math.log(2.0) + math.log(c2) - math.log(eps)
    value = 7.0 * chi * (math.sqrt(1.0 + rg) / math.sqrt(rg)) * log_ratio
    name = f"iteration_estimate(eps={eps}, c2={c2}) at r={r}, gamma={gamma}"
    return math.ceil(_positive_finite(name, max(1.0, value)))


def mean_pairwise_sq_dist(stack: np.ndarray) -> float:
    """Mean over node pairs of the squared distance between rows.

    Computed from the centered stack: with xc = x - mean(x), the pair sum
    equals m |xc|_F^2, which avoids the cancellation of the naive moment
    formula when rows nearly agree. A value beyond the double range is inf,
    without a warning: finite iterates can be that far apart, and ``run``
    records them. When the column sums of finite rows overflow, the rows
    are first shifted by the first row, which moves no pair distance, so
    rows that agree give 0; a shift that overflows leaves a pair farther
    apart than the double range, and the value is inf.
    """
    stack = np.asarray(stack, dtype=float)
    m = stack.shape[0]
    if m < 2:
        return 0.0
    with np.errstate(over="ignore"):
        mean = stack.mean(axis=0)
        if not np.isfinite(mean).all() and np.isfinite(stack).all():
            stack = stack - stack[0]
            if not np.isfinite(stack).all():
                return math.inf
            mean = stack.mean(axis=0)
        centered = stack - mean
        return float(2.0 * np.sum(centered * centered) / (m - 1))

