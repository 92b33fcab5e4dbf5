"""Accelerated decentralized dual solver over time-varying networks.

The solver minimizes a sum of gamma-strongly-convex node objectives subject
to consensus, working entirely in the dual. Each node i exposes the gradient
of the Fenchel conjugate of its objective through a :class:`DualOracle`.
The dual is smoothed by ``r/2 |z|^2`` (:func:`adom_step` adds r z to the
oracle's gradient), which is equivalent to a Moreau-Yosida regularization
of the primal with parameter r. The method runs two coupled dual sequences plus a momentum stack,
communicates through the current epoch's Laplacian twice per iteration, and
evaluates the stacked oracle exactly once per iteration.

There is one update, :func:`adom_step` (whose body :func:`run` calls on bare
arrays), one loop, :func:`run`, and one parameter type, :class:`AdomParams`.
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

from .netgraph import Laplacian, NetworkSchedule, SpectralBounds, schedule_laplacian

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
        for name in ("r", "gamma", "alpha", "eta", "theta", "sigma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )
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
    """
    for name, value in (("r", r), ("gamma", gamma)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    lam_min, lam_max = bounds.lambda_min_plus, bounds.lambda_max
    rg = r * gamma
    alpha = r / 2.0
    eta = 2.0 * lam_min * math.sqrt(gamma) / (7.0 * lam_max * math.sqrt(r * (1.0 + rg)))
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
    if m < 1 or dim < 1:
        raise ValueError(f"need m >= 1 and dim >= 1, got ({m}, {dim})")
    zeros = np.zeros((m, dim))
    return SolverState(
        z=zeros, z_f=zeros.copy(), z_g=None, momentum=zeros.copy(), x=None, n=0
    )


def _check_finite(iteration: int, **iterates: np.ndarray) -> None:
    """Raise on the first non-finite iterate, in argument order."""
    for name, arr in iterates.items():
        if not np.isfinite(arr).all():
            raise NumericalDivergenceError(name, iteration)


def _update(
    z: np.ndarray,
    z_f: np.ndarray,
    momentum: np.ndarray,
    n: int,
    lap: Laplacian,
    params: AdomParams,
    oracle: DualOracle,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Iteration n on bare arrays; returns (z, z_f, z_g, momentum, grad).

    The body of :func:`adom_step`, which :func:`run` calls directly so that
    the loop builds no state object per iteration.
    """
    alpha, eta, theta = params.alpha, params.eta, params.theta
    sigma, tau = params.sigma, params.tau
    z_g = tau * z + (1.0 - tau) * z_f
    # The smoothed dual's gradient; AdomParams checked r.
    g = oracle.grad_conj_stack(z_g) + params.r * z_g
    # Overflow surfaces as non-finite entries, which the check below turns
    # into NumericalDivergenceError; the transient warnings carry no
    # information.
    with np.errstate(over="ignore", invalid="ignore"):
        momentum = momentum - eta * g
        delta = sigma * lap.apply(momentum)
        momentum -= delta
        z = z + (eta * alpha) * (z_g - z) + delta
        z_f = z_g - theta * lap.apply(g)
        # A non-finite entry anywhere makes the sum non-finite. Finite
        # iterates can overflow it too, so only _check_finite may raise.
        total = g + momentum
        total += z
        total += z_f
        finite = math.isfinite(total.sum())
    if not finite:
        _check_finite(n, grad=g, momentum=momentum, z=z, z_f=z_f)
    return z, z_f, z_g, momentum, g


def adom_step(
    state: SolverState, lap: Laplacian, params: AdomParams, oracle: DualOracle
) -> SolverState:
    """One iteration of the solver.

    Evaluates the stacked oracle exactly once (at z_g, with the r z_g
    smoothing term added) and applies the Laplacian exactly twice. Raises
    :class:`NumericalDivergenceError` naming the first non-finite one of
    grad, momentum, z and z_f.
    """
    z, z_f, z_g, momentum, g = _update(
        state.z, state.z_f, state.momentum, state.n, lap, params, oracle
    )
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
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    start_state = initial_state(schedule.m, oracle.dim)
    z, z_f, momentum = start_state.z, start_state.z_f, start_state.momentum
    records: list[TrajectoryRecord] = []
    start = time.perf_counter()
    for n in range(n_iters):
        lap = schedule_laplacian(schedule, n)
        try:
            z, z_f, z_g, momentum, g = _update(z, z_f, momentum, n, lap, params, oracle)
        except NumericalDivergenceError as err:
            err.records = records
            raise
        if n % record_every == 0 or n == n_iters - 1:
            records.append(
                TrajectoryRecord(
                    iteration=n,
                    x=g.copy(),
                    recovered=g - params.r * z_g,
                    consensus=mean_pairwise_sq_dist(g),
                    wall_time=time.perf_counter() - start,
                )
            )
    state = SolverState(z=z, z_f=z_f, z_g=z_g, momentum=momentum, x=g, n=n_iters)
    return Trajectory(records=records, state=state)


def c2_bound(
    m: int, r: float, gamma: float, k: float, bounds: SpectralBounds
) -> float:
    """Value-gap constant of the convergence guarantee.

    ``k`` bounds the norm of every conjugate gradient over the dual domain
    (sqrt of the transport layer's k_bound for barycenter problems).
    """
    for name, value in (("r", r), ("gamma", gamma), ("k", k)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    rg = r * gamma
    ratio = bounds.lambda_max / bounds.lambda_min_plus
    term1 = m * (1.0 + rg) * k / (math.sqrt(2.0) * gamma) * math.sqrt(ratio)
    term2 = m * (1.0 + rg) ** 2 / (4.0 * r * gamma**2)
    return term1 + term2


def iteration_estimate(
    eps: float, r: float, gamma: float, bounds: SpectralBounds, c2: float
) -> int:
    """Advisory iteration count for an eps-accurate value gap:
    ceil( 7 (lam_max/lam_min+) sqrt((1 + r gamma)/(r gamma)) ln(2 c2 / eps) ).
    """
    for name, value in (("eps", eps), ("r", r), ("gamma", gamma), ("c2", c2)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    rg = r * gamma
    ratio = bounds.lambda_max / bounds.lambda_min_plus
    value = 7.0 * ratio * math.sqrt((1.0 + rg) / rg) * math.log(2.0 * c2 / eps)
    return max(1, math.ceil(value))


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

