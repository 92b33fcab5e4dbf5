"""Decentralized entropic Wasserstein barycenters over time-varying networks.

The package splits into four layers: ``netgraph`` simulates time-varying
communication graphs and their spectra, ``adom`` runs the accelerated
decentralized dual solver, ``entot`` provides the entropic transport dual
oracle plus reference transport solvers, and ``harness`` orchestrates
reproducible experiments behind the ``netbary`` command-line tool.
"""

__version__ = "0.1.0"

from .netgraph import (
    FAMILIES,
    DisconnectedGraphError,
    Laplacian,
    NetworkSchedule,
    SpectralBounds,
    laplacian_from_edges,
    schedule_laplacian,
    spectral_bounds,
)
from .adom import (
    AdomParams,
    DualOracle,
    NumericalDivergenceError,
    QuadraticOracle,
    SolverState,
    Trajectory,
    TrajectoryRecord,
    adom_step,
    c2_bound,
    derive_baseline_params,
    derive_params,
    initial_state,
    iteration_estimate,
    run,
    smoothed_oracle,
)
from .entot import (
    AccuracyParams,
    GridCost,
    SinkhornResult,
    TransportPlan,
    WassersteinDualOracle,
    cost_matrix,
    dual_grad,
    dual_value,
    exact_ot,
    floor_histogram,
    k_bound,
    params_for_eps,
    recover_barycenter,
    sinkhorn,
    validate_histogram,
    wb_dual_oracle,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    GaussianSpec,
    IdxFormatError,
    MetricsRow,
    analytic_barycenter,
    gen_truncated_gaussian,
    load_config,
    load_mnist,
    run_experiment,
)

__all__ = [
    "__version__",
    # netgraph
    "FAMILIES",
    "DisconnectedGraphError",
    "Laplacian",
    "NetworkSchedule",
    "SpectralBounds",
    "laplacian_from_edges",
    "schedule_laplacian",
    "spectral_bounds",
    # adom
    "AdomParams",
    "DualOracle",
    "NumericalDivergenceError",
    "QuadraticOracle",
    "SolverState",
    "Trajectory",
    "TrajectoryRecord",
    "adom_step",
    "c2_bound",
    "derive_baseline_params",
    "derive_params",
    "initial_state",
    "iteration_estimate",
    "run",
    "smoothed_oracle",
    # entot
    "AccuracyParams",
    "GridCost",
    "SinkhornResult",
    "TransportPlan",
    "WassersteinDualOracle",
    "cost_matrix",
    "dual_grad",
    "dual_value",
    "exact_ot",
    "floor_histogram",
    "k_bound",
    "params_for_eps",
    "recover_barycenter",
    "sinkhorn",
    "validate_histogram",
    "wb_dual_oracle",
    # harness
    "ExperimentConfig",
    "ExperimentResult",
    "GaussianSpec",
    "IdxFormatError",
    "MetricsRow",
    "analytic_barycenter",
    "gen_truncated_gaussian",
    "load_config",
    "load_mnist",
    "run_experiment",
]
