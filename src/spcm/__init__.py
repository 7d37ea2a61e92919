"""Sparse possibilistic c-means clustering toolkit.

Clusters are found by alternating two exact minimisation steps: a per-point
membership solve (inside each cluster's influence ball the larger root of
the cost derivative, in closed form through the Lambert W function; outside
it exactly zero) and a weighted-mean update of each cluster representative.
A convergence monitor checks every guarantee the iteration is supposed to
deliver: strict per-iteration cost descent, bounded trajectories, gradient
stationarity at termination, and positive definiteness of the cost's
second-derivative matrix at the fixed point.
"""

from .core import (
    DataSet,
    MembershipMatrix,
    ModelState,
    squared_distances,
    total_cost,
)
from .driver import (
    ActiveSetEmptyError,
    DedupResult,
    IterationTrace,
    RunResult,
    SolverConfig,
    deduplicate,
    run,
    run_pcm2,
    spcm_step,
    update_theta,
)
from .initialization import (
    DegenerateDataError,
    FcmConfig,
    InitReport,
    activation_bound,
    compute_gammas,
    compute_lambda,
    compute_mu,
    default_K,
    fcm_start,
    initialize,
    radius_bound,
    run_fcm,
    validate_K,
)
from .membership import (
    ClusterSolverContext,
    InvalidParameterError,
    build_context,
    radius_squared,
    solve_membership_batch,
)
from .monitor import (
    FixedPointReport,
    MonitorSettings,
    assemble_hessian,
    check_fixed_point,
    epsilon_bound,
    gradient_residual,
    weighted_cauchy_schwarz_holds,
)

__version__ = "0.1.0"

__all__ = [
    "DataSet",
    "ModelState",
    "MembershipMatrix",
    "total_cost",
    "squared_distances",
    "ClusterSolverContext",
    "InvalidParameterError",
    "build_context",
    "solve_membership_batch",
    "radius_squared",
    "DegenerateDataError",
    "FcmConfig",
    "InitReport",
    "run_fcm",
    "fcm_start",
    "compute_gammas",
    "compute_lambda",
    "compute_mu",
    "radius_bound",
    "activation_bound",
    "default_K",
    "validate_K",
    "initialize",
    "ActiveSetEmptyError",
    "DedupResult",
    "IterationTrace",
    "RunResult",
    "SolverConfig",
    "update_theta",
    "spcm_step",
    "run",
    "run_pcm2",
    "deduplicate",
    "MonitorSettings",
    "FixedPointReport",
    "gradient_residual",
    "assemble_hessian",
    "epsilon_bound",
    "check_fixed_point",
    "weighted_cauchy_schwarz_holds",
    "__version__",
]
