"""Continuous regularized Gauss-Newton flow for ill-posed operator equations.

The package discretizes functions on uniform grids with Simpson quadrature,
integrates the regularized Gauss-Newton flow with Euler or midpoint
Runge-Kutta steppers under a decaying regularization schedule, certifies
convergence via an explicit Riccati majorant, and ships an inverse-gravimetry
benchmark with a sweep/export harness and CLI.
"""

import os

# The flow makes many small BLAS calls per step (matrices of at most a few MB),
# where OpenBLAS's worker threads cost more in wake-ups and spinning than they
# save, and make run times swing with whatever else holds the other cores.
# Default OpenBLAS to one thread.  This only takes effect if numpy is not yet
# imported, and a thread count set in the environment wins.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .certificate import (
    Certificate,
    CertificateInputs,
    ComparisonVerdict,
    bound_curve,
    build_certificate,
    comparison_check,
    default_u0,
)
from .errors import (
    DomainError,
    EvenNodeCountError,
    GnflowError,
    GridMismatchError,
    NonFiniteValueError,
    NumericalError,
    ScheduleError,
)
from .flow import (
    DiscrepancyFloor,
    FirstDiscrepancyIncrease,
    FixedSteps,
    JacobianMatrix,
    Linearization,
    OperatorModel,
    RunReport,
    SolverConfig,
    TrajectoryPoint,
    euler_step,
    parse_stop_rule,
    rk_midpoint_step,
    run_flow,
    velocity,
)
from .gravimetry import (
    GravimetryModel,
    GravimetryParams,
    forward,
    frechet_matrix,
    initial_guess,
    synthesize_data,
    true_interface,
)
from .grids import (
    Grid,
    GridFunction,
    QuadratureWeights,
    inner_product,
    integrate,
    l2_norm,
    simpson_weights,
    sup_norm,
)
from .harness import (
    ExperimentSpec,
    RunSummary,
    TableRow,
    load_spec,
    run_table,
    trajectory_export,
    write_table_csv,
)
from .schedules import (
    Base2,
    Exponential,
    InversePower,
    RateVerdict,
    Schedule,
    parse_schedule,
    validate_rate_function,
)
from .synthetic import (
    CertifiedInstance,
    DiagonalLinearModel,
    certified_diagonal_instance,
)

__version__ = "0.1.0"
