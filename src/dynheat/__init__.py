"""Half-space heat kernels with diffusive dynamical boundary conditions."""

from .quadrature import (
    QuadSpec,
    QuadResult,
    EvaluationError,
    integrate,
    integrate_semi_infinite,
    integrate_nested,
)
from .kernels import (
    Params,
    HalfSpacePoint,
    free_heat_kernel,
    free_heat_radial,
    dirichlet_kernel,
    neumann_kernel,
    poisson_kernel,
    gaussian_interval_mass,
    sphere_area,
)
from .data import (
    NormalProfile,
    Interior,
    Boundary,
    InitialData,
    UnsupportedDataError,
    tan_conv,
    interior_value,
    boundary_value,
)
from .dynamic import (
    Region,
    Envelope,
    SingularConfigurationError,
    exchange_kernel,
    fundamental_kernel,
    dirichlet_layer_kernel,
    laplace_dynamic_kernel,
    heat_neumann_kernel,
    classify_region,
    envelope,
    exchange_log_grid,
    exchange_marginal_interior,
    exchange_marginal_boundary,
    marginal_interior_reference,
    marginal_boundary_reference,
    total_mass,
    total_mass_radial,
    laplace_dynamic_mass,
    heat_neumann_mass,
)
from .solutions import (
    PROBLEM_TAGS,
    solve,
    solve_grid,
    boundary_trace,
    witness_response,
)
from .verification import (
    RateFit,
    fit_rate,
    LimitExperiment,
    LimitResult,
    EXPERIMENTS,
    default_experiment,
    run_limit,
    IdentityReport,
    IDENTITIES,
    check_identity,
    sandwich_check,
    opnorm_decay,
    witness_norm,
    oracle_compare,
)
from .fdsolver import FdGrid, FdResult, SchemeError, fd_solve, discrete_mass
from .fdsolver import compare as fd_compare

__version__ = "0.1.0"
