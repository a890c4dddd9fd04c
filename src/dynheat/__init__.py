"""Half-space heat kernels with diffusive dynamical boundary conditions."""

from .quadrature import (
    QuadSpec,
    QuadResult,
    EvaluationError,
    integrate,
    integrate_nested,
)
from .kernels import (
    Params,
    HalfSpacePoint,
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
)
from .dynamic import (
    Envelope,
    SingularConfigurationError,
    exchange_kernel,
    fundamental_kernel,
    dirichlet_layer_kernel,
    laplace_dynamic_kernel,
    heat_neumann_kernel,
    envelope,
    exchange_log_grid,
    exchange_marginal_interior,
    exchange_marginal_boundary,
    marginal_interior_reference,
    marginal_boundary_reference,
    separable_exchange_log,
    total_mass,
    total_mass_radial,
    laplace_dynamic_mass,
    heat_neumann_mass,
)
from .solutions import (
    PROBLEM_TAGS,
    solve_grid,
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
