"""Log gases on the sphere: critical inverse temperatures, optimizer
combinatorics, spectral bounds, closed forms, graph cross-checks and Monte
Carlo verification."""

from .coupling import (
    ChargeVector,
    CouplingMatrix,
    GraphSpec,
    SystemInput,
    TwoComponentSpec,
    from_charges,
    from_graph,
    from_matrix,
    from_two_component,
    load_system,
    parse_system,
    sample_gaussian_charges,
    sample_gaussian_couplings,
)
from .solver import (
    CriticalReport,
    OptResult,
    SubsetMask,
    brute_force_oracle,
    critical_interval,
    max_nest,
    solve_both,
    solve_t_minus,
    solve_t_plus,
)
from .spectral import (
    BoundReport,
    Spectrum,
    charge_bounds,
    charge_eigenvalues,
    eig_bounds,
    eig_bounds_many,
    symmetric_eigs,
)
from .closed_forms import (
    OnsagerCritical,
    TwoComponentCritical,
    onsager_beta_minus,
    onsager_conditions,
    two_component_critical,
)
from .graphs import ArboricityReport, arboricity
from .sphere_mc import (
    ChainParams,
    ChainResult,
    CollapseStats,
    MCEstimate,
    analytic_partition_two,
    collapse_observables,
    estimate_partition,
    metropolis_chain,
    pole_order_fit,
)

__version__ = "0.1.0"
