"""Numerical verification lab for model gradient Kahler Ricci shrinkers.

Closed-form models (flat Gaussians, the sphere-times-plane cylinder and
their products) carry exact drift-Laplacian spectra, holomorphic growth
spaces, weighted frequency functions and drift heat flows; this package
computes all of them twice -- analytically and through independent
discretized oracles -- and cross-checks every displayed identity and bound
at desk scale.
"""

from .models import ModelShrinker, GeometryRecord, cylinder, gaussian, geometry_at, product
from .holopoly import (
    EigenDecomposition,
    HoloPoly,
    decompose_by_eigenvalue,
    dim_O_d,
    growth_eigenvalue_consistency,
    lie_derivative_nabla_f,
)
from .spectrum import (
    SpectrumCatalog,
    DimensionBoundResult,
    analytic_spectrum,
    count_eigenvalues,
    dimension_bound_check,
)
from .quadrature import (
    ProductRule,
    ball_quadrature,
    level_set_quadrature,
    verify_volume_identity,
)
from .frequency import (
    DirichletRecord,
    FrequencyConfig,
    FrequencyProfile,
    D_of_r,
    shell_energy_ledger,
    calibrate_constants,
    check_derivative_I,
    check_defect_recursion,
    check_monotone,
    doubling_and_three_circle,
    frequency_profile,
    rho_mu,
)
from .fheat import (
    HeatPolynomial,
    HeatSolution,
    ancient_transform_check,
    eternal_to_caloric,
    evolve_series,
    project_to_eigenbasis,
    timestep_oracle,
    transform_to_eternal,
)
from .forms import (
    HoloForm,
    dim_O_forms,
    f_hodge_laplacian,
    form_integral_identity_check,
    form_spectrum,
    interior_product,
    kernel_dimension,
    one_form_spectrum_oracle,
    form_count_check,
    form_reduction_ledger,
)
from .oracle1d import DiscretizedOperator, oracle_spectrum_1d
from .report import CheckResult, VerificationReport, verify_all

__version__ = "0.1.0"
