"""Stochastic control barrier functions from the killed-diffusion semigroup.

Synthesis: the dominant eigenpair (decay rate gamma, eigenfunction psi) of
the semigroup operator of a killed controlled Ito diffusion, jointly with a
backup policy (power-policy iteration).  Deployment: a minimally invasive
input filter enforcing the barrier decay condition, and Monte Carlo
validation of the probabilistic safety bound.
"""

from .errors import (
    Collapse,
    ConfigError,
    DegenerateSet,
    InsufficientData,
    NonPositiveAirspeed,
    OutOfDomain,
    ScbfError,
    StabilityViolation,
    StructureError,
    UnknownParameter,
)
from .grid import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    GridSpec,
    ImplicitSet,
    ScalarField,
    classify_nodes,
    gradient_at,
    hessian_at,
    interpolate,
    read_field,
    sup_norm,
    write_field,
)
from .montecarlo import (
    FixedPolicyController,
    OpenLoopController,
    SafetyCurve,
    ScbfQpController,
    SimConfig,
    Trajectory,
    bicycle_circle_reference,
    constant_reference,
    estimate_safety_curve,
    fit_decay_rate,
    simulate,
    wilson_interval,
    write_safety_curve_csv,
    write_trajectory_csv,
)
from .safety_filter import (
    FilterSpec,
    FilterStatus,
    filter_input,
    filter_input_batch,
    generator_coefficients,
    generator_value,
)
from .semigroup import (
    PolicyTable,
    PropagationConfig,
    argmax_policy,
    generator_field,
    propagate,
    propagate_optimal,
)
from .spectral import (
    EigenResult,
    IterationRecord,
    default_initial_field,
    eigen_residual,
    initial_field,
    power_iteration,
    power_policy_iteration,
    warm_start_field,
)
from .systems import (
    BENCHMARKS,
    WIG_DEFAULTS,
    StructureFlags,
    SystemModel,
    make_benchmark,
    wig_forces,
)

__version__ = "0.1.0"
