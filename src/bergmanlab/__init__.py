"""Numerical laboratory for reproducing kernels of weighted function spaces.

Builds finite-dimensional spaces of functions over discrete and disk
measures, computes their Bergman kernels and densities of states, and checks
the quantitative structure that comes with them: the comparison principle
for densities, derivative formulas along weight homotopies, kernel quotient
bounds, a maximum principle, and the semiclassical scaling limit.
"""

from .battery import (
    BatteryInstance,
    BatteryReport,
    InstanceMetrics,
    MaxPrincipleSearchReport,
    check_instance,
    generate_instance,
    max_principle_search,
    run_battery,
)
from .comparison import (
    ComparisonReport,
    SandwichReport,
    max_principle_check,
    reduce_less_singular,
    sandwich_check,
    shifted_comparison_sweep,
    sublevel_set,
)
from .errors import (
    InvalidConfigurationError,
    InvalidMeasureError,
    InvalidScenarioError,
    UnsupportedWeightError,
)
from .homotopy import (
    DerivativeReport,
    HomotopyPath,
    build_path,
    difference_quotient_bound_check,
    g_derivative_forms,
    g_of_t,
    l2_difference_bound_check,
    monotonicity_sweep,
    sup_bound_constant,
    weight_at,
)
from .kernels import (
    Spaces,
    WeightedSpace,
    assemble_gram,
    bergman_density_at,
    bergman_density_from_space,
    build_space,
    equilibration_scales,
    kernel_eval_at,
    orthonormal_basis,
    orthonormal_node_values,
    reproducing_residual,
)
from .measures import (
    QuadratureMeasure,
    build_discrete_measure,
    build_disk_measure,
)
from .quantization import (
    ScalingReport,
    build_scaled_space,
    default_degree_rule,
    ma_density,
    tcz_convergence_report,
)
from .scenarios import (
    CheckResult,
    RunReport,
    ScenarioConfig,
    emit_report,
    load_scenario_file,
    parse_scenario,
    report_document,
    run_scenario,
)
from .spans import FunctionSpan, evaluate_basis, monomial_span, tabulated_span
from .weights import (
    WeightFunction,
    constant_weight,
    eval_weight,
    gauss_weight,
    harmonic_weight,
    radial_poly_weight,
    scaled_weight,
    tabulated_weight,
)

__version__ = "0.1.0"
