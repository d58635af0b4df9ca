"""Within-host viral dynamics toolkit.

Three-compartment HIV models (untreated, two-efficacy treatment,
combined-efficacy treatment), a fixed-step fourth-order Runge-Kutta
integrator, closed-form equilibria with eigenvalue stability analysis,
and a scenario layer with clinical metrics.  The ``viradyn`` CLI wraps
it all; see the README for usage.
"""

from .analysis import (
    EigenDecomposition,
    Equilibrium,
    EquilibriumKind,
    LinearizedSolution,
    StabilityClass,
    StabilityReport,
    classify,
    eigen3,
    equilibria,
    evaluate_linearized,
    fit_linearized,
    jacobian,
)
from .errors import (
    ConditioningError,
    DefectiveMatrixError,
    IntegrationBlowupError,
    NegativePopulationError,
    NonFiniteStateError,
    NumericalError,
)
from .integrator import MeshSpec, Trajectory, integrate, rk4_step
from .model import (
    EfficacySchedule,
    ModelKind,
    ModelParams,
    SystemState,
    TreatmentWindow,
    effective_rates,
    rhs,
    rhs_at_rates,
)
from .scenario import (
    COMBINED_DOSAGES,
    DEFAULT_INITIAL,
    SUPPRESSION_THRESHOLD,
    SURVEY_INITIALS,
    TWO_CONTROL_DOSAGES,
    LinearizationComparison,
    MetricSet,
    ScenarioConfig,
    ScenarioResult,
    compare_linearization,
    compute_metrics,
    reference_scenarios,
    run,
    run_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ModelKind", "ModelParams", "TreatmentWindow", "EfficacySchedule",
    "SystemState", "effective_rates", "rhs", "rhs_at_rates",
    "MeshSpec", "Trajectory", "rk4_step", "integrate",
    "EquilibriumKind", "Equilibrium", "EigenDecomposition",
    "StabilityClass", "StabilityReport", "LinearizedSolution",
    "equilibria", "jacobian", "eigen3", "classify",
    "fit_linearized", "evaluate_linearized",
    "ScenarioConfig", "MetricSet", "ScenarioResult", "LinearizationComparison",
    "compute_metrics", "run", "run_matrix", "compare_linearization",
    "reference_scenarios", "SUPPRESSION_THRESHOLD", "DEFAULT_INITIAL",
    "SURVEY_INITIALS", "TWO_CONTROL_DOSAGES", "COMBINED_DOSAGES",
    "NumericalError", "NonFiniteStateError", "IntegrationBlowupError", "NegativePopulationError",
    "DefectiveMatrixError", "ConditioningError",
    "__version__",
]
