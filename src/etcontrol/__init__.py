"""Robust event-triggered state feedback for uncertain discrete-time systems.

Design a state-feedback controller for x(k+1) = (A + dA(p)) x(k) + B u(k)
with box-bounded parametric uncertainty that need not enter through the
input channel, derive a relative event-trigger threshold with a guaranteed
Lyapunov decay, audit every feasibility condition the guarantee relies on,
and simulate the resulting closed loop under periodic or event-triggered
transmission.
"""

from .config import (
    ExperimentConfig,
    SimulationSettings,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    scaffold_config,
)
from .errors import (
    ConfigError,
    FeasibilityError,
    NumericalError,
    RankDeficiencyError,
    RiccatiConvergenceError,
    SingularMatrixError,
    ToolkitError,
    TriggerUndefinedError,
)
from .simulation import (
    ParamTrajectory,
    PolicyComparison,
    SimTrace,
    TriggerPolicy,
    compare_policies,
    simulate,
)
from .synthesis import (
    ConditionCheck,
    FeasibilityReport,
    SynthesisOutcome,
    SynthesisParams,
    UncertaintyModel,
    as_matched_model,
    decay_matrix,
    error_weight,
    feedback_gain,
    feasibility_report,
    solve_modified_dare,
    synthesize,
    synthesize_matched,
    trigger_coefficient,
    virtual_gain,
)
from .verification import (
    CheckResult,
    check_cross_term_bound,
    check_dissipation,
    check_epsilon_interval,
    check_inversion_identity,
    check_loop_energy_bound,
    cross_term_campaign,
    identity_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConditionCheck",
    "ConfigError",
    "ExperimentConfig",
    "FeasibilityError",
    "FeasibilityReport",
    "NumericalError",
    "ParamTrajectory",
    "PolicyComparison",
    "RankDeficiencyError",
    "RiccatiConvergenceError",
    "SimTrace",
    "SimulationSettings",
    "SingularMatrixError",
    "SynthesisOutcome",
    "SynthesisParams",
    "ToolkitError",
    "TriggerPolicy",
    "TriggerUndefinedError",
    "UncertaintyModel",
    "as_matched_model",
    "check_cross_term_bound",
    "check_dissipation",
    "check_epsilon_interval",
    "check_inversion_identity",
    "check_loop_energy_bound",
    "compare_policies",
    "config_from_dict",
    "config_to_dict",
    "cross_term_campaign",
    "decay_matrix",
    "error_weight",
    "feasibility_report",
    "feedback_gain",
    "identity_campaign",
    "load_config",
    "save_config",
    "scaffold_config",
    "simulate",
    "solve_modified_dare",
    "synthesize",
    "synthesize_matched",
    "trigger_coefficient",
    "virtual_gain",
]
