"""Steering detection for two-qubit Werner states.

Entropic (Shannon/Tsallis/Renyi) and dimension-bounded determinant criteria,
measurement-misalignment analysis, violation probabilities under random
measurements, and coincidence-count evaluation with error budgets.
"""

__version__ = "0.1.0"

from .criteria import (
    Criterion,
    Scenario,
    SteeringResult,
    closed_form,
    critical_alpha,
    critical_mu,
    db_bound,
    db_lhs,
    db_steering,
    evaluate,
    renyi_steering,
    sweep,
    tsallis_steering,
)
from .entropy import (
    arimoto_conditional_renyi,
    eur_bound_renyi2,
    eur_bound_tsallis,
    q_log,
    renyi_entropy,
    shannon_entropy,
    tsallis_directed_term,
    tsallis_entropy,
)
from .expio import (
    CountsData,
    ErrorBudget,
    counts_to_table,
    evaluate_with_errors,
    load_counts,
    synthesize_counts,
)
from .montecarlo import (
    MCConfig,
    MCEstimate,
    raised_bound_table,
    violation_histogram,
    violation_probability,
)
from .qcore import (
    JointTable,
    bloch_projector,
    joint_table_closed,
    joint_table_trace,
    mub_settings,
    nom_settings,
    werner_state,
)

__all__ = [
    "__version__",
    "Criterion",
    "Scenario",
    "SteeringResult",
    "JointTable",
    "CountsData",
    "ErrorBudget",
    "MCConfig",
    "MCEstimate",
    "werner_state",
    "bloch_projector",
    "joint_table_trace",
    "joint_table_closed",
    "mub_settings",
    "nom_settings",
    "q_log",
    "shannon_entropy",
    "tsallis_entropy",
    "renyi_entropy",
    "tsallis_directed_term",
    "arimoto_conditional_renyi",
    "eur_bound_tsallis",
    "eur_bound_renyi2",
    "tsallis_steering",
    "renyi_steering",
    "db_lhs",
    "db_bound",
    "db_steering",
    "evaluate",
    "closed_form",
    "critical_mu",
    "critical_alpha",
    "sweep",
    "violation_probability",
    "violation_histogram",
    "raised_bound_table",
    "load_counts",
    "counts_to_table",
    "synthesize_counts",
    "evaluate_with_errors",
]
