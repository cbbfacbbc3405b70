"""Simulator for a three-party liar-detection protocol backed by
four-qubit singlet correlations.

Layering, bottom up: ``qstate`` (state-vector engine), ``oracle`` (exact
probability tables), ``channels`` (parties, fault model, qubit
custody), ``distribute_test`` (distribute-and-test phase),
``liar_protocol`` (list exchange and adjudication), ``adversary``
(party strategies), ``runner`` and ``cli`` (Monte-Carlo trial harness).
"""

from .adversary import (
    StrategyA,
    StrategyB,
    parse_strategy_A,
    parse_strategy_B,
    strategy_A_act,
    strategy_B_act,
)
from .channels import (
    NO_FAULTS,
    FaultModel,
    ProtocolViolationError,
)
from .distribute_test import (
    DirectionPolicy,
    DistributeStatus,
    DistributionPlan,
    make_verified_pool,
    run_distribute_and_test,
)
from .liar_protocol import (
    EXPECTED_DOUBLE_FRACTION,
    RejectReason,
    Thresholds,
    VerdictValue,
    b_accepts,
    c_adjudicate,
    generate_lists,
    run_liar_protocol,
)
from .oracle import (
    Assignment,
    EscapeProbabilities,
    escape_probabilities,
    rejection_lower_bound,
    round_distribution,
)
from .qstate import (
    COMPUTATIONAL,
    MeasurementDirection,
    ResourceLimitError,
    SingleQubitUnitary,
    StateVector,
    apply_bilateral,
    basis_state,
    fidelity,
    joint_distribution,
    make_singlet,
    measure_qubits,
    random_unitary,
    sample_outcomes,
)
from .runner import (
    TrialConfig,
    TrialResult,
    TrialStats,
    run_trials,
    trial_rng,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "StrategyA",
    "StrategyB",
    "parse_strategy_A",
    "parse_strategy_B",
    "strategy_A_act",
    "strategy_B_act",
    "NO_FAULTS",
    "FaultModel",
    "ProtocolViolationError",
    "DirectionPolicy",
    "DistributeStatus",
    "DistributionPlan",
    "make_verified_pool",
    "run_distribute_and_test",
    "EXPECTED_DOUBLE_FRACTION",
    "RejectReason",
    "Thresholds",
    "VerdictValue",
    "b_accepts",
    "c_adjudicate",
    "generate_lists",
    "run_liar_protocol",
    "Assignment",
    "EscapeProbabilities",
    "escape_probabilities",
    "rejection_lower_bound",
    "round_distribution",
    "COMPUTATIONAL",
    "MeasurementDirection",
    "ResourceLimitError",
    "SingleQubitUnitary",
    "StateVector",
    "apply_bilateral",
    "basis_state",
    "fidelity",
    "joint_distribution",
    "make_singlet",
    "measure_qubits",
    "random_unitary",
    "sample_outcomes",
    "TrialConfig",
    "TrialResult",
    "TrialStats",
    "run_trials",
    "trial_rng",
    "wilson_interval",
    "__version__",
]
