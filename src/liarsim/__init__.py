"""Simulator for a three-party liar-detection protocol backed by
four-qubit singlet correlations.

Layering, bottom up: ``qstate`` (the dense reference's engine), ``oracle``
(exact tables, and each source's law in integer weights), ``channels``
(parties, fault model, qubit custody), ``distribute_test``
(distribute-and-test phase), ``liar_protocol`` (list exchange and
adjudication), ``adversary`` (party strategies), ``runner`` and ``cli``
(Monte-Carlo trial harness).

The package exports the simulator's entry points only: the quick start's
strategies and protocol steps, and the trial harness. Every other name is
reached through its module, e.g. ``liarsim.runner.TrialResult``; importing
the package loads every module but ``cli``.
"""

from . import adversary, channels, distribute_test, liar_protocol, oracle, qstate, runner
from .adversary import StrategyA, StrategyB
from .distribute_test import make_verified_pool
from .liar_protocol import generate_lists, run_liar_protocol
from .runner import TrialConfig, run_trials, trial_rng

__version__ = "0.1.0"

__all__ = [
    "StrategyA",
    "StrategyB",
    "make_verified_pool",
    "generate_lists",
    "run_liar_protocol",
    "TrialConfig",
    "run_trials",
    "trial_rng",
    "__version__",
]
