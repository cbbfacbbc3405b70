"""Simulator for a three-party liar-detection protocol backed by
four-qubit singlet correlations.

Layering, bottom up: ``records`` (checked records and input rules),
``oracle`` (exact tables, and each source's law in integer weights),
``distribute_test`` (fault model, distribute-and-test phase),
``liar_protocol`` (list exchange and adjudication), ``adversary`` (party
strategies), ``runner`` and ``cli`` (Monte-Carlo trial harness). Beside
them, the dense reference the tests hold them to: ``qstate`` (state-vector
engine) and ``channels`` (qubit custody, step-by-step distribute-and-test).

The package exports the simulator's entry points only: the quick start's
strategies and protocol steps, and the trial harness. Every other name is
reached through its module, e.g. ``liarsim.runner.TrialResult``; importing
the package loads every module but ``cli``, ``qstate`` and ``channels``,
which load on first use.
"""

import importlib

from . import adversary, distribute_test, liar_protocol, oracle, records, runner
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


# bench/tracer.py looks the dense modules up as attributes; they load on first
# use only. Both this hook and distribute_test's go with ROADMAP item 15.
def __getattr__(name: str):
    if name in ("qstate", "channels"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
