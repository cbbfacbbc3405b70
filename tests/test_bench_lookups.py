"""The benchmark's tracer (``bench/tracer.py``) wraps liarsim functions by name.

It looks each ``(owner, attribute)`` pair of its ``TRACED`` table up on the
package when a traced run starts, and the package must look the same
names up when it calls them, or the spans read 0. The benchmark's own
tests live under ``bench/`` and are not collected here, so these load the
table by file path and check both halves.
"""
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import liarsim
from liarsim.runner import TrialConfig, run_trials

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer_module()
# only the step-by-step reference of distribute-and-test calls these
DENSE_ORACLE_SPANS = {
    "channels.transfer_qubits", "channels.measure_slots", "qstate.measure_qubits"
}


@pytest.mark.parametrize("owner_path, attr, span", TRACER.TRACED)
def test_traced_name_resolves_to_a_callable(owner_path, attr, span):
    owner = liarsim
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr)), span


def test_every_traced_phase_is_called_through_its_name(tmp_path):
    tracer = TRACER.Tracer()
    tracer.install(liarsim)
    try:
        for strategy_b, loss in (("honest", 0.0), ("flipforge", 0.0), ("honest", 1e-4)):
            config = TrialConfig.build(
                L=64, trials=2, strategy_b=strategy_b, qubit_loss_prob=loss
            )
            run_trials(config, str(tmp_path / "out.ndjson"))
    finally:
        tracer.restore()
    called = Counter(tracer.names[i] for i in tracer.name)
    expected = {span for _, _, span in TRACER.TRACED} - DENSE_ORACLE_SPANS
    assert {span for span in expected if not called[span]} == set()
    assert tracer.trials == 6
