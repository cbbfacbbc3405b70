import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liarsim
from liarsim import adversary, channels, distribute_test, liar_protocol, oracle, qstate, records, runner


def test_every_public_name_resolves():
    missing = [name for name in liarsim.__all__ if not hasattr(liarsim, name)]
    assert missing == []


def test_no_public_name_listed_twice():
    assert len(set(liarsim.__all__)) == len(liarsim.__all__)


# the simulator's entry points; every other name is reached through its module
def test_public_names_are_the_entry_points():
    assert liarsim.__all__ == [
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


def _fresh_interpreter_output(code: str) -> str:
    """What ``code`` prints in a new interpreter that imports this checkout's liarsim."""
    src = str(Path(liarsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# in-process, the other tests' imports would hide a missing transitive import
def test_fresh_import_loads_every_module_as_an_attribute():
    modules = "adversary channels distribute_test liar_protocol oracle qstate records runner".split()
    code = f"import liarsim\nprint(*(m for m in {modules!r} if not hasattr(liarsim, m)))\n"
    assert _fresh_interpreter_output(code).split() == []  # the modules a fresh import left out


# every record is a NamedTuple or a plain class: a CLI call generates no dataclass code
def test_fresh_import_and_config_load_no_dataclasses():
    code = (
        "import sys, liarsim, liarsim.cli\n"
        "liarsim.TrialConfig.build(L=16, qubit_loss_prob=0.1, strategy_b='flipforge')\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert _fresh_interpreter_output(code).split() == ["False"]


# the dense reference is loaded on first use only: no production run compiles it
def test_production_path_leaves_the_dense_reference_unloaded():
    code = (
        "import os, sys, tempfile, liarsim, liarsim.cli\n"
        "from liarsim import distribute_test\n"
        "configs = [liarsim.TrialConfig.build(trials=2, **params) for params in (\n"
        "    dict(L=64, strategy_a='split:n=3'), dict(L=4096, strategy_b='flipforge'),\n"
        "    dict(M=512, N1=128, N2=128, L=256, qubit_loss_prob=1e-4),\n"
        ")]\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    for config in (configs[0], configs[2]):\n"
        "        liarsim.run_trials(config, out_path=os.path.join(out, 'r.ndjson'))\n"
        "print(*(m in sys.modules for m in ('liarsim.qstate', 'liarsim.channels')))\n"
        "print(callable(liarsim.channels.measure_qubits))\n"
        "print(callable(distribute_test.transfer_qubits))\n"
        "print(hasattr(distribute_test, 'DistributeStatus'))\n"
    )
    assert _fresh_interpreter_output(code).split() == ["False", "False", "True", "True", "False"]


# the message wrappers and the transcript envelope: the actions are the messages
@pytest.mark.parametrize(
    "module, name",
    [
        (liar_protocol, "MessageWithList"),
        (liar_protocol, "FullList"),
        (liar_protocol, "Reject"),
        (liar_protocol, "_MAX_POSITION"),
        (liar_protocol, "Evidence"),
        (channels, "ClassicalEnvelope"),
        (channels, "ArrayRecord"),
        # a failure and a check name already say what these restated
        (distribute_test, "DistributeStatus"),
        (liar_protocol, "RejectReason"),
        # second copies: the list law is oracle.list_cells, a pool its size
        (liar_protocol, "_list_table"),
        (liar_protocol, "_cell_table"),
        (runner, "_word_constants"),
        # one probability rule and one integer rule, both in records
        (qstate, "in_unit_interval"),
        (distribute_test, "_as_int"),
    ],
)
def test_deleted_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(liarsim, name)
    assert name not in liarsim.__all__


# a parser's second name, a copy rule and a pool's ids restated what one name holds
def test_second_copies_are_gone():
    from liarsim import cli

    assert not hasattr(cli, "build_parser")
    assert "__reduce__" not in vars(runner.TrialConfig)
    assert not hasattr(distribute_test.VerifiedPool(2, "singlet"), "system_ids")


def test_party_ids_stay_with_the_custody_ledger():
    assert "PartyId" not in liarsim.__all__ and not hasattr(liarsim, "PartyId")
    assert [party.value for party in channels.PartyId] == ["A", "B", "C"]


# records that check nothing when built are reached through their modules
def test_unchecked_records_are_not_exported():
    for name in ("VerifiedPool", "PartyLists"):
        assert name not in liarsim.__all__ and not hasattr(liarsim, name)


def test_protocol_result_has_no_transcript():
    names = list(liar_protocol.ProtocolResult._fields)
    assert names == ["verdict", "a_action", "b_action", "delivered_message"]


# a verdict names its deciding check and position; an abort, its step and system
def test_verdict_and_failure_fields():
    assert liar_protocol.Verdict._fields == ("value", "check", "position")
    assert distribute_test.FailureInfo._fields == ("step", "system_id")


# plain result records: built once per trial or phase, never validated
_VERDICT = liar_protocol.Verdict(liar_protocol.VerdictValue.CONSISTENT)
_ROW = np.zeros(1, np.int8)
PLAIN_RECORDS = [
    liar_protocol.PartyLists(_ROW, _ROW, _ROW),
    adversary.ActionA(0, np.ones(1, np.int64), 0, _ROW),
    adversary.ActionB(0, np.ones(1, np.int64)),
    liar_protocol.AcceptanceResult(True),
    _VERDICT,
    liar_protocol.ProtocolResult(_VERDICT, None, None, 0),
    distribute_test.FailureInfo("ii", 1),
    distribute_test.DistributeOutcome(None, None, None),
    channels.TransferRecord(channels.QubitRef(1, 1), channels.TransferStatus.LOST),
    oracle.escape_probabilities(),
    runner.TrialResult(0, "SUCCESS"),
]


@pytest.mark.parametrize("record", PLAIN_RECORDS, ids=lambda r: type(r).__name__)
def test_plain_records_reject_attribute_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.unknown_field = None


# checked records, and the records with their own rules: a field, a collaborator
# and a new name are refused alike, as a frozen record's are
CHECKED_RECORDS = [
    (adversary.StrategyA(), "kind"),
    (adversary.StrategyB(), "count"),
    (distribute_test.FaultModel(), "qubit_loss_prob"),
    (distribute_test.DistributionPlan(4, 1, 1, 2), "L"),
    (liar_protocol.Thresholds(), "min_fraction"),
    (runner.TrialConfig(), "seed"),
    (runner.TrialConfig(), "plan"),
    (runner.aggregate([runner.TrialResult(0, "SUCCESS")]), "mean_trial_seconds"),
    (distribute_test.VerifiedPool(2, "singlet"), "size"),
    (channels.QubitRef(1, 1), "slot"),
    (qstate.MeasurementDirection(), "theta"),
]


@pytest.mark.parametrize(
    "record, name", CHECKED_RECORDS, ids=[f"{type(r).__name__}.{n}" for r, n in CHECKED_RECORDS]
)
def test_checked_records_reject_attribute_assignment(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.unknown_field = None
    assert getattr(record, name) is before


# every record that checks its fields checks them however it is built: _replace
# rebuilds through _make, and _make through the record's own __new__
REPLACEABLE_RECORDS = [
    (runner.TrialConfig.build(L=64, trials=3), "L", 32),
    (liar_protocol.Thresholds(), "min_fraction", -3),
    (distribute_test.FaultModel(), "qubit_loss_prob", 7.0),
    (distribute_test.DistributionPlan(4, 1, 1, 2), "L", 3),
    (adversary.StrategyA(), "count", -5),
    (adversary.StrategyB(), "kind", "split"),
    (channels.QubitRef(1, 1), "slot", 5),
    (qstate.StateVector(1, [1, 0]), "num_qubits", 2),
    (qstate.SingleQubitUnitary(np.eye(2)), "matrix", np.ones((2, 2))),
    (qstate.MeasurementDirection(), "theta", 4.0),
]


@pytest.mark.parametrize(
    "record, name, invalid", REPLACEABLE_RECORDS,
    ids=[type(record).__name__ for record, *_ in REPLACEABLE_RECORDS],
)
def test_replace_runs_the_record_check(record, name, invalid, records_equal):
    same = record._replace(**{name: getattr(record, name)})
    assert records_equal(same, record)
    with pytest.raises(ValueError):
        record._replace(**{name: invalid})


# pools and records of arrays compare by identity: equal contents make no equal records
@pytest.mark.parametrize(
    "build",
    [
        lambda: distribute_test.VerifiedPool(2, "singlet"),
        lambda: qstate.StateVector(1, [1, 0]),
        lambda: qstate.SingleQubitUnitary(np.eye(2)),
    ],
    ids=["VerifiedPool", "StateVector", "SingleQubitUnitary"],
)
def test_array_records_compare_by_identity(build):
    first, second = build(), build()
    assert first == first and not first != first
    assert first != second and not first == second
    assert len({first, second}) == 2


def test_trial_result_fields_are_the_trial_record_keys(tmp_path):
    out = tmp_path / "r.ndjson"
    runner.run_trials(runner.TrialConfig.build(L=16, trials=1), out_path=str(out))
    record = json.loads(out.read_text().splitlines()[0])
    assert record.pop("record") == "trial"
    assert sorted(record) == sorted(runner.TrialResult._fields)
