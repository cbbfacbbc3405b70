import json

import numpy as np
import pytest

import liarsim
from liarsim import adversary, channels, distribute_test, liar_protocol, oracle, runner


def test_every_public_name_resolves():
    missing = [name for name in liarsim.__all__ if not hasattr(liarsim, name)]
    assert missing == []


def test_no_public_name_listed_twice():
    assert len(set(liarsim.__all__)) == len(liarsim.__all__)


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
    ],
)
def test_deleted_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(liarsim, name)
    assert name not in liarsim.__all__


def test_party_ids_stay_with_the_custody_ledger():
    assert "PartyId" not in liarsim.__all__ and not hasattr(liarsim, "PartyId")
    assert [party.value for party in channels.PartyId] == ["A", "B", "C"]


# records that check nothing when built are reached through their modules
def test_unchecked_records_are_not_exported():
    for name in ("VerifiedPool", "PartyLists"):
        assert name not in liarsim.__all__ and not hasattr(liarsim, name)


def test_protocol_result_has_no_transcript():
    names = list(liar_protocol.ProtocolResult._fields)
    assert names == ["verdict", "a_action", "b_action", "b_acceptance", "delivered_message"]


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
    liar_protocol.ProtocolResult(_VERDICT, None, None, None, 0),
    distribute_test.FailureInfo("ii", 1),
    distribute_test.DistributeOutcome(distribute_test.DistributeStatus.FAILURE, None, None, None),
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


def test_trial_result_fields_are_the_trial_record_keys(tmp_path):
    out = tmp_path / "r.ndjson"
    runner.run_trials(runner.TrialConfig.build(L=16, trials=1), out_path=str(out))
    record = json.loads(out.read_text().splitlines()[0])
    assert record.pop("record") == "trial"
    assert sorted(record) == sorted(runner.TrialResult._fields)
