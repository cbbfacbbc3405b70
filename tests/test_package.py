import dataclasses

import pytest

import liarsim
from liarsim import channels, liar_protocol


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
        (channels, "ClassicalEnvelope"),
    ],
)
def test_deleted_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(liarsim, name)
    assert name not in liarsim.__all__


def test_party_ids_stay_with_the_custody_ledger():
    assert "PartyId" not in liarsim.__all__ and not hasattr(liarsim, "PartyId")
    assert [party.value for party in channels.PartyId] == ["A", "B", "C"]


def test_protocol_result_has_no_transcript():
    names = [field.name for field in dataclasses.fields(liar_protocol.ProtocolResult)]
    assert names == ["verdict", "a_action", "b_action", "b_acceptance", "delivered_message"]
