"""Agents, holdings, channels, and structural validation."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import privarch

from privarch import (
    AgentId,
    Architecture,
    ArchitectureError,
    Arrow,
    Base,
    Certified,
    ConstructorDecl,
    INTERFACE,
    ORIGINAL,
    OUTPUT,
    TypeSystem,
    can_compute,
    make_signature,
    validate_architecture,
)

INFO = Base("INFO")
CONSENT = Base("CONSENT")
POLICY = Base("POLICY")

CHILD = AgentId("Child")
PARENT = AgentId("Parent")
WEBSITE = AgentId("Website")


@pytest.fixture(scope="module")
def coppa():
    ts = TypeSystem.build(
        [INFO, CONSENT, POLICY],
        [
            ConstructorDecl("info", INFO),
            ConstructorDecl("consent", CONSENT),
            ConstructorDecl("policy", POLICY),
        ],
    )
    return Architecture.build(
        ts,
        [CHILD, PARENT, WEBSITE],
        {CHILD: {"info"}, PARENT: {"consent"}, WEBSITE: {"policy"}},
        {
            (CHILD, WEBSITE): {INFO},
            (PARENT, WEBSITE): {CONSENT},
            (WEBSITE, PARENT): {POLICY},
        },
    )


def test_original_agent_ids():
    a = AgentId("Child")
    assert a.kind == ORIGINAL and a.owner is None
    assert str(a.name) == "Child"


def test_interface_ids_carry_owner():
    i = AgentId.interface_of(CHILD)
    o = AgentId.output_of(CHILD)
    assert (i.name, i.kind, i.owner) == ("I:Child", INTERFACE, "Child")
    assert (o.name, o.kind, o.owner) == ("O:Child", OUTPUT, "Child")


def test_reserved_prefix_rejected_for_originals():
    with pytest.raises(ArchitectureError):
        AgentId("I:Child")
    with pytest.raises(ArchitectureError):
        AgentId("O:Child")


def test_interface_kind_requires_prefix_and_owner():
    with pytest.raises(ArchitectureError):
        AgentId("Child", INTERFACE, "Child")
    with pytest.raises(ArchitectureError):
        AgentId("I:Child", INTERFACE, None)


def test_agent_ids_keep_their_value_semantics():
    # The hash is stored at construction; it is the hash of the fields, and
    # equality, repr, `replace` and pickling behave as for any frozen value.
    i = AgentId.interface_of(CHILD)
    assert hash(i) == hash(("I:Child", INTERFACE, "Child"))
    assert i == AgentId("I:Child", INTERFACE, "Child") and i != CHILD
    assert repr(i) == "AgentId(name='I:Child', kind='interface', owner='Child')"
    moved = dataclasses.replace(CHILD, name="Parent")
    assert moved == AgentId("Parent") and hash(moved) == hash(AgentId("Parent"))
    assert pickle.loads(pickle.dumps(i)) == i
    with pytest.raises(dataclasses.FrozenInstanceError):
        i.name = "I:Parent"


def test_unpickled_agent_ids_hash_in_their_own_process(tmp_path):
    # String hashes differ between processes, so an agent pickled in one
    # process must hash with the other's seed once loaded there.
    blob = tmp_path / "agents.pickle"
    blob.write_bytes(pickle.dumps([CHILD, AgentId.output_of(CHILD)]))
    probe = (
        "import pickle, sys\n"
        "from pathlib import Path\n"
        "from privarch import AgentId\n"
        "agents = pickle.loads(Path(sys.argv[1]).read_bytes())\n"
        "print(all(hash(a) == hash(AgentId(a.name, a.kind, a.owner)) for a in agents)"
        " and AgentId('Child') in set(agents))\n"
    )
    src = str(Path(privarch.__file__).resolve().parent.parent)
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe, str(blob)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout == "True\n"


def test_sort_key_orders_originals_first():
    agents = [AgentId.interface_of(CHILD), WEBSITE, AgentId.output_of(CHILD), CHILD]
    ordered = sorted(agents, key=lambda a: a.sort_key)
    assert [a.name for a in ordered] == ["Child", "Website", "I:Child", "O:Child"]


def test_can_compute_initial_holdings(coppa):
    assert can_compute(coppa, CHILD, INFO)
    assert not can_compute(coppa, WEBSITE, INFO)


def test_holdings_and_channel_accessors(coppa):
    assert coppa.holdings_of(CHILD) == frozenset({"info"})
    assert coppa.channel_types(CHILD, WEBSITE) == frozenset({INFO})
    assert coppa.channel_types(WEBSITE, CHILD) == frozenset()


def test_agent_named(coppa):
    assert coppa.agent_named("Parent") == PARENT
    with pytest.raises(ArchitectureError):
        coppa.agent_named("Stranger")


def test_validate_clean(coppa):
    rep = validate_architecture(coppa)
    assert rep.violations == ()
    assert rep.lines() == []


def test_validate_flags_unknown_holding(coppa):
    broken = Architecture.build(
        coppa.type_system,
        coppa.agents,
        {**{a: coppa.holdings_of(a) for a in coppa.agents}, CHILD: {"info", "ghost"}},
        coppa.channels,
    )
    rep = validate_architecture(broken)
    assert any(v.code == "holdings" and "ghost" in v.message for v in rep.violations)


def test_validate_flags_undeclared_channel_type(coppa):
    broken = Architecture.build(
        coppa.type_system,
        coppa.agents,
        {a: coppa.holdings_of(a) for a in coppa.agents},
        {**dict(coppa.channels), (CHILD, PARENT): {Base("GHOST")}},
    )
    rep = validate_architecture(broken)
    assert any(v.code == "channels" and "GHOST" in v.message for v in rep.violations)


def test_validate_flags_foreign_channel_endpoint(coppa):
    stranger = AgentId("Stranger")
    broken = Architecture.build(
        coppa.type_system,
        coppa.agents,
        {a: coppa.holdings_of(a) for a in coppa.agents},
        {**dict(coppa.channels), (CHILD, stranger): {INFO}},
    )
    rep = validate_architecture(broken)
    assert any(v.code == "channels" and "undeclared" in v.message for v in rep.violations)


def test_self_channel_is_a_violation(coppa):
    broken = Architecture.build(
        coppa.type_system,
        coppa.agents,
        {a: coppa.holdings_of(a) for a in coppa.agents},
        {**dict(coppa.channels), (CHILD, CHILD): {INFO}},
    )
    rep = validate_architecture(broken)
    assert any(v.code == "channels" and "self-channel" in v.message for v in rep.violations)


def test_validate_report_lists_every_violation_in_order(coppa):
    # Violations sort by code and subject; one channel's types keep the
    # canonical type order, with non-atomic types last.
    broken = Architecture.build(
        coppa.type_system,
        coppa.agents,
        {
            CHILD: {"info", "zap", "ghost"},
            PARENT: {"consent"},
            WEBSITE: {"policy"},
            AgentId.interface_of(AgentId("Ghost")): {"info"},
        },
        {
            (CHILD, WEBSITE): {
                INFO, Base("GHOST"), Certified("Parent", "INFO"), Arrow(INFO, CONSENT),
            },
            (PARENT, PARENT): {POLICY},
            (WEBSITE, AgentId("Stranger")): {POLICY, Base("ALPHA")},
            (PARENT, WEBSITE): {CONSENT},
        },
    )
    assert validate_architecture(broken).lines() == [
        "[channels] channel Child -> Website carries undeclared type GHOST",
        "[channels] channel Child -> Website carries undeclared type C[Parent](INFO)",
        "[channels] channel Child -> Website carries non-atomic type INFO -> CONSENT",
        "[channels] self-channel on Parent is not allowed",
        "[channels] channel endpoint Stranger is undeclared",
        "[channels] channel Website -> Stranger carries undeclared type ALPHA",
        "[holdings] Child holds undeclared constructor ghost",
        "[holdings] Child holds undeclared constructor zap",
        "[holdings] holdings for undeclared agent I:Ghost",
    ]


def test_original_agents_listing(coppa):
    safe_agents = list(coppa.agents) + [AgentId.interface_of(CHILD)]
    arch = Architecture.build(
        coppa.type_system,
        safe_agents,
        {**{a: coppa.holdings_of(a) for a in coppa.agents}, AgentId.interface_of(CHILD): set()},
        coppa.channels,
    )
    assert arch.original_agents() == [CHILD, PARENT, WEBSITE]
    assert [a.name for a in arch.sorted_agents()] == ["Child", "Parent", "Website", "I:Child"]
