"""Constraint forms and trace compliance."""

from __future__ import annotations

import pytest

from privarch import (
    AgentId,
    Architecture,
    Base,
    Con,
    ConstructorDecl,
    Event,
    LocalSend,
    NegCreate,
    NegPossess,
    Positive,
    TypeSystem,
    check_local,
    check_neg_create,
    check_neg_possess,
    check_positive,
    check_trace_compliance,
    possession_closure,
)

INFO = Base("INFO")
CONSENT = Base("CONSENT")
POLICY = Base("POLICY")

CHILD = AgentId("Child")
PARENT = AgentId("Parent")
WEBSITE = AgentId("Website")

NEG_POSSESS = NegPossess(WEBSITE, INFO, WEBSITE, CONSENT)
NEG_POSSESS_2 = NegPossess(WEBSITE, CONSENT, PARENT, POLICY)
NEG_CREATE = NegCreate(WEBSITE, INFO, CONSENT)
POS = Positive(WEBSITE, INFO)


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


def test_constraint_str_forms():
    assert str(NEG_CREATE) == "Website ni INFO => CONSENT"
    assert str(NEG_POSSESS) == "Website ni INFO => Website ni CONSENT"
    assert str(POS) == "pos(Website, INFO)"
    gate = LocalSend(
        AgentId.interface_of(PARENT), POLICY, AgentId.output_of(PARENT), PARENT
    )
    assert str(gate) == "local I:Parent -> O:Parent : POLICY prev Parent"


def test_bare_info_send_violates_possession_form(coppa):
    events = [Event(CHILD, Con("info"), INFO, WEBSITE)]
    verdict = check_neg_possess(possession_closure(coppa, events), NEG_POSSESS)
    assert not verdict.compliant
    constraint, prefix_len, detail = verdict.violations[0]
    assert constraint is NEG_POSSESS and prefix_len == 1
    assert "CONSENT" in detail


def test_consent_first_satisfies_possession_form(coppa):
    events = [
        Event(PARENT, Con("consent"), CONSENT, WEBSITE),
        Event(CHILD, Con("info"), INFO, WEBSITE),
    ]
    assert check_neg_possess(possession_closure(coppa, events), NEG_POSSESS).compliant


def test_possession_form_reports_first_violating_prefix(coppa):
    events = [
        Event(CHILD, Con("info"), INFO, WEBSITE),
        Event(PARENT, Con("consent"), CONSENT, WEBSITE),
    ]
    verdict = check_neg_possess(possession_closure(coppa, events), NEG_POSSESS)
    # consent arriving later does not repair the earlier prefix
    assert not verdict.compliant
    assert verdict.violations[0][1] == 1


def test_creation_form_counts_initial_holdings(coppa):
    # CONSENT is computable by Parent from the initial state, so the
    # creation-form constraint is satisfied the moment INFO arrives.
    events = [Event(CHILD, Con("info"), INFO, WEBSITE)]
    assert check_neg_create(possession_closure(coppa, events), NEG_CREATE).compliant


def test_creation_form_violated_when_nobody_has_required(coppa):
    constraint = NegCreate(WEBSITE, INFO, Base("GHOST"))
    ts = TypeSystem.build(
        list(coppa.type_system.atomic_types) + [Base("GHOST")],
        coppa.type_system.constructors,
    )
    arch = Architecture.build(
        ts,
        coppa.agents,
        {a: coppa.holdings_of(a) for a in coppa.agents},
        coppa.channels,
    )
    events = [Event(CHILD, Con("info"), INFO, WEBSITE)]
    verdict = check_neg_create(possession_closure(arch, events), constraint)
    assert not verdict.compliant and verdict.violations[0][1] == 1


def test_positive_goal(coppa):
    assert not check_positive(possession_closure(coppa, []), POS)
    assert check_positive(possession_closure(coppa, [Event(CHILD, Con("info"), INFO, WEBSITE)]), POS)


def test_local_gate_blocks_unforwarded_send():
    i_parent = AgentId.interface_of(PARENT)
    o_parent = AgentId.output_of(PARENT)
    gate = LocalSend(i_parent, POLICY, o_parent, PARENT)
    bad = [Event(i_parent, Con("policy"), POLICY, o_parent)]
    verdict = check_local(bad, gate)
    assert not verdict.compliant and verdict.violations[0][1] == 1

    good = [
        Event(i_parent, Con("policy"), POLICY, PARENT),
        Event(i_parent, Con("policy"), POLICY, o_parent),
    ]
    assert check_local(good, gate).compliant


def test_local_gate_requires_same_term():
    i_parent = AgentId.interface_of(PARENT)
    o_parent = AgentId.output_of(PARENT)
    gate = LocalSend(i_parent, POLICY, o_parent, PARENT)
    events = [
        Event(i_parent, Con("other_policy"), POLICY, PARENT),
        Event(i_parent, Con("policy"), POLICY, o_parent),
    ]
    assert not check_local(events, gate).compliant


def test_local_gate_ignores_other_sends():
    i_parent = AgentId.interface_of(PARENT)
    o_parent = AgentId.output_of(PARENT)
    gate = LocalSend(i_parent, POLICY, o_parent, PARENT)
    events = [Event(i_parent, Con("policy"), POLICY, PARENT)]
    assert check_local(events, gate).compliant


def test_local_gate_does_not_count_the_gated_send_itself():
    # When the gate's receiver is also the designated previous receiver, the
    # gated send cannot be its own prior forward.
    i_parent = AgentId.interface_of(PARENT)
    gate = LocalSend(i_parent, POLICY, PARENT, PARENT)
    once = [Event(i_parent, Con("policy"), POLICY, PARENT)]
    verdict = check_local(once, gate)
    assert verdict.violations == (
        (gate, 1, "gated send at event 0 has no prior same-term send to Parent"),
    )


def test_compliance_report_aggregates(coppa):
    events = [Event(CHILD, Con("info"), INFO, WEBSITE)]
    rep = check_trace_compliance(
        coppa, events, [NEG_POSSESS, NEG_POSSESS_2, POS]
    )
    assert not rep.compliant
    assert not rep.negatives.compliant
    assert rep.local_gates.compliant
    assert rep.positives[POS] is True


def test_unmet_positive_does_not_break_compliance(coppa):
    events = [
        Event(PARENT, Con("consent"), CONSENT, WEBSITE),
    ]
    rep = check_trace_compliance(coppa, events, [NEG_POSSESS, POS])
    # Website never receives INFO here: the possession form holds and the
    # positive goal is merely unmet.
    assert rep.compliant
    assert rep.positives[POS] is False


def test_compliance_on_compliant_prefix_chain(coppa):
    events = [
        Event(WEBSITE, Con("policy"), POLICY, PARENT),
        Event(PARENT, Con("consent"), CONSENT, WEBSITE),
        Event(CHILD, Con("info"), INFO, WEBSITE),
    ]
    rep = check_trace_compliance(coppa, events, [NEG_POSSESS, NEG_POSSESS_2, POS])
    assert rep.compliant and rep.positives[POS] is True
