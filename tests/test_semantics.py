"""Trace validity, derivability, closure, and the metatheory properties.

The closure is cross-checked against the enumeration oracle in oracles.py;
the random suites here run a small number of cases for fast feedback, and
the acceptance suite re-runs them at the full advertised volume.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from privarch import (
    AgentId,
    Architecture,
    Arrow,
    Base,
    Con,
    ConstructorDecl,
    Event,
    EventTypeError,
    InvalidTraceError,
    NotDerivable,
    TypeSystem,
    apply,
    build_safe_architecture_v2,
    check_trace_valid,
    derives,
    generation_decompose,
    infer_type,
    parse_spec,
    parse_trace,
    possession_closure,
    print_trace,
    term_size,
)

from privarch.semantics import TraceCheck, TypeRules, walk_trace

from conftest import read_fixture
from generators import (
    bounded_instance,
    corrupt_event,
    mk_architecture,
    mk_negpossess_set,
    mk_valid_trace,
)
from oracles import (
    arrow_possession_is_initial,
    global_term_of_type,
    oracle_possession,
    reference_check_trace_valid,
    reference_decompose,
    reference_derives,
    reference_fired,
    weakening_holds,
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


def ev(s, term, ty, r):
    return Event(s, term, ty, r)


# ---------------------------------------------------------------------------
# trace validity


def test_declared_send_of_held_term_is_valid(coppa):
    check = check_trace_valid(coppa, [ev(CHILD, Con("info"), INFO, WEBSITE)])
    assert check.valid and check.index is None


def test_send_against_missing_channel_invalid_at_zero(coppa):
    check = check_trace_valid(coppa, [ev(WEBSITE, Con("info"), INFO, CHILD)])
    assert (check.valid, check.index, check.reason) == (False, 0, "channel")


def test_echo_without_channel_invalid_at_one(coppa):
    events = [
        ev(PARENT, Con("consent"), CONSENT, WEBSITE),
        ev(WEBSITE, Con("consent"), CONSENT, PARENT),
    ]
    check = check_trace_valid(coppa, events)
    assert (check.valid, check.index, check.reason) == (False, 1, "channel")


def test_a_channel_type_outside_the_type_system_is_carried_by_no_event():
    # An architecture built through the API may list an undeclared type on a
    # channel, or a channel to an undeclared agent; no event can use either,
    # and the declared ones still pass.
    a, z = Base("A"), Base("Z")
    ts = TypeSystem.build([a], [ConstructorDecl("a", a)])
    p, q = AgentId("P"), AgentId("Q")
    channels = {(p, q): {a, z}, (q, AgentId("R")): {a}}
    arch = Architecture.build(ts, [p, q], {p: {"a"}}, channels)
    assert check_trace_valid(arch, [ev(p, Con("a"), a, q)]) == TraceCheck(True)
    check = check_trace_valid(arch, [ev(p, Con("a"), a, q), ev(q, Con("a"), a, p)])
    assert (check.valid, check.index, check.reason) == (False, 1, "channel")


def test_sending_underived_term_is_possession_violation(coppa):
    check = check_trace_valid(coppa, [ev(CHILD, Con("info"), INFO, WEBSITE),
                                      ev(WEBSITE, Con("policy"), POLICY, PARENT),
                                      ev(PARENT, Con("policy"), POLICY, WEBSITE)])
    # Parent received POLICY but has no channel... the channel Parent->Website
    # carries CONSENT only, so this still fails as a channel violation first.
    assert (check.valid, check.index, check.reason) == (False, 2, "channel")


def test_possession_reason_when_channel_exists(coppa):
    check = check_trace_valid(coppa, [ev(PARENT, Con("consent"), CONSENT, WEBSITE),
                                      ev(CHILD, Con("info"), INFO, WEBSITE),
                                      ev(WEBSITE, Con("policy"), POLICY, PARENT),
                                      ev(WEBSITE, Con("info"), INFO, PARENT)])
    assert (check.valid, check.index, check.reason) == (False, 3, "channel")


def test_possession_violation_detected(coppa):
    bigger = Architecture.build(
        coppa.type_system,
        coppa.agents,
        {a: coppa.holdings_of(a) for a in coppa.agents},
        {**dict(coppa.channels), (PARENT, CHILD): {INFO}},
    )
    check = check_trace_valid(bigger, [ev(PARENT, Con("info"), INFO, CHILD)])
    assert (check.valid, check.index, check.reason) == (False, 0, "possession")


def test_unknown_agent_is_structural(coppa):
    with pytest.raises(EventTypeError) as exc:
        check_trace_valid(coppa, [ev(AgentId("Stranger"), Con("info"), INFO, WEBSITE)])
    assert str(exc.value) == "event 0: unknown agent Stranger"
    # The ends are looked up by name; an interface of a declared agent is
    # still unknown when the architecture has no such interface.
    to_interface = ev(CHILD, Con("info"), INFO, AgentId.interface_of(WEBSITE))
    with pytest.raises(EventTypeError) as exc:
        check_trace_valid(coppa, [ev(CHILD, Con("info"), INFO, WEBSITE), to_interface])
    assert str(exc.value) == "event 1: unknown agent I:Website"


def test_ill_typed_event_term_is_structural(coppa):
    with pytest.raises(EventTypeError):
        check_trace_valid(coppa, [ev(CHILD, Con("info"), CONSENT, WEBSITE)])


def test_repeated_term_at_a_wrong_type_names_the_later_event(coppa):
    # The type table answers the second event from the first; the error must
    # still name the event that declares the wrong type.
    info = Con("info")
    events = [ev(CHILD, info, INFO, WEBSITE), ev(CHILD, info, CONSENT, WEBSITE)]
    with pytest.raises(EventTypeError) as exc:
        check_trace_valid(coppa, events)
    assert str(exc.value) == "event 1: term info has type INFO, not CONSENT"


def test_repeated_ill_typed_term_fails_at_its_first_occurrence(coppa):
    bad = apply("info", [Con("info")])
    events = [
        ev(CHILD, Con("info"), INFO, WEBSITE),
        ev(CHILD, bad, INFO, WEBSITE),
        ev(CHILD, bad, INFO, WEBSITE),
    ]
    with pytest.raises(EventTypeError) as exc:
        check_trace_valid(coppa, events)
    assert str(exc.value) == "event 1: applied non-function info : INFO"


def test_event_str_form(coppa):
    e = ev(CHILD, Con("info"), INFO, WEBSITE)
    assert str(e) == "Child -> Website : info : INFO"


# `Event` is a frozen, slotted record whose own constructor checks the ends
# and the type, and which pickles through that constructor.


def test_event_refuses_a_self_send():
    with pytest.raises(EventTypeError) as exc:
        Event(CHILD, Con("info"), INFO, AgentId("Child"))
    assert str(exc.value) == "event sends Child to itself"


def test_event_refuses_an_arrow_type():
    with pytest.raises(EventTypeError) as exc:
        Event(CHILD, Con("info"), Arrow(INFO, INFO), WEBSITE)
    assert str(exc.value) == "events carry atomic types only"


def test_event_matches_by_position_and_keyword():
    match ev(CHILD, Con("info"), INFO, WEBSITE):
        case Event(sender, term, msg_type=ty, receiver=receiver):
            assert (sender, term, ty, receiver) == (CHILD, Con("info"), INFO, WEBSITE)
        case _:
            pytest.fail("no match")


def test_event_equality_is_field_equality():
    e = ev(CHILD, apply("info", []), INFO, WEBSITE)
    assert e == ev(AgentId("Child"), Con("info"), Base("INFO"), AgentId("Website"))
    assert e != ev(CHILD, Con("info"), INFO, PARENT)
    assert e != ev(CHILD, Con("other"), INFO, WEBSITE)
    assert e != (CHILD, Con("info"), INFO, WEBSITE)


def test_equal_events_hash_alike():
    a = ev(CHILD, Con("info"), INFO, WEBSITE)
    b = ev(AgentId("Child"), Con("info"), INFO, AgentId("Website"))
    assert hash(a) == hash(b) == hash((CHILD, Con("info"), INFO, WEBSITE))
    assert len({a, b, ev(PARENT, Con("consent"), CONSENT, WEBSITE)}) == 2


def test_event_repr_reads_as_the_dataclass_did():
    assert repr(ev(CHILD, Con("info"), INFO, WEBSITE)) == (
        "Event(sender=AgentId(name='Child', kind='original', owner=None), "
        "term=Con(name='info'), msg_type=Base(name='INFO'), "
        "receiver=AgentId(name='Website', kind='original', owner=None))"
    )


def test_event_pickles_and_copies():
    e = ev(PARENT, apply("pair", [Con("consent"), Con("policy")]), CONSENT, WEBSITE)
    for back in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert back == e and hash(back) == hash(e)
        assert back.term == e.term and back.receiver == e.receiver


def test_event_is_frozen_and_slotted():
    e = ev(CHILD, Con("info"), INFO, WEBSITE)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.term = Con("policy")
    with pytest.raises(dataclasses.FrozenInstanceError):
        del e.receiver
    assert not hasattr(e, "__dict__")
    assert e.term == Con("info") and e.receiver == WEBSITE


# ---------------------------------------------------------------------------
# derivability


def test_initial_holder_derives_its_constructor(coppa):
    assert derives(coppa, [], CHILD, Con("info"), INFO)


def test_receiver_derives_after_message(coppa):
    events = [ev(CHILD, Con("info"), INFO, WEBSITE)]
    assert derives(coppa, events, WEBSITE, Con("info"), INFO)


def test_nonreceiver_does_not_derive(coppa):
    assert not derives(coppa, [], WEBSITE, Con("info"), INFO)
    events = [ev(CHILD, Con("info"), INFO, WEBSITE)]
    assert not derives(coppa, events, PARENT, Con("info"), INFO)


def test_derivability_is_prefix_monotone(coppa):
    events = [
        ev(CHILD, Con("info"), INFO, WEBSITE),
        ev(PARENT, Con("consent"), CONSENT, WEBSITE),
    ]
    # once derivable, derivable at every longer prefix
    for i in range(1, len(events) + 1):
        assert derives(coppa, events[:i], WEBSITE, Con("info"), INFO)


# ---------------------------------------------------------------------------
# closure


def test_initial_closure_state(coppa):
    state = possession_closure(coppa, [])[0]
    assert state.types_of(CHILD) == frozenset({INFO})
    assert state.types_of(WEBSITE) == frozenset({POLICY})


def test_closure_has_one_state_per_prefix(coppa):
    events = [ev(CHILD, Con("info"), INFO, WEBSITE)]
    states = possession_closure(coppa, events)
    assert len(states) == 2
    assert INFO not in states[0].types_of(WEBSITE)
    assert INFO in states[1].types_of(WEBSITE)


def test_closure_witness_is_derivable(coppa):
    events = [ev(CHILD, Con("info"), INFO, WEBSITE)]
    state = possession_closure(coppa, events)[-1]
    w = state.witness(WEBSITE, INFO)
    assert derives(coppa, events, WEBSITE, w, INFO)


def test_closure_matches_oracle_random():
    rng = random.Random(0xC105)
    for _ in range(60):
        arch, events = bounded_instance(rng)
        states = possession_closure(arch, events)
        oracle = oracle_possession(arch, events)
        for i, state in enumerate(states):
            for agent in arch.agents:
                assert state.types_of(agent) == oracle[i][agent], (
                    f"closure disagrees with oracle at prefix {i} for {agent.name}"
                )


def test_closure_monotone_random():
    rng = random.Random(0xC106)
    for _ in range(40):
        arch, events = bounded_instance(rng)
        states = possession_closure(arch, events)
        for earlier, later in zip(states, states[1:]):
            for agent in arch.agents:
                assert earlier.types_of(agent) <= later.types_of(agent)


def test_closure_witnesses_stable_across_prefixes():
    rng = random.Random(0xC107)
    for _ in range(40):
        arch, events = bounded_instance(rng)
        states = possession_closure(arch, events)
        for earlier, later in zip(states, states[1:]):
            for agent in arch.agents:
                for ty in earlier.types_of(agent):
                    assert earlier.witness(agent, ty) == later.witness(agent, ty)


# ---------------------------------------------------------------------------
# weakening


def test_weakening_pinned(coppa):
    tr1 = [ev(CHILD, Con("info"), INFO, WEBSITE)]
    tr2 = [ev(WEBSITE, Con("policy"), POLICY, PARENT)]
    assert weakening_holds(coppa, tr1, tr2, WEBSITE, Con("info"), INFO)


def test_weakening_random():
    rng = random.Random(0xC108)
    for _ in range(40):
        arch, events = bounded_instance(rng)
        cut = rng.randint(0, len(events))
        prefix, extension = events[:cut], events[cut:]
        state = possession_closure(arch, prefix)[-1]
        for agent in arch.agents:
            for ty in state.types_of(agent):
                assert weakening_holds(
                    arch, prefix, extension, agent, state.witness(agent, ty), ty
                )


# ---------------------------------------------------------------------------
# generation decomposition


def test_decompose_self_computed(coppa):
    d = generation_decompose(coppa, [], CHILD, Con("info"))
    assert d.computer == CHILD and d.head == "info"
    assert d.args == () and d.delivery_chain == ()


def test_decompose_delivered(coppa):
    events = [ev(CHILD, Con("info"), INFO, WEBSITE)]
    d = generation_decompose(coppa, events, WEBSITE, Con("info"))
    assert d.computer == CHILD and d.delivery_chain == (0,)


def test_decompose_underivable_raises(coppa):
    with pytest.raises(NotDerivable):
        generation_decompose(coppa, [], WEBSITE, Con("info"))


def test_decompose_random():
    rng = random.Random(0xC109)
    for _ in range(40):
        arch, events = bounded_instance(rng)
        states = possession_closure(arch, events)
        state = states[-1]
        for agent in arch.agents:
            for ty in state.types_of(agent):
                term = state.witness(agent, ty)
                d = generation_decompose(arch, events, agent, term)
                assert apply(d.head, d.args) == term
                assert d.head in arch.holdings_of(d.computer)
                assert list(d.delivery_chain) == sorted(d.delivery_chain)
                for k in d.delivery_chain:
                    assert events[k].term == term
                if d.delivery_chain:
                    assert events[d.delivery_chain[0]].sender == d.computer
                    assert events[d.delivery_chain[-1]].receiver == agent
                else:
                    assert d.computer == agent


# ---------------------------------------------------------------------------
# arrow sanity


def test_messages_never_grant_arrow_types():
    rng = random.Random(0xC10A)
    for _ in range(25):
        arch, events = bounded_instance(rng)
        assert arrow_possession_is_initial(arch, events)


# ---------------------------------------------------------------------------
# delivery index against the backward-scan reference


def _verdict(check):
    return (check.valid, check.index, check.reason)


def _decomposition(arch, events, agent, term, decompose):
    try:
        return decompose(arch, events, agent, term)
    except NotDerivable as exc:
        return ("not derivable", str(exc))


def _probe_terms(arch, events):
    """Terms worth asking about: every closure witness, every delivered
    term, a smallest term of each type, and each bare constructor."""
    terms = {e.term for e in events}
    for state in possession_closure(arch, events):
        terms.update(state.witnesses.values())
    for ty in arch.type_system.atomic_types:
        term = global_term_of_type(arch, ty)
        if term is not None:
            terms.add(term)
    terms.update(Con(d.name) for d in arch.type_system.constructors)
    return sorted(terms, key=str)


def test_delivery_index_matches_reference_random():
    rng = random.Random(0xC10B)
    corrupted = 0
    for case in range(80):
        arch = mk_architecture(rng)
        events = mk_valid_trace(rng, arch, max_len=4 if case % 2 else 12)
        assert _verdict(check_trace_valid(arch, events)) == _verdict(
            reference_check_trace_valid(arch, events)
        )
        bad = corrupt_event(rng, arch, events)
        if bad is not None:
            _, bad_events, _ = bad
            assert _verdict(check_trace_valid(arch, bad_events)) == _verdict(
                reference_check_trace_valid(arch, bad_events)
            )
            corrupted += 1
        cut = rng.randint(0, len(events))
        for prefix in (events[:cut], events):
            for term in _probe_terms(arch, prefix):
                ty = infer_type(arch.type_system, term)
                for agent in sorted(arch.agents, key=lambda a: a.name):
                    assert derives(arch, prefix, agent, term, ty) == reference_derives(
                        arch, prefix, agent, term, ty
                    ), (case, agent, term)
                    assert _decomposition(
                        arch, prefix, agent, term, generation_decompose
                    ) == _decomposition(arch, prefix, agent, term, reference_decompose)
    assert corrupted >= 30


def _structural_error(check, arch, events):
    """The verdict, or the event index a structural error names."""
    try:
        return _verdict(check(arch, events))
    except EventTypeError as exc:
        return ("structural", str(exc).split(":")[0])


def test_parsed_traces_match_reference_random():
    # Traces that went through print_trace and parse_trace share one object
    # per distinct payload and subterm, so the checker's per-term tables are
    # hit by identity; the verdicts must not change.
    rng = random.Random(0x7AB1E)
    corrupted = mistyped = 0
    for case in range(120):
        arch = mk_architecture(rng)
        events = mk_valid_trace(rng, arch, max_len=4 if case % 3 == 0 else 14)
        variants = [events]
        bad = corrupt_event(rng, arch, events)
        if bad is not None:
            variants.append(bad[1])
            corrupted += 1
        if events:
            j = rng.randrange(len(events))
            e = events[j]
            wrong = [t for t in arch.type_system.atomic_types if t != e.msg_type]
            if wrong:
                retyped = Event(e.sender, e.term, rng.choice(sorted(wrong, key=str)), e.receiver)
                variants.append(events[:j] + [retyped] + events[j + 1 :])
                mistyped += 1
        for variant in variants:
            parsed = parse_trace(print_trace(variant), arch)
            assert list(parsed) == variant
            assert _structural_error(check_trace_valid, arch, parsed) == _structural_error(
                reference_check_trace_valid, arch, parsed
            ), (case, print_trace(variant))
    assert corrupted >= 40 and mistyped >= 40


def test_decompose_reads_an_argument_at_its_first_delivery():
    a, t = Base("A"), Base("T")
    s, b, c = AgentId("S"), AgentId("B"), AgentId("C")
    arch = Architecture.build(
        TypeSystem.build([a, t], [ConstructorDecl("a", a), ConstructorDecl("f", Arrow(a, t))]),
        [s, b, c],
        {s: {"a"}, b: {"f"}, c: set()},
        {(s, b): {a}, (b, c): {t}},
    )
    fa = apply("f", [Con("a")])
    # B computes f(a) from the first copy of a; a second copy arrives later.
    events = [ev(s, Con("a"), a, b), ev(b, fa, t, c), ev(s, Con("a"), a, b)]
    d = generation_decompose(arch, events, c, fa)
    assert (d.computer, d.head, d.args, d.delivery_chain) == (b, "f", (Con("a"),), (1,))
    assert d == reference_decompose(arch, events, c, fa)


def test_derivability_refuses_an_invalid_trace(coppa):
    bad = [ev(WEBSITE, Con("info"), INFO, CHILD)]
    with pytest.raises(InvalidTraceError):
        derives(coppa, bad, WEBSITE, Con("info"), INFO)
    with pytest.raises(InvalidTraceError):
        generation_decompose(coppa, bad, WEBSITE, Con("info"))


# ---------------------------------------------------------------------------
# long traces


def test_long_relay_trace():
    a = Base("A")
    s, b, c = AgentId("S"), AgentId("B"), AgentId("C")
    arch = Architecture.build(
        TypeSystem.build([a], [ConstructorDecl("a", a)]),
        [s, b, c],
        {s: {"a"}, b: set(), c: set()},
        {(s, b): {a}, (b, c): {a}, (c, b): {a}},
    )
    hops = 20_000
    events = [ev(s, Con("a"), a, b)]
    for i in range(hops):
        sender, receiver = (b, c) if i % 2 == 0 else (c, b)
        events.append(ev(sender, Con("a"), a, receiver))
    assert check_trace_valid(arch, events).valid
    assert derives(arch, events, c, Con("a"), a)
    d = generation_decompose(arch, events, c, Con("a"))
    # Event 0 is S -> B and the hops alternate B -> C, C -> B, so with an
    # even hop count C last received the term at event hops - 1, and every
    # event before it is on the chain.
    assert d.computer == s
    assert d.delivery_chain == tuple(range(hops))


# ---------------------------------------------------------------------------
# rule firing


def _rule_tables() -> list[TypeRules]:
    """The fixtures, and seeded generator instances with their v2
    syntheses. The dense instances give one agent several rows that take the
    same type, so the order of firings within a sweep shows."""
    archs = [
        parse_spec(read_fixture(name)).architecture
        for name in (
            "coppa.parch", "coppa_safe.parch", "coppa_safe_relaxed.parch",
            "coppa_v1.parch", "coppa_v1_safe.parch",
        )
    ]
    rng = random.Random(15)
    for size in [()] * 120 + [(2, 4, 12)] * 120:
        arch = mk_architecture(rng, *size)
        archs.append(arch)
        negatives = mk_negpossess_set(rng, arch)
        if negatives is not None:
            archs.append(build_safe_architecture_v2(arch, negatives).arch)
    return [TypeRules(arch) for arch in archs]


def test_fired_matches_the_reference_sweep():
    """`fired` fires the rows in the sweep's order: from mask 0, and from a
    closed mask plus each type it lacks, both given that type and scanning
    every row. The closed masks follow one seeded chain of gains per agent."""
    rng = random.Random(15)
    for k, rules in enumerate(_rule_tables()):
        for agent in range(len(rules.agents)):
            where = (k, rules.agents[agent].name)
            assert rules.fired(agent, 0) == reference_fired(rules, agent, 0), where
            mask = rules.closure(agent, 0)
            while addable := [t for t in range(rules.width) if not (mask >> t) & 1]:
                for t in addable:
                    expected = reference_fired(rules, agent, mask | 1 << t)
                    assert rules.fired(agent, mask | 1 << t, t) == expected, (*where, mask, t)
                    assert rules.fired(agent, mask | 1 << t) == expected, (*where, mask, t)
                t = rng.choice(addable)
                mask = rules.closure(agent, mask | 1 << t, t)


def test_a_walk_learns_the_same_from_object_fresh_copies():
    # The walk visits each event object once, at its first index. A copy of
    # the trace whose events are all fresh objects is walked event by event
    # and must give the same verdict and tables.
    rng = random.Random(0x3A1C)
    invalid = repeats = 0
    for _ in range(150):
        arch = mk_architecture(rng)
        events = mk_valid_trace(rng, arch, 8)
        events += [rng.choice(events) for _ in events]
        corrupted = corrupt_event(rng, arch, events) if rng.random() < 0.4 else None
        if corrupted is not None:
            events = corrupted[1]
        fresh = [copy.copy(e) for e in events]
        assert not any(a is b for a, b in zip(events, fresh))
        walk, fresh_walk = walk_trace(arch, events), walk_trace(arch, fresh)
        assert walk.verdict == fresh_walk.verdict
        assert walk.log == fresh_walk.log
        for agent in walk.rules.agents:
            assert walk.first(agent) == fresh_walk.first(agent)
        assert walk.delivered == fresh_walk.delivered
        invalid += not walk.verdict.valid
        repeats += len({id(e) for e in events}) < len(events)
    assert invalid >= 15 and repeats >= 40


def test_valid_traces_follow_from_the_seed_alone():
    # A property test that prints its seed must reproduce under any
    # PYTHONHASHSEED, so the traces `mk_valid_trace` draws may not depend on
    # set iteration order.
    probe = (
        "import random\n"
        "from generators import mk_architecture, mk_valid_trace\n"
        "from privarch import print_trace\n"
        "for seed in range(40):\n"
        "    rng = random.Random(seed)\n"
        "    arch = mk_architecture(rng)\n"
        "    print(print_trace(tuple(mk_valid_trace(rng, arch, 8))))\n"
    )
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outputs = {
        subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outputs) == 1
