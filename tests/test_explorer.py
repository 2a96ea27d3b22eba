"""Bounded search: counterexamples by BFS, witnesses by demand construction.

The state abstraction is type-level; its exactness against the term-level
closure is part of the random suite here. Counterexamples and witnesses are
re-validated concretely in these tests even though the explorer already
validates them internally.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from privarch import (
    AgentId,
    Architecture,
    Base,
    Con,
    ConstructorDecl,
    Event,
    ExplorerError,
    Grant,
    InvalidArchitecture,
    LocalSend,
    NegCreate,
    NegPossess,
    Positive,
    ReconstructionFailure,
    TypeSystem,
    build_safe_architecture_v2,
    check_local,
    check_trace_compliance,
    check_trace_valid,
    default_budget,
    explore,
    parse_spec,
    possession_closure,
    relax_with_local_constraints,
)
from privarch import explorer
from privarch.explorer import DEFAULT_BUDGET

from conftest import read_fixture
from generators import (
    bounded_instance,
    mk_architecture,
    mk_negcreate_set,
    mk_negpossess_set,
    uncomputable_pairs,
)

GOLDEN = Path(__file__).with_name("explore_golden.json")

CHILD = AgentId("Child")
PARENT = AgentId("Parent")
WEBSITE = AgentId("Website")
INFO = Base("INFO")
CONSENT = Base("CONSENT")
A = Base("A")
B = Base("B")

NEG_INFO = NegPossess(WEBSITE, INFO, WEBSITE, CONSENT)
NEG_CONSENT = NegPossess(WEBSITE, CONSENT, PARENT, Base("POLICY"))


def test_an_invalid_reconstruction_names_its_first_bad_event(coppa_doc, monkeypatch):
    # The explorer validates a rebuilt trace once, through the possession
    # walk; a trace that walk rejects is an abstraction bug, reported with
    # the index and reason of its first bad event.
    arch = coppa_doc.architecture
    bad = (Event(CHILD, Con("info"), INFO, WEBSITE), Event(WEBSITE, Con("info"), INFO, CHILD))
    monkeypatch.setattr(explorer, "reconstruct_trace", lambda arch, abstract: bad)
    with pytest.raises(ReconstructionFailure) as failure:
        explore(arch, coppa_doc.constraints, depth=3)
    assert str(failure.value) == "reconstructed trace invalid at index 1: channel"


def gate_arch(forward_channel: bool) -> Architecture:
    ts = TypeSystem.build([A, B], [ConstructorDecl("a", A)])
    p, q, r = AgentId("P"), AgentId("Q"), AgentId("R")
    channels = {(p, q): {A}, (q, r): {A}}
    if forward_channel:
        channels[(q, p)] = {A}
    return Architecture.build(ts, [p, q, r], {p: {"a"}}, channels)


def test_unsafe_example_counterexample_is_one_event(coppa_doc):
    arch = coppa_doc.architecture
    outcome = explore(arch, coppa_doc.constraints, depth=3)
    found = {c: trace for c, trace in outcome.counterexamples}
    assert NEG_INFO in found
    trace = found[NEG_INFO]
    assert len(trace) == 1
    e = trace[0]
    assert (e.sender, e.msg_type, e.receiver) == (CHILD, INFO, WEBSITE)


def test_counterexamples_validate_concretely(coppa_doc):
    arch = coppa_doc.architecture
    outcome = explore(arch, coppa_doc.constraints, depth=3)
    for constraint, trace in outcome.counterexamples:
        assert check_trace_valid(arch, trace).valid
        rep = check_trace_compliance(arch, trace, [constraint])
        assert not rep.compliant


def test_explore_is_deterministic(coppa_doc):
    arch = coppa_doc.architecture
    first = explore(arch, coppa_doc.constraints, depth=3)
    second = explore(arch, coppa_doc.constraints, depth=3)
    assert first == second


def test_witness_found_and_valid(coppa_doc):
    arch = coppa_doc.architecture
    outcome = explore(arch, coppa_doc.constraints, depth=3)
    goals = {g for g, _ in outcome.witnesses}
    assert Positive(WEBSITE, INFO) in goals
    for goal, trace in outcome.witnesses:
        assert check_trace_valid(arch, trace).valid
        final = possession_closure(arch, trace)[-1]
        assert goal.goal in final.types_of(goal.subject)


def test_exhaustion_proves_absence():
    # Child can never possess CONSENT: no channel delivers it
    ts = TypeSystem.build(
        [INFO, CONSENT],
        [ConstructorDecl("info", INFO), ConstructorDecl("consent", CONSENT)],
    )
    arch = Architecture.build(
        ts,
        [CHILD, PARENT],
        {CHILD: {"info"}, PARENT: {"consent"}},
        {(CHILD, PARENT): {INFO}},
    )
    outcome = explore(arch, [NegPossess(CHILD, CONSENT, PARENT, INFO)], depth=6)
    assert outcome.counterexamples == ()
    assert outcome.exhausted


def test_budget_is_respected(coppa_relaxed_doc):
    doc = coppa_relaxed_doc
    negatives = [c for c in doc.constraints if isinstance(c, NegPossess)]
    gates = [c for c in doc.constraints if isinstance(c, LocalSend)]
    outcome = explore(
        doc.architecture, negatives, depth=12, budget=500, local_constraints=gates
    )
    assert outcome.states_visited <= 500
    assert not outcome.exhausted


def test_missing_witness_reported():
    ts = TypeSystem.build(
        [INFO, CONSENT],
        [ConstructorDecl("info", INFO), ConstructorDecl("consent", CONSENT)],
    )
    arch = Architecture.build(
        ts,
        [CHILD, PARENT],
        {CHILD: {"info"}, PARENT: {"consent"}},
        {(CHILD, PARENT): {INFO}},
    )
    goal = Positive(CHILD, CONSENT)
    outcome = explore(arch, [goal], depth=6)
    assert outcome.missing_witnesses == (goal,)
    assert outcome.witnesses == ()


def test_gate_blocks_undischargeable_route():
    p, q, r = AgentId("P"), AgentId("Q"), AgentId("R")
    arch = gate_arch(forward_channel=False)
    constraint = NegPossess(r, A, p, B)
    gate = LocalSend(q, A, r, p)
    without = explore(arch, [constraint], depth=6)
    assert any(c == constraint for c, _ in without.counterexamples)
    with_gate = explore(arch, [constraint], depth=6, local_constraints=[gate])
    assert with_gate.counterexamples == ()
    assert with_gate.exhausted


def test_gate_discharge_found_when_forwarding_possible():
    p, q, r = AgentId("P"), AgentId("Q"), AgentId("R")
    arch = gate_arch(forward_channel=True)
    constraint = NegPossess(r, A, p, B)
    gate = LocalSend(q, A, r, p)
    outcome = explore(arch, [constraint], depth=6, local_constraints=[gate])
    found = {c: t for c, t in outcome.counterexamples}
    assert constraint in found
    trace = found[constraint]
    assert len(trace) == 3
    assert check_trace_valid(arch, trace).valid
    assert check_local(trace, gate).compliant


def test_degenerate_gate_rejected():
    q, r = AgentId("Q"), AgentId("R")
    arch = gate_arch(forward_channel=False)
    with pytest.raises(ExplorerError):
        explore(arch, [], depth=2, local_constraints=[LocalSend(q, A, r, r)])


@pytest.mark.parametrize(
    "constraints, gates",
    [
        ([], [LocalSend(AgentId("Ghost"), A, AgentId("R"), AgentId("P"))]),
        ([], [LocalSend(AgentId("Q"), Base("Z"), AgentId("R"), AgentId("P"))]),
        ([Positive(AgentId("R"), Base("Z"))], []),
    ],
    ids=["agent", "gate-type", "goal-type"],
)
def test_gate_over_undeclared_agent_rejected(constraints, gates):
    arch = gate_arch(forward_channel=False)
    with pytest.raises(ExplorerError):
        explore(arch, constraints, depth=2, local_constraints=gates)


def test_invalid_architecture_rejected():
    ts = TypeSystem.build([INFO], [ConstructorDecl("info", INFO)])
    broken = Architecture.build(
        ts, [CHILD], {CHILD: {"info", "ghost"}}, {}
    )
    with pytest.raises(InvalidArchitecture):
        explore(broken, [], depth=1)


def test_default_budget_env(monkeypatch):
    monkeypatch.delenv("PRIVARCH_BUDGET", raising=False)
    assert default_budget() == DEFAULT_BUDGET
    monkeypatch.setenv("PRIVARCH_BUDGET", "1234")
    assert default_budget() == 1234
    monkeypatch.setenv("PRIVARCH_BUDGET", "zero")
    with pytest.raises(ExplorerError):
        default_budget()
    monkeypatch.setenv("PRIVARCH_BUDGET", "0")
    with pytest.raises(ExplorerError):
        default_budget()


def test_abstraction_matches_closure_on_random_instances():
    # every reachable abstract state's type sets equal the concrete closure
    # of its reconstructed trace; spot-checked via counterexample traces and
    # witness traces over random architectures
    rng = random.Random(0xE1)
    checked = 0
    for _ in range(30):
        arch, _ = bounded_instance(rng)
        constraints = mk_negpossess_set(rng, arch)
        if constraints is None:
            continue
        outcome = explore(arch, constraints, depth=4, budget=5000)
        for constraint, trace in outcome.counterexamples:
            assert check_trace_valid(arch, trace).valid
            rep = check_trace_compliance(arch, trace, [constraint])
            assert not rep.compliant
            checked += 1
    assert checked > 0


def test_safe_relaxed_example_depth_twelve(coppa_relaxed_doc, witness_events):
    doc = coppa_relaxed_doc
    negatives = [c for c in doc.constraints if isinstance(c, NegPossess)]
    positives = [c for c in doc.constraints if isinstance(c, Positive)]
    gates = [c for c in doc.constraints if isinstance(c, LocalSend)]
    outcome = explore(
        doc.architecture,
        negatives + positives,
        depth=12,
        budget=60_000,
        local_constraints=gates,
    )
    assert outcome.counterexamples == ()
    assert outcome.missing_witnesses == ()
    (goal, trace), = outcome.witnesses
    assert goal == Positive(WEBSITE, INFO)
    assert sorted(map(str, trace)) == sorted(map(str, witness_events))


def test_witness_along_a_relay_chain_longer_than_the_recursion_limit():
    # The witness is one relay per link; following its proof must not take a
    # Python frame per link.
    links = sys.getrecursionlimit() + 100
    t = Base("T")
    ts = TypeSystem.build([t], [ConstructorDecl("t", t)])
    agents = [AgentId(f"A{i}") for i in range(links + 1)]
    channels = {(agents[i], agents[i + 1]): {t} for i in range(links)}
    arch = Architecture.build(ts, agents, {agents[0]: {"t"}}, channels)
    goal = Positive(agents[-1], t)
    outcome = explore(arch, [goal], depth=links)
    (found, trace), = outcome.witnesses
    assert found == goal
    assert len(trace) == links
    assert [(e.sender, e.receiver) for e in trace] == list(zip(agents, agents[1:]))


def test_uncomputable_pairs_follow_agent_order():
    # Generators feed this list to rng.choice, so its order must not follow
    # frozenset iteration, which changes from process to process.
    ts = TypeSystem.build([A], [])
    originals = [AgentId(n) for n in ("P2", "P0", "P1")]
    agents = originals + [AgentId.interface_of(originals[0]), AgentId.output_of(originals[1])]
    agents.append(AgentId("Q"))
    arch = Architecture.build(ts, agents, {}, {})
    assert [a for a, _ in uncomputable_pairs(arch)] == arch.sorted_agents()


def _outcome_lines(outcome) -> list[str]:
    lines = [f"states {outcome.states_visited} exhausted {outcome.exhausted}"]
    for c, trace in outcome.counterexamples:
        lines.append(f"counterexample {c}: " + "; ".join(map(str, trace)))
    for g, trace in outcome.witnesses:
        lines.append(f"witness {g}: " + "; ".join(map(str, trace)))
    lines.extend(f"missing {g}" for g in outcome.missing_witnesses)
    return lines


def golden_outcomes() -> dict[str, list[str]]:
    """`explore` on the fixtures and on seeded generator instances, each as
    generated, synthesized, and grant-relaxed with its gates, all with
    positive goals; `explore_golden.json` holds the recorded result."""
    out = {}
    for name, depth in (
        ("coppa.parch", 3), ("coppa_safe.parch", 3), ("coppa_safe_relaxed.parch", 12)
    ):
        doc = parse_spec(read_fixture(name))
        outcome = explore(doc.architecture, doc.constraints, depth=depth, budget=20_000)
        out[f"{name} depth {depth}"] = _outcome_lines(outcome)
    rng = random.Random(7)
    case = 0
    while case < 14:
        arch = mk_architecture(rng, n_agents=2)
        negatives = mk_negpossess_set(rng, arch)
        if negatives is None:
            continue
        creates = mk_negcreate_set(rng, arch)
        types = sorted(arch.type_system.atomic_types, key=lambda t: t.name)
        goals = [Positive(rng.choice(arch.sorted_agents()), rng.choice(types))]
        outcome = explore(arch, creates + negatives + goals, depth=4, budget=2000)
        out[f"{case} original"] = _outcome_lines(outcome)

        safe = build_safe_architecture_v2(arch, negatives)
        agents = safe.arch.sorted_agents()
        grants = [
            Grant(AgentId.interface_of(a), t, AgentId.output_of(a))
            for a in arch.sorted_agents()
            for t in types
            if rng.random() < 0.5
        ]
        # Constraints over interface agents, which the synthesis does not
        # protect, give counterexamples whose routes can cross the grants;
        # "O:X ni T => X ni T" holds only while the gate on I:X -> O:X holds.
        probes = goals + [
            Positive(rng.choice(agents), rng.choice(types)),
            NegCreate(rng.choice(agents), rng.choice(types), rng.choice(types)),
        ]
        subject, holder = rng.choice(agents), rng.choice(agents)
        trigger, required = rng.choice(types), rng.choice(types)
        if (subject, trigger) != (holder, required):
            probes.append(NegPossess(subject, trigger, holder, required))
        for g in grants[:1]:
            owner = arch.agent_named(g.input_agent.owner)
            probes.append(NegPossess(g.output_agent, g.msg_type, owner, g.msg_type))
        outcome = explore(safe.arch, negatives + probes, depth=5, budget=6000)
        out[f"{case} synthesized"] = _outcome_lines(outcome)

        relaxed, gates = relax_with_local_constraints(safe, grants)
        outcome = explore(
            relaxed.arch, negatives + probes, depth=5, budget=6000, local_constraints=gates
        )
        out[f"{case} relaxed"] = _outcome_lines(outcome)
        case += 1
    return out


def test_explore_outcomes_match_the_golden_record():
    assert golden_outcomes() == json.loads(GOLDEN.read_text())


WITNESS_GOLDEN = Path(__file__).with_name("witness_golden.json")


def _every_goal(arch: Architecture) -> list[Positive]:
    types = sorted(arch.type_system.atomic_types, key=str)
    return [Positive(a, t) for a in arch.sorted_agents() for t in types]


def witness_outcomes() -> dict[str, list[str]]:
    """`explore` with a positive goal for every agent and type and no depth
    cut, so every derivation tie-break the saturation makes is pinned: on
    the fixtures (the relaxed one with its gates) and on seeded generator
    instances, each as generated, v2-synthesized and grant-relaxed with its
    gates. `witness_golden.json` holds the recorded result."""
    out = {}
    for name in (
        "coppa.parch", "coppa_safe.parch", "coppa_safe_relaxed.parch",
        "coppa_v1.parch", "coppa_v1_safe.parch",
    ):
        doc = parse_spec(read_fixture(name))
        gates = [c for c in doc.constraints if isinstance(c, LocalSend)]
        arch = doc.architecture
        outcome = explore(arch, _every_goal(arch), depth=10_000, local_constraints=gates)
        out[name] = _outcome_lines(outcome)
    rng = random.Random(14)
    case = 0
    while case < 20:
        arch = mk_architecture(rng)
        negatives = mk_negpossess_set(rng, arch)
        if negatives is None:
            continue
        out[f"{case} original"] = _outcome_lines(explore(arch, _every_goal(arch), depth=10_000))
        safe = build_safe_architecture_v2(arch, negatives)
        outcome = explore(safe.arch, _every_goal(safe.arch), depth=10_000)
        out[f"{case} synthesized"] = _outcome_lines(outcome)
        grants = [
            Grant(AgentId.interface_of(a), t, AgentId.output_of(a))
            for a in arch.sorted_agents()
            for t in sorted(arch.type_system.atomic_types, key=str)
            if rng.random() < 0.5
        ]
        relaxed, gates = relax_with_local_constraints(safe, grants)
        outcome = explore(
            relaxed.arch, _every_goal(relaxed.arch), depth=10_000, local_constraints=gates
        )
        out[f"{case} relaxed"] = _outcome_lines(outcome)
        case += 1
    return out


def test_every_witness_matches_the_golden_record():
    assert witness_outcomes() == json.loads(WITNESS_GOLDEN.read_text())
