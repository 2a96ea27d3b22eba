"""Acceptance gate: six workbench-level criteria, one test (and one
pass/fail line) per criterion.

Pinned tolerances, stated next to their assertions:
  1. unsafe fixture: length-1 counterexample at depth 3, under 1 second
  2. safe fixture: premises pass pre-grant; the depth-12 search reproduces
     the pinned 12-event witness under 60 seconds (budget 200000 states)
  3. metatheorems on 1000 random bounded instances, zero failures
  4. 100+100 random constraint sets across both synthesis algorithms:
     premises pass, depth-8 exploration clean (budget 5000 states per
     instance), and every injected premise violation is detected
  5. exact corruption localization on the same 1000 instances
  6. parse/print equality on the fixtures and 100 random documents, with
     graph export counts 3/3 and 9/558
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

import pytest

from privarch import (
    AgentId,
    Architecture,
    Base,
    ConstructorDecl,
    ORIGINAL,
    Positive,
    TypeSystem,
    build_safe_architecture_v1,
    build_safe_architecture_v2,
    canonical_partition,
    check_trace_valid,
    dot_counts,
    explore,
    export_dot,
    generation_decompose,
    parse_spec,
    possession_closure,
    print_spec,
    term_to_str,
    type_name,
    unwrapper_form,
    verify_partition_v1,
    verify_partition_v2,
)
from privarch.cli import main

from conftest import FIXTURES, read_fixture
from generators import (
    bounded_instance,
    corrupt_event,
    mk_architecture,
    mk_document,
    mk_negcreate_set,
    mk_negpossess_set,
)
from oracles import oracle_possession, weakening_holds

SUITE_SEED = 0xACCE
SUITE_SIZE = 1000


@pytest.fixture(scope="module")
def random_suite():
    rng = random.Random(SUITE_SEED)
    return [bounded_instance(rng) for _ in range(SUITE_SIZE)]


def test_criterion_1_unsafe_counterexample(capsys):
    start = time.perf_counter()
    code = main(["explore", str(FIXTURES / "coppa.parch"), "--depth", "3", "--json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    hits = [
        c for c in payload["counterexamples"]
        if c["constraint"] == "Website ni INFO => Website ni CONSENT"
    ]
    assert len(hits) == 1
    assert hits[0]["trace"] == [
        {"sender": "Child", "receiver": "Website", "type": "INFO", "term": "info"}
    ]
    assert elapsed < 1.0  # tolerance: one second end to end
    print(f"criterion 1: PASS (length-1 counterexample in {elapsed:.3f}s)")


def test_criterion_2_safe_reproduction(capsys, coppa_safe_doc, witness_events):
    # the premises are checked on the pure synthesized architecture; the
    # granted channels are exactly the relaxation the premises forbid
    arch = coppa_safe_doc.architecture
    report = verify_partition_v2(arch, canonical_partition(arch.agents))
    assert report.passed

    start = time.perf_counter()
    code = main([
        "explore",
        str(FIXTURES / "coppa_safe_relaxed.parch"),
        "--depth", "12",
        "--budget", "200000",
        "--json",
    ])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert elapsed < 60.0  # tolerance: one minute for the depth-12 search
    assert payload["counterexamples"] == []
    assert payload["missing_witnesses"] == []
    assert payload["states_visited"] > 0
    [witness] = payload["witnesses"]
    assert witness["constraint"] == "pos(Website, INFO)"
    found = sorted(
        (e["sender"], e["receiver"], e["term"], e["type"]) for e in witness["trace"]
    )
    pinned = sorted(
        (e.sender.name, e.receiver.name, term_to_str(e.term), type_name(e.msg_type))
        for e in witness_events
    )
    assert len(found) == 12
    assert found == pinned
    print(
        f"criterion 2: PASS (premises pass pre-grant; 12-event witness "
        f"reproduced, {payload['states_visited']} states in {elapsed:.1f}s)"
    )


def test_criterion_3_metatheorem_properties(random_suite):
    rng = random.Random(0xACC3)
    weakening_checked = decompositions = 0
    for arch, events in random_suite:
        states = possession_closure(arch, events)

        # closure agrees with the independent enumeration oracle
        oracle = oracle_possession(arch, events)
        for i, state in enumerate(states):
            for agent in arch.agents:
                assert state.types_of(agent) == oracle[i][agent], (
                    f"closure disagrees with oracle at prefix {i} for {agent.name}"
                )

        # weakening: extending the trace never removes a judgement
        k = rng.randint(0, len(events))
        for (agent, ty), term in states[k].witnesses.items():
            assert weakening_holds(arch, events[:k], events[k:], agent, term, ty)
            weakening_checked += 1

        # every derivable judgement decomposes into compute-then-deliver
        for (agent, ty), term in states[-1].witnesses.items():
            dec = generation_decompose(arch, events, agent, term)
            if dec.delivery_chain:
                assert events[dec.delivery_chain[0]].sender == dec.computer
                assert events[dec.delivery_chain[-1]].receiver == agent
                assert all(events[i].term == term for i in dec.delivery_chain)
            else:
                assert dec.computer == agent
            decompositions += 1

    assert weakening_checked >= 1500 and decompositions >= 1500
    print(
        f"criterion 3: PASS ({SUITE_SIZE} cases: oracle agreement, "
        f"{weakening_checked} weakening judgements, {decompositions} decompositions)"
    )


def _rebuilt(arch, holdings=None, channels=None, ts=None):
    return Architecture.build(
        ts if ts is not None else arch.type_system,
        arch.agents,
        holdings if holdings is not None else {a: arch.holdings_of(a) for a in arch.agents},
        channels if channels is not None else arch.channels,
    )


def inject_premise_violation(rng, safe, algorithm, constraints, kind):
    arch = safe.arch
    originals = [a for a in sorted(arch.agents, key=lambda a: a.sort_key) if a.kind == ORIGINAL]
    bases = sorted(
        (t for t in arch.type_system.atomic_types if isinstance(t, Base)),
        key=lambda t: t.name,
    )
    if kind == "channel":
        s, r = rng.sample(originals, 2)
        channels = dict(arch.channels)
        channels[(s, r)] = frozenset({rng.choice(bases)})
        return _rebuilt(arch, channels=channels)
    if kind == "unwrap":
        unwrappers = sorted(
            (decl.name, form)
            for decl in arch.type_system.constructors
            if (form := unwrapper_form(decl)) is not None
        )
        name, (owner, _) = rng.choice(unwrappers)
        thief = rng.choice([a for a in originals if a.name != owner])
        holdings = {a: set(arch.holdings_of(a)) for a in arch.agents}
        holdings[thief].add(name)
        return _rebuilt(arch, holdings=holdings)
    # extra constructor targeting a protected type
    if algorithm == 1:
        c = rng.choice(constraints)
        target, holder = c.trigger, c.subject
    else:
        holder = AgentId.output_of(rng.choice(originals))
        target = rng.choice(bases)
    ts = TypeSystem.build(
        arch.type_system.atomic_types,
        (*arch.type_system.constructors, ConstructorDecl("zz_mutant", target)),
    )
    holdings = {a: set(arch.holdings_of(a)) for a in arch.agents}
    holdings[holder].add("zz_mutant")
    return _rebuilt(arch, holdings=holdings, ts=ts)


def test_criterion_4_theorem_cross_validation():
    rng = random.Random(0xACC4)
    budget = 5000  # disclosed exploration bound per synthesized instance
    kinds = ("channel", "unwrap", "constructor")
    counts = {1: 0, 2: 0}
    injected = Counter()
    while counts[1] < 100 or counts[2] < 100:
        arch = mk_architecture(rng)
        algorithm = 1 if counts[1] < 100 else 2
        make_set = mk_negcreate_set if algorithm == 1 else mk_negpossess_set
        constraints = make_set(rng, arch)
        if constraints is None:
            continue
        build = build_safe_architecture_v1 if algorithm == 1 else build_safe_architecture_v2
        verify = verify_partition_v1 if algorithm == 1 else verify_partition_v2
        safe = build(arch, constraints)
        assert safe.warnings == ()
        assert verify(safe.arch, safe.canonical_partition, constraints).passed, (
            f"premises fail on clean synthesis output (algorithm {algorithm})"
        )
        outcome = explore(safe.arch, tuple(constraints), depth=8, budget=budget)
        assert outcome.counterexamples == (), (
            f"bounded search broke a synthesized architecture (algorithm {algorithm})"
        )
        kind = kinds[(counts[1] + counts[2]) % 3]
        mutated = inject_premise_violation(rng, safe, algorithm, constraints, kind)
        assert not verify(mutated, safe.canonical_partition, constraints).passed, (
            f"missed {kind} violation (algorithm {algorithm})"
        )
        injected[kind] += 1
        counts[algorithm] += 1
    assert sum(injected.values()) == 200 and min(injected.values()) >= 60
    print(
        f"criterion 4: PASS (100+100 synthesized architectures pass premises and "
        f"explore clean at depth 8, budget {budget}; "
        f"{sum(injected.values())} injected violations all detected)"
    )


def test_criterion_5_trace_checker_exactness(random_suite):
    rng = random.Random(0xACC5)
    corrupted = 0
    for arch, events in random_suite:
        assert check_trace_valid(arch, events).valid
        hit = corrupt_event(rng, arch, events)
        if hit is None:
            continue
        index, bad, _ = hit
        verdict = check_trace_valid(arch, bad)
        assert not verdict.valid
        assert verdict.index == index, (
            f"corruption at {index} reported at {verdict.index}"
        )
        corrupted += 1
    assert corrupted >= 350  # floor keeps the localization claim non-vacuous
    print(
        f"criterion 5: PASS ({SUITE_SIZE} valid traces accepted; "
        f"{corrupted} corrupted traces localized exactly)"
    )


def test_criterion_6_frontend_round_trip(coppa_doc):
    fixture_names = [
        "coppa.parch",
        "coppa_v1.parch",
        "coppa_safe.parch",
        "coppa_safe_relaxed.parch",
    ]
    for name in fixture_names:
        doc = parse_spec(read_fixture(name))
        assert parse_spec(print_spec(doc)) == doc, f"round-trip broke {name}"
    rng = random.Random(0xACC6)
    for _ in range(100):
        doc = mk_document(rng)
        assert parse_spec(print_spec(doc)) == doc
    assert dot_counts(export_dot(coppa_doc.architecture)) == (3, 3)
    safe_doc = parse_spec(read_fixture("coppa_safe.parch"))
    assert dot_counts(export_dot(safe_doc.architecture)) == (9, 558)
    print(
        "criterion 6: PASS (4 fixtures and 100 random documents round-trip; "
        "graph counts 3/3 and 9/558)"
    )
