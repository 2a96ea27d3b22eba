"""One walk per trace: the compliance report and the possession states it
gives against per-prefix references.

`check_trace_compliance` decides each negative constraint at the prefix where
its subject first possesses the trigger. The reference scans every prefix
state of `possession_closure` with `check_neg_create`/`check_neg_possess`,
and validates with the backward-scan oracle. The closure's states are in turn
compared with a fold that stores every prefix in full. The repeat
differential does the same on traces with repeated events, as one object and
as equal copies, which the walk may skip and the parser may share.
"""

from __future__ import annotations

import random

import pytest

from privarch import (
    AgentId,
    Architecture,
    Event,
    LocalSend,
    NegCreate,
    NegPossess,
    Positive,
    check_local,
    check_neg_create,
    check_neg_possess,
    check_positive,
    check_trace_compliance,
    check_trace_valid,
    parse_trace,
    possession_closure,
    print_trace,
)
from privarch.semantics import TypeRules, walk_trace
from generators import (
    corrupt_event,
    mk_document,
    mk_negcreate_set,
    mk_negpossess_set,
    mk_valid_trace,
)
from oracles import reference_check_trace_valid, reference_possession_closure

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _verdict(check):
    return (check.valid, check.index, check.reason)


def reference_report(
    arch: Architecture, events, constraints, closure=possession_closure
) -> tuple:
    """Validity, negative and gate violations, and positives, each prefix
    state of `closure` scanned in turn."""
    validity = reference_check_trace_valid(arch, events)
    if not validity.valid:
        return (_verdict(validity), (), (), {}, False)
    states = closure(arch, events)
    negatives, gates, positives = [], [], {}
    for c in constraints:
        if isinstance(c, NegCreate):
            negatives += check_neg_create(states, c).violations
        elif isinstance(c, NegPossess):
            negatives += check_neg_possess(states, c).violations
        elif isinstance(c, Positive):
            positives[c] = check_positive(states, c)
        else:
            gates += check_local(events, c).violations
    return (_verdict(validity), tuple(negatives), tuple(gates), positives, not negatives + gates)


def one_pass_report(arch: Architecture, events, constraints) -> tuple:
    rep = check_trace_compliance(arch, events, constraints)
    return (
        _verdict(rep.validity),
        rep.negatives.violations,
        rep.local_gates.violations,
        dict(rep.positives),
        rep.compliant,
    )


def random_case(seed: int) -> tuple[Architecture, list[list], list]:
    """A generator document with both negative forms and a gate added, and
    its valid trace plus, where one exists, a copy made invalid at one
    event."""
    rng = random.Random(seed)
    doc = mk_document(rng)
    arch = doc.architecture
    constraints = list(doc.constraints)
    constraints += mk_negcreate_set(rng, arch) or []
    constraints += mk_negpossess_set(rng, arch) or []
    if arch.channels:
        (s, r), carried = rng.choice(sorted(arch.channels.items(), key=str))
        prev = rng.choice(sorted(arch.agents - {s}, key=lambda a: a.sort_key))
        constraints.append(LocalSend(s, rng.choice(sorted(carried, key=str)), r, prev))
    rng.shuffle(constraints)
    events = mk_valid_trace(rng, arch, max_len=rng.choice((4, 8, 12)))
    traces = [events]
    bad = corrupt_event(rng, arch, events)
    if bad is not None:
        traces.append(bad[1])
    return arch, traces, constraints


def compare(seed: int) -> tuple[int, int]:
    """Assert the two reports agree on every trace of one case; returns the
    number of negative violations and of invalid traces seen."""
    arch, traces, constraints = random_case(seed)
    violations = invalid = 0
    for events in traces:
        expected = reference_report(arch, events, constraints)
        assert one_pass_report(arch, events, constraints) == expected, seed
        violations += len(expected[1])
        invalid += not expected[0][0]
    return violations, invalid


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
def test_one_pass_report_matches_the_per_prefix_reference(seed):
    compare(seed)


def test_the_differential_meets_violations_and_invalid_traces():
    violations = invalid = 0
    for seed in range(100):
        v, i = compare(seed)
        violations += v
        invalid += i
    assert violations >= 30 and invalid >= 30


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
def test_closure_states_match_a_fold_that_stores_every_prefix(seed):
    rng = random.Random(seed)
    arch = mk_document(rng).architecture
    events = mk_valid_trace(rng, arch, max_len=rng.choice((4, 12)))
    states = possession_closure(arch, events)
    reference = reference_possession_closure(arch, events)
    assert len(states) == len(reference) == len(events) + 1
    for state, ref in zip(states, reference):
        assert state.possessed == ref.possessed
        assert state.witnesses == ref.witnesses
        for agent in arch.agents:
            assert state.types_of(agent) == ref.types_of(agent)
            for ty in arch.type_system.atomic_types:
                if ty in ref.types_of(agent):
                    assert state.witness(agent, ty) == ref.witnesses[(agent, ty)]
                else:
                    with pytest.raises(KeyError):
                        state.witness(agent, ty)
    assert states == possession_closure(arch, events)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
def test_walk_tables_read_as_dicts_in_the_order_possession_is_gained(seed):
    # `first(agent)` folds on demand, yet reads as the table of a fold over
    # every prefix: each agent's types by prefix, then type index.
    rng = random.Random(seed)
    arch = mk_document(rng).architecture
    events = mk_valid_trace(rng, arch, max_len=rng.choice((4, 12)))
    rules = TypeRules(arch)
    first = {a: {} for a in rules.agents}
    for k, ref in enumerate(reference_possession_closure(arch, events)):
        for a in rules.agents:
            for t in sorted(ref.types_of(a), key=rules.type_idx.__getitem__):
                first[a].setdefault(t, k)
    walk = walk_trace(arch, events)
    assert [(a, list(walk.first(a).items())) for a in rules.agents] == [
        (a, list(m.items())) for a, m in first.items()
    ]


def test_an_agent_outside_the_architecture_possesses_nothing():
    # Constraints built through the API may name an agent the architecture
    # lacks; the walk and the per-prefix reference both give it nothing.
    arch, traces, _ = random_case(3)
    ghost = AgentId("Ghost")
    a, b = sorted(arch.type_system.atomic_types, key=str)[:2]
    constraints = [Positive(ghost, a), NegCreate(ghost, a, b), NegPossess(ghost, a, ghost, b)]
    for events in traces:
        assert one_pass_report(arch, events, constraints) == reference_report(
            arch, events, constraints
        )


# Repeated events: the walk skips an event object it has already walked, and
# `parse_trace` gives a repeated printed statement the same object.


def copy_of(e: Event) -> Event:
    return Event(e.sender, e.term, e.msg_type, e.receiver)


def with_repeats(rng: random.Random, events: list, count: int) -> list:
    """The events with `count` repeats of earlier ones inserted at later
    positions, each the same object or an equal copy."""
    out = list(events)
    for _ in range(count if out else 0):
        k = rng.randrange(len(out))
        e = out[k] if rng.random() < 0.5 else copy_of(out[k])
        out.insert(rng.randint(k + 1, len(out)), e)
    return out


def repeat_cases(seed: int) -> tuple[Architecture, list[list], list, int]:
    """`random_case` with repeats inserted in each trace. Where a corrupted
    trace exists, one more copy of it repeats an event from before its bad
    event right after it; the last item counts those copies."""
    rng = random.Random(seed)
    arch, traces, constraints = random_case(seed)
    cases = [with_repeats(rng, events, rng.randint(1, 6)) for events in traces]
    after_invalid = 0
    if len(traces) == 2:
        bad = traces[1]
        bad_at = reference_check_trace_valid(arch, bad).index
        if bad_at:
            before = bad[rng.randrange(bad_at)]
            again = before if rng.random() < 0.5 else copy_of(before)
            cases.append(bad[: bad_at + 1] + [again] + bad[bad_at + 1 :])
            after_invalid = 1
    return arch, cases, constraints, after_invalid


def assert_repeats_agree(seed: int) -> tuple[int, int, int]:
    """Compare every check of a repeat case, and of its printed form read
    back, with the references; returns the number of traces with a repeated
    event object, of invalid traces, and of repeats after an invalid event."""
    arch, cases, constraints, after_invalid = repeat_cases(seed)
    repeated = invalid = 0
    for events in cases:
        read_back = list(parse_trace(print_trace(tuple(events)), arch))
        assert read_back == events
        expected = reference_report(arch, events, constraints, reference_possession_closure)
        validity = reference_check_trace_valid(arch, events)
        for trace in (events, read_back):
            assert one_pass_report(arch, trace, constraints) == expected, seed
            assert _verdict(check_trace_valid(arch, trace)) == _verdict(validity), seed
            if not validity.valid:
                continue
            states = possession_closure(arch, trace)
            reference = reference_possession_closure(arch, trace)
            assert len(states) == len(reference) == len(trace) + 1
            for state, ref in zip(states, reference):
                assert state.possessed == ref.possessed, seed
                assert state.witnesses == ref.witnesses, seed
        repeated += len(set(map(id, read_back))) < len(read_back)
        invalid += not validity.valid
    return repeated, invalid, after_invalid


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
def test_repeated_events_match_the_references(seed):
    assert_repeats_agree(seed)


def test_the_repeat_differential_meets_repeats_and_invalid_traces():
    repeated = invalid = after_invalid = 0
    for seed in range(100):
        r, i, a = assert_repeats_agree(seed)
        repeated += r
        invalid += i
        after_invalid += a
    assert repeated >= 100 and invalid >= 30 and after_invalid >= 20
