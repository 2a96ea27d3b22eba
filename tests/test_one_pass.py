"""One walk per trace: the compliance report and the possession states it
gives against per-prefix references.

`check_trace_compliance` decides each negative constraint at the prefix where
its subject first possesses the trigger. The reference scans every prefix
state of `possession_closure` with `check_neg_create`/`check_neg_possess`,
and validates with the backward-scan oracle. The closure's states are in turn
compared with a fold that stores every prefix in full.
"""

from __future__ import annotations

import random

import pytest

from privarch import (
    AgentId,
    Architecture,
    LocalSend,
    NegCreate,
    NegPossess,
    Positive,
    check_local,
    check_neg_create,
    check_neg_possess,
    check_positive,
    check_trace_compliance,
    possession_closure,
)
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


def reference_report(arch: Architecture, events, constraints) -> tuple:
    """Validity, negative and gate violations, and positives, each prefix
    state scanned in turn."""
    validity = reference_check_trace_valid(arch, events)
    if not validity.valid:
        return (_verdict(validity), (), (), {}, False)
    states = possession_closure(arch, events)
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
