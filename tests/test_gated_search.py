"""The search under local-send gates: every trace it reports keeps them.

A gate is tracked by type during the search and checked on the concrete
trace, where each (agent, type) has one witness term that is never
replaced, so a gate's forward send and its gated send carry the same term.
A reconstruction that broke a gate would raise `ReconstructionFailure`.
"""

from __future__ import annotations

import random

import pytest

from privarch import (
    AgentId,
    Grant,
    LocalSend,
    NegPossess,
    Positive,
    build_safe_architecture_v2,
    check_local,
    check_trace_compliance,
    explore,
    relax_with_local_constraints,
)

from generators import mk_architecture, mk_document, mk_negpossess_set

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def relaxed(rng):
    """A v2 synthesis of a generated spec, relaxed by one to three random
    grants, with its gates and with possession probes over interface agents:
    `O:X ni T => X ni T` for each grant, and a few drawn at random. The
    owner reaches its output interface directly, so these traces rarely if
    ever pass a gate; `gated` gives ones that do."""
    if rng.random() < 0.5:
        doc = mk_document(rng)
        base = doc.architecture
        negatives = [c for c in doc.constraints if isinstance(c, NegPossess)]
    else:
        base = mk_architecture(rng)
        negatives = mk_negpossess_set(rng, base) or []
    safe = build_safe_architecture_v2(base, negatives)
    originals = base.original_agents()
    bases = sorted(base.type_system.atomic_types, key=str)
    grants = [
        Grant(AgentId.interface_of(owner), rng.choice(bases), AgentId.output_of(owner))
        for owner in (rng.choice(originals) for _ in range(rng.randint(1, 3)))
    ]
    relaxed_safe, gates = relax_with_local_constraints(safe, grants)
    arch = relaxed_safe.arch
    probes = [
        NegPossess(g.gate_receiver, g.gate_type, g.must_prev_receiver, g.gate_type) for g in gates
    ]
    agents = arch.sorted_agents()
    interfaces = [a for a in agents if a.kind != "original"]
    for _ in range(rng.randint(0, 2)):
        subject, holder = rng.choice(interfaces), rng.choice(agents)
        trigger, required = rng.choice(bases), rng.choice(bases)
        if (subject, trigger) != (holder, required):
            probes.append(NegPossess(subject, trigger, holder, required))
    goals = [Positive(rng.choice(agents), rng.choice(bases))]
    return arch, [*negatives, *probes, *goals], gates


def gated(rng):
    """A generated three-agent architecture with one to three gates on its
    own channels, each naming a third agent as the required previous
    receiver, preferring gates whose forward send has a channel; each gated
    receiver is probed with a goal and a possession constraint on its type."""
    arch = mk_architecture(rng, n_agents=3)
    agents = arch.sorted_agents()
    types = sorted(arch.type_system.atomic_types, key=str)
    gates = [
        LocalSend(s, t, r, prev)
        for (s, r), carried in sorted(arch.channels.items(), key=lambda kv: str(kv[0]))
        for prev in agents
        if prev not in (s, r)
        for t in sorted(carried, key=str)
        if rng.random() < 0.5 or t in arch.channel_types(s, prev)
    ]
    gates = rng.sample(gates, min(len(gates), rng.randint(1, 3)))
    constraints = mk_negpossess_set(rng, arch) or []
    for g in gates:
        constraints.append(Positive(g.gate_receiver, g.gate_type))
        constraints.append(
            NegPossess(g.gate_receiver, g.gate_type, g.must_prev_receiver, rng.choice(types))
        )
    return arch, list(dict.fromkeys(constraints)), gates


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
def test_every_reported_trace_keeps_every_gate(seed):
    rng = random.Random(seed)
    for make, depth in ((relaxed, rng.randint(2, 6)), (gated, rng.randint(2, 12))):
        arch, constraints, gates = make(rng)
        outcome = explore(arch, constraints, depth=depth, budget=2000, local_constraints=gates)
        for constraint, trace in outcome.counterexamples:
            report = check_trace_compliance(arch, trace, [constraint])
            assert report.validity.valid and not report.negatives.compliant
        for goal, trace in outcome.witnesses:
            assert check_trace_compliance(arch, trace, [goal]).positives[goal]
        for _, trace in (*outcome.counterexamples, *outcome.witnesses):
            for gate in gates:
                assert check_local(trace, gate).compliant, (gate, trace)
