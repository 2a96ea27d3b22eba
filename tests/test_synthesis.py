"""Safe-extension builders: golden counts, structure, provenance, grants.

Counts for the worked example were re-derived by enumeration before being
pinned: v1 = 3 original constructors + 13 certifiers + 9 unwrappers over
12 atomic types; v2 = 30 constructors over 21 atomic types and 9 agents.
"""

from __future__ import annotations

from collections import Counter

import pytest

from privarch import (
    AgentId,
    Base,
    CapacityExceeded,
    Certified,
    ConstraintOutOfScope,
    Grant,
    LocalSend,
    NegCreate,
    NegPossess,
    NotAnInterfacePair,
    Proof,
    SynthesisConfig,
    SynthesisError,
    SynthesizedFrom,
    build_safe_architecture_v1,
    build_safe_architecture_v2,
    build_safe_type_system_v1,
    build_safe_type_system_v2,
    make_signature,
    relax_with_local_constraints,
    signature_parts,
    validate_architecture,
)

CHILD = AgentId("Child")
PARENT = AgentId("Parent")
WEBSITE = AgentId("Website")
INFO = Base("INFO")
CONSENT = Base("CONSENT")
POLICY = Base("POLICY")


def test_v1_golden_counts(safe_v1):
    arch = safe_v1.arch
    assert len(arch.agents) == 6
    assert len(arch.type_system.atomic_types) == 12
    assert len(arch.type_system.constructors) == 25
    roles = Counter(o.role for o in safe_v1.provenance.values())
    assert roles == {"wrapper-type": 9, "certifier": 13, "unwrapper": 9}


def test_v1_certifier_family_spans_witness_agents(safe_v1):
    ts = safe_v1.arch.type_system
    for beta in ("Child", "Parent", "Website"):
        decl = ts.constructor(f"m[Website,INFO][{beta}]")
        assert signature_parts(decl) == (
            (INFO, Certified(beta, "CONSENT")),
            Certified("Website", "INFO"),
        )


def test_v1_unwrapping_confined_to_owner_interface(safe_v1):
    arch = safe_v1.arch
    for a in arch.agents:
        for name in arch.holdings_of(a):
            if name.startswith("pi["):
                assert a.kind == "interface"
                assert name.startswith(f"pi[{a.owner},")


def test_v1_originals_keep_their_code(coppa_v1_doc, safe_v1):
    base = coppa_v1_doc.architecture
    for a in base.agents:
        assert safe_v1.arch.holdings_of(a) == base.holdings_of(a)


def test_v1_validates(safe_v1):
    assert validate_architecture(safe_v1.arch).violations == ()


def test_v2_golden_counts(safe_v2):
    arch = safe_v2.arch
    assert len(arch.agents) == 9
    assert len(arch.type_system.atomic_types) == 21
    assert len(arch.type_system.constructors) == 30
    roles = Counter(o.role for o in safe_v2.provenance.values())
    assert roles == {
        "wrapper-type": 18,
        "certifier": 9,
        "unwrapper": 9,
        "proof-maker": 9,
    }


def test_v2_constrained_certifier_demands_proof(safe_v2):
    ts = safe_v2.arch.type_system
    assert signature_parts(ts.constructor("m[Website,CONSENT]")) == (
        (CONSENT, Proof("Parent", "POLICY")),
        Certified("Website", "CONSENT"),
    )
    assert signature_parts(ts.constructor("m[Website,INFO]")) == (
        (INFO, Proof("Website", "CONSENT")),
        Certified("Website", "INFO"),
    )
    # unconstrained certifier takes only the payload
    assert signature_parts(ts.constructor("m[Child,INFO]")) == (
        (INFO,),
        Certified("Child", "INFO"),
    )


def test_v2_proof_chaining_for_shared_trigger():
    from privarch import Architecture, ConstructorDecl, TypeSystem

    ts = TypeSystem.build(
        [INFO, CONSENT, POLICY],
        [
            ConstructorDecl("info", INFO),
            ConstructorDecl("consent", CONSENT),
            ConstructorDecl("policy", POLICY),
        ],
    )
    arch = Architecture.build(
        ts,
        [CHILD, PARENT, WEBSITE],
        {CHILD: {"info"}, PARENT: {"consent"}, WEBSITE: {"policy"}},
        {(CHILD, WEBSITE): {INFO}},
    )
    constraints = [
        NegPossess(WEBSITE, INFO, WEBSITE, CONSENT),
        NegPossess(WEBSITE, INFO, PARENT, POLICY),
    ]
    safe_ts = build_safe_type_system_v2(ts, arch.agents, constraints)
    args, target = signature_parts(safe_ts.constructor("m[Website,INFO]"))
    assert target == Certified("Website", "INFO")
    assert args[0] == INFO
    assert set(args[1:]) == {Proof("Website", "CONSENT"), Proof("Parent", "POLICY")}


def test_type_system_builders_give_the_synthesized_type_systems(
    coppa_v1_doc, safe_v1, coppa_doc, safe_v2
):
    base = coppa_v1_doc.architecture
    ts = build_safe_type_system_v1(
        base.type_system, base.agents, coppa_v1_doc.constraints,
        coppa_v1_doc.options.m_family_cap,
    )
    assert ts == safe_v1.arch.type_system
    base = coppa_doc.architecture
    ts = build_safe_type_system_v2(base.type_system, base.agents, coppa_doc.constraints)
    assert ts == safe_v2.arch.type_system


def test_v2_io_structure(safe_v2, coppa_doc):
    arch = safe_v2.arch
    base = coppa_doc.architecture
    bases = {INFO, CONSENT, POLICY}
    for a in base.agents:
        i, o = AgentId.interface_of(a), AgentId.output_of(a)
        assert arch.channel_types(i, a) == frozenset(bases)
        assert arch.channel_types(a, o) == frozenset(bases)
        assert arch.channel_types(a, i) == frozenset()
        assert arch.channel_types(o, a) == frozenset()
        # inputs only unwrap, outputs certify and prove
        assert all(n.startswith("pi[") for n in arch.holdings_of(i))
        assert all(n.startswith(("m[", "p[")) for n in arch.holdings_of(o))


def test_v2_interface_mesh_carries_wrappers_only(safe_v2):
    arch = safe_v2.arch
    interfaces = [a for a in arch.agents if a.kind != "original"]
    for s in interfaces:
        for r in interfaces:
            if s == r:
                continue
            carried = arch.channel_types(s, r)
            assert carried, f"missing mesh channel {s.name} -> {r.name}"
            assert all(isinstance(t, (Certified, Proof)) for t in carried)


def test_v2_validates(safe_v2):
    assert validate_architecture(safe_v2.arch).violations == ()


def test_canonical_partitions(safe_v1, safe_v2):
    p1 = safe_v1.canonical_partition
    assert p1.cell_of(AgentId.interface_of(WEBSITE)) == WEBSITE
    assert p1.cell_of(WEBSITE) == WEBSITE
    p2 = safe_v2.canonical_partition
    assert p2.cell_of(AgentId.output_of(PARENT)) == PARENT
    assert p2.cell_of(AgentId.interface_of(PARENT)) == PARENT


def test_mixed_constraint_language_rejected(coppa_doc, coppa_v1_doc):
    with pytest.raises(ConstraintOutOfScope):
        build_safe_architecture_v1(
            coppa_v1_doc.architecture, coppa_doc.constraints
        )
    with pytest.raises(ConstraintOutOfScope):
        build_safe_architecture_v2(
            coppa_doc.architecture, coppa_v1_doc.constraints
        )


def test_unknown_subject_rejected(coppa_doc):
    stranger = AgentId("Stranger")
    with pytest.raises(ConstraintOutOfScope):
        build_safe_architecture_v2(
            coppa_doc.architecture, [NegPossess(stranger, INFO, WEBSITE, CONSENT)]
        )


def test_wrapper_input_types_rejected(coppa_doc, safe_v2):
    with pytest.raises(SynthesisError):
        build_safe_architecture_v2(safe_v2.arch, [])


WRAPPER_ERROR = (
    "input type system already contains wrapper type C[X](A); "
    "synthesis starts from base types only"
)


def wrapped_input():
    from privarch import Architecture, ConstructorDecl, TypeSystem

    a = Base("A")
    ts = TypeSystem.build([a, Certified("X", "A")], [ConstructorDecl("a", a)])
    return Architecture.build(ts, [AgentId("X")], {AgentId("X"): {"a"}}, {})


@pytest.mark.parametrize("build", [build_safe_architecture_v1, build_safe_architecture_v2])
def test_wrapper_type_in_originals_only_input_rejected(build):
    with pytest.raises(SynthesisError) as info:
        build(wrapped_input(), [])
    assert not isinstance(info.value, ConstraintOutOfScope)
    assert str(info.value) == WRAPPER_ERROR


def test_form_error_precedes_wrapper_error():
    # build_safe_architecture_* check the constraint forms first,
    # build_safe_type_system_* the input types
    arch = wrapped_input()
    x, a = AgentId("X"), Base("A")
    with pytest.raises(ConstraintOutOfScope, match="constraint form NegCreate"):
        build_safe_architecture_v2(arch, [NegCreate(x, a, a)])
    with pytest.raises(ConstraintOutOfScope, match="constraint form NegPossess"):
        build_safe_architecture_v1(arch, [NegPossess(x, a, AgentId("Y"), a)])
    with pytest.raises(SynthesisError) as info:
        build_safe_type_system_v2(arch.type_system, arch.agents, [NegCreate(x, a, a)])
    assert str(info.value) == WRAPPER_ERROR
    with pytest.raises(SynthesisError) as info:
        build_safe_type_system_v1(arch.type_system, arch.agents, [NegPossess(x, a, AgentId("Y"), a)])
    assert str(info.value) == WRAPPER_ERROR


def test_certifier_provenance(safe_v1, safe_v2):
    assert safe_v1.provenance["m[Website,INFO][Child]"] == SynthesizedFrom(
        "certifier", "Website", "INFO", (NegCreate(WEBSITE, INFO, CONSENT),)
    )
    assert safe_v2.provenance["m[Website,INFO]"] == SynthesizedFrom(
        "certifier", "Website", "INFO", (NegPossess(WEBSITE, INFO, WEBSITE, CONSENT),)
    )


def test_provenance_orders_each_group(coppa_v1_doc, coppa_doc):
    # given in reverse, each group comes back ordered by required type
    # (then holder), the order of the certifier's arguments
    creates = [NegCreate(WEBSITE, INFO, POLICY), NegCreate(WEBSITE, INFO, CONSENT)]
    safe = build_safe_architecture_v1(coppa_v1_doc.architecture, creates)
    assert safe.provenance["m[Website,INFO][Child,Parent]"].constraints == tuple(
        reversed(creates)
    )
    assert safe.provenance["pi[Website,INFO]"].constraints == tuple(reversed(creates))
    possesses = [
        NegPossess(WEBSITE, INFO, WEBSITE, POLICY),
        NegPossess(WEBSITE, INFO, WEBSITE, CONSENT),
        NegPossess(WEBSITE, INFO, PARENT, CONSENT),
    ]
    safe = build_safe_architecture_v2(coppa_doc.architecture, possesses)
    expected = (possesses[2], possesses[1], possesses[0])
    for name in ("m[Website,INFO]", "pi[Website,INFO]", "p[Website,INFO]"):
        assert safe.provenance[name].constraints == expected
    assert signature_parts(safe.arch.type_system.constructor("m[Website,INFO]"))[0] == (
        INFO, Proof("Parent", "CONSENT"), Proof("Website", "CONSENT"), Proof("Website", "POLICY")
    )


def test_capacity_cap(coppa_v1_doc):
    # three witnesses per certified argument, four creation constraints on
    # one trigger: 3^4 = 81 family members, over a cap of 80
    constraints = [
        NegCreate(WEBSITE, INFO, CONSENT),
        NegCreate(WEBSITE, INFO, POLICY),
        NegCreate(WEBSITE, INFO, INFO),
        NegCreate(WEBSITE, INFO, Base("EXTRA")),
    ]
    from privarch import Architecture, ConstructorDecl, TypeSystem

    base = coppa_v1_doc.architecture
    ts = TypeSystem.build(
        list(base.type_system.atomic_types) + [Base("EXTRA")],
        base.type_system.constructors,
    )
    arch = Architecture.build(
        ts, base.agents, {a: base.holdings_of(a) for a in base.agents}, base.channels
    )
    with pytest.raises(CapacityExceeded):
        build_safe_architecture_v1(
            arch, constraints, SynthesisConfig(algorithm=1, m_family_cap=80)
        )


def test_hypothesis_warning_when_subject_computes_trigger(coppa_doc):
    safe = build_safe_architecture_v2(
        coppa_doc.architecture, [NegPossess(CHILD, INFO, PARENT, POLICY)]
    )
    assert any("Child" in w and "INFO" in w for w in safe.warnings)


def test_no_warnings_for_theorem_shaped_input(safe_v2):
    assert safe_v2.warnings == ()


def test_synthesis_is_deterministic(coppa_doc):
    a = build_safe_architecture_v2(coppa_doc.architecture, coppa_doc.constraints)
    b = build_safe_architecture_v2(coppa_doc.architecture, coppa_doc.constraints)
    assert a.arch == b.arch
    assert a.canonical_partition.owner == b.canonical_partition.owner


# ---------------------------------------------------------------------------
# relaxation


def test_empty_grants_is_identity(safe_v2):
    relaxed, gates = relax_with_local_constraints(safe_v2, [])
    assert relaxed.arch == safe_v2.arch and gates == ()


def test_grant_opens_gated_channel(safe_v2):
    i_parent = AgentId.interface_of(PARENT)
    o_parent = AgentId.output_of(PARENT)
    relaxed, gates = relax_with_local_constraints(
        safe_v2, [Grant(i_parent, POLICY, o_parent)]
    )
    assert POLICY in relaxed.arch.channel_types(i_parent, o_parent)
    assert gates == (LocalSend(i_parent, POLICY, o_parent, PARENT),)
    assert relaxed.local_constraints == gates
    # base structure untouched
    assert relaxed.arch.holdings == safe_v2.arch.holdings


def test_relaxed_channels_share_one_set_per_distinct_type_set(safe_v2):
    # The verifier's p2 and the search encoding work once per type-set
    # object, so equal channel sets must stay one object after relaxation.
    grants = [
        Grant(AgentId.interface_of(a), POLICY, AgentId.output_of(a))
        for a in (CHILD, PARENT, WEBSITE)
    ]
    grants.append(Grant(AgentId.interface_of(PARENT), INFO, AgentId.output_of(PARENT)))
    relaxed, _ = relax_with_local_constraints(safe_v2, grants)
    channels = relaxed.arch.channels
    assert len({id(types) for types in channels.values()}) == len(set(channels.values())) == 4
    assert {POLICY, INFO} <= channels[grants[-1].input_agent, grants[-1].output_agent]
    granted = {(g.input_agent, g.output_agent) for g in grants}
    for pair, types in safe_v2.arch.channels.items():
        if pair not in granted:
            assert channels[pair] is types


def test_grant_must_pair_matching_interfaces(safe_v2):
    i_parent = AgentId.interface_of(PARENT)
    o_web = AgentId.output_of(WEBSITE)
    with pytest.raises(NotAnInterfacePair):
        relax_with_local_constraints(safe_v2, [Grant(i_parent, POLICY, o_web)])
    with pytest.raises(NotAnInterfacePair):
        relax_with_local_constraints(
            safe_v2, [Grant(AgentId.output_of(PARENT), POLICY, AgentId.output_of(PARENT))]
        )


def test_grant_type_must_be_declared_base(safe_v2):
    i_parent = AgentId.interface_of(PARENT)
    o_parent = AgentId.output_of(PARENT)
    with pytest.raises(NotAnInterfacePair):
        relax_with_local_constraints(safe_v2, [Grant(i_parent, Base("GHOST"), o_parent)])
    with pytest.raises(NotAnInterfacePair):
        relax_with_local_constraints(
            safe_v2, [Grant(i_parent, Certified("Parent", "POLICY"), o_parent)]
        )


def test_duplicate_grants_collapse(safe_v2):
    i_parent = AgentId.interface_of(PARENT)
    o_parent = AgentId.output_of(PARENT)
    g = Grant(i_parent, POLICY, o_parent)
    _, gates = relax_with_local_constraints(safe_v2, [g, g])
    assert len(gates) == 1
