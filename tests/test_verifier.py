"""Partition premises: pass on synthesized output, fail on each mutation.

The verifier recognizes wrapper constructors by signature shape rather than
by name, so the mutations below rename nothing; they re-wire holdings,
channels, and partitions the way a hand edit would.
"""

from __future__ import annotations

import pytest

from privarch import (
    AgentId,
    Architecture,
    Base,
    Certified,
    ConstructorDecl,
    NegCreate,
    Partition,
    Proof,
    TypeSystem,
    UnknownConstructor,
    build_safe_architecture_v1,
    canonical_partition,
    make_signature,
    parse_spec,
    proof_maker_form,
    unwrapper_form,
    verify_partition_v1,
    verify_partition_v2,
)

CHILD = AgentId("Child")
PARENT = AgentId("Parent")
WEBSITE = AgentId("Website")
INFO = Base("INFO")
CONSENT = Base("CONSENT")
POLICY = Base("POLICY")


def rebuilt(arch, holdings=None, channels=None, ts=None):
    return Architecture.build(
        ts if ts is not None else arch.type_system,
        arch.agents,
        holdings if holdings is not None else {a: arch.holdings_of(a) for a in arch.agents},
        channels if channels is not None else arch.channels,
    )


def with_extra_ctor(arch, name, signature, holder):
    ts = TypeSystem.build(
        arch.type_system.atomic_types,
        list(arch.type_system.constructors) + [ConstructorDecl(name, signature)],
    )
    holdings = {a: set(arch.holdings_of(a)) for a in arch.agents}
    holdings[holder] = holdings[holder] | {name}
    return rebuilt(arch, holdings=holdings, ts=ts)


# ---------------------------------------------------------------------------
# recognizers


def test_unwrapper_form_recognizes_shape():
    decl = ConstructorDecl(
        "anything", make_signature([Certified("Website", "INFO")], INFO)
    )
    assert unwrapper_form(decl) == ("Website", "INFO")


def test_unwrapper_form_rejects_mismatched_inner():
    decl = ConstructorDecl(
        "x", make_signature([Certified("Website", "CONSENT")], INFO)
    )
    assert unwrapper_form(decl) is None
    assert unwrapper_form(ConstructorDecl("c", INFO)) is None


def test_proof_maker_form_recognizes_shape():
    decl = ConstructorDecl("mk", make_signature([POLICY], Proof("Parent", "POLICY")))
    assert proof_maker_form(decl) == ("Parent", "POLICY")


def test_proof_maker_form_rejects_mismatched_inner():
    decl = ConstructorDecl("mk", make_signature([POLICY], Proof("Parent", "CONSENT")))
    assert proof_maker_form(decl) is None


# ---------------------------------------------------------------------------
# pass cases


def test_v1_premises_pass(safe_v1, coppa_v1_doc):
    negatives = [c for c in coppa_v1_doc.constraints if isinstance(c, NegCreate)]
    rep = verify_partition_v1(safe_v1.arch, safe_v1.canonical_partition, negatives)
    assert rep.violations == ()


def test_v2_premises_pass(safe_v2):
    rep = verify_partition_v2(safe_v2.arch, safe_v2.canonical_partition)
    assert rep.violations == ()


def test_unsafe_architecture_fails_premises(coppa_doc):
    # Fig-style base system: every original is its own cell, so its base-type
    # channels all cross cell boundaries
    arch = coppa_doc.architecture
    rep = verify_partition_v2(arch, canonical_partition(arch.agents))
    codes = {v.code for v in rep.violations}
    assert codes == {"p2-boundary"}
    assert len(rep.violations) == 3


def test_relaxed_architecture_fails_proof_channel_premise(relaxed_v2):
    relaxed, _ = relaxed_v2
    rep = verify_partition_v2(relaxed.arch, relaxed.canonical_partition)
    codes = {v.code for v in rep.violations}
    assert codes == {"p5-proof-channel"}
    subjects = {v.subject[0] for v in rep.violations}
    assert subjects == {"O:Parent", "O:Website"}


@pytest.mark.parametrize("verify", [verify_partition_v1, verify_partition_v2])
def test_undeclared_holding_raises_the_first_in_sorted_order(verify):
    # Y sorts after X, so X's smallest undeclared name is raised although
    # Y's names sort earlier; set order must not decide which one.
    x, y = AgentId("X"), AgentId("Y")
    ts = TypeSystem.build([INFO], [ConstructorDecl("info", INFO)])
    arch = Architecture.build(
        ts,
        [x, y],
        {
            x: {"info", *(f"zeta{i:02}" for i in range(10))},
            y: {f"alpha{i:02}" for i in range(10)},
        },
        {(x, y): {INFO}},
    )
    with pytest.raises(UnknownConstructor) as exc:
        verify(arch, canonical_partition(arch.agents), [])
    assert exc.value.args == ("zeta00",)


# ---------------------------------------------------------------------------
# p1: partition totality and self-ownership


def test_missing_agent_detected(safe_v2):
    owner = dict(safe_v2.canonical_partition.owner)
    del owner[AgentId.output_of(CHILD)]
    rep = verify_partition_v2(safe_v2.arch, Partition(owner))
    assert any(v.code == "p1-self" for v in rep.violations)


def test_nonreflexive_owner_detected(safe_v2):
    owner = dict(safe_v2.canonical_partition.owner)
    owner[WEBSITE] = CHILD  # Website's cell no longer owns itself
    rep = verify_partition_v2(safe_v2.arch, Partition(owner))
    assert any(v.code == "p1-self" for v in rep.violations)


# ---------------------------------------------------------------------------
# p2: cross-cell channels carry wrappers only


@pytest.mark.parametrize("algorithm", [1, 2])
def test_cross_cell_base_channel_detected(algorithm, safe_v1, safe_v2, coppa_v1_doc):
    safe = safe_v1 if algorithm == 1 else safe_v2
    channels = dict(safe.arch.channels)
    channels[(CHILD, PARENT)] = frozenset({INFO})
    mutated = rebuilt(safe.arch, channels=channels)
    if algorithm == 1:
        negatives = [c for c in coppa_v1_doc.constraints if isinstance(c, NegCreate)]
        rep = verify_partition_v1(mutated, safe.canonical_partition, negatives)
    else:
        rep = verify_partition_v2(mutated, safe.canonical_partition)
    assert any(
        v.code == "p2-boundary" and v.subject == ("Child", "Parent", "INFO")
        for v in rep.violations
    )


def test_proof_type_crossing_cells_allowed_in_v2_only(safe_v2, safe_v1, coppa_v1_doc):
    proof = Proof("Parent", "POLICY")
    # fresh cross-cell channel carrying nothing but the proof wrapper
    channels = dict(safe_v2.arch.channels)
    channels[(WEBSITE, PARENT)] = frozenset({proof})
    assert verify_partition_v2(
        rebuilt(safe_v2.arch, channels=channels), safe_v2.canonical_partition
    ).violations == ()

    # certified-only discipline has no proof types; treat them as leaks
    channels1 = dict(safe_v1.arch.channels)
    channels1[(WEBSITE, PARENT)] = frozenset({proof})
    negatives = [c for c in coppa_v1_doc.constraints if isinstance(c, NegCreate)]
    rep = verify_partition_v1(
        rebuilt(safe_v1.arch, channels=channels1),
        safe_v1.canonical_partition,
        negatives,
    )
    assert any(v.code == "p2-boundary" for v in rep.violations)


def test_equal_type_sets_that_are_distinct_objects_each_report(coppa_doc):
    # An architecture built through the API: three cross-cell channels with
    # equal type sets, each its own object. Each channel gets its line.
    arch = coppa_doc.architecture
    ring = [(CHILD, PARENT), (PARENT, WEBSITE), (WEBSITE, CHILD)]
    api = Architecture(
        arch.type_system,
        arch.agents,
        dict(arch.holdings),
        {pair: frozenset([INFO, Certified("Parent", "INFO")]) for pair in ring},
    )
    assert len({id(types) for types in api.channels.values()}) == 3
    assert len(set(api.channels.values())) == 1
    rep = verify_partition_v2(api, canonical_partition(api.agents))
    assert [line for line in rep.lines() if "p2-boundary" in line] == sorted(
        f"[p2-boundary] cross-cell channel {s.name} -> {r.name} carries INFO" for s, r in ring
    )


def test_leaking_type_on_a_shared_mesh_set_reports_every_channel(safe_v2):
    # The synthesized mesh shares one type-set object among its channels; a
    # base type added to that one set leaks on every cross-cell channel.
    arch = safe_v2.arch
    mesh = [pair for pair, types in arch.channels.items() if Base("CONSENT") not in types]
    leaky = arch.channels[mesh[0]] | {INFO}
    mutated = rebuilt(arch, channels={**arch.channels, **dict.fromkeys(mesh, leaky)})
    assert len({id(mutated.channels[pair]) for pair in mesh}) == 1
    part = safe_v2.canonical_partition
    crossing = [(s, r) for s, r in mesh if part.cell_of(s) != part.cell_of(r)]
    assert len(crossing) > 20
    rep = verify_partition_v2(mutated, part)
    assert sorted(v.subject for v in rep.violations if v.code == "p2-boundary") == sorted(
        (s.name, r.name, "INFO") for s, r in crossing
    )


# ---------------------------------------------------------------------------
# p3: unwrappers stay in their owner's cell


@pytest.mark.parametrize("algorithm", [1, 2])
def test_misplaced_unwrapper_detected(algorithm, safe_v1, safe_v2, coppa_v1_doc):
    safe = safe_v1 if algorithm == 1 else safe_v2
    thief = AgentId.interface_of(PARENT)
    holdings = {a: set(safe.arch.holdings_of(a)) for a in safe.arch.agents}
    holdings[thief].add("pi[Website,INFO]")
    mutated = rebuilt(safe.arch, holdings=holdings)
    if algorithm == 1:
        negatives = [c for c in coppa_v1_doc.constraints if isinstance(c, NegCreate)]
        rep = verify_partition_v1(mutated, safe.canonical_partition, negatives)
    else:
        rep = verify_partition_v2(mutated, safe.canonical_partition)
    assert any(
        v.code == "p3-unwrap" and v.subject == ("I:Parent", "pi[Website,INFO]")
        for v in rep.violations
    )


def test_unwrapper_moved_within_cell_is_fine(safe_v2):
    # O:Website is in Website's cell, so holding Website's unwrapper does not
    # break the cell premise (the compute premise is a separate check)
    holdings = {a: set(safe_v2.arch.holdings_of(a)) for a in safe_v2.arch.agents}
    holdings[WEBSITE].add("pi[Website,INFO]")
    mutated = rebuilt(safe_v2.arch, holdings=holdings)
    rep = verify_partition_v2(mutated, safe_v2.canonical_partition)
    assert not any(v.code == "p3-unwrap" for v in rep.violations)


# ---------------------------------------------------------------------------
# p4 (v1): inside a constrained cell only the unwrapper targets the trigger


def test_extra_trigger_constructor_detected_v1(safe_v1, coppa_v1_doc):
    negatives = [c for c in coppa_v1_doc.constraints if isinstance(c, NegCreate)]
    mutated = with_extra_ctor(safe_v1.arch, "backdoor", INFO, WEBSITE)
    rep = verify_partition_v1(mutated, safe_v1.canonical_partition, negatives)
    assert any(
        v.code == "p4-target" and v.subject == ("Website", "backdoor", "INFO")
        for v in rep.violations
    )


def test_shared_subject_and_trigger_reported_once_v1():
    # Two creation constraints with the same subject and trigger share one
    # p4 check, so the extra constructor is reported on one line.
    doc = parse_spec(
        "types CONSENT, INFO, POLICY;\n"
        "agent Child holds info: INFO;\n"
        "agent Parent holds consent: CONSENT;\n"
        "agent Website holds policy: POLICY;\n"
        "channel Child -> Website : INFO;\n"
        "channel Parent -> Website : CONSENT;\n"
        "channel Website -> Parent : POLICY;\n"
        "constraint Website ni INFO => CONSENT;\n"
        "constraint Website ni INFO => POLICY;\n"
        "option algorithm = 1;\n"
    )
    safe = build_safe_architecture_v1(doc.architecture, doc.constraints, doc.options)
    mutated = with_extra_ctor(safe.arch, "backdoor", INFO, WEBSITE)
    rep = verify_partition_v1(mutated, safe.canonical_partition, doc.constraints)
    assert rep.lines() == [
        "[p4-target] Website in Website's cell holds backdoor targeting INFO, "
        "which is not that cell's unwrapper",
    ]


def test_trigger_constructor_outside_subject_cell_is_fine_v1(safe_v1, coppa_v1_doc):
    negatives = [c for c in coppa_v1_doc.constraints if isinstance(c, NegCreate)]
    mutated = with_extra_ctor(safe_v1.arch, "mint", INFO, CHILD)
    rep = verify_partition_v1(mutated, safe_v1.canonical_partition, negatives)
    assert not any(v.code == "p4-target" for v in rep.violations)


# ---------------------------------------------------------------------------
# p4/p5 (v2): proof-makers and their feed channels


def test_proof_holder_computing_proved_type_detected(safe_v2):
    mutated = with_extra_ctor(
        safe_v2.arch, "backdoor", POLICY, AgentId.output_of(PARENT)
    )
    rep = verify_partition_v2(mutated, safe_v2.canonical_partition)
    assert any(
        v.code == "p4-proof-compute"
        and v.subject == ("O:Parent", "p[Parent,POLICY]")
        for v in rep.violations
    )


def test_foreign_feed_channel_detected(safe_v2):
    channels = dict(safe_v2.arch.channels)
    channels[(CHILD, AgentId.output_of(PARENT))] = frozenset({POLICY})
    mutated = rebuilt(safe_v2.arch, channels=channels)
    rep = verify_partition_v2(mutated, safe_v2.canonical_partition)
    assert any(v.code == "p5-proof-channel" for v in rep.violations)


# ---------------------------------------------------------------------------
# canonical partition helper


def test_canonical_partition_groups_by_owner(safe_v2):
    p = canonical_partition(safe_v2.arch.agents)
    assert p.cell_of(WEBSITE) == WEBSITE
    assert p.cell_of(AgentId.interface_of(WEBSITE)) == WEBSITE
    assert p.cell_of(AgentId.output_of(WEBSITE)) == WEBSITE
    assert p.owner == safe_v2.canonical_partition.owner


# ---------------------------------------------------------------------------
# whole reports: every line, in report order


def _broken(case, safe_v1, safe_v2, coppa_v1_doc):
    """(report lines of) one hand-broken partition or architecture."""
    v1_negatives = [c for c in coppa_v1_doc.constraints if isinstance(c, NegCreate)]
    owner = dict(safe_v2.canonical_partition.owner)
    arch, algorithm = safe_v2.arch, 2
    if case == "owner dropped from its own cell":
        del owner[WEBSITE]
    elif case == "owner placed in another cell":
        owner[WEBSITE] = CHILD
    elif case == "owner placed in an unknown cell":
        owner[WEBSITE] = AgentId("Ghost")
    elif case == "member owned by an unknown agent":
        owner[AgentId.output_of(CHILD)] = AgentId("Ghost")
    elif case == "misplaced unwrapper v1":
        holdings = {a: set(safe_v1.arch.holdings_of(a)) for a in safe_v1.arch.agents}
        holdings[AgentId.interface_of(PARENT)].add("pi[Website,INFO]")
        arch, algorithm = rebuilt(safe_v1.arch, holdings=holdings), 1
        owner = dict(safe_v1.canonical_partition.owner)
    elif case == "extra trigger constructor v1":
        arch, algorithm = with_extra_ctor(safe_v1.arch, "backdoor", INFO, WEBSITE), 1
        owner = dict(safe_v1.canonical_partition.owner)
    elif case == "proof holder computes the proved type":
        arch = with_extra_ctor(arch, "backdoor", POLICY, AgentId.output_of(PARENT))
    elif case == "foreign feed channels":
        channels = dict(arch.channels)
        channels[(CHILD, AgentId.output_of(PARENT))] = frozenset({POLICY, INFO})
        channels[(AgentId.interface_of(CHILD), AgentId.output_of(PARENT))] = frozenset(
            {POLICY, Proof("Child", "INFO")}
        )
        arch = rebuilt(arch, channels=channels)
    if algorithm == 1:
        return verify_partition_v1(arch, Partition(owner), v1_negatives).lines()
    return verify_partition_v2(arch, Partition(owner)).lines()


BROKEN_LINES = {
    "owner dropped from its own cell": [
        "[p1-self] agent Website is assigned to no cell",
        "[p1-self] cell owner Website does not belong to its own cell",
        "[p2-boundary] cross-cell channel I:Website -> Website carries CONSENT",
        "[p2-boundary] cross-cell channel I:Website -> Website carries INFO",
        "[p2-boundary] cross-cell channel I:Website -> Website carries POLICY",
        "[p2-boundary] cross-cell channel Website -> O:Website carries CONSENT",
        "[p2-boundary] cross-cell channel Website -> O:Website carries INFO",
        "[p2-boundary] cross-cell channel Website -> O:Website carries POLICY",
    ],
    "owner placed in another cell": [
        "[p1-self] cell owner Website does not belong to its own cell",
        "[p2-boundary] cross-cell channel I:Website -> Website carries CONSENT",
        "[p2-boundary] cross-cell channel I:Website -> Website carries INFO",
        "[p2-boundary] cross-cell channel I:Website -> Website carries POLICY",
        "[p2-boundary] cross-cell channel Website -> O:Website carries CONSENT",
        "[p2-boundary] cross-cell channel Website -> O:Website carries INFO",
        "[p2-boundary] cross-cell channel Website -> O:Website carries POLICY",
    ],
    "owner placed in an unknown cell": [
        "[p1-self] cell owner Ghost does not belong to its own cell",
        "[p1-self] agent Website is owned by unknown Ghost",
        "[p1-self] cell owner Website does not belong to its own cell",
        "[p2-boundary] cross-cell channel I:Website -> Website carries CONSENT",
        "[p2-boundary] cross-cell channel I:Website -> Website carries INFO",
        "[p2-boundary] cross-cell channel I:Website -> Website carries POLICY",
        "[p2-boundary] cross-cell channel Website -> O:Website carries CONSENT",
        "[p2-boundary] cross-cell channel Website -> O:Website carries INFO",
        "[p2-boundary] cross-cell channel Website -> O:Website carries POLICY",
    ],
    "member owned by an unknown agent": [
        "[p1-self] cell owner Ghost does not belong to its own cell",
        "[p1-self] agent O:Child is owned by unknown Ghost",
        "[p2-boundary] cross-cell channel Child -> O:Child carries CONSENT",
        "[p2-boundary] cross-cell channel Child -> O:Child carries INFO",
        "[p2-boundary] cross-cell channel Child -> O:Child carries POLICY",
    ],
    "misplaced unwrapper v1": [
        "[p3-unwrap] I:Parent holds unwrapper pi[Website,INFO] but is not in Website's cell",
    ],
    "extra trigger constructor v1": [
        "[p4-target] Website in Website's cell holds backdoor targeting INFO, "
        "which is not that cell's unwrapper",
    ],
    "proof holder computes the proved type": [
        "[p4-proof-compute] O:Parent holds proof-maker p[Parent,POLICY] but can compute POLICY",
    ],
    "foreign feed channels": [
        "[p2-boundary] cross-cell channel Child -> O:Parent carries INFO",
        "[p2-boundary] cross-cell channel Child -> O:Parent carries POLICY",
        "[p2-boundary] cross-cell channel I:Child -> O:Parent carries POLICY",
        "[p5-proof-channel] O:Parent holds proof-maker p[Parent,INFO]"
        " but receives INFO from Child, not Parent",
        "[p5-proof-channel] O:Parent holds proof-maker p[Parent,POLICY]"
        " but receives POLICY from Child, not Parent",
        "[p5-proof-channel] O:Parent holds proof-maker p[Parent,POLICY]"
        " but receives POLICY from I:Child, not Parent",
    ],
}


@pytest.mark.parametrize("case", sorted(BROKEN_LINES))
def test_broken_report_lines(case, safe_v1, safe_v2, coppa_v1_doc):
    assert _broken(case, safe_v1, safe_v2, coppa_v1_doc) == BROKEN_LINES[case]
