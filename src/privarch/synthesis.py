"""Privacy-safe architecture extensions.

Two constructions, one per negative-constraint language. The certified
transport (v1) wraps every cross-boundary payload in a Certified type whose
certifier demands evidence that each required type was created; the proof
transport (v2) demands proof terms naming the agent that possessed each
required type. Both add interface agents around every original agent and
confine unwrapping so that the original agents' code never changes.

Synthesized constructor names mirror the wrapper notation and stay parseable:
m[Agent,TYPE] / m[Agent,TYPE][B1,B2] certify, pi[Agent,TYPE] unwraps,
p[Agent,TYPE] builds proofs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .architecture import (
    Architecture,
    AgentId,
    ORIGINAL,
    INTERFACE,
    OUTPUT,
    can_compute,
)
from .constraints import Constraint, LocalSend, NegCreate, NegPossess, Positive
from .terms import (
    AtomicType,
    Base,
    Certified,
    ConstructorDecl,
    Proof,
    Record,
    TypeSystem,
    make_signature,
    type_name,
)
from .verifier import Partition, canonical_partition


class SynthesisError(Exception):
    pass


class ConstraintOutOfScope(SynthesisError):
    pass


class CapacityExceeded(SynthesisError):
    pass


class NotAnInterfacePair(SynthesisError):
    pass


@dataclass(frozen=True)
class SynthesisConfig:
    algorithm: int = 2
    m_family_cap: int = 10_000


class SynthesizedFrom(Record):
    """Provenance of one synthesized constructor or wrapper type."""

    __slots__ = __match_args__ = ("role", "agent", "base", "constraints")
    role: str  # "certifier" | "unwrapper" | "proof-maker" | "wrapper-type"
    agent: str
    base: str
    constraints: tuple[Constraint, ...]

    def __init__(
        self, role: str, agent: str, base: str, constraints: tuple[Constraint, ...] = ()
    ) -> None:
        # Set slot by slot, as one is built per synthesized constructor.
        init = object.__setattr__
        init(self, "role", role)
        init(self, "agent", agent)
        init(self, "base", base)
        init(self, "constraints", constraints)


class SafeArchitecture(Record):
    __slots__ = __match_args__ = (
        "arch", "canonical_partition", "provenance", "warnings", "local_constraints"
    )
    arch: Architecture
    canonical_partition: Partition
    provenance: Mapping[object, SynthesizedFrom]
    warnings: tuple[str, ...]
    local_constraints: tuple[LocalSend, ...]
    _defaults = ((), ())


def certifier_name(agent: str, base: str, witnesses: Sequence[str] = ()) -> str:
    name = f"m[{agent},{base}]"
    if witnesses:
        name += f"[{','.join(witnesses)}]"
    return name


def unwrapper_name(agent: str, base: str) -> str:
    return f"pi[{agent},{base}]"


def proof_maker_name(agent: str, base: str) -> str:
    return f"p[{agent},{base}]"


def _base_types(ts: TypeSystem) -> list[Base]:
    for t in ts.atomic_types:
        if not isinstance(t, Base):
            raise SynthesisError(
                f"input type system already contains wrapper type {type_name(t)}; "
                "synthesis starts from base types only"
            )
    return sorted(ts.atomic_types, key=lambda t: t.name)


def _negatives(constraints: Iterable[Constraint], expected: type) -> list:
    """The constraints of the expected negative form; positives are let
    through and any other form is out of scope."""
    negatives = []
    for c in constraints:
        if isinstance(c, expected):
            negatives.append(c)
        elif not isinstance(c, Positive):
            raise ConstraintOutOfScope(
                f"constraint form {type(c).__name__} is not handled by this construction: {c}"
            )
    return negatives


def _scoped_groups(
    ts: TypeSystem, agents: Sequence[AgentId], negatives: Sequence
) -> dict[tuple[str, Base], list]:
    """Reject constraints over unknown agents or types, then group the rest
    by (subject name, trigger), each group in its certifier's argument order."""
    agent_set = set(agents)
    groups: dict[tuple[str, Base], list] = {}
    for c in negatives:
        if c.subject not in agent_set:
            raise ConstraintOutOfScope(f"constraint subject {c.subject.name} is not an agent")
        if isinstance(c, NegPossess) and c.holder not in agent_set:
            raise ConstraintOutOfScope(f"constraint holder {c.holder.name} is not an agent")
        for t in (c.trigger, c.required):
            if t not in ts.atomic_types:
                raise ConstraintOutOfScope(
                    f"constraint mentions undeclared type {type_name(t)}"
                )
        groups.setdefault((c.subject.name, c.trigger), []).append(c)
    for group in groups.values():
        group.sort(
            key=lambda c: (
                type_name(c.required),
                c.holder.name if isinstance(c, NegPossess) else "",
            )
        )
    return groups


def _certified_family(
    m_family_cap: int, agent_names: Sequence[str], agent: str, b: Base, group: Sequence
) -> Iterator[tuple[str, list[AtomicType]]]:
    """Certified transport: one certifier per choice of witness agents, each
    demanding C[witness](required) for every required type of the group."""
    if len(agent_names) ** len(group) > m_family_cap:
        raise CapacityExceeded(
            f"certifier family for ({agent}, {b.name}) needs "
            f"{len(agent_names)}^{len(group)} members, over the cap {m_family_cap}"
        )
    for witnesses in itertools.product(agent_names, repeat=len(group)):
        args = [Certified(w, type_name(c.required)) for w, c in zip(witnesses, group)]
        yield certifier_name(agent, b.name, witnesses), [b, *args]


def _proof_certifier(
    agent_names: Sequence[str], agent: str, b: Base, group: Sequence
) -> Iterator[tuple[str, list[AtomicType]]]:
    """Proof transport: one certifier demanding P[holder](required) for every
    constraint of the group."""
    args = [Proof(c.holder.name, type_name(c.required)) for c in group]
    yield certifier_name(agent, b.name), [b, *args]


def _build_ts(
    ts: TypeSystem,
    agents: Sequence[AgentId],
    bases: Sequence[Base],
    groups: Mapping[tuple[str, Base], list],
    wrappers: tuple[type, ...],
    certifiers: Callable[..., Iterable[tuple[str, list[AtomicType]]]],
) -> tuple[TypeSystem, dict[object, SynthesizedFrom], list[str]]:
    """For each (agent, base): the wrapper types, the certifiers, the
    unwrapper and, with proof wrappers, the proof-maker. Also returns the
    certifier names."""
    agent_names = sorted(a.name for a in agents)
    types: set[AtomicType] = set(ts.atomic_types)
    decls = list(ts.constructors)
    provenance: dict[object, SynthesizedFrom] = {}
    certifier_names: list[str] = []
    for agent in agent_names:
        for b in bases:
            for wrapper in (kind(agent, b.name) for kind in wrappers):
                types.add(wrapper)
                provenance[wrapper] = SynthesizedFrom("wrapper-type", agent, b.name)
            certified = Certified(agent, b.name)
            group = tuple(groups.get((agent, b), ()))
            made = [
                ("certifier", name, args, certified)
                for name, args in certifiers(agent_names, agent, b, group)
            ]
            certifier_names += [name for _, name, _, _ in made]
            made.append(("unwrapper", unwrapper_name(agent, b.name), [certified], b))
            if Proof in wrappers:
                proof = Proof(agent, b.name)
                made.append(("proof-maker", proof_maker_name(agent, b.name), [b], proof))
            for role, name, args, target in made:
                decls.append(ConstructorDecl(name, make_signature(args, target)))
                provenance[name] = SynthesizedFrom(role, agent, b.name, group)
    return TypeSystem.build(types, decls), provenance, certifier_names


def build_safe_type_system_v1(
    ts: TypeSystem,
    agents: Iterable[AgentId],
    constraints: Iterable[Constraint],
    m_family_cap: int = SynthesisConfig().m_family_cap,
) -> TypeSystem:
    bases = _base_types(ts)
    agents = tuple(agents)
    groups = _scoped_groups(ts, agents, _negatives(constraints, NegCreate))
    family = partial(_certified_family, m_family_cap)
    return _build_ts(ts, agents, bases, groups, (Certified,), family)[0]


def build_safe_type_system_v2(
    ts: TypeSystem,
    agents: Iterable[AgentId],
    constraints: Iterable[Constraint],
) -> TypeSystem:
    bases = _base_types(ts)
    agents = tuple(agents)
    groups = _scoped_groups(ts, agents, _negatives(constraints, NegPossess))
    return _build_ts(ts, agents, bases, groups, (Certified, Proof), _proof_certifier)[0]


def _hypothesis_warnings(arch: Architecture, negatives: Sequence) -> tuple[str, ...]:
    warnings = []
    for c in negatives:
        if can_compute(arch, c.subject, c.trigger):
            warnings.append(
                f"subject {c.subject.name} can compute its trigger "
                f"{type_name(c.trigger)}; the safety guarantee for '{c}' needs "
                "the subject unable to create the trigger itself"
            )
    return tuple(warnings)


# Interface agents, their holdings, and their base-type links to the originals.
_Interfaces = tuple[list[AgentId], dict[AgentId, set[str]], list[tuple[AgentId, AgentId]]]


def _extend(
    arch: Architecture,
    constraints: Iterable[Constraint],
    expected: type,
    wrappers: tuple[type, ...],
    certifiers: Callable[..., Iterable[tuple[str, list[AtomicType]]]],
    layout: Callable[[list[AgentId], list[Base], list[str]], _Interfaces],
) -> SafeArchitecture:
    """The skeleton both constructions share. The input checks run once, in
    this order: original agents only, constraints of the expected form, base
    types only, constraints in scope. `layout` places the interfaces, their
    holdings and their base-type links to the originals; the originals keep
    their code and the interfaces form a full mesh of wrapper types."""
    for a in arch.agents:
        if a.kind != ORIGINAL:
            raise SynthesisError(
                f"synthesis input must contain original agents only, found {a.name}"
            )
    originals = arch.original_agents()
    negatives = _negatives(constraints, expected)
    ts = arch.type_system
    bases = _base_types(ts)
    groups = _scoped_groups(ts, originals, negatives)
    safe_ts, provenance, certifier_names = _build_ts(
        ts, originals, bases, groups, wrappers, certifiers
    )
    interfaces, holdings, links = layout(originals, bases, certifier_names)
    holdings.update((a, arch.holdings_of(a)) for a in originals)
    # The input types are all base types (checked above).
    channels = dict.fromkeys(links, ts.atomic_types)
    mesh = itertools.permutations(interfaces, 2)
    channels.update(dict.fromkeys(mesh, safe_ts.atomic_types - ts.atomic_types))
    agents = [*originals, *interfaces]
    return SafeArchitecture(
        Architecture.build(safe_ts, agents, holdings, channels),
        canonical_partition(agents),
        provenance,
        _hypothesis_warnings(arch, negatives),
    )


def _single_interfaces(
    originals: Sequence[AgentId], bases: Sequence[Base], certifiers: Sequence[str]
) -> _Interfaces:
    interfaces = [AgentId.interface_of(a) for a in originals]
    holdings: dict[AgentId, set[str]] = {}
    links = []
    for a, i in zip(originals, interfaces):
        holdings[i] = {*certifiers, *(unwrapper_name(a.name, b.name) for b in bases)}
        links += [(a, i), (i, a)]
    return interfaces, holdings, links


def _input_output_interfaces(
    originals: Sequence[AgentId], bases: Sequence[Base], certifiers: Sequence[str]
) -> _Interfaces:
    inputs = [AgentId.interface_of(a) for a in originals]
    outputs = [AgentId.output_of(a) for a in originals]
    holdings: dict[AgentId, set[str]] = {}
    links = []
    for a, i, o in zip(originals, inputs, outputs):
        holdings[i] = {unwrapper_name(a.name, b.name) for b in bases}
        holdings[o] = {*certifiers, *(proof_maker_name(a.name, b.name) for b in bases)}
        links += [(i, a), (a, o)]
    return inputs + outputs, holdings, links


def build_safe_architecture_v1(
    arch: Architecture,
    constraints: Iterable[Constraint],
    config: SynthesisConfig = SynthesisConfig(algorithm=1),
) -> SafeArchitecture:
    """Interface extension for creation constraints: one interface per agent,
    certifiers everywhere, unwrapping confined to each owner's interface."""
    family = partial(_certified_family, config.m_family_cap)
    return _extend(arch, constraints, NegCreate, (Certified,), family, _single_interfaces)


def build_safe_architecture_v2(
    arch: Architecture,
    constraints: Iterable[Constraint],
    config: SynthesisConfig = SynthesisConfig(algorithm=2),
) -> SafeArchitecture:
    """Input/output interface extension for possession constraints: payloads
    enter an agent through its input interface (which alone unwraps) and
    leave through its output interface (which alone builds its proofs)."""
    return _extend(
        arch, constraints, NegPossess, (Certified, Proof), _proof_certifier,
        _input_output_interfaces,
    )


class Grant(Record):
    """Permission for one input interface to forward a base type straight to
    the matching output interface, bypassing the owner."""

    __slots__ = __match_args__ = ("input_agent", "msg_type", "output_agent")
    input_agent: AgentId
    msg_type: AtomicType
    output_agent: AgentId


def relax_with_local_constraints(
    safe: SafeArchitecture, grants: Iterable[Grant]
) -> tuple[SafeArchitecture, tuple[LocalSend, ...]]:
    """Open each granted I -> O channel and emit the local constraint that
    gates it: the forwarded term must already have been sent to the owner.

    The pair is returned so explorers and trace checks enforce the gate; the
    partition premises do not cover the widened architecture (a non-owner now
    sends a base type to a proof holder), which is exactly why the gate exists.
    """
    arch = safe.arch
    channels = dict(arch.channels)
    gates: list[LocalSend] = []
    for g in grants:
        if (
            g.input_agent.kind != INTERFACE
            or g.output_agent.kind != OUTPUT
            or g.input_agent.owner != g.output_agent.owner
        ):
            raise NotAnInterfacePair(
                f"grant must pair I:<owner> with O:<owner>, got "
                f"{g.input_agent.name} -> {g.output_agent.name}"
            )
        for end in (g.input_agent, g.output_agent):
            if end not in arch.agents:
                raise NotAnInterfacePair(f"grant names unknown agent {end.name}")
        if not isinstance(g.msg_type, Base) or g.msg_type not in arch.type_system.atomic_types:
            raise NotAnInterfacePair(
                f"grants carry declared base types only, got {type_name(g.msg_type)}"
            )
        owner = arch.agent_named(g.input_agent.owner)
        pair = (g.input_agent, g.output_agent)
        channels[pair] = channels.get(pair, frozenset()) | {g.msg_type}
        gates.append(LocalSend(g.input_agent, g.msg_type, g.output_agent, owner))
    relaxed = Architecture.build(arch.type_system, arch.agents, arch.holdings, channels)
    gates_out = tuple(dict.fromkeys(gates))
    return (
        SafeArchitecture(
            relaxed,
            safe.canonical_partition,
            safe.provenance,
            safe.warnings,
            safe.local_constraints + gates_out,
        ),
        gates_out,
    )
