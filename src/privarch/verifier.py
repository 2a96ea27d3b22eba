"""Partition premise checks.

A partition assigns every agent of an architecture to the cell of one
original agent. When the premises below hold, every trace through the
architecture satisfies the corresponding negative constraints, so the
checks are a static alternative to exhaustive search. The verifier never
assumes the architecture came from the synthesizer: wrapper constructors
are recognized by signature shape, not by name, so hand-modified
architectures re-verify honestly.

Premise codes: p1-self (each cell owner belongs to its own cell and the
partition is total), p2-boundary (cross-cell channels carry wrapper types
only), p3-unwrap (unwrappers live in their owner's cell), and for the
certified-only discipline p4-target (inside a constrained cell, the only
constructor targeting the trigger is its unwrapper); for the proof
discipline p4-proof-compute (a proof-maker's holder cannot compute the
proved type) and p5-proof-channel (the only incoming channel of the proved
type comes from the owner).

report() sorts the violations by code and subject, so the checks may visit
agents, holdings and channels in any order. p2 finds the leaking types of
each distinct type-set object once, since `Architecture.build` shares one
set among all channels with equal type sets, and then reports them on every
cross-cell channel that carries that set.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .architecture import Architecture, AgentId, UnknownAgent, Violation, VerdictReport, report
from .constraints import Constraint, NegCreate
from .terms import (
    AtomicType,
    Base,
    Certified,
    ConstructorDecl,
    Proof,
    Record,
    UnknownConstructor,
    is_atomic,
    signature_parts,
    type_name,
)


class Partition(Record):
    """Total map from agents to the original agent owning their cell."""

    __slots__ = __match_args__ = ("owner",)
    owner: Mapping[AgentId, AgentId]

    def __init__(self, owner: Mapping[AgentId, AgentId]) -> None:
        self._init(owner)

    def cell_of(self, agent: AgentId) -> AgentId | None:
        return self.owner.get(agent)


def canonical_partition(agents: Iterable[AgentId]) -> Partition:
    """Each interface joins its owner's cell; originals own themselves."""
    agents = tuple(agents)
    by_name = {a.name: a for a in agents}
    owner: dict[AgentId, AgentId] = {}
    for a in agents:
        if a.owner is not None and a.owner not in by_name:
            raise UnknownAgent(a.owner)
        owner[a] = a if a.owner is None else by_name[a.owner]
    return Partition(owner)


def _unwrapper_shape(args: tuple[AtomicType, ...], target: AtomicType) -> tuple[str, str] | None:
    """C[x](A) -> A, from a constructor's (argument types, target): (owner
    name, base name), or None. The checks pass the pairs their type system
    keeps."""
    if (
        len(args) == 1
        and isinstance(args[0], Certified)
        and isinstance(target, Base)
        and args[0].inner == target.name
    ):
        return args[0].reader, target.name
    return None


def _proof_maker_shape(args: tuple[AtomicType, ...], target: AtomicType) -> tuple[str, str] | None:
    """A -> P[x](A), from a constructor's (argument types, target): (owner
    name, base name), or None."""
    if (
        len(args) == 1
        and isinstance(args[0], Base)
        and isinstance(target, Proof)
        and target.inner == args[0].name
    ):
        return target.holder, args[0].name
    return None


def unwrapper_form(decl: ConstructorDecl) -> tuple[str, str] | None:
    """Recognize C[x](A) -> A by shape; returns (owner name, base name)."""
    return _unwrapper_shape(*signature_parts(decl))


def proof_maker_form(decl: ConstructorDecl) -> tuple[str, str] | None:
    """Recognize A -> P[x](A) by shape; returns (owner name, base name)."""
    return _proof_maker_shape(*signature_parts(decl))


def _require_declared(arch: Architecture) -> None:
    """Raise UnknownConstructor for the first undeclared holding, agents in
    sorted order and names sorted within an agent, so the name raised does
    not depend on set order. `validate_architecture` reports these instead;
    the premises cannot be read without the signatures."""
    ts = arch.type_system
    missing = [
        (a.sort_key, name)
        for a in arch.agents
        for name in arch.holdings_of(a)
        if not ts.has_constructor(name)
    ]
    if missing:
        raise UnknownConstructor(min(missing)[1])


def _membership_violations(arch: Architecture, partition: Partition) -> list[Violation]:
    violations = []
    for a in arch.agents:
        cell = partition.cell_of(a)
        if cell is None:
            violations.append(
                Violation("p1-self", (a.name,), f"agent {a.name} is assigned to no cell")
            )
        elif cell not in arch.agents:
            violations.append(
                Violation(
                    "p1-self", (a.name,), f"agent {a.name} is owned by unknown {cell.name}"
                )
            )
    # After the loop above: an owner missing from its own cell gets both
    # lines, and report() keeps their order.
    for o in set(partition.owner.values()):
        if partition.cell_of(o) != o:
            violations.append(
                Violation(
                    "p1-self", (o.name,), f"cell owner {o.name} does not belong to its own cell"
                )
            )
    return violations


def _boundary_violations(
    arch: Architecture, partition: Partition, allowed: tuple[type, ...]
) -> list[Violation]:
    violations = []
    # The leaking types of each distinct type-set object, found once:
    # `Architecture.build` shares one set among equal channel sets.
    leaks: dict[int, list] = {}
    for (s, r), types in arch.channels.items():
        cell = partition.cell_of(s)
        if cell is not None and cell == partition.cell_of(r):
            continue
        leaking = leaks.get(id(types))
        if leaking is None:
            # Unknown forms are rejected conservatively: anything that is not
            # an expected wrapper may leak across the boundary.
            leaking = leaks[id(types)] = [
                t for t in types if not (is_atomic(t) and isinstance(t, allowed))
            ]
        for t in leaking:
            violations.append(
                Violation(
                    "p2-boundary",
                    (s.name, r.name, type_name(t)),
                    f"cross-cell channel {s.name} -> {r.name} carries {type_name(t)}",
                )
            )
    return violations


def _unwrap_cell_violations(arch: Architecture, partition: Partition) -> list[Violation]:
    violations = []
    parts = arch.type_system.parts
    for a in arch.agents:
        cell = partition.cell_of(a)
        for name in arch.holdings_of(a):
            form = _unwrapper_shape(*parts(name))
            if form is None:
                continue
            owner_name, _ = form
            if cell is None or cell.name != owner_name:
                violations.append(
                    Violation(
                        "p3-unwrap",
                        (a.name, name),
                        f"{a.name} holds unwrapper {name} but is not in {owner_name}'s cell",
                    )
                )
    return violations


def verify_partition_v1(
    arch: Architecture, partition: Partition, constraints: Iterable[Constraint]
) -> VerdictReport:
    """Premises of the certified-only discipline (four checks)."""
    _require_declared(arch)
    negatives = [c for c in constraints if isinstance(c, NegCreate)]
    violations = _membership_violations(arch, partition)
    violations += _boundary_violations(arch, partition, (Certified,))
    violations += _unwrap_cell_violations(arch, partition)
    # Constraints that share a subject and a trigger share one check.
    parts = arch.type_system.parts
    for subject, trigger in dict.fromkeys((c.subject, c.trigger) for c in negatives):
        for a in arch.agents:
            if partition.cell_of(a) != subject:
                continue
            for name in arch.holdings_of(a):
                args, target = parts(name)
                if target != trigger:
                    continue
                form = _unwrapper_shape(args, target)
                if form != (subject.name, type_name(trigger)):
                    violations.append(
                        Violation(
                            "p4-target",
                            (a.name, name, type_name(trigger)),
                            f"{a.name} in {subject.name}'s cell holds {name} targeting "
                            f"{type_name(trigger)}, which is not that cell's unwrapper",
                        )
                    )
    return report(violations)


def verify_partition_v2(
    arch: Architecture, partition: Partition, constraints: Iterable[Constraint] = ()
) -> VerdictReport:
    """Premises of the proof discipline (five checks).

    The constraint set does not enter the premises; the parameter is kept so
    both verifiers share a calling convention.
    """
    del constraints
    _require_declared(arch)
    violations = _membership_violations(arch, partition)
    violations += _boundary_violations(arch, partition, (Certified, Proof))
    violations += _unwrap_cell_violations(arch, partition)
    # p4 per holder; p5 then reads each channel once against the proof-makers
    # its receiver holds.
    parts = arch.type_system.parts
    makers: dict[AgentId, list[tuple[str, str, str, Base]]] = {}
    for a in arch.agents:
        held = {name: parts(name) for name in arch.holdings_of(a)}
        targets = {target for _, target in held.values()}
        for name, (args, target) in held.items():
            form = _proof_maker_shape(args, target)
            if form is None:
                continue
            proved = Base(form[1])
            makers.setdefault(a, []).append((name, *form, proved))
            if proved in targets:
                violations.append(
                    Violation(
                        "p4-proof-compute",
                        (a.name, name),
                        f"{a.name} holds proof-maker {name} but can compute {form[1]}",
                    )
                )
    for (s, r), types in arch.channels.items():
        for name, owner_name, base_name, proved in makers.get(r, ()):
            if s.name != owner_name and proved in types:
                violations.append(
                    Violation(
                        "p5-proof-channel",
                        (r.name, name, s.name),
                        f"{r.name} holds proof-maker {name} but receives "
                        f"{base_name} from {s.name}, not {owner_name}",
                    )
                )
    return report(violations)
