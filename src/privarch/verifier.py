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
agents, holdings and channels in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .architecture import Architecture, AgentId, UnknownAgent, Violation, VerdictReport, report
from .constraints import NegCreate, NegPossess
from .terms import (
    AtomicType,
    Base,
    Certified,
    ConstructorDecl,
    Proof,
    UnknownConstructor,
    is_atomic,
    signature_parts,
    type_name,
)


@dataclass(frozen=True)
class Partition:
    """Total map from agents to the original agent owning their cell."""

    owner: Mapping[AgentId, AgentId]

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


def unwrapper_form(decl: ConstructorDecl) -> tuple[str, str] | None:
    """Recognize C[x](A) -> A by shape; returns (owner name, base name)."""
    args, target = signature_parts(decl)
    if (
        len(args) == 1
        and isinstance(args[0], Certified)
        and isinstance(target, Base)
        and args[0].inner == target.name
    ):
        return args[0].reader, target.name
    return None


def proof_maker_form(decl: ConstructorDecl) -> tuple[str, str] | None:
    """Recognize A -> P[x](A) by shape; returns (owner name, base name)."""
    args, target = signature_parts(decl)
    if (
        len(args) == 1
        and isinstance(args[0], Base)
        and isinstance(target, Proof)
        and target.inner == args[0].name
    ):
        return target.holder, args[0].name
    return None


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
    for (s, r), types in arch.channels.items():
        cell = partition.cell_of(s)
        if cell is not None and cell == partition.cell_of(r):
            continue
        for t in types:
            # Unknown forms are rejected conservatively: anything that is not
            # an expected wrapper may leak across the boundary.
            if not (is_atomic(t) and isinstance(t, allowed)):
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
    for a in arch.agents:
        cell = partition.cell_of(a)
        for name in arch.holdings_of(a):
            form = unwrapper_form(arch.type_system.constructor(name))
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
    arch: Architecture, partition: Partition, constraints: Iterable[NegCreate]
) -> VerdictReport:
    """Premises of the certified-only discipline (four checks)."""
    _require_declared(arch)
    negatives = [c for c in constraints if isinstance(c, NegCreate)]
    violations = _membership_violations(arch, partition)
    violations += _boundary_violations(arch, partition, (Certified,))
    violations += _unwrap_cell_violations(arch, partition)
    # Constraints that share a subject and a trigger share one check.
    for subject, trigger in dict.fromkeys((c.subject, c.trigger) for c in negatives):
        for a in arch.agents:
            if partition.cell_of(a) != subject:
                continue
            for name in arch.holdings_of(a):
                decl = arch.type_system.constructor(name)
                if signature_parts(decl)[1] != trigger:
                    continue
                form = unwrapper_form(decl)
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
    arch: Architecture, partition: Partition, constraints: Iterable[NegPossess] = ()
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
    makers: dict[AgentId, list[tuple[str, str, str]]] = {}
    for a in arch.agents:
        held = {name: arch.type_system.constructor(name) for name in arch.holdings_of(a)}
        targets = {signature_parts(decl)[1] for decl in held.values()}
        for name, decl in held.items():
            form = proof_maker_form(decl)
            if form is None:
                continue
            makers.setdefault(a, []).append((name, *form))
            if Base(form[1]) in targets:
                violations.append(
                    Violation(
                        "p4-proof-compute",
                        (a.name, name),
                        f"{a.name} holds proof-maker {name} but can compute {form[1]}",
                    )
                )
    for (s, r), types in arch.channels.items():
        for name, owner_name, base_name in makers.get(r, ()):
            if s.name != owner_name and Base(base_name) in types:
                violations.append(
                    Violation(
                        "p5-proof-channel",
                        (r.name, name, s.name),
                        f"{r.name} holds proof-maker {name} but receives "
                        f"{base_name} from {s.name}, not {owner_name}",
                    )
                )
    return report(violations)
