"""Trace semantics: what each agent can derive after a sequence of sends.

A trace is a sequence of events (sender, term, atomic type, receiver).
Derivability follows three ideas: an agent derives what it initially holds,
what a valid event delivered to it, and any application of a derivable
constructor to derivable arguments. Possession is monotone along a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .architecture import Architecture, AgentId
from .terms import (
    App,
    AtomicType,
    TermExpr,
    TypeExpr,
    CalculusError,
    apply,
    infer_type,
    is_atomic,
    make_signature,
    signature_parts,
    term_size,
    term_to_str,
    type_name,
    type_sort_key,
    uncurry,
)

CHANNEL = "channel"
POSSESSION = "possession"


class TraceError(Exception):
    pass


class EventTypeError(TraceError):
    """The event is structurally broken: unknown agent, non-atomic message
    type, or a term that does not type-check at the declared type."""


class InvalidTraceError(TraceError):
    pass


class NotDerivable(TraceError):
    pass


@dataclass(frozen=True)
class Event:
    sender: AgentId
    term: TermExpr
    msg_type: AtomicType
    receiver: AgentId

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise EventTypeError(f"event sends {self.sender.name} to itself")
        if not is_atomic(self.msg_type):
            raise EventTypeError("events carry atomic types only")

    def __str__(self) -> str:
        return (
            f"{self.sender.name} -> {self.receiver.name} : "
            f"{term_to_str(self.term)} : {type_name(self.msg_type)}"
        )


Trace = tuple[Event, ...]


def as_trace(events: Iterable[Event]) -> Trace:
    return tuple(events)


@dataclass(frozen=True)
class TraceCheck:
    valid: bool
    index: int | None = None
    reason: str | None = None

    def __str__(self) -> str:
        if self.valid:
            return "valid"
        return f"invalid at event {self.index}: {self.reason} violation"


def _check_event_structure(
    arch: Architecture, i: int, e: Event, types: dict[TermExpr, TypeExpr]
) -> None:
    """Raise unless both ends of the event exist and its term has the
    declared type. `types` holds the type of each distinct term met so far
    in this pass, so a repeated term is inferred once."""
    for end in (e.sender, e.receiver):
        if end not in arch.agents:
            raise EventTypeError(f"event {i}: unknown agent {end.name}")
    ty = types.get(e.term)
    if ty is None:
        try:
            ty = types[e.term] = infer_type(arch.type_system, e.term)
        except CalculusError as exc:
            raise EventTypeError(f"event {i}: {exc}") from exc
    if ty != e.msg_type:
        raise EventTypeError(
            f"event {i}: term {term_to_str(e.term)} has type {type_name(ty)}, "
            f"not {type_name(e.msg_type)}"
        )


def _derivable(
    held: frozenset[str], delivered: Mapping[TermExpr, int], length: int, term: TermExpr
) -> bool:
    """Whether an agent derives `term` after the first `length` events of a
    trace that is valid up to there.

    `held` is the agent's constructors and `delivered` maps each term sent to
    it to its first delivery index. A term is derivable when it arrived
    before `length`, or when its head is held and every argument is
    derivable. Every earlier sender could derive what it sent, since that
    event passed the validity check, so a delivery needs no look further back.
    The recursion follows term structure only.
    """
    first = delivered.get(term)
    if first is not None and first < length:
        return True
    if isinstance(term, App):
        return _derivable(held, delivered, length, term.fun) and _derivable(
            held, delivered, length, term.arg
        )
    return term.name in held


def _index_trace(
    arch: Architecture, events: Sequence[Event]
) -> tuple[TraceCheck, dict[AgentId, dict[TermExpr, int]]]:
    """One forward pass: the validity verdict plus, per agent, the first
    delivery index of every term that reached it in the valid prefix."""
    delivered: dict[AgentId, dict[TermExpr, int]] = {a: {} for a in arch.agents}
    types: dict[TermExpr, TypeExpr] = {}
    for i, e in enumerate(events):
        _check_event_structure(arch, i, e, types)
        if e.msg_type not in arch.channel_types(e.sender, e.receiver):
            return TraceCheck(False, i, CHANNEL), delivered
        if not _derivable(arch.holdings_of(e.sender), delivered[e.sender], i, e.term):
            return TraceCheck(False, i, POSSESSION), delivered
        delivered[e.receiver].setdefault(e.term, i)
    return TraceCheck(True), delivered


def _indexed_valid_trace(
    arch: Architecture, events: Sequence[Event]
) -> dict[AgentId, dict[TermExpr, int]]:
    verdict, delivered = _index_trace(arch, events)
    if not verdict.valid:
        raise InvalidTraceError(str(verdict))
    return delivered


def check_trace_valid(arch: Architecture, events: Sequence[Event]) -> TraceCheck:
    """Verdict-valued validity check; pinpoints the first offending event.

    Structural breakage (unknown agents, ill-typed terms) raises instead,
    since the verdict reasons are reserved for the two semantic failures:
    the channel does not carry the type, or the sender cannot derive the term.
    """
    return _index_trace(arch, events)[0]


def derives(
    arch: Architecture,
    events: Sequence[Event],
    agent: AgentId,
    term: TermExpr,
    ty: TypeExpr,
) -> bool:
    """Decide whether the agent derives `term : ty` after the whole trace.

    The trace must be valid (raises InvalidTraceError otherwise). A term that
    does not type-check, or checks at a different type, is simply not
    derivable at `ty`.
    """
    delivered = _indexed_valid_trace(arch, events)
    if agent not in arch.agents:
        raise EventTypeError(f"unknown agent {agent.name}")
    try:
        inferred = infer_type(arch.type_system, term)
    except CalculusError:
        return False
    if inferred != ty:
        return False
    return _derivable(arch.holdings_of(agent), delivered[agent], len(events), term)


@dataclass(frozen=True)
class Decomposition:
    """How a derivable term came to be possessed: the agent that computed it
    from held constructors, and the chain of event indices (in order) that
    carried the exact term from the computer to the possessing agent."""

    computer: AgentId
    head: str
    args: tuple[TermExpr, ...]
    delivery_chain: tuple[int, ...]


def generation_decompose(
    arch: Architecture, events: Sequence[Event], agent: AgentId, term: TermExpr
) -> Decomposition:
    """Follow the term back from `agent` to the agent that computed it.

    While the current holder cannot build the term itself at the current
    prefix, the chain steps to the latest delivery of the term to the holder
    before that prefix, and on to its sender. Each step ends the prefix
    earlier, so one backward sweep over the events finds the whole chain.
    """
    delivered = _indexed_valid_trace(arch, events)
    head, args = uncurry(term)
    holder, length, chain = agent, len(events), []
    while True:
        held = arch.holdings_of(holder)
        if head in held and all(
            _derivable(held, delivered.get(holder, {}), length, a) for a in args
        ):
            break
        k = length - 1
        while k >= 0 and not (events[k].receiver == holder and events[k].term == term):
            k -= 1
        if k < 0:
            raise NotDerivable(f"{holder.name} cannot derive {term_to_str(term)}")
        chain.append(k)
        holder, length = events[k].sender, k
    chain.reverse()
    return Decomposition(holder, head, args, tuple(chain))


@dataclass(frozen=True)
class KnowledgeState:
    """Type-level possession per agent after some prefix, with one canonical
    witness term per (agent, type). Witnesses are assigned once, smallest
    candidate first (by term size, then printed form), and never replaced."""

    possessed: Mapping[AgentId, frozenset[AtomicType]]
    witnesses: Mapping[tuple[AgentId, AtomicType], TermExpr]

    def types_of(self, agent: AgentId) -> frozenset[AtomicType]:
        return self.possessed.get(agent, frozenset())

    def witness(self, agent: AgentId, ty: AtomicType) -> TermExpr:
        return self.witnesses[(agent, ty)]


Rule = tuple[str, tuple[AtomicType, ...], AtomicType]
# One agent's rules: every row, and the rows that take each type as an argument.
AgentRules = tuple[list[Rule], dict[AtomicType, list[Rule]]]


def constructor_rules(arch: Architecture) -> dict[AgentId, AgentRules]:
    """Each agent's held constructors as (name, argument types, target)
    rows, sorted by name, for every agent in sorted order. A possession fold
    builds them once and passes them to every step."""
    ts = arch.type_system
    rules: dict[AgentId, AgentRules] = {}
    for agent in arch.sorted_agents():
        rows: list[Rule] = [
            (n, *signature_parts(ts.constructor(n))) for n in sorted(arch.holdings_of(agent))
        ]
        uses: dict[AtomicType, list[Rule]] = {}
        for row in rows:
            for a in dict.fromkeys(row[1]):
                uses.setdefault(a, []).append(row)
        rules[agent] = (rows, uses)
    return rules


def _close_agent(
    uses: Mapping[AtomicType, list[Rule]],
    owned: dict[AtomicType, TermExpr],
    candidates: Iterable[Rule],
) -> None:
    """Saturate one agent's type-level possession in place: whenever every
    argument type of a held constructor is possessed, the target is too.
    Smallest new witness first (by size, then printed form) keeps the choice
    canonical; a candidate is built and printed only to break a size tie.

    `candidates` must hold every row that may have become applicable since
    the agent was last closed; after that, only the rows that take a newly
    possessed type can become applicable."""

    def applicable(rows: Iterable[Rule]) -> list[tuple[int, Rule]]:
        return [
            (1 + sum(term_size(owned[a]) for a in row[1]), row)
            for row in rows
            if row[2] not in owned and all(a in owned for a in row[1])
        ]

    ready = applicable(candidates)
    while ready:
        smallest = min(size for size, _ in ready)
        ties = [
            (apply(name, [owned[a] for a in args]), target)
            for size, (name, args, target) in ready
            if size == smallest
        ]
        term, target = ties[0] if len(ties) == 1 else min(ties, key=lambda c: term_to_str(c[0]))
        owned[target] = term
        ready = [(size, row) for size, row in ready if row[2] != target]
        ready += applicable(uses.get(target, ()))


def seed_witnesses(
    rules: Mapping[AgentId, AgentRules]
) -> dict[AgentId, dict[AtomicType, TermExpr]]:
    """Each agent's canonical witness per type before any event: what its
    held constructors alone can build."""
    owned: dict[AgentId, dict[AtomicType, TermExpr]] = {}
    for agent, (rows, uses) in rules.items():
        mine: dict[AtomicType, TermExpr] = {}
        _close_agent(uses, mine, rows)
        owned[agent] = mine
    return owned


def receive(
    rules: Mapping[AgentId, AgentRules],
    owned: dict[AgentId, dict[AtomicType, TermExpr]],
    e: Event,
) -> bool:
    """Fold one delivery into `owned`: a receiver with no witness at the
    event's type takes the delivered term and is re-closed. An existing
    witness is never replaced. Returns whether the receiver gained a type."""
    mine = owned[e.receiver]
    if e.msg_type in mine:
        return False
    mine[e.msg_type] = e.term
    uses = rules[e.receiver][1]
    _close_agent(uses, mine, uses.get(e.msg_type, ()))
    return True


def possession_closure(arch: Architecture, events: Sequence[Event]) -> list[KnowledgeState]:
    """One KnowledgeState per prefix (length of trace plus one).

    Seeds each agent with what its held constructors can build, then folds
    events: the receiver gains the delivered term at its type and the
    receiver's set is re-closed. Sound and complete for type-level
    possession against the derivability judgement. An event that gives its
    receiver no new type repeats the previous state object.
    """
    verdict = check_trace_valid(arch, events)
    if not verdict.valid:
        raise InvalidTraceError(str(verdict))
    rules = constructor_rules(arch)
    owned = seed_witnesses(rules)
    possessed = {a: frozenset(m) for a, m in owned.items() if m}
    witnesses = {(a, t): w for a, m in owned.items() for t, w in m.items()}
    states = [KnowledgeState(possessed, witnesses)]
    for e in events:
        if not receive(rules, owned, e):
            states.append(states[-1])
            continue
        mine = owned[e.receiver]
        # Earlier states keep their maps; only the receiver's entries change.
        possessed = dict(possessed)
        possessed[e.receiver] = frozenset(mine)
        witnesses = dict(witnesses)
        witnesses.update(((e.receiver, t), w) for t, w in mine.items())
        states.append(KnowledgeState(possessed, witnesses))
    return states
