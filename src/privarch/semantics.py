"""Trace semantics: what each agent can derive after a sequence of sends.

A trace is a sequence of events (sender, term, atomic type, receiver).
Derivability follows three ideas: an agent derives what it initially holds,
what a valid event delivered to it, and any application of a derivable
constructor to derivable arguments. Possession is monotone along a trace.

One walk over a trace checks each event, indexes its delivery and folds it
into possession, recording when each agent first possesses each type; the
state at every prefix is read from those tables. The walk folds types as bit
masks and skips an event object it has already walked. Witness terms, one
canonical term per possessed (agent, type), come from a separate fold that
only `possession_closure` and the explorer's trace reconstruction run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

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
    """A trace that is not valid where a valid one is required. Its one
    argument is the TraceCheck verdict, which is also its message."""

    @property
    def verdict(self) -> TraceCheck:
        return self.args[0]


class NotDerivable(TraceError):
    pass


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """One send: `sender` passes `term`, at atomic type `msg_type`, to
    `receiver`. The constructor refuses a self-send and a non-atomic type;
    `__reduce__` keeps pickling independent of the slots support of the
    Python version's dataclasses."""

    sender: AgentId
    term: TermExpr
    msg_type: AtomicType
    receiver: AgentId

    def __init__(
        self, sender: AgentId, term: TermExpr, msg_type: AtomicType, receiver: AgentId
    ) -> None:
        if sender == receiver:
            raise EventTypeError(f"event sends {sender.name} to itself")
        if not is_atomic(msg_type):
            raise EventTypeError("events carry atomic types only")
        init = object.__setattr__
        init(self, "sender", sender)
        init(self, "term", term)
        init(self, "msg_type", msg_type)
        init(self, "receiver", receiver)

    def __reduce__(self) -> tuple:
        return (Event, (self.sender, self.term, self.msg_type, self.receiver))

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
    delivered = _valid_walk(arch, events).delivered
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
    delivered = _valid_walk(arch, events).delivered
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


class KnowledgeState:
    """Type-level possession per agent after the first `prefix` events of a
    valid trace, with one canonical witness term per (agent, type).
    `first[agent][type]` is the first prefix at which the agent possesses the
    type, from the trace's walk. `owned()` returns each agent's witnesses
    after the whole trace, from the witness fold, which runs when a witness
    is first read. Witnesses are assigned once, smallest candidate first (by
    term size, then printed form), and never replaced, so a state reads the
    final witnesses, keeping those possessed by its prefix. `possessed` and
    `witnesses` are built on each access."""

    __slots__ = ("_first", "_owned", "prefix")

    def __init__(
        self,
        first: Mapping[AgentId, Mapping[AtomicType, int]],
        owned: Callable[[], Mapping[AgentId, Mapping[AtomicType, TermExpr]]],
        prefix: int,
    ) -> None:
        self._first = first
        self._owned = owned
        self.prefix = prefix

    def types_of(self, agent: AgentId) -> frozenset[AtomicType]:
        return frozenset(
            t for t, k in self._first.get(agent, {}).items() if k <= self.prefix
        )

    def witness(self, agent: AgentId, ty: AtomicType) -> TermExpr:
        if self._first.get(agent, {}).get(ty, self.prefix + 1) > self.prefix:
            raise KeyError((agent, ty))
        return self._owned()[agent][ty]

    @property
    def possessed(self) -> dict[AgentId, frozenset[AtomicType]]:
        """Each agent that possesses some type, with its types."""
        return {a: tys for a in self._first if (tys := self.types_of(a))}

    @property
    def witnesses(self) -> dict[tuple[AgentId, AtomicType], TermExpr]:
        return {
            (a, t): w
            for a, mine in self._owned().items()
            for t, w in mine.items()
            if self._first[a][t] <= self.prefix
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeState):
            return NotImplemented
        return (self.possessed, self.witnesses) == (other.possessed, other.witnesses)

    def __repr__(self) -> str:
        return f"KnowledgeState(possessed={self.possessed!r}, witnesses={self.witnesses!r})"


class TypeRules:
    """The type level of an architecture's constructors, as bit masks.

    Agents are in canonical order (originals before interfaces) and atomic
    types are bit positions in `type_sort_key` order. `ctors[agent]` holds
    the agent's constructors in name order as rows (argument mask, target
    index, argument indices ascending). `fired` lists the rows that close a
    possession mask under one agent's constructors, in the order one sweep
    after another fires them; `closure` is the union of their targets,
    memoized per agent and mask. `walk_trace` folds a trace with it, and the
    explorer's search encoding and saturation extend it."""

    def __init__(self, arch: Architecture) -> None:
        ts = arch.type_system
        self.agents: list[AgentId] = arch.sorted_agents()
        self.agent_idx = {a: i for i, a in enumerate(self.agents)}
        self.types: list[AtomicType] = sorted(ts.atomic_types, key=type_sort_key)
        self.type_idx = {t: i for i, t in enumerate(self.types)}
        self.width = len(self.types)
        self.ctors: list[list[tuple[int, int, tuple[int, ...]]]] = []
        for a in self.agents:
            rows = []
            for name in sorted(arch.holdings_of(a)):
                args, target = ts.parts(name)
                arg_idxs = tuple(sorted({self.type_idx[t] for t in args}))
                mask = sum(1 << idx for idx in arg_idxs)
                rows.append((mask, self.type_idx[target], arg_idxs))
            self.ctors.append(rows)
        self._closure_memo: list[dict[int, int]] = [{} for _ in self.agents]

    def fired(self, agent: int, mask: int) -> list[tuple[int, tuple[int, ...]]]:
        """The rows that close `mask`, as (target index, argument indices):
        each sweep fires, in row order, every row whose target is new and
        whose arguments are held, until a sweep fires none."""
        out = []
        changed = True
        while changed:
            changed = False
            for args_mask, target, arg_idxs in self.ctors[agent]:
                if not (mask >> target) & 1 and (mask & args_mask) == args_mask:
                    mask |= 1 << target
                    out.append((target, arg_idxs))
                    changed = True
        return out

    def closure(self, agent: int, mask: int) -> int:
        memo = self._closure_memo[agent]
        out = memo.get(mask)
        if out is None:
            out = memo[mask] = mask | sum(1 << t for t, _ in self.fired(agent, mask))
        return out


Rule = tuple[str, tuple[AtomicType, ...], AtomicType]
# One agent's rules: every row, and the rows that take each type as an argument.
AgentRules = tuple[list[Rule], dict[AtomicType, list[Rule]]]


def constructor_rules(arch: Architecture) -> dict[AgentId, AgentRules]:
    """Each agent's held constructors as (name, argument types, target)
    rows, sorted by name, for every agent in sorted order. The witness fold
    builds them once and passes them to every step."""
    ts = arch.type_system
    rules: dict[AgentId, AgentRules] = {}
    for agent in arch.sorted_agents():
        rows: list[Rule] = [
            (n, *ts.parts(n)) for n in sorted(arch.holdings_of(agent))
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


@dataclass(frozen=True)
class TraceWalk:
    """What one forward pass over a trace learns, up to its first invalid
    event (the whole trace when `verdict` is valid).

    `delivered` maps, per agent, each term sent to it to its first delivery
    index. `first[agent][type]` is the first prefix at which the agent
    possesses the type (0 for what its held constructors build), and
    `first_any[type]` the first prefix at which some agent does. Possession
    only grows, so these tables give the type-level state at every prefix.
    The walk builds no witness term; `possession_closure` folds those."""

    verdict: TraceCheck
    delivered: dict[AgentId, dict[TermExpr, int]]
    first: dict[AgentId, dict[AtomicType, int]]
    first_any: dict[AtomicType, int]


def walk_trace(arch: Architecture, events: Sequence[Event]) -> TraceWalk:
    """Check validity, index deliveries and fold type-level possession in
    one loop over the events, stopping at the first invalid one.

    Each agent's possession is a bit mask over `TypeRules`, closed under its
    constructors when a delivery sets a new bit. An event object already
    walked is skipped: it passed every check then, its sender can still
    derive its term since possession only grows, and its receiver already
    has the term indexed and the type possessed. An equal event that is a
    different object is walked as usual.

    Structural breakage (unknown agents, ill-typed terms) raises, since the
    verdict reasons are reserved for the two semantic failures: the channel
    does not carry the type, or the sender cannot derive the term.
    """
    delivered: dict[AgentId, dict[TermExpr, int]] = {a: {} for a in arch.agents}
    types: dict[TermExpr, TypeExpr] = {}
    rules = TypeRules(arch)
    agent_idx, type_list, closure = rules.agent_idx, rules.types, rules.closure
    bit_of = {t: 1 << i for i, t in enumerate(type_list)}
    held: dict[AgentId, int] = {}
    first: dict[AgentId, dict[AtomicType, int]] = {}
    first_any: dict[AtomicType, int] = {}

    def gain(agent: AgentId, new: int, prefix: int) -> None:
        mine = first[agent]
        while new:
            low = new & -new
            new ^= low
            t = type_list[low.bit_length() - 1]
            mine[t] = prefix
            first_any.setdefault(t, prefix)

    for ai, agent in enumerate(rules.agents):
        held[agent] = closure(ai, 0)
        first[agent] = {}
        gain(agent, held[agent], 0)

    walked: set[int] = set()
    verdict = TraceCheck(True)
    for i, e in enumerate(events):
        if id(e) in walked:
            continue
        _check_event_structure(arch, i, e, types)
        if e.msg_type not in arch.channel_types(e.sender, e.receiver):
            verdict = TraceCheck(False, i, CHANNEL)
            break
        if not _derivable(arch.holdings_of(e.sender), delivered[e.sender], i, e.term):
            verdict = TraceCheck(False, i, POSSESSION)
            break
        walked.add(id(e))
        receiver = e.receiver
        delivered[receiver].setdefault(e.term, i)
        had = held[receiver]
        bit = bit_of[e.msg_type]
        if not had & bit:
            now = held[receiver] = closure(agent_idx[receiver], had | bit)
            gain(receiver, now & ~had, i + 1)
    return TraceWalk(verdict, delivered, first, first_any)


def _valid_walk(arch: Architecture, events: Sequence[Event]) -> TraceWalk:
    walk = walk_trace(arch, events)
    if not walk.verdict.valid:
        raise InvalidTraceError(walk.verdict)
    return walk


def check_trace_valid(arch: Architecture, events: Sequence[Event]) -> TraceCheck:
    """Verdict-valued validity check; pinpoints the first offending event.
    Structural breakage raises, as in `walk_trace`."""
    return walk_trace(arch, events).verdict


def possession_closure(arch: Architecture, events: Sequence[Event]) -> list[KnowledgeState]:
    """One KnowledgeState per prefix (length of trace plus one); raises
    InvalidTraceError on an invalid trace.

    The types each agent possesses at each prefix come from one `walk_trace`.
    The witness terms come from a second loop over the valid trace, the
    witness fold `reconstruct_trace` also runs, made when a state first
    reads a witness: each agent starts with what its held constructors can
    build; an event gives its receiver the delivered term at its type, and
    the receiver's set is re-closed. Sound and complete for type-level
    possession against the derivability judgement.
    """
    walk = _valid_walk(arch, events)
    trace = tuple(events)

    # Witnesses are read by few callers (the explorer reads types only), so
    # the fold runs once, when the first state reads one.
    @functools.cache
    def owned() -> dict[AgentId, dict[AtomicType, TermExpr]]:
        rules = constructor_rules(arch)
        mine = seed_witnesses(rules)
        for e in trace:
            receive(rules, mine, e)
        return mine

    return [KnowledgeState(walk.first, owned, i) for i in range(len(trace) + 1)]
