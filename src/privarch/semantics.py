"""Trace semantics: what each agent can derive after a sequence of sends.

A trace is a sequence of events (sender, term, atomic type, receiver).
Derivability follows three ideas: an agent derives what it initially holds,
what a valid event delivered to it, and any application of a derivable
constructor to derivable arguments. Possession is monotone along a trace.

One validity pass over a trace checks each distinct event object once, at
its first index, indexes its delivery, and logs each receiver's first
delivery of each type. `TraceWalk.first(agent)` folds an agent's log the
first time the agent is read: its types as a bit mask, closed under its
constructors at each new bit, recording the first prefix at which it
possesses each type. So a constraint check folds only the agents its
constraints read, and a creation constraint reads agents only until one
holds the required type; the state at every prefix comes from those
tables. Witness terms, one canonical term per possessed (agent, type), come
from a separate fold that only `possession_closure` and the explorer's
trace reconstruction run. Both folds, and the explorer, read one table of
constructor rows and channel masks, `TypeRules`, which builds an agent's
rows when they are first read.
"""

from __future__ import annotations

import functools
import heapq
from typing import Any, Callable, Iterable, Mapping, Sequence

from .architecture import Architecture, AgentId
from .terms import (
    App,
    Arrow,
    AtomicType,
    TermExpr,
    TypeExpr,
    CalculusError,
    Record,
    apply,
    infer_type,
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


class Event(Record):
    """One send: `sender` passes `term`, at atomic type `msg_type`, to
    `receiver`. The constructor refuses a self-send and a non-atomic type."""

    __slots__ = __match_args__ = ("sender", "term", "msg_type", "receiver")
    sender: AgentId
    term: TermExpr
    msg_type: AtomicType
    receiver: AgentId

    def __init__(
        self, sender: AgentId, term: TermExpr, msg_type: AtomicType, receiver: AgentId
    ) -> None:
        # A name fixes an agent's kind and owner, so equal names are equal
        # agents; comparing the strings skips `AgentId.__eq__`.
        if sender.name == receiver.name:
            raise EventTypeError(f"event sends {sender.name} to itself")
        if isinstance(msg_type, Arrow):
            raise EventTypeError("events carry atomic types only")
        _set_sender(self, sender)
        _set_term(self, term)
        _set_msg_type(self, msg_type)
        _set_receiver(self, receiver)

    def __str__(self) -> str:
        return (
            f"{self.sender.name} -> {self.receiver.name} : "
            f"{term_to_str(self.term)} : {type_name(self.msg_type)}"
        )


# The slot setters of a frozen Event, which its constructor calls directly.
_set_sender, _set_term, _set_msg_type, _set_receiver = (
    Event.sender.__set__, Event.term.__set__, Event.msg_type.__set__, Event.receiver.__set__
)

Trace = tuple[Event, ...]


class TraceCheck(Record):
    __slots__ = __match_args__ = ("valid", "index", "reason")
    valid: bool
    index: int | None
    reason: str | None
    _defaults = (None, None)

    def __str__(self) -> str:
        if self.valid:
            return "valid"
        return f"invalid at event {self.index}: {self.reason} violation"


def _check_event_structure(
    rules: TypeRules, i: int, e: Event, types: dict[TermExpr, TypeExpr]
) -> tuple[int, int]:
    """The ends' indices in `rules`; raise unless both ends exist and the term
    has the declared type. `types` holds the type of each distinct term met
    so far in this pass, so a repeated term is inferred once. The ends are
    looked up by name, which fixes an agent's kind and owner: a `str` keeps
    its hash, where `AgentId.__hash__` is a Python call."""
    ends = rules.name_idx.get(e.sender.name), rules.name_idx.get(e.receiver.name)
    for end, at in zip((e.sender, e.receiver), ends):
        if at is None:
            raise EventTypeError(f"event {i}: unknown agent {end.name}")
    ty = types.get(e.term)
    if ty is None:
        try:
            ty = types[e.term] = infer_type(rules.type_system, e.term)
        except CalculusError as exc:
            raise EventTypeError(f"event {i}: {exc}") from exc
    if ty is not e.msg_type and ty != e.msg_type:
        raise EventTypeError(
            f"event {i}: term {term_to_str(e.term)} has type {type_name(ty)}, "
            f"not {type_name(e.msg_type)}"
        )
    return ends


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


class Decomposition(Record):
    """How a derivable term came to be possessed: the agent that computed it
    from held constructors, and the chain of event indices (in order) that
    carried the exact term from the computer to the possessing agent."""

    __slots__ = __match_args__ = ("computer", "head", "args", "delivery_chain")
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


Row = tuple[int, int, tuple[int, ...], str]  # one constructor row of TypeRules


class TypeRules:
    """The one table of an architecture's constructor rules, as bit masks.

    Agents are in canonical order (originals before interfaces), indexed by
    agent in `agent_idx` and by name in `name_idx`, and atomic types are bit
    positions in `type_sort_key` order. `rows(agent)` gives the agent's
    constructor rows and the rows that take each type, built on the agent's
    first read, so a trace check builds the rows of the agents it folds and
    no others. `holdings[agent]` is the agent's held constructor names and
    `channels[sender * n + receiver]`, for n agents, the types the channel
    carries, as a mask (0 for no channel).
    `fired` lists the rows that close a possession mask under one agent's
    constructors, in the order one sweep after another fires them;
    `closure` is the union of their targets, memoized per agent and mask.
    `walk_trace` folds a trace's deliveries with it, the witness fold
    builds terms from its rows, and the explorer's search encoding and
    saturation extend it."""

    def __init__(self, arch: Architecture) -> None:
        ts = self.type_system = arch.type_system
        self.agents: list[AgentId] = arch.sorted_agents()
        agent_idx = self.agent_idx = {a: i for i, a in enumerate(self.agents)}
        self.name_idx = {a.name: i for a, i in agent_idx.items()}
        self.types: list[AtomicType] = sorted(ts.atomic_types, key=type_sort_key)
        type_idx = self.type_idx = {t: i for i, t in enumerate(self.types)}
        self.width = len(self.types)
        self.holdings = [arch.holdings_of(a) for a in self.agents]
        self._rows: list[tuple[list[Row], dict[int, list[int]]] | None] = [None] * len(self.agents)
        self._made: dict[str, Row] = {}  # agents that hold a constructor share its row
        # The mask of each type set object, one per distinct set
        # (`Architecture.build`), is worked out once. A type outside the type
        # system sets no bit, and a channel with an undeclared end is left
        # out: no valid event can use either.
        masks: dict[int, int] = {}
        n = len(self.agents)
        self.channels = [0] * (n * n)
        for (s, r), types in arch.channels.items():
            si, ri = agent_idx.get(s), agent_idx.get(r)
            if si is None or ri is None:
                continue
            mask = masks.get(id(types))
            if mask is None:
                mask = masks[id(types)] = sum(1 << type_idx[t] for t in types if t in type_idx)
            self.channels[si * n + ri] = mask
        self._closure_memo: list[dict[int, int]] = [{} for _ in self.agents]

    def rows(self, agent: int) -> tuple[list[Row], dict[int, list[int]]]:
        """Agent index `agent`'s constructors in name order as rows
        (argument mask, target index, argument indices ascending, name), and
        the rows that take each type index, in row order."""
        out = self._rows[agent]
        if out is None:
            rows: list[Row] = []
            uses: dict[int, list[int]] = {}
            for name in sorted(self.holdings[agent]):
                row = self._made.get(name)
                if row is None:
                    args, target = self.type_system.parts(name)
                    arg_idxs = tuple(sorted({self.type_idx[t] for t in args}))
                    mask = sum(1 << idx for idx in arg_idxs)
                    row = self._made[name] = (mask, self.type_idx[target], arg_idxs, name)
                for t in row[2]:
                    uses.setdefault(t, []).append(len(rows))
                rows.append(row)
            out = self._rows[agent] = (rows, uses)
        return out

    def fired(
        self, agent: int, mask: int, new: int | None = None
    ) -> list[tuple[int, tuple[int, ...]]]:
        """The rows that close `mask`, as (target index, argument indices):
        each sweep fires, in row order, every row whose target is new and
        whose arguments are held, until a sweep fires none.

        Rows wait in a queue keyed by (sweep, row). A firing at row j queues
        the rows that take its target, in the same sweep if they come after
        j and in the next otherwise, so the rows fire in the sweeps' order.
        The first sweep visits every row, or, when `mask` without the type
        index `new` is closed, only the rows that take `new`."""
        rows, uses = self.rows(agent)
        n = len(rows)
        queue = list(range(n) if new is None else uses.get(new, ()))
        out = []
        while queue:
            key = heapq.heappop(queue)
            i = key % n
            args_mask, target, arg_idxs, _ = rows[i]
            if (mask >> target) & 1 or (mask & args_mask) != args_mask:
                continue
            mask |= 1 << target
            out.append((target, arg_idxs))
            for j in uses.get(target, ()):
                heapq.heappush(queue, key - i + j if j > i else key - i + n + j)
        return out

    def closure(self, agent: int, mask: int, new: int | None = None) -> int:
        memo = self._closure_memo[agent]
        out = memo.get(mask)
        if out is None:
            out = memo[mask] = mask | sum(1 << t for t, _ in self.fired(agent, mask, new))
        return out


def _close_agent(
    rules: TypeRules, agent: int, owned: dict[AtomicType, TermExpr], candidates: Iterable[int]
) -> None:
    """Saturate one agent's type-level possession in place: whenever every
    argument type of a held constructor is possessed, the target is too.
    Smallest new witness first (by size, then printed form) keeps the choice
    canonical; a candidate is built and printed only to break a size tie.

    `candidates` are row indices into `rules.rows(agent)` and must hold
    every row that may have become applicable since the agent was last
    closed; after that, only the rows that take a newly possessed type can
    become applicable."""
    (rows, uses), types = rules.rows(agent), rules.types
    parts = rules.type_system.parts

    def applicable(idxs: Iterable[int]) -> list[tuple[int, str, tuple[AtomicType, ...], int]]:
        ready = []
        for i in idxs:
            _, target, _, name = rows[i]
            args = parts(name)[0]
            if types[target] not in owned and all(a in owned for a in args):
                ready.append((1 + sum(term_size(owned[a]) for a in args), name, args, target))
        return ready

    ready = applicable(candidates)
    while ready:
        smallest = min(row[0] for row in ready)
        ties = [
            (apply(name, [owned[a] for a in args]), target)
            for size, name, args, target in ready
            if size == smallest
        ]
        term, target = ties[0] if len(ties) == 1 else min(ties, key=lambda c: term_to_str(c[0]))
        owned[types[target]] = term
        ready = [row for row in ready if row[3] != target]
        ready += applicable(uses.get(target, ()))


def seed_witnesses(rules: TypeRules) -> dict[AgentId, dict[AtomicType, TermExpr]]:
    """Each agent's canonical witness per type before any event: what its
    held constructors alone can build."""
    owned: dict[AgentId, dict[AtomicType, TermExpr]] = {}
    for ai, agent in enumerate(rules.agents):
        mine: dict[AtomicType, TermExpr] = {}
        _close_agent(rules, ai, mine, range(len(rules.rows(ai)[0])))
        owned[agent] = mine
    return owned


def receive(
    rules: TypeRules, owned: dict[AgentId, dict[AtomicType, TermExpr]], e: Event
) -> bool:
    """Fold one delivery into `owned`: a receiver with no witness at the
    event's type takes the delivered term and is re-closed. An existing
    witness is never replaced. Returns whether the receiver gained a type."""
    mine = owned[e.receiver]
    if e.msg_type in mine:
        return False
    mine[e.msg_type] = e.term
    ai = rules.agent_idx[e.receiver]
    _close_agent(rules, ai, mine, rules.rows(ai)[1].get(rules.type_idx[e.msg_type], ()))
    return True


def _fold(rules: TypeRules, ai: int, log: list[tuple[int, int]]) -> dict[AtomicType, int]:
    """The first prefix at which agent `ai` possesses each type, by prefix
    then type index, from its first deliveries `log` as (event index, type
    index). The mask starts closed under the agent's held constructors, and
    each first delivery of a type it lacks sets the bit and closes the mask
    with `TypeRules.closure`."""
    closure, types = rules.closure, rules.types
    mine: dict[AtomicType, int] = {}

    def gain(new: int, prefix: int) -> None:
        while new:
            low = new & -new
            new ^= low
            mine[types[low.bit_length() - 1]] = prefix

    mask = closure(ai, 0)
    gain(mask, 0)
    for i, t in log:
        if not (mask >> t) & 1:
            now = closure(ai, mask | 1 << t, t)
            gain(now & ~mask, i + 1)
            mask = now
    return mine


class TraceWalk(Record):
    """What one forward pass over a trace learns, up to its first invalid
    event (the whole trace when `verdict` is valid).

    `delivered` maps, per agent, each term sent to it to its first delivery
    index, and `log[agent index]` lists the agent's first delivery of each
    type as (event index, type index), in order. The pass folds no
    possession: `first(agent)` folds the agent's log with `rules`, the table
    the pass checked with, when the agent is first read, and keeps the
    table in the `_folded` slot. Possession only grows, so these tables give
    the type-level state at every prefix. The walk builds no witness term;
    `possession_closure` folds those with `rules`."""

    __match_args__ = ("verdict", "delivered", "log", "rules")
    __slots__ = (*__match_args__, "_folded")
    verdict: TraceCheck
    delivered: dict[AgentId, dict[TermExpr, int]]
    log: list[list[tuple[int, int]]]
    rules: TypeRules
    _folded: dict[AgentId, dict[AtomicType, int]]

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_folded", {})

    def first(self, agent: AgentId) -> dict[AtomicType, int]:
        """The first prefix at which `agent` possesses each type, by prefix
        then type index: 0 for what its held constructors build. An agent
        outside the architecture possesses nothing."""
        mine = self._folded.get(agent)
        if mine is None:
            ai = self.rules.agent_idx.get(agent)
            mine = self._folded[agent] = {} if ai is None else _fold(self.rules, ai, self.log[ai])
        return mine


def walk_trace(arch: Architecture, events: Sequence[Event]) -> TraceWalk:
    """Check validity and index deliveries in one pass over the distinct
    events, stopping at the first invalid one, and log each receiver's first
    delivery of each type for the possession fold, which runs per agent when
    `TraceWalk.first` first reads it.

    Each event object is checked once, at its first index: a repeat passed
    every check then, its sender can still derive its term since possession
    only grows, and its receiver already has the term indexed and the type
    logged. An equal event that is a different object is checked as usual.
    The pass keys its tables by integers: agent and type indices, and the
    identities of type and term objects. A sender is shown to derive a term
    object once, since what it derives only grows along the trace.

    Structural breakage (unknown agents, ill-typed terms) raises, since the
    verdict reasons are reserved for the two semantic failures: the channel
    does not carry the type, or the sender cannot derive the term.
    """
    return _walk(TypeRules(arch), events)


def _walk(rules: TypeRules, events: Sequence[Event]) -> TraceWalk:
    """`walk_trace` on a table already built for the architecture."""
    agents, holdings, type_idx = rules.agents, rules.holdings, rules.type_idx
    channels, n = rules.channels, len(agents)
    types: dict[TermExpr, TypeExpr] = {}
    type_at: dict[int, int] = {}  # type index by id of the type object
    # Per agent, by its index in `rules`.
    delivered: list[dict[TermExpr, int]] = [{} for _ in agents]
    derived: list[set[int]] = [set() for _ in agents]  # ids of terms shown derivable
    got = [0] * n  # the types delivered so far, as a mask
    log: list[list[tuple[int, int]]] = [[] for _ in agents]

    # The first index of each event object: the last write of a key wins.
    ids = list(map(id, events))
    firsts = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    verdict = TraceCheck(True)
    for i in sorted(firsts.values()):
        e = events[i]
        si, ri = _check_event_structure(rules, i, e, types)
        t = type_at.get(id(e.msg_type))
        if t is None:
            t = type_at[id(e.msg_type)] = type_idx[e.msg_type]
        if not (channels[si * n + ri] >> t) & 1:
            verdict = TraceCheck(False, i, CHANNEL)
            break
        term = e.term
        if id(term) not in derived[si]:
            if not _derivable(holdings[si], delivered[si], i, term):
                verdict = TraceCheck(False, i, POSSESSION)
                break
            derived[si].add(id(term))
        delivered[ri].setdefault(term, i)
        if not (got[ri] >> t) & 1:
            got[ri] |= 1 << t
            log[ri].append((i, t))
    return TraceWalk(verdict, dict(zip(agents, delivered)), log, rules)


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
        mine = seed_witnesses(walk.rules)
        for e in trace:
            receive(walk.rules, mine, e)
        return mine

    first = {a: walk.first(a) for a in walk.rules.agents}
    return [KnowledgeState(first, owned, i) for i in range(len(trace) + 1)]
