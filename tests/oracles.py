"""Independent oracles the property suites compare the engine against.

The possession oracle enumerates every well-typed term an agent can build,
bottom up by term size, from its initial constructors and the messages it
has received. It shares no code with the closure in the package: no
memoization, no witness bookkeeping, just a fixpoint over a term pool.
Completeness holds up to the size bound, which is why the random-instance
generator rejects instances whose closure witnesses exceed that bound.

The derivability reference decides each judgement by scanning the trace
backwards from the prefix, the direct reading of the derivation rules. It
costs O(L) per lookup and recurses once per delivery, so it serves only as
the reference the package's delivery-index semantics is compared against.
The closure reference stores every prefix's state in full; the package
reads each prefix from the tables of one walk. The rule-firing reference
sweeps every constructor row until nothing fires; the package queues only
the rows that take a newly held type.

The tokenizer reference walks the text one character at a time and tracks
line and column as it goes; the package tokenizes with one regular
expression and finds positions only when it raises. The property-test
harnesses for weakening and arrow possession close the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from privarch import (
    App,
    Architecture,
    AgentId,
    AtomicType,
    CalculusError,
    Con,
    Decomposition,
    Event,
    EventTypeError,
    InvalidTraceError,
    NotDerivable,
    ParseError,
    TermExpr,
    TraceCheck,
    TypeExpr,
    apply,
    derives,
    infer_type,
    signature_parts,
    term_size,
    term_to_str,
    uncurry,
)
from privarch.semantics import TypeRules, receive, seed_witnesses
from privarch.terms import is_atomic

DEFAULT_MAX_SIZE = 6


def derivable_pool(
    arch: Architecture,
    agent: AgentId,
    received: list[tuple[TermExpr, AtomicType]],
    max_size: int = DEFAULT_MAX_SIZE,
) -> dict[TermExpr, AtomicType]:
    """Every (term, atomic type) the agent can derive, term size capped."""
    pool: dict[TermExpr, AtomicType] = {}
    for term, ty in received:
        if term_size(term) <= max_size:
            pool[term] = ty
    decls = [arch.type_system.constructor(n) for n in arch.holdings_of(agent)]
    grew = True
    while grew:
        grew = False
        for decl in decls:
            args, target = signature_parts(decl)
            candidates: list[list[TermExpr]] = [[]]
            for arg_ty in args:
                matching = [t for t, ty in pool.items() if ty == arg_ty]
                candidates = [prefix + [t] for prefix in candidates for t in matching]
            for chosen in candidates:
                term = apply(decl.name, chosen)
                if term_size(term) > max_size or term in pool:
                    continue
                pool[term] = target
                grew = True
    return pool


def oracle_types(
    arch: Architecture,
    agent: AgentId,
    received: list[tuple[TermExpr, AtomicType]],
    max_size: int = DEFAULT_MAX_SIZE,
) -> frozenset[AtomicType]:
    return frozenset(derivable_pool(arch, agent, received, max_size).values())


def oracle_possession(
    arch: Architecture, events: list[Event], max_size: int = DEFAULT_MAX_SIZE
) -> list[dict[AgentId, frozenset[AtomicType]]]:
    """Per-prefix possession sets, one dict per prefix length 0..len(events)."""
    states = []
    for i in range(len(events) + 1):
        prefix = events[:i]
        per_agent = {}
        for agent in arch.agents:
            received = [(e.term, e.msg_type) for e in prefix if e.receiver == agent]
            per_agent[agent] = oracle_types(arch, agent, received, max_size)
        states.append(per_agent)
    return states


def reference_fired(rules: TypeRules, agent: int, mask: int) -> list[tuple[int, tuple[int, ...]]]:
    """`TypeRules.fired` as a plain sweep: each sweep fires, in row order,
    every row whose target is new and whose arguments are held, until a
    sweep fires none. Every call re-scans all of the agent's rows; the
    package queues only the rows a firing can enable."""
    out = []
    changed = True
    while changed:
        changed = False
        for args_mask, target, arg_idxs, _ in rules.ctors[agent]:
            if not (mask >> target) & 1 and (mask & args_mask) == args_mask:
                mask |= 1 << target
                out.append((target, arg_idxs))
                changed = True
    return out


def global_term_of_type(
    arch: Architecture, ty: AtomicType, max_size: int = DEFAULT_MAX_SIZE
) -> TermExpr | None:
    """Smallest term of the given type buildable from all constructors at
    once, ignoring which agent holds what. Used to craft corrupted events."""
    pool: dict[TermExpr, AtomicType] = {}
    decls = list(arch.type_system.constructors)
    grew = True
    while grew:
        grew = False
        for decl in decls:
            args, target = signature_parts(decl)
            candidates: list[list[TermExpr]] = [[]]
            for arg_ty in args:
                matching = [t for t, t_ty in pool.items() if t_ty == arg_ty]
                candidates = [prefix + [t] for prefix in candidates for t in matching]
            for chosen in candidates:
                term = apply(decl.name, chosen)
                if term_size(term) > max_size or term in pool:
                    continue
                pool[term] = target
                grew = True
    best = None
    for term, t_ty in pool.items():
        if t_ty == ty and (best is None or term_size(term) < term_size(best)):
            best = term
    return best


# ---------------------------------------------------------------------------
# derivability reference: backward scans over the trace


class _DeriveEngine:
    """Decision procedure for 'after the first L events, agent derives term'.

    A term is derivable at L when its head constructor is initially held and
    every argument is derivable at L, or when some earlier event delivered
    exactly this term to the agent and the sender could derive it before
    sending. The recursion terminates because delivery steps strictly
    decrease the prefix length and computation steps decrease the term.
    """

    def __init__(self, arch: Architecture, events: Sequence[Event]):
        self.arch = arch
        self.events = list(events)
        self._memo: dict[tuple[int, AgentId, TermExpr], bool] = {}

    def derivable(self, length: int, agent: AgentId, term: TermExpr) -> bool:
        key = (length, agent, term)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._memo[key] = False  # cycle guard; real deliveries strictly descend
        result = self._compute(length, agent, term)
        self._memo[key] = result
        return result

    def _compute(self, length: int, agent: AgentId, term: TermExpr) -> bool:
        match term:
            case Con(name):
                if name in self.arch.holdings_of(agent):
                    return True
            case App(fun, arg):
                if self.derivable(length, agent, fun) and self.derivable(length, agent, arg):
                    return True
        for k in range(length - 1, -1, -1):
            e = self.events[k]
            if e.receiver == agent and e.term == term:
                if self.derivable(k, e.sender, term):
                    return True
        return False


def reference_check_trace_valid(arch: Architecture, events: Sequence[Event]) -> TraceCheck:
    engine = _DeriveEngine(arch, events)
    for i, e in enumerate(events):
        for end in (e.sender, e.receiver):
            if end not in arch.agents:
                raise EventTypeError(f"event {i}: unknown agent {end.name}")
        if infer_type(arch.type_system, e.term) != e.msg_type:
            raise EventTypeError(f"event {i}: term does not have the declared type")
        if e.msg_type not in arch.channel_types(e.sender, e.receiver):
            return TraceCheck(False, i, "channel")
        if not engine.derivable(i, e.sender, e.term):
            return TraceCheck(False, i, "possession")
    return TraceCheck(True)


def _require_valid(arch: Architecture, events: Sequence[Event]) -> None:
    verdict = reference_check_trace_valid(arch, events)
    if not verdict.valid:
        raise InvalidTraceError(verdict)


def reference_derives(
    arch: Architecture,
    events: Sequence[Event],
    agent: AgentId,
    term: TermExpr,
    ty: TypeExpr,
) -> bool:
    _require_valid(arch, events)
    try:
        inferred = infer_type(arch.type_system, term)
    except CalculusError:
        return False
    if inferred != ty:
        return False
    return _DeriveEngine(arch, events).derivable(len(events), agent, term)


def reference_decompose(
    arch: Architecture, events: Sequence[Event], agent: AgentId, term: TermExpr
) -> Decomposition:
    _require_valid(arch, events)
    engine = _DeriveEngine(arch, events)
    head, args = uncurry(term)

    def locate(length: int, holder: AgentId) -> tuple[AgentId, list[int]]:
        if head in arch.holdings_of(holder) and all(
            engine.derivable(length, holder, a) for a in args
        ):
            return holder, []
        for k in range(length - 1, -1, -1):
            e = events[k]
            if e.receiver == holder and e.term == term:
                if engine.derivable(k, e.sender, term):
                    computer, chain = locate(k, e.sender)
                    return computer, chain + [k]
        raise NotDerivable(f"{holder.name} cannot derive {term_to_str(term)}")

    computer, chain = locate(len(events), agent)
    return Decomposition(computer, head, args, tuple(chain))


# ---------------------------------------------------------------------------
# tokenizer reference: one character at a time


IDENT = "ident"
NUMBER = "number"
PUNCT = "punct"


@dataclass(frozen=True)
class ReferenceState:
    """One prefix's type-level possession, stored in full."""

    possessed: dict[AgentId, frozenset[AtomicType]]
    witnesses: dict[tuple[AgentId, AtomicType], TermExpr]

    def types_of(self, agent: AgentId) -> frozenset[AtomicType]:
        return self.possessed.get(agent, frozenset())


def reference_possession_closure(
    arch: Architecture, events: Sequence[Event]
) -> list[ReferenceState]:
    """The possession fold with a full state per prefix: each event that
    gives its receiver a new type copies both maps, and an event that gives
    none repeats the previous state. It shares the package's per-agent fold
    (`seed_witnesses`, `receive`) but not its trace walk, and validates with
    the backward-scan reference."""
    _require_valid(arch, events)
    rules = TypeRules(arch)
    owned = seed_witnesses(rules)
    possessed = {a: frozenset(m) for a, m in owned.items() if m}
    witnesses = {(a, t): w for a, m in owned.items() for t, w in m.items()}
    states = [ReferenceState(possessed, witnesses)]
    for e in events:
        if not receive(rules, owned, e):
            states.append(states[-1])
            continue
        mine = owned[e.receiver]
        possessed = {**possessed, e.receiver: frozenset(mine)}
        witnesses = {**witnesses, **{(e.receiver, t): w for t, w in mine.items()}}
        states.append(ReferenceState(possessed, witnesses))
    return states


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_PUNCT_TWO = ("->", "=>")
_PUNCT_ONE = "[](),:;="


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def reference_tokenize(text: str) -> list[Token]:
    """The character-by-character tokenizer `privarch.dsl.tokenize` must
    agree with: the same token texts, or the same error at the same line
    and column."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i : i + 2] in _PUNCT_TWO:
            tokens.append(Token(PUNCT, text[i : i + 2], line, col))
            i, col = i + 2, col + 2
            continue
        if _is_ident_start(ch):
            start = i
            while i < n and _is_ident_char(text[i]):
                i += 1
            word = text[start:i]
            # Reserved interface prefixes fuse into one identifier.
            if word in ("I", "O") and i < n and text[i] == ":" and i + 1 < n and _is_ident_start(text[i + 1]):
                i += 1
                rest = i
                while i < n and _is_ident_char(text[i]):
                    i += 1
                word = f"{word}:{text[rest:i]}"
            tokens.append(Token(IDENT, word, line, col))
            col += i - start
            continue
        if ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(Token(NUMBER, text[start:i], line, col))
            col += i - start
            continue
        if ch in _PUNCT_ONE:
            tokens.append(Token(PUNCT, ch, line, col))
            i, col = i + 1, col + 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


# ---------------------------------------------------------------------------
# property-test harnesses


def weakening_holds(
    arch: Architecture,
    prefix: Sequence[Event],
    extension: Sequence[Event],
    agent: AgentId,
    term: TermExpr,
    ty: TypeExpr,
) -> bool:
    """Anything derivable after `prefix` stays derivable after appending
    `extension`; vacuously true when the judgement does not hold at the
    prefix."""
    if not derives(arch, prefix, agent, term, ty):
        return True
    return derives(arch, tuple(prefix) + tuple(extension), agent, term, ty)


def arrow_possession_is_initial(arch: Architecture, events: Sequence[Event]) -> bool:
    """A bare constructor of arrow type is derivable only by its initial
    holders, no matter the trace."""
    for agent in arch.agents:
        for decl in arch.type_system.constructors:
            if is_atomic(decl.signature):
                continue
            held = decl.name in arch.holdings_of(agent)
            derived = derives(arch, events, agent, Con(decl.name), decl.signature)
            if held != derived:
                return False
    return True
