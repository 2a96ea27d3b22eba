"""Text format for architectures, traces, partitions, and grant lists.

The format is statement-oriented: `#` starts a comment, every statement ends
with `;` and may span lines. A spec document holds four statement kinds:

    types INFO, POLICY, C[Website](INFO);
    agent Website holds policy: POLICY;
    channel Child -> Website : INFO;
    constraint Website ni INFO => Website ni CONSENT;
    option algorithm = 1;

Constructors are declared inside `holds` clauses; when several agents hold
the same constructor they must restate an identical signature. Interface
agents are written with their reserved prefixes (`I:Website`, `O:Website`).
Constraint forms mirror their printed shapes: `X ni A => B` (no creation),
`X ni A => Y ni B` (no possession), `pos(X, A)` (reachability goal) and
`local I -> O : T prev X` (gated send).

Parsing is two-pass: statements are tokenized and shaped first (ParseError),
then names are resolved against the declarations (ResolveError). Both errors
carry one-based line and column. Tokens are plain strings from one regular
expression pass and the parser keeps token indices; positions are found on
the error path, by scanning the text again up to the offending token.
Each call keeps its own tables, keyed by token tuples, so a channel type
list or trace payload that repeats is parsed and resolved once; a table
fills only after a successful parse, so every error keeps its position.
`print_*` functions emit the canonical form: parse(print(doc)) is
structurally equal to doc.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable

from .architecture import (
    Architecture,
    AgentId,
    ArchitectureError,
    INTERFACE,
    OUTPUT,
    validate_architecture,
)
from .constraints import (
    Constraint,
    ConstraintError,
    LocalSend,
    NegCreate,
    NegPossess,
    Positive,
)
from .semantics import Event, Trace, TraceError
from .synthesis import Grant, SynthesisConfig
from .terms import (
    App,
    AtomicType,
    Base,
    Certified,
    Con,
    ConstructorDecl,
    Proof,
    TermExpr,
    TypeExpr,
    TypeSetText,
    TypeSystem,
    make_signature,
    type_name,
    type_sort_key,
)
from .verifier import Partition


class DslError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ParseError(DslError):
    pass


class ResolveError(DslError):
    pass


# --- tokens ------------------------------------------------------------------

IDENT = "ident"
NUMBER = "number"
PUNCT = "punct"

_BLANKS = r"[ \t\r\n]+|#[^\n]*"
# `I:` and `O:` fuse with the identifier after them into one agent name.
_TOKEN = r"->|=>|[\[\](),:;=]|(?:[IO]:(?=[^\W\d]))?[^\W\d]\w*|\d+"
# Skips blanks and comments, then takes one token or one stray character.
# The token group is optional, so the blank loop never backtracks; the
# pattern avoids possessive and atomic forms, which Python 3.10 lacks.
_SCAN = re.compile(rf"(?:{_BLANKS})*({_TOKEN}|[^ \t\r\n])?")
_PUNCT = frozenset(("->", "=>", *"[](),:;="))


def _bad_offset(tok: str) -> int:
    """Offset of the character in `tok` that starts no token, or -1."""
    k = 2 if tok[:2] in ("I:", "O:") else 0
    ch = tok[k]
    return -1 if tok in _PUNCT or ch.isalpha() or ch == "_" or ch.isdecimal() else k


def tokenize(text: str) -> list[str]:
    """The token texts of `text`, in order. Raises ParseError at the first
    character that starts no token."""
    tokens = _SCAN.findall(text)
    while tokens and not tokens[-1]:  # matches that only skip trailing blanks
        tokens.pop()
    # A stray character comes back as a token of its own, and `[^\W\d]`
    # also admits numerals such as '²' that str.isalpha rejects. A document
    # repeats a few dozen distinct tokens, so each is checked once.
    bad = [tok for tok in set(tokens) if _bad_offset(tok) >= 0]
    if bad:
        i = min(map(tokens.index, bad))
        k = _bad_offset(tokens[i])
        raise ParseError(f"unexpected character {tokens[i][k]!r}", *_where(text, i, k))
    return tokens


def _where(text: str, i: int, offset: int = 0) -> tuple[int, int]:
    """One-based line and column of token `i` of `text` (plus `offset`
    characters), found by scanning the text again. Only errors ask."""
    pos = next(islice(_SCAN.finditer(text), i, None)).start(1) + offset
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _kind(tok: str) -> str:
    ch = tok[0]
    if ch.isalpha() or ch == "_":
        return IDENT
    return NUMBER if ch.isdecimal() else PUNCT


class _Stream:
    """One statement: the window [pos, end) of its document's token list.
    Parsers keep token indices and turn one into a position only to raise."""

    __slots__ = ("text", "tokens", "pos", "end")

    def __init__(self, text: str, tokens: list[str], pos: int = 0, end: int | None = None):
        self.text = text
        self.tokens = tokens
        self.pos = pos
        self.end = len(tokens) if end is None else end

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < self.end else None

    def error(self, cls: type[DslError], message: str, i: int) -> DslError:
        return cls(message, *_where(self.text, i))

    def _fail(self, message: str) -> ParseError:
        tok = self.peek()
        got = "end of statement" if tok is None else repr(tok)
        if self.end == 0:
            return ParseError(f"{message}, got {got}", 1, 1)
        return self.error(ParseError, f"{message}, got {got}", min(self.pos, self.end - 1))

    def expect(self, text: str) -> int:
        """Consume the token `text` and return its index."""
        i = self.pos
        if i >= self.end or self.tokens[i] != text:
            raise self._fail(f"expected {text!r}")
        self.pos = i + 1
        return i

    def expect_kind(self, kind: str) -> int:
        """Consume an IDENT or NUMBER token and return its index."""
        i = self.pos
        if i >= self.end or _kind(self.tokens[i]) != kind:
            raise self._fail(f"expected {kind}")
        self.pos = i + 1
        return i

    def accept(self, text: str) -> bool:
        if self.pos < self.end and self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def done(self) -> None:
        if self.pos < self.end:
            raise self.error(ParseError, f"unexpected trailing {self.tokens[self.pos]!r}", self.pos)


def _statements(text: str, tokens: list[str]) -> list[_Stream]:
    """Every `;`-terminated statement, all found before any is parsed."""
    out: list[_Stream] = []
    start, n = 0, len(tokens)
    while start < n:
        try:
            end = tokens.index(";", start)
        except ValueError:
            raise ParseError(
                "statement is missing its terminating ';'", *_where(text, n - 1)
            ) from None
        if end == start:
            raise ParseError("empty statement", *_where(text, end))
        out.append(_Stream(text, tokens, start, end))
        start = end + 1
    return out


# --- shared grammar pieces ---------------------------------------------------


def _agent_id(ts: _Stream, i: int) -> AgentId:
    name = ts.tokens[i]
    try:
        if name.startswith("I:"):
            return AgentId(name, INTERFACE, name[2:])
        if name.startswith("O:"):
            return AgentId(name, OUTPUT, name[2:])
        return AgentId(name)
    except ArchitectureError as exc:
        raise ts.error(ResolveError, str(exc), i) from exc


def _known_agent(ts: _Stream, arch: Architecture, i: int) -> AgentId:
    """The agent of `arch` named by token i, or a ResolveError at that token."""
    try:
        return arch.agent_named(ts.tokens[i])
    except ArchitectureError as exc:
        raise ts.error(ResolveError, str(exc), i) from exc


def _parse_type(ts: _Stream) -> tuple[AtomicType, int]:
    tokens = ts.tokens
    head = ts.expect_kind(IDENT)
    name = tokens[head]
    if name in ("C", "P") and ts.peek() == "[":
        ts.expect("[")
        owner = tokens[ts.expect_kind(IDENT)]
        ts.expect("]")
        ts.expect("(")
        inner = tokens[ts.expect_kind(IDENT)]
        ts.expect(")")
        wrapper = Certified if name == "C" else Proof
        return wrapper(owner, inner), head
    return Base(name), head


def _parse_ctor_name(ts: _Stream) -> tuple[str, int]:
    tokens = ts.tokens
    head = ts.expect_kind(IDENT)
    name = tokens[head]
    while ts.accept("["):
        parts = [tokens[ts.expect_kind(IDENT)]]
        while ts.accept(","):
            parts.append(tokens[ts.expect_kind(IDENT)])
        ts.expect("]")
        name += "[" + ",".join(parts) + "]"
    return name, head


def _parse_term(ts: _Stream, shared: dict[TermExpr, TermExpr]) -> TermExpr:
    """Each node is looked up in `shared`, so equal subterms parsed with one
    table are one object."""
    name, _ = _parse_ctor_name(ts)
    term: TermExpr = Con(name)
    term = shared.setdefault(term, term)
    if ts.accept("("):
        while True:
            node = App(term, _parse_term(ts, shared))
            term = shared.setdefault(node, node)
            if not ts.accept(","):
                break
        ts.expect(")")
    return term


def parse_term(text: str) -> TermExpr:
    """Parse one prefix-notation term, e.g. `pi[X,A](m[X,A](payload))`."""
    ts = _Stream(text, tokenize(text))
    term = _parse_term(ts, {})
    ts.done()
    return term


def parse_type(text: str) -> AtomicType:
    """Parse one atomic type, e.g. `INFO` or `C[Website](INFO)`."""
    ts = _Stream(text, tokenize(text))
    ty, _ = _parse_type(ts)
    ts.done()
    return ty


# --- spec documents ----------------------------------------------------------


_CONSTRAINT_RANK = {NegCreate: 0, NegPossess: 1, Positive: 2, LocalSend: 3}


def constraint_sort_key(c: Constraint) -> tuple[int, str]:
    return (_CONSTRAINT_RANK[type(c)], str(c))


def canonical_constraints(constraints: Iterable[Constraint]) -> tuple[Constraint, ...]:
    return tuple(sorted(set(constraints), key=constraint_sort_key))


@dataclass(frozen=True)
class SpecDocument:
    """One parsed spec file: the architecture, its constraints in canonical
    order, and synthesis options."""

    architecture: Architecture
    constraints: tuple[Constraint, ...]
    options: SynthesisConfig = SynthesisConfig()

    @property
    def type_system(self) -> TypeSystem:
        return self.architecture.type_system

    @staticmethod
    def build(
        architecture: Architecture,
        constraints: Iterable[Constraint] = (),
        options: SynthesisConfig = SynthesisConfig(),
    ) -> "SpecDocument":
        return SpecDocument(architecture, canonical_constraints(constraints), options)


def parse_spec(text: str) -> SpecDocument:
    tokens = tokenize(text)
    declared_types: dict[AtomicType, int] = {}
    agents: dict[str, AgentId] = {}
    holdings: dict[AgentId, set[str]] = {}
    ctor_sigs: dict[str, tuple[TypeExpr, int]] = {}
    channel_types: dict[tuple[AgentId, AgentId], frozenset[AtomicType]] = {}
    # Each distinct type list, keyed by its tokens, and the channels naming it.
    type_lists: dict[tuple[str, ...], int] = {}
    list_entries: list[list[tuple[AtomicType, int]]] = []
    raw_channels: list[tuple[int, int, int]] = []
    raw_constraints: list[_Stream] = []
    raw_holds: list[tuple[str, list[tuple[str, int, list[tuple[AtomicType, int]]]]]] = []
    options: dict[str, tuple[int, int]] = {}

    for ts in _statements(text, tokens):
        head = ts.expect_kind(IDENT)
        keyword = tokens[head]
        if keyword == "types":
            while True:
                ty, i = _parse_type(ts)
                if ty in declared_types:
                    raise ts.error(ResolveError, f"duplicate type {type_name(ty)}", i)
                declared_types[ty] = i
                if not ts.accept(","):
                    break
            ts.done()
        elif keyword == "agent":
            name_i = ts.expect_kind(IDENT)
            name = tokens[name_i]
            if name in agents:
                raise ts.error(ResolveError, f"duplicate agent {name}", name_i)
            agents[name] = _agent_id(ts, name_i)
            entries: list[tuple[str, int, list[tuple[AtomicType, int]]]] = []
            if ts.accept("holds"):
                while True:
                    ctor, ctor_i = _parse_ctor_name(ts)
                    ts.expect(":")
                    parts = [_parse_type(ts)]
                    while ts.accept("->"):
                        parts.append(_parse_type(ts))
                    entries.append((ctor, ctor_i, parts))
                    if not ts.accept(","):
                        break
            ts.done()
            raw_holds.append((name, entries))
        elif keyword == "channel":
            sender = ts.expect_kind(IDENT)
            ts.expect("->")
            receiver = ts.expect_kind(IDENT)
            ts.expect(":")
            key = tuple(tokens[ts.pos : ts.end])
            k = type_lists.get(key)
            if k is None:
                entries = [_parse_type(ts)]
                while ts.accept(","):
                    entries.append(_parse_type(ts))
                ts.done()
                k = type_lists[key] = len(list_entries)
                list_entries.append(entries)
            raw_channels.append((sender, receiver, k))
        elif keyword == "constraint":
            raw_constraints.append(ts)
        elif keyword == "option":
            name_i = ts.expect_kind(IDENT)
            ts.expect("=")
            value_i = ts.expect_kind(NUMBER)
            ts.done()
            name, digits = tokens[name_i], tokens[value_i]
            if name in options:
                raise ts.error(ResolveError, f"duplicate option {name}", name_i)
            try:
                value = int(digits)
            except ValueError:  # past the interpreter's digit limit
                raise ts.error(ParseError, f"number too long ({len(digits)} digits)", value_i) from None
            options[name] = (value, name_i)
        else:
            raise ts.error(
                ParseError,
                f"unknown statement {keyword!r} (expected types, agent, "
                "channel, constraint or option)",
                head,
            )

    def require_type(ty: AtomicType, i: int) -> AtomicType:
        if ty not in declared_types:
            raise ResolveError(f"undeclared type {type_name(ty)}", *_where(text, i))
        return ty

    def require_agent(i: int) -> AgentId:
        agent = agents.get(tokens[i])
        if agent is None:
            raise ResolveError(f"undeclared agent {tokens[i]}", *_where(text, i))
        return agent

    # Constructors: every declaration site must agree on the signature.
    for name, entries in raw_holds:
        agent = agents[name]
        mine = holdings.setdefault(agent, set())
        for ctor, ctor_i, parts in entries:
            for ty, i in parts:
                require_type(ty, i)
            sig = make_signature([ty for ty, _ in parts[:-1]], parts[-1][0])
            known = ctor_sigs.get(ctor)
            if known is not None and known[0] != sig:
                first_line, _ = _where(text, known[1])
                raise ResolveError(
                    f"constructor {ctor} redeclared with a different signature "
                    f"(first declared at line {first_line})",
                    *_where(text, ctor_i),
                )
            if known is None:
                ctor_sigs[ctor] = (sig, ctor_i)
            if ctor in mine:
                raise ResolveError(
                    f"agent {agent.name} lists constructor {ctor} twice", *_where(text, ctor_i)
                )
            mine.add(ctor)

    # A list is resolved where it first occurs, so an error names that site.
    list_types: list[frozenset[AtomicType] | None] = [None] * len(list_entries)
    for sender_i, receiver_i, k in raw_channels:
        sender = require_agent(sender_i)
        receiver = require_agent(receiver_i)
        if sender == receiver:
            raise ResolveError(f"channel from {sender.name} to itself", *_where(text, sender_i))
        types = list_types[k]
        if types is None:
            types = list_types[k] = frozenset(require_type(ty, i) for ty, i in list_entries[k])
        pair = (sender, receiver)
        known = channel_types.get(pair)
        channel_types[pair] = types if known is None else known | types

    constraints: list[Constraint] = []
    for ts in raw_constraints:
        first = ts.pos
        try:
            if ts.peek() == "pos":
                ts.expect("pos")
                ts.expect("(")
                subject = require_agent(ts.expect_kind(IDENT))
                ts.expect(",")
                ty, i = _parse_type(ts)
                ts.expect(")")
                ts.done()
                constraints.append(Positive(subject, require_type(ty, i)))
            elif ts.peek() == "local":
                ts.expect("local")
                sender = require_agent(ts.expect_kind(IDENT))
                ts.expect("->")
                receiver = require_agent(ts.expect_kind(IDENT))
                ts.expect(":")
                ty, i = _parse_type(ts)
                ts.expect("prev")
                prev = require_agent(ts.expect_kind(IDENT))
                ts.done()
                constraints.append(LocalSend(sender, require_type(ty, i), receiver, prev))
            else:
                subject = require_agent(ts.expect_kind(IDENT))
                ts.expect("ni")
                trig, trig_i = _parse_type(ts)
                ts.expect("=>")
                mark = ts.pos
                holder_i = ts.expect_kind(IDENT)
                if ts.accept("ni"):
                    holder = require_agent(holder_i)
                    req, req_i = _parse_type(ts)
                    ts.done()
                    constraints.append(
                        NegPossess(
                            subject,
                            require_type(trig, trig_i),
                            holder,
                            require_type(req, req_i),
                        )
                    )
                else:
                    ts.pos = mark
                    req, req_i = _parse_type(ts)
                    ts.done()
                    constraints.append(
                        NegCreate(
                            subject,
                            require_type(trig, trig_i),
                            require_type(req, req_i),
                        )
                    )
        except ConstraintError as exc:
            raise ts.error(ResolveError, str(exc), first) from exc

    config = SynthesisConfig()
    for name, (value, i) in options.items():
        if name == "algorithm":
            if value not in (1, 2):
                raise ResolveError("algorithm must be 1 or 2", *_where(text, i))
            config = replace(config, algorithm=value)
        elif name == "m_family_cap":
            if value < 1:
                raise ResolveError("m_family_cap must be positive", *_where(text, i))
            config = replace(config, m_family_cap=value)
        else:
            raise ResolveError(f"unknown option {name}", *_where(text, i))

    type_system = TypeSystem.build(declared_types, (
        ConstructorDecl(name, sig) for name, (sig, _) in ctor_sigs.items()
    ))
    arch = Architecture.build(type_system, agents.values(), holdings, channel_types)
    report = validate_architecture(arch)
    if not report.passed:
        raise ResolveError(f"invalid architecture: {report.lines()[0]}", 1, 1)
    return SpecDocument.build(arch, constraints, config)


def print_spec(doc: SpecDocument) -> str:
    arch = doc.architecture
    ts = arch.type_system
    sections: list[list[str]] = []

    joined = TypeSetText(ts.atomic_types, ", ".join)
    if joined.names:
        sections.append(["types " + ", ".join(joined.names) + ";"])

    agent_lines = []
    for a in arch.sorted_agents():
        held = sorted(arch.holdings_of(a))
        if held:
            decls = ", ".join(
                f"{name}: {type_name(ts.constructor(name).signature)}" for name in held
            )
            agent_lines.append(f"agent {a.name} holds {decls};")
        else:
            agent_lines.append(f"agent {a.name};")
    if agent_lines:
        sections.append(agent_lines)

    channel_lines = []
    for (s, r), tys in arch.sorted_channels():
        channel_lines.append(f"channel {s.name} -> {r.name} : {joined(tys)};")
    if channel_lines:
        sections.append(channel_lines)

    if doc.constraints:
        sections.append([f"constraint {c};" for c in canonical_constraints(doc.constraints)])

    defaults = SynthesisConfig()
    option_lines = []
    if doc.options.algorithm != defaults.algorithm:
        option_lines.append(f"option algorithm = {doc.options.algorithm};")
    if doc.options.m_family_cap != defaults.m_family_cap:
        option_lines.append(f"option m_family_cap = {doc.options.m_family_cap};")
    if option_lines:
        sections.append(option_lines)

    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"


# --- traces ------------------------------------------------------------------


def parse_trace(text: str, arch: Architecture) -> Trace:
    """Each statement is `Sender -> Receiver : term : TYPE;`. Agents must
    exist in the architecture; terms are resolved structurally and validated
    later by the trace checker."""
    tokens = tokenize(text)
    events: list[Event] = []
    # Each distinct `term : TYPE`, keyed by its tokens; agents resolve per event.
    payloads: dict[tuple[str, ...], tuple[TermExpr, AtomicType]] = {}
    # Equal subterms of different payloads are one object too.
    shared: dict[TermExpr, TermExpr] = {}
    for ts in _statements(text, tokens):
        sender_i = ts.expect_kind(IDENT)
        ts.expect("->")
        receiver_i = ts.expect_kind(IDENT)
        ts.expect(":")
        key = tuple(tokens[ts.pos : ts.end])
        payload = payloads.get(key)
        if payload is None:
            term = _parse_term(ts, shared)
            ts.expect(":")
            ty, _ = _parse_type(ts)
            ts.done()
            payload = payloads[key] = (term, ty)
        term, ty = payload
        sender = _known_agent(ts, arch, sender_i)
        receiver = _known_agent(ts, arch, receiver_i)
        try:
            events.append(Event(sender, term, ty, receiver))
        except TraceError as exc:
            raise ts.error(ResolveError, str(exc), sender_i) from exc
    return tuple(events)


def print_trace(trace: Trace) -> str:
    if not trace:
        return ""
    return "\n".join(f"{e};" for e in trace) + "\n"


# --- partitions --------------------------------------------------------------


def parse_partition(text: str, arch: Architecture) -> Partition:
    """Each statement is `cell Owner: member, member;`."""
    tokens = tokenize(text)
    owner_map: dict[AgentId, AgentId] = {}
    for ts in _statements(text, tokens):
        ts.expect("cell")
        owner_i = ts.expect_kind(IDENT)
        ts.expect(":")
        member_is = [ts.expect_kind(IDENT)]
        while ts.accept(","):
            member_is.append(ts.expect_kind(IDENT))
        ts.done()
        owner = _known_agent(ts, arch, owner_i)
        for i in member_is:
            member = _known_agent(ts, arch, i)
            if member in owner_map:
                raise ts.error(
                    ResolveError, f"agent {member.name} appears in more than one cell", i
                )
            owner_map[member] = owner
    return Partition(owner_map)


def print_partition(partition: Partition) -> str:
    cells: dict[AgentId, list[AgentId]] = {}
    for member, owner in partition.owner.items():
        cells.setdefault(owner, []).append(member)
    lines = []
    for owner in sorted(cells, key=lambda a: a.sort_key):
        members = ", ".join(m.name for m in sorted(cells[owner], key=lambda a: a.sort_key))
        lines.append(f"cell {owner.name}: {members};")
    return "\n".join(lines) + ("\n" if lines else "")


# --- grants ------------------------------------------------------------------


def parse_grants(text: str, arch: Architecture) -> tuple[Grant, ...]:
    """Each statement is `grant I:Owner -> O:Owner : TYPE;`."""
    tokens = tokenize(text)
    grants: list[Grant] = []
    for ts in _statements(text, tokens):
        ts.expect("grant")
        input_i = ts.expect_kind(IDENT)
        ts.expect("->")
        output_i = ts.expect_kind(IDENT)
        ts.expect(":")
        ty, ty_i = _parse_type(ts)
        ts.done()
        input_agent = _known_agent(ts, arch, input_i)
        output_agent = _known_agent(ts, arch, output_i)
        if ty not in arch.type_system.atomic_types:
            raise ts.error(ResolveError, f"undeclared type {type_name(ty)}", ty_i)
        grants.append(Grant(input_agent, ty, output_agent))
    return tuple(dict.fromkeys(grants))


def print_grants(grants: Iterable[Grant]) -> str:
    ordered = sorted(
        dict.fromkeys(grants),
        key=lambda g: (g.input_agent.name, type_sort_key(g.msg_type)),
    )
    lines = [
        f"grant {g.input_agent.name} -> {g.output_agent.name} : {type_name(g.msg_type)};"
        for g in ordered
    ]
    return "\n".join(lines) + ("\n" if lines else "")
