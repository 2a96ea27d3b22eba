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
carry one-based line and column. `print_*` functions emit the canonical form:
parse(print(doc)) is structurally equal to doc.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

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
    AtomicType,
    Base,
    Certified,
    ConstructorDecl,
    Proof,
    TermExpr,
    TypeExpr,
    TypeSystem,
    apply,
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


def tokenize(text: str) -> list[Token]:
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


def _statements(tokens: Sequence[Token]) -> list[list[Token]]:
    out: list[list[Token]] = []
    current: list[Token] = []
    for tok in tokens:
        if tok.kind == PUNCT and tok.text == ";":
            if not current:
                raise ParseError("empty statement", tok.line, tok.col)
            out.append(current)
            current = []
        else:
            current.append(tok)
    if current:
        last = current[-1]
        raise ParseError("statement is missing its terminating ';'", last.line, last.col)
    return out


class _Stream:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def _fail(self, message: str) -> ParseError:
        if self.tokens:
            ref = self.tokens[min(self.pos, len(self.tokens) - 1)]
            return ParseError(message, ref.line, ref.col)
        return ParseError(message, 1, 1)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = "end of statement" if tok is None else repr(tok.text)
            raise self._fail(f"expected {want!r}, got {got}" if text else f"expected {want}, got {got}")
        self.pos += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            return None
        self.pos += 1
        return tok

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)


# --- shared grammar pieces ---------------------------------------------------


def _agent_id(tok: Token) -> AgentId:
    name = tok.text
    try:
        if name.startswith("I:"):
            return AgentId(name, INTERFACE, name[2:])
        if name.startswith("O:"):
            return AgentId(name, OUTPUT, name[2:])
        return AgentId(name)
    except ArchitectureError as exc:
        raise ResolveError(str(exc), tok.line, tok.col) from exc


def _parse_type(ts: _Stream) -> tuple[AtomicType, Token]:
    head = ts.expect(IDENT)
    nxt = ts.peek()
    if head.text in ("C", "P") and nxt is not None and nxt.text == "[":
        ts.expect(PUNCT, "[")
        owner = ts.expect(IDENT)
        ts.expect(PUNCT, "]")
        ts.expect(PUNCT, "(")
        inner = ts.expect(IDENT)
        ts.expect(PUNCT, ")")
        wrapper = Certified if head.text == "C" else Proof
        return wrapper(owner.text, inner.text), head
    return Base(head.text), head


def _parse_ctor_name(ts: _Stream) -> tuple[str, Token]:
    head = ts.expect(IDENT)
    name = head.text
    while True:
        nxt = ts.peek()
        if nxt is None or nxt.text != "[":
            return name, head
        ts.expect(PUNCT, "[")
        parts = [ts.expect(IDENT).text]
        while ts.accept(PUNCT, ","):
            parts.append(ts.expect(IDENT).text)
        ts.expect(PUNCT, "]")
        name += "[" + ",".join(parts) + "]"


def _parse_term(ts: _Stream) -> TermExpr:
    name, _ = _parse_ctor_name(ts)
    if ts.accept(PUNCT, "(") is None:
        return apply(name, [])
    args = [_parse_term(ts)]
    while ts.accept(PUNCT, ","):
        args.append(_parse_term(ts))
    ts.expect(PUNCT, ")")
    return apply(name, args)


def parse_term(text: str) -> TermExpr:
    """Parse one prefix-notation term, e.g. `pi[X,A](m[X,A](payload))`."""
    ts = _Stream(tokenize(text))
    term = _parse_term(ts)
    ts.done()
    return term


def parse_type(text: str) -> AtomicType:
    """Parse one atomic type, e.g. `INFO` or `C[Website](INFO)`."""
    ts = _Stream(tokenize(text))
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
    declared_types: dict[AtomicType, Token] = {}
    agents: dict[str, AgentId] = {}
    agent_tokens: dict[str, Token] = {}
    holdings: dict[AgentId, set[str]] = {}
    ctor_sigs: dict[str, tuple[TypeExpr, Token]] = {}
    channel_types: dict[tuple[AgentId, AgentId], set[AtomicType]] = {}
    raw_channels: list[tuple[Token, Token, list[tuple[AtomicType, Token]]]] = []
    raw_constraints: list[_Stream] = []
    raw_holds: list[tuple[Token, list[tuple[str, Token, list[tuple[AtomicType, Token]]]]]] = []
    options: dict[str, tuple[int, Token]] = {}

    for stmt in _statements(tokenize(text)):
        ts = _Stream(stmt)
        head = ts.expect(IDENT)
        if head.text == "types":
            while True:
                ty, tok = _parse_type(ts)
                if ty in declared_types:
                    raise ResolveError(f"duplicate type {type_name(ty)}", tok.line, tok.col)
                declared_types[ty] = tok
                if not ts.accept(PUNCT, ","):
                    break
            ts.done()
        elif head.text == "agent":
            name_tok = ts.expect(IDENT)
            if name_tok.text in agents:
                raise ResolveError(f"duplicate agent {name_tok.text}", name_tok.line, name_tok.col)
            agents[name_tok.text] = _agent_id(name_tok)
            agent_tokens[name_tok.text] = name_tok
            entries: list[tuple[str, Token, list[tuple[AtomicType, Token]]]] = []
            if ts.accept(IDENT, "holds"):
                while True:
                    ctor, ctor_tok = _parse_ctor_name(ts)
                    ts.expect(PUNCT, ":")
                    parts = [_parse_type(ts)]
                    while ts.accept(PUNCT, "->"):
                        parts.append(_parse_type(ts))
                    entries.append((ctor, ctor_tok, parts))
                    if not ts.accept(PUNCT, ","):
                        break
            ts.done()
            raw_holds.append((name_tok, entries))
        elif head.text == "channel":
            sender = ts.expect(IDENT)
            ts.expect(PUNCT, "->")
            receiver = ts.expect(IDENT)
            ts.expect(PUNCT, ":")
            entries = [_parse_type(ts)]
            while ts.accept(PUNCT, ","):
                entries.append(_parse_type(ts))
            ts.done()
            raw_channels.append((sender, receiver, entries))
        elif head.text == "constraint":
            raw_constraints.append(ts)
        elif head.text == "option":
            name_tok = ts.expect(IDENT)
            ts.expect(PUNCT, "=")
            value_tok = ts.expect(NUMBER)
            ts.done()
            if name_tok.text in options:
                raise ResolveError(f"duplicate option {name_tok.text}", name_tok.line, name_tok.col)
            try:
                value = int(value_tok.text)
            except ValueError:  # past the interpreter's digit limit
                raise ParseError(
                    f"number too long ({len(value_tok.text)} digits)", value_tok.line, value_tok.col
                ) from None
            options[name_tok.text] = (value, name_tok)
        else:
            raise ParseError(
                f"unknown statement {head.text!r} (expected types, agent, "
                "channel, constraint or option)",
                head.line,
                head.col,
            )

    def require_type(ty: AtomicType, tok: Token) -> AtomicType:
        if ty not in declared_types:
            raise ResolveError(f"undeclared type {type_name(ty)}", tok.line, tok.col)
        return ty

    def require_agent(tok: Token) -> AgentId:
        agent = agents.get(tok.text)
        if agent is None:
            raise ResolveError(f"undeclared agent {tok.text}", tok.line, tok.col)
        return agent

    # Constructors: every declaration site must agree on the signature.
    for name_tok, entries in raw_holds:
        agent = agents[name_tok.text]
        mine = holdings.setdefault(agent, set())
        for ctor, ctor_tok, parts in entries:
            for ty, tok in parts:
                require_type(ty, tok)
            sig = make_signature([ty for ty, _ in parts[:-1]], parts[-1][0])
            known = ctor_sigs.get(ctor)
            if known is not None and known[0] != sig:
                raise ResolveError(
                    f"constructor {ctor} redeclared with a different signature "
                    f"(first declared at line {known[1].line})",
                    ctor_tok.line,
                    ctor_tok.col,
                )
            if known is None:
                ctor_sigs[ctor] = (sig, ctor_tok)
            if ctor in mine:
                raise ResolveError(
                    f"agent {agent.name} lists constructor {ctor} twice",
                    ctor_tok.line,
                    ctor_tok.col,
                )
            mine.add(ctor)

    for sender_tok, receiver_tok, entries in raw_channels:
        sender = require_agent(sender_tok)
        receiver = require_agent(receiver_tok)
        if sender == receiver:
            raise ResolveError(
                f"channel from {sender.name} to itself", sender_tok.line, sender_tok.col
            )
        bucket = channel_types.setdefault((sender, receiver), set())
        for ty, tok in entries:
            bucket.add(require_type(ty, tok))

    constraints: list[Constraint] = []
    for ts in raw_constraints:
        first = ts.peek()
        try:
            if first is not None and first.text == "pos":
                ts.expect(IDENT, "pos")
                ts.expect(PUNCT, "(")
                subject = require_agent(ts.expect(IDENT))
                ts.expect(PUNCT, ",")
                ty, tok = _parse_type(ts)
                ts.expect(PUNCT, ")")
                ts.done()
                constraints.append(Positive(subject, require_type(ty, tok)))
            elif first is not None and first.text == "local":
                ts.expect(IDENT, "local")
                sender = require_agent(ts.expect(IDENT))
                ts.expect(PUNCT, "->")
                receiver = require_agent(ts.expect(IDENT))
                ts.expect(PUNCT, ":")
                ty, tok = _parse_type(ts)
                ts.expect(IDENT, "prev")
                prev = require_agent(ts.expect(IDENT))
                ts.done()
                constraints.append(LocalSend(sender, require_type(ty, tok), receiver, prev))
            else:
                subject = require_agent(ts.expect(IDENT))
                ts.expect(IDENT, "ni")
                trig, trig_tok = _parse_type(ts)
                ts.expect(PUNCT, "=>")
                mark = ts.pos
                holder_tok = ts.expect(IDENT)
                if ts.accept(IDENT, "ni"):
                    holder = require_agent(holder_tok)
                    req, req_tok = _parse_type(ts)
                    ts.done()
                    constraints.append(
                        NegPossess(
                            subject,
                            require_type(trig, trig_tok),
                            holder,
                            require_type(req, req_tok),
                        )
                    )
                else:
                    ts.pos = mark
                    req, req_tok = _parse_type(ts)
                    ts.done()
                    constraints.append(
                        NegCreate(
                            subject,
                            require_type(trig, trig_tok),
                            require_type(req, req_tok),
                        )
                    )
        except ConstraintError as exc:
            raise ResolveError(str(exc), first.line, first.col) from exc

    config = SynthesisConfig()
    for name, (value, tok) in options.items():
        if name == "algorithm":
            if value not in (1, 2):
                raise ResolveError("algorithm must be 1 or 2", tok.line, tok.col)
            config = replace(config, algorithm=value)
        elif name == "m_family_cap":
            if value < 1:
                raise ResolveError("m_family_cap must be positive", tok.line, tok.col)
            config = replace(config, m_family_cap=value)
        else:
            raise ResolveError(f"unknown option {name}", tok.line, tok.col)

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

    types = sorted(ts.atomic_types, key=type_sort_key)
    if types:
        sections.append(["types " + ", ".join(type_name(t) for t in types) + ";"])

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
    for (s, r), tys in sorted(
        arch.channels.items(), key=lambda kv: (kv[0][0].sort_key, kv[0][1].sort_key)
    ):
        names = ", ".join(type_name(t) for t in sorted(tys, key=type_sort_key))
        channel_lines.append(f"channel {s.name} -> {r.name} : {names};")
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
    events: list[Event] = []
    for stmt in _statements(tokenize(text)):
        ts = _Stream(stmt)
        sender_tok = ts.expect(IDENT)
        ts.expect(PUNCT, "->")
        receiver_tok = ts.expect(IDENT)
        ts.expect(PUNCT, ":")
        term = _parse_term(ts)
        ts.expect(PUNCT, ":")
        ty, ty_tok = _parse_type(ts)
        ts.done()
        try:
            sender = arch.agent_named(sender_tok.text)
        except ArchitectureError as exc:
            raise ResolveError(str(exc), sender_tok.line, sender_tok.col) from exc
        try:
            receiver = arch.agent_named(receiver_tok.text)
        except ArchitectureError as exc:
            raise ResolveError(str(exc), receiver_tok.line, receiver_tok.col) from exc
        try:
            events.append(Event(sender, term, ty, receiver))
        except TraceError as exc:
            raise ResolveError(str(exc), sender_tok.line, sender_tok.col) from exc
    return tuple(events)


def print_trace(trace: Trace) -> str:
    if not trace:
        return ""
    return "\n".join(f"{e};" for e in trace) + "\n"


# --- partitions --------------------------------------------------------------


def parse_partition(text: str, arch: Architecture) -> Partition:
    """Each statement is `cell Owner: member, member;`."""
    owner_map: dict[AgentId, AgentId] = {}
    for stmt in _statements(tokenize(text)):
        ts = _Stream(stmt)
        ts.expect(IDENT, "cell")
        owner_tok = ts.expect(IDENT)
        ts.expect(PUNCT, ":")
        member_toks = [ts.expect(IDENT)]
        while ts.accept(PUNCT, ","):
            member_toks.append(ts.expect(IDENT))
        ts.done()
        try:
            owner = arch.agent_named(owner_tok.text)
        except ArchitectureError as exc:
            raise ResolveError(str(exc), owner_tok.line, owner_tok.col) from exc
        for tok in member_toks:
            try:
                member = arch.agent_named(tok.text)
            except ArchitectureError as exc:
                raise ResolveError(str(exc), tok.line, tok.col) from exc
            if member in owner_map:
                raise ResolveError(
                    f"agent {member.name} appears in more than one cell", tok.line, tok.col
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
    grants: list[Grant] = []
    for stmt in _statements(tokenize(text)):
        ts = _Stream(stmt)
        ts.expect(IDENT, "grant")
        input_tok = ts.expect(IDENT)
        ts.expect(PUNCT, "->")
        output_tok = ts.expect(IDENT)
        ts.expect(PUNCT, ":")
        ty, ty_tok = _parse_type(ts)
        ts.done()
        try:
            input_agent = arch.agent_named(input_tok.text)
        except ArchitectureError as exc:
            raise ResolveError(str(exc), input_tok.line, input_tok.col) from exc
        try:
            output_agent = arch.agent_named(output_tok.text)
        except ArchitectureError as exc:
            raise ResolveError(str(exc), output_tok.line, output_tok.col) from exc
        if ty not in arch.type_system.atomic_types:
            raise ResolveError(f"undeclared type {type_name(ty)}", ty_tok.line, ty_tok.col)
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
