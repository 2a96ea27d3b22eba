"""Text format for architectures, traces, partitions, and grant lists.

The format is statement-oriented: `#` starts a comment, every statement ends
with `;` and may span lines. A spec document holds five statement kinds:

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

Two readers share the work; which one reads a document depends only on its
spelling once each `#` comment is blanked to as many spaces (so offsets,
lines and columns stay put). The printed-form reader takes a spec or trace
whole when every statement is spelled as `print_spec` and `print_trace`
write it (single spaces, ASCII names) and names only what an earlier
statement declared. It splits the text at every `;` in one call, reads each
distinct statement once and resolves names on the spot, so events hold the
architecture's own agents and types and a repeated statement is one event.
It never raises, so it keeps no positions: on any surprise (another
spelling, a name declared after its use or not at all, a duplicate, a
failed check) it gives up, and the token reader reads the document from its
first statement, so every error and its line and column come from there.
Constraints and options, which the pattern heads (`_FAST_SPEC`,
`_FAST_EVENT`) do not cover, are shaped by the token reader's grammar in
both.

The token reader splits statements off one at a time, so an error blames
the first statement that cannot be read. A spec takes two passes: shapes in
document order (ParseError, and ResolveError for a duplicate declaration),
then names against the declarations (ResolveError), constraints included.
Traces, partitions and grant lists resolve a statement's names once it is
shaped. Each statement's tokens are read once, in one scan, when its reader
is made, and their offsets are found again only to raise. A character that
starts no token is raised when the parser reaches it or asks for the rest
of the statement, so an error before it in the statement wins. Both errors
carry one-based line and column.

`print_*` functions emit the canonical form: parse(print(doc)) is
structurally equal to doc.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from itertools import islice
from operator import methodcaller
from typing import Container, Iterable, Iterator, Mapping

from .architecture import (
    Architecture,
    AgentId,
    ArchitectureError,
    INTERFACE,
    OUTPUT,
)
# Bound here for benchmarks/spans.py, whose tracer wraps it in this module.
from .architecture import validate_architecture  # noqa: F401
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
# A `#` comment runs to the end of its line and may hold `;`.
_COMMENT = re.compile(r"#[^\n]*")


# `print_spec`, `print_trace` and the benchmark generator write each statement
# in one shape, with single spaces and ASCII names. Each pattern below takes
# the head of a statement in that shape, from its leading blanks to the first
# character of its list or payload, and so never walks the list; a document
# with a statement it rejects is read by `_Stream`. Every quantified piece is
# followed by a character it cannot take, so a failed match backtracks only
# linearly.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_AGENT = rf"(?:[IO]:)?{_NAME}"
_LIST = r"(?=[^ \t\r\n])"  # a list that starts with no blank
_FAST_SPEC = re.compile(
    rf"[ \t\r\n]*(?:channel ({_AGENT}) -> ({_AGENT}) : {_LIST}|types {_LIST}"
    rf"|agent ({_AGENT})(?: holds {_LIST}|\Z))"
)
_FAST_EVENT = re.compile(rf"[ \t\r\n]*({_AGENT}) -> ({_AGENT}) : {_LIST}")
# One compact atomic type (`NAME`, `C[X](A)`, `P[X](A)`) or constructor name.
_ATOM = re.compile(rf"([CP])\[({_AGENT})\]\(({_AGENT})\)|{_AGENT}")
_CTOR = re.compile(rf"{_AGENT}(?:\[{_AGENT}(?:,{_AGENT})*\])*")
# A printed term's tokens: each constructor name whole, and `(`, `)`, `,`.
_TERM_TOKEN = re.compile(rf"{_CTOR.pattern}|[(),]")


def _bad_offset(tok: str) -> int:
    """Offset of the character in `tok` that starts no token, or -1."""
    k = 2 if tok[:2] in ("I:", "O:") else 0
    ch = tok[k]
    return -1 if tok in _PUNCT or ch.isalpha() or ch == "_" or ch.isdecimal() else k


def tokenize(text: str, start: int = 0, stop: int | None = None) -> list[str]:
    """The token texts of `text[start:stop]`, in order. Raises ParseError at
    the first character that starts no token."""
    ts = _Stream(text, start, stop)
    ts.rest()
    return ts.tokens


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _where(text: str, i: int, start: int = 0) -> tuple[int, int]:
    """One-based line and column of token `i` of the text from `start` on,
    found by scanning it again. Only errors ask."""
    m = next(islice(_SCAN.finditer(text, start), i, None))
    return _line_col(text, m.start(1))


def _kind(tok: str) -> str:
    ch = tok[0]
    if ch.isalpha() or ch == "_":
        return IDENT
    return NUMBER if ch.isdecimal() else PUNCT


class _Stream:
    """One statement: the characters [start, stop) of its document. Its
    tokens are read in one scan when the stream is made, and their offsets
    are found again only to raise. The parser reads the tokens before
    `end`, the first that holds a stray character (one that starts no
    token); that character is raised when the parser reaches it or asks for
    the `rest` of the statement. Parsers keep token indices."""

    __slots__ = ("text", "start", "tokens", "end", "pos")

    def __init__(self, text: str, start: int = 0, stop: int | None = None):
        self.text = text
        self.start = start
        tokens = _SCAN.findall(text, start, len(text) if stop is None else stop)
        while tokens and not tokens[-1]:  # matches that only skip trailing blanks
            tokens.pop()
        # A stray character comes back as a token of its own, and `[^\W\d]`
        # also admits numerals such as '²' that str.isalpha rejects. A
        # statement repeats its few distinct tokens, so each is checked once.
        bad = [tok for tok in set(tokens) if _bad_offset(tok) >= 0]
        self.tokens = tokens
        self.end = min(map(tokens.index, bad), default=len(tokens))
        self.pos = 0

    def rest(self) -> None:
        """Raise the statement's stray character, if it has one: the parser
        reads the rest of the statement from `tokens` itself."""
        if self.end < len(self.tokens):
            tok = self.tokens[self.end]
            k = _bad_offset(tok)
            line, col = self.where(self.end)
            raise ParseError(f"unexpected character {tok[k]!r}", line, col + k)

    def peek(self) -> str | None:
        if self.pos < self.end:
            return self.tokens[self.pos]
        self.rest()
        return None

    def where(self, i: int) -> tuple[int, int]:
        return _where(self.text, i, self.start)

    def error(self, cls: type[DslError], message: str, i: int) -> DslError:
        return cls(message, *self.where(i))

    def _fail(self, message: str) -> ParseError:
        tok = self.peek()
        got = "end of statement" if tok is None else repr(tok)
        if not self.tokens:
            return ParseError(f"{message}, got {got}", 1, 1)
        return self.error(ParseError, f"{message}, got {got}", min(self.pos, len(self.tokens) - 1))

    def expect(self, text: str) -> int:
        """Consume the token `text` and return its index."""
        if self.peek() != text:
            raise self._fail(f"expected {text!r}")
        self.pos += 1
        return self.pos - 1

    def expect_kind(self, kind: str) -> int:
        """Consume an IDENT or NUMBER token and return its index."""
        tok = self.peek()
        if tok is None or _kind(tok) != kind:
            raise self._fail(f"expected {kind}")
        self.pos += 1
        return self.pos - 1

    def accept(self, text: str) -> bool:
        if self.peek() != text:
            return False
        self.pos += 1
        return True

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(ParseError, f"unexpected trailing {tok!r}", self.pos)


_lstrip_blanks = methodcaller("lstrip", " \t\r\n")


def _blank_comments(text: str) -> str:
    """`text` with each comment replaced by as many spaces, so that every
    offset, line and column stays where it was."""
    if "#" not in text:
        return text
    return _COMMENT.sub(lambda m: " " * len(m.group()), text)


def _statements(text: str) -> Iterator[tuple[int, int]]:
    """The `;`-terminated statements of `text`, whose comments are blanked,
    as the offsets of their first character and of their `;`, in document
    order. Each is split off when the one before it has been read, so the
    first statement that cannot be read is the one an error blames; after
    the last `;`, no token may follow."""
    find = text.find
    pos = 0
    while (stop := find(";", pos)) >= 0:
        yield pos, stop
        pos = stop + 1
    tail = _Stream(text, pos)
    tail.rest()
    if tail.tokens:
        raise tail.error(ParseError, "statement is missing its terminating ';'", len(tail.tokens) - 1)


def _stream(text: str, start: int, stop: int) -> _Stream:
    """The token reader of the statement [start, stop); ParseError when it
    holds no token."""
    ts = _Stream(text, start, stop)
    if ts.peek() is None:
        raise ParseError("empty statement", *_line_col(text, stop))
    return ts


def _streams(text: str) -> Iterator[_Stream]:
    """The token readers of the statements of `text`, in document order."""
    text = _blank_comments(text)
    for start, stop in _statements(text):
        yield _stream(text, start, stop)


# --- shared grammar pieces ---------------------------------------------------


def _new_agent(name: str) -> AgentId:
    if name.startswith("I:"):
        return AgentId(name, INTERFACE, name[2:])
    if name.startswith("O:"):
        return AgentId(name, OUTPUT, name[2:])
    return AgentId(name)


def _agent_id(ts: _Stream, i: int) -> AgentId:
    try:
        return _new_agent(ts.tokens[i])
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


# A table of the terms one reader has built: each constructor by its name and
# each application by the ids of its two parts, which the table keeps alive.
_Shared = dict[object, TermExpr]


class _Expected(Exception):
    """Token `args[1]` of a term is not the `args[0]` its grammar expects."""


def _parse_term(tokens: list[str], i: int, shared: _Shared) -> tuple[TermExpr, int]:
    """Read one term from `tokens[i]` on, and return it with the index after
    it. A stack of the applications whose argument list is open stands in
    for recursion. A constructor name may come as one token or as the tokens
    of its pieces. Each node is looked up in `shared` before it is built, so
    equal subterms parsed with one table are one object."""
    n = len(tokens)
    open_apps: list[TermExpr] = []  # innermost last
    while True:
        if i == n or _kind(tokens[i]) != IDENT:
            raise _Expected(IDENT, i)
        name = tokens[i]
        i += 1
        while i < n and tokens[i] == "[":
            parts = []
            while True:
                i += 1
                if i == n or _kind(tokens[i]) != IDENT:
                    raise _Expected(IDENT, i)
                parts.append(tokens[i])
                i += 1
                if i == n or tokens[i] != ",":
                    break
            if i == n or tokens[i] != "]":
                raise _Expected("']'", i)
            i += 1
            name += "[" + ",".join(parts) + "]"
        term = shared.get(name)
        if term is None:
            term = shared[name] = Con(name)
        if i < n and tokens[i] == "(":
            open_apps.append(term)
            i += 1
            continue
        # A finished term is the next argument of the innermost open list.
        while open_apps:
            fun = open_apps.pop()
            key = (id(fun), id(term))
            node = shared.get(key)
            if node is None:
                node = shared[key] = App(fun, term)
            term = node
            if i < n and tokens[i] == ",":
                open_apps.append(term)
                i += 1
                break
            if i == n or tokens[i] != ")":
                raise _Expected("')'", i)
            i += 1
        else:
            return term, i


def _read_term(ts: _Stream, shared: _Shared) -> TermExpr:
    """One term of a statement, from its next token on."""
    ts.rest()
    try:
        term, ts.pos = _parse_term(ts.tokens, ts.pos, shared)
    except _Expected as exc:
        expected, ts.pos = exc.args
        raise ts._fail(f"expected {expected}") from None
    return term


def parse_term(text: str) -> TermExpr:
    """Parse one prefix-notation term, e.g. `pi[X,A](m[X,A](payload))`."""
    ts = _Stream(text)
    term = _read_term(ts, {})
    ts.done()
    return term


def parse_type(text: str) -> AtomicType:
    """Parse one atomic type, e.g. `INFO` or `C[Website](INFO)`."""
    ts = _Stream(text)
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
    text = _blank_comments(text)
    return _read_printed_spec(text) or _read_spec(text)


def _document(
    types: Iterable[AtomicType], sigs: dict[str, TypeExpr], agents: Iterable[AgentId],
    holdings: dict[AgentId, set[str]], channels: dict[tuple[AgentId, AgentId], frozenset],
    constraints: list[Constraint], config: SynthesisConfig,
) -> SpecDocument:
    """The document a reader read. Each reader rejects whatever
    `validate_architecture` would report, so it is not asked again."""
    type_system = TypeSystem.build(types, (ConstructorDecl(n, t) for n, t in sigs.items()))
    arch = Architecture.build(type_system, agents, holdings, channels)
    return SpecDocument.build(arch, constraints, config)


def _read_printed_spec(text: str) -> SpecDocument | None:
    """A spec document in printed form, read whole, or None when the token
    reader must read it. Each channel type list and each `ctor: sig` item is
    resolved once per distinct text."""
    statements = text.split(";")
    if statements.pop().strip(" \t\r\n"):
        return None
    types: dict[str, AtomicType] = {}  # by printed name
    agents: dict[str, AgentId] = {}
    holdings: dict[AgentId, set[str]] = {}
    sigs: dict[str, TypeExpr] = {}
    items: dict[str, str] = {}  # each `ctor: sig` item's constructor
    lists: dict[str, frozenset[AtomicType]] = {}
    channels: dict[tuple[AgentId, AgentId], frozenset[AtomicType]] = {}
    later: list[_Stream] = []  # the constraint and option statements
    try:
        for s in statements:
            m = _FAST_SPEC.match(s)
            if m is None:
                ts = _Stream(s)
                if not (ts.accept("constraint") or ts.accept("option")):
                    return None
                later.append(ts)
                continue
            sender, receiver, name = m.groups()
            rest = s[m.end() :]
            if sender is not None:
                pair = (agents[sender], agents[receiver])
                if pair[0] is pair[1]:
                    return None
                tys = lists.get(rest)
                if tys is None:
                    tys = lists[rest] = frozenset(map(types.__getitem__, rest.split(", ")))
                known = channels.setdefault(pair, tys)
                if known is not tys:
                    channels[pair] = known | tys
            elif name is None:
                for piece in rest.split(", "):
                    m = _ATOM.fullmatch(piece)
                    if m is None or piece in types:
                        return None
                    kind, owner, inner = m.groups()
                    wrapper = Certified if kind == "C" else Proof
                    types[piece] = Base(piece) if kind is None else wrapper(owner, inner)
            else:
                if name in agents:
                    return None
                agent = agents[name] = _new_agent(name)
                mine = holdings[agent] = set()
                for item in rest.split(", ") if rest else ():
                    ctor = items.get(item)
                    if ctor is None:
                        ctor, colon, sig = item.partition(": ")
                        if not colon or ctor in sigs or _CTOR.fullmatch(ctor) is None:
                            return None
                        parts = list(map(types.__getitem__, sig.split(" -> ")))
                        sigs[ctor] = make_signature(parts[:-1], parts[-1])
                        items[item] = ctor
                    if ctor in mine:
                        return None
                    mine.add(ctor)
        declared = frozenset(types.values())
        options: dict[str, tuple[int, _Stream, int]] = {}
        constraints = []
        for ts in later:
            if ts.tokens[0] == "option":
                _read_option(ts, options)
            else:
                constraints.append(_read_constraint(ts, agents, declared))
        config = _config(options)
    except (KeyError, DslError, ArchitectureError):  # a KeyError: an undeclared name
        return None
    return _document(declared, sigs, agents.values(), holdings, channels, constraints, config)


def _read_spec(text: str) -> SpecDocument:
    """A spec document read by the token reader, which raises at the first
    error."""
    declared_types: set[AtomicType] = set()
    agents: dict[str, AgentId] = {}
    holdings: dict[AgentId, set[str]] = {}
    ctor_sigs: dict[str, tuple[TypeExpr, _Stream, int]] = {}
    channel_types: dict[tuple[AgentId, AgentId], frozenset[AtomicType]] = {}
    # Each channel's sender and receiver tokens, and its types with theirs.
    raw_channels: list[tuple[_Stream, int, int, list[tuple[AtomicType, int]]]] = []
    raw_constraints: list[_Stream] = []
    # Each held constructor as (name, its token, the signature's types with
    # their tokens).
    raw_holds: list[tuple[_Stream, str, list[tuple[str, int, list[tuple[AtomicType, int]]]]]] = []
    options: dict[str, tuple[int, _Stream, int]] = {}

    for start, stop in _statements(text):
        ts = _stream(text, start, stop)
        tokens = ts.tokens
        head = ts.expect_kind(IDENT)
        keyword = tokens[head]
        if keyword == "channel":
            sender = ts.expect_kind(IDENT)
            ts.expect("->")
            receiver = ts.expect_kind(IDENT)
            ts.expect(":")
            ts.rest()
            entries = [_parse_type(ts)]
            while ts.accept(","):
                entries.append(_parse_type(ts))
            ts.done()
            raw_channels.append((ts, sender, receiver, entries))
            continue
        ts.rest()
        if keyword == "types":
            while True:
                ty, i = _parse_type(ts)
                if ty in declared_types:
                    raise ts.error(ResolveError, f"duplicate type {type_name(ty)}", i)
                declared_types.add(ty)
                if not ts.accept(","):
                    break
            ts.done()
        elif keyword == "agent":
            name_i = ts.expect_kind(IDENT)
            name = tokens[name_i]
            if name in agents:
                raise ts.error(ResolveError, f"duplicate agent {name}", name_i)
            agents[name] = _agent_id(ts, name_i)
            holds: list[tuple[str, int, list[tuple[AtomicType, int]]]] = []
            if ts.accept("holds"):
                while True:
                    ctor, ctor_i = _parse_ctor_name(ts)
                    ts.expect(":")
                    parts = [_parse_type(ts)]
                    while ts.accept("->"):
                        parts.append(_parse_type(ts))
                    holds.append((ctor, ctor_i, parts))
                    if not ts.accept(","):
                        break
            ts.done()
            raw_holds.append((ts, name, holds))
        elif keyword == "constraint":
            raw_constraints.append(ts)
        elif keyword == "option":
            _read_option(ts, options)
        else:
            raise ts.error(
                ParseError,
                f"unknown statement {keyword!r} (expected types, agent, "
                "channel, constraint or option)",
                head,
            )

    # Constructors: every declaration site must agree on the signature.
    for ts, name, holds in raw_holds:
        agent = agents[name]
        mine = holdings.setdefault(agent, set())
        for ctor, ctor_i, parts in holds:
            for ty, i in parts:
                _require_type(ts, declared_types, ty, i)
            sig = make_signature([ty for ty, _ in parts[:-1]], parts[-1][0])
            known = ctor_sigs.get(ctor)
            if known is not None and known[0] != sig:
                first_line, _ = known[1].where(known[2])
                raise ts.error(
                    ResolveError,
                    f"constructor {ctor} redeclared with a different signature "
                    f"(first declared at line {first_line})",
                    ctor_i,
                )
            if known is None:
                ctor_sigs[ctor] = (sig, ts, ctor_i)
            if ctor in mine:
                raise ts.error(
                    ResolveError, f"agent {agent.name} lists constructor {ctor} twice", ctor_i
                )
            mine.add(ctor)

    # Equal type sets are one object, as the printed-form reader makes them,
    # so whatever works per distinct set does its work once.
    type_sets: dict[frozenset[AtomicType], frozenset[AtomicType]] = {}
    for ts, sender_i, receiver_i, entries in raw_channels:
        sender = _require_agent(ts, agents, sender_i)
        receiver = _require_agent(ts, agents, receiver_i)
        if sender == receiver:
            raise ts.error(ResolveError, f"channel from {sender.name} to itself", sender_i)
        types = frozenset(_require_type(ts, declared_types, ty, i) for ty, i in entries)
        types = type_sets.setdefault(types, types)
        pair = (sender, receiver)
        known = channel_types.get(pair)
        channel_types[pair] = types if known is None else known | types

    constraints = [_read_constraint(ts, agents, declared_types) for ts in raw_constraints]
    sigs = {name: sig for name, (sig, _, _) in ctor_sigs.items()}
    return _document(
        declared_types, sigs, agents.values(), holdings, channel_types, constraints,
        _config(options),
    )


def _require_type(
    ts: _Stream, declared: Container[AtomicType], ty: AtomicType, i: int
) -> AtomicType:
    if ty not in declared:
        raise ts.error(ResolveError, f"undeclared type {type_name(ty)}", i)
    return ty


def _require_agent(ts: _Stream, agents: Mapping[str, AgentId], i: int) -> AgentId:
    agent = agents.get(ts.tokens[i])
    if agent is None:
        raise ts.error(ResolveError, f"undeclared agent {ts.tokens[i]}", i)
    return agent


def _read_constraint(
    ts: _Stream, agents: Mapping[str, AgentId], declared: Container[AtomicType]
) -> Constraint:
    """Shape and resolve a constraint statement, read up to its keyword."""
    first = ts.pos
    agent = functools.partial(_require_agent, ts, agents)
    known = functools.partial(_require_type, ts, declared)
    try:
        if ts.peek() == "pos":
            ts.expect("pos")
            ts.expect("(")
            subject = agent(ts.expect_kind(IDENT))
            ts.expect(",")
            ty, i = _parse_type(ts)
            ts.expect(")")
            ts.done()
            return Positive(subject, known(ty, i))
        if ts.peek() == "local":
            ts.expect("local")
            sender = agent(ts.expect_kind(IDENT))
            ts.expect("->")
            receiver = agent(ts.expect_kind(IDENT))
            ts.expect(":")
            ty, i = _parse_type(ts)
            ts.expect("prev")
            prev = agent(ts.expect_kind(IDENT))
            ts.done()
            return LocalSend(sender, known(ty, i), receiver, prev)
        subject = agent(ts.expect_kind(IDENT))
        ts.expect("ni")
        trig, trig_i = _parse_type(ts)
        ts.expect("=>")
        mark = ts.pos
        holder_i = ts.expect_kind(IDENT)
        if ts.accept("ni"):
            holder = agent(holder_i)
            req, req_i = _parse_type(ts)
            ts.done()
            return NegPossess(subject, known(trig, trig_i), holder, known(req, req_i))
        ts.pos = mark
        req, req_i = _parse_type(ts)
        ts.done()
        return NegCreate(subject, known(trig, trig_i), known(req, req_i))
    except ConstraintError as exc:
        raise ts.error(ResolveError, str(exc), first) from exc


def _read_option(ts: _Stream, options: dict[str, tuple[int, _Stream, int]]) -> None:
    """Shape an option statement, read up to its keyword, into `options`:
    its value, its statement and its name's token, by name."""
    name_i = ts.expect_kind(IDENT)
    ts.expect("=")
    value_i = ts.expect_kind(NUMBER)
    ts.done()
    name, digits = ts.tokens[name_i], ts.tokens[value_i]
    if name in options:
        raise ts.error(ResolveError, f"duplicate option {name}", name_i)
    try:
        value = int(digits)
    except ValueError:  # past the interpreter's digit limit
        raise ts.error(ParseError, f"number too long ({len(digits)} digits)", value_i) from None
    options[name] = (value, ts, name_i)


def _config(options: dict[str, tuple[int, _Stream, int]]) -> SynthesisConfig:
    config = SynthesisConfig()
    for name, (value, ts, i) in options.items():
        if name == "algorithm":
            if value not in (1, 2):
                raise ts.error(ResolveError, "algorithm must be 1 or 2", i)
            config = replace(config, algorithm=value)
        elif name == "m_family_cap":
            if value < 1:
                raise ts.error(ResolveError, "m_family_cap must be positive", i)
            config = replace(config, m_family_cap=value)
        else:
            raise ts.error(ResolveError, f"unknown option {name}", i)
    return config


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


def _read_payload(ts: _Stream, shared: _Shared) -> tuple[TermExpr, AtomicType]:
    term = _read_term(ts, shared)
    ts.expect(":")
    ty, _ = _parse_type(ts)
    ts.done()
    return term, ty


def parse_trace(text: str, arch: Architecture) -> Trace:
    """Each statement is `Sender -> Receiver : term : TYPE;`. Agents must
    exist in the architecture; terms are resolved structurally and validated
    later by the trace checker. A statement that repeats an earlier one,
    blanks before it aside, is the same event."""
    text = _blank_comments(text)
    trace = _read_printed_trace(text, arch)
    if trace is not None:
        return trace
    events: list[Event] = []
    known: dict[str, Event] = {}  # by statement text from its first character
    shared: _Shared = {}  # equal subterms are one object
    for start, stop in _statements(text):
        statement = _lstrip_blanks(text[start:stop])
        event = known.get(statement)
        if event is None:
            ts = _stream(text, start, stop)
            sender_i = ts.expect_kind(IDENT)
            ts.expect("->")
            receiver_i = ts.expect_kind(IDENT)
            ts.expect(":")
            term, ty = _read_payload(ts, shared)
            sender = _known_agent(ts, arch, sender_i)
            receiver = _known_agent(ts, arch, receiver_i)
            try:
                event = known[statement] = Event(sender, term, ty, receiver)
            except TraceError as exc:
                raise ts.error(ResolveError, str(exc), sender_i) from exc
        events.append(event)
    return tuple(events)


def _read_printed_trace(text: str, arch: Architecture) -> Trace | None:
    """A trace in printed form, read whole, or None when the token reader
    must read it. Each distinct statement is read once, each distinct payload
    parsed once, and the events hold `arch`'s own agents and types."""
    pieces = text.split(";")
    if pieces.pop().strip(" \t\r\n"):
        return None
    statements = list(map(_lstrip_blanks, pieces))  # a repeat is one key
    agents = {a.name: a for a in arch.agents}
    types = {type_name(t): t for t in arch.type_system.atomic_types}
    events: dict[str, Event] = {}
    payloads: dict[str, tuple[TermExpr, AtomicType]] = {}
    shared: _Shared = {}
    for s in dict.fromkeys(statements):
        m = _FAST_EVENT.match(s)
        if m is None:
            return None
        rest = s[m.end() :]
        payload = payloads.get(rest)
        if payload is None:
            term_text, colon, type_text = rest.rpartition(" : ")
            ty = types.get(type_text)
            if not colon or ty is None or _ATOM.fullmatch(type_text) is None:
                return None
            # A constructor name is one token here, and the `, ` between
            # arguments is all the text the tokens leave out.
            tokens = _TERM_TOKEN.findall(term_text)
            if "".join(tokens) != term_text.replace(", ", ","):
                return None
            try:
                term, end = _parse_term(tokens, 0, shared)
            except _Expected:
                end = -1
            if end != len(tokens):
                return None
            payload = payloads[rest] = (term, ty)
        sender_name, receiver_name = m.groups()
        sender, receiver = agents.get(sender_name), agents.get(receiver_name)
        if sender is None or receiver is None or sender is receiver:
            return None
        term, ty = payload
        events[s] = Event(sender, term, ty, receiver)
    return tuple(map(events.__getitem__, statements))


def print_trace(trace: Trace) -> str:
    if not trace:
        return ""
    return "\n".join(f"{e};" for e in trace) + "\n"


# --- partitions --------------------------------------------------------------


def parse_partition(text: str, arch: Architecture) -> Partition:
    """Each statement is `cell Owner: member, member;`."""
    owner_map: dict[AgentId, AgentId] = {}
    for ts in _streams(text):
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
    grants: list[Grant] = []
    for ts in _streams(text):
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
