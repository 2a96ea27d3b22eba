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

A spec is parsed in two passes. Its statements are split off and shaped
first, one after another in document order (ParseError, and ResolveError for
a duplicate declaration); names are then resolved against the declarations
(ResolveError). Constraint statements are scanned in the first pass but
shaped in the second, as their names resolve. Traces, partitions and grant
lists resolve each statement's names once it is shaped. Both errors carry
one-based line and column. Before resolution, an error blames the first
statement that cannot be read: a stray character, a shape error, an empty
statement or a duplicate there comes before anything later in the document,
a missing final `;` included.

Two readers share the work, and which one reads a statement depends only on
its spelling. A statement in the printed form (`print_spec`, `print_trace`:
single spaces, ASCII names, no comment) of a `types`, `agent` or `channel`
statement or a trace event is read with one pattern match; its compact types
(`NAME`, `C[X](A)`, `P[X](A)`) are split off by their `, ` and ` -> `
separators, and what it keeps for later errors are character offsets. The
pattern reader never raises. A matched statement whose list is spelled
otherwise, which names a duplicate or whose reading would fail is read again
from its first token by the token reader, so every error of the first pass
comes from the token reader. Every other statement (constraints, options,
partitions, grants, and anything with a comment or other spacing) goes to
the token reader directly.

The token reader splits the text at each `;` outside a comment with one
regular expression. A statement's leading tokens are scanned one at a time,
with their offsets; the rest is scanned in one `tokenize` batch only when
the parser is about to read it, and offsets inside a batch are found again
only on the error path. In both readers, a channel type list, or a trace
event's `term : TYPE`, is keyed by its raw text, from its first token to the
end of the statement, and so is each `ctor: sig` item a pattern reads: a
repeat is neither scanned nor parsed again, and a repeated list is resolved
once. Each call keeps its own tables, which fill only after a successful
parse, so every error keeps its position.

`print_*` functions emit the canonical form: parse(print(doc)) is
structurally equal to doc.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator

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
# One statement and its `;`, where a `#` comment runs to the end of its line
# and may hold `;`; with no `;` left, the rest of the text and an empty group.
# Every way the loop can go ends at `;` or at the end of the text, so a match
# never backtracks (`...*;` alone would, exponentially in the `#`s of a tail).
_STATEMENT = re.compile(r"[^;#]*(?:#[^\n]*[^;#]*)*(;|\Z)")


# `print_spec`, `print_trace` and the benchmark generator write each statement
# in one shape, with single spaces and ASCII names. Each pattern below reads a
# statement in that shape, its leading blanks and its `;` with one match; a
# statement the match rejects is read by `_Stream`. Every quantified piece is
# followed by a character it cannot take, so a failed match backtracks only
# linearly, and no possessive or atomic form is used.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_AGENT = rf"(?:[IO]:)?{_NAME}"
# From the first token to the end of the statement, with no comment in it.
_REST = r"([^ \t\r\n;#][^;#]*)"
_FAST_SPEC = re.compile(
    rf"[ \t\r\n]*(?:channel ({_AGENT}) -> ({_AGENT}) : {_REST}"
    rf"|types {_REST}|agent ({_AGENT})(?: holds {_REST})?);"
)
_FAST_EVENT = re.compile(rf"[ \t\r\n]*({_AGENT}) -> ({_AGENT}) : {_REST};")
# One compact atomic type (`NAME`, `C[X](A)`, `P[X](A)`) or constructor name.
_ATOM = re.compile(rf"([CP])\[({_AGENT})\]\(({_AGENT})\)|{_AGENT}")
_CTOR = re.compile(rf"{_AGENT}(?:\[{_AGENT}(?:,{_AGENT})*\])*")


def _bad_offset(tok: str) -> int:
    """Offset of the character in `tok` that starts no token, or -1."""
    k = 2 if tok[:2] in ("I:", "O:") else 0
    ch = tok[k]
    return -1 if tok in _PUNCT or ch.isalpha() or ch == "_" or ch.isdecimal() else k


def tokenize(text: str, start: int = 0, stop: int | None = None) -> list[str]:
    """The token texts of `text[start:stop]`, in order. Raises ParseError at
    the first character that starts no token."""
    tokens = _SCAN.findall(text, start, len(text) if stop is None else stop)
    while tokens and not tokens[-1]:  # matches that only skip trailing blanks
        tokens.pop()
    # A stray character comes back as a token of its own, and `[^\W\d]`
    # also admits numerals such as '²' that str.isalpha rejects. A document
    # repeats a few dozen distinct tokens, so each is checked once.
    bad = [tok for tok in set(tokens) if _bad_offset(tok) >= 0]
    if bad:
        i = min(map(tokens.index, bad))
        k = _bad_offset(tokens[i])
        raise _stray(text, tokens[i], k, _where_offset(text, i, start) + k)
    return tokens


def _stray(text: str, tok: str, k: int, pos: int) -> ParseError:
    return ParseError(f"unexpected character {tok[k]!r}", *_line_col(text, pos))


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _where_offset(text: str, i: int, start: int) -> int:
    return next(islice(_SCAN.finditer(text, start), i, None)).start(1)


def _where(text: str, i: int, start: int = 0) -> tuple[int, int]:
    """One-based line and column of token `i` of the text from `start` on,
    found by scanning it again. Only errors ask."""
    return _line_col(text, _where_offset(text, i, start))


def _kind(tok: str) -> str:
    ch = tok[0]
    if ch.isalpha() or ch == "_":
        return IDENT
    return NUMBER if ch.isdecimal() else PUNCT


class _Stream:
    """One statement: the characters [start, stop) of its document. Tokens
    are scanned one at a time, with their offsets, as the parser reads them,
    until `rest` scans the remainder in one `tokenize` batch; offsets in the
    batch are found again only to raise. Parsers keep token indices."""

    __slots__ = ("text", "stop", "scan", "batch", "tokens", "offsets", "pos")

    def __init__(self, text: str, start: int = 0, stop: int | None = None):
        self.text = text
        self.stop = len(text) if stop is None else stop
        self.scan = start  # where the next token is scanned from
        self.batch = -1  # where `rest` began scanning, once it has
        self.tokens: list[str] = []
        self.offsets: list[int] = []  # of the tokens scanned one at a time
        self.pos = 0

    def _more(self) -> bool:
        """Scan one more token ahead of the batch; False at the end."""
        if self.batch >= 0:
            return False
        m = _SCAN.match(self.text, self.scan, self.stop)
        self.scan = m.end()
        tok = m.group(1)
        if tok is None:
            return False
        k = _bad_offset(tok)
        if k >= 0:
            raise _stray(self.text, tok, k, m.start(1) + k)
        self.tokens.append(tok)
        self.offsets.append(m.start(1))
        return True

    def rest(self) -> None:
        """Scan the rest of the statement in one batch."""
        if self.batch < 0:
            self.batch = self.scan
            self.tokens += tokenize(self.text, self.scan, self.stop)

    def raw_rest(self) -> str:
        """The text from the next token to the end of the statement, taken
        before `rest`: equal texts read the same, wherever they stand."""
        if self.peek() is None:
            return ""
        return self.text[self.offsets[self.pos] : self.stop]

    def peek(self) -> str | None:
        if self.pos < len(self.tokens) or self._more():
            return self.tokens[self.pos]
        return None

    def where(self, i: int) -> tuple[int, int]:
        lead = len(self.offsets)
        if i < lead:
            return _line_col(self.text, self.offsets[i])
        return _where(self.text, i - lead, self.batch)

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
        i = self.pos
        if not ((i < len(self.tokens) or self._more()) and self.tokens[i] == text):
            raise self._fail(f"expected {text!r}")
        self.pos = i + 1
        return i

    def expect_kind(self, kind: str) -> int:
        """Consume an IDENT or NUMBER token and return its index."""
        i = self.pos
        if not ((i < len(self.tokens) or self._more()) and _kind(self.tokens[i]) == kind):
            raise self._fail(f"expected {kind}")
        self.pos = i + 1
        return i

    def accept(self, text: str) -> bool:
        i = self.pos
        if (i < len(self.tokens) or self._more()) and self.tokens[i] == text:
            self.pos = i + 1
            return True
        return False

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(ParseError, f"unexpected trailing {tok!r}", self.pos)


class _Offsets:
    """Where the pattern readers found what they kept: token `i` here is the
    one at character offset `i`. It stands in for a `_Stream` when an error
    is found after its statement was read."""

    __slots__ = ("text", "tokens")

    def __init__(self, text: str):
        self.text = text
        self.tokens: dict[int, str] = {}  # agent names, by offset

    def where(self, i: int) -> tuple[int, int]:
        return _line_col(self.text, i)

    def error(self, cls: type[DslError], message: str, i: int) -> DslError:
        return cls(message, *self.where(i))


# Where a kept token stands: its statement's stream, or the offsets of the
# statements a pattern read.
_Site = _Stream | _Offsets


def _statements(text: str, fast: re.Pattern[str] | None = None) -> Iterator[_Stream | re.Match[str]]:
    """The `;`-terminated statements of `text`, in document order. Each is
    split off when the one before it has been read, so the first statement
    that cannot be read is the one an error blames. A statement `fast`
    matches comes as that match, whose reader may still hand it to
    `_Stream(text, m.start(), m.end() - 1)`."""
    pos = 0
    while True:
        if fast is not None:
            m = fast.match(text, pos)
            if m is not None:
                yield m
                pos = m.end()
                continue
        m = _STATEMENT.match(text, pos)
        if not m.group(1):
            break
        ts = _Stream(text, pos, m.end() - 1)
        if ts.peek() is None:
            raise ParseError("empty statement", *_line_col(text, m.end() - 1))
        yield ts
        pos = m.end()
    tail = tokenize(text, pos)
    if tail:
        raise ParseError(
            "statement is missing its terminating ';'", *_where(text, len(tail) - 1, pos)
        )


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


def _atoms(
    text: str, sep: str, start: int, atoms: dict[str, AtomicType]
) -> list[tuple[AtomicType, int]] | None:
    """The compact atomic types of `text`, split at each `sep`, with their
    offsets from `start`; None when a piece is not one. `atoms` keeps each
    piece's type, for one call of a parser."""
    out = []
    for piece in text.split(sep):
        ty = atoms.get(piece)
        if ty is None:
            m = _ATOM.fullmatch(piece)
            if m is None:
                return None
            kind, owner, inner = m.groups()
            if kind is None:
                ty = Base(piece)
            else:
                ty = (Certified if kind == "C" else Proof)(owner, inner)
            atoms[piece] = ty
        out.append((ty, start))
        start += len(piece) + len(sep)
    return out


def _held(item: str, atoms: dict[str, AtomicType]) -> tuple[str, list[tuple[AtomicType, int]]] | None:
    """A compact `ctor: sig` item: the constructor and its signature's types
    with their offsets from the item's start; None when it is not one."""
    ctor, colon, sig = item.partition(": ")
    if not colon or _CTOR.fullmatch(ctor) is None:
        return None
    parts = _atoms(sig, " -> ", len(ctor) + 2, atoms)
    return None if parts is None else (ctor, parts)


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
    ts = _Stream(text)
    term = _parse_term(ts, {})
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
    declared_types: set[AtomicType] = set()
    agents: dict[str, AgentId] = {}
    holdings: dict[AgentId, set[str]] = {}
    ctor_sigs: dict[str, tuple[TypeExpr, _Site, int]] = {}
    channel_types: dict[tuple[AgentId, AgentId], frozenset[AtomicType]] = {}
    # Each distinct type list, keyed by its raw text, and the channels naming
    # it. A list's entries keep the statement they were read from.
    type_lists: dict[str, int] = {}
    list_entries: list[tuple[_Site, list[tuple[AtomicType, int]]]] = []
    raw_channels: list[tuple[_Site, int, int, int]] = []
    raw_constraints: list[_Stream] = []
    raw_holds: list[tuple[_Site, str, list[tuple[str, int, list[tuple[AtomicType, int]]]]]] = []
    options: dict[str, tuple[int, _Stream, int]] = {}
    # What the pattern reader keeps: positions as offsets, each compact type
    # by its text, and each `ctor: sig` item by its text.
    site = _Offsets(text)
    atoms: dict[str, AtomicType] = {}
    held: dict[str, tuple[str, list[tuple[AtomicType, int]]]] = {}

    def read_fast(m: re.Match[str]) -> bool:
        """Read a statement in printed form. Returns False, having kept
        nothing, when its list is spelled otherwise or `_Stream` would raise."""
        sender, receiver, key, type_text, name, holds_text = m.groups()
        if key is not None:
            k = type_lists.get(key)
            if k is None:
                entries = _atoms(key, ", ", m.start(3), atoms)
                if entries is None:
                    return False
                k = type_lists[key] = len(list_entries)
                list_entries.append((site, entries))
            sender_i, receiver_i = m.start(1), m.start(2)
            site.tokens[sender_i] = sender
            site.tokens[receiver_i] = receiver
            raw_channels.append((site, sender_i, receiver_i, k))
            return True
        if type_text is not None:
            entries = _atoms(type_text, ", ", 0, atoms)
            if entries is None:
                return False
            types = [ty for ty, _ in entries]
            if len(set(types)) < len(types) or not declared_types.isdisjoint(types):
                return False
            declared_types.update(types)
            return True
        if name in agents:
            return False
        try:
            agent = _new_agent(name)
        except ArchitectureError:
            return False
        holds = []
        if holds_text is not None:
            start = m.start(6)
            for item in holds_text.split(", "):
                layout = held.get(item)
                if layout is None:
                    layout = _held(item, atoms)
                    if layout is None:
                        return False
                    held[item] = layout
                ctor, parts = layout
                holds.append((ctor, start, [(ty, start + i) for ty, i in parts]))
                start += len(item) + 2
        agents[name] = agent
        raw_holds.append((site, name, holds))
        return True

    def read(ts: _Stream) -> None:
        tokens = ts.tokens
        head = ts.expect_kind(IDENT)
        keyword = tokens[head]
        if keyword == "channel":
            sender = ts.expect_kind(IDENT)
            ts.expect("->")
            receiver = ts.expect_kind(IDENT)
            ts.expect(":")
            key = ts.raw_rest()
            k = type_lists.get(key)
            if k is None:
                ts.rest()
                entries = [_parse_type(ts)]
                while ts.accept(","):
                    entries.append(_parse_type(ts))
                ts.done()
                k = type_lists[key] = len(list_entries)
                list_entries.append((ts, entries))
            raw_channels.append((ts, sender, receiver, k))
            return
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
            options[name] = (value, ts, name_i)
        else:
            raise ts.error(
                ParseError,
                f"unknown statement {keyword!r} (expected types, agent, "
                "channel, constraint or option)",
                head,
            )

    for ts in _statements(text, _FAST_SPEC):
        if isinstance(ts, re.Match):
            if read_fast(ts):
                continue
            ts = _Stream(text, ts.start(), ts.end() - 1)
        read(ts)

    def require_type(ts: _Site, ty: AtomicType, i: int) -> AtomicType:
        if ty not in declared_types:
            raise ts.error(ResolveError, f"undeclared type {type_name(ty)}", i)
        return ty

    def require_agent(ts: _Site, i: int) -> AgentId:
        agent = agents.get(ts.tokens[i])
        if agent is None:
            raise ts.error(ResolveError, f"undeclared agent {ts.tokens[i]}", i)
        return agent

    # Constructors: every declaration site must agree on the signature.
    for ts, name, holds in raw_holds:
        agent = agents[name]
        mine = holdings.setdefault(agent, set())
        for ctor, ctor_i, parts in holds:
            for ty, i in parts:
                require_type(ts, ty, i)
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

    # A list is resolved where it first occurs, so an error names that site.
    list_types: list[frozenset[AtomicType] | None] = [None] * len(list_entries)
    for ts, sender_i, receiver_i, k in raw_channels:
        sender = require_agent(ts, sender_i)
        receiver = require_agent(ts, receiver_i)
        if sender == receiver:
            raise ts.error(ResolveError, f"channel from {sender.name} to itself", sender_i)
        types = list_types[k]
        if types is None:
            first, entries = list_entries[k]
            types = list_types[k] = frozenset(require_type(first, ty, i) for ty, i in entries)
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
                subject = require_agent(ts, ts.expect_kind(IDENT))
                ts.expect(",")
                ty, i = _parse_type(ts)
                ts.expect(")")
                ts.done()
                constraints.append(Positive(subject, require_type(ts, ty, i)))
            elif ts.peek() == "local":
                ts.expect("local")
                sender = require_agent(ts, ts.expect_kind(IDENT))
                ts.expect("->")
                receiver = require_agent(ts, ts.expect_kind(IDENT))
                ts.expect(":")
                ty, i = _parse_type(ts)
                ts.expect("prev")
                prev = require_agent(ts, ts.expect_kind(IDENT))
                ts.done()
                constraints.append(LocalSend(sender, require_type(ts, ty, i), receiver, prev))
            else:
                subject = require_agent(ts, ts.expect_kind(IDENT))
                ts.expect("ni")
                trig, trig_i = _parse_type(ts)
                ts.expect("=>")
                mark = ts.pos
                holder_i = ts.expect_kind(IDENT)
                if ts.accept("ni"):
                    holder = require_agent(ts, holder_i)
                    req, req_i = _parse_type(ts)
                    ts.done()
                    constraints.append(
                        NegPossess(
                            subject,
                            require_type(ts, trig, trig_i),
                            holder,
                            require_type(ts, req, req_i),
                        )
                    )
                else:
                    ts.pos = mark
                    req, req_i = _parse_type(ts)
                    ts.done()
                    constraints.append(
                        NegCreate(
                            subject,
                            require_type(ts, trig, trig_i),
                            require_type(ts, req, req_i),
                        )
                    )
        except ConstraintError as exc:
            raise ts.error(ResolveError, str(exc), first) from exc

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

    type_system = TypeSystem.build(declared_types, (
        ConstructorDecl(name, sig) for name, (sig, _, _) in ctor_sigs.items()
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


def _read_payload(ts: _Stream, shared: dict[TermExpr, TermExpr]) -> tuple[TermExpr, AtomicType]:
    ts.rest()
    term = _parse_term(ts, shared)
    ts.expect(":")
    ty, _ = _parse_type(ts)
    ts.done()
    return term, ty


def parse_trace(text: str, arch: Architecture) -> Trace:
    """Each statement is `Sender -> Receiver : term : TYPE;`. Agents must
    exist in the architecture; terms are resolved structurally and validated
    later by the trace checker."""
    events: list[Event] = []
    # Each distinct `term : TYPE`, keyed by its raw text; agents resolve per event.
    payloads: dict[str, tuple[TermExpr, AtomicType]] = {}
    # Equal subterms of different payloads are one object too.
    shared: dict[TermExpr, TermExpr] = {}
    agent_named = arch.agent_named

    def read_fast(m: re.Match[str]) -> Event | None:
        """The event of a statement in printed form, or None when `_Stream`
        must read it again because reading it raises."""
        sender, receiver, key = m.groups()
        try:
            payload = payloads.get(key)
            if payload is None:
                payload = _read_payload(_Stream(text, m.start(3), m.end(3)), shared)
                payloads[key] = payload
            return Event(agent_named(sender), payload[0], payload[1], agent_named(receiver))
        except (DslError, ArchitectureError, TraceError):
            return None

    for ts in _statements(text, _FAST_EVENT):
        if isinstance(ts, re.Match):
            event = read_fast(ts)
            if event is not None:
                events.append(event)
                continue
            ts = _Stream(text, ts.start(), ts.end() - 1)
        sender_i = ts.expect_kind(IDENT)
        ts.expect("->")
        receiver_i = ts.expect_kind(IDENT)
        ts.expect(":")
        key = ts.raw_rest()
        payload = payloads.get(key)
        if payload is None:
            payload = payloads[key] = _read_payload(ts, shared)
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
    owner_map: dict[AgentId, AgentId] = {}
    for ts in _statements(text):
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
    for ts in _statements(text):
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
