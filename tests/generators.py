"""Seeded random instance generators for the property suites.

All functions take an explicit random.Random so any failure reproduces from
the seed a test prints. Sizes follow the acceptance envelope: at most three
agents, four base types, five constructors, traces of length at most four.
"""

from __future__ import annotations

import random

from privarch import (
    AgentId,
    Architecture,
    AtomicType,
    Base,
    ConstructorDecl,
    Event,
    NegCreate,
    NegPossess,
    Positive,
    SpecDocument,
    SynthesisConfig,
    TypeSystem,
    can_compute,
    make_signature,
    possession_closure,
    term_size,
)
from oracles import global_term_of_type, reference_tokenize

AGENT_POOL = ("P0", "P1", "P2")
TYPE_POOL = ("T0", "T1", "T2", "T3")


def mk_architecture(
    rng: random.Random,
    n_agents: int | None = None,
    n_types: int | None = None,
    n_ctors: int | None = None,
) -> Architecture:
    n_agents = n_agents if n_agents is not None else rng.randint(2, 3)
    n_types = n_types if n_types is not None else rng.randint(2, 4)
    n_ctors = n_ctors if n_ctors is not None else rng.randint(2, 5)
    types = [Base(TYPE_POOL[i]) for i in range(n_types)]
    decls = []
    for i in range(n_ctors):
        n_args = rng.choice((0, 0, 1, 1, 2))
        args = [rng.choice(types) for _ in range(n_args)]
        decls.append(ConstructorDecl(f"c{i}", make_signature(args, rng.choice(types))))
    ts = TypeSystem.build(types, decls)
    agents = [AgentId(AGENT_POOL[i]) for i in range(n_agents)]
    holdings = {a: set() for a in agents}
    for d in decls:
        holdings[rng.choice(agents)].add(d.name)
        for a in agents:
            if rng.random() < 0.15:
                holdings[a].add(d.name)
    channels = {}
    for s in agents:
        for r in agents:
            if s == r or rng.random() < 0.3:
                continue
            carried = {t for t in types if rng.random() < 0.5}
            if carried:
                channels[(s, r)] = carried
    return Architecture.build(ts, agents, holdings, channels)


def mk_valid_trace(rng: random.Random, arch: Architecture, max_len: int = 4) -> list[Event]:
    events: list[Event] = []
    length = rng.randint(0, max_len)
    while len(events) < length:
        state = possession_closure(arch, events)[-1]
        options = [
            (s, r, ty)
            for (s, r) in arch.channels
            for ty in arch.channel_types(s, r)
            if ty in state.types_of(s)
        ]
        if not options:
            break
        s, r, ty = rng.choice(options)
        events.append(Event(s, state.witness(s, ty), ty, r))
    return events


def bounded_instance(
    rng: random.Random, max_size: int = 6, max_len: int = 4
) -> tuple[Architecture, list[Event]]:
    """Architecture plus valid trace whose closure witnesses all fit in the
    oracle's size bound, so the enumeration oracle is complete for it."""
    while True:
        arch = mk_architecture(rng)
        events = mk_valid_trace(rng, arch, max_len)
        ok = True
        for state in possession_closure(arch, events):
            for agent in arch.agents:
                for ty in state.types_of(agent):
                    if term_size(state.witness(agent, ty)) > max_size:
                        ok = False
        if ok:
            return arch, events


def corrupt_event(
    rng: random.Random, arch: Architecture, events: list[Event]
) -> tuple[int, list[Event], str] | None:
    """Replace one event so the trace first fails at exactly that index.

    Returns (index, corrupted events, reason kind) or None when the instance
    offers no corruption of either kind at any index.
    """
    if not events:
        return None
    indices = list(range(len(events)))
    rng.shuffle(indices)
    kinds = ["channel", "possession"]
    for i in indices:
        state = possession_closure(arch, events[:i])[-1]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "channel":
                options = []
                for s in arch.sorted_agents():
                    for r in arch.sorted_agents():
                        if s == r:
                            continue
                        for ty in state.types_of(s):
                            if ty not in arch.channel_types(s, r):
                                options.append((s, r, ty))
                if not options:
                    continue
                s, r, ty = rng.choice(options)
                bad = Event(s, state.witness(s, ty), ty, r)
            else:
                options = []
                for (s, r), carried in arch.channels.items():
                    for ty in carried:
                        if ty in state.types_of(s):
                            continue
                        term = global_term_of_type(arch, ty)
                        if term is not None:
                            options.append((s, r, ty, term))
                if not options:
                    continue
                s, r, ty, term = rng.choice(options)
                bad = Event(s, term, ty, r)
            return i, events[:i] + [bad] + events[i + 1 :], kind
    return None


def uncomputable_pairs(arch: Architecture) -> list[tuple[AgentId, AtomicType]]:
    return [
        (a, t)
        for a in arch.sorted_agents()
        for t in sorted(arch.type_system.atomic_types, key=lambda t: t.name)
        if not can_compute(arch, a, t)
    ]


def mk_negcreate_set(rng: random.Random, arch: Architecture) -> list[NegCreate] | None:
    pairs = uncomputable_pairs(arch)
    if not pairs:
        return None
    types = sorted(arch.type_system.atomic_types, key=lambda t: t.name)
    out = []
    for _ in range(rng.randint(1, 3)):
        subject, trigger = rng.choice(pairs)
        required = rng.choice([t for t in types if t != trigger])
        out.append(NegCreate(subject, trigger, required))
    return sorted(set(out), key=str)


def mk_negpossess_set(rng: random.Random, arch: Architecture) -> list[NegPossess] | None:
    pairs = uncomputable_pairs(arch)
    if not pairs:
        return None
    agents = sorted(arch.agents, key=lambda a: a.sort_key)
    types = sorted(arch.type_system.atomic_types, key=lambda t: t.name)
    out = []
    for _ in range(rng.randint(1, 3)):
        subject, trigger = rng.choice(pairs)
        holder = rng.choice(agents)
        required = rng.choice(
            [t for t in types if (holder, t) != (subject, trigger)]
        )
        out.append(NegPossess(subject, trigger, holder, required))
    return sorted(set(out), key=str)


def mk_document(rng: random.Random) -> SpecDocument:
    """Random base-level document: every constructor held somewhere, so the
    document grammar can express it."""
    arch = mk_architecture(rng)
    types = sorted(arch.type_system.atomic_types, key=lambda t: t.name)
    agents = sorted(arch.agents, key=lambda a: a.sort_key)
    constraints = []
    form = rng.choice(("create", "possess"))
    for _ in range(rng.randint(0, 3)):
        subject = rng.choice(agents)
        trigger = rng.choice(types)
        required = rng.choice(types)
        if form == "create":
            constraints.append(NegCreate(subject, trigger, required))
        else:
            holder = rng.choice(agents)
            if (holder, required) == (subject, trigger):
                continue  # would be rejected as trivial
            constraints.append(NegPossess(subject, trigger, holder, required))
    for _ in range(rng.randint(0, 2)):
        constraints.append(Positive(rng.choice(agents), rng.choice(types)))
    options = SynthesisConfig(
        algorithm=1 if form == "create" else 2,
        m_family_cap=rng.choice((10_000, 10_000, 512)),
    )
    return SpecDocument.build(arch, constraints, options)


def respaced(text: str) -> str:
    """`text` with a comment after the first word of every line: no statement
    keeps the printed form, so the token reader reads the document."""
    return "\n".join(line.replace(" ", " #\n", 1) for line in text.split("\n"))


# The faults `inject_fault` knows, one per kind of reader error.
FAULTS = ("stray", "deleted", "duplicated", "undeclared", "redeclared", "moved")

_KEYWORDS = frozenset(
    ("types", "agent", "holds", "channel", "constraint", "option", "ni", "pos", "local",
     "prev", "cell", "grant")
)


def inject_fault(rng: random.Random, text: str, fault: str) -> str:
    """`text` with one fault of the kind `fault`, at a token or statement
    that `rng` picks (positions come from the character-by-character
    tokenizer, so they do not depend on the package's readers):

    - stray: a `$` before a token;
    - deleted: a token removed;
    - duplicated: a token written twice;
    - undeclared: a name, not a keyword, replaced by one nothing declares;
    - redeclared: a statement written twice (in a spec, a types or agent
      statement);
    - moved: a statement moved to the end (in a spec, a types or agent
      statement, so its names are used before they are declared).
    """
    tokens = reference_tokenize(text)
    line_starts = [0]
    line_starts += [i + 1 for i, ch in enumerate(text) if ch == "\n"]

    def offset(tok) -> int:
        return line_starts[tok.line - 1] + tok.col - 1

    if fault in ("stray", "deleted", "duplicated", "undeclared"):
        if fault == "undeclared":
            tokens = [t for t in tokens if t.kind == "ident" and t.text not in _KEYWORDS]
        tok = rng.choice(tokens)
        i = offset(tok)
        new = {
            "stray": "$" + tok.text,
            "deleted": "",
            "duplicated": f"{tok.text} {tok.text}",
            "undeclared": "Nowhere",
        }[fault]
        return text[:i] + new + text[i + len(tok.text) :]
    # Each statement as (its first token, its span up to and with its `;`).
    statements = []
    start, first = 0, None
    for tok in tokens:
        first = first or tok
        if tok.text == ";":
            end = offset(tok) + 1
            statements.append((first.text, start, end))
            start, first = end, None
    declaring = [s for s in statements if s[0] in ("types", "agent")]
    _, start, end = rng.choice(declaring or statements)
    if fault == "redeclared":
        return text[:end] + text[start:end] + text[end:]
    return text[:start] + text[end:] + text[start:end]
