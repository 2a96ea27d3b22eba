"""The printed-form reader against the token reader, on whole documents."""

from __future__ import annotations

import random

import pytest

from privarch import (
    AgentId,
    App,
    Grant,
    SpecDocument,
    build_safe_architecture_v1,
    build_safe_architecture_v2,
    parse_spec,
    parse_trace,
    print_spec,
    print_trace,
    relax_with_local_constraints,
)
from privarch import dsl

from generators import mk_document, mk_valid_trace

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def commented(text):
    """`text` with a comment that holds a `;` after every other line."""
    return "\n".join(line + " # ;" if k % 2 else line for k, line in enumerate(text.split("\n")))


def spaced_otherwise(text):
    """`text` with a comment after the first word of every line: no statement
    keeps the printed form, so the token reader reads the document."""
    return "\n".join(line.replace(" ", " #\n", 1) for line in text.split("\n"))


def documents(rng):
    """A generated document, its v1 or v2 synthesis, and for v2 the synthesis
    relaxed by one grant, whose gate is a `local` constraint."""
    doc = mk_document(rng)
    v2 = doc.options.algorithm == 2
    build = build_safe_architecture_v2 if v2 else build_safe_architecture_v1
    safe = build(doc.architecture, doc.constraints, doc.options)
    docs = [doc, SpecDocument.build(safe.arch, doc.constraints, doc.options)]
    if v2:
        owner = rng.choice(doc.architecture.original_agents())
        base = rng.choice(sorted(doc.architecture.type_system.atomic_types, key=str))
        grant = Grant(AgentId.interface_of(owner), base, AgentId.output_of(owner))
        relaxed, gates = relax_with_local_constraints(safe, [grant])
        docs.append(SpecDocument.build(relaxed.arch, (*doc.constraints, *gates), doc.options))
    return docs


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
def test_whole_document_reads_equal_the_token_readers(seed):
    rng = random.Random(seed)
    for doc in documents(rng):
        printed = print_spec(doc)
        text, slow = commented(printed), commented(spaced_otherwise(printed))
        assert dsl._read_printed_spec(dsl._blank_comments(text)) is not None
        assert dsl._read_printed_spec(dsl._blank_comments(slow)) is None
        assert parse_spec(text) == parse_spec(slow) == doc

        arch = doc.architecture
        events = mk_valid_trace(rng, arch, 8)
        events += [rng.choice(events) for _ in events]
        printed = print_trace(tuple(events))
        text, slow = commented(printed), commented(spaced_otherwise(printed))
        trace = parse_trace(text, arch)
        assert trace == parse_trace(slow, arch) == tuple(events)
        if events:
            assert dsl._read_printed_trace(dsl._blank_comments(text), arch) is not None
            assert dsl._read_printed_trace(dsl._blank_comments(slow), arch) is None
        # Each repeat of a statement is the event read for its first occurrence,
        # and equal subterms are one object.
        first = {}
        assert all(first.setdefault(str(e), e) is e for e in trace)
        terms, stack = {}, [e.term for e in trace]
        while stack:
            term = stack.pop()
            assert terms.setdefault(term, term) is term
            if isinstance(term, App):
                stack += (term.fun, term.arg)
