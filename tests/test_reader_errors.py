"""Every reader's answer to one injected fault, pinned.

Specs, traces, partitions and grant lists, from the fixtures and from
seeded generated documents, are each spelled two ways: in printed form and
respaced, so that the token reader reads every statement. Each spelling
gets one fault of each kind `generators.inject_fault` knows, twice, and the
reader's answer is recorded: the error's class, message, line and column,
or a digest of the printed result when the document still reads.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import partial
from pathlib import Path

from privarch import (
    AgentId,
    Architecture,
    DslError,
    Event,
    Grant,
    SpecDocument,
    build_safe_architecture_v1,
    build_safe_architecture_v2,
    canonical_partition,
    parse_grants,
    parse_partition,
    parse_spec,
    parse_trace,
    possession_closure,
    print_grants,
    print_partition,
    print_spec,
    print_trace,
)

from conftest import read_fixture
from generators import FAULTS, inject_fault, mk_document, respaced

GOLDEN = Path(__file__).with_name("reader_errors_golden.json")


def first_sends(arch: Architecture, n: int) -> list[Event]:
    """Up to `n` events along the channels in sorted order, each carrying a
    type its sender holds before any message; unlike a random walk, the
    same under every hash seed."""
    state = possession_closure(arch, ())[-1]
    events = [
        Event(s, state.witness(s, ty), ty, r)
        for (s, r), carried in arch.sorted_channels()
        for ty in sorted(carried, key=str)
        if ty in state.types_of(s)
    ]
    return events[:n]


def reader_inputs():
    """(name, text in printed form, read, print) of every input."""
    specs = {
        name: parse_spec(read_fixture(name))
        for name in ("coppa.parch", "coppa_v1.parch", "coppa_safe.parch",
                     "coppa_safe_relaxed.parch", "coppa_v1_safe.parch")
    }
    rng = random.Random(0xE44)
    for k in range(3):
        doc = mk_document(rng)
        build = build_safe_architecture_v1 if doc.options.algorithm == 1 else build_safe_architecture_v2
        safe = build(doc.architecture, doc.constraints, doc.options)
        specs[f"generated {k}"] = doc
        specs[f"generated {k} synthesized"] = SpecDocument.build(safe.arch, doc.constraints, doc.options)
    inputs = [(f"spec {name}", print_spec(doc), parse_spec, print_spec) for name, doc in specs.items()]

    traces = {"coppa_witness.trace": ("coppa_safe_relaxed.parch", read_fixture("coppa_witness.trace"))}
    for k in range(3):
        name = f"generated {k} synthesized"
        events = first_sends(specs[name].architecture, 8)
        traces[f"generated {k}"] = (name, print_trace(tuple(events + events[:2])))
    for name, (spec, text) in traces.items():
        arch = specs[spec].architecture
        trace = parse_trace(text, arch)
        if trace:
            read = partial(parse_trace, arch=arch)
            inputs.append((f"trace {name}", print_trace(trace), read, print_trace))

    for spec in ("coppa_safe.parch", "coppa_v1_safe.parch", "generated 0 synthesized"):
        arch = specs[spec].architecture
        read = partial(parse_partition, arch=arch)
        text = print_partition(canonical_partition(arch.agents))
        inputs.append((f"partition {spec}", text, read, print_partition))

    grant_lists = {"coppa.grants": ("coppa_safe.parch", read_fixture("coppa.grants"))}
    for k in range(3):
        name = f"generated {k} synthesized"
        arch = specs[f"generated {k}"].architecture
        grants = [
            Grant(AgentId.interface_of(a), t, AgentId.output_of(a))
            for a in arch.sorted_agents()
            for t in sorted(arch.type_system.atomic_types, key=str)
            if rng.random() < 0.5
        ]
        grant_lists[f"generated {k}"] = (name, print_grants(grants))
    for name, (spec, text) in grant_lists.items():
        arch = specs[spec].architecture
        read = partial(parse_grants, arch=arch)
        inputs.append((f"grants {name}", print_grants(read(text)), read, print_grants))
    return inputs


def outcome(read, show, text) -> list:
    try:
        result = read(text)
    except DslError as exc:
        message = str(exc).removeprefix(f"line {exc.line}, col {exc.col}: ")
        return [type(exc).__name__, message, exc.line, exc.col]
    return ["read", hashlib.sha256(show(result).encode()).hexdigest()[:16]]


def reader_outcomes() -> dict[str, list]:
    """The outcome of every faulted input; `reader_errors_golden.json`
    holds the recorded result."""
    out = {}
    rng = random.Random(0xFA7)
    for name, printed, read, show in reader_inputs():
        for spelling, text in (("printed", printed), ("respaced", respaced(printed))):
            for fault in FAULTS:
                for k in range(2):
                    faulted = inject_fault(rng, text, fault)
                    out[f"{name} {spelling} {fault} {k}"] = outcome(read, show, faulted)
                if fault != "stray":
                    # A stray character as well: which of two errors a reader
                    # meets first is pinned too.
                    faulted = inject_fault(rng, inject_fault(rng, text, fault), "stray")
                    out[f"{name} {spelling} {fault} and stray"] = outcome(read, show, faulted)
    return out


def test_reader_outcomes_match_the_golden_record():
    assert reader_outcomes() == json.loads(GOLDEN.read_text())
