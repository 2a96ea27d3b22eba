"""Graphviz export: one node per agent, one labeled edge per channel type.

Interface agents render as dashed boxes so synthesized structure stands out
against the original agents. With a partition, each cell becomes a cluster
named after its owner. Output is deterministic: nodes and edges follow the
canonical agent and type orders.
"""

from __future__ import annotations

from typing import Iterator

from .architecture import Architecture, ORIGINAL
from .terms import TypeSetText
from .verifier import Partition


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def _node_line(agent) -> str:
    if agent.kind == ORIGINAL:
        return f"  {_quote(agent.name)} [shape=ellipse];"
    return f"  {_quote(agent.name)} [shape=box, style=dashed];"


def dot_lines(arch: Architecture, partition: Partition | None = None) -> Iterator[str]:
    """The lines of the DOT text without their last newline, a node line or
    all of one channel's edge lines at a time, each made as it is asked for,
    so a writer never holds the whole text."""
    yield "digraph architecture {"
    yield "  rankdir=LR;"

    agents = arch.sorted_agents()
    if partition is None:
        yield from map(_node_line, agents)
    else:
        cells: dict = {}
        loose = []
        for a in agents:
            owner = partition.cell_of(a)
            if owner is None:
                loose.append(a)
            else:
                cells.setdefault(owner, []).append(a)
        for i, owner in enumerate(sorted(cells, key=lambda a: a.sort_key)):
            yield f"  subgraph cluster_{i} {{"
            yield f"    label={_quote(owner.name)};"
            for a in sorted(cells[owner], key=lambda a: a.sort_key):
                yield "  " + _node_line(a)
            yield "  }"
        yield from map(_node_line, loose)

    labels = TypeSetText(
        arch.type_system.atomic_types, lambda names: [f" [label={_quote(n)}];" for n in names]
    )
    for (s, r), types in arch.sorted_channels():
        tails = labels(types)
        if tails:
            edge = f"  {_quote(s.name)} -> {_quote(r.name)}"
            yield edge + ("\n" + edge).join(tails)

    yield "}"


def export_dot(arch: Architecture, partition: Partition | None = None) -> str:
    return "\n".join(dot_lines(arch, partition)) + "\n"


def dot_counts(dot: str) -> tuple[int, int]:
    """(nodes, edges) as the DOT text declares them; a structural sanity
    check for tests and the command line, not a full parser."""
    nodes = edges = 0
    for raw in dot.splitlines():
        line = raw.strip()
        if line.endswith("];") and line.startswith('"'):
            if " -> " in line:
                edges += 1
            else:
                nodes += 1
    return nodes, edges
