"""Graph export: pinned node and edge counts plus structural spot checks."""

from __future__ import annotations

from privarch import Architecture, Base, Proof, dot_counts, export_dot, type_name, type_sort_key
from privarch.verifier import canonical_partition


def test_base_architecture_counts(coppa_doc):
    assert dot_counts(export_dot(coppa_doc.architecture)) == (3, 3)


def test_safe_architecture_counts(coppa_safe_doc):
    assert dot_counts(export_dot(coppa_safe_doc.architecture)) == (9, 558)


def test_relaxed_architecture_counts(coppa_relaxed_doc):
    # two granted channels on top of the pure synthesis output
    assert dot_counts(export_dot(coppa_relaxed_doc.architecture)) == (9, 560)


def test_partition_renders_clusters(safe_v2):
    dot = export_dot(safe_v2.arch, safe_v2.canonical_partition)
    assert dot.count("subgraph cluster_") == 3
    assert 'label="Website";' in dot
    assert dot_counts(dot) == (9, 558)


def test_node_shapes(coppa_relaxed_doc):
    dot = export_dot(coppa_relaxed_doc.architecture)
    assert '"Child" [shape=ellipse];' in dot
    assert '"I:Child" [shape=box, style=dashed];' in dot


def test_edge_labels_name_channel_types(coppa_doc):
    dot = export_dot(coppa_doc.architecture)
    assert '"Parent" -> "Website" [label="CONSENT"];' in dot


def test_output_is_deterministic_and_well_formed(safe_v2):
    dot = export_dot(safe_v2.arch)
    assert dot == export_dot(safe_v2.arch)
    assert dot.startswith("digraph architecture {\n")
    assert dot.endswith("}\n")
    depth = 0
    for ch in dot:
        depth += {"{": 1, "}": -1}.get(ch, 0)
        assert depth >= 0
    assert depth == 0


def test_loose_agents_render_outside_clusters(coppa_doc):
    arch = coppa_doc.architecture
    part = canonical_partition([arch.agent_named("Website")])
    dot = export_dot(arch, part)
    assert dot.count("subgraph cluster_") == 1
    assert '  "Child" [shape=ellipse];' in dot
    assert dot_counts(dot) == (3, 3)


def test_api_architecture_with_undeclared_type(coppa_doc):
    # Types outside the type system label edges in the canonical type order.
    arch = coppa_doc.architecture
    child, parent, website = (arch.agent_named(n) for n in ("Child", "Parent", "Website"))
    odd = {Base("INFO"), Base("AAA"), Proof("Parent", "ZED")}
    api = Architecture.build(
        arch.type_system,
        arch.agents,
        arch.holdings,
        {
            **arch.channels,
            (child, parent): odd,
            (parent, child): odd,
            (website, child): {Base("POLICY"), Base("CONSENT"), Base("INFO")},
        },
    )
    assert export_dot(api) == (
        "digraph architecture {\n"
        "  rankdir=LR;\n"
        '  "Child" [shape=ellipse];\n'
        '  "Parent" [shape=ellipse];\n'
        '  "Website" [shape=ellipse];\n'
        '  "Child" -> "Parent" [label="AAA"];\n'
        '  "Child" -> "Parent" [label="INFO"];\n'
        '  "Child" -> "Parent" [label="P[Parent](ZED)"];\n'
        '  "Child" -> "Website" [label="INFO"];\n'
        '  "Parent" -> "Child" [label="AAA"];\n'
        '  "Parent" -> "Child" [label="INFO"];\n'
        '  "Parent" -> "Child" [label="P[Parent](ZED)"];\n'
        '  "Parent" -> "Website" [label="CONSENT"];\n'
        '  "Website" -> "Child" [label="CONSENT"];\n'
        '  "Website" -> "Child" [label="INFO"];\n'
        '  "Website" -> "Child" [label="POLICY"];\n'
        '  "Website" -> "Parent" [label="POLICY"];\n'
        "}\n"
    )


def test_edges_follow_the_canonical_channel_and_type_order(
    coppa_doc, coppa_safe_doc, coppa_relaxed_doc, safe_v1, safe_v2
):
    # One edge line per channel type, channels by sender then receiver and
    # each channel's types in canonical order, whatever the lines are made in.
    for arch in (coppa_doc.architecture, coppa_safe_doc.architecture,
                 coppa_relaxed_doc.architecture, safe_v1.arch, safe_v2.arch):
        edges = [line for line in export_dot(arch).splitlines() if " -> " in line]
        assert edges == [
            f'  "{s.name}" -> "{r.name}" [label="{type_name(t)}"];'
            for (s, r), types in arch.sorted_channels()
            for t in sorted(types, key=type_sort_key)
        ]
