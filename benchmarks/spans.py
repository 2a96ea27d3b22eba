"""Spans around the calls into each privarch module, recorded from outside.

The traced run replaces public functions where the calling module binds
them (``parse_spec`` as bound in ``privarch.cli``, ``tokenize`` in
``privarch.dsl``, ``check_trace_valid`` in ``privarch.semantics`` and
``privarch.explorer``, ...), so no source file changes. A span is a list
``[name, start_ns, end_ns, parent, op, raised]``; ``parent`` is the index of
the enclosing span or -1. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "cli",
    "dsl",
    "synthesis",
    "verifier",
    "dot",
    "architecture",
    "semantics",
    "constraints",
    "explorer",
)

# (module that binds the name, function name, layer that defines it)
SITES = (
    ("cli", "parse_spec", "dsl"),
    ("cli", "parse_trace", "dsl"),
    ("cli", "parse_partition", "dsl"),
    ("cli", "parse_grants", "dsl"),
    ("cli", "print_spec", "dsl"),
    ("dsl", "tokenize", "dsl"),
    ("cli", "build_safe_architecture_v1", "synthesis"),
    ("cli", "build_safe_architecture_v2", "synthesis"),
    ("cli", "relax_with_local_constraints", "synthesis"),
    ("cli", "canonical_partition", "verifier"),
    ("cli", "verify_partition_v1", "verifier"),
    ("cli", "verify_partition_v2", "verifier"),
    ("cli", "export_dot", "dot"),
    ("cli", "dot_counts", "dot"),
    ("dsl", "validate_architecture", "architecture"),
    ("explorer", "validate_architecture", "architecture"),
    ("cli", "check_trace_valid", "semantics"),
    ("explorer", "check_trace_valid", "semantics"),
    ("semantics", "check_trace_valid", "semantics"),
    ("explorer", "possession_closure", "semantics"),
    ("constraints", "possession_closure", "semantics"),
    ("cli", "check_trace_compliance", "constraints"),
    ("explorer", "check_local", "constraints"),
    ("explorer", "check_neg_create", "constraints"),
    ("explorer", "check_neg_possess", "constraints"),
    ("explorer", "check_positive", "constraints"),
    ("cli", "explore", "explorer"),
    ("explorer", "reconstruct_trace", "explorer"),
)


def _count_explore(counts: Counter, args: tuple, kwargs: dict, out) -> None:
    negatives = sum(
        type(c).__name__ in ("NegCreate", "NegPossess") for c in args[1]
    )
    counts["explorer.states"] += out.states_visited
    counts["explorer.negatives"] += negatives
    counts["explorer.decided"] += negatives if out.exhausted else len(out.counterexamples)
    counts["explorer.budget_cuts"] += (
        not out.exhausted and out.states_visited >= out.budget
    )
    counts["explorer.useful"] += len(out.counterexamples) + len(out.witnesses)


def _count_entries(counts: Counter, args: tuple, kwargs: dict, out) -> None:
    counts["synthesis.channel_entries"] += sum(len(t) for t in out.arch.channels.values())


# Work counts taken from a call's arguments and result, after its span ends.
COUNTERS = {
    "tokenize": lambda c, a, k, out: c.update({"dsl.tokens": len(out)}),
    "parse_spec": lambda c, a, k, out: c.update({"dsl.spec_bytes": len(a[0])}),
    "build_safe_architecture_v1": _count_entries,
    "build_safe_architecture_v2": _count_entries,
    # The checker stops at the first invalid event.
    "check_trace_valid": lambda c, a, k, out: c.update(
        {"semantics.events_checked": len(a[1]) if out.valid else out.index + 1}
    ),
    "explore": _count_explore,
}


class Tracer:
    """Records one span per wrapped call; `op` tags the spans of one op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.op, False]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for module, attr, layer in SITES:
            mod = importlib.import_module(f"privarch.{module}")
            fn = getattr(mod, attr)
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(f"{layer}.{attr}", fn, COUNTERS.get(attr)))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counts: Counter, ops: int, checks: int) -> dict:
    """Per-layer figures for `ops` traced ops, `checks` of them `check` calls.
    Times are seconds per op, counts per op; ratios use the bases named."""
    own = self_times(spans)
    incl: Counter = Counter()
    excl: Counter = Counter()
    calls: Counter = Counter()
    errors: Counter = Counter()
    for (name, start, end, _, _, raised), self_ns in zip(spans, own):
        layer = name.split(".", 1)[0]
        incl[name] += end - start
        excl[name] += self_ns
        excl[layer] += self_ns
        calls[name] += 1
        calls[layer] += 1
        errors[layer] += raised

    def per_op(ns: int) -> float:
        return ns / 1e9 / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def total(*names: str) -> int:
        return sum(incl[n] for n in names)

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_op(excl[layer]), "s/op")
        m[f"{layer}.calls"] = (calls[layer] / ops, "count/op")
        m[f"{layer}.errors"] = (errors[layer], "count")
    tokenize_ns = incl["dsl.tokenize"]
    search_ns = excl["explorer.explore"]
    m.update(
        {
            "dsl.tokenize_s": (per_op(tokenize_ns), "s/op"),
            "dsl.tokens": (counts["dsl.tokens"] / ops, "count/op"),
            "dsl.tokens_per_s": (ratio(counts["dsl.tokens"], tokenize_ns / 1e9), "1/s"),
            "dsl.parse_spec_s": (per_op(incl["dsl.parse_spec"]), "s/op"),
            "dsl.print_spec_s": (per_op(incl["dsl.print_spec"]), "s/op"),
            "dsl.spec_bytes": (counts["dsl.spec_bytes"] / ops, "B/op"),
            "dsl.parse_trace_s": (per_op(incl["dsl.parse_trace"]), "s/op"),
            "synthesis.build_s": (
                per_op(
                    total(
                        "synthesis.build_safe_architecture_v1",
                        "synthesis.build_safe_architecture_v2",
                        "synthesis.relax_with_local_constraints",
                    )
                ),
                "s/op",
            ),
            "synthesis.channel_entries": (
                counts["synthesis.channel_entries"] / ops,
                "count/op",
            ),
            "verifier.verify_s": (
                per_op(
                    total(
                        "verifier.canonical_partition",
                        "verifier.verify_partition_v1",
                        "verifier.verify_partition_v2",
                    )
                ),
                "s/op",
            ),
            "dot.export_s": (per_op(total("dot.export_dot", "dot.dot_counts")), "s/op"),
            "architecture.validate_s": (
                per_op(incl["architecture.validate_architecture"]),
                "s/op",
            ),
            "explorer.search_self_s": (per_op(search_ns), "s/op"),
            "explorer.states": (counts["explorer.states"] / ops, "count/op"),
            "explorer.states_per_s": (
                ratio(counts["explorer.states"], search_ns / 1e9),
                "1/s",
            ),
            "explorer.budget_cut_ratio": (
                ratio(counts["explorer.budget_cuts"], calls["explorer.explore"]),
                "ratio",
            ),
            "explorer.decided_ratio": (
                ratio(counts["explorer.decided"], counts["explorer.negatives"]),
                "ratio",
            ),
            "explorer.reconstruct_s": (
                per_op(incl["explorer.reconstruct_trace"]),
                "s/op",
            ),
            "explorer.reconstructions": (
                calls["explorer.reconstruct_trace"] / ops,
                "count/op",
            ),
            "explorer.reconstruct_useful_ratio": (
                ratio(counts["explorer.useful"], calls["explorer.reconstruct_trace"]),
                "ratio",
            ),
            "semantics.valid_s": (per_op(incl["semantics.check_trace_valid"]), "s/op"),
            "semantics.valid_calls_per_check": (
                ratio(calls["semantics.check_trace_valid"], checks),
                "count",
            ),
            "semantics.closure_self_s": (
                per_op(excl["semantics.possession_closure"]),
                "s/op",
            ),
            "semantics.events_checked": (
                counts["semantics.events_checked"] / ops,
                "count/op",
            ),
            "constraints.compliance_self_s": (
                per_op(excl["constraints.check_trace_compliance"]),
                "s/op",
            ),
        }
    )
    return m
