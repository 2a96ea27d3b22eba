"""Command line entry points.

Five subcommands: `check` a trace against a spec, `synthesize` a safe
extension, `verify` theorem premises for a partition, `explore` the bounded
state space, and `dot` for Graphviz export. Every subcommand takes `--json`
for machine-readable output.

Exit codes: 0 on success, 1 when the analysis itself is negative (invalid
trace, constraint violation, failed premise, counterexample found, or a
positive goal without a witness), 2 for usage, parse, and domain errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

from .architecture import ArchitectureError
from .constraints import (
    ConstraintError,
    LocalSend,
    NegCreate,
    NegPossess,
    check_trace_compliance,
)
from .dsl import (
    DslError,
    SpecDocument,
    parse_grants,
    parse_partition,
    parse_spec,
    parse_trace,
    print_spec,
)
from .dot import dot_lines, export_dot
from .explorer import DEFAULT_DEPTH, ExplorerError, explore
from .semantics import TraceError

# Bound here for benchmarks/spans.py, whose tracer wraps them in this module.
from .dot import dot_counts  # noqa: F401
from .semantics import check_trace_valid  # noqa: F401
from .synthesis import (
    SynthesisError,
    build_safe_architecture_v1,
    build_safe_architecture_v2,
    relax_with_local_constraints,
)
from .terms import CalculusError, term_to_str, type_name
from .verifier import canonical_partition, verify_partition_v1, verify_partition_v2


class InputError(Exception):
    """An input file that cannot be read as text."""


_ERRORS = (
    InputError,
    DslError,
    SynthesisError,
    ArchitectureError,
    CalculusError,
    TraceError,
    ConstraintError,
    ExplorerError,
    OSError,
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        bad = " ".join(f"0x{b:02x}" for b in exc.object[exc.start : exc.end])
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} {bad})") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_spec(path: str) -> SpecDocument:
    return parse_spec(_read(path))


def _emit(args: argparse.Namespace, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human:
            print(line)


def _trace_json(trace) -> list[dict]:
    return [
        {
            "sender": e.sender.name,
            "receiver": e.receiver.name,
            "type": type_name(e.msg_type),
            "term": term_to_str(e.term),
        }
        for e in trace
    ]


def _violation_json(report) -> list[dict]:
    return [
        {"code": v.code, "subject": list(v.subject), "message": v.message}
        for v in report.violations
    ]


def _partition_for(args: argparse.Namespace, arch) -> object:
    if args.partition == "canonical":
        return canonical_partition(arch.agents)
    return parse_partition(_read(args.partition), arch)


def cmd_check(args: argparse.Namespace) -> int:
    doc = _load_spec(args.spec)
    arch = doc.architecture
    trace = parse_trace(_read(args.trace), arch)
    rep = check_trace_compliance(arch, trace, doc.constraints)
    verdict = rep.validity
    if not verdict.valid:
        _emit(
            args,
            {
                "valid": False,
                "index": verdict.index,
                "reason": verdict.reason,
                "compliant": None,
            },
            [f"invalid trace: {verdict}"],
        )
        return 1
    human = [f"valid trace ({len(trace)} events)"]
    violations = []
    for c, prefix_len, detail in rep.negatives.violations + rep.local_gates.violations:
        violations.append({"constraint": str(c), "prefix": prefix_len, "detail": detail})
        human.append(f"violation: {c} (prefix {prefix_len}): {detail}")
    positives = [
        {"constraint": str(c), "met": met} for c, met in sorted(
            rep.positives.items(), key=lambda kv: str(kv[0])
        )
    ]
    for entry in positives:
        met = "met" if entry["met"] else "not met (informational)"
        human.append(f"goal {entry['constraint']}: {met}")
    if rep.compliant:
        human.append("compliant")
    _emit(
        args,
        {
            "valid": True,
            "compliant": rep.compliant,
            "violations": violations,
            "positives": positives,
        },
        human,
    )
    return 0 if rep.compliant else 1


def cmd_synthesize(args: argparse.Namespace) -> int:
    doc = _load_spec(args.spec)
    algorithm = args.algorithm if args.algorithm else doc.options.algorithm
    config = replace(doc.options, algorithm=algorithm)
    if algorithm == 1:
        safe = build_safe_architecture_v1(doc.architecture, doc.constraints, config)
    else:
        safe = build_safe_architecture_v2(doc.architecture, doc.constraints, config)
    gates: tuple[LocalSend, ...] = ()
    if args.grants:
        grants = parse_grants(_read(args.grants), safe.arch)
        safe, gates = relax_with_local_constraints(safe, grants)
    out_doc = SpecDocument.build(safe.arch, tuple(doc.constraints) + gates, config)
    text = print_spec(out_doc)
    if args.output:
        _write(args.output, text)
    ts = safe.arch.type_system
    payload = {
        "algorithm": algorithm,
        "agents": len(safe.arch.agents),
        "atomic_types": len(ts.atomic_types),
        "constructors": len(ts.constructors),
        "local_constraints": [str(g) for g in gates],
        "warnings": list(safe.warnings),
        "spec": text,
    }
    human = [
        f"algorithm {algorithm}: {payload['agents']} agents, "
        f"{payload['atomic_types']} atomic types, {payload['constructors']} constructors"
    ]
    human += [f"gated channel: {g}" for g in gates]
    human += [f"warning: {w}" for w in safe.warnings]
    if args.output:
        human.append(f"wrote {args.output}")
    else:
        human.append(text.rstrip("\n"))
    _emit(args, payload, human)
    return 0


def _infer_algorithm(args: argparse.Namespace, doc: SpecDocument) -> int:
    if args.algorithm:
        return args.algorithm
    has_create = any(isinstance(c, NegCreate) for c in doc.constraints)
    has_possess = any(isinstance(c, NegPossess) for c in doc.constraints)
    if has_create and has_possess:
        raise ConstraintError("constraints mix both negative forms; pass --algorithm")
    if has_create:
        return 1
    if has_possess:
        return 2
    return doc.options.algorithm


def cmd_verify(args: argparse.Namespace) -> int:
    doc = _load_spec(args.spec)
    arch = doc.architecture
    algorithm = _infer_algorithm(args, doc)
    partition = _partition_for(args, arch)
    verify = verify_partition_v1 if algorithm == 1 else verify_partition_v2
    report = verify(arch, partition, doc.constraints)
    payload = {
        "algorithm": algorithm,
        "passed": report.passed,
        "violations": _violation_json(report),
    }
    human = [f"premises (algorithm {algorithm}): {'pass' if report.passed else 'FAIL'}"]
    human += report.lines()
    _emit(args, payload, human)
    return 0 if report.passed else 1


def cmd_explore(args: argparse.Namespace) -> int:
    doc = _load_spec(args.spec)
    outcome = explore(
        doc.architecture, doc.constraints, depth=args.depth, budget=args.budget
    )
    payload = {
        "states_visited": outcome.states_visited,
        "exhausted": outcome.exhausted,
        "depth": outcome.depth,
        "budget": outcome.budget,
        "counterexamples": [
            {"constraint": str(c), "trace": _trace_json(tr)}
            for c, tr in outcome.counterexamples
        ],
        "witnesses": [
            {"constraint": str(c), "trace": _trace_json(tr)}
            for c, tr in outcome.witnesses
        ],
        "missing_witnesses": [str(c) for c in outcome.missing_witnesses],
    }
    human = [
        f"states visited: {outcome.states_visited} (depth {outcome.depth}, "
        f"budget {outcome.budget}, exhausted: {'yes' if outcome.exhausted else 'no'})"
    ]
    for c, tr in outcome.counterexamples:
        human.append(f"counterexample ({len(tr)} events) violates {c}:")
        human += [f"  {e};" for e in tr]
    for c, tr in outcome.witnesses:
        human.append(f"witness ({len(tr)} events) for {c}:")
        human += [f"  {e};" for e in tr]
    for c in outcome.missing_witnesses:
        human.append(f"no witness within depth for {c} (inconclusive)")
    if not outcome.counterexamples:
        human.append("no counterexamples found")
    _emit(args, payload, human)
    return 0 if not outcome.counterexamples and not outcome.missing_witnesses else 1


# Characters per write of `dot -o`: one write per line costs more than a
# join, and a batch is held in memory until it is written.
_DOT_BATCH = 32 * 1024


def cmd_dot(args: argparse.Namespace) -> int:
    doc = _load_spec(args.spec)
    partition = None
    if args.partition:
        partition = _partition_for(args, doc.architecture)
    # One node per agent and one edge per channel type, as export_dot writes.
    nodes = len(doc.architecture.agents)
    edges = sum(len(types) for types in doc.architecture.channels.values())
    if args.output and not args.json:
        # Only the file needs the text: write the lines as they are made.
        with open(args.output, "w", encoding="utf-8") as fh:
            batch: list[str] = []
            size = 0
            for block in dot_lines(doc.architecture, partition):
                batch.append(block)
                size += len(block)
                if size >= _DOT_BATCH:
                    fh.write("\n".join(batch) + "\n")
                    batch, size = [], 0
            if batch:
                fh.write("\n".join(batch) + "\n")
        print(f"wrote {args.output} ({nodes} nodes, {edges} edges)")
        return 0
    text = export_dot(doc.architecture, partition)
    if args.output:
        _write(args.output, text)
    _emit(args, {"nodes": nodes, "edges": edges, "dot": text}, [text.rstrip("\n")])
    return 0


# Built once per process: parsing leaves the parser as it was, and in-process
# callers such as the benchmark call `main` many times.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privarch",
        description="workbench for privacy-by-design message architectures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a trace and check its constraints")
    p.add_argument("spec")
    p.add_argument("trace")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synthesize", help="build the safe extension of a spec")
    p.add_argument("spec")
    p.add_argument("--algorithm", type=int, choices=(1, 2))
    p.add_argument("--grants", help="grant file relaxing interface channels")
    p.add_argument("-o", "--output", help="write the synthesized spec here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="check the safety theorem premises")
    p.add_argument("spec")
    p.add_argument(
        "--partition",
        required=True,
        help="partition file, or 'canonical' for owner cells",
    )
    p.add_argument("--algorithm", type=int, choices=(1, 2))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("explore", help="bounded search for violations and witnesses")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("dot", help="export the architecture as Graphviz")
    p.add_argument("spec")
    p.add_argument("--partition", help="partition file or 'canonical'")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output early, as `head` does. As the
        # Python docs' note on SIGPIPE advises, what is still buffered goes
        # to devnull, so the flush at exit fails no more. 141 is 128 +
        # SIGPIPE, the shell's status for a process that SIGPIPE ended.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to analyse", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
