"""The benchmark's workloads: seeded inputs, the op each runs, and the answer
each op must get.

An op is one or more in-process `privarch.cli.main([...])` calls, made
through `call`, which returns the exit code and captured standard output and
raises `WrongAnswer` on exit code 2. Every check compares the CLI's output
with what `gen` built; none asks the package for the answer.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen


class WrongAnswer(Exception):
    pass


# Depth of every `explore-safe` search; its budget stops it first.
SAFE_DEPTH = 12


Call = Callable[[list[str]], tuple[int, str]]


@dataclass(frozen=True)
class Size:
    pipeline_strata: tuple[tuple[int, int], ...]
    pipeline_depth: int
    pipeline_budget: int
    safe_strata: tuple[tuple[int, int], ...]
    safe_budget: int
    replay_specs: tuple[tuple[int, int], ...]
    traces: int
    trace_events: tuple[int, int]
    min_ops: int
    beyond_p90: int
    warmup_s: float


# The pipeline and replay pools hold 15 and 45 inputs. A run covers its pool
# in whole passes and each input's latencies form a cluster of their own, so
# the inclusive p50 and p90 then fall inside one input's cluster. With a
# multiple of 10 inputs p90 would be the largest sample of one input, which
# a single slow op sets.
SIZES = {
    "full": Size(
        pipeline_strata=tuple((n, b) for n in range(3, 8) for b in range(2, 5)),
        pipeline_depth=8,
        pipeline_budget=20_000,
        safe_strata=((3, 2), (3, 3), (4, 2), (4, 3)) * 2,
        safe_budget=50_000,
        replay_specs=((3, 3), (4, 2), (5, 3)),
        traces=45,
        trace_events=(100, 1000),
        min_ops=100,
        beyond_p90=10,
        warmup_s=5.0,
    ),
    # A few seconds for every workload; the benchmark's own tests use it.
    "smoke": Size(
        pipeline_strata=((3, 2), (4, 2)),
        pipeline_depth=4,
        pipeline_budget=2_000,
        safe_strata=((3, 2),),
        safe_budget=500,
        replay_specs=((3, 2),),
        traces=4,
        trace_events=(10, 40),
        min_ops=1,
        beyond_p90=0,
        warmup_s=0.0,
    ),
}


def interleave(items: list, key) -> list:
    """Round-robin over four size bands: largest, smallest, upper middle,
    lower middle. Any stretch of a pass over the pool then holds a balanced
    mix of sizes, and the largest inputs are spread through the pass instead
    of bunched, so a slow spell of the host does not land on all of them."""
    ordered = sorted(items, key=key)
    n = len(ordered)
    bands = [ordered[g * n // 4 : (g + 1) * n // 4] for g in range(4)]
    out = []
    for r in range(len(bands[3])):
        out += [bands[g][r] for g in (3, 0, 2, 1) if r < len(bands[g])]
    return out


def synthesize(main, orig: Path, safe: Path) -> None:
    if main(["synthesize", str(orig), "-o", str(safe)]) != 0:
        raise WrongAnswer(f"synthesize failed on {orig.name}")


def pinned_events(text: str) -> list[str]:
    """Statements of a trace file, comments dropped, whitespace normalised."""
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return [" ".join(s.split()) for s in body.split(";") if s.strip()]


def event_strs(trace: list[dict]) -> list[str]:
    return [f"{e['sender']} -> {e['receiver']} : {e['term']} : {e['type']}" for e in trace]


def _explore_json(call: Call, argv: list[str]) -> dict:
    rc, out = call(argv)
    res = json.loads(out)
    expected = 1 if res["counterexamples"] or res["missing_witnesses"] else 0
    if rc != expected:
        raise WrongAnswer(f"explore exited {rc}, its report implies {expected}")
    return res


def _settled(res: dict, negatives: int) -> int:
    return negatives if res["exhausted"] else len(res["counterexamples"])


# --- pipeline ---------------------------------------------------------------


@dataclass(frozen=True)
class PipelineItem:
    original: gen.Original
    path: Path
    safe: Path
    dot: Path


def pipeline_setup(rng: random.Random, size: Size, work: Path, fixtures: Path, main) -> list:
    items = []
    for n, b in size.pipeline_strata:
        o = gen.random_original(rng, n, b)
        stem = work / f"p{len(items)}"
        path = stem.with_suffix(".parch")
        path.write_text(gen.original_text(o))
        items.append(PipelineItem(o, path, stem.with_suffix(".safe.parch"), stem.with_suffix(".dot")))
    return interleave(items, key=lambda it: gen.v2_entries(it.original.n, it.original.b))


def pipeline_op(item: PipelineItem, call: Call, size: Size) -> tuple[int, int]:
    """The README tour: explore the original, synthesize its safe extension,
    verify the premises and export the graph."""
    o = item.original
    n, b = o.n, o.b
    res = _explore_json(
        call,
        ["explore", str(item.path), "--depth", str(size.pipeline_depth),
         "--budget", str(size.pipeline_budget), "--json"],
    )
    model = gen.original_model(o)
    known = {gen.constraint_str(c): c for c in o.constraints}
    for cex in res["counterexamples"]:
        c = known.get(cex["constraint"])
        if c is None or not gen.replays(model, cex["trace"], gen.violates(c)):
            raise WrongAnswer(f"counterexample for {cex['constraint']} does not replay")
    goal = f"pos({o.goal[0]}, {o.goal[1]})"
    for w in res["witnesses"]:
        if w["constraint"] != goal or not gen.replays(model, w["trace"], gen.reaches(o.goal)):
            raise WrongAnswer(f"witness for {w['constraint']} does not replay")

    rc, out = call(["synthesize", str(item.path), "-o", str(item.safe)])
    expected = [
        f"algorithm 2: {3 * n} agents, {b + 2 * n * b} atomic types, "
        f"{b + 3 * n * b} constructors",
        f"wrote {item.safe}",
    ]
    if rc != 0 or out.splitlines() != expected:
        raise WrongAnswer(f"synthesize reported {out!r}")
    rc, out = call(["verify", str(item.safe), "--partition", "canonical"])
    if rc != 0 or out != "premises (algorithm 2): pass\n":
        raise WrongAnswer(f"verify reported {out!r}")
    rc, out = call(["dot", str(item.safe), "--partition", "canonical", "-o", str(item.dot)])
    edges = gen.v2_entries(n, b)
    if rc != 0 or out != f"wrote {item.dot} ({3 * n} nodes, {edges} edges)\n":
        raise WrongAnswer(f"dot reported {out!r}, expected {3 * n} nodes, {edges} edges")
    return _settled(res, len(o.constraints)), len(o.constraints)


# --- explore-safe -----------------------------------------------------------


@dataclass(frozen=True)
class SafeItem:
    path: Path
    negatives: int
    entries: int
    pinned: tuple[str, ...] = ()  # the witness pos(Website, INFO) must be


def explore_safe_setup(
    rng: random.Random, size: Size, work: Path, fixtures: Path, main
) -> list:
    items = []
    for name in ("coppa_safe.parch", "coppa_safe_relaxed.parch"):
        path = work / name
        shutil.copyfile(fixtures / name, path)
        pinned = ()
        if name == "coppa_safe_relaxed.parch":
            pinned = tuple(pinned_events((fixtures / "coppa_witness.trace").read_text()))
        items.append(SafeItem(path, len(gen.COPPA.constraints), gen.v2_entries(3, 3), pinned))
    for n, b in size.safe_strata:
        o = gen.random_original(rng, n, b)
        orig = work / f"s{len(items)}.parch"
        orig.write_text(gen.original_text(o))
        safe = orig.with_suffix(".safe.parch")
        synthesize(main, orig, safe)
        items.append(SafeItem(safe, len(o.constraints), gen.v2_entries(n, b)))
    return items


def explore_safe_op(item: SafeItem, call: Call, size: Size) -> tuple[int, int]:
    """Search a synthesized architecture: by the paper's theorem there is no
    counterexample, so the search runs until depth or budget stops it."""
    res = _explore_json(
        call,
        ["explore", str(item.path), "--depth", str(SAFE_DEPTH),
         "--budget", str(size.safe_budget), "--json"],
    )
    if res["counterexamples"]:
        raise WrongAnswer(f"counterexample on a synthesized spec: {res['counterexamples'][0]}")
    if item.pinned:
        found = {w["constraint"]: event_strs(w["trace"]) for w in res["witnesses"]}
        if found.get("pos(Website, INFO)") != list(item.pinned):
            raise WrongAnswer("witness for pos(Website, INFO) differs from the pinned trace")
    return _settled(res, item.negatives), item.negatives


# --- replay -----------------------------------------------------------------


@dataclass(frozen=True)
class ReplayItem:
    spec: Path
    trace: Path
    case: gen.TraceCase


def replay_setup(rng: random.Random, size: Size, work: Path, fixtures: Path, main) -> list:
    coppa = work / "coppa_safe.parch"
    shutil.copyfile(fixtures / "coppa_safe.parch", coppa)
    specs = [(gen.COPPA, gen.v2_model(gen.COPPA), coppa)]
    for n, b in size.replay_specs:
        o = gen.random_original(rng, n, b)
        orig = work / f"r{n}.parch"
        orig.write_text(gen.original_text(o))
        safe = orig.with_suffix(".safe.parch")
        synthesize(main, orig, safe)
        specs.append((o, gen.v2_model(o), safe))
    lo, hi = size.trace_events
    items = []
    for i, length in enumerate(gen.log_uniform_lengths(size.traces, lo, hi)):
        # Consecutive lengths go to consecutive specs. One in each run of
        # four lengths is planted, on a different spec each time, and the
        # planted traces cycle through the ten tenths of their length.
        o, model, spec = specs[i % len(specs)]
        tenth = (i // 4) % 10 if i % 4 == (i // 4) % 4 else None
        case = gen.random_trace(rng, o, model, length, tenth)
        path = work / f"t{i}.trace"
        path.write_text(case.text)
        items.append(ReplayItem(spec, path, case))
    return interleave(items, key=lambda it: it.case.events)


def replay_op(item: ReplayItem, call: Call, size: Size) -> None:
    """Check a trace: valid and compliant unless a channel violation was
    planted, in which case invalid exactly there."""
    rc, out = call(["check", str(item.spec), str(item.trace)])
    case = item.case
    if case.planted is not None:
        expected = f"invalid trace: invalid at event {case.planted}: channel violation\n"
        if rc != 1 or out != expected:
            raise WrongAnswer(f"check reported {out!r}, expected {expected!r}")
        return None
    lines = out.splitlines()
    if rc != 0 or lines[0] != f"valid trace ({case.events} events)" or lines[-1] != "compliant":
        raise WrongAnswer(f"check reported {out!r} on a valid trace")
    return None


def describe(name: str, pool: list) -> dict:
    """Input sizes of one generated pool, for the run's summary line."""
    if name == "pipeline":
        return {"v2_entries": sorted(gen.v2_entries(it.original.n, it.original.b) for it in pool)}
    if name == "explore-safe":
        return {"v2_entries": sorted(it.entries for it in pool)}
    events = sum(it.case.events for it in pool)
    return {
        "trace_events": sorted(it.case.events for it in pool),
        "relay_share": sum(it.case.relay_events for it in pool) / events,
        "planted_share": sum(it.case.planted is not None for it in pool) / len(pool),
    }


WORKLOADS = {
    "pipeline": (pipeline_setup, pipeline_op),
    "explore-safe": (explore_safe_setup, explore_safe_op),
    "replay": (replay_setup, replay_op),
}
