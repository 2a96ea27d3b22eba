"""Tests of the benchmark itself: seeded inputs, the span tree, the known-answer
checks and the output contract. Run with `python -m pytest benchmarks`."""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from privarch import cli, parse_spec, type_name  # noqa: E402
from workloads import SIZES, WORKLOADS, WrongAnswer  # noqa: E402

SMOKE = SIZES["smoke"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def generate(name: str, seed: int, work: Path) -> tuple[list, dict[str, bytes]]:
    work.mkdir()
    pool = WORKLOADS[name][0](random.Random(seed), SMOKE, work, ROOT / "fixtures", quiet_main)
    return pool, {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    _, first = generate(name, 5, tmp_path / "a")
    _, again = generate(name, 5, tmp_path / "b")
    _, other = generate(name, 6, tmp_path / "c")
    assert first == again
    assert first != other


def test_v2_model_matches_the_synthesized_architecture(tmp_path):
    rng = random.Random(3)
    for n, b in ((3, 2), (4, 3), (5, 4)):
        o = gen.random_original(rng, n, b)
        orig, safe = tmp_path / "o.parch", tmp_path / "s.parch"
        orig.write_text(gen.original_text(o))
        workloads.synthesize(quiet_main, orig, safe)
        arch = parse_spec(safe.read_text()).architecture
        model = gen.v2_model(o)
        assert {a.name for a in arch.agents} == set(model.agents)
        assert {a.name: tuple(sorted(arch.holdings_of(a))) for a in arch.agents} == {
            a: tuple(sorted(h)) for a, h in model.holds.items()
        }
        channels = {
            (s.name, r.name): sorted(type_name(t) for t in tys)
            for (s, r), tys in arch.channels.items()
        }
        assert channels == {k: sorted(v) for k, v in model.channels.items()}
        assert sum(len(v) for v in channels.values()) == gen.v2_entries(n, b)


def test_coppa_model_synthesizes_to_the_fixture(tmp_path):
    orig, safe = tmp_path / "coppa.parch", tmp_path / "safe.parch"
    orig.write_text(gen.original_text(gen.COPPA))
    workloads.synthesize(quiet_main, orig, safe)
    assert safe.read_text() == (ROOT / "fixtures" / "coppa_safe.parch").read_text()


def test_trace_lengths_and_shares():
    rng = random.Random(9)
    lengths = gen.log_uniform_lengths(40, 100, 1000)
    assert lengths == sorted(lengths)
    assert 100 <= lengths[0] and lengths[-1] <= 1000
    assert lengths[20] == 325  # geometric midpoint of its stratum
    model = gen.v2_model(gen.COPPA)
    case = gen.random_trace(rng, gen.COPPA, model, 300, planted=3)
    assert case.events == 301 == len(case.text.splitlines())
    assert 90 <= case.planted < 120
    assert "-> I:" in case.text.splitlines()[case.planted]
    assert 0 < case.relay_events < case.events


class FakeCall:
    """Stands in for the CLI with canned answers, to show a check rejects
    the wrong one."""

    def __init__(self, *answers: tuple[int, str]):
        self.answers = list(answers)

    def __call__(self, argv):
        return self.answers.pop(0)


def test_replay_rejects_a_wrong_verdict(tmp_path):
    case = gen.TraceCase("", 120, 0, 7)
    item = workloads.ReplayItem(tmp_path / "s", tmp_path / "t", case)
    workloads.replay_op(
        item, FakeCall((1, "invalid trace: invalid at event 7: channel violation\n")), SMOKE
    )
    for wrong in (
        (1, "invalid trace: invalid at event 8: channel violation\n"),
        (1, "invalid trace: invalid at event 7: possession violation\n"),
        (0, "valid trace (120 events)\ncompliant\n"),
    ):
        with pytest.raises(WrongAnswer):
            workloads.replay_op(item, FakeCall(wrong), SMOKE)
    valid = workloads.ReplayItem(tmp_path / "s", tmp_path / "t", gen.TraceCase("", 120, 0, None))
    with pytest.raises(WrongAnswer):
        workloads.replay_op(valid, FakeCall((1, "valid trace (120 events)\nviolation: x\n")), SMOKE)


def test_pipeline_rejects_a_bad_counterexample_or_count(tmp_path):
    o = gen.COPPA
    item = workloads.PipelineItem(o, tmp_path / "o", tmp_path / "s", tmp_path / "d")
    c = gen.constraint_str(o.constraints[1])  # Website ni INFO => Website ni CONSENT
    good = [{"sender": "Child", "receiver": "Website", "type": "INFO", "term": "info"}]
    bad = [{"sender": "Parent", "receiver": "Website", "type": "INFO", "term": "info"}]

    def answers(trace, edges):
        report = {"counterexamples": [{"constraint": c, "trace": trace}], "witnesses": [],
                  "missing_witnesses": [], "exhausted": False}
        return FakeCall(
            (1, json.dumps(report)),
            (0, f"algorithm 2: 9 agents, 21 atomic types, 30 constructors\nwrote {item.safe}\n"),
            (0, "premises (algorithm 2): pass\n"),
            (0, f"wrote {item.dot} (9 nodes, {edges} edges)\n"),
        )

    assert workloads.pipeline_op(item, answers(good, 558), SMOKE) == (1, 2)
    with pytest.raises(WrongAnswer):
        workloads.pipeline_op(item, answers(bad, 558), SMOKE)
    with pytest.raises(WrongAnswer):
        workloads.pipeline_op(item, answers(good, 557), SMOKE)


def test_spans_nest_within_their_op_and_self_times_sum_to_op_time(tmp_path):
    import run

    for name in sorted(WORKLOADS):
        work = tmp_path / name
        pool, _ = generate(name, 2, work)
        tracer = spans.Tracer()
        loop = run.Loop(name, SMOKE, pool, tracer.wrap("cli.main", cli.main), tracer)
        for _ in range(len(pool)):
            loop.step()
        assert loop.failed == 0
        assert cli.parse_spec.__name__ == "parse_spec"  # wrappers removed between ops
        recorded = tracer.spans
        assert recorded
        for name_, start, end, parent, op, raised in recorded:
            assert start <= end and not raised
            if parent < 0:
                assert name_ == "cli.main"
                continue
            p = recorded[parent]
            assert p[4] == op and p[1] <= start and end <= p[2]
        root_ns = sum(e - s for n, s, e, p, _, _ in recorded if p < 0)
        ops = len(loop.latencies)
        metrics = spans.layer_metrics(recorded, tracer.counts, ops, loop.checks)
        layer_total = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS) * ops
        assert layer_total == pytest.approx(root_ns / 1e9, rel=1e-9)
        assert root_ns / 1e9 <= sum(loop.latencies)


def test_events_checked_stops_at_the_first_invalid_event():
    from collections import Counter

    from privarch.semantics import TraceCheck

    counts: Counter = Counter()
    count = spans.COUNTERS["check_trace_valid"]
    count(counts, (None, [None] * 10), {}, TraceCheck(False, 3, "channel"))
    count(counts, (None, [None] * 10), {}, TraceCheck(True))
    assert counts["semantics.events_checked"] == 4 + 10


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(name, trace):
    p = run_bench(
        ROOT, "--workload", name, "--seed", "1", "--seconds", "0.3",
        "--trace", trace, "--size", "smoke",
    )
    assert p.returncode == 0, p.stderr
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench(tmp_path, "--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode == 2
    assert p.stdout == ""
