"""Command line behavior, run in process through main(argv).

Exit code convention: 0 clean, 1 when the analysis is negative, 2 for usage
and input errors.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from privarch import canonical_partition, cli, dot_counts, export_dot, parse_spec, semantics
from privarch.cli import build_parser, main

from conftest import FIXTURES, read_fixture


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# check


def test_check_witness_trace(capsys):
    code, out, _ = run(
        capsys,
        "check",
        fixture_path("coppa_safe_relaxed.parch"),
        fixture_path("coppa_witness.trace"),
    )
    assert code == 0
    assert "valid trace (12 events)" in out
    assert "goal pos(Website, INFO): met" in out
    assert "compliant" in out


def test_check_invalid_trace(capsys, tmp_path):
    trace = tmp_path / "bad.trace"
    trace.write_text("Parent -> Child : consent : CONSENT;\n")
    code, out, _ = run(capsys, "check", fixture_path("coppa.parch"), str(trace))
    assert code == 1
    assert out.startswith("invalid trace: invalid at event 0")
    assert "channel" in out


def test_check_violating_trace(capsys, tmp_path):
    trace = tmp_path / "leak.trace"
    trace.write_text("Child -> Website : info : INFO;\n")
    code, out, _ = run(capsys, "check", fixture_path("coppa.parch"), str(trace))
    assert code == 1
    assert "valid trace (1 events)" in out
    assert "violation: Website ni INFO => Website ni CONSENT" in out
    assert "compliant" not in out


def test_check_empty_trace_goal_unmet_is_informational(capsys, tmp_path):
    trace = tmp_path / "empty.trace"
    trace.write_text("# nothing happens\n")
    code, out, _ = run(capsys, "check", fixture_path("coppa.parch"), str(trace))
    assert code == 0
    assert "goal pos(Website, INFO): not met (informational)" in out
    assert "compliant" in out


def test_check_runs_each_event_once(monkeypatch, capsys, tmp_path):
    # One walk per `check`: the per-event step runs once per event of a valid
    # trace, and up to the first bad event of an invalid one.
    calls = []
    step = semantics._check_event_structure

    def counted(arch, i, e, types):
        calls.append(i)
        return step(arch, i, e, types)

    monkeypatch.setattr(semantics, "_check_event_structure", counted)
    spec, trace = FIXTURES / "coppa_safe_relaxed.parch", FIXTURES / "coppa_witness.trace"
    assert main(["check", str(spec), str(trace)]) == 0
    assert capsys.readouterr().out.startswith("valid trace (12 events)")
    assert calls == list(range(12))

    calls.clear()
    lines = trace.read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.trace"
    bad.write_text("".join(lines[:-1]) + "Child -> Website : info : INFO;\n")
    assert main(["check", str(spec), str(bad)]) == 1
    assert "invalid trace: invalid at event 11: channel violation" in capsys.readouterr().out
    assert calls == list(range(12))


def test_check_walks_a_repeated_statement_once(monkeypatch, capsys, tmp_path):
    # Every line of the witness trace doubled: each repeat is the event read
    # for the line before it, and the walk skips an event it has walked.
    calls = []
    step = semantics._check_event_structure

    def counted(arch, i, e, types):
        calls.append(i)
        return step(arch, i, e, types)

    monkeypatch.setattr(semantics, "_check_event_structure", counted)
    spec, trace = FIXTURES / "coppa_safe_relaxed.parch", FIXTURES / "coppa_witness.trace"
    doubled = tmp_path / "doubled.trace"
    doubled.write_text("".join(line * 2 for line in trace.read_text().splitlines(keepends=True)))
    assert main(["check", str(spec), str(doubled)]) == 0
    assert capsys.readouterr().out == (
        "valid trace (24 events)\ngoal pos(Website, INFO): met\ncompliant\n"
    )
    assert calls == list(range(0, 24, 2))


def test_check_folds_only_the_agents_its_constraints_name(monkeypatch, capsys):
    # The witness spec's constraints name Website and Parent; the walk folds
    # possession for an agent only when the judge reads it, so the other
    # seven agents are never closed.
    folded = []
    close = semantics.TypeRules.closure

    def counted(rules, agent, mask, new=None):
        if mask == 0:
            folded.append(rules.agents[agent].name)
        return close(rules, agent, mask, new)

    monkeypatch.setattr(semantics.TypeRules, "closure", counted)
    spec, trace = FIXTURES / "coppa_safe_relaxed.parch", FIXTURES / "coppa_witness.trace"
    assert len(parse_spec(spec.read_text()).architecture.agents) == 9
    assert main(["check", str(spec), str(trace)]) == 0
    assert capsys.readouterr().out.endswith("compliant\n")
    assert sorted(folded) == ["Parent", "Website"]


# A creation constraint reads every agent: only Z, which no constraint
# names, can make a B.
CREATION_SPEC = """\
types A, B;
agent X holds a: A;
agent Y;
agent Z holds mk: A -> B;
channel X -> Y : A;
channel X -> Z : A;
constraint Y ni A => B;
"""


@pytest.mark.parametrize(
    "trace, code, out",
    [
        (
            "X -> Y : a : A;\n",
            1,
            "valid trace (1 events)\nviolation: Y ni A => B (prefix 1): "
            "Y possesses A at prefix 1 but no agent possesses B\n",
        ),
        ("X -> Z : a : A;\nX -> Y : a : A;\n", 0, "valid trace (2 events)\ncompliant\n"),
    ],
    ids=["no-maker", "maker-first"],
)
def test_check_creation_constraint_folds_an_unnamed_agent(capsys, tmp_path, trace, code, out):
    spec, path = tmp_path / "create.parch", tmp_path / "create.trace"
    spec.write_text(CREATION_SPEC)
    path.write_text(trace)
    assert run(capsys, "check", str(spec), str(path)) == (code, out, "")


def test_check_creation_constraint_stops_at_the_first_holder(monkeypatch, capsys, tmp_path):
    # The creation form reads agents in canonical order until one holds the
    # required type by the trigger's prefix: H holds B from the start, so
    # neither X nor Z is ever closed.
    folded = []
    close = semantics.TypeRules.closure

    def counted(rules, agent, mask, new=None):
        if mask == 0:
            folded.append(rules.agents[agent].name)
        return close(rules, agent, mask, new)

    monkeypatch.setattr(semantics.TypeRules, "closure", counted)
    spec, path = tmp_path / "create.parch", tmp_path / "create.trace"
    spec.write_text(
        "types A, B;\nagent H holds b: B;\nagent X holds a: A;\nagent Y;\n"
        "agent Z holds mk: A -> B;\nchannel X -> Y : A;\nconstraint Y ni A => B;\n"
    )
    path.write_text("X -> Y : a : A;\n")
    assert run(capsys, "check", str(spec), str(path)) == (
        0, "valid trace (1 events)\ncompliant\n", ""
    )
    assert folded == ["Y", "H"]


def test_check_json_payload(capsys, tmp_path):
    trace = tmp_path / "leak.trace"
    trace.write_text("Child -> Website : info : INFO;\n")
    code, payload = run_json(capsys, "check", fixture_path("coppa.parch"), str(trace))
    assert code == 1
    assert payload["valid"] is True
    assert payload["compliant"] is False
    assert payload["violations"][0]["constraint"] == "Website ni INFO => Website ni CONSENT"
    assert payload["violations"][0]["prefix"] == 1


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_v2_summary_line(capsys):
    code, out, _ = run(capsys, "synthesize", fixture_path("coppa.parch"))
    assert code == 0
    assert "algorithm 2: 9 agents, 21 atomic types, 30 constructors" in out


def test_synthesize_v1_summary_line(capsys):
    code, out, _ = run(capsys, "synthesize", fixture_path("coppa_v1.parch"))
    assert code == 0
    assert "algorithm 1: 6 agents, 12 atomic types, 25 constructors" in out


def test_synthesize_output_file_reproduces_fixture(capsys, tmp_path):
    out_path = tmp_path / "safe.parch"
    code, out, _ = run(
        capsys, "synthesize", fixture_path("coppa.parch"), "-o", str(out_path)
    )
    assert code == 0
    assert f"wrote {out_path}" in out
    assert out_path.read_text() == read_fixture("coppa_safe.parch")


def test_synthesize_with_grants_reproduces_fixture(capsys, tmp_path):
    out_path = tmp_path / "relaxed.parch"
    code, out, _ = run(
        capsys,
        "synthesize",
        fixture_path("coppa.parch"),
        "--grants",
        fixture_path("coppa.grants"),
        "-o",
        str(out_path),
    )
    assert code == 0
    assert "gated channel: local I:Parent -> O:Parent : POLICY prev Parent" in out
    assert out_path.read_text() == read_fixture("coppa_safe_relaxed.parch")


def test_synthesize_v1_output_file_reproduces_fixture(capsys, tmp_path):
    out_path = tmp_path / "safe_v1.parch"
    code, out, _ = run(
        capsys, "synthesize", fixture_path("coppa_v1.parch"), "-o", str(out_path)
    )
    assert code == 0
    assert f"wrote {out_path}" in out
    assert out_path.read_text() == read_fixture("coppa_v1_safe.parch")


WRAPPER_SPEC = "types A, C[X](A);\nagent X holds a: A;\n"
WRAPPER_ERROR = (
    "error: input type system already contains wrapper type C[X](A); "
    "synthesis starts from base types only\n"
)


@pytest.mark.parametrize("algorithm", ["1", "2"])
def test_synthesize_wrapper_input_type_is_an_error(capsys, tmp_path, algorithm):
    spec = tmp_path / "wrapped.parch"
    spec.write_text(WRAPPER_SPEC)
    code, out, err = run(capsys, "synthesize", str(spec), "--algorithm", algorithm)
    assert code == 2
    assert out == ""
    assert err == WRAPPER_ERROR


def test_synthesize_form_error_precedes_wrapper_error(capsys, tmp_path):
    # a creation constraint under algorithm 2 is reported before the wrapper
    # type; under algorithm 1 the constraint fits and the wrapper is reported
    spec = tmp_path / "wrapped.parch"
    spec.write_text(WRAPPER_SPEC + "constraint X ni A => A;\n")
    code, _, err = run(capsys, "synthesize", str(spec), "--algorithm", "2")
    assert code == 2
    assert err == (
        "error: constraint form NegCreate is not handled by this construction: "
        "X ni A => A\n"
    )
    code, _, err = run(capsys, "synthesize", str(spec), "--algorithm", "1")
    assert code == 2
    assert err == WRAPPER_ERROR


def test_synthesize_wrong_constraint_form_is_an_error(capsys):
    code, _, err = run(capsys, "synthesize", fixture_path("coppa.parch"), "--algorithm", "1")
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# verify


def test_verify_safe_passes(capsys):
    code, out, _ = run(
        capsys, "verify", fixture_path("coppa_safe.parch"), "--partition", "canonical"
    )
    assert code == 0
    assert out.startswith("premises (algorithm 2): pass")


def test_verify_relaxed_fails_proof_channel(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        fixture_path("coppa_safe_relaxed.parch"),
        "--partition",
        "canonical",
    )
    assert code == 1
    assert "premises (algorithm 2): FAIL" in out
    assert out.count("[p5-proof-channel]") == 2


def test_verify_unsafe_fails_boundary(capsys):
    code, payload = run_json(
        capsys, "verify", fixture_path("coppa.parch"), "--partition", "canonical"
    )
    assert code == 1
    assert payload["passed"] is False
    assert {v["code"] for v in payload["violations"]} == {"p2-boundary"}


def test_verify_algorithm_override(capsys):
    # forcing the certified-only premises on proof-discipline output fails,
    # because proof wrappers cross cell boundaries
    code, out, _ = run(
        capsys,
        "verify",
        fixture_path("coppa_safe.parch"),
        "--partition",
        "canonical",
        "--algorithm",
        "1",
    )
    assert code == 1
    assert "premises (algorithm 1): FAIL" in out


def test_verify_partition_file_matches_canonical(capsys, tmp_path):
    from privarch import canonical_partition, parse_spec, print_partition

    doc = parse_spec(read_fixture("coppa_safe.parch"))
    part_file = tmp_path / "cells.partition"
    part_file.write_text(print_partition(canonical_partition(doc.architecture.agents)))
    code, out, _ = run(
        capsys, "verify", fixture_path("coppa_safe.parch"), "--partition", str(part_file)
    )
    assert code == 0
    assert "pass" in out


VERIFY_GOLDEN = Path(__file__).with_name("verify_golden.json")


def verify_outputs() -> dict[str, dict]:
    """`verify --partition canonical` on the fixtures, human and `--json`;
    `verify_golden.json` holds the recorded exit codes and stdout."""
    out = {}
    for name, *extra in (
        ("coppa_safe_relaxed.parch",),
        ("coppa_safe.parch", "--algorithm", "1"),
        ("coppa.parch",),
    ):
        argv = ["verify", fixture_path(name), "--partition", "canonical", *extra]
        record = {}
        for key, flags in (("stdout", []), ("json", ["--json"])):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                record[f"{key} exit"] = main(argv + flags)
            text = buf.getvalue()
            if key == "json":
                record[key] = json.loads(text)
                assert text == json.dumps(record[key], indent=2) + "\n"
            else:
                record[key] = text.splitlines()
                assert text == "".join(line + "\n" for line in record[key])
        out[" ".join([name, *extra])] = record
    return out


def test_verify_output_matches_the_golden_record():
    assert verify_outputs() == json.loads(VERIFY_GOLDEN.read_text())


def test_verify_mixed_forms_require_explicit_algorithm(capsys, tmp_path):
    spec = tmp_path / "mixed.parch"
    spec.write_text(
        "types A, B;\n"
        "agent X holds a: A;\n"
        "agent Y holds b: B;\n"
        "constraint X ni B => A;\n"
        "constraint X ni B => Y ni A;\n"
    )
    assert main(["verify", str(spec), "--partition", "canonical"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: constraints mix both negative forms; pass --algorithm\n"


# ---------------------------------------------------------------------------
# explore


def test_explore_unsafe_finds_counterexamples(capsys):
    code, out, _ = run(capsys, "explore", fixture_path("coppa.parch"), "--depth", "3")
    assert code == 1
    assert "states visited: 3 (depth 3, budget 1000000, exhausted: no)" in out
    assert "counterexample (1 events) violates Website ni INFO => Website ni CONSENT:" in out
    assert "  Child -> Website : info : INFO;" in out
    assert "witness (1 events) for pos(Website, INFO):" in out


def test_explore_json_shape(capsys):
    code, payload = run_json(
        capsys, "explore", fixture_path("coppa.parch"), "--depth", "3"
    )
    assert code == 1
    assert payload["states_visited"] == 3
    assert payload["exhausted"] is False
    event = payload["counterexamples"][0]["trace"][0]
    assert set(event) == {"sender", "receiver", "type", "term"}
    assert payload["missing_witnesses"] == []


def test_explore_missing_witness_is_inconclusive(capsys):
    code, out, _ = run(
        capsys, "explore", fixture_path("coppa_safe_relaxed.parch"), "--depth", "2"
    )
    assert code == 1
    assert "no counterexamples found" in out
    assert "no witness within depth for pos(Website, INFO) (inconclusive)" in out


GATED_SPEC = """types A, B;
agent P holds a: A;
agent Q;
agent R;
channel P -> Q : A;
channel Q -> P : A;
channel Q -> R : A;
constraint local Q -> R : A prev P;
constraint R ni A => P ni B;
constraint pos(R, A);
"""


def test_explore_passes_a_gate_by_a_send_that_only_discharges_it(capsys, tmp_path, monkeypatch):
    # P already holds A when Q forwards it back, so `Q -> P` changes no
    # field and only discharges the gate on `Q -> R`. The counterexample
    # and the witness both send through the gate.
    monkeypatch.delenv("PRIVARCH_BUDGET", raising=False)
    spec = tmp_path / "gated.parch"
    spec.write_text(GATED_SPEC)
    code, out, err = run(capsys, "explore", str(spec), "--depth", "3")
    sends = "  P -> Q : a : A;\n  Q -> P : a : A;\n  Q -> R : a : A;\n"
    assert (code, err) == (1, "")
    assert out == (
        "states visited: 4 (depth 3, budget 1000000, exhausted: no)\n"
        "counterexample (3 events) violates R ni A => P ni B:\n" + sends
        + "witness (3 events) for pos(R, A):\n" + sends
    )
    code, out, err = run(capsys, "explore", str(spec), "--depth", "2")
    assert (code, err) == (1, "")
    assert out == (
        "states visited: 3 (depth 2, budget 1000000, exhausted: no)\n"
        "no witness within depth for pos(R, A) (inconclusive)\n"
        "no counterexamples found\n"
    )


def test_explore_budget_flag(capsys):
    code, out, _ = run(
        capsys, "explore", fixture_path("coppa.parch"), "--depth", "3", "--budget", "7"
    )
    assert "budget 7" in out
    assert code == 1


def test_explore_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("PRIVARCH_BUDGET", "5000")
    code, out, _ = run(capsys, "explore", fixture_path("coppa.parch"), "--depth", "3")
    assert "budget 5000" in out


def test_explore_bad_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("PRIVARCH_BUDGET", "lots")
    code, _, err = run(capsys, "explore", fixture_path("coppa.parch"), "--depth", "3")
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# dot


def test_dot_stdout(capsys):
    code, out, _ = run(capsys, "dot", fixture_path("coppa.parch"))
    assert code == 0
    assert out.startswith("digraph architecture {")


def test_dot_output_file(capsys, tmp_path):
    out_path = tmp_path / "arch.dot"
    code, out, _ = run(capsys, "dot", fixture_path("coppa.parch"), "-o", str(out_path))
    assert code == 0
    assert f"wrote {out_path} (3 nodes, 3 edges)" in out
    assert dot_counts(out_path.read_text()) == (3, 3)


def test_dot_partition_counts(capsys):
    code, payload = run_json(
        capsys, "dot", fixture_path("coppa_safe.parch"), "--partition", "canonical"
    )
    assert code == 0
    assert (payload["nodes"], payload["edges"]) == (9, 558)
    assert "subgraph cluster_" in payload["dot"]


# The fixtures as given, and v1 and v2 syntheses of them.
DOT_SPECS = [
    ("coppa.parch", None),
    ("coppa_v1.parch", None),
    ("coppa_safe.parch", None),
    ("coppa_safe_relaxed.parch", None),
    ("coppa_v1_safe.parch", None),
    ("coppa_v1.parch", "1"),
    ("coppa.parch", "2"),
]


@pytest.mark.parametrize("name, algorithm", DOT_SPECS)
def test_dot_counts_match_the_written_file(capsys, tmp_path, name, algorithm):
    # `dot` counts from the architecture; the counts must be those of the DOT
    # text it writes, for the fixtures as given and for their v1 and v2
    # syntheses, with and without a partition.
    spec = fixture_path(name)
    if algorithm is not None:
        spec = str(tmp_path / "safe.parch")
        code, _, _ = run(
            capsys, "synthesize", fixture_path(name), "--algorithm", algorithm, "-o", spec
        )
        assert code == 0
    for extra in ([], ["--partition", "canonical"]):
        out_path = tmp_path / "arch.dot"
        code, out, _ = run(capsys, "dot", spec, *extra, "-o", str(out_path))
        assert code == 0
        nodes, edges = dot_counts(out_path.read_text())
        assert out == f"wrote {out_path} ({nodes} nodes, {edges} edges)\n"


@pytest.mark.parametrize("name, algorithm", DOT_SPECS)
def test_dot_file_is_export_dot_byte_for_byte(capsys, tmp_path, name, algorithm):
    # `dot -o` writes its lines as they are made; the file must be the text
    # `export_dot` returns, and `--json -o` must write and report the same.
    spec = Path(fixture_path(name))
    if algorithm is not None:
        spec = tmp_path / "safe.parch"
        code, _, _ = run(
            capsys, "synthesize", fixture_path(name), "--algorithm", algorithm, "-o", str(spec)
        )
        assert code == 0
    assert_dot_file_is_export_dot(capsys, tmp_path, spec)


def test_dot_file_spanning_several_writes_is_export_dot(capsys, tmp_path):
    # A v2 synthesis of a five-agent ring has more lines than two writes take.
    ring = tmp_path / "ring.parch"
    ring.write_text(
        "types D0, D1, D2;\n"
        + "".join(f"agent A{i} holds d{i % 3}: D{i % 3};\n" for i in range(5))
        + "".join(f"channel A{i} -> A{(i + 1) % 5} : D0, D1, D2;\n" for i in range(5))
    )
    spec = tmp_path / "ring.safe.parch"
    assert run(capsys, "synthesize", str(ring), "-o", str(spec))[0] == 0
    assert_dot_file_is_export_dot(capsys, tmp_path, spec)
    assert (tmp_path / "streamed.dot").read_text().count("\n") > 2 * 1024
    assert len((tmp_path / "streamed.dot").read_text()) > 2 * cli._DOT_BATCH


def assert_dot_file_is_export_dot(capsys, tmp_path, spec: Path) -> None:
    arch = parse_spec(spec.read_text()).architecture
    for extra, partition in (([], None), (["--partition", "canonical"], canonical_partition(arch.agents))):
        expected = export_dot(arch, partition).encode("utf-8")
        streamed, whole = tmp_path / "streamed.dot", tmp_path / "whole.dot"
        code, _, _ = run(capsys, "dot", str(spec), *extra, "-o", str(streamed))
        assert code == 0 and streamed.read_bytes() == expected
        code, payload = run_json(capsys, "dot", str(spec), *extra, "-o", str(whole))
        assert code == 0 and whole.read_bytes() == expected
        assert payload["dot"].encode("utf-8") == expected


# ---------------------------------------------------------------------------
# error paths


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, "check", "no_such.parch", "also_missing.trace")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_spec_is_a_clean_error(capsys, tmp_path):
    spec = tmp_path / "broken.parch"
    spec.write_text("types A\n")
    code, _, err = run(capsys, "explore", str(spec))
    assert code == 2
    assert "error: line 1" in err


@pytest.mark.parametrize(
    "which, junk, reason",
    [
        ("spec", b"\xff", "invalid start byte 0xff"),
        ("trace", b"# caf\xe9\n", "invalid continuation byte 0xe9"),
    ],
)
def test_non_utf8_input_is_a_clean_error(capsys, tmp_path, which, junk, reason):
    spec = tmp_path / "spec.parch"
    trace = tmp_path / "run.trace"
    spec.write_text(read_fixture("coppa.parch"))
    trace.write_text("Child -> Website : info : INFO;\n")
    bad = spec if which == "spec" else trace
    bad.write_bytes(bad.read_bytes() + junk)
    code, out, err = run(capsys, "check", str(spec), str(trace))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text ({reason})\n"


def test_unknown_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "value, message",
    [
        # '²' is a digit to str.isdigit but not a decimal int() can read.
        ("²", "unexpected character '²'"),
        ("1" * 5000, "number too long (5000 digits)"),
    ],
)
def test_unreadable_option_number_is_a_clean_error(capsys, tmp_path, value, message):
    spec = tmp_path / "option.parch"
    spec.write_text(f"types A;\nagent X holds a: A;\noption algorithm = {value};\n")
    code, _, err = run(capsys, "synthesize", str(spec))
    assert code == 2
    assert err == f"error: line 3, col 20: {message}\n"


def test_check_answers_a_term_nested_800_deep(capsys, tmp_path):
    # Terms hash once at construction and compare without recursion, so a
    # deep term is analysed rather than refused.
    spec = tmp_path / "deep.parch"
    spec.write_text(
        "types A;\nagent S holds a: A, f: A -> A;\nagent B;\nchannel S -> B : A;\n"
    )
    trace = tmp_path / "deep.trace"
    trace.write_text("S -> B : " + "f(" * 800 + "a" + ")" * 800 + " : A;\n")
    code, out, err = run(capsys, "check", str(spec), str(trace))
    assert (code, out, err) == (0, "valid trace (1 events)\ncompliant\n", "")


def test_deeply_nested_term_is_a_clean_error(capsys, tmp_path):
    spec = tmp_path / "deep.parch"
    spec.write_text(
        "types A;\nagent S holds a: A, f: A -> A;\nagent B;\nchannel S -> B : A;\n"
    )
    term = "a"
    for _ in range(5000):
        term = f"f({term})"
    trace = tmp_path / "deep.trace"
    trace.write_text(f"S -> B : {term} : A;\n")
    code, out, err = run(capsys, "check", str(spec), str(trace))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_a_closed_stdout_is_no_input_error():
    # As in `privarch dot spec | head -1`, the reader of standard output is
    # gone when the command writes. It prints nothing more and exits with
    # the status SIGPIPE gives, never 1 (analysis negative) or 2 (input).
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = "import sys; from privarch.cli import main; raise SystemExit(main(sys.argv[1:]))"
    try:
        done = subprocess.run(
            [sys.executable, "-c", script, "dot", fixture_path("coppa_safe.parch")],
            stdout=write_end, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_explore_prints_a_witness_nested_400_deep(capsys, tmp_path):
    """Y applies f1 to f400 in turn to the T0 it receives, so the witness
    sends Z a term nested 400 deep. Printing it takes no frame per level,
    and `check` accepts the printed trace."""
    spec = tmp_path / "chain.parch"
    ctors = ", ".join(f"f{i}: T{i - 1} -> T{i}" for i in range(1, 401))
    spec.write_text(
        f"types {', '.join(f'T{i}' for i in range(401))};\n"
        f"agent X holds t0: T0;\nagent Y holds {ctors};\nagent Z;\n"
        "channel X -> Y : T0;\nchannel Y -> Z : T400;\nconstraint pos(Z, T400);\n"
    )
    code, out, err = run(capsys, "explore", str(spec), "--depth", "5")
    term = "t0"
    for i in range(1, 401):
        term = f"f{i}({term})"
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "states visited: 1 (depth 5, budget 1000000, exhausted: no)",
        "witness (2 events) for pos(Z, T400):",
        "  X -> Y : t0 : T0;",
        f"  Y -> Z : {term} : T400;",
        "no counterexamples found",
    ]
    trace = tmp_path / "chain.trace"
    trace.write_text("".join(line[2:] + "\n" for line in out.splitlines()[2:4]))
    code, out, err = run(capsys, "check", str(spec), str(trace))
    assert (code, out, err) == (0, "valid trace (2 events)\ngoal pos(Z, T400): met\ncompliant\n", "")


# ---------------------------------------------------------------------------
# one process, many calls

def outcome(capsys, argv):
    """Exit code, standard output and standard error of one `main` call,
    usage errors and `--help` included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_answer_as_fresh_ones(capsys, tmp_path):
    # The argument parser is built once per process; calls after a usage
    # error, or after `verify` stops on mixed constraint forms, must answer
    # as the first call of a process does.
    mixed = tmp_path / "mixed.parch"
    mixed.write_text(
        "types A, B;\nagent X holds a: A;\nagent Y holds b: B;\n"
        "constraint X ni B => A;\nconstraint X ni B => Y ni A;\n"
    )
    calls = [
        ["check", fixture_path("coppa_safe_relaxed.parch"), fixture_path("coppa_witness.trace")],
        ["check", fixture_path("coppa_safe.parch")],
        ["verify", str(mixed), "--partition", "canonical"],
        ["verify", fixture_path("coppa_safe.parch"), "--partition", "canonical"],
        ["verify", str(mixed), "--partition", "canonical", "--algorithm", "2"],
        ["frobnicate"],
        ["--help"],
        ["check", fixture_path("coppa_safe_relaxed.parch"), fixture_path("coppa_witness.trace"), "--json"],
    ]
    in_turn = [outcome(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    assert in_turn == fresh
    assert [code for code, _, _ in in_turn] == [0, 2, 2, 0, 0, 2, 0, 0]
    assert "mix both negative forms" in in_turn[2][2]
