"""Command line behavior, run in process through main(argv).

Exit code convention: 0 clean, 1 when the analysis is negative, 2 for usage
and input errors.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from privarch import dot_counts
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
    with pytest.raises(SystemExit) as info:
        main(["verify", str(spec), "--partition", "canonical"])
    assert info.value.code == 2
    assert "mix both negative forms" in capsys.readouterr().err


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
