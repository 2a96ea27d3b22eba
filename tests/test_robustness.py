"""Every subcommand on faulted input: an answer or one error line, never a
traceback.

Each example takes a fixture spec with its trace, canonical partition and
grant list, puts one fault that `generators.inject_fault` knows into one of
them, in printed form or respaced for the token reader, and runs in process
every subcommand that reads the faulted file. The exit code must be 0, 1 or
2, an exit 2 must write a line that starts with `error: `, and no exception
may escape `cli.main`.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest

from privarch import (
    canonical_partition,
    parse_grants,
    parse_spec,
    parse_trace,
    print_grants,
    print_partition,
    print_spec,
    print_trace,
)
from privarch.cli import main

from conftest import read_fixture
from generators import FAULTS, inject_fault, respaced

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPECS = ("coppa.parch", "coppa_v1.parch", "coppa_safe.parch", "coppa_safe_relaxed.parch",
         "coppa_v1_safe.parch")

# The subcommands that read each input file, with the options they take it by.
# `explore` is bounded so that a faulted spec that still reads stays quick.
READERS = {
    "spec": (
        ("check", "{spec}", "{trace}"),
        ("synthesize", "{spec}", "-o", "{out}"),
        ("verify", "{spec}", "--partition", "canonical"),
        ("explore", "{spec}", "--depth", "4", "--budget", "300"),
        ("dot", "{spec}", "-o", "{out}"),
    ),
    "trace": (("check", "{spec}", "{trace}"),),
    "partition": (
        ("verify", "{spec}", "--partition", "{partition}"),
        ("dot", "{spec}", "--partition", "{partition}", "-o", "{out}"),
    ),
    "grants": (("synthesize", "{spec}", "--grants", "{grants}"),),
}


# Every input in printed form: `respaced` assumes a text without comments.
DOCS = {name: parse_spec(read_fixture(name)) for name in SPECS}
TRACE = print_trace(
    parse_trace(read_fixture("coppa_witness.trace"), DOCS["coppa_safe_relaxed.parch"].architecture)
)
GRANTS = print_grants(
    parse_grants(read_fixture("coppa.grants"), DOCS["coppa_safe.parch"].architecture)
)
INPUTS = {
    name: {
        "spec": print_spec(doc),
        "trace": TRACE,
        "partition": print_partition(canonical_partition(doc.architecture.agents)),
        "grants": GRANTS,
    }
    for name, doc in DOCS.items()
}


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
def test_every_subcommand_answers_faulted_input(tmp_path_factory, seed):
    rng = random.Random(seed)
    name = rng.choice(SPECS)
    texts = dict(INPUTS[name])
    faulted = rng.choice(sorted(READERS))
    text = texts[faulted]
    if rng.random() < 0.5:
        text = respaced(text)
    texts[faulted] = inject_fault(rng, text, rng.choice(FAULTS))
    tmp = tmp_path_factory.mktemp("faulted")
    paths = {"out": str(tmp / "out")}
    for kind, text in texts.items():
        path = tmp / kind
        path.write_text(text)
        paths[kind] = str(path)
    for command in READERS[faulted]:
        argv = [arg.format(**paths) for arg in command]
        if rng.random() < 0.5:
            argv.append("--json")
        code, err = run(argv)
        assert code in (0, 1, 2), (name, argv, texts[faulted])
        if code == 2:
            assert any(line.startswith("error: ") for line in err.splitlines()), (
                name, argv, texts[faulted], err,
            )
