"""Document grammar: round-trips, printer stability, error positions."""

from __future__ import annotations

import random
import re

import pytest

from privarch import (
    Architecture,
    Base,
    Certified,
    EventTypeError,
    INTERFACE,
    ORIGINAL,
    ParseError,
    Proof,
    ResolveError,
    SpecDocument,
    UnknownAgent,
    apply,
    build_safe_architecture_v1,
    build_safe_architecture_v2,
    canonical_partition,
    check_trace_valid,
    parse_grants,
    parse_partition,
    parse_spec,
    parse_term,
    parse_trace,
    parse_type,
    print_grants,
    print_partition,
    print_spec,
    print_trace,
    term_to_str,
    type_name,
)
from privarch import dsl

from conftest import read_fixture
from generators import mk_document, mk_valid_trace
from oracles import reference_tokenize


# ---------------------------------------------------------------------------
# spec round-trips


@pytest.mark.parametrize(
    "name", ["coppa.parch", "coppa_v1.parch", "coppa_safe.parch", "coppa_safe_relaxed.parch"]
)
def test_spec_round_trip(name):
    doc = parse_spec(read_fixture(name))
    assert parse_spec(print_spec(doc)) == doc


@pytest.mark.parametrize("name", ["coppa_safe.parch", "coppa_safe_relaxed.parch"])
def test_printer_reproduces_generated_files(name):
    # these fixtures were written by the printer, so parsing must be lossless
    text = read_fixture(name)
    assert print_spec(parse_spec(text)) == text


def test_printer_is_idempotent_on_handwritten_input():
    once = print_spec(parse_spec(read_fixture("coppa.parch")))
    assert print_spec(parse_spec(once)) == once


def test_print_spec_of_api_architecture_with_undeclared_type(coppa_doc):
    # Types outside the type system print in the canonical type order too.
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
    assert print_spec(SpecDocument.build(api, coppa_doc.constraints)) == (
        "types CONSENT, INFO, POLICY;\n"
        "\n"
        "agent Child holds info: INFO;\n"
        "agent Parent holds consent: CONSENT;\n"
        "agent Website holds policy: POLICY;\n"
        "\n"
        "channel Child -> Parent : AAA, INFO, P[Parent](ZED);\n"
        "channel Child -> Website : INFO;\n"
        "channel Parent -> Child : AAA, INFO, P[Parent](ZED);\n"
        "channel Parent -> Website : CONSENT;\n"
        "channel Website -> Child : CONSENT, INFO, POLICY;\n"
        "channel Website -> Parent : POLICY;\n"
        "\n"
        "constraint Website ni CONSENT => Parent ni POLICY;\n"
        "constraint Website ni INFO => Website ni CONSENT;\n"
        "constraint pos(Website, INFO);\n"
    )


def test_synthesized_document_round_trip(safe_v2, coppa_doc):
    doc = SpecDocument.build(safe_v2.arch, coppa_doc.constraints, coppa_doc.options)
    assert parse_spec(print_spec(doc)) == doc


def test_random_documents_round_trip():
    rng = random.Random(0xD51)
    for _ in range(100):
        doc = mk_document(rng)
        assert parse_spec(print_spec(doc)) == doc


def test_constraint_order_is_canonical(coppa_doc):
    shuffled = SpecDocument.build(
        coppa_doc.architecture, tuple(reversed(coppa_doc.constraints)), coppa_doc.options
    )
    assert shuffled == coppa_doc


def test_options_survive_round_trip(coppa_v1_doc):
    assert coppa_v1_doc.options.algorithm == 1
    assert "option algorithm = 1;" in print_spec(coppa_v1_doc)
    doc = parse_spec("types A;\nagent X holds a: A;\noption m_family_cap = 512;")
    assert doc.options.m_family_cap == 512
    assert "option m_family_cap = 512;" in print_spec(doc)


def test_default_options_print_nothing(coppa_doc):
    assert "option" not in print_spec(coppa_doc)


# ---------------------------------------------------------------------------
# reserved prefixes


def test_interface_names_fuse_into_agent_ids(coppa_relaxed_doc):
    arch = coppa_relaxed_doc.architecture
    agent = arch.agent_named("I:Website")
    assert agent.kind == INTERFACE
    assert agent.owner == "Website"


def test_identifier_starting_with_i_is_not_fused():
    doc = parse_spec("types A;\nagent Input holds a: A;")
    assert doc.architecture.agent_named("Input").kind == ORIGINAL


def test_orphan_interface_fails_at_partition_time():
    # the architecture layer tolerates an interface without its original;
    # the missing owner surfaces when a canonical partition is requested
    doc = parse_spec("types A;\nagent X holds a: A;\nagent I:Ghost;")
    assert doc.architecture.agent_named("I:Ghost").owner == "Ghost"
    with pytest.raises(UnknownAgent):
        canonical_partition(doc.architecture.agents)


# ---------------------------------------------------------------------------
# error positions


def err(kind, text):
    with pytest.raises(kind) as info:
        parse_spec(text)
    return info.value


def test_unknown_statement_position():
    e = err(ParseError, "widget Foo;")
    assert (e.line, e.col) == (1, 1)
    assert "unknown statement" in str(e)


def test_missing_terminator_position():
    e = err(ParseError, "types A;\nagent X holds a: A")
    assert e.line == 2
    assert "terminating" in str(e)


def test_semicolon_in_a_comment_does_not_end_a_statement():
    doc = parse_spec("types A; # one; two\nagent X # holds; nothing\n holds a: A;")
    assert print_spec(doc) == "types A;\n\nagent X holds a: A;\n"
    e = err(ParseError, "types A;\nagent X # done;\n")
    assert str(e) == "line 2, col 7: statement is missing its terminating ';'"


def test_empty_statement_position():
    e = err(ParseError, "types A;;")
    assert (e.line, e.col) == (1, 9)


def test_unexpected_character_position():
    e = err(ParseError, "types A$;")
    assert (e.line, e.col) == (1, 8)


def test_duplicate_type_position():
    e = err(ResolveError, "types A, A;")
    assert (e.line, e.col) == (1, 10)
    assert "duplicate type" in str(e)


def test_duplicate_agent_position():
    e = err(ResolveError, "types A;\nagent X;\nagent X;")
    assert e.line == 3
    assert "duplicate agent" in str(e)


def test_conflicting_signature_positions_name_first_site():
    e = err(ResolveError, "types A, B;\nagent X holds c: A;\nagent Y holds c: B;")
    assert e.line == 3
    assert "different signature" in str(e) and "line 2" in str(e)


def test_repeated_holding_rejected():
    e = err(ResolveError, "types A;\nagent X holds c: A, c: A;")
    assert "twice" in str(e)


def test_self_channel_rejected():
    e = err(ResolveError, "types A;\nagent X holds a: A;\nchannel X -> X : A;")
    assert e.line == 3
    assert "itself" in str(e)


def test_undeclared_channel_type_position():
    e = err(ResolveError, "types A;\nagent X holds a: A;\nagent Y;\nchannel X -> Y : B;")
    assert (e.line, e.col) == (4, 18)
    assert "undeclared type B" in str(e)


def test_undeclared_agent_in_constraint():
    e = err(ResolveError, "types A;\nagent X holds a: A;\nconstraint Z ni A => A;")
    assert "undeclared agent Z" in str(e)


def test_unknown_option_rejected():
    e = err(ResolveError, "types A;\nagent X holds a: A;\noption frobnicate = 3;")
    assert "unknown option" in str(e)


def test_algorithm_option_range_checked():
    e = err(ResolveError, "types A;\nagent X holds a: A;\noption algorithm = 3;")
    assert "must be 1 or 2" in str(e)


# Columns count every character since the last newline, tabs and carriage
# returns included; comments end at the newline.
@pytest.mark.parametrize(
    "kind, text, line, col, message",
    [
        (
            ResolveError,
            "# header\ntypes A;\n# agents\n\tagent X holds a: A;\n\tagent Y holds b:\tB;",
            5, 19, "undeclared type B",
        ),
        (
            ResolveError,
            "types A;\r\nagent X;\r\nagent Y;\r\nchannel X\r->\rZ : A;",
            4, 14, "undeclared agent Z",
        ),
        (
            ResolveError,
            "types A;\nagent X holds a: A;\nagent I:X;\nagent O:X;\n"
            "channel I:X -> O:X : A;\nchannel O:X -> I:Y : A;",
            6, 16, "undeclared agent I:Y",
        ),
        (ParseError, "types A;\n\nagent I:X$;", 3, 10, "unexpected character '$'"),
        (ParseError, "types A;\n\nagent I:²;", 3, 9, "unexpected character '²'"),
        (
            ResolveError,
            "types A, B;\n# c is first declared here\nagent X holds c: A;\n\n"
            "agent Y holds d: A, c: B;",
            5, 21,
            "constructor c redeclared with a different signature (first declared at line 3)",
        ),
        (
            ResolveError,
            "types A;\nagent X holds a: A;\n\n  constraint\tX ni A => X ni A;",
            4, 14, "trivial constraint: X ni A => X ni A",
        ),
        (ParseError, "types A;\n# c\n\nagent X holds a A;", 4, 17, "expected ':', got 'A'"),
        (
            ParseError,
            "types A;\nagent X\n# trailing comment\n",
            2, 7, "statement is missing its terminating ';'",
        ),
        # The first statement that cannot be read is blamed: a shape error
        # or a duplicate comes before a later stray character or a missing
        # terminator.
        (
            ParseError,
            "types A B;\nagent X holds a: A;\nagent Y$;",
            1, 9, "unexpected trailing 'B'",
        ),
        (
            ParseError,
            "types A;\nagent X holds a A;\n# last\nagent Y",
            2, 17, "expected ':', got 'A'",
        ),
        (
            ResolveError,
            "types A;\nagent X;\nagent X;\nagent Y holds y: A$;",
            3, 7, "duplicate agent X",
        ),
        # Statements in printed form, which a pattern reads: errors found
        # after reading keep their positions, and a duplicate is left to the
        # token reader.
        (
            ResolveError,
            "types A, B;\nagent X holds a: A, f: A -> C[X](B);",
            2, 29, "undeclared type C[X](B)",
        ),
        (
            ResolveError,
            "types A;\nagent X holds a: A;\nagent Y;\n"
            "channel X -> Y : A, P[Y](A);\nchannel Y -> X : A, P[Y](A);",
            4, 21, "undeclared type P[Y](A)",
        ),
        (
            ResolveError,
            "types A, B;\nagent X holds c: A;\nagent Y holds d: B, c: B;",
            3, 21,
            "constructor c redeclared with a different signature (first declared at line 2)",
        ),
        (ResolveError, "types A;\nagent X holds c: A, c: A;", 2, 21, "agent X lists constructor c twice"),
        (ResolveError, "types A;\nagent X holds a: A;\nchannel X -> X : A;", 3, 9, "channel from X to itself"),
        (ResolveError, "types A, B;\ntypes C, A;", 2, 10, "duplicate type A"),
        (ResolveError, "types A;\nagent X holds a: A;\noption algorithm = 2;\noption algorithm = 1;",
         4, 8, "duplicate option algorithm"),
        (ResolveError, "types A;\nagent X holds a: A;\noption m_family_cap = 0;", 3, 8,
         "m_family_cap must be positive"),
        (ResolveError, "types A;\nagent X holds a: A;\nagent X holds a: A;", 3, 7, "duplicate agent X"),
        # Comments, and characters that are no blank. A `;` inside a comment
        # ends no statement; only space, tab, CR and LF are blanks.
        (ResolveError, "types A;\nagent X # holds; b: B;\nholds a: B;", 3, 10, "undeclared type B"),
        (ResolveError, "types A; # x; y\nagent X holds a: A;\nagent Y holds b: A -> B;", 3, 23,
         "undeclared type B"),
        (ParseError, "types A;\n# note;\n  ;", 3, 3, "empty statement"),
        (ParseError, "types A;\nagent X holds a: A; # one\n   # two;\n;", 4, 1, "empty statement"),
        (ParseError, "types A;\nagent X holds a: A # no end;\n# trailing", 2, 18,
         "statement is missing its terminating ';'"),
        (ParseError, "types A;\nagent X holds a: A;\nchannel X -> X : A # end", 3, 18,
         "statement is missing its terminating ';'"),
        (ParseError, "types A;\x0cagent X;", 1, 9, "unexpected character '\\x0c'"),
        (ParseError, "types A;\nagent X holds a:\x0cA;", 2, 17, "unexpected character '\\x0c'"),
        (ParseError, "\ufefftypes A;", 1, 1, "unexpected character '\\ufeff'"),
        (ParseError, "\ufeff# comment\ntypes A;", 1, 1, "unexpected character '\\ufeff'"),
    ],
)
def test_spec_error_positions(kind, text, line, col, message):
    e = err(kind, text)
    assert (e.line, e.col) == (line, col)
    assert str(e) == f"line {line}, col {col}: {message}"


# A parse resolves each distinct channel type list and trace payload once;
# errors still point at the statement a fresh parse would blame.


def test_repeated_channel_list_reports_first_occurrence():
    e = err(
        ResolveError,
        "types A;\nagent X holds a: A;\nagent Y;\n"
        "channel X -> Y : A, B;\nchannel Y -> X : A, B;",
    )
    assert str(e) == "line 4, col 21: undeclared type B"


def test_spaced_type_list_after_fused_one_is_a_parse_error():
    # Both lists join to the same text; only the first is one token `I:X`.
    e = err(
        ParseError,
        "types A, C[I:X](A);\nagent X holds a: A;\nagent I:X;\n"
        "channel X -> I:X : C[I:X](A);\nchannel I:X -> X : C [ I : X ] ( A );",
    )
    assert str(e) == "line 5, col 26: expected ']', got ':'"


def test_repeated_trace_payload_reports_the_failing_statement(coppa_doc):
    with pytest.raises(ResolveError) as info:
        parse_trace(
            "Child -> Website : info : INFO;\nChild -> Website : info : INFO;\n"
            "Ghost -> Website : info : INFO;",
            coppa_doc.architecture,
        )
    assert str(info.value) == "line 3, col 1: Ghost"


# Repeated lists and payloads are keyed by their raw text, from their first
# token to the end of the statement.


def test_type_lists_spaced_differently_parse_alike():
    head = "types A, B, C[X](A);\nagent X holds a: A, b: B;\nagent Y;\nagent Z;\n"
    tight = head + "channel X -> Y : A,B,C[X](A);\nchannel Y -> Z : A,B,C[X](A);\n"
    spaced = head + "channel X -> Y : A,B,C[X](A);\nchannel Y -> Z : A , B,\n\tC [X] (A) ;\n"
    assert print_spec(parse_spec(spaced)) == print_spec(parse_spec(tight))


def test_type_lists_differing_after_a_comment_are_read_apart():
    arch = parse_spec(
        "types A, B;\nagent X holds a: A, b: B;\nagent Y;\n"
        "channel X -> Y : A # c\n;\nchannel Y -> X : A # c\n, B;"
    ).architecture
    x, y = arch.agent_named("X"), arch.agent_named("Y")
    assert arch.channels[(x, y)] == {Base("A")}
    assert arch.channels[(y, x)] == {Base("A"), Base("B")}


def test_trace_payloads_differing_after_a_comment_are_read_apart(coppa_relaxed_doc):
    trace = parse_trace(
        "Child -> O:Child : info # c\n: INFO;\nChild -> O:Child : info # c\n(x) : INFO;",
        coppa_relaxed_doc.architecture,
    )
    assert [term_to_str(e.term) for e in trace] == ["info", "info(x)"]


class CountingScan:
    """Stands in for `dsl._SCAN` and counts the tokens it hands out, one at
    a time or in batch."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.tokens = 0

    def match(self, *args):
        m = self.pattern.match(*args)
        self.tokens += m.group(1) is not None
        return m

    def findall(self, *args):
        out = self.pattern.findall(*args)
        self.tokens += sum(1 for tok in out if tok)
        return out

    def finditer(self, *args):
        for m in self.pattern.finditer(*args):
            self.tokens += m.group(1) is not None
            yield m


def test_parse_spec_scans_only_what_it_reads(monkeypatch, coppa_safe_doc):
    # A synthesized spec repeats one long type list on most channel lines;
    # a repeat is recognised by its text and never tokenized.
    text = read_fixture("coppa_safe.parch")
    total = len(dsl.tokenize(text))
    scan = CountingScan(dsl._SCAN)
    monkeypatch.setattr(dsl, "_SCAN", scan)
    assert parse_spec(text) == coppa_safe_doc
    assert 0 < scan.tokens < total / 3


# Errors against the character-by-character tokenizer's positions, on
# documents whose statements are read lazily, in batch and from a table.


def synthesized_spec() -> str:
    doc = mk_document(random.Random(0x5E7))
    safe = build_safe_architecture_v2(doc.architecture, doc.constraints, doc.options)
    return print_spec(SpecDocument.build(safe.arch, doc.constraints, doc.options))


POSITION_INPUTS = {
    "coppa_safe.parch": lambda: read_fixture("coppa_safe.parch"),
    "synthesized": synthesized_spec,
    "coppa_witness.trace": lambda: read_fixture("coppa_witness.trace"),
}


def offset_of(text, token):
    """The offset of a reference token in `text`; lines end at '\\n' only."""
    return sum(len(line) + 1 for line in text.split("\n")[: token.line - 1]) + token.col - 1


@pytest.mark.parametrize("source", sorted(POSITION_INPUTS))
def test_stray_character_is_blamed_where_it_stands(source, coppa_relaxed_doc):
    text = POSITION_INPUTS[source]()
    if source.endswith(".trace"):
        def parse(t):
            return parse_trace(t, coppa_relaxed_doc.architecture)
    else:
        parse = parse_spec
    tokens = reference_tokenize(text)
    rng = random.Random(0x57A)
    for i in sorted(rng.sample(range(len(tokens)), 80)):
        at = offset_of(text, tokens[i])
        with pytest.raises(ParseError) as info:
            parse(text[:at] + "$" + text[at:])
        assert str(info.value) == f"line {tokens[i].line}, col {tokens[i].col}: unexpected character '$'"


@pytest.mark.parametrize("source", ["coppa_safe.parch", "synthesized"])
def test_undeclared_channel_agent_is_blamed_where_it_stands(source):
    text = POSITION_INPUTS[source]()
    tokens = reference_tokenize(text)
    channels = [i for i, t in enumerate(tokens) if t.text == "channel"]
    rng = random.Random(0xA6E)
    for k in sorted(rng.sample(range(len(channels)), 12)):
        # The sender of an even-numbered line, the receiver of an odd one.
        name = tokens[channels[k] + 1 + 2 * (k % 2)]
        at = offset_of(text, name)
        e = err(ResolveError, text[:at] + "Nobody" + text[at + len(name.text) :])
        assert str(e) == f"line {name.line}, col {name.col}: undeclared agent Nobody"


# ---------------------------------------------------------------------------
# tokenizer against the character-by-character reference


def tokenize_outcome(tokenize, text):
    try:
        return [getattr(t, "text", t) for t in tokenize(text)]
    except ParseError as e:
        return (str(e), e.line, e.col)


# Interface prefixes, two-character punctuation, comments, every blank the
# format knows and some it does not ('\f'), and numerals that str.isalnum
# accepts but str.isalpha or str.isdecimal reject.
EDGE_ALPHABET = [
    "I:", "O:", "I", "O", "a", "Zz", "_", "0", "19", ":", "-", ">", "->", "=>", "=",
    "[", "]", "(", ")", ",", ";", "#", " ", "\t", "\r", "\n", "\r\n", "\f", "$",
    "é", "²", "½", "Ⅻ", "٣", "〇",
]


def test_tokenize_matches_reference_on_random_texts():
    rng = random.Random(0x70C)
    for _ in range(5000):
        text = "".join(rng.choice(EDGE_ALPHABET) for _ in range(rng.randrange(12)))
        expected = tokenize_outcome(reference_tokenize, text)
        assert tokenize_outcome(dsl.tokenize, text) == expected, text
        if isinstance(expected, list):
            # Token positions are found again only on the error path.
            assert [dsl._where(text, i) for i in range(len(expected))] == [
                (t.line, t.col) for t in reference_tokenize(text)
            ], text


def test_tokenize_matches_reference_on_every_code_point():
    for cp in range(0x3000):
        ch = chr(cp)
        for text in (ch, "I:" + ch, "a" + ch, ch + "a", "1" + ch):
            expected = tokenize_outcome(reference_tokenize, text)
            assert tokenize_outcome(dsl.tokenize, text) == expected, text


# ---------------------------------------------------------------------------
# terms and types


def test_parse_type_forms():
    assert parse_type("INFO") == Base("INFO")
    assert parse_type("C[Website](INFO)") == Certified("Website", "INFO")
    assert parse_type("P[Parent](POLICY)") == Proof("Parent", "POLICY")
    assert parse_type("C") == Base("C")  # wrapper syntax needs the bracket


def test_parse_term_round_trip():
    text = "pi[Website,INFO](m[Website,INFO](info, p[Website,CONSENT](consent)))"
    term = parse_term(text)
    assert term_to_str(term) == text
    assert parse_term(term_to_str(term)) == term
    assert parse_term("info") == apply("info", [])


def test_parse_term_rejects_trailing_junk():
    with pytest.raises(ParseError, match="trailing"):
        parse_term("info extra")


# ---------------------------------------------------------------------------
# traces


def test_trace_round_trip(witness_events, coppa_relaxed_doc):
    trace = tuple(witness_events)
    text = print_trace(trace)
    assert parse_trace(text, coppa_relaxed_doc.architecture) == trace


def test_empty_trace_prints_empty():
    assert print_trace(()) == ""


def test_trace_unknown_agent_position(coppa_doc):
    with pytest.raises(ResolveError) as info:
        parse_trace("Child -> Website : info : INFO;\nGhost -> Child : info : INFO;",
                    coppa_doc.architecture)
    assert info.value.line == 2


# ---------------------------------------------------------------------------
# partitions


def test_partition_round_trip(safe_v2):
    part = canonical_partition(safe_v2.arch.agents)
    text = print_partition(part)
    assert parse_partition(text, safe_v2.arch) == part


def test_partition_member_in_two_cells(coppa_doc):
    text = "cell Child: Child, Parent;\ncell Parent: Parent;\ncell Website: Website;"
    with pytest.raises(ResolveError, match="more than one cell"):
        parse_partition(text, coppa_doc.architecture)


def test_partition_unknown_member(coppa_doc):
    with pytest.raises(ResolveError, match="Ghost"):
        parse_partition("cell Child: Ghost;", coppa_doc.architecture)


# ---------------------------------------------------------------------------
# grants


def test_grants_round_trip(safe_v2):
    grants = parse_grants(read_fixture("coppa.grants"), safe_v2.arch)
    assert len(grants) == 2
    assert parse_grants(print_grants(grants), safe_v2.arch) == grants


def test_grants_deduplicate(safe_v2):
    line = "grant I:Parent -> O:Parent : POLICY;"
    grants = parse_grants(line + "\n" + line, safe_v2.arch)
    assert len(grants) == 1


def test_grant_undeclared_type_rejected(safe_v2):
    with pytest.raises(ResolveError, match="undeclared type"):
        parse_grants("grant I:Parent -> O:Parent : SECRET;", safe_v2.arch)


def test_grant_unknown_agent_rejected(coppa_doc):
    with pytest.raises(ResolveError, match="I:Parent"):
        parse_grants("grant I:Parent -> O:Parent : POLICY;", coppa_doc.architecture)


# ---------------------------------------------------------------------------
# error positions in traces, partitions and grants


@pytest.mark.parametrize(
    "parse, kind, text, line, col, message",
    [
        (
            parse_trace, ParseError,
            "Child -> O:Child : info : INFO;\r\n# second\r\n"
            "Parent -> O:Parent : consent : CONSENT extra;",
            3, 40, "unexpected trailing 'extra'",
        ),
        (
            parse_trace, ResolveError,
            "Child -> O:Child : info : INFO;\nO:Child -> I:Ghost : info : INFO;",
            2, 12, "I:Ghost",
        ),
        (
            parse_trace, ParseError,
            "Child -> O:Child : info INFO;\nParent -> O:Parent : consent : CONSENT$;",
            1, 25, "expected ':', got 'INFO'",
        ),
        (
            parse_partition, ResolveError,
            "cell Child: Child;\ncell Parent: Parent,\n  Child;",
            3, 3, "agent Child appears in more than one cell",
        ),
        (
            parse_grants, ResolveError,
            "grant I:Parent -> O:Parent : POLICY;\n\tgrant I:Parent -> O:Parent : SECRET;",
            2, 31, "undeclared type SECRET",
        ),
        (
            parse_partition, ResolveError,
            "cell Child: Child;\n  cell Ghost: Parent;",
            2, 8, "Ghost",
        ),
        (
            parse_grants, ResolveError,
            "# input\ngrant I:Ghost -> O:Parent : POLICY;",
            2, 7, "I:Ghost",
        ),
        (
            parse_grants, ResolveError,
            "# output\ngrant I:Parent -> O:Ghost : POLICY;",
            2, 19, "O:Ghost",
        ),
        (
            parse_trace, ResolveError,
            "Child -> O:Child : info : INFO;\nO:Child -> O:Child : info : INFO;",
            2, 1, "event sends O:Child to itself",
        ),
        (
            parse_trace, ResolveError,
            "Child -> O:Child : info : INFO;\nGhost -> O:Child : info : INFO;",
            2, 1, "Ghost",
        ),
        (
            parse_trace, ParseError,
            "Child -> O:Child : info : INFO;\nChild -> O:Child : info : INFO :;",
            2, 32, "unexpected trailing ':'",
        ),
        # Comments, and characters that are no blank, in each kind of document.
        (
            parse_trace, ResolveError,
            "Child -> O:Child : info : INFO; # a;b\nGhost -> O:Child : info : INFO;",
            2, 1, "Ghost",
        ),
        (parse_trace, ParseError, "Child -> O:Child : info : INFO;\n# one;\n ;", 3, 2, "empty statement"),
        (
            parse_trace, ParseError,
            "Child -> O:Child : info : INFO;\nChild -> O:Child : info : INFO # end",
            2, 27, "statement is missing its terminating ';'",
        ),
        (
            parse_trace, ParseError, "Child -> O:Child : info : INFO;\x0c",
            1, 32, "unexpected character '\\x0c'",
        ),
        (
            parse_trace, ParseError, "\ufeffChild -> O:Child : info : INFO;",
            1, 1, "unexpected character '\\ufeff'",
        ),
        (parse_partition, ParseError, "cell Child: Child; # x;\n  ;", 2, 3, "empty statement"),
        (
            parse_partition, ParseError, "cell Child: Child # x;\ncell Parent: Parent;",
            2, 1, "unexpected trailing 'cell'",
        ),
        (
            parse_grants, ParseError, "grant I:Parent -> O:Parent : POLICY # end;\n# more",
            1, 30, "statement is missing its terminating ';'",
        ),
        (
            parse_grants, ParseError, "\ufeffgrant I:Parent -> O:Parent : POLICY;",
            1, 1, "unexpected character '\\ufeff'",
        ),
        (
            parse_grants, ParseError, "grant I:Parent -> O:Parent :\x0cPOLICY;",
            1, 29, "unexpected character '\\x0c'",
        ),
    ],
)
def test_document_error_positions(coppa_relaxed_doc, parse, kind, text, line, col, message):
    with pytest.raises(kind) as info:
        parse(text, coppa_relaxed_doc.architecture)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == f"line {line}, col {col}: {message}"


# ---------------------------------------------------------------------------
# the pattern reader against the token reader

# The head of an event in printed form, from its leading blanks to the first
# character of its payload: the shape the printed-form reader takes, as it
# splits an event at its first ` -> ` and ` : `.
FAST_EVENT = re.compile(rf"[ \t\r\n]*({dsl._AGENT}) -> ({dsl._AGENT}) : {dsl._LIST}")


def respaced(text, every=1):
    """`text` with a comment after the first word of every `every`-th line,
    so that no pattern reads those statements and `_Stream` does."""
    return "\n".join(
        line.replace(" ", " #\n", 1) if k % every == 0 else line
        for k, line in enumerate(text.split("\n"))
    )


def pattern_reads(text, pattern):
    """For each statement of `text`, whether `pattern` takes it as printed
    form."""
    text = dsl._blank_comments(text)
    return [pattern.match(text, start, stop) is not None for start, stop in dsl._statements(text)]


def agreement_specs():
    """Spec documents in printed form: the fixtures, generated documents and
    their safe extensions."""
    names = ["coppa.parch", "coppa_v1.parch", "coppa_safe.parch", "coppa_safe_relaxed.parch",
             "coppa_v1_safe.parch"]
    docs = [parse_spec(read_fixture(name)) for name in names]
    rng = random.Random(0xA9E)
    for _ in range(30):
        doc = mk_document(rng)
        build = build_safe_architecture_v1 if doc.options.algorithm == 1 else build_safe_architecture_v2
        safe = build(doc.architecture, doc.constraints, doc.options)
        docs += [doc, SpecDocument.build(safe.arch, doc.constraints, doc.options)]
    return docs


def test_pattern_and_token_readers_agree_on_specs():
    for doc in agreement_specs():
        text = print_spec(doc)
        slow = respaced(text)
        assert not any(pattern_reads(slow, dsl._FAST_SPEC))
        # Every types, agent and channel statement takes the pattern reader.
        read = pattern_reads(text, dsl._FAST_SPEC)
        assert sum(read) == sum(
            line.startswith(("types ", "agent ", "channel ")) for line in text.split("\n")
        )
        for variant in (text, slow, respaced(text, 2), respaced(text, 3)):
            assert parse_spec(variant) == doc


def test_pattern_and_token_readers_agree_on_traces(coppa_relaxed_doc):
    cases = [(tuple(parse_trace(read_fixture("coppa_witness.trace"), coppa_relaxed_doc.architecture)),
              coppa_relaxed_doc.architecture)]
    rng = random.Random(0x7AC)
    for doc in agreement_specs():
        for _ in range(3):
            cases.append((tuple(mk_valid_trace(rng, doc.architecture, 6)), doc.architecture))
    assert sum(len(trace) for trace, _ in cases) > 300
    for trace, arch in cases:
        text = print_trace(trace)
        slow = respaced(text)
        assert not any(pattern_reads(slow, FAST_EVENT))
        assert all(pattern_reads(text, FAST_EVENT))
        for variant in (text, slow, respaced(text, 2)):
            assert parse_trace(variant, arch) == trace


def test_printed_trace_scans_only_its_distinct_payloads(monkeypatch, witness_events, coppa_relaxed_doc):
    # Each event of a printed trace is read with one match; only a payload
    # seen for the first time is tokenized.
    trace = tuple(witness_events) * 20
    text = print_trace(trace)
    payloads = {f"{term_to_str(e.term)} : {type_name(e.msg_type)}" for e in trace}
    payload_tokens = sum(len(dsl.tokenize(p)) for p in payloads)
    scan = CountingScan(dsl._SCAN)
    monkeypatch.setattr(dsl, "_SCAN", scan)
    assert parse_trace(text, coppa_relaxed_doc.architecture) == trace
    assert scan.tokens <= len(trace) + payload_tokens


def test_repeated_printed_statements_are_one_event(witness_events, coppa_relaxed_doc):
    # A statement in printed form that repeats an earlier one comes back as
    # the same object; a respaced repeat is read again and comes back equal.
    arch = coppa_relaxed_doc.architecture
    lines = print_trace(tuple(witness_events)).splitlines()
    trace = parse_trace("\n".join(lines + lines), arch)
    n = len(lines)
    assert trace == tuple(witness_events) * 2
    assert all(trace[i] is trace[i + n] for i in range(n))
    assert len({id(e) for e in trace}) == n

    first = lines[3]
    respaced_line = first.replace(" -> ", "  ->  ")
    again = parse_trace("\n".join([first, respaced_line, first]), arch)
    assert again[0] is again[2]
    assert again[1] == again[0] and again[1] is not again[0]


def test_printed_form_reader_unites_the_lists_of_a_repeated_channel():
    text = PRINTED_SPEC.replace("channel X -> Y : A, B;", "channel X -> Y : A;\nchannel X -> Y : B;")
    doc = dsl._read_printed_spec(text)
    assert doc is not None
    assert doc == parse_spec(respaced(text)) == parse_spec(PRINTED_SPEC)
    x, y = doc.architecture.agent_named("X"), doc.architecture.agent_named("Y")
    assert doc.architecture.channel_types(x, y) == {Base("A"), Base("B")}


# One fault injected into a document in printed form: the printed-form
# reader gives up on it, and the token reader blames the fault where it
# stands.

PRINTED_SPEC = """types A, B;

agent X holds a: A, f: A -> B;
agent Y holds g: B -> A;

channel X -> Y : A, B;
channel Y -> X : A;

constraint pos(Y, B);
"""

PRINTED_TRACE = "X -> Y : a : A;\nX -> Y : f(a) : B;\n"


@pytest.mark.parametrize(
    "old, new, line, col, message",
    [
        ("Y -> X : A;", "Y -> X : A, C;", 7, 21, "undeclared type C"),
        ("Y -> X : A;", "Y -> Z : A;", 7, 14, "undeclared agent Z"),
        ("Y -> X : A;", "Y -> Y : A;", 7, 9, "channel from Y to itself"),
        ("g: B -> A;", "g: B -> A;\nagent X;", 5, 7, "duplicate agent X"),
        (
            "g: B -> A;", "g: B -> A, f: B -> A;", 4, 26,
            "constructor f redeclared with a different signature (first declared at line 3)",
        ),
    ],
)
def test_a_fault_in_a_printed_spec_is_blamed_by_the_token_reader(old, new, line, col, message):
    assert dsl._read_printed_spec(PRINTED_SPEC) is not None
    text = PRINTED_SPEC.replace(old, new)
    assert dsl._read_printed_spec(text) is None
    assert str(err(ResolveError, text)) == f"line {line}, col {col}: {message}"


@pytest.mark.parametrize(
    "old, new, kind, line, col, message",
    [
        ("f(a) : B", "f(a : B", ParseError, 2, 14, "expected ')', got ':'"),
        ("f(a) : B", "f(a,) : B", ParseError, 2, 14, "expected ident, got ')'"),
        ("X -> Y : f", "X -> Z : f", ResolveError, 2, 6, "Z"),
        ("X -> Y : f", "Y -> Y : f", ResolveError, 2, 1, "event sends Y to itself"),
    ],
)
def test_a_fault_in_a_printed_trace_is_blamed_by_the_token_reader(old, new, kind, line, col, message):
    arch = parse_spec(PRINTED_SPEC).architecture
    assert dsl._read_printed_trace(PRINTED_TRACE, arch) is not None
    text = PRINTED_TRACE.replace(old, new)
    assert dsl._read_printed_trace(text, arch) is None
    with pytest.raises(kind) as info:
        parse_trace(text, arch)
    assert str(info.value) == f"line {line}, col {col}: {message}"


def test_an_unknown_payload_type_is_read_as_written_and_fails_the_check():
    # A payload type the architecture does not declare is no parse error:
    # the token reader reads it, and the trace check rejects the event.
    arch = parse_spec(PRINTED_SPEC).architecture
    text = PRINTED_TRACE.replace("f(a) : B", "f(a) : C")
    assert dsl._read_printed_trace(text, arch) is None
    trace = parse_trace(text, arch)
    assert trace[1].msg_type == Base("C")
    with pytest.raises(EventTypeError, match="^event 1: term f\\(a\\) has type B, not C$"):
        check_trace_valid(arch, trace)


# Errors found after a statement was read by a pattern, against the
# character-by-character tokenizer's positions.


def type_uses(tokens):
    """(index of the head token, spelled type, keyword) of each type a holds
    clause or a channel list names, in document order."""
    out = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok.text == ";":
            start = i + 1
            continue
        keyword, prev = tokens[start].text, tokens[i - 1].text
        if (keyword == "agent" and prev in (":", "->")) or (
            keyword == "channel" and i > start + 4 and prev in (":", ",")
        ):
            width = 7 if tokens[i + 1].text == "[" else 1
            out.append((i, "".join(t.text for t in tokens[i : i + width]), keyword))
    return out


def renamed(text, tokens, i, spelled, name):
    """`text` with the type spelled `spelled` at token `i` renamed."""
    at = offset_of(text, tokens[i])
    assert text[at : at + len(spelled)] == spelled
    return text[:at] + name + text[at + len(spelled) :]


def test_undeclared_holds_and_channel_types_are_blamed_where_they_stand():
    text = synthesized_spec()
    tokens = reference_tokenize(text)
    rng = random.Random(0x7E5)
    uses = rng.sample(type_uses(tokens), 60)
    assert {keyword for _, _, keyword in uses} == {"agent", "channel"}
    for i, spelled, _ in uses:
        e = err(ResolveError, renamed(text, tokens, i, spelled, "Nowhere"))
        assert str(e) == f"line {tokens[i].line}, col {tokens[i].col}: undeclared type Nowhere"


def test_undeclared_type_is_blamed_at_its_first_use():
    # A renamed `types` entry leaves its old name undeclared where it is
    # first used, in a holds clause or a channel list.
    text = synthesized_spec()
    tokens = reference_tokenize(text)
    first: dict[str, int] = {}
    for i, spelled, _ in type_uses(tokens):
        first.setdefault(spelled, i)
    end = next(i for i, t in enumerate(tokens) if t.text == ";")
    entries = [
        (i, "".join(t.text for t in tokens[i : i + (7 if tokens[i + 1].text == "[" else 1)]))
        for i in range(1, end)
        if tokens[i - 1].text in ("types", ",")
    ]
    rng = random.Random(0x7E6)
    for i, spelled in rng.sample(entries, 20):
        e = err(ResolveError, renamed(text, tokens, i, spelled, "Nowhere"))
        use = tokens[first[spelled]]
        assert str(e) == f"line {use.line}, col {use.col}: undeclared type {spelled}"


def test_unknown_event_agent_is_blamed_where_it_stands(witness_events, coppa_relaxed_doc):
    text = print_trace(tuple(witness_events) * 5)
    tokens = reference_tokenize(text)
    starts = [0] + [i + 1 for i, t in enumerate(tokens[:-1]) if t.text == ";"]
    rng = random.Random(0xE7A)
    for k in sorted(rng.sample(range(len(starts)), 20)):
        # The sender of an even-numbered event, the receiver of an odd one.
        name = tokens[starts[k] + 2 * (k % 2)]
        at = offset_of(text, name)
        with pytest.raises(ResolveError) as info:
            parse_trace(text[:at] + "Nobody" + text[at + len(name.text) :], coppa_relaxed_doc.architecture)
        assert str(info.value) == f"line {name.line}, col {name.col}: Nobody"


# ---------------------------------------------------------------------------
# the splitter with and without comments to blank


def commented(text):
    """`text` with ` # ;x` after every line. No token moves, and every line
    now ends in a comment that holds a `;`."""
    return "\n".join(line + " # ;x" for line in text.split("\n"))


MUTATIONS = [*"aZ_9;:,->=[]() \t\r\n#", "\x0c", "﻿", "é", "²", "I:", " -> ", " : ", ", "]


def mutant(rng, text):
    """`text` after one to three edits: a character replaced or inserted, a
    `;`, `#` or newline inserted, or a run of up to 12 characters deleted."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.3:
            text = text[:i] + rng.choice(MUTATIONS) + text[i + 1:]
        elif op < 0.55:
            text = text[:i] + rng.choice(";#\n") + text[i:]
        elif op < 0.8:
            text = text[:i] + text[i + rng.randint(1, 12):]
        else:
            text = text[:i] + rng.choice(MUTATIONS) + text[i:]
    return text


def outcome(read, text):
    try:
        return ("result", read(text))
    except dsl.DslError as exc:
        return ("error", type(exc), str(exc), exc.line, exc.col)


def differential_documents(rng):
    """(reader, printed text) for documents of all four kinds: the fixtures,
    generated documents, their v1/v2 syntheses, valid traces over both, and
    the syntheses' canonical partitions."""
    relaxed = parse_spec(read_fixture("coppa_safe_relaxed.parch")).architecture
    coppa = parse_spec(read_fixture("coppa.parch"))
    safe = build_safe_architecture_v2(coppa.architecture, coppa.constraints, coppa.options).arch
    docs = [(parse_spec, read_fixture(name)) for name in (
        "coppa.parch", "coppa_v1.parch", "coppa_safe.parch", "coppa_safe_relaxed.parch",
        "coppa_v1_safe.parch",
    )]
    docs += [
        (lambda t: parse_trace(t, relaxed), read_fixture("coppa_witness.trace")),
        (lambda t: parse_grants(t, safe), read_fixture("coppa.grants")),
        (lambda t: parse_partition(t, safe), print_partition(canonical_partition(safe.agents))),
    ]
    for _ in range(8):
        doc = mk_document(rng)
        build = build_safe_architecture_v1 if doc.options.algorithm == 1 else build_safe_architecture_v2
        out = build(doc.architecture, doc.constraints, doc.options).arch
        docs += [
            (parse_spec, print_spec(doc)),
            (parse_spec, print_spec(SpecDocument.build(out, doc.constraints, doc.options))),
            (lambda t, a=doc.architecture: parse_trace(t, a),
             print_trace(tuple(mk_valid_trace(rng, doc.architecture, 8)))),
            (lambda t, a=out: parse_trace(t, a), print_trace(tuple(mk_valid_trace(rng, out, 8)))),
            (lambda t, a=out: parse_partition(t, a), print_partition(canonical_partition(out.agents))),
        ]
    return docs


def test_mutants_read_the_same_with_a_comment_after_every_line():
    # Each mutant, and its twin with a comment after every line, give the
    # same result or the same error (type, message, line, column): the twin
    # takes the splitter's comment-blanking branch, the mutant (unless an
    # edit wrote a `#`) the plain one.
    rng = random.Random(0x5B1)
    kinds = {"result": 0, "error": 0}
    for read, text in differential_documents(rng):
        for variant in [text] + [mutant(rng, text) for _ in range(40)]:
            got = outcome(read, variant)
            assert outcome(read, commented(variant)) == got, variant
            kinds[got[0]] += 1
    assert kinds["result"] >= 200 and kinds["error"] >= 1000
