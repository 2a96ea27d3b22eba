"""Constructor calculus: types, terms, signatures, inference."""

from __future__ import annotations

import pytest

from privarch import (
    App,
    Arrow,
    Base,
    Certified,
    Con,
    ConstructorDecl,
    MalformedSignature,
    Proof,
    TypeMismatch,
    TypeSystem,
    UnknownConstructor,
    apply,
    infer_type,
    make_signature,
    parse_term,
    signature_parts,
    subterms,
    term_size,
    term_to_str,
    type_name,
    type_sort_key,
    uncurry,
)

INFO = Base("INFO")
CONSENT = Base("CONSENT")
POLICY = Base("POLICY")


@pytest.fixture(scope="module")
def ts_base():
    return TypeSystem.build(
        [INFO, CONSENT, POLICY],
        [
            ConstructorDecl("info", INFO),
            ConstructorDecl("consent", CONSENT),
            ConstructorDecl("policy", POLICY),
        ],
    )


@pytest.fixture(scope="module")
def ts_safe():
    c_consent = Certified("Website", "CONSENT")
    p_policy = Proof("Parent", "POLICY")
    return TypeSystem.build(
        [INFO, CONSENT, POLICY, c_consent, p_policy, Certified("Parent", "POLICY")],
        [
            ConstructorDecl("consent", CONSENT),
            ConstructorDecl("policy", POLICY),
            ConstructorDecl(
                "m[Website,CONSENT]", make_signature([CONSENT, p_policy], c_consent)
            ),
            ConstructorDecl("p[Parent,POLICY]", make_signature([POLICY], p_policy)),
            ConstructorDecl(
                "pi[Website,CONSENT]", make_signature([c_consent], CONSENT)
            ),
        ],
    )


def test_zero_arg_constructor_infers_its_target(ts_base):
    assert infer_type(ts_base, Con("info")) == INFO


def test_certifier_application_infers_wrapper(ts_safe):
    proof = App(Con("p[Parent,POLICY]"), Con("policy"))
    term = App(App(Con("m[Website,CONSENT]"), Con("consent")), proof)
    assert infer_type(ts_safe, term) == Certified("Website", "CONSENT")


def test_partial_application_has_arrow_type(ts_safe):
    partial = App(Con("m[Website,CONSENT]"), Con("consent"))
    assert infer_type(ts_safe, partial) == Arrow(
        Proof("Parent", "POLICY"), Certified("Website", "CONSENT")
    )


def test_unknown_constructor_raises(ts_base):
    with pytest.raises(UnknownConstructor):
        infer_type(ts_base, Con("nope"))


def test_argument_type_mismatch_raises(ts_safe):
    with pytest.raises(TypeMismatch):
        infer_type(ts_safe, App(Con("pi[Website,CONSENT]"), Con("consent")))


def test_over_application_of_atomic_raises(ts_base):
    with pytest.raises(TypeMismatch):
        infer_type(ts_base, App(Con("info"), Con("info")))


def test_make_signature_right_associates():
    sig = make_signature([INFO, CONSENT], POLICY)
    assert sig == Arrow(INFO, Arrow(CONSENT, POLICY))
    assert type_name(sig) == "INFO -> CONSENT -> POLICY"


def test_signature_parts_inverts_make_signature():
    decl = ConstructorDecl("c", make_signature([INFO, CONSENT], POLICY))
    assert signature_parts(decl) == ((INFO, CONSENT), POLICY)


def test_signature_parts_on_atomic():
    assert signature_parts(ConstructorDecl("c", INFO)) == ((), INFO)


def test_type_system_keeps_each_constructors_parts():
    decls = [
        ConstructorDecl("c", make_signature([INFO, CONSENT], POLICY)),
        ConstructorDecl("d", INFO),
    ]
    ts = TypeSystem.build([INFO, CONSENT, POLICY], decls)
    for decl in decls:
        assert ts.parts(decl.name) == signature_parts(decl)
    with pytest.raises(UnknownConstructor):
        ts.parts("missing")
    # The kept parts take no part in equality, hashing or repr.
    again = TypeSystem.build([INFO, CONSENT, POLICY], reversed(decls))
    assert again == ts and hash(again) == hash(ts) and repr(again) == repr(ts)
    assert repr(ts) == (
        f"TypeSystem(atomic_types={ts.atomic_types!r}, constructors={ts.constructors!r})"
    )


def test_nested_arrow_argument_is_malformed():
    decl = ConstructorDecl("c", Arrow(Arrow(INFO, CONSENT), POLICY))
    with pytest.raises(MalformedSignature):
        TypeSystem.build([INFO, CONSENT, POLICY], [decl])


def test_type_names():
    assert type_name(Certified("Website", "INFO")) == "C[Website](INFO)"
    assert type_name(Proof("Parent", "POLICY")) == "P[Parent](POLICY)"
    assert type_name(INFO) == "INFO"


def test_type_sort_key_ranks_base_before_wrappers():
    ordered = sorted(
        [Proof("A", "T"), Certified("A", "T"), Base("Z"), Base("A")], key=type_sort_key
    )
    assert ordered == [Base("A"), Base("Z"), Certified("A", "T"), Proof("A", "T")]


def test_term_printing_and_size():
    term = apply("m[Website,CONSENT]", [Con("consent"), apply("p[Parent,POLICY]", [Con("policy")])])
    assert term_to_str(term) == "m[Website,CONSENT](consent, p[Parent,POLICY](policy))"
    assert term_size(term) == 4
    assert parse_term(term_to_str(term)) == term


def test_deep_terms_hash_and_compare_without_recursion():
    def chain(depth):
        t = Con("a")
        for _ in range(depth):
            t = App(Con("f"), t)
        return t

    left, right = chain(5000), chain(5000)
    assert left is not right
    assert hash(left) == hash(right)
    assert left == right
    assert term_size(left) == 5001
    assert left != App(Con("g"), chain(4999))
    assert left != chain(4999)


def test_terms_are_immutable_and_match_structurally():
    term = apply("m", [Con("a"), Con("b")])
    with pytest.raises(AttributeError):
        term.arg = Con("c")
    match term:
        case App(App(Con(head), first), second):
            assert (head, first, second) == ("m", Con("a"), Con("b"))
        case _:
            pytest.fail("App no longer matches positionally")
    assert term != Con("m") and Con("m") != term
    assert {term: 1}[apply("m", [Con("a"), Con("b")])] == 1


def test_uncurry_and_apply_are_inverse():
    args = [Con("consent"), Con("policy")]
    term = apply("m", args)
    head, got = uncurry(term)
    assert head == "m"
    assert list(got) == args


def test_subterms_covers_everything():
    term = apply("m", [Con("a"), apply("p", [Con("b")])])
    seen = set(subterms(term))
    assert Con("a") in seen and Con("b") in seen and term in seen
    # full application tree: constructor leaves plus one application node
    # per argument consumed
    assert len(seen) == 2 * term_size(term) - 1


def test_subterms_of_deep_terms_come_in_pre_order_without_recursion():
    # 5,000 arguments nested inside one another, and 5,000 applied in turn
    # (the function part nested 5,000 deep).
    nested = Con("a")
    for _ in range(5000):
        nested = App(Con("f"), nested)
    expected, t = [], nested
    while isinstance(t, App):
        expected += [t, t.fun]
        t = t.arg
    expected.append(t)
    got = list(subterms(nested))
    assert len(got) == len(expected) == 10_001
    assert all(a is b for a, b in zip(got, expected))

    args = [Con(f"a{i}") for i in range(5000)]
    applied = apply("m", args)
    spine, t = [], applied
    while isinstance(t, App):
        spine.append(t)
        t = t.fun
    expected = spine + [t]
    for app in reversed(spine):
        expected.append(app.arg)
    got = list(subterms(applied))
    assert len(got) == len(expected) == 10_001
    assert all(a is b for a, b in zip(got, expected))
    assert got[-5000:] == args


def test_duplicate_constructor_name_rejected():
    # names are identity, so a name cannot be declared twice at this level;
    # the document parser dedups re-statements before building
    with pytest.raises(MalformedSignature):
        TypeSystem.build(
            [INFO, CONSENT],
            [ConstructorDecl("c", INFO), ConstructorDecl("c", CONSENT)],
        )
    with pytest.raises(MalformedSignature):
        TypeSystem.build(
            [INFO], [ConstructorDecl("c", INFO), ConstructorDecl("c", INFO)]
        )


def test_has_constructor(ts_base):
    assert ts_base.has_constructor("info")
    assert not ts_base.has_constructor("m[Website,CONSENT]")
