"""The value contract of every record class: equality, hashing, freezing,
pickling, copying, repr and positional `match`, as frozen dataclasses gave
them."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import privarch
from privarch import (
    AgentId,
    Architecture,
    Arrow,
    Base,
    Certified,
    ComplianceVerdict,
    Con,
    ConstructorDecl,
    Decomposition,
    Event,
    Grant,
    LocalSend,
    NegCreate,
    NegPossess,
    Partition,
    Positive,
    Proof,
    SafeArchitecture,
    SearchOutcome,
    SpecDocument,
    SynthesisConfig,
    SynthesizedFrom,
    TraceCheck,
    TraceComplianceReport,
    TypeSystem,
    VerdictReport,
    Violation,
    apply,
)
from privarch.explorer import _Saturation
from privarch.semantics import TraceWalk

CHILD, PARENT = AgentId("Child"), AgentId("Parent")
INFO, CONSENT = Base("INFO"), Base("CONSENT")
DECLS = (ConstructorDecl("consent", CONSENT), ConstructorDecl("info", INFO))
TS = TypeSystem(frozenset({INFO, CONSENT}), DECLS)
ARCH = Architecture.build(TS, [CHILD, PARENT], {CHILD: {"info"}}, {(CHILD, PARENT): {INFO}})
SEND = Event(CHILD, Con("info"), INFO, PARENT)
GOAL = Positive(PARENT, INFO)
GATE = LocalSend(CHILD, INFO, PARENT, AgentId.output_of(CHILD))
OK = ComplianceVerdict(True, ())

# Each record class with its fields, in order, and the values of one
# instance. TraceWalk's table is a stand-in: the record protocol does not
# look inside its fields, and the table itself has no value equality.
RECORDS = [
    (Base, ("name",), ("INFO",)),
    (Certified, ("reader", "inner"), ("Parent", "INFO")),
    (Proof, ("holder", "inner"), ("Parent", "INFO")),
    (Arrow, ("domain", "codomain"), (INFO, CONSENT)),
    (Con, ("name",), ("info",)),
    (ConstructorDecl, ("name", "signature"), ("pair", Arrow(INFO, CONSENT))),
    (TypeSystem, ("atomic_types", "constructors"), (frozenset({INFO, CONSENT}), DECLS)),
    (Violation, ("code", "subject", "message"), ("channels", ("Child",), "self-channel")),
    (VerdictReport, ("violations",), ((Violation("agents", (), "none"),),)),
    (
        Architecture,
        ("type_system", "agents", "holdings", "channels"),
        (
            TS, frozenset({CHILD, PARENT}), {CHILD: frozenset({"info"})},
            {(CHILD, PARENT): frozenset({INFO})},
        ),
    ),
    (
        Event,
        ("sender", "term", "msg_type", "receiver"),
        (CHILD, apply("pair", [Con("info"), Con("consent")]), INFO, PARENT),
    ),
    (TraceCheck, ("valid", "index", "reason"), (False, 1, "channel")),
    (Decomposition, ("computer", "head", "args", "delivery_chain"), (CHILD, "info", (), (0, 2))),
    (
        TraceWalk,
        ("verdict", "delivered", "log", "rules"),
        (TraceCheck(True), {PARENT: {Con("info"): 0}}, [[], [(0, 0)]], "rules"),
    ),
    (NegCreate, ("subject", "trigger", "required"), (CHILD, INFO, CONSENT)),
    (NegPossess, ("subject", "trigger", "holder", "required"), (CHILD, INFO, PARENT, CONSENT)),
    (Positive, ("subject", "goal"), (PARENT, INFO)),
    (
        LocalSend,
        ("gate_sender", "gate_type", "gate_receiver", "must_prev_receiver"),
        (CHILD, INFO, PARENT, AgentId.output_of(CHILD)),
    ),
    (ComplianceVerdict, ("compliant", "violations"), (False, ((GOAL, 2, "detail"),))),
    (
        TraceComplianceReport,
        ("validity", "negatives", "local_gates", "positives"),
        (TraceCheck(True), OK, OK, {GOAL: True}),
    ),
    (
        SpecDocument,
        ("architecture", "constraints", "options"),
        (ARCH, (GOAL,), SynthesisConfig(1, 5)),
    ),
    (
        SearchOutcome,
        (
            "counterexamples", "witnesses", "missing_witnesses", "exhausted", "states_visited",
            "depth", "budget",
        ),
        (((NegCreate(CHILD, INFO, CONSENT), (SEND,)),), ((GOAL, (SEND,)),), (), True, 12, 3, 100),
    ),
    (_Saturation, ("derivation", "forward_round"), ({(0, 1): ("ctor", ())}, {(0, 1, 1): 2})),
    (
        SynthesizedFrom,
        ("role", "agent", "base", "constraints"),
        ("certifier", "Parent", "INFO", (GOAL,)),
    ),
    (
        SafeArchitecture,
        ("arch", "canonical_partition", "provenance", "warnings", "local_constraints"),
        (
            ARCH, Partition({CHILD: CHILD, PARENT: PARENT}),
            {"m": SynthesizedFrom("certifier", "Parent", "INFO")}, ("w",), (GATE,),
        ),
    ),
    (
        Grant,
        ("input_agent", "msg_type", "output_agent"),
        (AgentId.interface_of(CHILD), INFO, AgentId.output_of(CHILD)),
    ),
    (Partition, ("owner",), ({CHILD: CHILD},)),
]

# Records with a mapping among their fields cannot be hashed.
UNHASHABLE = {
    Architecture, TraceWalk, TraceComplianceReport, SpecDocument, _Saturation, SafeArchitecture,
    Partition,
}

# The hash of a record's fields, where it is not the field tuple's.
HASH_OF = {Proof: lambda values: hash((*values, "Proof"))}

cases = pytest.mark.parametrize(
    "cls, names, values", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)


def positional(rec):
    """The fields bound by a class pattern with one capture per field."""
    cls = type(rec)
    match len(cls.__match_args__), rec:
        case 1, cls(a):
            return (a,)
        case 2, cls(a, b):
            return (a, b)
        case 3, cls(a, b, c):
            return (a, b, c)
        case 4, cls(a, b, c, d):
            return (a, b, c, d)
        case 5, cls(a, b, c, d, e):
            return (a, b, c, d, e)
        case 7, cls(a, b, c, d, e, f, g):
            return (a, b, c, d, e, f, g)
    pytest.fail(f"no pattern for {rec!r}")


@cases
def test_equal_fields_give_equal_records(cls, names, values):
    rec = cls(*values)
    again = cls(*copy.deepcopy(values))
    assert cls.__match_args__ == names
    assert rec == again and not rec != again
    assert cls(**dict(zip(names, values))) == rec
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(again) == HASH_OF.get(cls, hash)(values)
        assert len({rec, again}) == 1


def test_a_proof_and_a_certificate_of_the_same_fields_hash_apart():
    # Every v2 type system holds both for each agent and base, so a shared
    # hash would send each lookup of one through an equality test with the
    # other.
    assert hash(Certified("Parent", "INFO")) != hash(Proof("Parent", "INFO"))


@cases
def test_another_class_with_the_same_fields_is_unequal(cls, names, values):
    twin = type("Twin", (cls,), {"__slots__": ()})
    rec = cls(*values)
    assert rec != twin(*values) and twin(*values) != rec
    assert rec != values and rec.__eq__(values) is NotImplemented


@cases
def test_fields_can_be_neither_assigned_nor_deleted(cls, names, values):
    rec = cls(*values)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, name)


@cases
def test_pickle_and_copies_round_trip(cls, names, values):
    rec = cls(*values)
    if cls not in UNHASHABLE:
        hash(rec)
    for back in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(back) is cls and back == rec
        if cls not in UNHASHABLE:
            assert hash(back) == hash(rec)


@cases
def test_repr_reads_as_the_dataclass_did(cls, names, values):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__qualname__}({fields})"


@cases
def test_positional_patterns_bind_the_fields_in_order(cls, names, values):
    assert positional(cls(*values)) == values


@cases
def test_records_keep_no_instance_dict(cls, names, values):
    assert not hasattr(cls(*values), "__dict__")


def test_only_the_records_used_as_dataclasses_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(privarch.__path__, "privarch."):
        module = importlib.import_module(info.name)
        found |= {
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
        }
    assert found == {AgentId, SynthesisConfig}, (
        "each dataclass costs about 0.8 ms of every CLI start-up, as its "
        f"methods are generated at import; make these plain records: "
        f"{sorted(c.__qualname__ for c in found - {AgentId, SynthesisConfig})}"
    )
