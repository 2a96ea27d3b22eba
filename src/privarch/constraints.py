"""Privacy constraints over traces.

Negative forms are implications checked at every prefix: a creation
constraint demands that whenever the subject possesses the trigger type,
some agent possesses the required type; a possession constraint names the
agent that must possess it. The positive form asks for the goal type in the
subject's final knowledge. The local-send form gates one channel on a
same-term send having already gone to a designated receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .architecture import Architecture, AgentId
from .semantics import Event, KnowledgeState, possession_closure
from .terms import AtomicType, TermExpr, type_name


class ConstraintError(Exception):
    pass


@dataclass(frozen=True)
class NegCreate:
    subject: AgentId
    trigger: AtomicType
    required: AtomicType

    def __str__(self) -> str:
        return (
            f"{self.subject.name} ni {type_name(self.trigger)} => {type_name(self.required)}"
        )


@dataclass(frozen=True)
class NegPossess:
    subject: AgentId
    trigger: AtomicType
    holder: AgentId
    required: AtomicType

    def __post_init__(self) -> None:
        if self.subject == self.holder and self.trigger == self.required:
            raise ConstraintError(f"trivial constraint: {self}")

    def __str__(self) -> str:
        return (
            f"{self.subject.name} ni {type_name(self.trigger)} => "
            f"{self.holder.name} ni {type_name(self.required)}"
        )


@dataclass(frozen=True)
class Positive:
    subject: AgentId
    goal: AtomicType

    def __str__(self) -> str:
        return f"pos({self.subject.name}, {type_name(self.goal)})"


@dataclass(frozen=True)
class LocalSend:
    """gate_sender may send gate_type to gate_receiver only if it previously
    sent the same term to must_prev_receiver."""

    gate_sender: AgentId
    gate_type: AtomicType
    gate_receiver: AgentId
    must_prev_receiver: AgentId

    def __str__(self) -> str:
        return (
            f"local {self.gate_sender.name} -> {self.gate_receiver.name} : "
            f"{type_name(self.gate_type)} prev {self.must_prev_receiver.name}"
        )


Constraint = NegCreate | NegPossess | Positive | LocalSend


@dataclass(frozen=True)
class ComplianceVerdict:
    compliant: bool
    violations: tuple[tuple[Constraint, int, str], ...]


def _ok() -> ComplianceVerdict:
    return ComplianceVerdict(True, ())


def _violated(constraint: Constraint, prefix_len: int, detail: str) -> ComplianceVerdict:
    return ComplianceVerdict(False, ((constraint, prefix_len, detail),))


def check_neg_create(states: Sequence[KnowledgeState], c: NegCreate) -> ComplianceVerdict:
    """Compliant iff at every prefix where the subject possesses the trigger,
    some agent possesses the required type (initial holdings count).
    The first violating prefix is reported."""
    for i, state in enumerate(states):
        if c.trigger not in state.types_of(c.subject):
            continue
        if any(c.required in tys for tys in state.possessed.values()):
            continue
        return _violated(
            c,
            i,
            f"{c.subject.name} possesses {type_name(c.trigger)} at prefix {i} "
            f"but no agent possesses {type_name(c.required)}",
        )
    return _ok()


def check_neg_possess(states: Sequence[KnowledgeState], c: NegPossess) -> ComplianceVerdict:
    """Same-prefix implication: trigger at the subject forces the required
    type at the named holder."""
    for i, state in enumerate(states):
        if c.trigger not in state.types_of(c.subject):
            continue
        if c.required in state.types_of(c.holder):
            continue
        return _violated(
            c,
            i,
            f"{c.subject.name} possesses {type_name(c.trigger)} at prefix {i} "
            f"but {c.holder.name} does not possess {type_name(c.required)}",
        )
    return _ok()


def check_positive(states: Sequence[KnowledgeState], c: Positive) -> bool:
    """The goal type is in the subject's final knowledge."""
    return c.goal in states[-1].types_of(c.subject)


def check_local(events: Sequence[Event], c: LocalSend) -> ComplianceVerdict:
    """Every gate event must be strictly preceded by a send of the same term
    from the gate sender to the designated previous receiver."""
    forwarded: set[TermExpr] = set()
    for i, e in enumerate(events):
        gated = (e.sender, e.msg_type, e.receiver) == (c.gate_sender, c.gate_type, c.gate_receiver)
        if gated and e.term not in forwarded:
            return _violated(
                c,
                i + 1,
                f"gated send at event {i} has no prior same-term send to "
                f"{c.must_prev_receiver.name}",
            )
        if e.sender == c.gate_sender and e.receiver == c.must_prev_receiver:
            forwarded.add(e.term)
    return _ok()


@dataclass(frozen=True)
class TraceComplianceReport:
    negatives: ComplianceVerdict
    local_gates: ComplianceVerdict
    positives: Mapping[Positive, bool]

    @property
    def compliant(self) -> bool:
        # Positive constraints are existential over traces; one trace not
        # witnessing them is not a violation.
        return self.negatives.compliant and self.local_gates.compliant


def check_trace_compliance(
    arch: Architecture, events: Sequence[Event], constraints: Sequence[Constraint]
) -> TraceComplianceReport:
    """Run every constraint against one trace, sharing a single closure pass."""
    states = possession_closure(arch, events)
    neg_violations: list[tuple[Constraint, int, str]] = []
    local_violations: list[tuple[Constraint, int, str]] = []
    positives: dict[Positive, bool] = {}
    for c in constraints:
        match c:
            case NegCreate():
                neg_violations.extend(check_neg_create(states, c).violations)
            case NegPossess():
                neg_violations.extend(check_neg_possess(states, c).violations)
            case Positive():
                positives[c] = check_positive(states, c)
            case LocalSend():
                local_violations.extend(check_local(events, c).violations)
    return TraceComplianceReport(
        ComplianceVerdict(not neg_violations, tuple(neg_violations)),
        ComplianceVerdict(not local_violations, tuple(local_violations)),
        positives,
    )
