"""Privacy constraints over traces.

Negative forms are implications checked at every prefix: a creation
constraint demands that whenever the subject possesses the trigger type,
some agent possesses the required type; a possession constraint names the
agent that must possess it. The positive form asks for the goal type in the
subject's final knowledge. The local-send form gates one channel on a
same-term send having already gone to a designated receiver.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .architecture import Architecture, AgentId
from .semantics import Event, KnowledgeState, TraceCheck, TraceWalk, walk_trace

# Bound here for benchmarks/spans.py, whose tracer wraps it in this module.
from .semantics import possession_closure  # noqa: F401
from .terms import AtomicType, Record, TermExpr, type_name


class ConstraintError(Exception):
    pass


class NegCreate(Record):
    __slots__ = __match_args__ = ("subject", "trigger", "required")
    subject: AgentId
    trigger: AtomicType
    required: AtomicType

    def __init__(self, subject: AgentId, trigger: AtomicType, required: AtomicType) -> None:
        self._init(subject, trigger, required)

    def __str__(self) -> str:
        return (
            f"{self.subject.name} ni {type_name(self.trigger)} => {type_name(self.required)}"
        )


class NegPossess(Record):
    __slots__ = __match_args__ = ("subject", "trigger", "holder", "required")
    subject: AgentId
    trigger: AtomicType
    holder: AgentId
    required: AtomicType

    def __init__(
        self, subject: AgentId, trigger: AtomicType, holder: AgentId, required: AtomicType
    ) -> None:
        self._init(subject, trigger, holder, required)
        if subject == holder and trigger == required:
            raise ConstraintError(f"trivial constraint: {self}")

    def __str__(self) -> str:
        return (
            f"{self.subject.name} ni {type_name(self.trigger)} => "
            f"{self.holder.name} ni {type_name(self.required)}"
        )


class Positive(Record):
    __slots__ = __match_args__ = ("subject", "goal")
    subject: AgentId
    goal: AtomicType

    def __init__(self, subject: AgentId, goal: AtomicType) -> None:
        self._init(subject, goal)

    def __str__(self) -> str:
        return f"pos({self.subject.name}, {type_name(self.goal)})"


class LocalSend(Record):
    """gate_sender may send gate_type to gate_receiver only if it previously
    sent the same term to must_prev_receiver."""

    __slots__ = __match_args__ = (
        "gate_sender", "gate_type", "gate_receiver", "must_prev_receiver"
    )
    gate_sender: AgentId
    gate_type: AtomicType
    gate_receiver: AgentId
    must_prev_receiver: AgentId

    def __init__(
        self, gate_sender: AgentId, gate_type: AtomicType, gate_receiver: AgentId,
        must_prev_receiver: AgentId,
    ) -> None:
        self._init(gate_sender, gate_type, gate_receiver, must_prev_receiver)

    def __str__(self) -> str:
        return (
            f"local {self.gate_sender.name} -> {self.gate_receiver.name} : "
            f"{type_name(self.gate_type)} prev {self.must_prev_receiver.name}"
        )


Constraint = NegCreate | NegPossess | Positive | LocalSend


class ComplianceVerdict(Record):
    __slots__ = __match_args__ = ("compliant", "violations")
    compliant: bool
    violations: tuple[tuple[Constraint, int, str], ...]

    def __init__(
        self, compliant: bool, violations: tuple[tuple[Constraint, int, str], ...]
    ) -> None:
        self._init(compliant, violations)


def _ok() -> ComplianceVerdict:
    return ComplianceVerdict(True, ())


def _violated(constraint: Constraint, prefix_len: int, detail: str) -> ComplianceVerdict:
    return ComplianceVerdict(False, ((constraint, prefix_len, detail),))


def _create_violation(c: NegCreate, i: int) -> tuple[Constraint, int, str]:
    return (
        c,
        i,
        f"{c.subject.name} possesses {type_name(c.trigger)} at prefix {i} "
        f"but no agent possesses {type_name(c.required)}",
    )


def _possess_violation(c: NegPossess, i: int) -> tuple[Constraint, int, str]:
    return (
        c,
        i,
        f"{c.subject.name} possesses {type_name(c.trigger)} at prefix {i} "
        f"but {c.holder.name} does not possess {type_name(c.required)}",
    )


def check_neg_create(states: Sequence[KnowledgeState], c: NegCreate) -> ComplianceVerdict:
    """Compliant iff at every prefix where the subject possesses the trigger,
    some agent possesses the required type (initial holdings count).
    The first violating prefix is reported."""
    for i, state in enumerate(states):
        if c.trigger not in state.types_of(c.subject):
            continue
        if any(c.required in tys for tys in state.possessed.values()):
            continue
        return ComplianceVerdict(False, (_create_violation(c, i),))
    return _ok()


def check_neg_possess(states: Sequence[KnowledgeState], c: NegPossess) -> ComplianceVerdict:
    """Same-prefix implication: trigger at the subject forces the required
    type at the named holder."""
    for i, state in enumerate(states):
        if c.trigger not in state.types_of(c.subject):
            continue
        if c.required in state.types_of(c.holder):
            continue
        return ComplianceVerdict(False, (_possess_violation(c, i),))
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


class TraceComplianceReport(Record):
    """The verdict of one trace. An invalid trace is judged against no
    constraint: its report holds only the validity verdict."""

    __slots__ = __match_args__ = ("validity", "negatives", "local_gates", "positives")
    validity: TraceCheck
    negatives: ComplianceVerdict
    local_gates: ComplianceVerdict
    positives: Mapping[Positive, bool]

    def __init__(
        self, validity: TraceCheck, negatives: ComplianceVerdict,
        local_gates: ComplianceVerdict, positives: Mapping[Positive, bool],
    ) -> None:
        self._init(validity, negatives, local_gates, positives)

    @property
    def compliant(self) -> bool:
        # Positive constraints are existential over traces; one trace not
        # witnessing them is not a violation.
        return self.validity.valid and self.negatives.compliant and self.local_gates.compliant


def check_trace_compliance(
    arch: Architecture, events: Sequence[Event], constraints: Sequence[Constraint]
) -> TraceComplianceReport:
    """Check validity and every constraint in one walk over the trace.

    Possession only grows, so a negative constraint is decided where its
    subject first possesses the trigger: it is violated there exactly when
    the required type is not yet possessed (by some agent, or by the named
    holder), and it holds at every prefix otherwise. This gives the first
    violating prefix that `check_neg_create` and `check_neg_possess` find
    by scanning `possession_closure`. The walk folds possession only for
    the agents read here: each constraint's subject, a holder once its
    subject possesses the trigger, and, for a creation constraint, the
    agents in canonical order until one possesses the required type by
    then.
    """
    return _judge(walk_trace(arch, events), events, constraints)


def _judge(
    walk: TraceWalk, events: Sequence[Event], constraints: Sequence[Constraint]
) -> TraceComplianceReport:
    """`check_trace_compliance` on the trace's walk."""
    if not walk.verdict.valid:
        return TraceComplianceReport(walk.verdict, _ok(), _ok(), {})
    first, never = walk.first, len(events) + 1
    neg_violations: list[tuple[Constraint, int, str]] = []
    local_violations: list[tuple[Constraint, int, str]] = []
    positives: dict[Positive, bool] = {}
    for c in constraints:
        match c:
            case NegCreate():
                t = first(c.subject).get(c.trigger)
                if t is not None and all(
                    first(a).get(c.required, never) > t for a in walk.rules.agents
                ):
                    neg_violations.append(_create_violation(c, t))
            case NegPossess():
                t = first(c.subject).get(c.trigger)
                if t is not None and first(c.holder).get(c.required, never) > t:
                    neg_violations.append(_possess_violation(c, t))
            case Positive():
                positives[c] = c.goal in first(c.subject)
            case LocalSend():
                local_violations.extend(check_local(events, c).violations)
    return TraceComplianceReport(
        walk.verdict,
        ComplianceVerdict(not neg_violations, tuple(neg_violations)),
        ComplianceVerdict(not local_violations, tuple(local_violations)),
        positives,
    )
