"""Bounded exhaustive search over type-level knowledge states.

States abstract a trace prefix to the map from agents to possessed atomic
types (message multiplicity and term identity are abstracted away; possession
is monotone and constraints are type-level, so the abstraction is exact for
them). Breadth-first search with deduplication on the possessed map finds
minimal counterexamples to negative constraints. Witnesses for positive goals
are built by a saturation pass (everything every agent could ever possess,
with the wave at which it first appears) followed by demand-driven extraction
of just the sends the goal needs. Saturation does the search's mask
arithmetic: each wave sends what every agent held before it, visits a type
only when it is new to the receiver or discharges a gate, and closes a
receiver with the rows `TypeRules.fired` returns.

Local-send gates are tracked per state as discharged-obligation bits; term
identity is approximated by type identity during search and checked on the
reconstructed concrete trace. That check cannot fail, so a failure raises
`ReconstructionFailure` as a bug: `reconstruct_trace` gives each (agent,
type) one witness term, set once and never replaced, so a gate's forward
send and its gated send carry the same term, and both the search and
saturation schedule a gated send only after its forward send (saturation in
a later wave). Witness terms therefore cannot depend on the path. One gate
table, built once per search, serves the search, saturation and
witness extraction: for each gated send, the gate bits it needs; for each
forward send, the bits it sets; for each gate, its forward send. Every
reported trace is judged by one `check_trace_compliance` walk.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from .architecture import (
    Architecture,
    AgentId,
    InvalidArchitecture,
    validate_architecture,
)
from .constraints import (
    Constraint,
    LocalSend,
    NegCreate,
    NegPossess,
    Positive,
    TraceComplianceReport,
    _judge,
)
from .semantics import (
    Event,
    Trace,
    TypeRules,
    _walk,
    receive,
    seed_witnesses,
)

# Bound here for benchmarks/spans.py, whose tracer wraps them in this module.
from .constraints import (  # noqa: F401
    check_local,
    check_neg_create,
    check_neg_possess,
    check_positive,
)
from .semantics import check_trace_valid, possession_closure  # noqa: F401
from .terms import AtomicType, Record, type_name

DEFAULT_DEPTH = 12
DEFAULT_BUDGET = 1_000_000
BUDGET_ENV = "PRIVARCH_BUDGET"

MAX_GATES = 60


class ExplorerError(Exception):
    pass


class ReconstructionFailure(ExplorerError):
    """The concrete trace rebuilt from an abstract path failed validation or
    broke a local-send gate; this indicates a bug in the abstraction and
    must never occur."""


AbstractEvent = tuple[AgentId, AtomicType, AgentId]


class SearchOutcome(Record):
    __slots__ = __match_args__ = (
        "counterexamples", "witnesses", "missing_witnesses", "exhausted", "states_visited",
        "depth", "budget",
    )
    counterexamples: tuple[tuple[Constraint, Trace], ...]
    witnesses: tuple[tuple[Positive, Trace], ...]
    missing_witnesses: tuple[Positive, ...]
    exhausted: bool
    states_visited: int
    depth: int
    budget: int

    def __init__(
        self, counterexamples: tuple[tuple[Constraint, Trace], ...],
        witnesses: tuple[tuple[Positive, Trace], ...], missing_witnesses: tuple[Positive, ...],
        exhausted: bool, states_visited: int, depth: int, budget: int,
    ) -> None:
        self._init(
            counterexamples, witnesses, missing_witnesses, exhausted, states_visited, depth, budget
        )

    @property
    def safe(self) -> bool:
        return not self.counterexamples


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ExplorerError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ExplorerError(f"{BUDGET_ENV} must be positive")
    return value


class _Encoding(TypeRules):
    """Bit-packed view of an architecture: the agents, types and constructor
    rows of `TypeRules`, the whole knowledge state one integer (one field of
    type bits per agent) with gate-discharge bits above the fields."""

    def __init__(self, arch: Architecture, gates: Sequence[LocalSend]):
        super().__init__(arch)
        self.type_mask = (1 << self.width) - 1
        self.gate_shift = len(self.agents) * self.width

        # The gate table, keyed by (sender idx, type idx, receiver idx):
        # required - gate bits that must already be discharged for this send;
        # sets - gate bits this send discharges (it is their forward send).
        # `forward_sends[gi]` is gate gi's forward send, as such a key.
        self.gate_required: dict[tuple[int, int, int], int] = {}
        self.gate_sets: dict[tuple[int, int, int], int] = {}
        self.forward_sends: list[tuple[int, int, int]] = []
        for gi, g in enumerate(gates):
            s = self.agent_idx[g.gate_sender]
            t = self.type_idx[g.gate_type]
            key = (s, t, self.agent_idx[g.gate_receiver])
            fkey = (s, t, self.agent_idx[g.must_prev_receiver])
            self.gate_required[key] = self.gate_required.get(key, 0) | (1 << gi)
            self.gate_sets[fkey] = self.gate_sets.get(fkey, 0) | (1 << gi)
            self.forward_sends.append(fkey)

        # Send rows, one per channel that carries a type, by sender then
        # receiver index (canonical order), carry masks of the types whose
        # sends are gated or discharge a gate, so the hot loop can skip the
        # dict lookups; they come from the ends' gates.
        required = self._pair_masks(self.gate_required)
        discharges = self._pair_masks(self.gate_sets)
        n = len(self.agents)
        self.sends: list[tuple[int, int, int, int, int]] = [
            (si, ri, mask, mask & required.get((si, ri), 0), mask & discharges.get((si, ri), 0))
            for si in range(n)
            for ri in range(n)
            if (mask := self.channels[si * n + ri])
        ]

    @staticmethod
    def _pair_masks(keys: Iterable[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
        """The types of (sender, type, receiver) keys, as a mask per pair."""
        out: dict[tuple[int, int], int] = {}
        for s, t, r in keys:
            out[s, r] = out.get((s, r), 0) | 1 << t
        return out

    def initial_state(self) -> int:
        state = 0
        for i in range(len(self.agents)):
            state |= self.closure(i, 0) << (i * self.width)
        return state

    def decode_event(self, code: int) -> AbstractEvent:
        n = len(self.agents)
        r = code % n
        code //= n
        t = code % self.width
        s = code // self.width
        return (self.agents[s], self.types[t], self.agents[r])


def reconstruct_trace(
    arch: Architecture | TypeRules, abstract_events: Sequence[AbstractEvent]
) -> Trace:
    """Turn an abstract send sequence into a concrete trace using canonical
    witness terms (the knowledge-closure rule: witnesses are assigned once,
    smallest first, never replaced). The architecture may come as its
    constructor table, as the search passes its own."""
    rules = arch if isinstance(arch, TypeRules) else TypeRules(arch)
    owned = seed_witnesses(rules)
    events: list[Event] = []
    for sender, msg_type, receiver in abstract_events:
        term = owned[sender].get(msg_type)
        if term is None:
            raise ReconstructionFailure(
                f"sender {sender.name} holds no witness for the scheduled send"
            )
        events.append(Event(sender, term, msg_type, receiver))
        receive(rules, owned, events[-1])
    return tuple(events)


def _concrete_check(
    enc: _Encoding,
    gates: Sequence[LocalSend],
    abstract: Sequence[AbstractEvent],
    target: Constraint,
) -> tuple[Trace, TraceComplianceReport]:
    """Rebuild the concrete trace of an abstract path and judge it against
    `target` and the gates in one compliance walk, both on the search's own
    table. An invalid trace or a broken gate is a bug and raises."""
    trace = reconstruct_trace(enc, abstract)
    rep = _judge(_walk(enc, trace), trace, [target, *gates])
    if not rep.validity.valid:
        raise ReconstructionFailure(
            f"reconstructed trace invalid at index {rep.validity.index}: {rep.validity.reason}"
        )
    if not rep.local_gates.compliant:
        raise ReconstructionFailure("reconstructed trace breaks a local-send gate")
    return trace, rep


# --- saturation + demand-driven witness extraction --------------------------


class _Saturation(Record):
    """Everything any agent could ever possess: how each (agent idx, type
    idx) atom first arose, and the earliest wave each gate's forward send
    can happen."""

    __slots__ = __match_args__ = ("derivation", "forward_round")
    derivation: dict[tuple[int, int], tuple]
    forward_round: dict[tuple[int, int, int], int]

    def __init__(
        self, derivation: dict[tuple[int, int], tuple],
        forward_round: dict[tuple[int, int, int], int],
    ) -> None:
        self._init(derivation, forward_round)


def _saturate(enc: _Encoding) -> _Saturation:
    derivation: dict[tuple[int, int], tuple] = {}
    forward_round: dict[tuple[int, int, int], int] = {}

    def gain(agent: int, mask: int, new: int | None = None) -> int:
        for t, arg_idxs in enc.fired(agent, mask, new):
            derivation[(agent, t)] = ("ctor", arg_idxs)
            mask |= 1 << t
        return mask

    fields = [gain(i, 0) for i in range(len(enc.agents))]
    discharged = 0  # gate bits whose forward send has happened
    wave = 0
    progressed = True
    while progressed:
        wave += 1
        progressed = False
        # A sender sends what it held before this wave, under the gates
        # discharged before it.
        held, gates_before = fields[:], discharged
        # Channels are visited in canonical order, so derivation tie-breaks
        # are deterministic and prefer original-agent senders. Only types new
        # to the receiver or discharging a gate can change anything.
        for s, r, chan_mask, req_mask, sets_mask in enc.sends:
            m = held[s] & chan_mask & (~fields[r] | sets_mask)
            while m:
                bit = m & -m
                m ^= bit
                t = bit.bit_length() - 1
                if bit & req_mask:
                    req = enc.gate_required[(s, t, r)]
                    if gates_before & req != req:
                        continue  # a gate's forward send has not happened yet
                if bit & sets_mask and (s, t, r) not in forward_round:
                    forward_round[(s, t, r)] = wave
                    discharged |= enc.gate_sets[(s, t, r)]
                    progressed = True
                if not fields[r] & bit:
                    derivation[(r, t)] = ("recv", s, wave)
                    fields[r] = gain(r, fields[r] | bit, t)
                    progressed = True
    return _Saturation(derivation, forward_round)


def _demand_witness(
    enc: _Encoding, sat: _Saturation, goal_agent: int, goal_type: int
) -> list[AbstractEvent] | None:
    """Extract the send set the goal atom depends on and order it causally.
    Returns None when saturation never produced the goal, i.e. no witness
    exists at any depth. The proof is followed with explicit stacks, so a
    long relay chain needs no deep recursion."""
    if (goal_agent, goal_type) not in sat.derivation:
        return None
    events: dict[tuple[int, int, int], int] = {}
    seen_atoms: set[tuple[int, int]] = set()
    atoms = [(goal_agent, goal_type)]
    sends: list[tuple[tuple[int, int, int], int]] = []
    while atoms or sends:
        if sends:
            key, wave = sends.pop()
            if key in events:
                continue
            events[key] = wave
            atoms.append(key[:2])
            req = enc.gate_required.get(key, 0)
            while req:  # each gate's forward send comes first
                bit = req & -req
                req ^= bit
                fkey = enc.forward_sends[bit.bit_length() - 1]
                sends.append((fkey, sat.forward_round[fkey]))
            continue
        atom = atoms.pop()
        if atom in seen_atoms:
            continue
        seen_atoms.add(atom)
        deriv = sat.derivation[atom]
        if deriv[0] == "ctor":
            atoms.extend((atom[0], arg) for arg in deriv[1])
        else:
            _, sender, wave = deriv
            sends.append(((sender, atom[1], atom[0]), wave))
    ordered = sorted(
        events.items(),
        key=lambda kv: (
            kv[1],
            enc.agents[kv[0][0]].sort_key,
            enc.agents[kv[0][2]].sort_key,
            kv[0][1],
        ),
    )
    return [
        (enc.agents[s], enc.types[t], enc.agents[r]) for (s, t, r), _ in ordered
    ]


# --- main entry --------------------------------------------------------------


def explore(
    arch: Architecture,
    constraints: Sequence[Constraint],
    depth: int = DEFAULT_DEPTH,
    budget: int | None = None,
    local_constraints: Sequence[LocalSend] = (),
) -> SearchOutcome:
    """Search every knowledge state reachable in at most `depth` sends.

    Negative constraints are checked at each reachable state; the first
    (shortest) counterexample per constraint is reconstructed as a concrete
    trace and validated before being reported. Positive constraints get a
    demand-built witness trace when one exists within the depth bound and are
    otherwise reported as missing (inconclusive, not a violation). Local-send
    constraints gate the search rather than being search targets. `exhausted`
    is True only when the frontier emptied within the state budget, i.e.
    every reachable knowledge state was seen.
    """
    report = validate_architecture(arch)
    if not report.passed:
        raise InvalidArchitecture(
            "cannot explore an invalid architecture: " + "; ".join(report.lines())
        )
    if depth < 0:
        raise ExplorerError("depth must be non-negative")
    if budget is None:
        budget = default_budget()
    if budget < 1:
        raise ExplorerError("budget must be positive")

    gates: list[LocalSend] = list(local_constraints)
    negatives: list[NegCreate | NegPossess] = []
    positives: list[Positive] = []
    for c in constraints:
        if isinstance(c, (NegCreate, NegPossess)):
            negatives.append(c)
        elif isinstance(c, Positive):
            positives.append(c)
        elif isinstance(c, LocalSend):
            gates.append(c)
        else:
            raise ExplorerError(f"unsupported constraint: {c!r}")
    gates = list(dict.fromkeys(gates))
    if len(gates) > MAX_GATES:
        raise ExplorerError("too many local-send constraints to track")
    for g in gates:
        if g.gate_receiver == g.must_prev_receiver:
            raise ExplorerError(
                "degenerate local-send constraint: gate receiver equals the "
                "required previous receiver"
            )
    # Every constraint field is an agent or an atomic type.
    declared = arch.type_system.atomic_types
    for c in (*gates, *negatives, *positives):
        for ref in (getattr(c, name) for name in c.__match_args__):
            if isinstance(ref, AgentId):
                if ref not in arch.agents:
                    raise ExplorerError(
                        f"constraint references an undeclared agent {ref.name}"
                    )
            elif ref not in declared:
                raise ExplorerError(
                    f"constraint references an undeclared type {type_name(ref)}"
                )

    enc = _Encoding(arch, gates)
    n_agents = len(enc.agents)
    width = enc.width
    gate_shift = enc.gate_shift

    # One row per negative constraint: (trigger mask, required mask, index).
    # The state violates it when it has the trigger bit and no required bit;
    # the creation form's required mask has the bit in every agent's field.
    rows: list[tuple[int, int, int]] = []
    for ci, c in enumerate(negatives):
        trigger = 1 << (enc.agent_idx[c.subject] * width + enc.type_idx[c.trigger])
        holders = (
            [enc.agent_idx[c.holder]] if isinstance(c, NegPossess) else range(n_agents)
        )
        required = sum(1 << (h * width + enc.type_idx[c.required]) for h in holders)
        rows.append((trigger, required, ci))

    found: dict[int, tuple[Constraint, Trace]] = {}

    def path_to(state: int) -> list[AbstractEvent]:
        codes: list[int] = []
        cur = state
        while True:
            parent, code = visited[cur]
            if parent is None:
                break
            codes.append(code)
            cur = parent
        return [enc.decode_event(c) for c in reversed(codes)]

    def record(state: int, ci: int) -> None:
        c = negatives[ci]
        trace, rep = _concrete_check(enc, gates, path_to(state), c)
        if rep.negatives.compliant:
            raise ReconstructionFailure("abstract violation vanished on the concrete trace")
        found[ci] = (c, trace)

    root = enc.initial_state()
    visited: dict[int, tuple[int | None, int]] = {root: (None, -1)}
    states_visited = 1
    budget_cut = False

    for trigger, required, ci in rows:
        if root & trigger and not root & required:
            record(root, ci)

    pending = [row for row in rows if row[2] not in found]
    frontier = [root]
    sends = enc.sends
    closure_memos = enc._closure_memo
    closure = enc.closure
    gate_required = enc.gate_required
    gate_sets = enc.gate_sets
    type_mask = enc.type_mask
    layers_done = 0

    while frontier and pending and layers_done < depth and not budget_cut:
        nxt: list[int] = []
        for state in frontier:
            fields = [(state >> (i * width)) & type_mask for i in range(n_agents)]
            gate_bits = state >> gate_shift
            for s, r, chan_mask, req_mask, sets_mask in sends:
                # A send grows the receiver's knowledge or discharges gates;
                # a discharge that changes nothing finds its state visited.
                fr = fields[r]
                m = fields[s] & chan_mask & (~fr | sets_mask)
                if not m:
                    continue
                r_shift = r * width
                memo_r = closure_memos[r]
                while m:
                    bit = m & -m
                    m ^= bit
                    t = bit.bit_length() - 1
                    if bit & req_mask:
                        req = gate_required[(s, t, r)]
                        if (gate_bits & req) != req:
                            continue
                    grows = not fr & bit
                    if grows:
                        key = fr | bit
                        closed = memo_r.get(key)
                        if closed is None:
                            closed = closure(r, key, t)
                        succ = state ^ ((fr ^ closed) << r_shift)
                    else:
                        succ = state
                    if bit & sets_mask:
                        succ |= gate_sets[(s, t, r)] << gate_shift
                    if succ in visited:
                        continue
                    if states_visited >= budget:
                        budget_cut = True
                        break
                    visited[succ] = (state, (s * width + t) * n_agents + r)
                    states_visited += 1
                    nxt.append(succ)
                    if grows:
                        for trigger, required, ci in pending:
                            if succ & trigger and not succ & required:
                                record(succ, ci)
                                pending = [row for row in pending if row[2] != ci]
                if budget_cut or not pending:
                    break
            if budget_cut or not pending:
                break
        frontier = nxt
        layers_done += 1

    exhausted = bool(negatives) and not frontier and not budget_cut

    witnesses: list[tuple[Positive, Trace]] = []
    missing: list[Positive] = []
    if positives:
        sat = _saturate(enc)
        for goal in positives:
            agent = enc.agent_idx[goal.subject]
            abstract = _demand_witness(enc, sat, agent, enc.type_idx[goal.goal])
            if abstract is None or len(abstract) > depth:
                missing.append(goal)
                continue
            trace, rep = _concrete_check(enc, gates, abstract, goal)
            if not rep.positives[goal]:
                raise ReconstructionFailure("witness trace does not establish its goal")
            witnesses.append((goal, trace))

    return SearchOutcome(
        counterexamples=tuple(found[ci] for ci in sorted(found)),
        witnesses=tuple(witnesses),
        missing_witnesses=tuple(missing),
        exhausted=exhausted,
        states_visited=states_visited,
        depth=depth,
        budget=budget,
    )
